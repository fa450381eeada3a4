from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinbuzz.message import Message, format_ts, from_json_line, to_json_line


def test_format_ts_pads_the_year_to_four_digits():
    assert format_ts(datetime(999, 6, 1, 10, tzinfo=timezone.utc)) == "0999-06-01T10:00:00Z"
    assert format_ts(datetime(5, 3, 4, 5, 6, 7, tzinfo=timezone.utc)) == "0005-03-04T05:06:07Z"


@given(
    st.text(max_size=8),
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59), timezones=st.just(timezone.utc)),
    st.text(max_size=8),
    st.text(max_size=8),
)
def test_json_line_round_trips(stream_id, ts, author, text):
    msg = Message(stream_id, ts.replace(microsecond=0), author, text)
    assert from_json_line(to_json_line(msg)) == msg


def test_a_lone_surrogate_is_no_message():
    line = '{"stream_id": "s", "ts": "2015-06-01T10:00:00Z", "author": "a", "text": "x"}'
    for field in ("stream_id", "author", "text"):
        with pytest.raises(ValueError, match=f"^'{field}' holds a lone surrogate$"):
            from_json_line(line.replace(f'"{field}": "', f'"{field}": "\\ud800'))
    # A surrogate pair escape is one character, which UTF-8 writes.
    assert from_json_line(line.replace('"x"', '"\\ud83d\\ude00"')).text == "\U0001f600"


# The ingest paths build their records with `tuple.__new__`, which checks no field count: a field
# added to a record must reach every such call.
def test_records_built_with_tuple_new_hold_every_field():
    from coinbuzz.irc import ingest_log, parse_log_line
    from coinbuzz.twitter import ingest_capture, parse_tweet

    chat = "[Mon Jun 1 2015] [10:00:00] <alice>\thello bitcoin"
    tweet = (
        '{"id": 1, "created_at": "Mon Jun 01 10:00:00 +0000 2015", "user": {"screen_name": "a"},'
        ' "text": "bitcoin x"}'
    )
    records = [
        parse_log_line(chat),
        parse_log_line("[Mon Jun 1 2015] [10:00:01] *** Join: bob"),
        parse_log_line("[Mon Jun 1 2015] [10:00:02] *** Shout: hi"),
        parse_tweet(tweet),
        from_json_line('{"stream_id": "s", "ts": "2015-06-01T10:00:00Z", "author": "a", "text": "x"}'),
    ]
    ingest_log([chat], records.append, "#bitcoin")
    ingest_capture([tweet], records.append)
    assert len(records) == 7
    for record in records:
        assert len(record) == len(type(record)._fields), type(record).__name__
