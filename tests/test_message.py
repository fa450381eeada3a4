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
