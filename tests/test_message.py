from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinbuzz.cli import main
from coinbuzz.message import Message, format_ts, from_json_line, loads_line, to_json_line


def test_format_ts_pads_the_year_to_four_digits():
    assert format_ts(datetime(999, 6, 1, 10, tzinfo=timezone.utc)) == "0999-06-01T10:00:00Z"
    assert format_ts(datetime(5, 3, 4, 5, 6, 7, tzinfo=timezone.utc)) == "0005-03-04T05:06:07Z"


@given(
    st.datetimes(
        min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
        timezones=st.integers(-1439, 1439).map(lambda minutes: timezone(timedelta(minutes=minutes))),
    )
)
def test_format_ts_is_the_utc_isoformat_cut_to_seconds(ts):
    assert format_ts(ts) == ts.astimezone(timezone.utc).isoformat()[:19] + "Z"


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


# --- loads_line against json.loads -------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# JSON's four whitespace characters, then others that Python's str.strip() drops, and a BOM.
_spaces = st.text(alphabet=" \t\n\r" + "\x0b\x0c\x1c\x85\xa0\u2028\u3000\ufeff", max_size=3)


@st.composite
def _json_lines(draw) -> str:
    text = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    change = draw(st.sampled_from(["none", "bom", "truncate", "trail"]))
    if change == "bom":
        text = "\ufeff" + text
    elif change == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif change == "trail":
        text += draw(st.text(max_size=4))
    return draw(_spaces) + text + draw(_spaces)


def _decoded(decode, line: str) -> tuple:
    """The value through json.dumps, so that NaN equals NaN, or the exception's type and text."""
    try:
        return ("value", json.dumps(decode(line)))
    except Exception as exc:  # any exception, to compare with json.loads's
        return (type(exc), str(exc))


@given(_json_lines())
@example("")
@example(" ")
@example("\ufeff")
@example("[" * 100_000)
@example("[" * 100_000 + "]" * 100_000)
@example("1" * 5_000)
@example('{"id": ' + "1" * 5_000 + "}")
@example('{"a": 1} {"b": 2}')
@example('"unterminated')
@example("-")
@example("NaN\n")
def test_loads_line_is_json_loads(line):
    assert _decoded(loads_line, line) == _decoded(json.loads, line)


_MESSAGE = '{"stream_id": "twitter", "ts": "2015-06-01T10:00:00Z", "author": "a", "text": "bitcoin x"}'
_STAGES = [["annotate", "--gazetteer", "gaz.tsv"], ["aggregate"]]


@pytest.mark.parametrize("argv", _STAGES, ids=["annotate", "aggregate"])
@pytest.mark.parametrize(
    "line, error",
    [
        ("\ufeff" + _MESSAGE, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (_MESSAGE + " x", "Extra data: line 1 column 92 (char 91)"),
    ],
    ids=["bom", "trailing-junk"],
)
def test_a_messages_line_that_json_loads_rejects_is_fatal(tmp_path, capsys, monkeypatch, argv, line, error):
    monkeypatch.chdir(tmp_path)
    Path("gaz.tsv").write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")
    Path("msgs.jsonl").write_text(_MESSAGE + "\n" + line + "\n", encoding="utf-8")
    assert main(argv + ["--in", "msgs.jsonl", "--out", "out.txt"]) == 2
    assert capsys.readouterr().err == f"coinbuzz: error: messages line 2: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gaz.tsv", "msgs.jsonl"]


@pytest.mark.parametrize(
    "argv, err", zip(_STAGES, ["annotate: documents=2\n", "aggregate: stream=twitter days=1\n"]), ids=["annotate", "aggregate"]
)
def test_a_messages_line_with_leading_spaces_reads_as_without(tmp_path, capsys, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    Path("gaz.tsv").write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")
    outputs = []
    for pad in ("", "   \t"):
        Path("msgs.jsonl").write_text(_MESSAGE + "\n" + pad + _MESSAGE + "\n", encoding="utf-8")
        assert main(argv + ["--in", "msgs.jsonl", "--out", "out.txt"]) == 0
        assert capsys.readouterr().err == err
        outputs.append(Path("out.txt").read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", _STAGES, ids=["annotate", "aggregate"])
@pytest.mark.parametrize(
    "line, error",
    [
        ("\x0b" + _MESSAGE, "Expecting value: line 1 column 1 (char 0)"),
        ("\u3000" + _MESSAGE, "Expecting value: line 1 column 1 (char 0)"),
        (_MESSAGE + "\xa0", "Extra data: line 1 column 91 (char 90)"),
        (" " + _MESSAGE + "\u2028\t", "Extra data: line 1 column 91 (char 90)"),
    ],
    ids=["vertical-tab", "ideographic-space", "no-break-space", "line-separator"],
)
def test_a_messages_line_padded_with_other_than_json_whitespace_is_fatal(tmp_path, capsys, monkeypatch, argv, line, error):
    """Only JSON whitespace pads a message, as only it pads a tweet (see the test below)."""
    monkeypatch.chdir(tmp_path)
    Path("gaz.tsv").write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")
    Path("msgs.jsonl").write_text(_MESSAGE + "\n" + line + "\n", encoding="utf-8")
    assert main(argv + ["--in", "msgs.jsonl", "--out", "out.txt"]) == 2
    assert capsys.readouterr().err == f"coinbuzz: error: messages line 2: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gaz.tsv", "msgs.jsonl"]


@pytest.mark.parametrize("blank", [" \t", "\x0b", "\xa0\u2028", "\u3000\r"], ids=["json", "vertical-tab", "nbsp", "ideographic"])
def test_a_line_of_whitespace_alone_is_blank_in_messages_and_captures(tmp_path, capsys, monkeypatch, blank):
    monkeypatch.chdir(tmp_path)
    tweet = '{"id": 1, "created_at": "Mon Jun 01 10:00:00 +0000 2015", "user": {"screen_name": "u"}, "text": "bitcoin"}'
    Path("cap.jsonl").write_text(tweet + "\n" + blank + "\n", encoding="utf-8")
    assert main(["ingest-tweets", "--in", "cap.jsonl", "--out", "msgs.jsonl"]) == 0
    assert capsys.readouterr().err == "ingest-tweets: lines=1 parsed=1 malformed=0 duplicates=0 matched=1\n"
    with open("msgs.jsonl", "a", encoding="utf-8") as out:
        out.write(blank + "\n")
    assert main(["aggregate", "--in", "msgs.jsonl", "--out", "daily.csv"]) == 0
    assert capsys.readouterr().err == "aggregate: stream=twitter days=1\n"


def test_ingest_tweets_reads_crlf_and_trailing_space_lines(tmp_path, capsys):
    tweet = '{"id": %d, "created_at": "Mon Jun 01 10:00:00 +0000 2015", "user": {"screen_name": "u"}, "text": "bitcoin"}'
    # JSON whitespace after a tweet is no data; a vertical tab is not JSON whitespace.
    ends = ["\r\n", "  \n", " \r\n", "\x0b\n", "\n"]
    capture = tmp_path / "cap.jsonl"
    capture.write_bytes("".join(tweet % n + end for n, end in enumerate(ends, start=1)).encode())
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ingest-tweets: lines=5 parsed=4 malformed=1 duplicates=0 matched=4\n"
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4
