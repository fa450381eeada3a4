from __future__ import annotations

import io
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinbuzz.irc import (
    NETWORK_SUBTYPES,
    EventKind,
    UnparsableLine,
    ingest_log,
    parse_log_line,
)

CHAT_LINE = "[Mon Jun 1 2015] [00:03:12] <alice>\tprice is moving"


def _network_line(subtype: str) -> str:
    return f"[Mon Jun 1 2015] [00:04:00] *** {subtype}: details here"


def test_parse_chat_line():
    event = parse_log_line(CHAT_LINE, 1)
    assert event.kind is EventKind.CHAT
    assert event.nick == "alice"
    assert event.text == "price is moving"
    assert event.timestamp == datetime(2015, 6, 1, 0, 3, 12, tzinfo=timezone.utc)


def test_parse_network_line_for_every_subtype():
    for subtype in NETWORK_SUBTYPES:
        event = parse_log_line(_network_line(subtype), 1)
        assert event.kind is EventKind.NETWORK
        assert event.nick == ""


def _kept(line: str) -> bool:
    """Whether ingest_log turns the line into a message."""
    out = []
    ingest_log([line], out.append, "#bitcoin")
    return bool(out)


def test_network_subtypes_are_dropped_and_chat_kept():
    for subtype in NETWORK_SUBTYPES:
        assert _kept(_network_line(subtype)) is False
    assert _kept(CHAT_LINE) is True


def test_unknown_network_word_is_surfaced_as_chat():
    event = parse_log_line(_network_line("Away"), 1)
    assert event.kind is EventKind.CHAT
    assert event.nick == "Away"
    assert event.text == "details here"
    assert _kept(_network_line("Away")) is True


def test_garbage_line_raises():
    with pytest.raises(UnparsableLine) as err:
        parse_log_line("garbage line", 7)
    assert str(err.value).startswith("line 7: ")


def test_impossible_date_raises():
    with pytest.raises(UnparsableLine):
        parse_log_line("[Wed Jun 31 2015] [00:00:00] <a>\thi", 1)


def test_blank_line_is_a_skip():
    assert parse_log_line("", 1) is None
    assert parse_log_line("   ", 2) is None


def test_timestamps_are_normalized_from_source_timezone():
    from zoneinfo import ZoneInfo

    event = parse_log_line(CHAT_LINE, 1, tz=ZoneInfo("America/Toronto"))
    # 00:03:12 EDT is 04:03:12 UTC.
    assert event.timestamp == datetime(2015, 6, 1, 4, 3, 12, tzinfo=timezone.utc)


def test_channel_must_start_with_hash():
    with pytest.raises(ValueError):
        ingest_log([CHAT_LINE], [].append, "bitcoin")


def _fixture_log() -> str:
    # 5 chat lines interleaved with one network line per subtype, in time order.
    subtypes = sorted(NETWORK_SUBTYPES)
    lines = []
    second = 0
    for nick in ("alice", "bob", "carol", "dan", "erin"):
        lines.append(f"[Mon Jun 1 2015] [10:00:{second:02d}] <{nick}>\thello {second}")
        second += 1
    for subtype in subtypes:
        lines.append(f"[Mon Jun 1 2015] [10:01:{second % 60:02d}] *** {subtype}: noise")
        second += 1
    return "\n".join(lines) + "\n"


def test_ingest_filters_network_messages():
    messages = []
    stats = ingest_log(io.StringIO(_fixture_log()), messages.append, "#bitcoin")
    assert len(messages) == 5
    assert stats.dropped_network == 8
    assert stats.parsed == stats.messages + stats.dropped_network == 13
    assert [m.author for m in messages] == ["alice", "bob", "carol", "dan", "erin"]
    assert all(m.stream_id == "irc:#bitcoin" for m in messages)


def test_ingest_count_conservation_and_order():
    log = _fixture_log() + "\n" + "garbage\n" + CHAT_LINE + "\n"
    messages = []
    stats = ingest_log(io.StringIO(log), messages.append, "#bitcoin")
    assert stats.lines_in == stats.messages + stats.dropped_network + stats.unparsable + stats.blank
    assert stats.unparsable == 1
    assert stats.blank == 1
    timestamps = [m.timestamp for m in messages[:-1]]
    assert timestamps == sorted(timestamps)


def test_ingest_empty_file():
    messages = []
    stats = ingest_log(io.StringIO(""), messages.append, "#bitcoin")
    assert messages == []
    assert stats.lines_in == 0


def test_strict_mode_aborts_on_unparsable():
    with pytest.raises(UnparsableLine):
        ingest_log(io.StringIO("nonsense\n"), lambda m: None, "#bitcoin", strict=True)


def test_lenient_mode_skips_and_counts():
    log = "nonsense\n" + CHAT_LINE + "\n"
    messages = []
    stats = ingest_log(io.StringIO(log), messages.append, "#bitcoin")
    assert stats.unparsable == 1
    assert len(messages) == 1


def test_custom_stream_id_and_file_input(tmp_path):
    path = tmp_path / "chan.log"
    path.write_text(CHAT_LINE + "\n", encoding="utf-8")
    messages = []
    with open(path, encoding="utf-8") as src:
        ingest_log(src, messages.append, "#dogecoin", "irc:custom")
    assert messages[0].stream_id == "irc:custom"


def test_chat_text_is_escape_sanitized():
    line = "[Mon Jun 1 2015] [00:03:12] <alice>\tprice\\u2026 up"
    messages = []
    ingest_log(io.StringIO(line + "\n"), messages.append, "#bitcoin")
    assert messages[0].text == "price       up"
    assert "\\u2026" not in messages[0].text


def test_ingest_streams_line_by_line():
    pulled, pulled_at_emit = [], []

    def lines():
        for line in (CHAT_LINE, _network_line("Join"), CHAT_LINE):
            pulled.append(line)
            yield line

    ingest_log(lines(), lambda m: pulled_at_emit.append(len(pulled)), "#bitcoin")
    assert pulled_at_emit == [1, 3]


_LOG_LINE = st.one_of(
    st.just(CHAT_LINE),
    st.sampled_from(sorted(NETWORK_SUBTYPES) + ["Away"]).map(_network_line),
    st.sampled_from(["garbage", "[Wed Jun 31 2015] [00:00:00] <a>\thi"]),
    st.sampled_from(["", "   ", "\r\n"]),
)


@given(st.lists(_LOG_LINE, max_size=40))
def test_ingest_counter_identity(lines):
    out = []
    stats = ingest_log(lines, out.append, "#bitcoin")
    assert len(lines) == stats.lines_in
    assert stats.lines_in == stats.messages + stats.dropped_network + stats.unparsable + stats.blank
    assert stats.parsed == stats.messages + stats.dropped_network
    assert len(out) == stats.messages
