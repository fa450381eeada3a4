"""Differential tests: the ingest hot path against verbatim copies of its first version.

The references below are the original `message.to_json_line` (a dict per
record through `json.dumps`), `message.format_ts` (the UTC fields one by
one), `irc.parse_log_line` (a chat regex, then a network regex, blank lines
tested first, the date fields read on every line), `irc.ingest_log` (a loop
over that `parse_log_line`), `twitter.matches_keywords` (every text split into words),
`twitter.parse_created_at` (a new `timezone` per call), `twitter.ingest_capture`
(the seen ids in a `set`), `sanitize.
sanitize_text` (always a regex pass) and `sanitize.sanitize_stream` (each
line's body scrubbed apart from its terminator). The shipped functions must
give the same result, or raise the same exception with the same message, on
every input. `irc` and `message` keep per-day caches from one call to the
next, so their tests also feed whole sequences of lines and timestamps. The
timestamp inputs hold digits other than ASCII ones, day 00 and hour 24,
which `datetime.fromisoformat` rejects and the shipped parsers must then
read field by field, as the references always do. One more property holds
the two timestamp readers to one rule: a tweet and an IRC line of the same
wall time and offset give the same instant, or both raise.
"""

from __future__ import annotations

import io
import json
import re
from datetime import date, datetime, timedelta, timezone
from typing import IO, Iterable, NamedTuple
from zoneinfo import ZoneInfo

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinbuzz import DEFAULT_KEYWORDS, twitter
from coinbuzz.irc import (
    NETWORK_SUBTYPES,
    EventKind,
    IrcEvent,
    IrcIngestStats,
    UnparsableLine,
    ingest_log,
    parse_log_line,
    resolve_tz,
)
from coinbuzz.message import MONTH_BY_ABBREV, Message, format_ts, to_json_line
from coinbuzz.sanitize import SanitizeStats, sanitize_line, sanitize_stream, sanitize_text
from coinbuzz.twitter import (
    MalformedRecord,
    TweetIngestStats,
    check_keywords,
    ingest_capture,
    matches_keywords,
    parse_created_at,
    parse_tweet,
)

# --- reference implementation (verbatim apart from names) ---------------------


def _ref_to_json_line(msg: Message) -> str:
    record = {
        "stream_id": msg.stream_id,
        "ts": format_ts(msg.timestamp),
        "author": msg.author,
        "text": msg.text,
    }
    return json.dumps(record, ensure_ascii=False)


def _ref_format_ts(ts: datetime) -> str:
    ts = ts.astimezone(timezone.utc)
    return (
        f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
        f"T{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}Z"
    )


_REF_STAMP = r"\[(\w{3}) (\w{3}) (\d{1,2}) (\d{4})\] \[(\d{2}):(\d{2}):(\d{2})\]"
_REF_CHAT_RE = re.compile(_REF_STAMP + r" <([^>]+)>\t(.*)$")
_REF_NETWORK_RE = re.compile(_REF_STAMP + r" \*\*\* (\w+): (.*)$")


def _ref_event_timestamp(groups: tuple[str, ...], tz) -> datetime:
    _dow, mon, day, year, hh, mm, ss = groups
    month = MONTH_BY_ABBREV.get(mon)
    if month is None:
        raise ValueError(f"unknown month abbreviation {mon!r}")
    local = datetime(int(year), month, int(day), int(hh), int(mm), int(ss), tzinfo=tz)
    return local.astimezone(timezone.utc)


class _RefEvent(NamedTuple):
    timestamp: datetime
    channel: str
    kind: EventKind
    subtype: str | None
    nick: str
    text: str


def _ref_parse_log_line(line: str, channel: str, line_no: int = 0, tz=timezone.utc):
    if not channel.startswith("#"):
        raise ValueError(f"channel must begin with '#': {channel!r}")
    if not line.strip():
        return None

    match = _REF_CHAT_RE.match(line)
    if match:
        try:
            ts = _ref_event_timestamp(match.groups()[:7], tz)
        except ValueError as exc:
            raise UnparsableLine(line_no, str(exc)) from exc
        return _RefEvent(ts, channel, EventKind.CHAT, None, match.group(8), match.group(9))

    match = _REF_NETWORK_RE.match(line)
    if match:
        try:
            ts = _ref_event_timestamp(match.groups()[:7], tz)
        except ValueError as exc:
            raise UnparsableLine(line_no, str(exc)) from exc
        word, rest = match.group(8), match.group(9)
        if word in NETWORK_SUBTYPES:
            return _RefEvent(ts, channel, EventKind.NETWORK, word, "", rest)
        # Unknown server chatter: keep it, authored by the announcing word.
        return _RefEvent(ts, channel, EventKind.CHAT, None, word, rest)

    raise UnparsableLine(line_no, "does not match chat or network grammar")


def _ref_ingest_log(lines, emit, channel, stream_id=None, *, tz="UTC", strict=False):
    if not channel.startswith("#"):
        raise ValueError(f"channel must begin with '#': {channel!r}")
    if stream_id is None:
        stream_id = f"irc:{channel}"
    zone = resolve_tz(tz)

    stats = IrcIngestStats()
    for line_no, line in enumerate(lines, start=1):
        stats.lines_in += 1
        try:
            event = _ref_parse_log_line(line.rstrip("\r\n"), channel, line_no, zone)
        except (UnparsableLine, OverflowError) as exc:
            if strict:
                if isinstance(exc, OverflowError):
                    raise UnparsableLine(line_no, str(exc)) from exc
                raise
            stats.unparsable += 1
            continue
        if event is None:
            stats.blank += 1
            continue
        stats.parsed += 1
        if event.kind is EventKind.NETWORK:
            stats.dropped_network += 1
            continue
        stats.messages += 1
        emit(
            Message(
                stream_id=stream_id,
                timestamp=event.timestamp,
                author=event.nick,
                text=_ref_sanitize_text(event.text),
            )
        )
    return stats


_REF_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _ref_matches_keywords(
    text: str, hashtags: Iterable[str], keywords: Iterable[str], substring: bool = False
) -> bool:
    wanted = [kw.lower().lstrip("#") for kw in keywords]
    if not wanted:
        raise ValueError("keywords must be non-empty")
    tags = {tag.lower() for tag in hashtags}
    lowered = text.lower()
    if substring:
        if any(kw in lowered for kw in wanted):
            return True
    else:
        words = set(_REF_WORD_RE.findall(lowered))
        if any(kw in words for kw in wanted):
            return True
    return any(kw in tags for kw in wanted)


def _ref_ingest_capture(lines, emit, *, keywords=DEFAULT_KEYWORDS, substring=False):
    keywords = check_keywords(keywords, substring)
    stats = TweetIngestStats()
    seen_ids: set[int] = set()

    for line in lines:
        if not line.strip():
            continue
        stats.lines += 1
        try:
            record = parse_tweet(line)
        except MalformedRecord:
            stats.malformed += 1
            continue
        stats.parsed += 1
        if record.id in seen_ids:
            stats.duplicates += 1
            continue
        seen_ids.add(record.id)
        if not matches_keywords(record.text, record.hashtags, keywords, substring):
            continue
        stats.matched += 1
        emit(Message("twitter", record.created_at, record.user, sanitize_text(record.text)))
    return stats


_REF_CREATED_AT_RE = re.compile(
    r"^\w{3} (\w{3}) (\d{2}) (\d{2}):(\d{2}):(\d{2}) ([+-])(\d{2})(\d{2}) (\d{4})$"
)


def _ref_parse_created_at(value: str) -> datetime:
    match = _REF_CREATED_AT_RE.match(value)
    if not match:
        raise ValueError(f"bad created_at: {value!r}")
    mon, day, hh, mm, ss, sign, oh, om, year = match.groups()
    month = MONTH_BY_ABBREV.get(mon)
    if month is None:
        raise ValueError(f"bad created_at month: {value!r}")
    offset = timedelta(hours=int(oh), minutes=int(om))
    if sign == "-":
        offset = -offset
    local = datetime(
        int(year), month, int(day), int(hh), int(mm), int(ss),
        tzinfo=timezone(offset),
    )
    return local.astimezone(timezone.utc)


_REF_ESCAPE_TEXT_RE = re.compile(r"\\u([0-9a-fA-F]{4})|\\u")


def _ref_sanitize_text(text: str) -> str:
    def sub(match: re.Match[str]) -> str:
        digits = match.group(1)
        if digits is not None and int(digits, 16) >= 0x80:
            return "      "
        return match.group(0)

    return _REF_ESCAPE_TEXT_RE.sub(sub, text)


def _ref_sanitize_stream(
    source: Iterable[bytes] | IO[bytes],
    sink: IO[bytes],
    stats: SanitizeStats | None = None,
) -> SanitizeStats:
    if stats is None:
        stats = SanitizeStats()
    for raw in source:
        stats.lines_in += 1
        if raw.endswith(b"\n"):
            body, terminator = raw[:-1], b"\n"
        else:
            body, terminator = raw, b""
        cleaned, replaced, malformed = sanitize_line(body)
        sink.write(cleaned)
        sink.write(terminator)
        stats.lines_out += 1
        stats.replacements += replaced
        stats.malformed_escapes += malformed
    return stats


# --- comparison -------------------------------------------------------------------


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises.

    Values go through repr so that a datetime's tzinfo and an event's field
    types are compared too, not just equality of instants.
    """
    try:
        return "ok", repr(fn(*args))
    except (ValueError, OverflowError) as exc:
        return "raise", type(exc), str(exc)


def _same(new, ref, *args):
    assert _outcome(new, *args) == _outcome(ref, *args)


# --- to_json_line -------------------------------------------------------------------

# Lone surrogates, the line and paragraph separators (raw in JSON, escaped
# in JavaScript), control characters, quotes and backslashes.
SPECIAL_CHARS = "\ud800\udfff\u2028\u2029\x00\x1f\x7f\t\n\r\"\\/\u00e9\U0001f600"
any_text = st.text(st.characters(exclude_categories=()), max_size=12)
special_text = st.text(st.sampled_from(SPECIAL_CHARS + "ab "), max_size=12)
message_text = st.one_of(any_text, special_text)

ZONES = (
    timezone.utc,
    timezone(timedelta(0), "UTC"),  # equal to UTC but not the singleton
    timezone(timedelta(hours=5, minutes=30)),
    timezone(-timedelta(hours=23, minutes=59)),
    ZoneInfo("UTC"),
    ZoneInfo("America/New_York"),
    ZoneInfo("Asia/Tokyo"),
)
timestamps = st.one_of(
    st.datetimes(timezones=st.just(timezone.utc)),
    st.datetimes(max_value=datetime(1100, 1, 1), timezones=st.just(timezone.utc)),
    st.datetimes(timezones=st.sampled_from(ZONES)),
)


@settings(max_examples=400)
@given(message_text, timestamps, message_text, message_text)
def test_to_json_line_matches_reference(stream_id, ts, author, text):
    _same(to_json_line, _ref_to_json_line, Message(stream_id, ts, author, text))


@settings(max_examples=400)
@given(timestamps)
def test_format_ts_matches_reference(ts):
    _same(format_ts, _ref_format_ts, ts)


# Non-UTC zones, so that a timestamp's local day and its UTC day differ near midnight.
LOCAL_ZONES = (
    timezone(timedelta(hours=5, minutes=30)),
    timezone(-timedelta(hours=23, minutes=59)),
    ZoneInfo("America/New_York"),
    ZoneInfo("Australia/Lord_Howe"),
    ZoneInfo("Asia/Tokyo"),
)
# Offsets from a UTC midnight, in microseconds: whole seconds or not, within half a day.
midnight_offsets = st.one_of(
    st.integers(-43_200, 43_200).map(lambda s: s * 10**6),
    st.integers(-43_200 * 10**6, 43_200 * 10**6),
)


@settings(max_examples=300)
@given(
    st.dates(min_value=date(1, 1, 2), max_value=date(9999, 12, 30)),
    st.lists(st.tuples(st.sampled_from(LOCAL_ZONES), midnight_offsets), min_size=1, max_size=30),
)
def test_format_ts_matches_reference_across_utc_midnight(day, steps):
    # One sequence of calls, as a messages file makes them: the prefix cache carries over.
    midnight = datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
    for zone, offset in steps:
        ts = (midnight + timedelta(microseconds=offset)).astimezone(zone)
        _same(format_ts, _ref_format_ts, ts)


def test_to_json_line_fixed_cases():
    utc = timezone.utc
    for ts in (
        datetime(2015, 6, 1, 0, 3, 12, tzinfo=utc),
        datetime(2015, 6, 1, 0, 3, 12, 999999, tzinfo=utc),
        datetime(1, 1, 1, tzinfo=utc),
        datetime(5, 3, 4, 5, 6, 7, tzinfo=utc),
        datetime(999, 12, 31, 23, 59, 59, tzinfo=utc),
        datetime(1000, 1, 1, tzinfo=utc),
        datetime(9999, 12, 31, 23, 59, 59, tzinfo=utc),
        datetime(2015, 6, 1, 23, 30, tzinfo=timezone(timedelta(hours=-5))),
        datetime(2015, 6, 1, 0, 30, tzinfo=ZoneInfo("Asia/Tokyo")),
        datetime(1000, 1, 1, 3, tzinfo=ZoneInfo("Asia/Tokyo")),
    ):
        _same(format_ts, _ref_format_ts, ts)
        for text in ("", "plain", SPECIAL_CHARS, "\ud83d", "a\u2028b", "\x01\x1b[0m"):
            _same(to_json_line, _ref_to_json_line, Message("irc:#\u00e9", ts, text[:3], text))


# --- parse_log_line -------------------------------------------------------------------

MONTHS = tuple(MONTH_BY_ABBREV) + ("Foo", "jun", "JUN")
WORDS = tuple(NETWORK_SUBTYPES) + ("Away", "join", "Kick", "_", "A1", "")
# Digits other than ASCII ones (Arabic-Indic and full-width): `\d` and int() read them, fromisoformat does not.
ARABIC_01, FULL_12, ARABIC_59 = "\u0660\u0661", "\uff11\uff12", "\u0665\u0669"
log_line = st.builds(
    lambda dow, mon, day, year, hh, mm, ss, body, end: (
        f"[{dow} {mon} {day} {year}] [{hh}:{mm}:{ss}] {body}{end}"
    ),
    st.sampled_from(("Mon", "Sun", "Xyz", "Mo", "M\u00f6n")),
    st.sampled_from(MONTHS),
    st.sampled_from(("1", "01", "9", "29", "30", "31", "32", "0", "00", "123", ARABIC_01, FULL_12, "\u0661")),
    st.sampled_from(("2015", "2016", "0001", "9999", "0000", "201", "\uff12\uff10\uff11\uff15")),
    st.sampled_from(("00", "09", "23", "24", "7", ARABIC_01, FULL_12, "2\u0663")),
    st.sampled_from(("00", "59", "60", ARABIC_59)),
    st.sampled_from(("00", "59", "60", "61", ARABIC_59, FULL_12)),
    st.one_of(
        st.builds(lambda nick, text: f"<{nick}>\t{text}", special_text, message_text),
        st.builds(lambda word, rest: f"*** {word}: {rest}", st.sampled_from(WORDS), message_text),
        st.builds(lambda word, rest: f"*** {word} {rest}", st.sampled_from(WORDS), message_text),
        message_text,
    ),
    st.sampled_from(("", "\r", "\n", " ", "\r\n", "\n\n")),
)
any_line = st.one_of(log_line, message_text, st.text(" \t\r\n\x0b\x0c\u00a0\u2028", max_size=4))
LOG_ZONES = (timezone.utc, ZoneInfo("America/New_York"), ZoneInfo("Asia/Tokyo"), timezone(timedelta(hours=-3, minutes=-30)))


def _ref_event(line: str, line_no: int, tz):
    """`_ref_parse_log_line` under today's contract of `parse_log_line`: no channel, an event of
    the four fields `ingest_log` reads, and UnparsableLine for a time out of range in UTC too."""
    try:
        event = _ref_parse_log_line(line, "#bitcoin", line_no, tz)
    except OverflowError as exc:
        raise UnparsableLine(line_no, str(exc)) from exc
    return None if event is None else IrcEvent(event.timestamp, event.kind, event.nick, event.text)


@settings(max_examples=500)
@given(any_line, st.sampled_from(LOG_ZONES), st.integers(0, 10**6))
def test_parse_log_line_matches_reference(line, tz, line_no):
    _same(parse_log_line, _ref_event, line, line_no, tz)


def test_parse_log_line_fixed_cases():
    stamp = "[Mon Jun 1 2015] [00:03:12]"
    for line in (
        f"{stamp} <alice>\tprice is moving",
        f"{stamp} *** Join: alice",
        f"{stamp} *** Away: back in five",
        f"{stamp} *** Away:",
        f"{stamp} <alice>\t*** Quit: not a network line",
        f"{stamp} <a>b>\tnick stops at the first '>'",
        "[Mon Foo 1 2015] [00:03:12] <alice>\tunknown month",
        "[Mon Foo 1 2015] [00:03:12] *** Quit: unknown month",
        "[Mon Feb 30 2015] [00:03:12] <alice>\tno such day",
        "[Mon Jun 1 2015] [24:00:00] *** Quit: no such hour",
        "[Mon Jun 1 0001] [00:00:00] <alice>\tbefore UTC's year 1 in Tokyo",
        "[Mon Jan 1 0001] [00:00:00] *** Quit: before UTC's year 1 in Tokyo",
        "[Fri Dec 31 9999] [23:59:59] <alice>\tafter UTC's year 9999 west of it",
        f"[Mon Jun {ARABIC_01} 2015] [{FULL_12}:{ARABIC_59}:{ARABIC_59}] <alice>\tdigits fromisoformat rejects",
        f"[Mon Feb 29 \uff12\uff10\uff11\uff16] [00:00:00] <alice>\tfull-width leap year",
        "[Mon Jun 00 2015] [00:03:12] <alice>\tday zero",
        "[Mon Jun 1 2015] [24:00:00] <alice>\thour 24",
        "[Mon Jun 1 2015] [23:60:00] <alice>\tminute 60",
        "[Mon Jun 1 2015] [23:59:60] <alice>\tleap second",
        "",
        " ",
        "\t \u00a0",
        "\r",
        "\n",
        f"{stamp} <alice>\tcarriage return\r",
        f"{stamp} *** Quit: carriage return\r",
        f"{stamp} <alice>\ttrailing newline\n",
        f"{stamp} <alice>\tembedded\nnewline",
        "not a log line",
    ):
        for tz in LOG_ZONES:
            _same(parse_log_line, _ref_event, line, 7, tz)


# --- ingest_log -------------------------------------------------------------------

INGEST_ZONES = ("UTC", "America/New_York", "Europe/London", "Australia/Lord_Howe", "Asia/Tokyo")
# Date texts: the DST transition days of those zones in 2015 (Lord Howe shifts by 30 minutes),
# Tokyo's 1948-1951 DST, pre-1970 days (New York and Lord Howe on local mean time before
# 1883 and 1895), the first and last days, and texts that name no day.
LOG_DATES = (
    "Mar 8 2015", "Nov 1 2015", "Mar 29 2015", "Oct 25 2015", "Apr 5 2015", "Oct 4 2015",
    "Sep 11 1948", "May 7 1950", "Dec 31 1969", "Jan 1 1970", "Nov 18 1883", "Jan 1 1895",
    "Jan 1 0001", "Jan 01 0001", "Dec 31 9999", "Feb 29 2016", "Feb 29 2015", "Jun 31 2015",
    "Jan 0 2015", "Jan 1 0000", "Foo 1 2015", "jun 1 2015", f"Jun {FULL_12} 2015", f"Mar {ARABIC_01} 2015",
)
log_time = st.builds(
    lambda hh, mm, ss: f"{hh}:{mm}:{ss}",
    st.sampled_from(("00", "01", "02", "03", "12", "23", "24", ARABIC_01, FULL_12)),
    st.sampled_from(("00", "29", "30", "59", "60", ARABIC_59)),
    st.sampled_from(("00", "59", "60", ARABIC_59)),
)
log_body = st.one_of(
    st.builds(lambda text: f"<alice>\t{text}", special_text),
    st.sampled_from(("*** Join: bob", "*** Quit: bob left", "*** Away: back soon")),
)
# None repeats the previous dated line's date, as most lines of a log do.
dated_line = st.tuples(st.one_of(st.none(), st.sampled_from(LOG_DATES)), log_time, log_body)
log_lines = st.lists(
    st.one_of(
        dated_line, dated_line, dated_line,
        st.sampled_from(("", "\r\n", "  ", "not a log line", "[Mon Jun 1 2015] <alice>\tno time")),
        log_line,
    ),
    max_size=40,
)


def _render_log(items) -> list[str]:
    lines, day_text = [], LOG_DATES[0]
    for item in items:
        if isinstance(item, str):
            lines.append(item)
            continue
        day_text = item[0] or day_text
        lines.append(f"[Mon {day_text}] [{item[1]}] {item[2]}\n")
    return lines


def _ingest_outcome(fn, lines, tz, strict):
    """The messages a run emits, its counters, and the type and message of what it raises."""
    emitted: list[str] = []
    try:
        stats = fn(lines, lambda msg: emitted.append(repr(msg)), "#bitcoin", tz=tz, strict=strict)
    except UnparsableLine as exc:
        return emitted, "raise", type(exc), str(exc)
    return emitted, vars(stats)


def _same_ingest(lines, tz, strict=False):
    assert _ingest_outcome(ingest_log, lines, tz, strict) == _ingest_outcome(_ref_ingest_log, lines, tz, strict)


@settings(max_examples=400)
@given(log_lines, st.sampled_from(INGEST_ZONES), st.booleans())
def test_ingest_log_matches_reference(items, tz, strict):
    _same_ingest(_render_log(items), tz, strict)


def test_ingest_log_fixed_cases():
    for tz in INGEST_ZONES:
        # Every hour and half hour across each date, which crosses every DST fold and gap in it.
        lines = [
            f"[Mon {day_text}] [{hh:02d}:{mm:02d}:00] <alice>\tbitcoin"
            for day_text in LOG_DATES
            for hh in range(24)
            for mm in (0, 30, 59)
        ]
        _same_ingest(lines, tz)
        # More distinct days than the date cache holds, forward and then back.
        days = [
            f"[Mon {mon} {day} 2015] [12:00:00] <alice>\tbitcoin" for mon in ("Jan", "Feb", "Mar") for day in range(1, 29)
        ]
        _same_ingest(days + days[::-1], tz)


# --- matches_keywords -------------------------------------------------------------------

# Regex metacharacters and word prefixes of one another test the compiled word pattern.
KEYWORD_WORDS = (
    "bitcoin", "Bitcoin", "BITCOIN", "bitcoins", "#bitcoin", "btc", "#BTC", "#", "##btc",
    "coin", "\u212a", "k", "\u0130", "i\u0307", "stra\u00dfe", "STRASSE", "a_b", "_",
    "c++", "a.b", "(", "\\", "|", "$", "bit", "btcusd", "",
)
keyword_text = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(KEYWORD_WORDS), st.text(max_size=3)),
        st.sampled_from((" ", "", "_", "-", ".", "\u00a0")),
    ),
    max_size=8,
).map(lambda parts: "".join(w + sep for w, sep in parts))
# Words that share prefixes, also as a text's first or last word: the pattern tests the character
# before a keyword only once the keyword has matched, and a text's ends have no character beyond them.
PREFIX_WORDS = ("b", "bi", "bit", "bitc", "bitcoin", "bitcoins", "btc", "btcusd", "\u00e9", "\u00e9t\u00e9")
edge_text = st.builds(
    lambda first, middle, last: first + middle + last,
    st.sampled_from(PREFIX_WORDS + ("x", "_", "")), keyword_text, st.sampled_from(PREFIX_WORDS + ("x", "_", "")),
)
keywords = st.one_of(
    st.lists(st.sampled_from(KEYWORD_WORDS[:-1]), max_size=4),
    st.lists(st.sampled_from(PREFIX_WORDS), min_size=1, max_size=4),
)
hashtags = st.lists(st.sampled_from(KEYWORD_WORDS), max_size=3)


@settings(max_examples=500)
@given(st.one_of(keyword_text, edge_text), hashtags, keywords, st.booleans())
def test_matches_keywords_matches_reference(text, tags, wanted, substring):
    _same(matches_keywords, _ref_matches_keywords, text, tags, wanted, substring)


def test_matches_keywords_fixed_cases():
    for text, tags, wanted in (
        ("Bitcoin to the moon", (), ("bitcoin",)),
        ("bitcoins everywhere", (), ("bitcoin",)),
        ("no keyword here", (), ("#",)),
        ("a # alone", (), ("#",)),
        ("", (), ("#",)),
        ("", ("",), ("#",)),
        ("tagged only", ("BTC",), ("#btc",)),
        ("#btc in text", (), ("#btc",)),
        ("my_bitcoin_wallet", (), ("bitcoin",)),
        ("\u212aelvin", (), ("kelvin",)),
        ("\u0130stanbul", (), ("i\u0307stanbul",)),
        ("STRASSE", (), ("stra\u00dfe",)),
        ("text", (), ()),
        ("c++ rocks", (), ("c++",)),
        ("c rocks", (), ("c++", "c")),
        ("tagged", ("C++",), ("c++",)),
        ("axb", (), ("a.b",)),
        ("a.b", (), ("a.b", "b")),
        ("a (b) c", (), ("(",)),
        ("a (b) c", (), ("(", "b")),
        ("back\\slash", (), ("\\",)),
        ("a|b", (), ("|",)),
        ("a|b", (), ("|", "b")),
        ("$100", (), ("$",)),
        ("$100", (), ("$", "100")),
        ("bitcoin up", (), ("bit", "bitcoin")),
        ("bitcoin up", (), ("bitcoin", "bit")),
        ("bitcoin up", (), ("bit",)),
        ("a bit more", (), ("bitcoin", "bit")),
        ("bitbitcoin", (), ("bit", "bitcoin")),
        ("btcusd at 250", (), ("btc",)),
        ("btcusd at 250", (), ("btc", "btcusd")),
        ("btc-usd", (), ("btcusd", "btc")),
        ("btc_usd", (), ("btcusd",)),
        ("bitcoin", (), ("bitcoin",)),
        ("bitcoin up", (), ("bitcoin",)),
        ("up bitcoin", (), ("bitcoin",)),
        ("xbitcoin", (), ("bitcoin",)),
        ("bitcoinx", (), ("bitcoin",)),
        ("_bitcoin_", (), ("bitcoin",)),
        ("bitcoins", (), ("bit", "bitcoin", "bitcoins")),
        ("bitcoin", (), ("b", "bi", "bit", "bitc")),
        ("a bitc", (), ("bitcoin", "bitc")),
        ("bitbitc", (), ("bit", "bitc")),
        ("\u00e9t\u00e9", (), ("\u00e9",)),
        ("\u00e9 t\u00e9", (), ("\u00e9", "\u00e9t\u00e9")),
    ):
        for substring in (False, True):
            _same(matches_keywords, _ref_matches_keywords, text, tags, wanted, substring)


def test_matches_keywords_takes_any_iterable_of_keywords():
    words = ("bit", "#BTC", "c++", "btcusd")
    for text, tags in (("a bit more", ()), ("bitcoin", ()), ("c++", ()), ("btcusd", ()), ("none", ("btc",)), ("none", ())):
        for substring in (False, True):
            want = _ref_matches_keywords(text, tags, words, substring)
            # Twice: the second call of each may be served from state the first one left.
            for _ in range(2):
                assert matches_keywords(text, tags, list(words), substring) == want
                assert matches_keywords(text, tags, words, substring) == want
                assert matches_keywords(text, tags, (w for w in words), substring) == want
    with pytest.raises(ValueError, match="keywords must be non-empty"):
        matches_keywords("bitcoin", (), (w for w in ()))


# --- ingest_capture ---------------------------------------------------------------------

# The int64 edges, ids just and far outside them, ids near a tweet id's size, and small ids that repeat.
capture_ids = st.lists(
    st.one_of(
        st.sampled_from((-(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 10**30, -(10**30), 0)),
        st.integers(2**63 - 3, 2**63 + 2),
        st.integers(-(2**63) - 2, -(2**63) + 3),
        st.integers(6 * 10**17, 6 * 10**17 + 30),
        st.integers(-30, 30),
    ),
    max_size=60,
)


def _capture(ids: Iterable[int]) -> list[str]:
    """One line per id; a line's text and minute follow its position, so repeats of an id differ."""
    lines = []
    for i, tweet_id in enumerate(ids):
        key = "id_str" if tweet_id >= 0 and i % 3 == 0 else "id"
        record = {key: str(tweet_id) if key == "id_str" else tweet_id,
                  "created_at": f"Mon Jun 01 10:{i % 60:02d}:00 +0000 2015",
                  "user": {"screen_name": f"u{i}"}, "text": "quiet" if i % 4 == 3 else f"bitcoin {i}"}
        lines.append(json.dumps(record) + "\n")
    return lines


def _capture_outcome(fn, lines):
    emitted: list[str] = []
    stats = fn(lines, lambda msg: emitted.append(repr(msg)))
    return emitted, vars(stats)


def _same_capture(lines, floor, shift):
    """ingest_capture, with its merge floor and shift set, against the set-based reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twitter, "_MERGE_FLOOR", floor)
        patch.setattr(twitter, "_MERGE_SHIFT", shift)
        new = _capture_outcome(ingest_capture, lines)
    assert new == _capture_outcome(_ref_ingest_capture, lines)


@settings(max_examples=400)
@given(capture_ids, st.sampled_from(("drawn", "ascending", "descending")), st.integers(2, 4), st.integers(0, 2),
       st.data())
def test_ingest_capture_matches_reference(ids, order, floor, shift, data):
    if order != "drawn":
        ids = sorted(ids, reverse=order == "descending")
    # Repeats after the last line too, so that an id merged early comes back after later merges.
    repeats = data.draw(st.lists(st.sampled_from(ids), max_size=20)) if ids else []
    _same_capture(_capture(ids + repeats), floor, shift)


def test_ingest_capture_fixed_cases():
    shuffled = [(i * 7_919) % 1_000 for i in range(1_000)]
    for ids in (
        list(range(200, 0, -1)) + list(range(0, 201)),
        shuffled + shuffled[::-1],
        [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30] * 3,
    ):
        for floor, shift in ((2, 0), (3, 1), (4, 2)):
            _same_capture(_capture(ids), floor, shift)
    # At the shipped floor and shift, with out-of-order merges.
    ids = [6 * 10**17 + (i * 7_919) % 10_000 for i in range(10_000)]
    _same_capture(_capture(ids + ids[:2_000]), twitter._MERGE_FLOOR, twitter._MERGE_SHIFT)


# --- parse_created_at -------------------------------------------------------------------

OFFSETS = ("+0000", "-0000", "+0530", "-0500", "+2359", "-2359", "+2400", "-2400",
           "+9999", "+0060", "-0099", "0000", "+000", f"+{ARABIC_01}{FULL_12}", f"-{FULL_12}{ARABIC_59}")
# The fields of a created_at: weekday, month, day, hour, minute, second, offset and year, each also in
# digits that fromisoformat rejects.
CREATED_AT_FIELDS = (
    st.sampled_from(("Mon", "Sun", "Xy")),
    st.sampled_from(MONTHS),
    st.sampled_from(("01", "1", "29", "31", "32", "00", ARABIC_01, FULL_12)),
    st.sampled_from(("00", "23", "24", ARABIC_01, FULL_12, "2\u0663")),
    st.sampled_from(("00", "59", "60", ARABIC_59)),
    st.sampled_from(("00", "59", "60", ARABIC_59, FULL_12)),
    st.one_of(st.sampled_from(OFFSETS), st.from_regex(r"[+-][0-9]{4}", fullmatch=True)),
    st.sampled_from(("2015", "2016", "0001", "9999", "0000", "\uff12\uff10\uff11\uff16", "\u0662\u0660\u0661\u0665")),
)
# Those fields and a trailing newline, which `$` accepts.
created_at = st.builds(
    lambda dow, mon, day, hh, mm, ss, offset, year, end: (
        f"{dow} {mon} {day} {hh}:{mm}:{ss} {offset} {year}{end}"
    ),
    *CREATED_AT_FIELDS,
    st.sampled_from(("", "", "\n", "\n\n", " ")),
)


@settings(max_examples=500)
@given(st.one_of(created_at, st.text(max_size=8)))
def test_parse_created_at_matches_reference(value):
    # Twice: the second call may be served from state the first one left.
    _same(parse_created_at, _ref_parse_created_at, value)
    _same(parse_created_at, _ref_parse_created_at, value)


def test_parse_created_at_fixed_cases():
    for offset in OFFSETS:
        for value in (
            f"Mon Jun 01 23:30:00 {offset} 2015",
            f"Mon Jan 01 00:00:00 {offset} 0001",
            f"Fri Dec 31 23:59:59 {offset} 9999",
            f"Mon Foo 01 00:00:00 {offset} 2015",
            f"Mon Feb 30 00:00:00 {offset} 2015",
            f"Mon Feb 29 23:59:59 {offset} 2016",
            f"Mon Jun 01 23:30:00 {offset} 2015\n",
            f"Mon Jun {ARABIC_01} {FULL_12}:{ARABIC_59}:{ARABIC_59} {offset} \uff12\uff10\uff11\uff15",
            f"Mon Jun 00 00:00:00 {offset} 2015",
            f"Mon Jun 01 24:00:00 {offset} 2015",
        ):
            _same(parse_created_at, _ref_parse_created_at, value)
    assert parse_created_at("Mon Jun 01 23:30:00 -0000 2015").tzinfo is timezone.utc
    for offset in ("+2400", "-2400"):
        line = json.dumps(
            {"id": 1, "created_at": f"Mon Jun 01 00:00:00 {offset} 2015",
             "user": {"screen_name": "a"}, "text": "bitcoin"}
        )
        for _ in range(2):
            with pytest.raises(MalformedRecord):
                parse_tweet(line)


def _instant(parse, *args) -> str:
    """The repr of the UTC time that `parse` reads, or "raise" for a ValueError or an OverflowError."""
    try:
        result = parse(*args)
    except (ValueError, OverflowError):
        return "raise"
    return repr(result if isinstance(result, datetime) else result.timestamp)


@settings(max_examples=500)
@given(*CREATED_AT_FIELDS)
def test_a_tweet_and_a_log_line_of_one_wall_time_give_one_instant(dow, mon, day, hh, mm, ss, offset, year):
    """A tweet at offset O and an IRC line of the same wall time read in timezone(O) give the same instant,
    or both raise: the two streams share one timestamp rule."""
    # A tweet writes its day in two digits and its offset as `[+-]HHMM`; a log line may write a one-digit day.
    assume(len(day) == 2 and re.fullmatch(r"[+-]\d{4}", offset))
    tweet = _instant(parse_created_at, f"{dow} {mon} {day} {hh}:{mm}:{ss} {offset} {year}")
    delta = timedelta(hours=int(offset[1:3]), minutes=int(offset[3:5]))
    try:
        zone = timezone(-delta if offset[0] == "-" else delta)
    except ValueError:  # 24 hours or more: no zone has this offset, and no tweet reads it
        assert tweet == "raise"
        return
    line = f"[{dow} {mon} {day} {year}] [{hh}:{mm}:{ss}] <alice>\tbitcoin"
    assert tweet == _instant(parse_log_line, line, 0, zone)


# --- sanitize_text -------------------------------------------------------------------

escape_text = st.lists(
    st.sampled_from(("\\u", "\\u2026", "\\u0041", "\\u00e9", "\\uD83D", "\\U", "\\", "u", "0", "8",
                     "f", "F", "g", " ", "\u00e9", "\u2026")),
    max_size=8,
).map("".join)


@settings(max_examples=500)
@given(st.one_of(escape_text, any_text))
def test_sanitize_text_matches_reference(text):
    _same(sanitize_text, _ref_sanitize_text, text)


def test_sanitize_text_fixed_cases():
    for text in ("", "plain", "\\", "u", "\\u", "\\u00", "\\u0041", "\\u2026", "\\U2026",
                 "a\\u00e9\\ud83d\\ude00b", "\\\\u2026", "\\u007f\\u0080", "\u2026"):
        _same(sanitize_text, _ref_sanitize_text, text)


# --- sanitize_stream -------------------------------------------------------------------


def _same_stream(payload: bytes) -> None:
    sinks = io.BytesIO(), io.BytesIO()
    new = sanitize_stream(io.BytesIO(payload), sinks[0])
    ref = _ref_sanitize_stream(io.BytesIO(payload), sinks[1])
    assert sinks[0].getvalue() == sinks[1].getvalue()
    assert vars(new) == vars(ref)


# Escapes and their prefixes next to each line ending, so that an escape meets "\n".
stream_bytes = st.lists(
    st.one_of(
        st.binary(max_size=6),
        st.sampled_from((b"\\u", b"\\u00e9", b"\\u0041", b"\\u20", b"\\", b"u", b"0", b"a",
                         b"\n", b"\r\n", b"\r", b"\xc3")),
    ),
    max_size=16,
).map(b"".join)


@settings(max_examples=500)
@given(stream_bytes)
def test_sanitize_stream_matches_reference(payload):
    _same_stream(payload)


def test_sanitize_stream_fixed_cases():
    for payload in (b"", b"\n", b"\n\n\n", b"a\\u\n", b"a\\u\r\n", b"\\u00\nb", b"\\u00e9\r\n\r\n",
                    b"one\ntwo", b"tail\\u", b"x\\u2026", b"\\u0041\n\n\\u20ff"):
        _same_stream(payload)
