"""Normalized message record shared by all pipeline stages.

A Message is one user-authored utterance from any stream (a tweet or an IRC
chat line), carrying a UTC timestamp at second precision. The JSONL wire
schema is `{"stream_id": ..., "ts": "YYYY-MM-DDTHH:MM:SSZ", "author": ...,
"text": ...}`, one record per line. Messages come roughly in time order, so
`format_ts` builds the `YYYY-MM-DDT` prefix once per UTC day, in a small
bounded cache (`_iso_day`), and the `HH:MM:SS` rest from a table of two-digit
strings.

Both wire formats, a tweet's `created_at` and an IRC stamp, write a date such
as "Jan 1 2015" and a time of day `HH:MM:SS`, and `utc_time` reads both: the
date becomes its `YYYY-MM-DDT` prefix once per distinct text, in a small bounded
cache (`_wire_day`), `datetime.fromisoformat` reads that prefix and the whole
time as UTC, and in another zone the time's own offset there is taken off, so
each DST fold and gap resolves per time; no offset is cached, as one date can
have two. Only a time that `fromisoformat` rejects, such as one in non-ASCII
digits or at hour 24, is split into fields, which `datetime` reads with the
value or the error it always gave.

Each per-record JSON line, a message or a tweet, is decoded by `loads_line`:
json's C scanner, called directly, takes a line that is one JSON value with at
most JSON whitespace after it, and `json.loads` decodes every other line. So
each value, exception and error text is the one `json.loads` gives, without
the Python code that wraps the scanner there, about 1 µs a line (CPython 3.11).

The per-record paths build a Message, and the other NamedTuple records, as
`tuple.__new__(Message, fields)`: the same object, without the Python-level
`__new__` that calling the class runs, which is about 0.3 µs per record.
"""

from __future__ import annotations

import json
from datetime import date, datetime, timezone, tzinfo
from functools import lru_cache
from json.decoder import WHITESPACE
from json.encoder import encode_basestring
from typing import IO, Iterator, NamedTuple

# English month abbreviations as used by tweet and chat-log wire formats.
# Kept here (not strptime) so parsing does not depend on the process locale.
MONTH_BY_ABBREV = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


class Message(NamedTuple):
    """One normalized message: stream id, UTC timestamp, author, text."""

    stream_id: str
    timestamp: datetime
    author: str
    text: str


# The scanner `json.loads` runs, with `json.loads`'s default settings, and the
# whitespace pattern it skips after a value.
_scan_once = json.JSONDecoder().scan_once
_skip_whitespace = WHITESPACE.match


def loads_line(line: str) -> object:
    """`json.loads(line)`: the same value, or the same exception with the same text.

    The scanner decodes a line that starts with a JSON value and holds only
    JSON whitespace after it. `json.loads` decodes every other line: one that
    starts with whitespace, a BOM or no value, where the scanner raises
    StopIteration, and one with data after its value. An error the scanner
    raises is the one `json.loads` raises from the same call at index 0.
    """
    try:
        value, end = _scan_once(line, 0)
    except StopIteration:
        return json.loads(line)
    if end == len(line) or _skip_whitespace(line, end).end() == len(line):
        return value
    return json.loads(line)


@lru_cache(maxsize=64)
def _iso_day(day: date) -> str:
    return f"{day.isoformat()}T"


# "00" to "59", for an hour, a minute or a second (a datetime holds no leap second).
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


def format_ts(ts: datetime) -> str:
    """`ts` in UTC as `YYYY-MM-DDTHH:MM:SSZ`, the year zero-padded to four
    digits (strftime's `%Y` does not pad it on every platform; `isoformat`
    always does) and microseconds cut."""
    if ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    return f"{_iso_day(ts.date())}{_TWO_DIGITS[ts.hour]}:{_TWO_DIGITS[ts.minute]}:{_TWO_DIGITS[ts.second]}Z"


@lru_cache(maxsize=64)
def _wire_day(date_text: str) -> str:
    """The `YYYY-MM-DDT` prefix of a wire date such as "Jan 1 2015", its
    digits as written; whether that day exists is left to the parse.
    ValueError for an unknown month abbreviation."""
    mon, day, year = date_text.split(" ")
    month = MONTH_BY_ABBREV.get(mon)
    if month is None:
        raise ValueError(f"unknown month abbreviation {mon!r}")
    return f"{year}-{month:02d}-{day:0>2}T"


def utc_time(date_text: str, hms: str, tz: tzinfo) -> datetime:
    """The UTC instant of the wall time `hms`, "HH:MM:SS" whole, on `date_text` ("Jan 1 2015") in `tz`.

    ValueError for an unknown month or a date or time that does not exist;
    OverflowError for a time outside datetime's range once converted to UTC.
    """
    prefix = _wire_day(date_text)
    # fromisoformat reads ASCII digits only; what it rejects, split into fields, `datetime` reads below with the value
    # or error it always gave. `hms < "24"` ("24:.." sorts after "24") keeps 24:00, which a later fromisoformat may
    # accept, there too.
    if hms < "24":
        try:
            ts = datetime.fromisoformat(f"{prefix}{hms}+00:00")
        except ValueError:
            pass
        else:
            # The wall time less its offset in `tz`, as astimezone(timezone.utc) takes it: a zone's utcoffset
            # reads the wall time and fold alone. This skips replace(tzinfo=tz), whose keyword parsing costs
            # more than the rest of the conversion on CPython 3.11.
            return ts if tz is timezone.utc else ts - tz.utcoffset(ts)
    mon, day, year = date_text.split(" ")  # the month is known: `_wire_day` raised otherwise
    local = datetime(int(year), MONTH_BY_ABBREV[mon], int(day), *map(int, hms.split(":")), 0, tz)
    return local.astimezone(timezone.utc)


def to_json_line(msg: Message) -> str:
    """The record as `json.dumps(record, ensure_ascii=False)` writes it;
    `encode_basestring` is the string encoder that call applies."""
    return (
        f'{{"stream_id": {encode_basestring(msg.stream_id)}, "ts": "{format_ts(msg.timestamp)}", '
        f'"author": {encode_basestring(msg.author)}, "text": {encode_basestring(msg.text)}}}'
    )


def from_json_line(line: str) -> Message:
    """The message on one JSONL line.

    ValueError unless the line is a JSON object with a string value for each
    of `stream_id`, `ts`, `author` and `text`, and UTF-8 can write
    `stream_id`, `author` and `text`.
    """
    record = loads_line(line)
    if not isinstance(record, dict):
        raise ValueError(f"a message must be a JSON object, got {record!r:.40}")
    stream_id, ts, author, text = record.get("stream_id"), record.get("ts"), record.get("author"), record.get("text")
    if not (isinstance(stream_id, str) and isinstance(ts, str) and isinstance(author, str) and isinstance(text, str)):
        for key in ("stream_id", "ts", "author", "text"):  # the first field that is not a string
            if not isinstance(record.get(key), str):
                raise ValueError(f"a message needs a string {key!r}, got {record.get(key)!r:.40}")
    # A lone surrogate (a `\ud800` escape, say) is not text that UTF-8 can write; only non-ASCII text holds one.
    if not (stream_id.isascii() and author.isascii() and text.isascii()):
        for key in ("stream_id", "author", "text"):
            try:
                record[key].encode()
            except UnicodeEncodeError:
                raise ValueError(f"{key!r} holds a lone surrogate") from None
    try:
        timestamp = datetime.fromisoformat(ts.replace("Z", "+00:00"))
    except ValueError:
        # fromisoformat's own message quotes the whole value.
        raise ValueError(f"bad ts {ts!r:.40}") from None
    # fromisoformat gives every `...Z` or zero offset the timezone.utc singleton, which needs no conversion.
    if timestamp.tzinfo is None:
        timestamp = timestamp.replace(tzinfo=timezone.utc)
    elif timestamp.tzinfo is not timezone.utc:
        timestamp = timestamp.astimezone(timezone.utc)
    return tuple.__new__(Message, (stream_id, timestamp, author, text))


def read_messages(source: IO[str]) -> Iterator[tuple[int, Message]]:
    """(line number from 1, message) for each non-blank line of `source`; a
    line that holds no message raises ValueError naming its number.

    A line of whitespace alone is blank, as in a tweet capture. Otherwise
    only JSON whitespace may pad a message, as it may pad a tweet: a line
    padded with any other space, such as a vertical tab or U+00A0, holds no
    message."""
    for line_no, line in enumerate(source, start=1):
        line = line.strip(" \t\n\r")
        if line and not line.isspace():
            try:
                msg = from_json_line(line)
            # A `ts` out of datetime's range overflows; JSON nested past the recursion limit recurses.
            except (ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"messages line {line_no}: {exc}") from None
            yield line_no, msg
