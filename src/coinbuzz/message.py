"""Normalized message record shared by all pipeline stages.

A Message is one user-authored utterance from any stream (a tweet or an IRC
chat line), carrying a UTC timestamp at second precision. The JSONL wire
schema is `{"stream_id": ..., "ts": "YYYY-MM-DDTHH:MM:SSZ", "author": ...,
"text": ...}`, one record per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import IO, Iterator

# English month abbreviations as used by tweet and chat-log wire formats.
# Kept here (not strptime) so parsing does not depend on the process locale.
MONTH_BY_ABBREV = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


@dataclass(frozen=True, slots=True)
class Message:
    """One normalized message: stream id, UTC timestamp, author, text."""

    stream_id: str
    timestamp: datetime
    author: str
    text: str


def format_ts(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(TS_FORMAT)


def parse_ts(value: str) -> datetime:
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def to_json_line(msg: Message) -> str:
    """The record as `json.dumps(record, ensure_ascii=False)` writes it.

    `encode_basestring` is the string encoder that call applies. The
    timestamp is formatted from its fields only for a UTC datetime with a
    four-digit year; anything else goes through `format_ts`, because
    strftime's `%Y` zero-pads years below 1000 on some platforms and not on
    others (glibc prints year 5 as `5`).
    """
    ts = msg.timestamp
    if ts.tzinfo is timezone.utc and ts.year >= 1000:
        stamp = (
            f"{ts.year}-{ts.month:02d}-{ts.day:02d}"
            f"T{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}Z"
        )
    else:
        stamp = format_ts(ts)
    return (
        f'{{"stream_id": {encode_basestring(msg.stream_id)}, "ts": "{stamp}", '
        f'"author": {encode_basestring(msg.author)}, "text": {encode_basestring(msg.text)}}}'
    )


def from_json_line(line: str) -> Message:
    """The message on one JSONL line.

    ValueError unless the line is a JSON object with a string value for each
    of `stream_id`, `ts`, `author` and `text`.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"a message must be a JSON object, got {record!r:.40}")
    for key in ("stream_id", "ts", "author", "text"):
        if not isinstance(record.get(key), str):
            raise ValueError(f"a message needs a string {key!r}, got {record.get(key)!r:.40}")
    return Message(
        stream_id=record["stream_id"],
        timestamp=parse_ts(record["ts"]),
        author=record["author"],
        text=record["text"],
    )


def read_messages(source: IO[str]) -> Iterator[tuple[int, Message]]:
    """(line number from 1, message) for each non-blank line of `source`; a
    line that holds no message raises ValueError naming its number."""
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if line:
            try:
                msg = from_json_line(line)
            # A `ts` out of datetime's range overflows; JSON nested past the recursion limit recurses.
            except (ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"messages line {line_no}: {exc}") from None
            yield line_no, msg
