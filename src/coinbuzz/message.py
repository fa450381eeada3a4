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
    record = {
        "stream_id": msg.stream_id,
        "ts": format_ts(msg.timestamp),
        "author": msg.author,
        "text": msg.text,
    }
    return json.dumps(record, ensure_ascii=False)


def from_json_line(line: str) -> Message:
    record = json.loads(line)
    return Message(
        stream_id=record["stream_id"],
        timestamp=parse_ts(record["ts"]),
        author=record["author"],
        text=record["text"],
    )


def read_messages(source: IO[str]) -> Iterator[Message]:
    for line in source:
        line = line.strip()
        if line:
            yield from_json_line(line)
