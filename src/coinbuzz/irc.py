"""IRC client-log parsing and network-noise filtering.

Canonical log grammar, one event per line:

    chat:    [<Dow> <Mon> <D> <YYYY>] [<HH>:<MM>:<SS>] <<nick>>\\t<text>
    network: [<Dow> <Mon> <D> <YYYY>] [<HH>:<MM>:<SS>] *** <Subtype>: <free text>

Chat events become Messages; network housekeeping events (Join, Topic, Quit,
Mode, Created, Part, Nick, Notice) are dropped and counted. A `*** Word:`
line whose word is outside that set is surfaced as a chat event authored by
that word, so unknown server chatter is kept visible rather than silently
discarded. Other log dialects are future adapters; lines that do not match
the grammar are counted and either skipped (lenient, the default) or abort
the run (strict).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone, tzinfo
from enum import Enum
from typing import Callable, Iterable
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from coinbuzz.message import MONTH_BY_ABBREV, Message
from coinbuzz.sanitize import sanitize_text

# The eight housekeeping subtypes filtered out of every channel log.
NETWORK_SUBTYPES = frozenset(
    {"Join", "Topic", "Quit", "Mode", "Created", "Part", "Nick", "Notice"}
)

_STAMP = r"\[(\w{3}) (\w{3}) (\d{1,2}) (\d{4})\] \[(\d{2}):(\d{2}):(\d{2})\]"
# Chat (groups 8-9: nick, text) is tried before network (groups 10-11: word, rest).
_LINE_RE = re.compile(_STAMP + r" (?:<([^>]+)>\t(.*)|\*\*\* (\w+): (.*))$")


class EventKind(Enum):
    CHAT = "chat"
    NETWORK = "network"


class UnparsableLine(ValueError):
    """A log line that matches neither the chat nor the network grammar."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True, slots=True)
class IrcEvent:
    timestamp: datetime
    channel: str
    kind: EventKind
    subtype: str | None
    nick: str
    text: str


@dataclass
class IrcIngestStats:
    lines_in: int = 0
    parsed: int = 0
    messages: int = 0
    dropped_network: int = 0
    unparsable: int = 0
    blank: int = 0

    @property
    def skipped(self) -> int:
        """Lines dropped as unreadable; nonzero makes a run partial."""
        return self.unparsable


def parse_log_line(
    line: str,
    channel: str,
    line_no: int = 0,
    tz: ZoneInfo | timezone = timezone.utc,
) -> IrcEvent | None:
    """Parse one log line into an IrcEvent; blank lines return None.

    Timestamps are interpreted in `tz` (log files rarely say) and normalized
    to UTC. Raises UnparsableLine for anything outside the grammar.
    """
    _check_channel(channel)
    match = _LINE_RE.match(line)
    if match is None:
        if not line.strip():
            return None
        raise UnparsableLine(line_no, "does not match chat or network grammar")
    _dow, mon, day, year, hh, mm, ss, nick, text, word, rest = match.groups()
    month = MONTH_BY_ABBREV.get(mon)
    if month is None:
        raise UnparsableLine(line_no, f"unknown month abbreviation {mon!r}")
    try:
        local = datetime(int(year), month, int(day), int(hh), int(mm), int(ss), tzinfo=tz)
        ts = local.astimezone(timezone.utc)
    except ValueError as exc:
        raise UnparsableLine(line_no, str(exc)) from exc
    if nick is not None:
        return IrcEvent(ts, channel, EventKind.CHAT, None, nick, text)
    if word in NETWORK_SUBTYPES:
        return IrcEvent(ts, channel, EventKind.NETWORK, word, "", rest)
    # Unknown server chatter: keep it, authored by the announcing word.
    return IrcEvent(ts, channel, EventKind.CHAT, None, word, rest)


def _check_channel(channel: str) -> None:
    if not channel.startswith("#"):
        raise ValueError(f"channel must begin with '#': {channel!r}")


def resolve_tz(name: str) -> tzinfo:
    """The zone named `name` ("UTC" or an IANA key such as "Europe/London").

    Raises ValueError for a name that is not a known zone.
    """
    if name == "UTC":
        return timezone.utc
    if not isinstance(name, str):
        raise ValueError(f"time zone must be a string, got {name!r}")
    try:
        return ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError):
        raise ValueError(f"unknown time zone {name!r}") from None


def ingest_log(
    lines: Iterable[str],
    emit: Callable[[Message], None],
    channel: str,
    stream_id: str | None = None,
    *,
    tz: str = "UTC",
    strict: bool = False,
) -> IrcIngestStats:
    """Stream a channel log's lines, emitting one Message per chat event.

    Lenient mode (default) skips unparsable lines and counts them; strict
    mode re-raises the first UnparsableLine. Counters always satisfy
    lines_in == messages + dropped_network + unparsable + blank.
    """
    _check_channel(channel)  # before the first line, so an empty log is checked too
    if stream_id is None:
        stream_id = f"irc:{channel}"
    zone = resolve_tz(tz)

    stats = IrcIngestStats()
    for line_no, line in enumerate(lines, start=1):
        stats.lines_in += 1
        try:
            event = parse_log_line(line.rstrip("\r\n"), channel, line_no, zone)
        except UnparsableLine:
            if strict:
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
                text=sanitize_text(event.text),
            )
        )
    return stats
