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
the run (strict). Each line's timestamp is read by `message.utc_time`.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone, tzinfo
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from coinbuzz.message import Message, utc_time
from coinbuzz.sanitize import sanitize_text

# The eight housekeeping subtypes filtered out of every channel log.
NETWORK_SUBTYPES = frozenset(
    {"Join", "Topic", "Quit", "Mode", "Created", "Part", "Nick", "Notice"}
)

# Groups 1-2 are the date text after the weekday, such as "Jan 1 2015", and the time of day, which `utc_time`
# reads. Chat (groups 3-4: nick, text) is tried before network (groups 5-6: word, rest).
_LINE_RE = re.compile(r"\[\w{3} (\w{3} \d{1,2} \d{4})\] \[(\d{2}:\d{2}:\d{2})\] (?:<([^>]+)>\t(.*)|\*\*\* (\w+): (.*))$")


class EventKind(Enum):
    CHAT = "chat"
    NETWORK = "network"


# The members for the per-line paths: before Python 3.12 EnumType defines __getattr__, which slows
# every attribute lookup on an Enum class, `EventKind.CHAT` included, to about 0.1 µs.
_CHAT, _NETWORK = EventKind.CHAT, EventKind.NETWORK


class UnparsableLine(ValueError):
    """A log line that holds no event; `parse_log_line` says which."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")


class IrcEvent(NamedTuple):
    timestamp: datetime
    kind: EventKind
    nick: str
    text: str


class IrcIngestStats:
    """Counters for one log; `vars()` lists them in the order they are printed."""

    def __init__(self) -> None:
        self.lines_in = 0
        self.parsed = 0
        self.messages = 0
        self.dropped_network = 0
        self.unparsable = 0
        self.blank = 0

    @property
    def skipped(self) -> int:
        """Lines dropped as unreadable; nonzero makes a run partial."""
        return self.unparsable


def parse_log_line(line: str, line_no: int = 0, tz: tzinfo = timezone.utc) -> IrcEvent | None:
    """Parse one log line into an IrcEvent; blank lines return None.

    Timestamps are interpreted in `tz` (log files rarely say) and normalized
    to UTC. Raises UnparsableLine, naming `line_no`, for every other line
    that holds no event: one outside the grammar, a date or time that does
    not exist, or a time outside datetime's range once converted to UTC.
    """
    match = _LINE_RE.match(line)
    if match is None:
        if not line.strip():
            return None
        raise UnparsableLine(line_no, "does not match chat or network grammar")
    date_text, hms, nick, text, word, rest = match.groups()
    try:
        ts = utc_time(date_text, hms, tz)
    # OverflowError: a local time outside datetime's range once converted to UTC.
    except (ValueError, OverflowError) as exc:
        raise UnparsableLine(line_no, str(exc)) from exc
    # tuple.__new__ builds the record without the NamedTuple's Python-level __new__ (see coinbuzz.message).
    if nick is not None:
        return tuple.__new__(IrcEvent, (ts, _CHAT, nick, text))
    if word in NETWORK_SUBTYPES:
        return tuple.__new__(IrcEvent, (ts, _NETWORK, "", rest))
    # Unknown server chatter: keep it, authored by the announcing word.
    return tuple.__new__(IrcEvent, (ts, _CHAT, word, rest))


def resolve_tz(name: str) -> tzinfo:
    """The zone named `name` ("UTC" or an IANA key such as "Europe/London").

    Raises ValueError for a name that is not a known zone. `zoneinfo` is
    imported only for a name other than "UTC".
    """
    if name == "UTC":
        return timezone.utc
    if not isinstance(name, str):
        raise ValueError(f"time zone must be a string, got {name!r:.40}")
    from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

    try:
        return ZoneInfo(name)
    except (ZoneInfoNotFoundError, ValueError):
        raise ValueError(f"unknown time zone {name!r:.40}") from None


def check_channel(channel: str) -> None:
    """ValueError unless `channel` begins with '#'."""
    if not channel.startswith("#"):
        raise ValueError(f"'channel' must begin with '#', got {channel!r:.40}")


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

    `channel` must pass `check_channel`, checked before the first line, so
    an empty log is checked too. Lenient mode (default) skips and counts
    each line that `parse_log_line` finds unparsable; strict mode re-raises
    its UnparsableLine. Counters always satisfy
    lines_in == messages + dropped_network + unparsable + blank.
    """
    check_channel(channel)
    if stream_id is None:
        stream_id = f"irc:{channel}"
    zone = resolve_tz(tz)

    stats = IrcIngestStats()
    for line_no, line in enumerate(lines, start=1):
        stats.lines_in += 1
        try:
            event = parse_log_line(line.rstrip("\r\n"), line_no, zone)
        except UnparsableLine:
            if strict:
                raise
            stats.unparsable += 1
            continue
        if event is None:
            stats.blank += 1
            continue
        stats.parsed += 1
        if event.kind is _NETWORK:
            stats.dropped_network += 1
            continue
        stats.messages += 1
        emit(tuple.__new__(Message, (stream_id, event.timestamp, event.nick, sanitize_text(event.text))))
    return stats
