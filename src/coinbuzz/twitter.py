"""Tweet capture parsing, keyword filtering, and reconnect backoff.

Capture files are JSON lines, one tweet object per line, with the classic
`created_at` wire format `Dow Mon DD HH:MM:SS +0000 YYYY`. The keyword filter
keeps a record when any keyword appears as a case-insensitive whole word in
the text or equals one of its hashtags; word means a maximal alphanumeric run,
so "bitcoins" does not match "bitcoin" unless substring matching is requested.

Live network capture is out of scope. One ingestion loop, `ingest_capture`,
streams parse -> dedupe -> filter -> emit over either file replay (plain
lines) or a fault-scripted simulator (lines interleaved with `Fault`s).
Reconnect delays follow an exponential backoff with a cap and bounded
deterministic jitter; they are recorded, never slept, so scripted runs are
instant and reproducible. The set of seen tweet ids is the only state that
grows with the input: it is exact, so no duplicate is ever let through.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator

from coinbuzz.message import MONTH_BY_ABBREV, Message
from coinbuzz.sanitize import sanitize_text

DEFAULT_KEYWORDS = ("bitcoin",)

# Maximal alphanumeric runs; underscore counts as punctuation, not word.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

_CREATED_AT_RE = re.compile(
    r"^\w{3} (\w{3}) (\d{2}) (\d{2}):(\d{2}):(\d{2}) ([+-]\d{4}) (\d{4})$"
)


class MalformedRecord(Exception):
    """A capture line that is not valid JSON or lacks a mandatory field."""


@dataclass(frozen=True, slots=True)
class TweetRecord:
    id: int
    created_at: datetime
    user: str
    text: str
    hashtags: tuple[str, ...]


@functools.cache
def _utc_offset(offset: str) -> timezone:
    """The fixed zone of a `+HHMM`/`-HHMM` offset; raises ValueError for
    24 hours or more. The cache holds at most the 2 * 10**4 such strings."""
    delta = timedelta(hours=int(offset[1:3]), minutes=int(offset[3:5]))
    return timezone(-delta if offset[0] == "-" else delta)


def parse_created_at(value: str) -> datetime:
    match = _CREATED_AT_RE.match(value)
    if not match:
        raise ValueError(f"bad created_at: {value!r}")
    mon, day, hh, mm, ss, offset, year = match.groups()
    month = MONTH_BY_ABBREV.get(mon)
    if month is None:
        raise ValueError(f"bad created_at month: {value!r}")
    local = datetime(
        int(year), month, int(day), int(hh), int(mm), int(ss),
        tzinfo=_utc_offset(offset),
    )
    return local.astimezone(timezone.utc)


def parse_tweet(line: str) -> TweetRecord:
    """Extract a TweetRecord from one sanitized JSON capture line."""
    try:
        record = json.loads(line)
    # RecursionError: JSON nested past the recursion limit.
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise MalformedRecord("record is not a JSON object")

    tweet_id = record.get("id")
    if tweet_id is None:
        tweet_id = record.get("id_str")
    try:
        tweet_id = int(tweet_id)
    except (TypeError, ValueError):
        raise MalformedRecord("missing or non-integer id/id_str") from None

    created_raw = record.get("created_at")
    if not isinstance(created_raw, str):
        raise MalformedRecord("missing created_at")
    try:
        created_at = parse_created_at(created_raw)
    except ValueError as exc:
        raise MalformedRecord(str(exc)) from None

    user = record.get("user")
    screen_name = user.get("screen_name") if isinstance(user, dict) else None
    if not isinstance(screen_name, str) or not screen_name:
        raise MalformedRecord("missing user.screen_name")

    text = record.get("text")
    if not isinstance(text, str):
        raise MalformedRecord("missing text")

    hashtags = []
    entities = record.get("entities")
    if isinstance(entities, dict):
        for item in entities.get("hashtags", []):
            if isinstance(item, dict) and isinstance(item.get("text"), str):
                hashtags.append(item["text"].lower())

    return TweetRecord(tweet_id, created_at, screen_name, text, tuple(hashtags))


def check_keywords(keywords: Iterable[str]) -> tuple[str, ...]:
    """The keywords as a tuple; ValueError unless there is at least one and
    none is empty, padded or only '#'."""
    keywords = tuple(keywords)
    if not keywords or any(not kw.lstrip("#") or kw != kw.strip() for kw in keywords):
        raise ValueError(f"'keywords' must be one or more unpadded words, none only '#', got {list(keywords)!r}")
    return keywords


def matches_keywords(
    text: str,
    hashtags: Iterable[str],
    keywords: Iterable[str] = DEFAULT_KEYWORDS,
    substring: bool = False,
) -> bool:
    """True if any keyword matches the text (word or substring) or a hashtag."""
    wanted = [kw.lower().lstrip("#") for kw in keywords]
    if not wanted:
        raise ValueError("keywords must be non-empty")
    tags = {tag.lower() for tag in hashtags}
    lowered = text.lower()
    # Every word is a substring, so no keyword can be a word of a text that
    # does not contain it: only then is splitting into words needed.
    if any(kw in lowered for kw in wanted):
        if substring:
            return True
        words = set(_WORD_RE.findall(lowered))
        if any(kw in words for kw in wanted):
            return True
    return any(kw in tags for kw in wanted)


# --- reconnect backoff -----------------------------------------------------

class FailureMode(Enum):
    NETWORK_ERROR = "network"
    HTTP_ERROR = "http"
    RATE_LIMITED = "rate"


@dataclass(frozen=True, slots=True)
class BackoffPolicy:
    """Exponential backoff schedule for one failure mode.

    jitter_seed None disables jitter entirely; otherwise the jitter fraction
    for the n-th consecutive failure is drawn from a generator seeded by
    (jitter_seed, n) and lies in [0, 0.25).
    """

    mode: FailureMode
    base_delay: float
    factor: float = 2.0
    cap: float = 320.0
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError("base_delay must be > 0")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if self.cap < self.base_delay:
            raise ValueError("cap must be >= base_delay")


@dataclass(frozen=True, slots=True)
class BackoffState:
    consecutive_failures: int = 0
    last_mode: FailureMode | None = None


def default_policies(jitter_seed: int | None = None) -> dict[FailureMode, BackoffPolicy]:
    """Per-mode defaults mirroring common streaming-API guidance."""
    return {
        FailureMode.NETWORK_ERROR: BackoffPolicy(
            FailureMode.NETWORK_ERROR, base_delay=0.25, factor=2.0, cap=16.0,
            jitter_seed=jitter_seed,
        ),
        FailureMode.HTTP_ERROR: BackoffPolicy(
            FailureMode.HTTP_ERROR, base_delay=5.0, factor=2.0, cap=320.0,
            jitter_seed=jitter_seed,
        ),
        FailureMode.RATE_LIMITED: BackoffPolicy(
            FailureMode.RATE_LIMITED, base_delay=60.0, factor=2.0, cap=960.0,
            jitter_seed=jitter_seed,
        ),
    }


def jitter_fraction(seed: int, failure_index: int) -> float:
    """Deterministic jitter in [0, 0.25) for the given failure index."""
    return 0.25 * random.Random(f"{seed}:{failure_index}").random()


def next_delay(
    policy: BackoffPolicy,
    state: BackoffState,
    outcome: FailureMode | None,
) -> tuple[float, BackoffState]:
    """Advance the backoff state machine by one outcome.

    A success (outcome None) yields zero delay and resets the failure count.
    A failure yields min(cap, base * factor**failures) * (1 + jitter) and
    increments the count.
    """
    if outcome is None:
        return 0.0, BackoffState()
    delay = min(policy.cap, policy.base_delay * policy.factor ** state.consecutive_failures)
    if policy.jitter_seed is not None:
        delay *= 1.0 + jitter_fraction(policy.jitter_seed, state.consecutive_failures)
    return delay, BackoffState(state.consecutive_failures + 1, outcome)


# --- ingestion loop and its fault-scripted source ---------------------------

@dataclass(frozen=True, slots=True)
class Fault:
    """A connection-loss signal injected into a record stream."""

    mode: FailureMode


_FAULT_TOKENS = {
    "drop": FailureMode.NETWORK_ERROR,
    "http": FailureMode.HTTP_ERROR,
    "rate": FailureMode.RATE_LIMITED,
}


def load_fault_script(source: str | Path | Iterable[str]) -> list[str]:
    """Read a fault script: one token per line, `ok`, `drop`, `http`, `rate`."""
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    tokens = []
    for line_no, line in enumerate(lines, start=1):
        token = line.strip()
        if not token:
            continue
        if token != "ok" and token not in _FAULT_TOKENS:
            raise ValueError(f"fault script line {line_no}: unknown token {token!r}")
        tokens.append(token)
    return tokens


def scripted_source(records: Iterable[str], script: Iterable[str]) -> Iterator[str | Fault]:
    """Replay records under a fault script.

    Each `ok` token emits the next record; the other tokens emit a Fault of
    the corresponding mode. Iteration ends when the script ends or the
    records run out on an `ok`.
    """
    pending = iter(records)
    for token in script:
        if token == "ok":
            try:
                yield next(pending)
            except StopIteration:
                return
        else:
            yield Fault(_FAULT_TOKENS[token])


@dataclass
class TweetIngestStats:
    lines: int = 0
    parsed: int = 0
    malformed: int = 0
    duplicates: int = 0
    matched: int = 0
    reconnects: int = 0
    total_backoff_seconds: float = 0.0

    @property
    def skipped(self) -> int:
        """Lines dropped as unreadable; nonzero makes a run partial."""
        return self.malformed


class CollectAborted(Exception):
    """Raised when consecutive reconnect failures reach the configured cap."""

    def __init__(self, stats: TweetIngestStats, failures: int):
        super().__init__(f"aborted after {failures} consecutive failures")
        self.stats = stats
        self.failures = failures


def ingest_capture(
    lines: Iterable[str | Fault],
    emit: Callable[[Message], None],
    *,
    keywords: Iterable[str] = DEFAULT_KEYWORDS,
    substring: bool = False,
    policies: dict[FailureMode, BackoffPolicy] | None = None,
    max_consecutive_failures: int = 10,
) -> TweetIngestStats:
    """Parse, deduplicate by id, filter and emit a capture, riding out faults.

    `lines` is file replay (plain lines) or a fault-scripted source. Blank
    lines are skipped uncounted; duplicate tweet ids are counted, not emitted.
    Only keyword-matching records are emitted (stream_id "twitter"); the
    keywords are checked by `check_keywords` before the first line. Backoff
    delays are accumulated into the stats, not slept. Raises CollectAborted
    once max_consecutive_failures is reached, right after the final backoff.
    """
    keywords = check_keywords(keywords)
    if policies is None:
        policies = default_policies()
    stats = TweetIngestStats()
    state = BackoffState()
    seen_ids: set[int] = set()

    for line in lines:
        if isinstance(line, Fault):
            delay, state = next_delay(policies[line.mode], state, line.mode)
            stats.reconnects += 1
            stats.total_backoff_seconds += delay
            if state.consecutive_failures >= max_consecutive_failures:
                raise CollectAborted(stats, state.consecutive_failures)
            continue
        if state.consecutive_failures:
            state = BackoffState()
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
        emit(
            Message(
                stream_id="twitter",
                timestamp=record.created_at,
                author=record.user,
                text=sanitize_text(record.text),
            )
        )
    return stats
