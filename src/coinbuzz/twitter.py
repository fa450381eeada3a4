"""Tweet capture parsing, keyword filtering, and reconnect backoff.

Capture files are JSON lines, one tweet object per line, with the classic
`created_at` wire format `Dow Mon DD HH:MM:SS +0000 YYYY`. The keyword filter
keeps a record when any keyword appears as a case-insensitive whole word in
the text or equals one of its hashtags; word means a maximal alphanumeric run,
so "bitcoins" does not match "bitcoin" unless substring matching is requested.
The test for a keyword set is built once, on first use, and kept in a small
bounded cache: the lowered keywords, their set, and one pattern that finds
any of them as a whole word.

Live network capture is out of scope. One ingestion loop, `ingest_capture`,
streams parse -> dedupe -> filter -> emit over the lines of a capture. The set
of seen tweet ids is the only state that grows with the input: it is exact,
so no duplicate is ever let through.

The backoff schedule models the reconnect delays of a live source: an
exponential backoff per failure mode, with a cap and bounded deterministic
jitter.
"""

from __future__ import annotations

import functools
import json
import re
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from coinbuzz import DEFAULT_KEYWORDS
from coinbuzz.message import MONTH_BY_ABBREV, Message
from coinbuzz.sanitize import sanitize_text

# Maximal alphanumeric runs; underscore counts as punctuation, not word.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

_CREATED_AT_RE = re.compile(
    r"^\w{3} (\w{3}) (\d{2}) (\d{2}):(\d{2}):(\d{2}) ([+-]\d{4}) (\d{4})$"
)


class MalformedRecord(Exception):
    """A capture line that is not valid JSON, lacks a mandatory field or holds
    one that UTF-8 cannot write."""


class TweetRecord(NamedTuple):
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
    # RecursionError: JSON nested past the recursion limit. ValueError: a JSONDecodeError,
    # or a number of more digits than int() converts.
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise MalformedRecord("record is not a JSON object")

    tweet_id = record.get("id")
    if tweet_id is None:
        tweet_id = record.get("id_str")
    # Exactly an int or ASCII digits: int() alone reads 1.5 and true as 1, "1_0" as 10 and " 7 " as 7.
    if isinstance(tweet_id, str) and tweet_id.isascii() and tweet_id.isdigit():
        try:
            tweet_id = int(tweet_id)
        except ValueError:  # more digits than int() converts
            pass
    if type(tweet_id) is not int:
        raise MalformedRecord("missing or non-integer id/id_str")

    created_raw = record.get("created_at")
    if not isinstance(created_raw, str):
        raise MalformedRecord("missing created_at")
    try:
        created_at = parse_created_at(created_raw)
    # OverflowError: a time outside datetime's range once converted to UTC.
    except (ValueError, OverflowError) as exc:
        raise MalformedRecord(str(exc)) from None

    user = record.get("user")
    screen_name = user.get("screen_name") if isinstance(user, dict) else None
    if not isinstance(screen_name, str) or not screen_name:
        raise MalformedRecord("missing user.screen_name")

    text = record.get("text")
    if not isinstance(text, str):
        raise MalformedRecord("missing text")
    # A lone surrogate (a `\ud800` escape, say) is not text that UTF-8 can write; only non-ASCII text holds one.
    if not (text.isascii() and screen_name.isascii()):
        try:
            screen_name.encode()
            text.encode()
        except UnicodeEncodeError:
            raise MalformedRecord("user.screen_name or text holds a lone surrogate") from None

    hashtags = []
    entities = record.get("entities")
    if isinstance(entities, dict):
        for item in entities.get("hashtags", []):
            if isinstance(item, dict) and isinstance(item.get("text"), str):
                hashtags.append(item["text"].lower())

    return TweetRecord(tweet_id, created_at, screen_name, text, tuple(hashtags))


def check_keywords(keywords: Iterable[str], substring: bool = False) -> tuple[str, ...]:
    """The keywords as a tuple; ValueError unless there is at least one and
    none is empty or padded once its leading '#' is dropped, as matching
    drops it. Without `substring` none may hold whitespace, which no word holds."""
    keywords = tuple(keywords)
    cores = [kw.lstrip("#") for kw in keywords]
    if not cores or any(not core or core != core.strip() for core in cores):
        raise ValueError(f"'keywords' must be one or more unpadded words after any leading '#', got {list(keywords)!r:.40}")
    if not substring and any(len(core.split()) > 1 for core in cores):
        raise ValueError(f"'keywords' must hold no whitespace unless matched as substrings, got {list(keywords)!r:.40}")
    return keywords


class _KeywordPlan(NamedTuple):
    wanted: tuple[str, ...]  # lowered, leading '#' dropped
    tags: frozenset[str]
    words: re.Pattern[str] | None  # word mode: the keywords that are one whole word


@functools.lru_cache(maxsize=8)
def _keyword_plan(keywords: tuple[str, ...], substring: bool) -> _KeywordPlan:
    wanted = tuple(kw.lower().lstrip("#") for kw in keywords)
    if not wanted:
        raise ValueError("keywords must be non-empty")
    # A keyword that is not one maximal word run can equal no word of a text.
    words = [re.escape(kw) for kw in dict.fromkeys(wanted) if _WORD_RE.fullmatch(kw)]
    pattern = None
    if words and not substring:
        pattern = re.compile(r"(?<![^\W_])(?:" + "|".join(words) + r")(?![^\W_])")
    return _KeywordPlan(wanted, frozenset(wanted), pattern)


def matches_keywords(
    text: str,
    hashtags: Iterable[str],
    keywords: Iterable[str] = DEFAULT_KEYWORDS,
    substring: bool = False,
) -> bool:
    """True if any keyword matches the text (word or substring) or a hashtag."""
    plan = _keyword_plan(tuple(keywords), substring)
    lowered = text.lower()
    # Every word is a substring, so no keyword can be a word of a text that
    # does not contain it: only then is the word search needed.
    if any(map(lowered.__contains__, plan.wanted)):
        if substring or (plan.words is not None and plan.words.search(lowered)):
            return True
    for tag in hashtags:
        if tag.lower() in plan.tags:
            return True
    return False


# --- reconnect backoff -----------------------------------------------------

class FailureMode(Enum):
    NETWORK_ERROR = "network"
    HTTP_ERROR = "http"
    RATE_LIMITED = "rate"


class BackoffPolicy:
    """Exponential backoff schedule for one failure mode.

    jitter_seed None disables jitter entirely; otherwise the jitter fraction
    for the n-th consecutive failure is drawn from a generator seeded by
    (jitter_seed, n) and lies in [0, 0.25).
    """

    def __init__(
        self, mode: FailureMode, base_delay: float, factor: float = 2.0, cap: float = 320.0,
        jitter_seed: int | None = None,
    ):
        if base_delay <= 0:
            raise ValueError("base_delay must be > 0")
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if cap < base_delay:
            raise ValueError("cap must be >= base_delay")
        self.mode = mode
        self.base_delay = base_delay
        self.factor = factor
        self.cap = cap
        self.jitter_seed = jitter_seed


class BackoffState(NamedTuple):
    consecutive_failures: int = 0


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
    import random  # only a seeded policy needs it

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
    return delay, BackoffState(state.consecutive_failures + 1)


# --- ingestion loop ---------------------------------------------------------

class TweetIngestStats:
    """Counters for one capture; `vars()` lists them in the order they are printed."""

    def __init__(self) -> None:
        self.lines = 0
        self.parsed = 0
        self.malformed = 0
        self.duplicates = 0
        self.matched = 0

    @property
    def skipped(self) -> int:
        """Lines dropped as unreadable; nonzero makes a run partial."""
        return self.malformed


def ingest_capture(
    lines: Iterable[str],
    emit: Callable[[Message], None],
    *,
    keywords: Iterable[str] = DEFAULT_KEYWORDS,
    substring: bool = False,
) -> TweetIngestStats:
    """Parse, deduplicate by id, filter and emit the lines of a capture.

    Blank lines are skipped uncounted; duplicate tweet ids are counted, not
    emitted. Only keyword-matching records are emitted (stream_id "twitter");
    the keywords are checked by `check_keywords` before the first line.
    """
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
