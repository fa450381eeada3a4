"""Tweet capture parsing, keyword filtering, and reconnect backoff.

Capture files are JSON lines, one tweet object per line, with the classic
`created_at` wire format `Dow Mon DD HH:MM:SS +0000 YYYY`. The keyword filter
keeps a record when any keyword appears as a case-insensitive whole word in
the text or equals one of its hashtags; word means a maximal alphanumeric run,
so "bitcoins" does not match "bitcoin" unless substring matching is requested.
The test for a keyword set is built once, on first use, and kept in a small
bounded cache: one set of the lowered keywords, read for the text and the
hashtags alike, and one pattern that finds any of them as a whole word. The
pattern names each keyword before the lookbehind that tests the character
before it, so `re` scans for the keywords' first characters rather than
testing a lookbehind at every position of the text.

A `created_at` is read by `message.utc_time` in the fixed zone of its offset.

Live network capture is out of scope. One ingestion loop, `ingest_capture`,
streams parse -> dedupe -> filter -> emit over the lines of a capture. The
seen tweet ids are the only state that grows with the input: they are held
exactly, so no duplicate is ever let through, in a sorted int64 array at
about 8 bytes an id, beside a set of the ids added since its last merge.

The backoff schedule models the reconnect delays of a live source: an
exponential backoff per failure mode, with a cap and bounded deterministic
jitter.
"""

from __future__ import annotations

import functools
import re
from array import array
from bisect import bisect_left, bisect_right
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from coinbuzz import DEFAULT_KEYWORDS
from coinbuzz.message import MONTH_BY_ABBREV, Message, loads_line, utc_time
from coinbuzz.sanitize import sanitize_text

# Maximal alphanumeric runs; underscore counts as punctuation, not word.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Group 1 is the month and day, such as "Jun 01", which with the year is the date text `utc_time` reads.
_CREATED_AT_RE = re.compile(
    r"^\w{3} (\w{3} \d{2}) (\d{2}:\d{2}:\d{2}) ([+-]\d{4}) (\d{4})$"
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


@functools.lru_cache(maxsize=64)
def _utc_offset(offset: str) -> timezone:
    """The fixed zone of a `+HHMM`/`-HHMM` offset; raises ValueError for
    24 hours or more. Its digits may be any of Unicode's decimal digits, which
    `int()` reads, so the distinct offsets are not few; the cache keeps the
    64 used last."""
    delta = timedelta(hours=int(offset[1:3]), minutes=int(offset[3:5]))
    return timezone(-delta if offset[0] == "-" else delta)


def parse_created_at(value: str) -> datetime:
    match = _CREATED_AT_RE.match(value)
    if not match:
        raise ValueError(f"bad created_at: {value!r}")
    mon_day, hms, offset, year = match.groups()
    if mon_day[:3] not in MONTH_BY_ABBREV:
        raise ValueError(f"bad created_at month: {value!r}")
    return utc_time(f"{mon_day} {year}", hms, _utc_offset(offset))


def parse_tweet(line: str) -> TweetRecord:
    """Extract a TweetRecord from one sanitized JSON capture line."""
    try:
        record = loads_line(line)
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
    # Both are optional: an `entities` that is not an object, or `hashtags` that is not a list, holds none.
    tags = entities.get("hashtags") if isinstance(entities, dict) else None
    if isinstance(tags, list):
        for item in tags:
            if isinstance(item, dict) and isinstance(item.get("text"), str):
                hashtags.append(item["text"].lower())

    # tuple.__new__ builds the record without the NamedTuple's Python-level __new__ (see coinbuzz.message).
    return tuple.__new__(TweetRecord, (tweet_id, created_at, screen_name, text, tuple(hashtags)))


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


@functools.lru_cache(maxsize=8)
def _keyword_plan(keywords: tuple[str, ...], substring: bool) -> tuple[frozenset[str], re.Pattern[str] | None]:
    wanted = frozenset(kw.lower().lstrip("#") for kw in keywords)
    if not wanted:
        raise ValueError("keywords must be non-empty")
    # A keyword that is not one maximal word run can equal no word of a text. Sorted, so that the
    # pattern is the same under every hash seed; word lookarounds bound each alternative, so order is moot.
    # Each keyword comes before the lookbehind that tests the character before it, so that the
    # pattern starts with literals, which `re` scans for instead of trying the lookbehind everywhere.
    words = [re.escape(kw) for kw in sorted(wanted) if _WORD_RE.fullmatch(kw)]
    pattern = None
    if words and not substring:
        pattern = re.compile("(?:" + "|".join(rf"{kw}(?<![^\W_]{kw})" for kw in words) + r")(?![^\W_])")
    return wanted, pattern


def matches_keywords(
    text: str,
    hashtags: Iterable[str],
    keywords: Iterable[str] = DEFAULT_KEYWORDS,
    substring: bool = False,
) -> bool:
    """True if any keyword matches the text (word or substring) or a hashtag."""
    wanted, words = _keyword_plan(tuple(keywords), substring)
    lowered = text.lower()
    if substring:
        if any(map(lowered.__contains__, wanted)):
            return True
    elif words is not None and words.search(lowered):
        return True
    for tag in hashtags:
        if tag.lower() in wanted:
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


# The recent ids are merged into the array once they number max(_MERGE_FLOOR, len(array) >> _MERGE_SHIFT):
# the set they sit in costs about 90 B an id, the array 8 B, and each merge copies the array at most once.
_MERGE_FLOOR = 4096
_MERGE_SHIFT = 5
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class _SeenIds:
    """An exact set of tweet ids whose `add` is True only for an id not added before.

    `merged` is a sorted int64 array, `recent` the ids added since its last
    merge, and `wide` the ids outside int64, which `parse_tweet` also accepts.
    """

    def __init__(self) -> None:
        self.merged = array("q")
        self.recent: set[int] = set()
        self.wide: set[int] = set()
        self.limit = _MERGE_FLOOR

    def add(self, tweet_id: int) -> bool:
        recent, merged = self.recent, self.merged
        if tweet_id in recent or tweet_id in self.wide:
            return False
        # Below the array's first id, bisect_left gives 0; that covers the ids under int64 too.
        if merged and tweet_id <= merged[-1] and merged[bisect_left(merged, tweet_id)] == tweet_id:
            return False
        recent.add(tweet_id)
        if len(recent) >= self.limit:
            self._merge()
        return True

    def _merge(self) -> None:
        ids = sorted(self.recent)
        self.recent.clear()
        lo, hi = bisect_left(ids, _INT64_MIN), bisect_right(ids, _INT64_MAX)
        self.wide.update(ids[:lo], ids[hi:])
        new = array("q", ids[lo:hi])
        del ids  # the boxed ids go before the array is copied
        old = self.merged
        if not new or not old or new[0] > old[-1]:
            old.extend(new)
        else:
            # The old array's runs between the new ids' insertion points, copied through a byte view.
            merged, start = array("q"), 0
            with memoryview(old).cast("B") as view:
                for tweet_id in new:
                    end = bisect_left(old, tweet_id, start)
                    merged.frombytes(view[start * 8:end * 8])
                    merged.append(tweet_id)
                    start = end
                merged.frombytes(view[start * 8:])
            self.merged = merged
        self.limit = max(_MERGE_FLOOR, len(self.merged) >> _MERGE_SHIFT)


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
    seen_ids = _SeenIds()

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
        if not seen_ids.add(record.id):
            stats.duplicates += 1
            continue
        if not matches_keywords(record.text, record.hashtags, keywords, substring):
            continue
        stats.matched += 1
        emit(tuple.__new__(Message, ("twitter", record.created_at, record.user, sanitize_text(record.text))))
    return stats
