"""Daily message-count series, outage flagging, and the two dated CSVs.

Days are UTC calendar days; both market data and normalized message
timestamps are UTC-native, so no bucketing timezone is configurable. A series
holds only its input's days. A day between its first and last that it lacks
counts zero and is walked, not stored, so the daily CSV still lists collection
gaps; dates outside that span are not listed (the collection window defines it).

The outage detector compares each day against a rolling median of recent
healthy days. Median, not mean: a single spam spike must not mask a real
outage the next day.

A market CSV (`date,value`) and a daily series CSV (`date,count,flag`) share
one reader: the exact header, one row per ISO date, blank rows skipped, values
non-negative and written in ASCII without `_`. A market series is a plain
date -> value map.
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_left, insort
from collections import deque
from datetime import date
from enum import Enum
from pathlib import Path
from typing import IO, TYPE_CHECKING, Collection, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from coinbuzz.message import Message


class Flag(Enum):
    OK = "ok"
    OUTAGE = "outage"


class EmptyOverlap(ValueError):
    """Fewer than three shared dates; correlation would be meaningless."""

    def __init__(self, overlap: int):
        super().__init__(f"only {overlap} shared dates, need at least 3")
        self.overlap = overlap


class DailySeries:
    """Per-stream date -> count and date -> flag maps of the days counted or read, in input order, so
    readers walk by ordinal or sort; `lacking` is the flag of a day that `flags` lacks."""

    def __init__(
        self, stream_id: str, counts: dict[date, int] | None = None, flags: dict[date, Flag] | None = None,
        lacking: Flag = Flag.OK,
    ):
        self.stream_id = stream_id
        self.counts = {} if counts is None else counts
        self.flags = {} if flags is None else flags
        self.lacking = lacking

    def total(self) -> int:
        return sum(self.counts.values())

    def days(self, among: Iterable[date] | None = None) -> Iterator[tuple[date, int, Flag]]:
        """(day, count, flag) for each day from the first of `counts` to the last, ascending, or only
        for the days of `among` in that span; a day that `counts` lacks counts zero."""
        if not self.counts:
            return
        first, last = min(self.counts), max(self.counts)
        if among is None:
            # By ordinal, so that nothing steps past date.max.
            span = map(date.fromordinal, range(first.toordinal(), last.toordinal() + 1))
        else:
            span = sorted(day for day in among if first <= day <= last)
        for day in span:
            yield day, self.counts.get(day, 0), self.flags.get(day, self.lacking)

    def outage_dates(self) -> set[date]:
        return {day for day, _, flag in self.days() if flag is Flag.OUTAGE}


class DailyCounter:
    """Per-stream message counts by UTC calendar date: add messages, then
    build the series of the days that have messages."""

    def __init__(self) -> None:
        self._counts: dict[date, int] = {}

    def add(self, message: Message) -> None:
        day = message.timestamp.date()
        self._counts[day] = self._counts.get(day, 0) + 1

    def build(self, stream_id: str) -> DailySeries:
        return DailySeries(stream_id, dict(self._counts))


def check_gap_args(theta: float, k: int) -> None:
    """ValueError unless 0 < theta < 1 and k >= 1, as `detect_gaps` needs."""
    if not 0 < theta < 1:
        raise ValueError(f"'theta' must be in (0, 1), got {theta!r:.40}")
    if k < 1:
        raise ValueError(f"'k' must be at least 1, got {k!r:.40}")


def detect_gaps(series: DailySeries, theta: float = 0.1, k: int = 7) -> DailySeries:
    """Flag likely collection-outage days; returns a new series.

    A day is an Outage when its count is zero, or below theta times the
    median of the previous k days that were themselves healthy (days already
    flagged in this pass do not poison the baseline). Early days fall back to
    whatever history exists; with no history only the zero rule applies.
    """
    check_gap_args(theta, k)
    flags: dict[date, Flag] = {}
    # A day that `counts` lacks is an outage, so the window holds only days of `counts`.
    # `healthy` holds the window in arrival order, `ordered` the same counts sorted.
    healthy: deque[int] = deque(maxlen=min(k, len(series.counts)))
    ordered: list[int] = []
    for day in sorted(series.counts):
        count = series.counts[day]
        outage = count == 0
        if not outage and ordered:
            outage = count < theta * _median(ordered)
        if outage:
            flags[day] = Flag.OUTAGE
        else:
            flags[day] = Flag.OK
            if len(healthy) == healthy.maxlen:
                del ordered[bisect_left(ordered, healthy[0])]
            healthy.append(count)
            insort(ordered, count)
    return DailySeries(series.stream_id, dict(series.counts), flags, Flag.OUTAGE)


def _median(ordered: list[int]) -> float:
    """The median of sorted values as `statistics.median` computes it: the
    middle value, or the mean of the two middle values of an even count."""
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _dated_rows(source: str | Path | IO[str], header: tuple[str, ...]) -> Iterator[tuple[int, date, list[str]]]:
    """(line number, date, value cells) for each non-blank row of a dated CSV.

    `source` is a path or an open stream. Raises ValueError, `row <n>: ...`
    for a header other than `header`, a row of another field count or a bad
    ISO date, and `duplicate date ...` for a date seen before; the caller
    parses the value cells.
    """
    close_after = isinstance(source, (str, Path))
    if close_after:
        source = open(source, "r", encoding="utf-8", newline="")
    try:
        reader = csv.reader(source)
        got = next(reader, None)
        if got is None or [cell.strip() for cell in got] != list(header):
            raise ValueError(f"row 1: expected header {','.join(header)!r}, got {got!r:.40}")
        seen: set[date] = set()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                day = date.fromisoformat(row[0].strip())
            except ValueError:
                raise ValueError(f"row {line_no}: bad date {row[0]!r:.40}") from None
            if day in seen:
                raise ValueError(f"duplicate date {day.isoformat()}")
            seen.add(day)
            yield line_no, day, row[1:]
    finally:
        if close_after:
            source.close()


def _number(kind: type, cell: str) -> float:
    """`kind(cell)`, but ValueError for an underscore or a non-ASCII character other than surrounding
    whitespace, which `int` and `float` would read as a digit separator or a digit (`1_0`, `\u0663`)."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(cell)
    return kind(cell)


def _non_negative(day: date, value: float) -> float:
    if value < 0:
        raise ValueError(f"negative value {value!r:.40} on {day.isoformat()}")
    return value


def load_market_csv(source: str | Path | IO[str]) -> dict[date, float]:
    """A `date,value` CSV as a date -> finite non-negative value map, dates ascending."""
    values: dict[date, float] = {}
    for line_no, day, (cell,) in _dated_rows(source, ("date", "value")):
        try:
            value = _number(float, cell)
        except ValueError:
            raise ValueError(f"row {line_no}: bad value {cell!r:.40}") from None
        if not math.isfinite(value):
            raise ValueError(f"row {line_no}: non-finite value {cell!r:.40}")
        values[day] = _non_negative(day, value)
    return dict(sorted(values.items()))


def align(
    series: DailySeries,
    market: Mapping[date, float],
    exclude: Collection[date] = (),
    exclude_outages: bool = False,
) -> list[tuple[date, int, Flag, float]]:
    """(day, count, flag, market value) for each market day in the series'
    span, dates ascending, but for days in `exclude` and, with
    `exclude_outages`, outage days. Raises EmptyOverlap when fewer than 3 remain.
    """
    joined = [
        (day, count, flag, float(market[day]))
        for day, count, flag in series.days(market)
        if day not in exclude and not (exclude_outages and flag is Flag.OUTAGE)
    ]
    if len(joined) < 3:
        raise EmptyOverlap(len(joined))
    return joined


# --- plot-ready CSV (date,count,flag) ---------------------------------------

_DAILY_HEADER = ("date", "count", "flag")


def write_daily_csv(series: DailySeries, out: IO[str]) -> int:
    out.write(",".join(_DAILY_HEADER) + "\n")
    rows = 0
    for rows, (day, count, flag) in enumerate(series.days(), start=1):
        out.write(f"{day.isoformat()},{count},{flag.value}\n")
    return rows


def read_daily_csv(source: str | Path | IO[str], stream_id: str = "") -> DailySeries:
    """A `date,count,flag` CSV as a series of its rows; counts are non-negative integers within the range
    of a float, and a day inside the span without a row counts zero and is OK, as in an aggregated series."""
    counts: dict[date, int] = {}
    flags: dict[date, Flag] = {}
    for line_no, day, (count, flag) in _dated_rows(source, _DAILY_HEADER):
        try:
            value, flags[day] = _number(int, count), Flag(flag.strip())
        except ValueError:
            raise ValueError(f"row {line_no}: bad count or flag {[count, flag]!r:.40}") from None
        counts[day] = _non_negative(day, value)
        # `gaps` and `correlate` compute with the counts as floats.
        if value > sys.float_info.max:
            raise ValueError(f"row {line_no}: count past the range of a float {count!r:.40}")
    return DailySeries(stream_id, counts, flags)
