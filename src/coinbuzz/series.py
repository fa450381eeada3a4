"""Daily message-count series, outage flagging, and the two dated CSVs.

Days are UTC calendar days; both market data and normalized message
timestamps are UTC-native, so no bucketing timezone is configurable. Interior
dates with no messages are materialized with count zero so collection gaps
stay visible, while leading/trailing dates outside the observed span are not
(the collection window defines the span).

The outage detector compares each day against a rolling median of recent
healthy days. Median, not mean: a single spam spike must not mask a real
outage the next day.

A market CSV (`date,value`) and a daily series CSV (`date,count,flag`) share
one reader: the exact header, one row per ISO date, blank rows skipped, values
non-negative. A market series is a plain date -> value map.
"""

from __future__ import annotations

import csv
import math
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


class MalformedRow(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"row {line_no}: {reason}")
        self.line_no = line_no


class DuplicateDate(ValueError):
    def __init__(self, day: date):
        super().__init__(f"duplicate date {day.isoformat()}")
        self.day = day


class NegativeValue(ValueError):
    def __init__(self, day: date, value: float):
        super().__init__(f"negative value {value!r:.40} on {day.isoformat()}")
        self.day = day


class EmptyOverlap(ValueError):
    """Fewer than three shared dates; correlation would be meaningless."""

    def __init__(self, overlap: int):
        super().__init__(f"only {overlap} shared dates, need at least 3")
        self.overlap = overlap


class DailySeries:
    """Per-stream date -> count map with a gap flag per day, dates ascending."""

    def __init__(
        self, stream_id: str, counts: dict[date, int] | None = None, flags: dict[date, Flag] | None = None
    ):
        self.stream_id = stream_id
        self.counts = {} if counts is None else counts
        self.flags = {} if flags is None else flags

    def total(self) -> int:
        return sum(self.counts.values())

    def outage_dates(self) -> set[date]:
        return {d for d, flag in self.flags.items() if flag is Flag.OUTAGE}


class DailyCounter:
    """Per-stream message counts by UTC calendar date: add messages, then
    build the series, with interior dates zero-filled."""

    def __init__(self) -> None:
        self._counts: dict[date, int] = {}

    def add(self, message: Message) -> None:
        day = message.timestamp.date()
        self._counts[day] = self._counts.get(day, 0) + 1

    def build(self, stream_id: str) -> DailySeries:
        return _filled(stream_id, self._counts, {})


def _filled(stream_id: str, counts: dict[date, int], flags: dict[date, Flag]) -> DailySeries:
    """The series over every day from the first to the last of `counts`; a day
    absent from `counts` counts zero, one absent from `flags` is OK."""
    filled_counts: dict[date, int] = {}
    filled_flags: dict[date, Flag] = {}
    if counts:
        # By ordinal, so that nothing steps past date.max.
        for ordinal in range(min(counts).toordinal(), max(counts).toordinal() + 1):
            day = date.fromordinal(ordinal)
            filled_counts[day] = counts.get(day, 0)
            filled_flags[day] = flags.get(day, Flag.OK)
    return DailySeries(stream_id, filled_counts, filled_flags)


def detect_gaps(series: DailySeries, theta: float = 0.1, k: int = 7) -> DailySeries:
    """Flag likely collection-outage days; returns a new series.

    A day is an Outage when its count is zero, or below theta times the
    median of the previous k days that were themselves healthy (days already
    flagged in this pass do not poison the baseline). Early days fall back to
    whatever history exists; with no history only the zero rule applies.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must be in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    flags: dict[date, Flag] = {}
    healthy: deque[int] = deque(maxlen=k)
    for day in sorted(series.counts):
        count = series.counts[day]
        outage = count == 0
        if not outage and healthy:
            outage = count < theta * _median(healthy)
        if outage:
            flags[day] = Flag.OUTAGE
        else:
            flags[day] = Flag.OK
            healthy.append(count)
    return DailySeries(series.stream_id, dict(series.counts), flags)


def _median(values: Iterable[int]) -> float:
    """The median as `statistics.median` computes it: the middle value, or
    the mean of the two middle values of an even count."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _dated_rows(source: str | Path | IO[str], header: tuple[str, ...]) -> Iterator[tuple[int, date, list[str]]]:
    """(line number, date, value cells) for each non-blank row of a dated CSV.

    `source` is a path or an open stream. Raises MalformedRow for a header
    other than `header`, a row of another field count or a bad ISO date, and
    DuplicateDate for a date seen before; the caller parses the value cells.
    """
    close_after = isinstance(source, (str, Path))
    if close_after:
        source = open(source, "r", encoding="utf-8", newline="")
    try:
        reader = csv.reader(source)
        got = next(reader, None)
        if got is None or [cell.strip() for cell in got] != list(header):
            raise MalformedRow(1, f"expected header {','.join(header)!r}, got {got!r:.40}")
        seen: set[date] = set()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                day = date.fromisoformat(row[0].strip())
            except ValueError:
                raise MalformedRow(line_no, f"bad date {row[0]!r:.40}") from None
            if day in seen:
                raise DuplicateDate(day)
            seen.add(day)
            yield line_no, day, row[1:]
    finally:
        if close_after:
            source.close()


def _non_negative(day: date, value: float) -> float:
    if value < 0:
        raise NegativeValue(day, value)
    return value


def load_market_csv(source: str | Path | IO[str]) -> dict[date, float]:
    """A `date,value` CSV as a date -> finite non-negative value map, dates ascending."""
    values: dict[date, float] = {}
    for line_no, day, (cell,) in _dated_rows(source, ("date", "value")):
        try:
            value = float(cell)
        except ValueError:
            raise MalformedRow(line_no, f"bad value {cell!r:.40}") from None
        if not math.isfinite(value):
            raise MalformedRow(line_no, f"non-finite value {cell!r:.40}")
        values[day] = _non_negative(day, value)
    return dict(sorted(values.items()))


def align(
    a: Mapping[date, float],
    b: Mapping[date, float],
    exclude: Collection[date] = (),
) -> tuple[list[float], list[float], list[date]]:
    """Inner-join two date maps into paired vectors, dates ascending.

    Dates in `exclude` (outage days, typically) are dropped before the join.
    Raises EmptyOverlap when fewer than 3 dates survive.
    """
    shared = sorted(set(a) & set(b) - set(exclude))
    if len(shared) < 3:
        raise EmptyOverlap(len(shared))
    x = [float(a[day]) for day in shared]
    y = [float(b[day]) for day in shared]
    return x, y, shared


# --- plot-ready CSV (date,count,flag) ---------------------------------------

_DAILY_HEADER = ("date", "count", "flag")


def write_daily_csv(series: DailySeries, out: IO[str]) -> int:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_DAILY_HEADER)
    for day in sorted(series.counts):
        writer.writerow([day.isoformat(), series.counts[day], series.flags.get(day, Flag.OK).value])
    return len(series.counts)


def read_daily_csv(source: str | Path | IO[str], stream_id: str = "") -> DailySeries:
    """A `date,count,flag` CSV as a series; counts are non-negative integers."""
    counts: dict[date, int] = {}
    flags: dict[date, Flag] = {}
    for line_no, day, (count, flag) in _dated_rows(source, _DAILY_HEADER):
        try:
            value, flags[day] = int(count), Flag(flag.strip())
        except ValueError:
            raise MalformedRow(line_no, f"bad count or flag {[count, flag]!r:.40}") from None
        counts[day] = _non_negative(day, value)
    # Normalize foreign CSVs: interior dates absent from the file become
    # explicit zero-count days, same as the aggregation path produces.
    return _filled(stream_id, counts, flags)
