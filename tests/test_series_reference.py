"""Differential tests: the series layer against verbatim copies of its filled version.

The references below are the original `series._filled` (two dicts over every
day of the span, the interior days zero-filled and OK), `series.detect_gaps`
with its `_median` (which sorted the window for every day),
`series.align` (an inner join of two date maps), `series.write_daily_csv`,
`series.read_daily_csv` (which filled the holes of its CSV),
`cli.emit_plot_series`, and `stats._correlate` and `stats.correlation_report`
over that `align`. The shipped series holds only the days of its input and
walks the span instead; every CSV it writes and every report row must be the
same, and so must the EmptyOverlap of a plot without overlap.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Collection, Iterable, Mapping, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from coinbuzz.cli import emit_plot_series
from coinbuzz.message import Message
from coinbuzz.series import (
    DailyCounter,
    DailySeries,
    EmptyOverlap,
    Flag,
    _dated_rows,
    _non_negative,
    detect_gaps,
    read_daily_csv,
    write_daily_csv,
)
from coinbuzz.stats import (
    POLICY_ALL_DAYS,
    POLICY_EXCLUDE_OUTAGES,
    ConstantSeries,
    CorrelationReport,
    ReportRow,
    TooFewPoints,
    correlation_report,
    pearson,
)

# --- reference implementation (verbatim apart from names) ---------------------


def _ref_filled(stream_id: str, counts: dict[date, int], flags: dict[date, Flag]) -> DailySeries:
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


def _ref_median(values: Iterable[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _ref_detect_gaps(series: DailySeries, theta: float = 0.1, k: int = 7) -> DailySeries:
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
            outage = count < theta * _ref_median(healthy)
        if outage:
            flags[day] = Flag.OUTAGE
        else:
            flags[day] = Flag.OK
            healthy.append(count)
    return DailySeries(series.stream_id, dict(series.counts), flags)


def _ref_align(
    a: Mapping[date, float],
    b: Mapping[date, float],
    exclude: Collection[date] = (),
) -> tuple[list[float], list[float], list[date]]:
    shared = sorted(set(a) & set(b) - set(exclude))
    if len(shared) < 3:
        raise EmptyOverlap(len(shared))
    x = [float(a[day]) for day in shared]
    y = [float(b[day]) for day in shared]
    return x, y, shared


_REF_DAILY_HEADER = ("date", "count", "flag")


def _ref_write_daily_csv(series: DailySeries, out: IO[str]) -> int:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_REF_DAILY_HEADER)
    for day in sorted(series.counts):
        writer.writerow([day.isoformat(), series.counts[day], series.flags.get(day, Flag.OK).value])
    return len(series.counts)


def _ref_read_daily_csv(source: str | Path | IO[str], stream_id: str = "") -> DailySeries:
    counts: dict[date, int] = {}
    flags: dict[date, Flag] = {}
    for line_no, day, (count, flag) in _dated_rows(source, _REF_DAILY_HEADER):
        try:
            value, flags[day] = int(count), Flag(flag.strip())
        except ValueError:
            raise ValueError(f"row {line_no}: bad count or flag {[count, flag]!r:.40}") from None
        counts[day] = _non_negative(day, value)
    return _ref_filled(stream_id, counts, flags)


def _ref_emit_plot_series(daily: DailySeries, market: Mapping[date, float], out: IO[str]) -> int:
    x, y, days = _ref_align(daily.counts, market)
    out.write("date,count,flag,metric_value\n")
    for day, count, value in zip(days, x, y):
        flag = daily.flags.get(day, Flag.OK).value
        out.write(f"{day.isoformat()},{int(count)},{flag},{value!r}\n")
    return len(days)


def _ref_correlate(
    counts: Mapping[date, int], market: Mapping[date, float], exclude: Collection[date]
) -> tuple[float | None, str | None, int]:
    try:
        x, y, days = _ref_align(counts, market, exclude)
    except EmptyOverlap as exc:
        return None, "EmptyOverlap", exc.overlap
    try:
        return pearson(x, y), None, len(days)
    except (ConstantSeries, TooFewPoints) as exc:
        return None, type(exc).__name__, len(days)


def _ref_correlation_report(
    daily: Sequence[DailySeries],
    price: Mapping[date, float],
    volume: Mapping[date, float],
    exclude_outages: bool = False,
) -> CorrelationReport:
    policy = POLICY_EXCLUDE_OUTAGES if exclude_outages else POLICY_ALL_DAYS
    one_sided = price.keys() ^ volume.keys()  # days that only one market series has
    rows = []
    seen: set[str] = set()
    for series in daily:
        if series.stream_id in seen:
            raise ValueError(f"stream {series.stream_id!r:.40} is given twice; a report has one row per stream")
        seen.add(series.stream_id)
        exclude = one_sided | series.outage_dates() if exclude_outages else one_sided
        r_volume, volume_error, n_days = _ref_correlate(series.counts, volume, exclude)
        r_price, price_error, _ = _ref_correlate(series.counts, price, exclude)
        rows.append(
            ReportRow(
                series.stream_id, series.total(), r_volume, volume_error, r_price, price_error, n_days, policy
            )
        )
    return CorrelationReport(rows)


# --- strategies --------------------------------------------------------------

SPAN = 60  # days from which a series draws its days

bases = st.sampled_from([date(2015, 6, 1), date(1, 1, 10), date(9999, 10, 20)])
# Sparse days of a series, as offsets from the base, each with its count.
day_counts = st.dictionaries(st.integers(0, SPAN - 1), st.integers(0, 50), max_size=25)
flagged_days = st.dictionaries(st.integers(0, SPAN - 1), st.tuples(st.integers(0, 50), st.sampled_from(Flag)), max_size=25)
# A market reaches a few days past the series' days on either side.
markets = st.dictionaries(st.integers(-5, SPAN + 4), st.integers(0, 10**6).map(lambda v: v / 100), max_size=40)
thetas = st.floats(0.01, 0.99)
# k runs past the number of days a series can hold.
ks = st.integers(1, SPAN + 10) | st.just(10**20)


def _dated(base: date, by_offset: dict) -> dict:
    """`by_offset` keyed by date, in the order drawn: neither a CSV nor a market is sorted here."""
    return {base + timedelta(days=offset): value for offset, value in by_offset.items()}


def _csv(series: DailySeries, write) -> str:
    out = io.StringIO()
    write(series, out)
    return out.getvalue()


def _plot(series: DailySeries, market: dict[date, float], emit) -> str:
    out = io.StringIO()
    try:
        emit(series, market, out)
    except EmptyOverlap as exc:
        return f"EmptyOverlap({exc.overlap})"
    return out.getvalue()


def _check_series(new: DailySeries, ref: DailySeries, theta: float, k: int, price: dict, volume: dict) -> None:
    """Every output of the two series, before and after gap detection, is the same."""
    # A k past every day of the series flags alike; the reference's deque cannot hold 10**20.
    pairs = [(new, ref), (detect_gaps(new, theta, k), _ref_detect_gaps(ref, theta, min(k, 10**6)))]
    for series, ref_series in pairs:
        assert _csv(series, write_daily_csv) == _csv(ref_series, _ref_write_daily_csv)
        assert series.outage_dates() == ref_series.outage_dates()
        for market in (price, volume):
            assert _plot(series, market, emit_plot_series) == _plot(ref_series, market, _ref_emit_plot_series)
        for exclude_outages in (False, True):
            rows = correlation_report([series], price, volume, exclude_outages).rows
            assert rows == _ref_correlation_report([ref_series], price, volume, exclude_outages).rows


@settings(max_examples=300, deadline=None)
@given(bases, day_counts, thetas, ks, markets, markets)
def test_counted_series_matches_reference(base, by_offset, theta, k, price, volume):
    counts = {day: count for day, count in _dated(base, by_offset).items() if count}
    counter = DailyCounter()
    # Messages arrive out of date order, as they do across captures and logs.
    for day, count in reversed(counts.items()):
        for second in range(count):
            counter.add(Message("s", datetime(day.year, day.month, day.day, 0, 0, second, tzinfo=timezone.utc), "a", "t"))
    new = counter.build("s")
    assert new.counts.keys() == counts.keys()
    _check_series(new, _ref_filled("s", counts, {}), theta, k, _dated(base, price), _dated(base, volume))


@settings(max_examples=300, deadline=None)
@given(bases, flagged_days, thetas, ks, markets, markets)
def test_series_read_from_a_csv_with_holes_matches_reference(base, by_offset, theta, k, price, volume):
    rows = _dated(base, by_offset)
    text = "date,count,flag\n" + "".join(f"{day},{count},{flag.value}\n" for day, (count, flag) in rows.items())
    new, ref = read_daily_csv(io.StringIO(text), "s"), _ref_read_daily_csv(io.StringIO(text), "s")
    assert len(new.counts) == len(rows)
    _check_series(new, ref, theta, k, _dated(base, price), _dated(base, volume))
