"""Pearson product-moment correlation and per-stream report assembly.

Correlations that cannot be computed (constant series, too little overlap)
are reported as undefined with the triggering error name instead of being
zeroed; consumers must be able to tell "no relationship" from "not
computable". No p-values, no lags, no rank correlations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import date
from typing import IO, Collection, Mapping, Sequence

from coinbuzz.series import DailySeries, EmptyOverlap, align

POLICY_ALL_DAYS = "all-days"
POLICY_EXCLUDE_OUTAGES = "exclude-outages"

# Absorbs floating-point excursions just past +/-1 before clamping.
_CLAMP_TOLERANCE = 1e-12


class LengthMismatch(Exception):
    pass


class TooFewPoints(Exception):
    pass


class ConstantSeries(Exception):
    pass


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson r via the two-pass definition with exact summation.

    Requires len(x) == len(y) >= 3 and non-constant inputs; n = 2 always
    yields +/-1 and is statistically vacuous. The result is clamped to
    [-1, 1].
    """
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)} points")
    n = len(x)
    if n < 3:
        raise TooFewPoints(f"{n} points, need at least 3")
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [xi - mean_x for xi in x]
    dy = [yi - mean_y for yi in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantSeries("zero variance")
    # Single sqrt keeps exact linear dependence at exactly +/-1; fall back to
    # the split form only when the product over- or underflows.
    denom_sq = sxx * syy
    if math.isinf(denom_sq) or denom_sq == 0.0:
        denom = math.sqrt(sxx) * math.sqrt(syy)
    else:
        denom = math.sqrt(denom_sq)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / denom
    if abs(r) > 1.0 + _CLAMP_TOLERANCE:
        raise AssertionError(f"pearson out of range: {r}")
    return max(-1.0, min(1.0, r))


@dataclass
class ReportRow:
    stream_id: str
    total_messages: int
    r_volume: float | None
    r_volume_error: str | None
    r_price: float | None
    r_price_error: str | None
    n_days: int
    policy: str

    @property
    def has_error(self) -> bool:
        return self.r_volume_error is not None or self.r_price_error is not None


@dataclass
class CorrelationReport:
    rows: list[ReportRow]


def _correlate(
    counts: Mapping[date, int], market: Mapping[date, float], exclude: Collection[date]
) -> tuple[float | None, str | None, int]:
    """(r, None, n_days), or (None, the error's name, n_days) when r is undefined."""
    try:
        x, y, days = align(counts, market, exclude)
    except EmptyOverlap as exc:
        return None, "EmptyOverlap", exc.overlap
    try:
        return pearson(x, y), None, len(days)
    except (ConstantSeries, TooFewPoints) as exc:
        return None, type(exc).__name__, len(days)


def correlation_report(
    daily: Sequence[DailySeries],
    price: Mapping[date, float],
    volume: Mapping[date, float],
    exclude_outages: bool = False,
) -> CorrelationReport:
    """One row per stream: total messages plus r against volume and price.

    Both correlations for a stream are computed over the same day set (the
    dates shared by the stream and both market series, minus excluded outage
    days) so each row carries a single meaningful n_days. Per-row failures
    are recorded in the row, never raised.
    """
    policy = POLICY_EXCLUDE_OUTAGES if exclude_outages else POLICY_ALL_DAYS
    one_sided = price.keys() ^ volume.keys()  # days that only one market series has
    rows = []
    for series in daily:
        exclude = one_sided | series.outage_dates() if exclude_outages else one_sided
        r_volume, volume_error, n_days = _correlate(series.counts, volume, exclude)
        r_price, price_error, _ = _correlate(series.counts, price, exclude)
        rows.append(
            ReportRow(
                series.stream_id, series.total(), r_volume, volume_error, r_price, price_error, n_days, policy
            )
        )
    return CorrelationReport(rows)


# --- JSON persistence for report handoff between CLI steps ------------------

def report_to_json(report: CorrelationReport) -> str:
    return json.dumps(asdict(report), ensure_ascii=False, indent=2)


# The JSON value types each ReportRow annotation admits, by type(): a bool is no int.
_JSON_TYPES = {
    "str": (str,),
    "int": (int,),
    "float | None": (int, float, type(None)),
    "str | None": (str, type(None)),
}


def report_from_json(source: str | IO[str]) -> CorrelationReport:
    """The report `report_to_json` wrote; ValueError for JSON of another shape."""
    payload = json.loads(source if isinstance(source, str) else source.read())
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"a report must be a JSON object with a 'rows' list, got {payload!r:.40}")
    try:
        report = CorrelationReport([ReportRow(**item) for item in rows])
    except TypeError as exc:  # an item that is no object, or has other keys
        raise ValueError(f"a report row must be an object with the keys of ReportRow: {exc}") from None
    for n, row in enumerate(report.rows, start=1):
        for f in fields(row):
            value = getattr(row, f.name)
            if type(value) not in _JSON_TYPES[f.type]:
                raise ValueError(f"report row {n}: {f.name!r} must be {f.type}, got {value!r:.40}")
    return report
