"""Pearson product-moment correlation and per-stream report assembly.

Correlations that cannot be computed (constant series, too little overlap)
are reported as undefined with the triggering error name instead of being
zeroed; consumers must be able to tell "no relationship" from "not
computable". No p-values, no lags, no rank correlations.
"""

from __future__ import annotations

import json
import math
import operator
from datetime import date
from typing import IO, Collection, Mapping, NamedTuple, Sequence

from coinbuzz.series import DailySeries, EmptyOverlap, align

POLICY_ALL_DAYS = "all-days"
POLICY_EXCLUDE_OUTAGES = "exclude-outages"


class TooFewPoints(Exception):
    pass


class ConstantSeries(Exception):
    pass


def _integers(values: Sequence[float]) -> list[int]:
    """Each value times 2**shift, exactly, for the least shift that makes all of them integers."""
    ratios = [v.as_integer_ratio() for v in values]  # each denominator is a power of two
    shift = max(d.bit_length() for _, d in ratios)
    return [n << (shift - d.bit_length()) for n, d in ratios]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson r, within 1 ulp of its exact value.

    Requires len(x) == len(y) >= 3 and non-constant inputs; n = 2 always
    yields +/-1 and is statistically vacuous.

    Each series is written exactly as integers over one power of two, so the
    covariance and both variances are exact integers: ConstantSeries exactly
    when a series is constant, r exactly +/-1 for exact linear dependence,
    and r independent of the scale of either input.
    """
    n = len(x)
    if len(y) != n:
        raise ValueError(f"x has {n} values and y {len(y)}")
    if n < 3:
        raise TooFewPoints(f"{n} points, need at least 3")
    x = _integers(x)
    y = _integers(y)
    sx, sy = sum(x), sum(y)
    cov = n * sum(map(operator.mul, x, y)) - sx * sy
    var_x = n * sum(v * v for v in x) - sx * sx
    var_y = n * sum(v * v for v in y) - sy * sy
    if var_x == 0 or var_y == 0:
        raise ConstantSeries("zero variance")
    # r**2 = cov**2 / (var_x * var_y) <= 1; one integer square root of it,
    # scaled by 4**e, gives |r| * 2**e to at least 64 bits.
    square, den = cov * cov, var_x * var_y
    e = max(0, den.bit_length() - square.bit_length()) // 2 + 65
    r = math.isqrt((square << 2 * e) // den) / (1 << e)
    return -r if cov < 0 else r


class ReportRow(NamedTuple):
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


class CorrelationReport(NamedTuple):
    rows: list[ReportRow]


def _correlate(
    series: DailySeries, market: Mapping[date, float], exclude: Collection[date], exclude_outages: bool
) -> tuple[float | None, str | None, int]:
    """(r, None, n_days), or (None, the error's name, n_days) when r is undefined."""
    try:
        joined = align(series, market, exclude, exclude_outages)
    except EmptyOverlap as exc:
        return None, "EmptyOverlap", exc.overlap
    _, x, _, y = zip(*joined)
    try:
        return pearson(x, y), None, len(joined)
    except (ConstantSeries, TooFewPoints) as exc:
        return None, type(exc).__name__, len(joined)


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
    are recorded in the row, never raised; a stream id given twice raises
    ValueError.
    """
    policy = POLICY_EXCLUDE_OUTAGES if exclude_outages else POLICY_ALL_DAYS
    one_sided = price.keys() ^ volume.keys()  # days that only one market series has
    rows = []
    seen: set[str] = set()
    for series in daily:
        if series.stream_id in seen:
            raise ValueError(f"stream {series.stream_id!r:.40} is given twice; a report has one row per stream")
        seen.add(series.stream_id)
        r_volume, volume_error, n_days = _correlate(series, volume, one_sided, exclude_outages)
        r_price, price_error, _ = _correlate(series, price, one_sided, exclude_outages)
        rows.append(
            ReportRow(
                series.stream_id, series.total(), r_volume, volume_error, r_price, price_error, n_days, policy
            )
        )
    return CorrelationReport(rows)


# --- JSON persistence for report handoff between CLI steps ------------------

def report_to_json(report: CorrelationReport) -> str:
    rows = [row._asdict() for row in report.rows]
    return json.dumps({"rows": rows}, ensure_ascii=False, indent=2)


# The JSON value types each ReportRow annotation admits, by type(): a bool is no int.
_JSON_TYPES = {
    "str": (str,),
    "int": (int,),
    "float | None": (int, float, type(None)),
    "str | None": (str, type(None)),
}
# Each ReportRow field's annotation as written; NamedTuple holds it as a ForwardRef.
_FIELD_TYPES = {name: getattr(kind, "__forward_arg__", kind) for name, kind in ReportRow.__annotations__.items()}
# The errors `_correlate` can name in a row.
_ERROR_NAMES = tuple(e.__name__ for e in (EmptyOverlap, ConstantSeries, TooFewPoints))


def report_from_json(source: str | IO[str]) -> CorrelationReport:
    """The report `report_to_json` wrote; ValueError for JSON of another shape,
    for a row that `correlation_report` could not have made or for a stream
    that has two rows."""
    try:
        payload = json.loads(source if isinstance(source, str) else source.read())
    except RecursionError:
        raise ValueError("a report must not nest past the recursion limit") from None
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"a report must be a JSON object with a 'rows' list, got {payload!r:.40}")
    try:
        report = CorrelationReport([ReportRow(**item) for item in rows])
    except TypeError:  # an item that is no object, or has other keys
        raise ValueError(f"a report row must be an object with exactly the keys {', '.join(ReportRow._fields)}") from None
    seen: set[str] = set()
    for n, row in enumerate(report.rows, start=1):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(row, name)
            if type(value) not in _JSON_TYPES[kind]:
                raise ValueError(f"report row {n}: {name!r} must be {kind}, got {value!r:.40}")
        for name in ("r_volume", "r_price"):
            r, error = getattr(row, name), getattr(row, f"{name}_error")
            if (r is None) == (error is None):
                raise ValueError(f"report row {n}: exactly one of {name!r} and '{name}_error' must be null")
            if r is not None and not -1 <= r <= 1:  # also NaN
                raise ValueError(f"report row {n}: {name!r} must be in [-1, 1], got {r!r}")
            if error is not None and error not in _ERROR_NAMES:
                raise ValueError(f"report row {n}: '{name}_error' must be one of {_ERROR_NAMES}, got {error!r:.40}")
        for name in ("total_messages", "n_days"):
            if getattr(row, name) < 0:
                raise ValueError(f"report row {n}: {name!r} must not be negative, got {getattr(row, name)!r:.40}")
        if row.policy not in (POLICY_ALL_DAYS, POLICY_EXCLUDE_OUTAGES):
            policies = f"{POLICY_ALL_DAYS!r} or {POLICY_EXCLUDE_OUTAGES!r}"
            raise ValueError(f"report row {n}: 'policy' must be {policies}, got {row.policy!r:.40}")
        if row.stream_id in seen:
            raise ValueError(f"report row {n}: 'stream_id' {row.stream_id!r:.40} repeats an earlier row's")
        seen.add(row.stream_id)
    return report
