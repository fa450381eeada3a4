from __future__ import annotations

import io
import math
import random
from datetime import date, timedelta
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coinbuzz.series import DailySeries, Flag
from coinbuzz.stats import (
    POLICY_ALL_DAYS,
    POLICY_EXCLUDE_OUTAGES,
    ConstantSeries,
    CorrelationReport,
    ReportRow,
    TooFewPoints,
    correlation_report,
    pearson,
    report_from_json,
    report_to_json,
)


def naive_pearson(x, y):
    """Definition-formula oracle, deliberately plain."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
    return num / den


# --- pearson -----------------------------------------------------------------

def test_exact_positive_dependence():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0


def test_exact_negative_dependence():
    assert pearson([1, 2, 3], [6, 4, 2]) == -1.0


def test_hand_computed_case():
    # Deviations give covariance 5.5 and variances 5 * 8.75 = 43.75.
    expected = 5.5 / math.sqrt(43.75)
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 5]) - expected) < 1e-12


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        pearson([1, 2], [3, 4])


def test_series_of_two_lengths_are_refused():
    with pytest.raises(ValueError, match="^x has 3 values and y 7$"):
        pearson([1, 2, 3], [0.2] * 7)


def test_constant_series():
    with pytest.raises(ConstantSeries):
        pearson([5, 5, 5], [1, 2, 3])
    with pytest.raises(ConstantSeries):
        pearson([1, 2, 3], [7, 7, 7])


def test_agrees_with_definition_formula():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(3, 60)
        x = [rng.uniform(-50, 50) for _ in range(n)]
        y = [rng.uniform(-50, 50) for _ in range(n)]
        assert abs(pearson(x, y) - naive_pearson(x, y)) < 1e-10


_vectors = st.integers(min_value=3, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
            min_size=n, max_size=n,
        ),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
            min_size=n, max_size=n,
        ),
    )
)


@given(_vectors)
def test_symmetry_and_range(pair):
    x, y = pair
    try:
        r = pearson(x, y)
    except ConstantSeries:
        assume(False)
    assert -1.0 <= r <= 1.0
    assert r == pearson(y, x)


# Powers of two and integer shifts keep the affine transform exact in floats,
# so the tolerance really measures the correlation code, not data rounding.
@given(
    st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=n, max_size=n),
            st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=n, max_size=n),
        )
    ),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]),
    st.integers(min_value=-1000, max_value=1000),
)
def test_affine_invariance(pair, scale, shift):
    x = [float(v) for v in pair[0]]
    y = [float(v) for v in pair[1]]
    try:
        r = pearson(x, y)
    except ConstantSeries:
        assume(False)
    scaled = [scale * v + shift for v in x]
    assert abs(pearson(scaled, y) - r) <= 1e-12
    flipped = [-scale * v + shift for v in x]
    assert abs(pearson(flipped, y) + r) <= 1e-12


def test_huge_magnitudes_fall_back_without_overflow():
    x = [1e150, 2e150, 3e150, 4e150]
    y = [2e150, 4e150, 6e150, 8e150]
    assert abs(pearson(x, y) - 1.0) < 1e-12


# Zero, or a magnitude in [2**-60, 2**60]: scaled by 2**k for any k in
# [-900, 900], such a value neither over- nor underflows, so ldexp is exact.
_exact_under_scaling = st.floats(min_value=-(2.0**60), max_value=2.0**60).filter(
    lambda v: v == 0 or abs(v) >= 2.0**-60
)


def _outcome(x, y) -> str:
    """r's bits as hex, or the name of the error pearson raises."""
    try:
        return pearson(x, y).hex()
    except (ConstantSeries, TooFewPoints) as exc:
        return type(exc).__name__


@given(
    st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(_exact_under_scaling, min_size=n, max_size=n),
            st.lists(_exact_under_scaling, min_size=n, max_size=n),
        )
    ),
    st.integers(min_value=-900, max_value=900),
    st.integers(min_value=-900, max_value=900),
)
def test_r_does_not_depend_on_the_scale_of_either_input(pair, k, j):
    x, y = pair
    scaled = _outcome([math.ldexp(v, k) for v in x], [math.ldexp(v, j) for v in y])
    assert scaled == _outcome(x, y)


def _exact_r(x, y) -> Decimal | None:
    """r from the definition over exact fractions, its root taken to 80 digits; None when undefined."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mean_x, mean_y = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = sum((a - mean_x) ** 2 for a in x)
    syy = sum((b - mean_y) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return None
    square = sxy * sxy / (sxx * syy)
    with localcontext() as ctx:
        ctx.prec = 80
        root = (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()
        return root if sxy >= 0 else -root


def _series(values):
    return st.integers(min_value=3, max_value=30).flatmap(lambda n: st.tuples(*[st.lists(values, min_size=n, max_size=n)] * 2))


_any_finite = st.floats(allow_nan=False, allow_infinity=False)
# Large offsets with small spreads: the mean of such a series does not round back to itself.
_offset_series = st.integers(min_value=3, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 50), min_size=n, max_size=n),
        st.sampled_from([0.0, 1e9, 1e12, 1e14, 1e15, 3e15]).flatmap(
            lambda base: st.lists(st.integers(-8, 8).map(lambda j: base + j / 4), min_size=n, max_size=n)
        ),
    )
)
# A constant series of a value whose sum over n days is rounded, against another series.
_constant_series = st.integers(min_value=3, max_value=30).flatmap(
    lambda n: st.tuples(
        st.sampled_from([0.1, 0.2, 0.7, 1 / 3, 1e-300, 5e-324, 1.7e308]).map(lambda v: [v] * n),
        st.lists(_any_finite, min_size=n, max_size=n),
    )
)


@given(_series(_any_finite) | _offset_series | _constant_series | _constant_series.map(lambda p: p[::-1]))
def test_r_is_within_2_ulp_of_the_exact_r_and_undefined_exactly_for_a_constant_series(pair):
    x, y = pair
    exact = _exact_r(x, y)
    assert (exact is None) == (len(set(x)) == 1 or len(set(y)) == 1)
    if exact is None:
        with pytest.raises(ConstantSeries):
            pearson(x, y)
        return
    r = pearson(x, y)
    assert abs(Decimal(r) - exact) <= 2 * Decimal(math.ulp(float(exact))), (r, exact)


def test_a_constant_series_whose_mean_is_rounded_is_constant():
    for v in (0.1, 0.2, 0.7, 1 / 3):
        with pytest.raises(ConstantSeries):
            pearson([v] * 3, [1, 2, 3])
        with pytest.raises(ConstantSeries):
            pearson([1, 2, 3, 5, 8, 13, 21], [v] * 7)


# --- report assembly ---------------------------------------------------------

START = date(2015, 6, 1)


def _daily(stream_id: str, counts: list[int], outages: set[int] = frozenset()) -> DailySeries:
    days = {START + timedelta(days=i): c for i, c in enumerate(counts)}
    flags = {
        START + timedelta(days=i): (Flag.OUTAGE if i in outages else Flag.OK)
        for i in range(len(counts))
    }
    return DailySeries(stream_id, days, flags)


def _market(values: list[float]) -> dict[date, float]:
    return {START + timedelta(days=i): v for i, v in enumerate(values)}


def test_identity_stream_correlates_perfectly_with_volume():
    counts = [10, 40, 20, 50, 30]
    volume = _market([float(c) for c in counts])
    price = _market([230.0, 231.0, 229.0, 228.0, 232.0])
    report = correlation_report([_daily("s", counts)], price, volume)
    row = report.rows[0]
    assert row.r_volume == 1.0
    assert row.total_messages == sum(counts)
    assert row.n_days == 5
    assert row.policy == POLICY_ALL_DAYS
    assert abs(row.r_price - naive_pearson(counts, [230.0, 231.0, 229.0, 228.0, 232.0])) < 1e-12


def test_constant_counts_are_reported_undefined():
    price = _market([1.0, 2.0, 3.0])
    volume = _market([4.0, 5.0, 6.0])
    report = correlation_report([_daily("s", [7, 7, 7])], price, volume)
    row = report.rows[0]
    assert row.r_volume is None
    assert row.r_volume_error == "ConstantSeries"
    assert row.r_price is None
    assert row.r_price_error == "ConstantSeries"
    assert row.has_error


def test_empty_overlap_is_recorded_per_row():
    price = _market([1.0, 2.0, 3.0])
    volume = _market([4.0, 5.0, 6.0])
    far_away = DailySeries("far", {date(2020, 1, 1): 5})
    report = correlation_report([far_away, _daily("near", [1, 2, 4])], price, volume)
    assert report.rows[0].r_volume_error == "EmptyOverlap"
    assert report.rows[0].n_days == 0
    assert report.rows[1].r_volume is not None


def test_exclude_outages_policy_drops_flagged_days():
    # Day 3 is corrupted: counts say 0 while volume is ordinary.
    counts = [10, 40, 20, 0, 50, 30]
    volume_values = [10.0, 40.0, 20.0, 25.0, 50.0, 30.0]
    volume = _market(volume_values)
    price = _market([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    daily = _daily("s", counts, outages={3})

    strict = correlation_report([daily], price, volume, exclude_outages=True)
    loose = correlation_report([daily], price, volume, exclude_outages=False)
    assert strict.rows[0].r_volume == 1.0
    assert strict.rows[0].n_days == 5
    assert strict.rows[0].policy == POLICY_EXCLUDE_OUTAGES
    assert loose.rows[0].r_volume < 1.0
    assert loose.rows[0].n_days == 6


def test_correlations_use_dates_shared_by_both_market_series():
    counts = [10, 40, 20, 50]
    volume = _market([10.0, 40.0, 20.0, 50.0])
    # Price is missing the last day, so every correlation uses 3 days.
    price = _market([5.0, 6.0, 7.0])
    report = correlation_report([_daily("s", counts)], price, volume)
    row = report.rows[0]
    assert row.n_days == 3
    assert row.r_volume == 1.0
    assert abs(row.r_price - naive_pearson(counts[:3], [5.0, 6.0, 7.0])) < 1e-12


def test_report_json_round_trip():
    rows = [
        ReportRow("twitter", 123, 0.5, None, None, "ConstantSeries", 14, POLICY_ALL_DAYS),
        ReportRow("irc:#x", 7, None, "EmptyOverlap", None, "EmptyOverlap", 0, POLICY_ALL_DAYS),
    ]
    report = CorrelationReport(rows)
    recovered = report_from_json(io.StringIO(report_to_json(report)))
    assert recovered == report
