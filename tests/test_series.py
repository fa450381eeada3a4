from __future__ import annotations

import io
import random
import statistics
from datetime import date, datetime, timedelta, timezone

import pytest

from coinbuzz.message import Message
from coinbuzz.series import (
    DailyCounter,
    DailySeries,
    EmptyOverlap,
    Flag,
    align,
    detect_gaps,
    load_market_csv,
    read_daily_csv,
    write_daily_csv,
)


def _msg(day: date, second: int = 0) -> Message:
    ts = datetime(day.year, day.month, day.day, 12, 0, second, tzinfo=timezone.utc)
    return Message("s", ts, "author", "text")


def _bucket(messages: list[Message]) -> DailySeries:
    counter = DailyCounter()
    for message in messages:
        counter.add(message)
    return counter.build("s")


def _series(counts: list[int], start: date = date(2015, 6, 1)) -> DailySeries:
    days = {start + timedelta(days=i): c for i, c in enumerate(counts)}
    return DailySeries("s", days, {d: Flag.OK for d in days})


# --- bucketing ---------------------------------------------------------------

def test_bucket_fills_interior_dates_with_zero():
    messages = [_msg(date(2015, 6, 1), s) for s in range(3)] + [_msg(date(2015, 6, 3))]
    series = _bucket(messages)
    assert list(series.days()) == [
        (date(2015, 6, 1), 3, Flag.OK),
        (date(2015, 6, 2), 0, Flag.OK),
        (date(2015, 6, 3), 1, Flag.OK),
    ]


def test_bucket_empty_stream():
    series = DailyCounter().build("s")
    assert series.counts == {}
    assert series.total() == 0


def test_bucket_matches_generator_tally():
    rng = random.Random(99)
    start = date(2015, 6, 1)
    tally: dict[date, int] = {}
    messages = []
    for _ in range(10_000):
        day = start + timedelta(days=rng.randint(0, 29))
        tally[day] = tally.get(day, 0) + 1
        messages.append(_msg(day, rng.randint(0, 59)))
    rng.shuffle(messages)
    series = _bucket(messages)
    for day, count in tally.items():
        assert series.counts[day] == count
    assert series.total() == 10_000


def test_bucket_conserves_message_count():
    messages = [_msg(date(2015, 6, 1))] * 4 + [_msg(date(2015, 6, 9))]
    series = _bucket(messages)
    assert series.total() == len(messages)
    assert len(list(series.days())) == 9  # interior days add only zeros


# --- gap detection -----------------------------------------------------------

def test_zero_count_day_is_an_outage():
    flagged = detect_gaps(_series([100, 100, 100, 0, 100]))
    assert flagged.flags[date(2015, 6, 4)] is Flag.OUTAGE
    assert len(flagged.outage_dates()) == 1


def test_below_threshold_day_is_an_outage():
    flagged = detect_gaps(_series([100, 100, 100, 5, 100]), theta=0.1)
    assert flagged.flags[date(2015, 6, 4)] is Flag.OUTAGE


def test_gradual_decline_is_not_flagged():
    counts = [100, 95, 89, 84, 78, 73, 67, 61, 56, 50]
    flagged = detect_gaps(_series(counts))
    assert flagged.outage_dates() == set()
    # Scripted oracle: replay the rolling median by hand.
    history: list[int] = []
    for count in counts:
        if history:
            assert count >= 0.1 * statistics.median(history[-7:])
        history.append(count)


def test_outage_days_do_not_poison_the_median():
    # The zero day must be excluded from history, so day 5 stays healthy.
    flagged = detect_gaps(_series([100, 100, 100, 0, 100, 100]))
    assert flagged.outage_dates() == {date(2015, 6, 4)}


def test_first_day_zero_is_flagged_without_history():
    flagged = detect_gaps(_series([0, 10, 10]))
    assert flagged.flags[date(2015, 6, 1)] is Flag.OUTAGE


def test_detect_gaps_never_flags_above_threshold():
    rng = random.Random(5)
    counts = [rng.randint(0, 200) for _ in range(60)]
    flagged = detect_gaps(_series(counts), theta=0.2, k=5)
    healthy: list[int] = []
    for i, count in enumerate(counts):
        day = date(2015, 6, 1) + timedelta(days=i)
        expected_outage = count == 0 or (
            bool(healthy) and count < 0.2 * statistics.median(healthy[-5:])
        )
        assert (flagged.flags[day] is Flag.OUTAGE) == expected_outage
        if not expected_outage:
            healthy.append(count)


def test_detect_gaps_is_pure_and_deterministic():
    base = _series([50, 50, 0, 50])
    first = detect_gaps(base)
    second = detect_gaps(base)
    assert first.flags == second.flags
    assert base.flags[date(2015, 6, 3)] is Flag.OK  # input untouched


def test_detect_gaps_parameter_validation():
    with pytest.raises(ValueError):
        detect_gaps(_series([1]), theta=0.0)
    with pytest.raises(ValueError):
        detect_gaps(_series([1]), theta=1.0)
    with pytest.raises(ValueError):
        detect_gaps(_series([1]), k=0)


# --- market CSV --------------------------------------------------------------

def test_load_market_csv_two_rows():
    src = io.StringIO("date,value\n2015-06-02,240.5\n2015-06-01,230.0\n")
    series = load_market_csv(src)
    assert list(series) == [date(2015, 6, 1), date(2015, 6, 2)]
    assert series[date(2015, 6, 2)] == 240.5


# Each dated-CSV fault is a ValueError, told apart by the start of its message.
MALFORMED_ROW, DUPLICATE_DATE, NEGATIVE_VALUE = r"^row \d+: ", "^duplicate date ", "^negative value "


def test_load_market_csv_rejects_duplicate_date():
    src = io.StringIO("date,value\n2015-06-01,1\n2015-06-01,2\n")
    with pytest.raises(ValueError, match=DUPLICATE_DATE):
        load_market_csv(src)


def test_load_market_csv_rejects_negative_value():
    src = io.StringIO("date,value\n2015-06-01,-3\n")
    with pytest.raises(ValueError, match=NEGATIVE_VALUE):
        load_market_csv(src)


# Both dated-CSV readers share one reader of rows; each case is given to the
# reader whose header it carries. A market case's id is its payload.
MARKET_FAULTS = [
    ("wrong,header\n2015-06-01,1\n", MALFORMED_ROW),
    ("date,value\nnot-a-date,1\n", MALFORMED_ROW),
    ("date,value\n2015-06-01,abc\n", MALFORMED_ROW),
    ("date,value\n2015-06-01,nan\n", MALFORMED_ROW),
    ("date,value\n2015-06-01,1,extra\n", MALFORMED_ROW),
    ("", MALFORMED_ROW),
    ("date,value\n2015-06-01,1\n\n2015-06-01,2\n", DUPLICATE_DATE),
    ("date,value\n2015-06-01,1\n2015-06-02,-0.5\n", NEGATIVE_VALUE),
]
DAILY_FAULTS = [
    ("wrong,header,row\n2015-06-01,1,ok\n", MALFORMED_ROW),
    ("date,count,flag\nnot-a-date,1,ok\n", MALFORMED_ROW),
    ("date,count,flag\n2015-06-01,1.5,ok\n", MALFORMED_ROW),
    ("date,count,flag\n2015-06-01,1,maybe\n", MALFORMED_ROW),
    ("date,count,flag\n2015-06-01,1,ok,extra\n", MALFORMED_ROW),
    ("", MALFORMED_ROW),
    ("date,count,flag\n2015-06-01,1,ok\n\n2015-06-01,2,ok\n", DUPLICATE_DATE),
    ("date,count,flag\n2015-06-01,1,ok\n2015-06-02,-5,ok\n", NEGATIVE_VALUE),
]


@pytest.mark.parametrize(
    "read, payload, error",
    [pytest.param(load_market_csv, payload, error, id=payload) for payload, error in MARKET_FAULTS]
    + [pytest.param(read_daily_csv, payload, error, id=f"daily:{payload}") for payload, error in DAILY_FAULTS],
)
def test_load_market_csv_rejects_malformed_rows(read, payload, error):
    with pytest.raises(ValueError, match=error):
        read(io.StringIO(payload))


# --- align -------------------------------------------------------------------

def _datemap(start: date, values: list[float]) -> dict[date, float]:
    return {start + timedelta(days=i): v for i, v in enumerate(values)}


def _aligned(series: DailySeries, market: dict[date, float], **kwargs) -> tuple[list, list, list]:
    """`align`'s rows as the paired vectors and dates of a join."""
    rows = align(series, market, **kwargs)
    return [float(count) for _, count, _, _ in rows], [value for *_, value in rows], [day for day, *_ in rows]


def test_align_needs_three_shared_dates():
    a = DailySeries("s", _datemap(date(2015, 6, 1), [1, 2, 3]))
    b = _datemap(date(2015, 6, 2), [4, 5, 6])
    with pytest.raises(EmptyOverlap) as err:
        align(a, b)
    assert err.value.overlap == 2


def test_align_excludes_outage_dates():
    a = _series(list(range(10)))
    b = _datemap(date(2015, 6, 1), list(range(10, 20)))
    x, y, days = _aligned(a, b, exclude={date(2015, 6, 5)})
    assert len(x) == len(y) == len(days) == 9
    assert date(2015, 6, 5) not in days
    # The same day dropped by its flag instead of by its date.
    a.flags[date(2015, 6, 5)] = Flag.OUTAGE
    assert _aligned(a, b, exclude_outages=True) == (x, y, days)


def test_align_matches_brute_force_intersection():
    rng = random.Random(17)
    base = date(2015, 6, 1)
    for _ in range(100):
        # A series holds every day of its span here, so its span is its day set.
        first = rng.randint(0, 30)
        a = {base + timedelta(days=first + i): rng.random() for i in range(rng.randint(0, 20))}
        b = {base + timedelta(days=rng.randint(0, 30)): rng.random() for _ in range(rng.randint(0, 20))}
        exclude = {base + timedelta(days=rng.randint(0, 30)) for _ in range(rng.randint(0, 4))}
        expected = sorted(d for d in set(a) & set(b) if d not in exclude)
        if len(expected) < 3:
            with pytest.raises(EmptyOverlap):
                align(DailySeries("s", a), b, exclude)
            continue
        x, y, days = _aligned(DailySeries("s", a), b, exclude=exclude)
        assert days == expected
        assert len(x) == len(y) == len(days) <= min(len(a), len(b))
        assert x == [a[d] for d in days]
        assert y == [b[d] for d in days]


# --- daily CSV ---------------------------------------------------------------

def test_daily_csv_round_trip():
    series = detect_gaps(_series([10, 0, 30]))
    out = io.StringIO()
    write_daily_csv(series, out)
    text = out.getvalue()
    assert text.splitlines()[0] == "date,count,flag"
    assert "2015-06-02,0,outage" in text
    recovered = read_daily_csv(io.StringIO(text), "s")
    assert recovered.counts == series.counts
    assert recovered.flags == series.flags
    assert recovered.stream_id == "s"


def test_read_daily_csv_rejects_bad_header():
    with pytest.raises(ValueError, match=MALFORMED_ROW):
        read_daily_csv(io.StringIO("nope\n"), "s")


def test_read_daily_csv_rejects_duplicate_date():
    payload = "date,count,flag\n2015-06-01,1,ok\n2015-06-01,2,ok\n"
    with pytest.raises(ValueError, match=DUPLICATE_DATE):
        read_daily_csv(io.StringIO(payload), "s")


def test_read_daily_csv_fills_interior_holes():
    payload = "date,count,flag\n2015-06-01,5,ok\n2015-06-04,7,ok\n"
    series = read_daily_csv(io.StringIO(payload), "s")
    assert [count for _, count, _ in series.days()] == [5, 0, 0, 7]
    assert list(series.days([date(2015, 6, 2)])) == [(date(2015, 6, 2), 0, Flag.OK)]
