"""Time grows linearly with the input where a stage once grew faster.

Each case runs at n and at 4n and compares the best of three
`time.process_time` readings: linear growth gives a ratio near 4, quadratic
near 16, and the bound is 8.

- `gaps` keeps its window of healthy days sorted as days enter and leave it,
  where it sorted the whole window for every day (O(n * k log k), here with
  k = n / 8).
- `run-all` checks each plot of its config against sets of the streams and
  of the plots before it, where it scanned lists of both.
- The streaming ingest of tweets and IRC lines keeps bounded per-day caches
  and a seen-id array that it merges now and then; each line here falls on
  a day of its own, so every per-day cache misses.
- `sanitize_stream` scrubs each line with one pattern pass, on many short
  lines and on one line of many escapes, valid, ASCII-range and bare ones.
- `aggregate` (through `cli.main`, as the subcommand runs) reads each
  message, counts it by its day and writes the daily CSV; each message
  falls on a day of its own, so the counter and the CSV grow with it.
- `run_pipeline(...).to_json()` reads the ids and offsets below 1,024 from a
  table and formats the rest with `str`; one document of n tokens, with n
  past the table, takes both.
- The tokenizer finds each "://" once and reads the run of scheme
  characters before it once, where a URL pattern tried at every match start
  rescanned the rest of a run of scheme characters (O(n^2) in the run).
"""

from __future__ import annotations

import io
import json
import random
import time
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import pytest

from coinbuzz import irc, run_all, series, twitter
from coinbuzz.annotate import Document, Gazetteer, run_pipeline
from coinbuzz.cli import main
from coinbuzz.message import MONTH_BY_ABBREV
from coinbuzz.sanitize import sanitize_stream

GROWTH_BOUND = 8


def _best_of_3(run: Callable[[], object]) -> float:
    times = []
    for _ in range(3):
        started = time.process_time()
        run()
        times.append(time.process_time() - started)
    return min(times)


def _growth(case: Callable[[int], Callable[[], object]], n: int) -> float:
    small, large = case(n), case(4 * n)
    small()  # fills the caches a first run fills
    return _best_of_3(large) / _best_of_3(small)


def _gaps(n: int) -> Callable[[], object]:
    rng = random.Random(n)
    counts = {date(2000, 1, 1) + timedelta(days=i): rng.randint(1, 1000) for i in range(n)}
    daily = series.DailySeries("s", counts)
    return lambda: series.detect_gaps(daily, 0.1, n // 8)


def test_gaps_grows_linearly_with_its_days():
    ratio = _growth(_gaps, 4_000)
    assert ratio < GROWTH_BOUND, f"4x the days took {ratio:.1f}x the time"


def test_run_all_config_check_grows_linearly_with_its_plots(tmp_path):
    def case(plots: int) -> Callable[[], object]:
        channels = [f"#c{i}" for i in range(plots // 2)]
        config = {
            "price_csv": "price.csv", "volume_csv": "volume.csv",
            "irc_logs": [{"path": "chat.log", "channel": channel} for channel in channels],
            "plots": [{"series": f"irc:{channel}", "metric": m} for channel in channels for m in ("price", "volume")],
        }
        path = tmp_path / f"config_{plots}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return lambda: run_all._load_config(Path(path))

    ratio = _growth(case, 2_000)
    assert ratio < GROWTH_BOUND, f"4x the plots took {ratio:.1f}x the time"


def _days(n: int) -> list[tuple[str, int, int]]:
    """(month abbreviation, day, year) of n consecutive days."""
    months = list(MONTH_BY_ABBREV)
    days = (date(1990, 1, 1) + timedelta(days=i) for i in range(n))
    return [(months[day.month - 1], day.day, day.year) for day in days]


def test_ingest_capture_grows_linearly_with_its_lines():
    def case(n: int) -> Callable[[], object]:
        lines = [
            json.dumps({"id": 10**17 + i, "created_at": f"Mon {mon} {day:02d} 10:00:00 -0500 {year}",
                        "user": {"screen_name": "u"}, "text": f"bitcoin {i}"})
            for i, (mon, day, year) in enumerate(_days(n))
        ]
        return lambda: twitter.ingest_capture(lines, lambda msg: None)

    ratio = _growth(case, 2_000)
    assert ratio < GROWTH_BOUND, f"4x the tweets took {ratio:.1f}x the time"


@pytest.mark.parametrize("tz", ["UTC", "America/New_York"])
def test_ingest_log_grows_linearly_with_its_lines(tz):
    def case(n: int) -> Callable[[], object]:
        lines = [f"[Mon {mon} {day} {year}] [10:00:00] <alice>\tbitcoin\n" for mon, day, year in _days(n)]
        return lambda: irc.ingest_log(lines, lambda msg: None, "#bitcoin", tz=tz)

    ratio = _growth(case, 4_000)
    assert ratio < GROWTH_BOUND, f"4x the log lines took {ratio:.1f}x the time"


# A valid escape, an ASCII-range one, a bare prefix, a surrogate pair and plain text, as capture lines hold them.
ESCAPES = (rb"\u00e9", rb"\u0041", rb"\u12", rb"\ud83d\ude00", b"bitcoin ")


@pytest.mark.parametrize("shape", ["lines", "one line"])
def test_sanitize_stream_grows_linearly_with_its_input(shape):
    def case(n: int) -> Callable[[], object]:
        rng = random.Random(n)
        if shape == "lines":
            lines = [b'{"text": "' + b"".join(rng.choices(ESCAPES, k=4)) + b'"}\n' for _ in range(n)]
        else:
            lines = [b'{"text": "' + b"".join(rng.choices(ESCAPES, k=n)) + b'"}\n']
        return lambda: sanitize_stream(lines, io.BytesIO())

    ratio = _growth(case, 20_000)
    assert ratio < GROWTH_BOUND, f"4x the input took {ratio:.1f}x the time"


def test_aggregate_grows_linearly_with_its_messages(tmp_path, capsys):
    def case(n: int) -> Callable[[], object]:
        path = tmp_path / f"messages_{n}.jsonl"
        with path.open("w", encoding="utf-8") as out:
            for i in range(n):
                day = date(1990, 1, 1) + timedelta(days=i)
                out.write(json.dumps({"stream_id": "twitter", "ts": f"{day}T10:00:00Z", "author": "u",
                                      "text": f"bitcoin {i}"}) + "\n")
        argv = ["aggregate", "--in", str(path), "--out", str(tmp_path / f"daily_{n}.csv")]
        return lambda: main(argv)

    ratio = _growth(case, 5_000)
    assert ratio < GROWTH_BOUND, f"4x the messages took {ratio:.1f}x the time"


def test_annotate_grows_linearly_with_its_tokens():
    gazetteer = Gazetteer(
        {"bitcoin": ("crypto", "coin"), "bitcoin cash": ("crypto", "coin"), "#btc": ("crypto", "tag")}
    )
    words = ("bitcoin", "cash", "to", "the", "moon", "#btc", "@al", "http://x.io/a", "!")

    def case(n: int) -> Callable[[], object]:
        rng = random.Random(n)
        doc = Document("d", " ".join(rng.choices(words, k=n)))
        return lambda: run_pipeline(doc, gazetteer).to_json()

    ratio = _growth(case, 5_000)
    assert ratio < GROWTH_BOUND, f"4x the tokens took {ratio:.1f}x the time"


# Runs of URL scheme characters that no "://" follows, and runs that end at a character no scheme
# holds before a "://", each one piece. A tokenizer that tries a URL at every match start rescans
# the rest of the run from each of them: 4x the run took 13-14x the time.
@pytest.mark.parametrize(
    "text",
    [lambda n: "a." * n, lambda n: "a." * n + "_b://x", lambda n: "a-" * n + "\u00e9://x"],
    ids=["no-scheme", "underscore-before-scheme", "letter-before-scheme"],
)
def test_tokenizing_grows_linearly_with_a_run_of_scheme_characters(text):
    # Building it tokenizes each surface, URLs among them.
    gazetteer = Gazetteer({"a.a": ("x", "y"), "b://x": ("url", "x"), "a.b://x": ("url", "x")})

    def case(n: int) -> Callable[[], object]:
        doc = Document("d", text(n))
        return lambda: run_pipeline(doc, gazetteer).to_json()

    ratio = _growth(case, 5_000)
    assert ratio < GROWTH_BOUND, f"4x the run took {ratio:.1f}x the time"
