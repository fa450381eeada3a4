"""Memory stays bounded in the shipped stages.

The series stages hold what their input holds, not the days of its span.
Each of those cases runs one command in-process through `cli.main` under
`tracemalloc` on inputs of two or three dated rows whose dates lie 40,000
days apart, and bounds the traced peak. A series that held every day of that
span took 4.4 to 9.2 MB here (CPython 3.11); the days it lacks are written,
not held.

The streaming stages hold nothing that grows with their input: `parse-irc`,
`annotate`, `aggregate`, `ingest-tweets` and `run-all` each run in-process
under `tracemalloc` on about 2,000 lines and on 4 times that, over the same
days, ids and gazetteer, and the 4x peak may exceed the 1x peak by less than
64 KB.

`run-all` meets criterion 8's throughput and RSS gates on its 100 MB corpus,
run as a child process like the shipped command.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import pytest
from test_acceptance import PERF_MAX_RSS_KB, PERF_MIN_MBPS, _write_perf_corpus

# The stage modules are imported here, so that `cli.main` imports none of them under the trace.
from coinbuzz import annotate, irc, message, sanitize, series, stats, twitter  # noqa: F401
from coinbuzz.cli import main

FIRST = date(2015, 6, 1)
LAST = FIRST + timedelta(days=40_000)
PEAK_BOUND = 2_000_000  # bytes

MESSAGE = {"stream_id": "twitter", "author": "a", "text": "bitcoin"}


def _tweet(tweet_id: int, day: date) -> str:
    created_at = f"{day:%a %b %d} 10:00:00 +0000 {day.year}"
    record = {"id_str": str(tweet_id), "created_at": created_at, "user": {"screen_name": "a"}, "text": "bitcoin"}
    return json.dumps(record) + "\n"


def _workspace(tmp_path):
    """Inputs whose dates span LAST - FIRST days, with a market of the first three."""
    files = {
        "daily.csv": f"date,count,flag\n{FIRST},5,ok\n{FIRST + timedelta(days=2)},4,ok\n{LAST},7,ok\n",
        "msgs.jsonl": "".join(
            json.dumps({**MESSAGE, "ts": f"{day}T10:00:00Z"}) + "\n" for day in (FIRST, FIRST, LAST)
        ),
        "cap.jsonl": _tweet(1, FIRST) + _tweet(2, FIRST + timedelta(days=2)) + _tweet(3, LAST),
        "price.csv": "date,value\n" + "".join(f"{FIRST + timedelta(days=i)},{230 + i * i}\n" for i in range(3)),
        "volume.csv": "date,value\n" + "".join(f"{FIRST + timedelta(days=i)},{40 + 3 * i}\n" for i in range(3)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    config = {
        "out_dir": str(tmp_path / "out"), "tweet_captures": [str(tmp_path / "cap.jsonl")],
        "price_csv": str(tmp_path / "price.csv"), "volume_csv": str(tmp_path / "volume.csv"),
        "plots": [{"series": "twitter", "metric": "volume"}],
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")


CASES = {
    "gaps": (["gaps", "--in", "daily.csv", "--out", "flagged.csv"], 0),
    "aggregate": (["aggregate", "--in", "msgs.jsonl", "--out", "daily_out.csv"], 0),
    "correlate": (["correlate", "--series", "twitter=daily.csv", "--price", "price.csv", "--volume", "volume.csv",
                   "--exclude-outages", "--out", "report.json"], 0),
    "plot-series": (["plot-series", "--series", "daily.csv", "--market", "volume.csv", "--out", "plot.csv"], 0),
    "run-all": (["run-all", "--config", "config.json"], 0),
}


@pytest.mark.parametrize("argv, code", CASES.values(), ids=CASES.keys())
def test_series_stage_peak_is_bounded_by_its_input(tmp_path, monkeypatch, capsys, argv, code):
    _workspace(tmp_path)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        assert main(argv) == code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND, f"{argv[0]} peaked at {peak:,} bytes"


def test_the_span_is_written_whole(tmp_path, monkeypatch):
    """The bound holds with every day of the span still in the daily CSV."""
    _workspace(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(CASES["gaps"][0]) == 0
    rows = (tmp_path / "flagged.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + (LAST - FIRST).days + 1
    assert rows[-1] == f"{LAST},7,ok"


BASE_LINES = 2_000
GROWTH_BOUND = 64 * 1024  # bytes
# The days every streaming input spreads its lines over, at any scale.
STREAM_DAYS = [FIRST + timedelta(days=i) for i in range(10)]


def _irc_log(lines: int) -> str:
    rows = []
    for i in range(lines):
        day, second = STREAM_DAYS[i % len(STREAM_DAYS)], i % 86_400
        stamp = f"[{day:%a %b} {day.day} {day.year}] [{second // 3600:02d}:{second // 60 % 60:02d}:{second % 60:02d}]"
        rows.append(f"{stamp} <nick{i % 50}>\tbitcoin to the moon {i}\n")
    return "".join(rows)


def _messages(lines: int) -> str:
    return "".join(
        json.dumps({**MESSAGE, "ts": f"{STREAM_DAYS[i % len(STREAM_DAYS)]}T10:00:00Z",
                    "text": f"Bitcoin to the moon #btc @al http://x.io/{i}"}) + "\n"
        for i in range(lines)
    )


def _run_all_inputs(lines: int) -> dict[str, str]:
    """A capture that repeats the ids of its first BASE_LINES tweets and an IRC log, each with one more
    message on three of the days (equal daily counts leave r undefined), a one-entry gazetteer, a
    ten-day market and one plot."""
    config = {
        "out_dir": "out", "tweet_captures": ["cap.jsonl"], "irc_logs": [{"path": "chan.log", "channel": "#c"}],
        "gazetteer": "gaz.tsv", "price_csv": "price.csv", "volume_csv": "volume.csv",
        "plots": [{"series": "twitter", "metric": "volume"}],
    }
    capture = [_tweet(1 + i % BASE_LINES, STREAM_DAYS[i % len(STREAM_DAYS)]) for i in range(lines)]
    capture += [_tweet(BASE_LINES + 1 + i, STREAM_DAYS[i]) for i in range(3)]
    return {
        "cap.jsonl": "".join(capture), "chan.log": _irc_log(lines) + _irc_log(3), "gaz.tsv": "bitcoin\tcrypto\tcoin\n",
        "price.csv": "date,value\n" + "".join(f"{day},{230 + i * i}\n" for i, day in enumerate(STREAM_DAYS)),
        "volume.csv": "date,value\n" + "".join(f"{day},{40 + 3 * i}\n" for i, day in enumerate(STREAM_DAYS)),
        "config.json": json.dumps(config),
    }


# Each stage's argv and its inputs at a number of lines. The capture repeats
# the ids of its first BASE_LINES tweets, so the seen-id set does not grow.
STREAM_CASES = {
    "parse-irc": (["parse-irc", "--channel", "#c", "--in", "chan.log", "--out", "out.jsonl"],
                  lambda lines: {"chan.log": _irc_log(lines)}),
    "annotate": (["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl", "--out", "out.jsonl"],
                 lambda lines: {"msgs.jsonl": _messages(lines), "gaz.tsv": "bitcoin\tcrypto\tcoin\n"}),
    "aggregate": (["aggregate", "--in", "msgs.jsonl", "--out", "out.csv"],
                  lambda lines: {"msgs.jsonl": _messages(lines)}),
    "ingest-tweets": (["ingest-tweets", "--in", "cap.jsonl", "--out", "out.jsonl"],
                      lambda lines: {"cap.jsonl": "".join(
                          _tweet(1 + i % BASE_LINES, STREAM_DAYS[i % len(STREAM_DAYS)]) for i in range(lines)
                      )}),
    "run-all": (["run-all", "--config", "config.json"], _run_all_inputs),
}


def _traced_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("argv, inputs", STREAM_CASES.values(), ids=STREAM_CASES.keys())
def test_streaming_stage_peak_does_not_grow_with_its_input(tmp_path, monkeypatch, capsys, argv, inputs):
    peaks = {}
    for scale in (1, 4):
        workdir = tmp_path / f"x{scale}"
        workdir.mkdir()
        for name, text in inputs(BASE_LINES * scale).items():
            (workdir / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(workdir)
        if scale == 1:
            # An untraced run first, so that neither traced run pays for what a first call caches.
            assert main(argv) == 0
        peaks[scale] = _traced_peak(argv)
    assert peaks[4] - peaks[1] < GROWTH_BOUND, f"{argv[0]} peaked at {peaks[1]:,} bytes at 1x, {peaks[4]:,} at 4x"


def test_run_all_meets_criterion_8_on_its_corpus(tmp_path):
    """Criterion 8's corpus and gates, through `python -m coinbuzz run-all` with a one-entry gazetteer."""
    corpus_bytes = _write_perf_corpus(tmp_path / "corpus.jsonl")
    # Criterion 8's corpus spans 2015-06-01 to 2015-06-14.
    market = "date,value\n" + "".join(f"2015-06-{day:02d},{100 + day * day}\n" for day in range(1, 15))
    (tmp_path / "market.csv").write_text(market, encoding="utf-8")
    (tmp_path / "gazetteer.tsv").write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")
    config = {
        "out_dir": str(tmp_path / "out"), "tweet_captures": [str(tmp_path / "corpus.jsonl")],
        "price_csv": str(tmp_path / "market.csv"), "volume_csv": str(tmp_path / "market.csv"),
        "gazetteer": str(tmp_path / "gazetteer.tsv"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [sys.executable, "-m", "coinbuzz", "run-all", "--config", str(tmp_path / "config.json")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    started = time.perf_counter()
    # wait4 reads this one child's max RSS; RUSAGE_CHILDREN would count earlier tests' children too.
    pid = os.posix_spawn(sys.executable, argv, dict(os.environ, PYTHONPATH=src))
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - started
    assert os.waitstatus_to_exitcode(status) == 0
    mbps = corpus_bytes / (1024 * 1024) / elapsed
    assert mbps >= PERF_MIN_MBPS, f"only {mbps:.2f} MB/s through run-all"
    assert usage.ru_maxrss < PERF_MAX_RSS_KB, f"peak RSS {usage.ru_maxrss} KB"
    # About 370 MB of corpus and outputs, which pytest would keep with its last runs' temporary directories.
    shutil.rmtree(tmp_path / "out")
    (tmp_path / "corpus.jsonl").unlink()
