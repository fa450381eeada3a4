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
64 KB. `ingest-tweets` runs a second time on a capture that writes each
line's `+0000` in its own mix of non-ASCII zeros, so that a cache keyed by
the offset as written would grow with the lines.

The seen-id set of `ingest-tweets`, which README names as the state that
grows with unique ids, grows by a bounded number of bytes per extra id, and
`ingest_capture` holds those ids at about 8 bytes each. The gazetteer, held
whole by `annotate`, costs about 200 bytes per entry, and reading it from its
file peaks less than 140 bytes per entry above that.

`run-all` meets criterion 8's throughput and RSS gates on its 100 MB corpus,
run as a child process like the shipped command.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
import unicodedata
from datetime import date, timedelta
from pathlib import Path

import pytest
from test_acceptance import PERF_MAX_RSS_KB, PERF_MIN_MBPS

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


# The zeros among Unicode's decimal digits other than "0", which `\d` and int() read as 0.
NON_ASCII_ZEROS = [chr(c) for c in range(0x80, sys.maxunicode + 1) if unicodedata.decimal(chr(c), None) == 0]


def _capture_of_zero_offsets(lines: int) -> str:
    """The `ingest-tweets` capture with line i's `+0000` written in the non-ASCII zeros that spell i in base
    len(NON_ASCII_ZEROS), so that no two lines write their offset alike."""
    base = len(NON_ASCII_ZEROS)
    rows = []
    for i in range(lines):
        zeros = "".join(NON_ASCII_ZEROS[i // base**k % base] for k in range(4))
        rows.append(_tweet(1 + i % BASE_LINES, STREAM_DAYS[i % len(STREAM_DAYS)]).replace("+0000", f"+{zeros}"))
    return "".join(rows)


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
    "ingest-tweets-zero-offsets": (["ingest-tweets", "--in", "cap.jsonl", "--out", "out.jsonl"],
                                   lambda lines: {"cap.jsonl": _capture_of_zero_offsets(lines)}),
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


# The seen-id set is the one state of `ingest-tweets` that README lets grow with its input: an int
# and a set slot per unique id. Here (CPython 3.11) it grew by 97-101 B per extra id between 2,000
# and 8,000 ids; README's 66-70 B per id is for 1M ids, where the set's table is fuller. The bound
# leaves room for a table that has just grown, and a copy of the stage that also kept each message
# it emitted grew by 286 B per id.
ID_GROWTH_BOUND = 160  # bytes per extra unique id


def test_the_seen_id_set_grows_only_by_its_ids(tmp_path, monkeypatch, capsys):
    argv = ["ingest-tweets", "--in", "cap.jsonl", "--out", "out.jsonl"]
    peaks = {}
    for ids in (BASE_LINES, 4 * BASE_LINES):
        workdir = tmp_path / f"ids{ids}"
        workdir.mkdir()
        capture = "".join(_tweet(1 + i, STREAM_DAYS[i % len(STREAM_DAYS)]) for i in range(ids))
        (workdir / "cap.jsonl").write_text(capture, encoding="utf-8")
        monkeypatch.chdir(workdir)
        if ids == BASE_LINES:
            # An untraced run first, so that neither traced run pays for what a first call caches.
            assert main(argv) == 0
        peaks[ids] = _traced_peak(argv)
    per_id = (peaks[4 * BASE_LINES] - peaks[BASE_LINES]) / (3 * BASE_LINES)
    assert per_id < ID_GROWTH_BOUND, f"{per_id:.0f} B per extra id: {peaks[BASE_LINES]:,} -> {peaks[4 * BASE_LINES]:,}"


# `ingest_capture` holds its seen ids in a sorted int64 array beside a set of the ids added since the
# last merge. Here (CPython 3.11) its traced peak grew by 8.7 B per extra id from 20,000 to 80,000
# ascending 18-digit ids; with the ids in a set it grew by 92.6 B.
SEEN_ID_BOUND = 24  # bytes per extra unique id


def _ingest_peak(ids: int) -> int:
    lines = map(_tweet(0, FIRST).replace('"0"', '"%d"').__mod__, range(6 * 10**17, 6 * 10**17 + ids))
    tracemalloc.start()
    try:
        twitter.ingest_capture(lines, lambda msg: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_the_seen_ids_cost_about_8_bytes_each():
    _ingest_peak(100)  # a first run fills the caches, such as the keyword plan and the UTC offset
    small, large = _ingest_peak(20_000), _ingest_peak(80_000)
    per_id = (large - small) / 60_000
    assert per_id < SEEN_ID_BOUND, f"{per_id:.1f} B per extra id: {small:,} -> {large:,}"


# A Gazetteer holds each entry's folded surface, a slot in `entries` and in `prefixes`, and a key in
# `prefixes` per further token end of the surface. Here (CPython 3.11) it held 195 B more per extra
# generated entry from 2,000 to 8,000 entries; with a key per character prefix it held 864 B more.
GAZETTEER_ENTRY_BOUND = 400  # bytes per extra entry


def _gazetteer_held(entries: dict[str, tuple[str, str]]) -> int:
    tracemalloc.start()
    try:
        gazetteer = annotate.Gazetteer(entries)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gazetteer.entries) == len(entries)
    return held


def test_the_gazetteer_costs_about_200_bytes_an_entry():
    rng = random.Random(1)
    letters = "abcdefghijklmnopqrstuvwxyz"

    def entries(count: int) -> dict[str, tuple[str, str]]:
        """`count` distinct surfaces of 1-3 words, each of 3-9 letters, in 8 categories."""
        out: dict[str, tuple[str, str]] = {}
        while len(out) < count:
            words = ("".join(rng.choices(letters, k=rng.randint(3, 9))) for _ in range(rng.randint(1, 3)))
            category = rng.randrange(8)
            out[" ".join(words)] = (f"major{category % 4}", f"minor{category}")
        return out

    small, large = _gazetteer_held(entries(2_000)), _gazetteer_held(entries(8_000))
    per_entry = (large - small) / 6_000
    assert per_entry < GAZETTEER_ENTRY_BOUND, f"{per_entry:.0f} B per extra entry: {small:,} -> {large:,}"


# `Gazetteer.load` reads the whole file before the constructor shares each category's tuple. Reading
# one shared tuple and pair of strings per category peaked here (CPython 3.11) 88 B an entry above
# what the gazetteer held, at 2,000 and 8,000 entries; a fresh tuple per line peaked 199-240 B above.
GAZETTEER_LOAD_PEAK_BOUND = 140  # bytes per entry above what the loaded gazetteer holds


def test_loading_a_gazetteer_peaks_little_above_what_it_holds(tmp_path):
    rng = random.Random(2)
    letters = "abcdefghijklmnopqrstuvwxyz"
    surfaces = set()
    while len(surfaces) < 8_000:
        surfaces.add(" ".join("".join(rng.choices(letters, k=rng.randint(3, 9))) for _ in range(rng.randint(1, 3))))
    lines = [f"{surface}\tmajor{n % 4}\tminor{n % 8}\n" for n, surface in enumerate(sorted(surfaces))]
    path = tmp_path / "gazetteer.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    annotate.Gazetteer.load(path)  # a first run fills the caches, such as the scan pattern's
    tracemalloc.start()
    try:
        gazetteer = annotate.Gazetteer.load(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gazetteer.entries) == len(lines)
    per_entry = (peak - held) / len(lines)
    assert per_entry < GAZETTEER_LOAD_PEAK_BOUND, f"peaked {per_entry:.0f} B an entry above {held:,} B held"


# Runs its arguments as a command and prints the command's exit code and max RSS (KB). A process's
# max RSS also covers the memory of the process that spawned it, up to its exec, so pytest's own
# peak would count; this small launcher spawns the command from a fresh address space instead, and
# wait4 reads that one child's max RSS, where RUSAGE_CHILDREN would count earlier children too.
_LAUNCHER = (
    "import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
    "_, status, usage = os.wait4(pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def test_run_all_meets_criterion_8_on_its_corpus(tmp_path, perf_corpus):
    """Criterion 8's corpus and gates, through `python -m coinbuzz run-all` with a one-entry gazetteer."""
    corpus, corpus_bytes = perf_corpus
    # Criterion 8's corpus spans 2015-06-01 to 2015-06-14.
    market = "date,value\n" + "".join(f"2015-06-{day:02d},{100 + day * day}\n" for day in range(1, 15))
    (tmp_path / "market.csv").write_text(market, encoding="utf-8")
    (tmp_path / "gazetteer.tsv").write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")
    config = {
        "out_dir": str(tmp_path / "out"), "tweet_captures": [str(corpus)],
        "price_csv": str(tmp_path / "market.csv"), "volume_csv": str(tmp_path / "market.csv"),
        "gazetteer": str(tmp_path / "gazetteer.tsv"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [sys.executable, "-m", "coinbuzz", "run-all", "--config", str(tmp_path / "config.json")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    started = time.perf_counter()
    launched = subprocess.run(
        [sys.executable, "-S", "-c", _LAUNCHER, *argv],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True, check=True,
    )
    elapsed = time.perf_counter() - started
    code, max_rss_kb = map(int, launched.stdout.split()[-2:])
    assert code == 0
    mbps = corpus_bytes / (1024 * 1024) / elapsed
    assert mbps >= PERF_MIN_MBPS, f"only {mbps:.2f} MB/s through run-all"
    assert max_rss_kb < PERF_MAX_RSS_KB, f"peak RSS {max_rss_kb} KB"
    # About 270 MB of outputs, which pytest would keep with its last runs' temporary directories.
    shutil.rmtree(tmp_path / "out")
