"""Metamorphic properties of `run-all`: two runs whose inputs differ in a way
README says cannot matter give the same outputs.

Each property builds a small generated workspace the way `tests/test_fuzz.py`
builds its own (inputs written to a temporary directory that the run works in,
with the config's paths relative to it), runs `run-all` on it and on a
transformed copy, and compares the exit codes, every output file and the
stderr lines.
- Split: a capture split in two at a line boundary changes nothing, as tweet
  ids are deduped run-wide.
- Noise: network and blank lines in a log, and keyword-free tweets with new
  ids in a capture, change only the counters.
- Duplicates: a repeated tweet id with another `created_at`, anywhere after
  its first copy, changes only the counters.
- Window: a window that covers every message day equals no window.
- Outages: `exclude_outages` on series without an outage changes only the
  report's `policy` cell.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coinbuzz.cli import main

START = date(2015, 6, 1)
DAYS = 6
KEYWORDS = ["bitcoin", "#btc"]
# (text, hashtags) that match KEYWORDS, and that do not: "bitcoins" and "btcx" hold a keyword only
# as part of a longer word.
MATCHING = [("Bitcoin up", []), ("to the moon", ["BTC"]), ("bitcoin, bitcoin…", ["x"])]
NOT_MATCHING = [("bitcoins up", []), ("moon", ["btcx"]), ("", [])]
OFFSETS = ["+0000", "-0500", "+0900"]  # a tweet's UTC day can differ from its local one

PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class Workspace(NamedTuple):
    capture: list[str]
    log: list[str]
    price: list[float]
    volume: list[float]


def _tweet(tweet_id: int, day: int, second: int, offset: str, text_tags: tuple[str, list[str]]) -> str:
    text, tags = text_tags
    return json.dumps({
        "id": tweet_id, "created_at": f"Mon Jun {1 + day:02d} 10:00:{second:02d} {offset} 2015",
        "user": {"screen_name": f"u{tweet_id}"}, "text": text, "entities": {"hashtags": [{"text": t} for t in tags]},
    }) + "\n"


def _chat(day: int, second: int, nick: str) -> str:
    hh, mm, ss = second // 3600, second // 60 % 60, second % 60
    return f"[Mon Jun {1 + day} 2015] [{hh:02d}:{mm:02d}:{ss:02d}] <{nick}>\tbitcoin chat\n"


def _market(values: list[float]) -> str:
    return "date,value\n" + "".join(f"{START + timedelta(days=n)},{v}\n" for n, v in enumerate(values))


def _run(ws: Workspace, captures: dict[str, list[str]] | None = None, log: list[str] | None = None,
         **config: object) -> tuple[int, dict[str, bytes], str]:
    """run-all on `ws`, with `captures` (file name -> lines) in place of its one capture, `log` in place
    of its log and `config` over its config: the exit code, each output file by name and stderr."""
    captures = {"cap.jsonl": ws.capture} if captures is None else captures
    files = {name: "".join(lines) for name, lines in captures.items()}
    files.update({
        "chan.log": "".join(ws.log if log is None else log), "price.csv": _market(ws.price),
        "volume.csv": _market(ws.volume), "gaz.tsv": "bitcoin\tcrypto\tcoin\nto the moon\tm\tphrase\n",
        "config.json": json.dumps({
            "out_dir": "out", "tweet_captures": list(captures), "irc_logs": [{"path": "chan.log", "channel": "#c"}],
            "price_csv": "price.csv", "volume_csv": "volume.csv", "gazetteer": "gaz.tsv", "keywords": KEYWORDS,
            "plots": [{"series": "twitter", "metric": "price"}, {"series": "irc:#c", "metric": "volume"}],
            **config,
        }, default=str),
    })
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in files.items():
            (d / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        try:
            # The config's paths are relative, so stderr names the same out_dir in every run.
            os.chdir(d)
            with contextlib.redirect_stderr(err):
                code = main(["run-all", "--config", "config.json"])
        finally:
            os.chdir(cwd)
        outputs = {path.name: path.read_bytes() for path in sorted((d / "out").iterdir())}
    return code, outputs, err.getvalue()


def _counters_masked(run: tuple[int, dict[str, bytes], str]) -> tuple[int, dict[str, bytes], str]:
    code, outputs, err = run
    return code, outputs, re.sub(r"=\d+", "=#", err)


prices = st.lists(st.sampled_from([229.5, 230.0, 231.25, 240.0, 250.5]), min_size=DAYS, max_size=DAYS)
tweets = st.builds(
    _tweet, st.integers(1, 12), st.integers(0, DAYS - 1), st.integers(0, 59), st.sampled_from(OFFSETS),
    st.sampled_from(MATCHING + NOT_MATCHING),
)
chats = st.builds(_chat, st.integers(0, DAYS - 1), st.integers(0, 86399), st.sampled_from(["alice", "bob"]))
# Ids from a small range, so that a capture often repeats one.
workspaces = st.builds(Workspace, st.lists(tweets, max_size=14), st.lists(chats, max_size=14), prices, prices)


def _insert(lines: list[str], extra: list[tuple[int, str]]) -> list[str]:
    """`lines` with each (position, line) of `extra` inserted, positions wrapping at the length."""
    lines = list(lines)
    for at, line in extra:
        lines.insert(at % (len(lines) + 1), line)
    return lines


@PROPERTY
@given(ws=workspaces, data=st.data())
def test_splitting_a_capture_changes_no_output(ws, data):
    at = data.draw(st.integers(0, len(ws.capture)), label="split at")
    split = {"cap1.jsonl": ws.capture[:at], "cap2.jsonl": ws.capture[at:]}
    assert _run(ws, captures=split) == _run(ws)


NETWORK_LINES = ["[Tue Jun 2 2015] [12:00:00] *** Join: bob joined\n", "[Mon Jun 1 2015] [00:00:00] *** Quit: al\n"]


@PROPERTY
@given(
    ws=workspaces,
    log_noise=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(NETWORK_LINES + ["\n", "  \n"])), max_size=4),
    tweet_noise=st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, DAYS - 1), st.sampled_from(NOT_MATCHING)), max_size=4
    ),
)
def test_network_blank_and_keyword_free_lines_change_only_counters(ws, log_noise, tweet_noise):
    # Ids from 100 up are new to the capture.
    extra = [(at, _tweet(100 + n, day, 0, "+0000", text_tags)) for n, (at, day, text_tags) in enumerate(tweet_noise)]
    noisy = _run(ws, captures={"cap.jsonl": _insert(ws.capture, extra)}, log=_insert(ws.log, log_noise))
    assert _counters_masked(noisy) == _counters_masked(_run(ws))


@PROPERTY
@given(ws=workspaces.filter(lambda ws: ws.capture), data=st.data())
def test_a_repeated_id_with_another_timestamp_changes_only_counters(ws, data):
    first = data.draw(st.integers(0, len(ws.capture) - 1), label="first copy")
    record = json.loads(ws.capture[first])
    day, second = data.draw(st.tuples(st.integers(0, DAYS - 1), st.integers(0, 59)), label="new time")
    created_at = f"Mon Jun {1 + day:02d} 10:00:{second:02d} +0000 2015"
    if created_at == record["created_at"]:
        created_at = created_at.replace("10:00", "11:00")
    at = data.draw(st.integers(first + 1, len(ws.capture)), label="copy at")
    copy = json.dumps({**record, "created_at": created_at}) + "\n"
    repeated = _run(ws, captures={"cap.jsonl": ws.capture[:at] + [copy] + ws.capture[at:]})
    assert _counters_masked(repeated) == _counters_masked(_run(ws))


@PROPERTY
@given(ws=workspaces, margins=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_a_window_over_every_message_day_equals_no_window(ws, margins):
    unbounded = _run(ws)
    days = [
        date.fromisoformat(json.loads(line)["ts"][:10])
        for name, data in unbounded[1].items() if name.startswith("messages_")
        for line in data.decode("utf-8").splitlines()
    ] or [START]
    window = {"start": min(days) - timedelta(days=margins[0]), "end": max(days) + timedelta(days=margins[1])}
    assert _run(ws, window=window) == unbounded


def _dense(twitter_counts: list[int], irc_counts: list[int], price: list[float], volume: list[float]) -> Workspace:
    """A workspace whose streams have every day's count in `*_counts`, each at least 1, so that neither
    series holds an outage."""
    capture = [
        _tweet(100 * day + n, day, n, "+0000", MATCHING[n % len(MATCHING)])
        for day, count in enumerate(twitter_counts) for n in range(count)
    ]
    log = [_chat(day, 60 * n, "alice") for day, count in enumerate(irc_counts) for n in range(count)]
    return Workspace(capture, log, price, volume)


counts = st.lists(st.integers(1, 4), min_size=DAYS, max_size=DAYS)


@PROPERTY
@given(ws=st.builds(_dense, counts, counts, prices, prices), fmt=st.sampled_from(["tsv", "markdown"]))
def test_excluding_outages_from_series_without_one_changes_only_the_policy(ws, fmt):
    code, outputs, err = _run(ws, format=fmt)
    excluded_code, excluded, excluded_err = _run(ws, format=fmt, exclude_outages=True)
    assert all(b",outage\n" not in data for name, data in outputs.items() if name.startswith("series_"))
    assert (excluded_code, excluded_err) == (code, err)
    table = "report.md" if fmt == "markdown" else "report.tsv"
    assert excluded.keys() == outputs.keys()
    for name in outputs.keys() - {"report.json", table}:
        assert excluded[name] == outputs[name], name

    rows = json.loads(outputs["report.json"])["rows"]
    excluded_rows = json.loads(excluded["report.json"])["rows"]
    assert [row.pop("policy") for row in rows] == ["all-days"] * len(rows)
    assert [row.pop("policy") for row in excluded_rows] == ["exclude-outages"] * len(rows)
    assert excluded_rows == rows
    lines = outputs[table].decode("utf-8").splitlines()
    excluded_lines = excluded[table].decode("utf-8").splitlines()
    assert [line.replace("exclude-outages", "all-days") for line in excluded_lines] == lines
