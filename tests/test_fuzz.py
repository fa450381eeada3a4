"""No input yields a traceback.

Each file-driven subcommand and `run-all` runs in-process through `cli.main`
on valid inputs that Hypothesis mutates byte by byte: truncations, deletions,
invalid UTF-8, lone surrogate escapes, NUL and `\\r`, numbers past the range
of a float or of C sizes, deep JSON nesting and dates at the edges of
`datetime`'s range. Whatever the bytes, the exit code is 0, 1 or 2, no
exception leaves `main`, no `.partial` file is left, exit 2 leaves no output
file, and every `coinbuzz: error:` line is short.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coinbuzz.cli import main

# Uneven daily counts over the market's four days, so that the seeds themselves exit 0.
CAPTURE = "".join(
    json.dumps({
        "id": n, "created_at": f"Mon Jun 0{day} 10:00:0{n} +0000 2015", "user": {"screen_name": f"u{n}"},
        "text": f"Bitcoin up {n} …", "entities": {"hashtags": [{"text": "btc"}]},
    }) + "\n"
    for n, day in enumerate([1, 1, 2, 3, 4], start=1)
)
IRC_LOG = (
    "[Mon Jun 1 2015] [00:03:12] <alice>\tbitcoin is moving\n"
    "[Mon Jun 1 2015] [00:04:00] *** Join: bob joined\n"
    "[Tue Jun 2 2015] [23:59:59] <bob>\tprice\n"
    "[Wed Jun 3 2015] [10:00:00] <bob>\tup\n"
    "[Wed Jun 3 2015] [10:00:01] <carol>\tdown\n"
    "[Wed Jun 3 2015] [10:00:02] <alice>\tflat\n"
    "[Thu Jun 4 2015] [12:00:00] <carol>\tbitcoin\n"
)
MESSAGES = "".join(
    json.dumps({"stream_id": "twitter", "ts": f"2015-06-0{day}T10:00:00Z", "author": "a", "text": f"#btc bitcoin {day}"})
    + "\n"
    for day in (1, 1, 2, 3, 5)
)
DAILY = "date,count,flag\n2015-06-01,5,ok\n2015-06-02,3,ok\n2015-06-03,0,outage\n2015-06-04,9,ok\n"
PRICE = "date,value\n2015-06-01,230.5\n2015-06-02,231\n2015-06-03,229.25\n2015-06-04,240\n"
VOLUME = "date,value\n2015-06-01,40\n2015-06-02,50.5\n2015-06-03,61\n2015-06-04,55\n"
GAZETTEER = "bitcoin\tcrypto\tcoin\nbitcoin cash\tcrypto\tfork\n"
REPORT = json.dumps({"rows": [
    {"stream_id": "twitter", "total_messages": 17, "r_volume": 0.5, "r_volume_error": None, "r_price": None,
     "r_price_error": "ConstantSeries", "n_days": 4, "policy": "all-days"},
]})
# Relative paths, read from the temporary directory that each run works in: a mutation
# of the config can rename a file, but never point outside that directory.
CONFIG = json.dumps({
    "out_dir": "out", "tweet_captures": ["cap.jsonl"], "irc_logs": [{"path": "chan.log", "channel": "#c", "tz": "UTC"}],
    "price_csv": "price.csv", "volume_csv": "volume.csv", "gazetteer": "gaz.tsv", "window": {
        "start": "2015-06-01", "end": "2015-06-30"}, "theta": 0.1, "k": 7, "keywords": ["bitcoin", "#btc"],
    "plots": [{"series": "twitter", "metric": "price"}, {"series": "irc:#c", "metric": "volume"}],
})

# Each case: its inputs, and its argv given the directory that holds them.
CASES = {
    "parse-irc": ({"chan.log": IRC_LOG}, lambda d: ["parse-irc", "--channel", "#c", "--in", d / "chan.log", "--out", d / "o"]),
    "ingest-tweets": ({"cap.jsonl": CAPTURE}, lambda d: ["ingest-tweets", "--in", d / "cap.jsonl", "--out", d / "o"]),
    "annotate": ({"msgs.jsonl": MESSAGES, "gaz.tsv": GAZETTEER},
                 lambda d: ["annotate", "--in", d / "msgs.jsonl", "--gazetteer", d / "gaz.tsv", "--out", d / "o"]),
    "aggregate": ({"msgs.jsonl": MESSAGES}, lambda d: ["aggregate", "--in", d / "msgs.jsonl", "--out", d / "o"]),
    "gaps": ({"daily.csv": DAILY}, lambda d: ["gaps", "--in", d / "daily.csv", "--out", d / "o"]),
    "correlate": ({"daily.csv": DAILY, "price.csv": PRICE, "volume.csv": VOLUME},
                  lambda d: ["correlate", "--series", f"s={d / 'daily.csv'}", "--price", d / "price.csv",
                             "--volume", d / "volume.csv", "--exclude-outages", "--out", d / "o"]),
    "report": ({"report.json": REPORT}, lambda d: ["report", "--in", d / "report.json", "--format", "markdown",
                                                   "--out", d / "o"]),
    "plot-series": ({"daily.csv": DAILY, "volume.csv": VOLUME},
                    lambda d: ["plot-series", "--series", d / "daily.csv", "--market", d / "volume.csv", "--out", d / "o"]),
    "run-all": ({"config.json": CONFIG, "cap.jsonl": CAPTURE, "chan.log": IRC_LOG, "price.csv": PRICE,
                 "volume.csv": VOLUME, "gaz.tsv": GAZETTEER}, lambda d: ["run-all", "--config", d / "config.json"]),
}

# What a mutation puts into a file.
TOKENS = [
    b"", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\\ud800", b"\\udfff", b"\\u0000", b"\x00", b"\r", b"\r\n", b"\n",
    b"\t", b",", b'"', b"|", b"#", b"-", b"1e400", b"-1e400", b"NaN", b"-0", b"123456789012345678901234567890",
    b"-123456789012345678901234567890", b"[" * 5000, b"{}", b"[]", b"null", b"true",
    b"0001-01-01", b"9999-12-31", b"0000-00-00", b"2015-02-29", b"0001-01-01T00:00:00Z", b"9999-12-31T23:59:59Z",
    b"Mon Jan 01 00:30:00 +0100 0001", b"Fri Dec 31 23:30:00 -0100 9999", b"+2400", b"[Mon Jan 1 0001]",
    b"[Fri Dec 31 9999]", b"[99:99:99]", b"\xe2\x80\xa6",
]

# (which input, what, where, how many bytes, token); positions wrap at the file's length.
mutations = st.lists(
    st.tuples(
        st.integers(0, 5), st.sampled_from(["truncate", "delete", "insert", "replace"]),
        st.integers(0, 2**16), st.integers(1, 64), st.sampled_from(TOKENS),
    ),
    min_size=1, max_size=4,
)


def _mutate(data: bytes, op: str, at: int, length: int, token: bytes) -> bytes:
    at %= len(data) + 1
    if op == "truncate":
        return data[:at]
    if op == "delete":
        return data[:at] + data[at + length:]
    if op == "insert":
        return data[:at] + token + data[at:]
    return data[:at] + token + data[at + len(token):]


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=mutations)
def test_no_input_yields_a_traceback(name, edits):
    inputs, argv = CASES[name]
    files = {file: text.encode("utf-8") for file, text in inputs.items()}
    names = list(files)
    for which, *edit in edits:
        file = names[which % len(names)]
        files[file] = _mutate(files[file], *edit)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp).resolve()
        for file, data in files.items():
            (d / file).write_bytes(data)
        err = io.StringIO()
        try:
            # run-all reads the config's paths from the working directory.
            os.chdir(d)
            with contextlib.redirect_stderr(err):
                code = main([str(arg) for arg in argv(d)])
        finally:
            os.chdir(cwd)
        left = sorted(str(path.relative_to(d)) for path in d.rglob("*") if path.is_file())
    assert code in (0, 1, 2)
    assert not [path for path in left if path.endswith(".partial")]
    if code == 2:
        assert left == sorted(files), "exit 2 left an output file"
    for line in err.getvalue().splitlines():
        if line.startswith("coinbuzz: error:"):
            assert len(line) < 200, line
