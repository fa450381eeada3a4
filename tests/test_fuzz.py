"""No input yields a traceback.

Each file-driven subcommand and `run-all` runs in-process through `cli.main`
on valid inputs that Hypothesis mutates byte by byte: truncations, deletions,
invalid UTF-8, lone surrogate escapes, NUL and `\\r`, numbers past the range
of a float or of C sizes, deep JSON nesting and dates at the edges of
`datetime`'s range. A capture line and a messages line are also mutated in
structure: decoded, one field set to a value of another type, re-encoded.
Whatever the input, the exit code is 0, 1 or 2, no exception leaves `main`,
no `.partial` file is left, exit 2 leaves no output file, and every
`coinbuzz: error:` line is short. A bad line of a capture or a log, outside
strict mode, exits 0 or 1 and leaves every output file written.
"""
from __future__ import annotations

import contextlib
import functools
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

# (what, where, how many bytes, token); positions wrap at the file's length.
one_edit = st.tuples(
    st.sampled_from(["truncate", "delete", "insert", "replace"]), st.integers(0, 2**16), st.integers(1, 64),
    st.sampled_from(TOKENS),
)
# (which input, edit) pairs.
mutations = st.lists(st.tuples(st.integers(0, 5), one_edit), min_size=1, max_size=4)


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
    inputs, _ = CASES[name]
    files = {file: text.encode("utf-8") for file, text in inputs.items()}
    names = list(files)
    for which, edit in edits:
        file = names[which % len(names)]
        files[file] = _mutate(files[file], *edit)
    _assert_no_traceback(name, files)


# Structural mutations of one JSON line, which no byte edit above is likely to hit: the value at
# one path of its first record becomes each of VALUES in turn. The paths are each top-level key
# and, in a capture, the nested fields that `parse_tweet` reads.
VALUES = [None, 0, 1.5, "", "x", [], {}, True]
CAPTURE_PATHS = [(key,) for key in json.loads(CAPTURE.split("\n", 1)[0])] + [
    ("user", "screen_name"), ("entities", "hashtags"), ("entities", "hashtags", 0), ("entities", "hashtags", 0, "text"),
]
MESSAGES_PATHS = [(key,) for key in json.loads(MESSAGES.split("\n", 1)[0])]
STRUCTURAL = [
    (name, file, path)
    for name, file, paths in (
        ("ingest-tweets", "cap.jsonl", CAPTURE_PATHS), ("run-all", "cap.jsonl", CAPTURE_PATHS),
        ("annotate", "msgs.jsonl", MESSAGES_PATHS), ("aggregate", "msgs.jsonl", MESSAGES_PATHS),
    )
    for path in paths
]


def _set_path(line: str, path: tuple, value) -> str:
    record = json.loads(line)
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return json.dumps(record)


@pytest.mark.parametrize(
    "name, file, path", STRUCTURAL, ids=[f"{name}-{'.'.join(map(str, path))}" for name, _, path in STRUCTURAL]
)
def test_no_json_structure_yields_a_traceback(name, file, path):
    inputs, _ = CASES[name]
    first, rest = inputs[file].split("\n", 1)
    for value in VALUES:
        files = {file: text.encode("utf-8") for file, text in inputs.items()}
        files[file] = (_set_path(first, path, value) + "\n" + rest).encode("utf-8")
        _assert_no_traceback(name, files)


# The skip rule: outside strict mode a bad line of a capture or a log is skipped, never fatal. One line
# of an input is edited as above; the command exits 0 or 1 and writes every file it writes unedited.
SKIP_CASES = [
    ("ingest-tweets", "cap.jsonl"), ("parse-irc", "chan.log"), ("run-all", "cap.jsonl"), ("run-all", "chan.log"),
]


@functools.cache
def _unedited_files(name: str) -> list[str]:
    """The files that case `name` leaves on its unedited inputs, which it exits 0 on."""
    code, left, _ = _run(name, {file: text.encode("utf-8") for file, text in CASES[name][0].items()})
    assert code == 0
    return left


@pytest.mark.parametrize("name, file", SKIP_CASES, ids=[f"{name}-{file}" for name, file in SKIP_CASES])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(line=st.integers(0, 6), edit=one_edit)
def test_a_bad_line_outside_strict_mode_is_skipped_not_fatal(name, file, line, edit):
    files = {path: text.encode("utf-8") for path, text in CASES[name][0].items()}
    lines = files[file].split(b"\n")  # the last is the empty rest after the final newline
    line %= len(lines) - 1
    lines[line] = _mutate(lines[line], *edit)
    files[file] = b"\n".join(lines)
    code, left, err = _run(name, files)
    assert code in (0, 1), err
    assert left == _unedited_files(name)


def _run(name: str, files: dict[str, bytes]) -> tuple[int, list[str], str]:
    """Run case `name` on `files` in a temporary directory: its exit code, the files it
    leaves there and its stderr."""
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
                code = main([str(arg) for arg in CASES[name][1](d)])
        finally:
            os.chdir(cwd)
        left = sorted(str(path.relative_to(d)) for path in d.rglob("*") if path.is_file())
    return code, left, err.getvalue()


def _assert_no_traceback(name: str, files: dict[str, bytes]) -> None:
    """Run case `name` on `files`: exit 0, 1 or 2, no exception, no `.partial` file, no output
    file after exit 2 and short error lines."""
    code, left, err = _run(name, files)
    assert code in (0, 1, 2)
    assert not [path for path in left if path.endswith(".partial")]
    if code == 2:
        assert left == sorted(files), "exit 2 left an output file"
    for line in err.splitlines():
        if line.startswith("coinbuzz: error:"):
            assert len(line) < 200, line
