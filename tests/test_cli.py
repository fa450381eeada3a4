from __future__ import annotations

import contextlib
import dataclasses
import errno
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinbuzz.annotate import AnnotatedDocument
from coinbuzz.cli import _COMMANDS, _read_argv, build_parser, emit_plot_series, main, render_table
from coinbuzz.series import (
    DailySeries,
    EmptyOverlap,
    Flag,
    align,
)
from coinbuzz.stats import CorrelationReport, ReportRow, pearson

START = date(2015, 6, 1)

SUMMARY_ROWS = [
    ("twitter", 12105833, 0.5239, -0.0191),
    ("#bitcoin-assets", 189393, -0.1201, -0.2991),
    ("#bitcoin-otc", 111499, -0.0568, -0.0675),
    ("#bitcoin-pricetalk", 64712, 0.7714, 0.5715),
    ("#bitcoin", 214283, 0.0130, -0.1355),
    ("#dogecoin", 1113243, -0.1682, -0.3333),
]


def _summary_report() -> CorrelationReport:
    rows = [
        ReportRow(stream, total, rv, None, rp, None, 214, "all-days")
        for stream, total, rv, rp in SUMMARY_ROWS
    ]
    return CorrelationReport(rows)


# --- rendering ---------------------------------------------------------------

def test_render_tsv_headers_and_formatting():
    text = render_table(_summary_report(), "tsv")
    lines = text.splitlines()
    assert lines[0] == (
        "Data Source\tTotal Messages\tBitcoin Volume Correlation"
        "\tBitcoin Price Correlation\tn_days\tpolicy"
    )
    assert lines[1].startswith("twitter\t12105833\t0.5239\t-0.0191")
    assert lines[4].startswith("#bitcoin-pricetalk\t64712\t0.7714\t0.5715")
    assert lines[6].startswith("#dogecoin\t1113243\t-0.1682\t-0.3333")


def test_render_totals_column_exactly():
    text = render_table(_summary_report(), "tsv")
    totals = [line.split("\t")[1] for line in text.splitlines()[1:]]
    assert totals == ["12105833", "189393", "111499", "64712", "214283", "1113243"]


def test_render_markdown_has_separator_row():
    report = CorrelationReport([ReportRow("s", 1, 0.5, None, -0.25, None, 10, "all-days")])
    lines = render_table(report, "markdown").splitlines()
    assert lines[0].startswith("| Data Source |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert "| s | 1 | 0.5000 | -0.2500 | 10 | all-days |" == lines[2]


def test_render_undefined_cells():
    report = CorrelationReport(
        [ReportRow("s", 1, 0.5, None, None, "ConstantSeries", 10, "all-days")]
    )
    assert "n/a(ConstantSeries)" in render_table(report, "tsv")


def test_render_rejects_empty_report_and_bad_format():
    with pytest.raises(ValueError):
        render_table(CorrelationReport([]), "tsv")
    with pytest.raises(ValueError):
        render_table(_summary_report(), "html")


def _daily(counts: list[int], outages: set[int] = frozenset()) -> DailySeries:
    days = {START + timedelta(days=i): c for i, c in enumerate(counts)}
    flags = {
        START + timedelta(days=i): Flag.OUTAGE if i in outages else Flag.OK
        for i in range(len(counts))
    }
    return DailySeries("s", days, flags)


def _market(values: list[float]) -> dict[date, float]:
    return {START + timedelta(days=i): v for i, v in enumerate(values)}


def test_emit_plot_series_five_day_fixture():
    out = io.StringIO()
    rows = emit_plot_series(_daily([1, 2, 3, 4, 5], outages={2}), _market([10, 20, 30, 40, 50]), out)
    lines = out.getvalue().splitlines()
    assert rows == 5
    assert lines[0] == "date,count,flag,metric_value"
    assert lines[1] == "2015-06-01,1,ok,10.0"
    assert lines[3] == "2015-06-03,3,outage,30.0"
    assert len(lines) == 6


def test_emit_plot_series_disjoint_ranges():
    market = {date(2020, 1, 1): 1.0}
    with pytest.raises(EmptyOverlap):
        emit_plot_series(_daily([1, 2, 3]), market, io.StringIO())


def test_emit_plot_series_row_count_matches_align():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(3, 15)
        daily = _daily([rng.randint(0, 50) for _ in range(n)])
        offset = rng.randint(0, 4)
        values = {
            START + timedelta(days=offset + i): float(rng.randint(1, 9))
            for i in range(rng.randint(0, 15))
        }
        out = io.StringIO()
        try:
            expected = len(align(daily, values))
        except EmptyOverlap:
            with pytest.raises(EmptyOverlap):
                emit_plot_series(daily, values, out)
            continue
        assert emit_plot_series(daily, values, out) == expected


# --- subcommands -------------------------------------------------------------

IRC_LOG = (
    "[Mon Jun 1 2015] [00:03:12] <alice>\tprice is moving\n"
    "[Mon Jun 1 2015] [00:04:00] *** Join: bob joined\n"
    "[Mon Jun 1 2015] [00:05:00] <bob>\tbitcoin looks strong\n"
)


def _tweet_line(tweet_id: int, text: str, day: int = 1, created_at: str = "") -> str:
    return json.dumps(
        {
            "id": tweet_id,
            "created_at": created_at or f"Mon Jun {day:02d} 10:00:00 +0000 2015",
            "user": {"screen_name": f"u{tweet_id}"},
            "text": text,
        }
    )


def test_sanitize_roundtrip_via_subprocess():
    payload = b'{"text":"up\\u2026now"}\n{"text":"plain"}\n'
    proc = subprocess.run(
        [sys.executable, "-m", "coinbuzz", "sanitize", "--stats"],
        input=payload,
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == b'{"text":"up      now"}\n{"text":"plain"}\n'
    stderr = proc.stderr.decode()
    assert stderr.startswith("sanitize: lines_in=2 ")
    assert "replacements=1" in stderr


def test_parse_irc_writes_messages(tmp_path, capsys):
    log = tmp_path / "chan.log"
    log.write_text(IRC_LOG, encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    code = main(["parse-irc", "--channel", "#bitcoin", "--in", str(log), "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["author"] for r in records] == ["alice", "bob"]
    assert records[0]["ts"] == "2015-06-01T00:03:12Z"
    assert records[0]["stream_id"] == "irc:#bitcoin"
    err = capsys.readouterr().err
    assert err == "parse-irc: lines_in=3 parsed=3 messages=2 dropped_network=1 unparsable=0 blank=0\n"


def test_parse_irc_partial_exit_on_unparsable(tmp_path):
    log = tmp_path / "chan.log"
    log.write_text(IRC_LOG + "garbage\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    assert main(["parse-irc", "--channel", "#x", "--in", str(log), "--out", str(out)]) == 1


def test_parse_irc_strict_is_fatal(tmp_path):
    log = tmp_path / "chan.log"
    log.write_text("garbage\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    code = main(["parse-irc", "--channel", "#x", "--in", str(log), "--out", str(out), "--strict"])
    assert code == 2
    # Messages stream out before the bad line is reached; none may remain.
    log.write_text(IRC_LOG + "garbage\n", encoding="utf-8")
    code = main(["parse-irc", "--channel", "#x", "--in", str(log), "--out", str(out), "--strict"])
    assert code == 2
    assert not out.exists()


def test_parse_irc_unknown_tz_is_fatal(tmp_path, capsys):
    log = tmp_path / "chan.log"
    log.write_text(IRC_LOG, encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    code = main(["parse-irc", "--channel", "#x", "--in", str(log), "--out", str(out), "--tz", "Mars/Base"])
    assert code == 2
    assert capsys.readouterr().err.startswith("coinbuzz: error: unknown time zone 'Mars/Base'")
    assert not out.exists()


def test_ingest_tweets_filters_and_writes(tmp_path, capsys):
    capture = tmp_path / "cap.jsonl"
    capture.write_text(
        "\n".join(
            [
                _tweet_line(1, "Bitcoin rally"),
                _tweet_line(2, "nothing here"),
                _tweet_line(3, "BITCOIN again"),
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["author"] for r in records] == ["u1", "u3"]
    assert capsys.readouterr().err == (
        "ingest-tweets: lines=3 parsed=3 malformed=0 duplicates=0 matched=2\n"
    )


def test_ingest_tweets_counts_a_line_nested_past_the_recursion_limit_as_malformed(tmp_path, capsys):
    capture = tmp_path / "cap.jsonl"
    lines = [_tweet_line(1, "Bitcoin rally"), DEEP, _tweet_line(2, "BITCOIN again")]
    capture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 1
    assert [json.loads(line)["author"] for line in out.read_text().splitlines()] == ["u1", "u2"]
    assert "lines=3 parsed=2 malformed=1 " in capsys.readouterr().err


def test_ingest_tweets_counts_a_tweet_with_a_lone_surrogate_as_malformed(tmp_path, capsys):
    capture = tmp_path / "cap.jsonl"
    # The escape is not sanitized first, so the parsed text holds the surrogate itself.
    lines = [_tweet_line(1, "Bitcoin rally"), _tweet_line(2, "bitcoin \ud800 up")]
    assert "\\ud800" in lines[1]
    capture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 1
    assert [json.loads(line)["author"] for line in out.read_text().splitlines()] == ["u1"]
    assert "lines=2 parsed=1 malformed=1 " in capsys.readouterr().err


# README calls `entities.hashtags` optional: a null or a number there is no hashtag, not a traceback.
NULL_HASHTAGS_LINE = (
    '{"id": 1, "created_at": "Thu Jan 01 01:27:21 +0000 2015", "user": {"screen_name": "a"}, '
    '"text": "bitcoin x", "entities": {"hashtags": null}}'
)


@pytest.mark.parametrize("hashtags", ["null", "5"])
def test_ingest_tweets_keeps_a_tweet_whose_hashtags_are_not_a_list(tmp_path, capsys, hashtags):
    capture = tmp_path / "cap.jsonl"
    capture.write_text(NULL_HASHTAGS_LINE.replace("null", hashtags) + "\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 0
    assert [json.loads(line)["text"] for line in out.read_text().splitlines()] == ["bitcoin x"]
    assert "lines=1 parsed=1 malformed=0 duplicates=0 matched=1" in capsys.readouterr().err


def test_ingest_tweets_substring_and_keyword_flags(tmp_path):
    capture = tmp_path / "cap.jsonl"
    capture.write_text(_tweet_line(1, "bitcoins plural") + "\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 0
    assert out.read_text() == ""
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out), "--substring"]) == 0
    assert len(out.read_text().splitlines()) == 1
    assert main(
        ["ingest-tweets", "--in", str(capture), "--out", str(out), "--keywords", "doge,bitcoins"]
    ) == 0
    assert len(out.read_text().splitlines()) == 1
    # Each comma-separated keyword is stripped: " btc" is the keyword "btc".
    capture.write_text(_tweet_line(2, "btc only") + "\n", encoding="utf-8")
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out), "--keywords", "bitcoin, btc"]) == 0
    assert len(out.read_text().splitlines()) == 1
    # A phrase is a keyword only as a substring: no word holds a space.
    capture.write_text(_tweet_line(3, "Bitcoin Cash forks") + "\n", encoding="utf-8")
    assert main(
        ["ingest-tweets", "--in", str(capture), "--out", str(out), "--keywords", "bitcoin cash", "--substring"]
    ) == 0
    assert len(out.read_text().splitlines()) == 1


# Local times that fall outside datetime's range once converted to UTC.
OUT_OF_RANGE_CREATED_AT = ["Mon Jan 01 00:30:00 +0100 0001", "Fri Dec 31 23:30:00 -0100 9999"]
OUT_OF_RANGE_LOG_LINES = [
    ("Asia/Tokyo", "[Mon Jan 1 0001] [00:10:00] <a>\thi\n"),
    ("America/New_York", "[Fri Dec 31 9999] [23:50:00] <a>\thi\n"),
]


@pytest.mark.parametrize("created_at", OUT_OF_RANGE_CREATED_AT)
def test_ingest_tweets_counts_a_time_out_of_range_in_utc_as_malformed(tmp_path, capsys, created_at):
    capture = tmp_path / "cap.jsonl"
    lines = [_tweet_line(1, "Bitcoin rally"), _tweet_line(2, "bitcoin", created_at=created_at)]
    capture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(out)]) == 1
    assert [json.loads(line)["author"] for line in out.read_text().splitlines()] == ["u1"]
    assert "lines=2 parsed=1 malformed=1 " in capsys.readouterr().err


@pytest.mark.parametrize("tz, line", OUT_OF_RANGE_LOG_LINES)
def test_parse_irc_counts_a_time_out_of_range_in_utc_as_unparsable(tmp_path, capsys, tz, line):
    log = tmp_path / "chan.log"
    log.write_text(IRC_LOG + line, encoding="utf-8")
    out = tmp_path / "msgs.jsonl"
    argv = ["parse-irc", "--channel", "#x", "--tz", tz, "--in", str(log), "--out", str(out)]
    assert main(argv) == 1
    assert len(out.read_text().splitlines()) == 2
    assert "messages=2 dropped_network=1 unparsable=1 " in capsys.readouterr().err
    out.unlink()
    assert main(argv + ["--strict"]) == 2
    assert capsys.readouterr().err.startswith("coinbuzz: error: line 4: ")
    assert not out.exists()


def test_ingest_tweets_then_aggregate_reads_back_a_year_before_1000(tmp_path):
    capture = tmp_path / "cap.jsonl"
    capture.write_text(_tweet_line(1, "bitcoin", created_at="Mon Jun 01 10:00:00 +0000 0999") + "\n", encoding="utf-8")
    messages, daily = tmp_path / "msgs.jsonl", tmp_path / "daily.csv"
    assert main(["ingest-tweets", "--in", str(capture), "--out", str(messages)]) == 0
    assert json.loads(messages.read_text())["ts"] == "0999-06-01T10:00:00Z"
    assert main(["aggregate", "--in", str(messages), "--out", str(daily)]) == 0
    assert daily.read_text() == "date,count,flag\n0999-06-01,1,ok\n"


def test_aggregate_and_gaps_on_a_series_ending_on_the_last_date(tmp_path):
    messages, daily, flagged = tmp_path / "msgs.jsonl", tmp_path / "daily.csv", tmp_path / "flagged.csv"
    messages.write_text(
        "".join(MESSAGE.replace("2015-06-01T10:00:00Z", ts) for ts in ("9999-12-29T00:00:00Z", "9999-12-31T23:59:59Z")),
        encoding="utf-8",
    )
    assert main(["aggregate", "--in", str(messages), "--out", str(daily)]) == 0
    assert daily.read_text() == "date,count,flag\n9999-12-29,1,ok\n9999-12-30,0,ok\n9999-12-31,1,ok\n"
    daily.write_text("date,count,flag\n9999-12-29,3,ok\n9999-12-31,2,ok\n", encoding="utf-8")
    assert main(["gaps", "--in", str(daily), "--out", str(flagged)]) == 0
    assert flagged.read_text() == "date,count,flag\n9999-12-29,3,ok\n9999-12-30,0,outage\n9999-12-31,2,ok\n"


def test_annotate_writes_annotated_documents(tmp_path):
    msgs = tmp_path / "msgs.jsonl"
    msgs.write_text(
        '{"stream_id":"twitter","ts":"2015-06-01T10:00:00Z","author":"a","text":"Bitcoin up #btc"}\n',
        encoding="utf-8",
    )
    gaz = tmp_path / "gaz.tsv"
    gaz.write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")
    out = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(msgs), "--gazetteer", str(gaz), "--out", str(out)]) == 0
    adoc = AnnotatedDocument.from_json(out.read_text().splitlines()[0])
    assert adoc.doc.doc_id == "twitter:1"
    types = {a.type for a in adoc.annotations}
    assert types == {"Token", "Hashtag", "Lookup"}


def test_aggregate_and_gaps_round_trip(tmp_path):
    msgs = tmp_path / "msgs.jsonl"
    lines = []
    for day, n in ((1, 4), (2, 5), (3, 6), (4, 0), (5, 5)):
        for i in range(n):
            lines.append(
                json.dumps(
                    {
                        "stream_id": "s",
                        "ts": f"2015-06-{day:02d}T10:00:{i:02d}Z",
                        "author": "a",
                        "text": "x",
                    }
                )
            )
    msgs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    series_csv = tmp_path / "series.csv"
    assert main(["aggregate", "--in", str(msgs), "--out", str(series_csv)]) == 0
    text = series_csv.read_text()
    assert "2015-06-04,0,ok" in text

    flagged_csv = tmp_path / "flagged.csv"
    assert main(["gaps", "--in", str(series_csv), "--out", str(flagged_csv), "--theta", "0.1", "--k", "7"]) == 0
    assert "2015-06-04,0,outage" in flagged_csv.read_text()
    # In place, as README shows it: the input is read whole before the output replaces it.
    assert main(["gaps", "--in", str(series_csv), "--out", str(series_csv)]) == 0
    assert series_csv.read_bytes() == flagged_csv.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flagged.csv", "msgs.jsonl", "series.csv"]


def test_gaps_with_a_k_past_every_c_size_equals_a_k_past_the_series(tmp_path, capsys):
    # Any k past the series' day count flags alike, however far past it is.
    daily = tmp_path / "daily.csv"
    daily.write_text("date,count,flag\n2015-06-01,100,ok\n2015-06-02,5,ok\n2015-06-05,90,ok\n", encoding="utf-8")
    outputs = []
    for k in (10**20, 1_000_000):
        out = tmp_path / f"flagged_{k}.csv"
        assert main(["gaps", "--in", str(daily), "--out", str(out), "--k", str(k)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == b"date,count,flag\n2015-06-01,100,ok\n2015-06-02,5,outage\n2015-06-03,0,outage\n" \
        b"2015-06-04,0,outage\n2015-06-05,90,ok\n"
    assert capsys.readouterr().err == "gaps: days=5 outages=3\n" * 2


def test_aggregate_rejects_mixed_streams_without_selector(tmp_path):
    msgs = tmp_path / "msgs.jsonl"
    msgs.write_text(
        '{"stream_id":"a","ts":"2015-06-01T00:00:00Z","author":"x","text":"t"}\n'
        '{"stream_id":"b","ts":"2015-06-01T00:00:00Z","author":"x","text":"t"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "series.csv"
    assert main(["aggregate", "--in", str(msgs), "--out", str(out)]) == 2
    assert main(["aggregate", "--in", str(msgs), "--out", str(out), "--stream-id", "a"]) == 0


# Every way `aggregate` names its stream: the CSV it writes and its stderr line.
@pytest.mark.parametrize(
    "streams, selector, csv, line",
    [
        ("ab", "a", "date,count,flag\n2015-06-01,1,ok\n", "aggregate: stream=a days=1\n"),
        ("ab", "z", "date,count,flag\n", "aggregate: stream=z days=0\n"),
        ("bb", None, "date,count,flag\n2015-06-01,2,ok\n", "aggregate: stream=b days=1\n"),
        ("", None, "date,count,flag\n", "aggregate: stream=(empty) days=0\n"),
        ("ab", None, None, "coinbuzz: error: input mixes streams ['a', 'b']; pick one with --stream-id\n"),
    ],
    ids=["given-present", "given-absent", "one-stream", "empty", "mixed"],
)
def test_aggregate_names_its_stream(tmp_path, capsys, streams, selector, csv, line):
    msgs, out = tmp_path / "msgs.jsonl", tmp_path / "series.csv"
    msgs.write_text(
        "".join(f'{{"stream_id":"{s}","ts":"2015-06-01T00:00:00Z","author":"x","text":"t"}}\n' for s in streams),
        encoding="utf-8",
    )
    argv = ["aggregate", "--in", str(msgs), "--out", str(out)] + (["--stream-id", selector] if selector else [])
    assert main(argv) == (0 if csv is not None else 2)
    assert capsys.readouterr().err == line
    assert (out.read_text() if out.exists() else None) == csv


def _write_market(path, values, start=START):
    rows = ["date,value"]
    for i, v in enumerate(values):
        rows.append(f"{(start + timedelta(days=i)).isoformat()},{v}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_correlate_and_report(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    with open(series_csv, "w", encoding="utf-8", newline="") as fh:
        from coinbuzz.series import write_daily_csv

        write_daily_csv(_daily([10, 20, 30, 40]), fh)
    price_csv = tmp_path / "price.csv"
    volume_csv = tmp_path / "volume.csv"
    _write_market(price_csv, [230.0, 228.0, 231.0, 229.0])
    _write_market(volume_csv, [10.0, 20.0, 30.0, 40.0])

    report_json = tmp_path / "report.json"
    code = main(
        [
            "correlate",
            "--series", f"mystream={series_csv}",
            "--price", str(price_csv),
            "--volume", str(volume_csv),
            "--out", str(report_json),
        ]
    )
    assert code == 0
    payload = json.loads(report_json.read_text())
    assert payload["rows"][0]["stream_id"] == "mystream"
    assert payload["rows"][0]["r_volume"] == 1.0
    assert payload["rows"][0]["total_messages"] == 100

    table = tmp_path / "report.tsv"
    assert main(["report", "--in", str(report_json), "--out", str(table)]) == 0
    assert "mystream\t100\t1.0000\t" in table.read_text()

    # Without --out, the same text goes to stdout.
    capsys.readouterr()
    assert main(["correlate", "--series", f"mystream={series_csv}", "--price", str(price_csv),
                 "--volume", str(volume_csv)]) == 0
    assert capsys.readouterr().out == report_json.read_text()
    assert main(["report", "--in", str(report_json)]) == 0
    assert capsys.readouterr().out == table.read_text()

    md = tmp_path / "report.md"
    assert main(["report", "--in", str(report_json), "--format", "markdown", "--out", str(md)]) == 0
    assert md.read_text().startswith("| Data Source |")


def _correlate_row(tmp_path, counts: list[int], price: list[float], volume: list[float]) -> dict:
    """The one report row of `correlate` over a stream of these daily counts from START."""
    days = [START + timedelta(days=i) for i in range(len(counts))]
    series_csv = tmp_path / "series.csv"
    series_csv.write_text(
        "date,count,flag\n" + "".join(f"{day},{count},ok\n" for day, count in zip(days, counts)), encoding="utf-8"
    )
    _write_market(tmp_path / "price.csv", price)
    _write_market(tmp_path / "volume.csv", volume)
    report_json = tmp_path / "report.json"
    argv = ["correlate", "--series", f"s={series_csv}", "--price", str(tmp_path / "price.csv"),
            "--volume", str(tmp_path / "volume.csv"), "--out", str(report_json)]
    assert main(argv) == 0
    [row] = json.loads(report_json.read_text(encoding="utf-8"))["rows"]
    return row


# Counts and prices whose sums, squares or products of deviations pass the range
# of a float, each followed by the same values at unit scale. The volume is
# small in every case.
NEAR_FLOAT_MAX = [1e308, 1.5e308, 1e308, 1.7e308, 1.0]
AT_1E200 = [1e200, 1.5e200, 1e200, 1.7e200, 1.0]
UNIT = [1.0, 1.5, 1.0, 1.7, 0.0]
SMALL = [3, 1, 4, 1, 5]
VOLUME = [2.0, 7.0, 1.0, 8.0, 2.0]


@pytest.mark.parametrize(
    "counts, price, unit_counts, unit_price",
    [
        pytest.param([10**308, 15 * 10**307, 10**308, 17 * 10**307, 1], VOLUME, UNIT, VOLUME, id="counts-near-float-max"),
        pytest.param(SMALL, NEAR_FLOAT_MAX, SMALL, UNIT, id="price-near-float-max"),
        pytest.param(SMALL, AT_1E200, SMALL, UNIT, id="price-at-1e200"),
        pytest.param(
            [10**200, 15 * 10**199, 10**200, 17 * 10**199, 1], [1.7e200, 1e200, 1.5e200, 1.0, 1e200],
            UNIT, [1.7, 1.0, 1.5, 0.0, 1.0], id="counts-and-price-at-1e200",
        ),
    ],
)
def test_correlate_gives_r_at_any_scale(tmp_path, counts, price, unit_counts, unit_price):
    row = _correlate_row(tmp_path, counts, price, VOLUME)
    for name, expected in (("r_price", pearson(unit_counts, unit_price)), ("r_volume", pearson(unit_counts, VOLUME))):
        assert math.isfinite(row[name]) and -1 <= row[name] <= 1, row
        assert row[name] == pytest.approx(expected, abs=1e-12), name


def test_correlate_price_of_the_volume_times_2_700_gives_r_volume(tmp_path):
    row = _correlate_row(tmp_path, SMALL, [math.ldexp(v, 700) for v in VOLUME], VOLUME)
    assert row["r_volume"] is not None and row["r_volume"] != 0
    assert row["r_price"] == row["r_volume"]


# The mean of three 0.2s is not 0.2 in floats; the price series is constant all the same.
def test_correlate_reports_a_constant_price_of_0_2_as_undefined(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    series_csv.write_text("date,count,flag\n" + "".join(f"{START + timedelta(days=i)},{i + 1},ok\n" for i in range(3)), encoding="utf-8")
    _write_market(tmp_path / "price.csv", [0.2] * 3)
    _write_market(tmp_path / "volume.csv", [2] * 3)
    argv = ["correlate", "--series", f"s={series_csv}", "--price", str(tmp_path / "price.csv"),
            "--volume", str(tmp_path / "volume.csv"), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    assert main(["report", "--in", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "s\t6\tn/a(ConstantSeries)\tn/a(ConstantSeries)\t3\tall-days"


def test_plot_series_command(tmp_path):
    series_csv = tmp_path / "series.csv"
    with open(series_csv, "w", encoding="utf-8", newline="") as fh:
        from coinbuzz.series import write_daily_csv

        write_daily_csv(_daily([1, 2, 3]), fh)
    market_csv = tmp_path / "volume.csv"
    _write_market(market_csv, [5.0, 6.0, 7.0])
    out = tmp_path / "plot.csv"
    assert main(["plot-series", "--series", str(series_csv), "--market", str(market_csv), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


# --- exit codes and usage ----------------------------------------------------

def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_usage_error_exits_64():
    with pytest.raises(SystemExit) as err:
        main(["parse-irc", "--channel"])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 64


def test_missing_input_is_fatal(tmp_path):
    out = tmp_path / "x.jsonl"
    code = main(["parse-irc", "--channel", "#x", "--in", str(tmp_path / "absent.log"), "--out", str(out)])
    assert code == 2


# --- the two command-line readers --------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
_PARSER = build_parser()


def _argparse_vars(argv: list[str]) -> dict | None:
    """vars() of the namespace that argparse reads from `argv`; None where it exits (help, a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


def _value(kind) -> st.SearchStrategy[str]:
    """A value that an option of `kind` accepts."""
    if kind is float:
        return st.one_of(st.floats(min_value=0, allow_nan=False).map(str), st.integers(0, 99).map(str))
    if kind is int:
        return st.integers(0, 10**6).map(str)
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6).filter(
        lambda text: not text.startswith("-")
    )


def _pick(draw, groups: list[list[str]], valued: bool = False) -> int | None:
    """The index of a drawn flag group, one with a value if `valued`; None if there is none."""
    picks = [i for i, group in enumerate(groups) if len(group) == 2 or not valued]
    return draw(st.sampled_from(picks)) if picks else None


def _set_value(draw, groups, kind_of, kinds, values) -> None:
    """Replace the value of a drawn option of one of `kinds` ("any" for all) by one of `values`."""
    picks = [i for i, g in enumerate(groups) if len(g) == 2 and ("any" in kinds or kind_of[g[0]] in kinds)]
    if picks:
        i = draw(st.sampled_from(picks))
        groups[i] = [groups[i][0], draw(st.sampled_from(values))]


def _mutate(draw, mutation: str, options: tuple, groups: list[list[str]]) -> list[list[str]]:
    """`groups` (one flag and its value, or a switch, each) with `mutation` applied where it applies."""
    kind_of = {option[0]: option[2] for option in options}
    i = _pick(draw, groups, valued=mutation == "joined")
    if mutation == "joined" and i is not None:
        groups[i] = ["=".join(groups[i])]
    elif mutation == "abbreviated" and i is not None:
        flag = groups[i][0]
        groups[i][0] = flag[: draw(st.integers(2, len(flag) - 1))]
    elif mutation == "repeated" and i is not None:
        flag = groups[i][0]
        repeat = [flag] if kind_of[flag] == "switch" else [flag, draw(_value(kind_of[flag]))]
        groups.insert(draw(st.integers(0, len(groups))), repeat)
    elif mutation == "unknown flag":
        groups.insert(draw(st.integers(0, len(groups))), draw(st.sampled_from([["--bogus", "x"], ["--no-such"]])))
    elif mutation == "missing required":
        required = [option[0] for option in options if option[3] is ...]
        if required:
            flag = draw(st.sampled_from(required))
            groups = [group for group in groups if group[0] != flag]
    elif mutation == "dash value":
        _set_value(draw, groups, kind_of, ("any",), ["-1", "-0.5", "-x", "--in", "-"])
    elif mutation == "bad choice":
        _set_value(draw, groups, kind_of, tuple(k for k in kind_of.values() if isinstance(k, tuple)), ["html", "TSV"])
    elif mutation == "bad number":
        _set_value(draw, groups, kind_of, (float, int), ["x", "1.5", "1e", "0x10", " "])
    elif mutation == "empty value":
        _set_value(draw, groups, kind_of, ("any",), [""])
    return groups


MUTATIONS = ["joined", "abbreviated", "repeated", "unknown flag", "missing required", "dash value",
             "bad choice", "bad number", "empty value", "--", "-h", "command"]


@st.composite
def _command_lines(draw) -> tuple[list[str], str | None]:
    """A well-formed argv from `_COMMANDS`, its options in a drawn order, and a mutation of it or None."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    options = _COMMANDS[command][2]
    groups = []
    for flag, _, kind, default, _, _ in options:
        if default is not ... and draw(st.booleans()):
            continue
        for _ in range(draw(st.integers(1, 3)) if kind == "append" else 1):
            groups.append([flag] if kind == "switch" else [flag, draw(_value(kind))])
    groups = draw(st.permutations(groups))
    mutation = draw(st.sampled_from([None, *MUTATIONS]))
    if mutation is not None:
        groups = _mutate(draw, mutation, options, groups)
    argv = [command, *itertools.chain.from_iterable(groups)]
    if mutation in ("--", "-h"):
        argv.insert(draw(st.integers(0, len(argv))), mutation)
    elif mutation == "command":
        argv[0] = draw(st.sampled_from(["", "gap", "Gaps", "run_all", "--in"]))
    return argv, mutation


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_the_direct_reader_reads_what_argparse_reads_or_leaves_it_to_argparse(case):
    argv, mutation = case
    read = _read_argv(argv)
    if mutation is None:
        assert read is not None, argv
    if read is not None:
        assert vars(read) == _argparse_vars(argv), argv


def test_the_direct_reader_leaves_an_empty_command_line_to_argparse():
    assert _read_argv([]) is None
    assert _argparse_vars([]) is None


def _load_perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _readme_examples() -> list[list[str]]:
    """The argv of each `coinbuzz` command in README's CLI quick tour, without its redirections."""
    tour = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI quick tour", 1)[1].split("```")[1]
    lines = tour.replace("\\\n", " ").splitlines()
    return [shlex.split(re.split(" [<>] ", line)[0])[1:] for line in lines if line.startswith("coinbuzz ")]


def test_the_direct_reader_takes_the_bench_command_lines_and_the_readme_examples(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first
    run = _load_perfbench_run()
    corpus = sys.modules["corpus"]
    argvs = []
    for exclude_outages in (False, True):
        spec = dataclasses.replace(corpus.scaled(corpus.WORKLOADS["stage_chain"], 0), exclude_outages=exclude_outages)
        truth = corpus.generate("stage_chain", 1, tmp_path / str(exclude_outages), spec)
        argvs += [invocation.argv for invocation in run.chain_invocations(tmp_path / "out", truth)]
    assert len(argvs) == 22 and ["--exclude-outages"] in [argv[-1:] for argv in argvs]
    # How the bench and README run run-all; the tour shows every other subcommand once.
    argvs.append(["run-all", "--config", str(tmp_path / "config.json")])
    examples = _readme_examples()
    assert sorted(argv[0] for argv in examples) == sorted(set(_COMMANDS) - {"run-all"})
    for argv in argvs + examples:
        read = _read_argv(argv)
        assert read is not None, argv
        assert vars(read) == _argparse_vars(argv), argv


# --- the process exit --------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
COINBUZZ = ["-m", "coinbuzz"]
# The console script's import of the function that `python -m coinbuzz` runs.
ENTRY = "from coinbuzz.__main__ import entry; entry()"
# The interpreter's own exit after `main`, with its teardown.
NORMAL_EXIT = ["-c", "import sys; from coinbuzz.cli import main; sys.exit(main())"]


def _env(unbuffered: bool) -> dict[str, str]:
    """The environment of a child python with coinbuzz from src/, its stdout block-buffered unless `unbuffered`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _process(args: list[str], cwd: Path, stdout=subprocess.PIPE, unbuffered: bool = False,
             stdin: bytes = b"") -> subprocess.CompletedProcess:
    """`python args...` with coinbuzz from src/, its stdout block-buffered unless `unbuffered`."""
    return subprocess.run([sys.executable, *args], input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, cwd=cwd, env=_env(unbuffered), timeout=60)


def _stdout_commands(tmp_path: Path, streams: int) -> dict[str, list[str]]:
    """argv of `correlate` and `report` without --out in `tmp_path`, over a report with a row
    for each of `streams` streams over one series."""
    (tmp_path / "series.csv").write_text(
        "".join(["date,count,flag\n"] + [f"2015-06-0{d},{d * d},ok\n" for d in range(1, 7)]), encoding="utf-8"
    )
    _write_market(tmp_path / "price.csv", [230.0, 228.0, 231.0, 229.0, 233.0, 232.0])
    _write_market(tmp_path / "volume.csv", [10.0, 20.0, 35.0, 40.0, 52.0, 61.0])
    correlate = ["correlate", "--price", "price.csv", "--volume", "volume.csv"]
    for i in range(streams):
        correlate += ["--series", f"stream-{i:03d}=series.csv"]
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path)
        assert main([*correlate, "--out", "report.json"]) == 0
    return {"correlate": correlate, "report": ["report", "--in", "report.json", "--format", "markdown"]}


# One row fits the 8 KiB of stdout's buffer, which holds it until a flush; 200 rows do not.
@pytest.mark.parametrize("streams", [1, 200])
@pytest.mark.parametrize("command", ["correlate", "report"])
def test_block_buffered_stdout_reaches_a_pipe_whole(tmp_path, command, streams):
    argv = _stdout_commands(tmp_path, streams)[command]
    proc = _process([*COINBUZZ, *argv], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path)
        assert main([*argv, "--out", "expected"]) == 0
    assert (len(proc.stdout) > 8192) == (streams == 200)
    assert proc.stdout == (tmp_path / "expected").read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["sanitize", "correlate", "report"])
def test_a_closed_stdout_is_one_fatal_error(tmp_path, command, unbuffered):
    # Each output fits stdout's buffer, so a buffered one first fails when it is flushed.
    argv = ["sanitize"] if command == "sanitize" else _stdout_commands(tmp_path, 1)[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _process([*COINBUZZ, *argv], tmp_path, stdout=write_end, unbuffered=unbuffered,
                        stdin=b'{"text":"caf\\u00e9"}\n')
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (2, "coinbuzz: error: [Errno 32] Broken pipe\n")


# `main(["sanitize"])` between two reads of the write(2) calls the process has made, which it prints to stderr.
_COUNTED_SANITIZE = """if True:
    import sys
    from coinbuzz.cli import main
    def writes():
        with open("/proc/self/io") as io:
            return next(int(line.split()[1]) for line in io if line.startswith("syscw:"))
    before = writes()
    code = main(["sanitize"])
    print(code, writes() - before, file=sys.stderr)
"""


@pytest.mark.skipif(not os.access("/proc/self/io", os.R_OK), reason="needs /proc/self/io, which counts write(2) calls")
def test_sanitize_writes_by_the_block_when_stdout_is_unbuffered(tmp_path):
    capture = "".join(json.dumps({"id": i, "text": f"caf\u00e9 {i}"}) + "\n" for i in range(5000)).encode()
    runs = {}
    for unbuffered in (False, True):
        with open(tmp_path / f"out-{unbuffered}", "wb") as out:
            proc = _process(["-c", _COUNTED_SANITIZE], tmp_path, stdout=out, unbuffered=unbuffered, stdin=capture)
        code, writes = map(int, proc.stderr.split())
        runs[unbuffered] = code, writes, (tmp_path / f"out-{unbuffered}").read_bytes()
    out = runs[True][2]
    assert out == runs[False][2] and out.count(b"\n") == 5000 and len(out) == len(capture)
    # The 5,000 lines come to about 190 KB, written by the block (the file's st_blksize, 4 KiB here, or more):
    # one write a line would be 5,000 writes.
    assert runs[True][0] == 0 and runs[True][1] <= len(out) // 1024


# Exits 0, 1 and 2, of commands that write to stdout or stderr.
EXITS = {
    0: ["report", "--in", "report.json"],
    1: ["parse-irc", "--channel", "#x", "--in", "chan.log", "--out", "messages.jsonl"],
    2: ["aggregate", "--in", "absent.jsonl", "--out", "series.csv"],
}


def _exit_workspace(tmp_path: Path) -> None:
    (tmp_path / "chan.log").write_text(IRC_LOG + "garbage\n", encoding="utf-8")
    (tmp_path / "report.json").write_text(json.dumps({"rows": [REPORT_ROW]}), encoding="utf-8")


@pytest.mark.parametrize("code", sorted(EXITS))
def test_an_atexit_handler_runs_and_the_exit_code_is_mains(tmp_path, code):
    _exit_workspace(tmp_path)
    # The handler prints after main has flushed stdout, so only a flush after the handlers writes it.
    register = "import atexit; atexit.register(print, 'handler ran'); "
    proc = _process(["-c", register + ENTRY, *EXITS[code]], tmp_path)
    assert proc.returncode == code
    assert proc.stdout.endswith(b"handler ran\n")


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["gaps", "--help"], 0), (["gaps"], 64), (["no-such-command"], 64),
     *((argv, code) for code, argv in EXITS.items())],
    ids=["help", "subcommand-help", "missing-option", "unknown-command", "exit-0", "exit-1", "exit-2"],
)
def test_the_exit_gives_the_code_and_bytes_of_a_normal_exit(tmp_path, argv, code):
    _exit_workspace(tmp_path)
    entry = _process([*COINBUZZ, *argv], tmp_path)
    normal = _process([*NORMAL_EXIT, *argv], tmp_path)
    assert entry.returncode == code
    assert (entry.returncode, entry.stdout, entry.stderr) == (normal.returncode, normal.stdout, normal.stderr)


def _coinbuzz_with(redirect: str, argv: list[str], cwd: Path, stdin: bytes = b"",
                   stderr=subprocess.PIPE, unbuffered: bool = False) -> subprocess.CompletedProcess:
    """`python -m coinbuzz argv...` started with the shell `redirect` applied, such as `>&-`,
    which closes descriptor 1; its stdout is block-buffered unless `unbuffered`."""
    return subprocess.run(["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, *COINBUZZ, *argv],
                          input=stdin, stdout=subprocess.PIPE, stderr=stderr, cwd=cwd,
                          env=_env(unbuffered), timeout=60)


def _with_buffering(cases: list[tuple]) -> list:
    """Each case once with stdout block-buffered, under the case's own id, and once unbuffered."""
    return [pytest.param(*case, unbuffered, id="-".join(case) + "-unbuffered" * unbuffered)
            for case in cases for unbuffered in (False, True)]


# argv of the commands that need no workspace. `--help` writes to stdout too: with stdout closed,
# argparse would print the help to stderr and exit 0.
PLAIN_ARGV = {"sanitize": ["sanitize"], "help": ["--help"], "gaps-help": ["gaps", "--help"]}


@pytest.mark.parametrize(
    "command, redirect, unbuffered",
    _with_buffering([("report", ">&-"), ("correlate", ">&-"), ("sanitize", ">&-"), ("sanitize", "<&-"),
                     ("help", ">&-"), ("gaps-help", ">&-")]),
)
def test_a_stream_closed_at_start_up_is_one_fatal_error(tmp_path, command, redirect, unbuffered):
    argv = PLAIN_ARGV.get(command) or _stdout_commands(tmp_path, 1)[command]
    before = sorted(tmp_path.iterdir())
    proc = _coinbuzz_with(redirect, argv, tmp_path, stdin=b'{"text":"caf\\u00e9"}\n', unbuffered=unbuffered)
    stream = "stdin" if redirect == "<&-" else "stdout"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", f"coinbuzz: error: {stream} is closed\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["help", "gaps-help"])
def test_help_to_a_stdout_that_fails_to_write_is_one_fatal_error(tmp_path, command, unbuffered):
    proc = _coinbuzz_with("> /dev/full", PLAIN_ARGV[command], tmp_path, unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr.decode()) == (2, "coinbuzz: error: [Errno 28] No space left on device\n")


# Commands that print a line to stderr, with their exit codes: run-all prints one for each IRC
# stream before it commits its files, and a usage error prints the usage too.
STDERR_LINES = {
    "parse-irc": (["parse-irc", "--channel", "#x", "--in", "chan.log", "--out", "messages.jsonl"], 0),
    "gaps": (["gaps", "--in", "absent.csv", "--out", "series.csv"], 2),
    "sanitize": (["sanitize", "--stats"], 0),
    "run-all": (["run-all", "--config", "config.json"], 0),
    "usage error": (["gaps", "--in", "absent.csv", "--bogus"], 64),
}


@pytest.mark.parametrize(
    "command, stderr, unbuffered",
    _with_buffering([(command, stderr) for command in sorted(STDERR_LINES) for stderr in ("closed", "read-only")]),
)
def test_a_closed_or_failing_stderr_loses_only_its_line(tmp_path, command, stderr, unbuffered):
    argv, code = STDERR_LINES[command]
    runs = {}
    for how in ("open", stderr):
        cwd = tmp_path / how
        cwd.mkdir()
        (cwd / "chan.log").write_text(IRC_LOG, encoding="utf-8")
        config_path, _ = _run_all_workspace(cwd)
        config_path.write_text(config_path.read_text(encoding="utf-8").replace(str(cwd), "."), encoding="utf-8")
        # Closed, Python sets sys.stderr to None; open only for reading, each write fails.
        with open(os.devnull, "rb") as read_only:
            proc = _coinbuzz_with("2>&-" if how == "closed" else "", argv, cwd, stdin=b'{"text":"caf\\u00e9"}\n',
                                  stderr=read_only if how == "read-only" else subprocess.PIPE, unbuffered=unbuffered)
        files = {path.relative_to(cwd): path.read_bytes() for path in sorted(cwd.rglob("*")) if path.is_file()}
        runs[how] = proc.returncode, proc.stdout, files
        if how == "open":
            assert proc.returncode == code and proc.stderr.endswith(b"\n")
    assert runs[stderr] == runs["open"]


# --- every output appears whole or not at all -------------------------------

MESSAGE = '{"stream_id":"s","ts":"2015-06-01T10:00:00Z","author":"a","text":"bitcoin"}\n'
NO_AUTHOR = '{"stream_id":"s","ts":"2015-06-01T10:00:00Z","text":"bitcoin"}\n'
SERIES_CSV = "".join(["date,count,flag\n"] + [f"2015-06-0{d},{d},ok\n" for d in range(1, 6)])
# Shares two days with SERIES_CSV, one short of what a correlation or a plot needs.
MARKET_CSV = "date,value\n2015-06-04,1.0\n2015-06-05,2.0\n2015-06-06,3.0\n"
GAZETTEER = "bitcoin\tcrypto\tcoin\n"
# JSON nested far past any recursion limit.
DEEP = "[" * 100_000
# A value that an error quotes cut short.
LONG = "x" * 2000
# A gazetteer file name of 250 characters, within the 255 that a file name may have.
LONG_GAZETTEER = "g" * 246 + ".tsv"
# Daily counts past the range of a float, which `gaps` and `correlate` compute with.
PAST_FLOAT_CSV = "".join(["date,count,flag\n"] + [f"2015-06-0{d},1{'0' * 400},ok\n" for d in range(1, 6)])
REPORT_ROW = {
    "stream_id": "s", "total_messages": 5, "r_volume": 0.5, "r_volume_error": None,
    "r_price": None, "r_price_error": "ConstantSeries", "n_days": 5, "policy": "all-days",
}


@pytest.mark.parametrize(
    "argv, inputs, error",
    [
        pytest.param(
            ["parse-irc", "--channel", "#x", "--strict", "--in", "chan.log"],
            {"chan.log": IRC_LOG + "garbage\n"}, "line 4", id="parse-irc.strict",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", ",", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "Bitcoin rally") + "\n"}, "keywords", id="ingest-tweets.no-keyword",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", ",", "--in", "cap.jsonl"], {"cap.jsonl": ""},
            "'keywords'", id="ingest-tweets.no-keyword-empty-capture",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", "#", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "bitcoin # rally") + "\n"}, "'keywords'", id="ingest-tweets.hash-only-keyword",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", "# btc", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "btc up") + "\n"}, "'keywords'", id="ingest-tweets.padded-after-hash",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", "# btc", "--substring", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "btc up") + "\n"}, "'keywords'", id="ingest-tweets.padded-after-hash-substring",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", "bitcoin cash", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "bitcoin cash up") + "\n"}, "'keywords'", id="ingest-tweets.phrase-as-word",
        ),
        pytest.param(
            ["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl"],
            {"msgs.jsonl": MESSAGE + NO_AUTHOR, "gaz.tsv": GAZETTEER},
            "messages line 2: a message needs a string 'author'", id="annotate.no-author",
        ),
        pytest.param(
            ["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl"],
            {"msgs.jsonl": MESSAGE + "\n[1,2]\n", "gaz.tsv": GAZETTEER},
            "messages line 3: a message must be a JSON object", id="annotate.not-an-object",
        ),
        pytest.param(
            ["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl"],
            {"msgs.jsonl": MESSAGE + DEEP + "\n", "gaz.tsv": GAZETTEER},
            "messages line 2: maximum recursion depth exceeded", id="annotate.nested-too-deep",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": NO_AUTHOR},
            "messages line 1: a message needs a string 'author'", id="aggregate.no-author",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": "[1,2]\n"},
            "messages line 1: a message must be a JSON object", id="aggregate.not-an-object",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": MESSAGE + DEEP + "\n"},
            "messages line 2: maximum recursion depth exceeded", id="aggregate.nested-too-deep",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": MESSAGE.replace('"a"', "5")},
            "messages line 1: a message needs a string 'author', got 5", id="aggregate.author-int",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"],
            {"msgs.jsonl": MESSAGE.replace("2015-06-01T10:00:00Z", "0001-01-01T00:00:00+01:00")},
            "messages line 1: ", id="aggregate.ts-out-of-range",
        ),
        pytest.param(
            ["gaps", "--in", "daily.csv"], {"daily.csv": SERIES_CSV + "2015-06-06,x,ok\n"},
            "row 7", id="gaps.malformed-row",
        ),
        pytest.param(
            ["gaps", "--in", "daily.csv"], {"daily.csv": SERIES_CSV + "2015-06-06,-5,ok\n"},
            "negative value -5 on 2015-06-06", id="gaps.negative-count",
        ),
        pytest.param(
            ["gaps", "--in", "daily.csv"], {"daily.csv": SERIES_CSV + "2015-06-06,1_0,ok\n"},
            "row 7: bad count or flag ['1_0', 'ok']", id="gaps.underscore-count",
        ),
        pytest.param(
            ["correlate", "--series", "s=series.csv", "--price", "price.csv", "--volume", "volume.csv"],
            {"series.csv": SERIES_CSV, "price.csv": "date,value\n2015-06-01,abc\n", "volume.csv": MARKET_CSV},
            "row 2", id="correlate.malformed-price",
        ),
        pytest.param(
            ["correlate", "--series", "a=series.csv", "--series", "a=series.csv", "--price", "market.csv",
             "--volume", "market.csv"],
            {"series.csv": SERIES_CSV, "market.csv": MARKET_CSV},
            "stream 'a' is given twice", id="correlate.repeated-stream",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": '{"rows": 5}'},
            "a report must be a JSON object with a 'rows' list", id="report.rows-not-a-list",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": "[]"},
            "a report must be a JSON object with a 'rows' list", id="report.not-an-object",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": DEEP},
            "a report must not nest past the recursion limit", id="report.nested-too-deep",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": '{"rows": [{"stream_id": "s"}]}'},
            "a report row must be an object", id="report.row-keys",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [{**REPORT_ROW, "r_volume": [1]}]})},
            "report row 1: 'r_volume' must be float | None, got [1]", id="report.r-not-a-number",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [REPORT_ROW, {**REPORT_ROW, "total_messages": "x"}]})},
            "report row 2: 'total_messages' must be int, got 'x'", id="report.total-not-an-int",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [REPORT_ROW, REPORT_ROW]})},
            "report row 2: 'stream_id' 's' repeats an earlier row's", id="report.repeated-stream",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [{**REPORT_ROW, "r_volume": math.nan}]})},
            "report row 1: 'r_volume' must be in [-1, 1], got nan", id="report.r-nan",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [REPORT_ROW, {**REPORT_ROW, "r_volume": -1.5}]})},
            "report row 2: 'r_volume' must be in [-1, 1], got -1.5", id="report.r-below-range",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [{**REPORT_ROW, "r_price": 7.5, "r_price_error": None}]})},
            "report row 1: 'r_price' must be in [-1, 1], got 7.5", id="report.r-above-range",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [{**REPORT_ROW, "r_price": 0.5}]})},
            "report row 1: exactly one of 'r_price' and 'r_price_error' must be null", id="report.r-and-error",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [{**REPORT_ROW, "r_volume": None}]})},
            "report row 1: exactly one of 'r_volume' and 'r_volume_error' must be null", id="report.neither-r-nor-error",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [{**REPORT_ROW, "r_price_error": "Whatever"}]})},
            "report row 1: 'r_price_error' must be one of", id="report.unknown-error-name",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [{**REPORT_ROW, "total_messages": -4}]})},
            "report row 1: 'total_messages' must not be negative, got -4", id="report.negative-total",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [{**REPORT_ROW, "n_days": -3}]})},
            "report row 1: 'n_days' must not be negative, got -3", id="report.negative-n-days",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [{**REPORT_ROW, "policy": "none"}]})},
            "report row 1: 'policy' must be 'all-days' or 'exclude-outages', got 'none'", id="report.unknown-policy",
        ),
        pytest.param(
            ["parse-irc", "--channel", "nohash", "--in", "chan.log"], {"chan.log": ""},
            "'channel' must begin with '#', got ", id="parse-irc.channel-empty-log",
        ),
        pytest.param(
            ["plot-series", "--series", "series.csv", "--market", "volume.csv"],
            {"series.csv": SERIES_CSV, "volume.csv": MARKET_CSV},
            "only 2 shared dates", id="plot-series.too-little-overlap",
        ),
        pytest.param(
            ["parse-irc", "--channel", LONG, "--in", "chan.log"], {"chan.log": IRC_LOG},
            "'channel' must begin with '#', got ", id="parse-irc.channel-long",
        ),
        pytest.param(
            ["parse-irc", "--channel", "#x", "--tz", LONG, "--in", "chan.log"], {"chan.log": IRC_LOG},
            "unknown time zone", id="parse-irc.tz-long",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", f"{LONG},#", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "Bitcoin rally") + "\n"}, "unpadded words", id="ingest-tweets.keywords-blank-long",
        ),
        pytest.param(
            ["ingest-tweets", "--keywords", f"{LONG} {LONG}", "--in", "cap.jsonl"],
            {"cap.jsonl": _tweet_line(1, "Bitcoin rally") + "\n"}, "no whitespace", id="ingest-tweets.keywords-phrase-long",
        ),
        pytest.param(
            ["correlate", "--series", LONG, "--price", "price.csv", "--volume", "volume.csv"],
            {"price.csv": MARKET_CSV, "volume.csv": MARKET_CSV}, "--series wants", id="correlate.series-long",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": MESSAGE + MESSAGE.replace('"s"', json.dumps(LONG))},
            "input mixes streams", id="aggregate.mixed-streams-long",
        ),
        pytest.param(["gaps", "--in", "series.csv"], {"series.csv": f"{LONG}\n"}, "expected header", id="gaps.header-long"),
        pytest.param(
            ["gaps", "--in", "series.csv"], {"series.csv": f"date,count,flag\n{LONG},1,ok\n"}, "bad date", id="gaps.date-long",
        ),
        pytest.param(
            ["gaps", "--in", "series.csv"], {"series.csv": f"date,count,flag\n2015-06-01,{LONG},ok\n"},
            "bad count or flag", id="gaps.count-long",
        ),
        pytest.param(
            ["gaps", "--in", "series.csv"], {"series.csv": f"date,count,flag\n2015-06-01,-{'1' * 2000},ok\n"},
            "negative value", id="gaps.negative-count-long",
        ),
        pytest.param(
            ["gaps", "--in", "series.csv"], {"series.csv": PAST_FLOAT_CSV},
            "row 2: count past the range of a float '1000", id="gaps.count-past-float",
        ),
        pytest.param(
            ["correlate", "--series", "s=series.csv", "--price", "market.csv", "--volume", "market.csv"],
            {"series.csv": PAST_FLOAT_CSV,
             "market.csv": "date,value\n" + "".join(f"2015-06-0{d},{d}\n" for d in range(1, 6))},
            "row 2: count past the range of a float '1000", id="correlate.count-past-float",
        ),
        pytest.param(
            ["plot-series", "--series", "series.csv", "--market", "volume.csv"],
            {"series.csv": SERIES_CSV, "volume.csv": f"date,value\n2015-06-01,{LONG}\n"},
            "bad value", id="plot-series.market-value-long",
        ),
        pytest.param(
            ["report", "--in", "report.json"],
            {"report.json": json.dumps({"rows": [{**REPORT_ROW, "total_messages": -10**2000}]})},
            "'total_messages' must not be negative", id="report.negative-total-long",
        ),
        pytest.param(
            ["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [{**REPORT_ROW, LONG: 1}]})},
            "a report row must be an object", id="report.row-keys-long",
        ),
        pytest.param(
            ["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": MESSAGE.replace("2015-06-01T10:00:00Z", f"2015-{LONG}")},
            "messages line 1: bad ts '2015-xxx", id="aggregate.ts-long",
        ),
        pytest.param(
            ["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl"],
            {"gaz.tsv": GAZETTEER, "msgs.jsonl": MESSAGE + MESSAGE.replace("2015-06-01T10:00:00Z", f"2015-{LONG}")},
            "messages line 2: bad ts '2015-xxx", id="annotate.ts-long",
        ),
        pytest.param(
            ["annotate", "--gazetteer", LONG_GAZETTEER, "--in", "msgs.jsonl"],
            {"msgs.jsonl": MESSAGE, LONG_GAZETTEER: "bitcoin\tcrypto\n"},
            f"'{'g' * 39}:1: expected surface", id="annotate.gazetteer-path-long",
        ),
        pytest.param(
            ["parse-irc", "--channel", "#x", "--in", LONG], {}, "File name too long: 'xxx", id="parse-irc.in-long",
        ),
        # The case's own --out, a path of about 2,000 characters under a directory that does not exist.
        pytest.param(
            ["parse-irc", "--channel", "#x", "--in", "chan.log", "--out", "missing/" + "d/" * 1000 + "out.txt"],
            {"chan.log": IRC_LOG}, "No such file or directory: 'missing/d/", id="parse-irc.out-long",
        ),
    ],
)
def test_failed_subcommand_leaves_no_output(tmp_path, capsys, monkeypatch, argv, inputs, error):
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        Path(name).write_text(text, encoding="utf-8")
    if "--out" not in argv:
        argv = argv + ["--out", "out.txt"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinbuzz: error: ")
    assert error in err
    # A value is quoted cut short, however large it is.
    assert len(err) < 200
    assert not Path("out.txt").exists()
    assert not Path("out.txt.partial").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


# A lone surrogate (an unscrubbed `\ud800` escape) is no text that UTF-8 can write, and no stage writes one.
@pytest.mark.parametrize("field", ["stream_id", "author", "text"])
@pytest.mark.parametrize("argv", [["annotate", "--gazetteer", "gaz.tsv"], ["aggregate"]], ids=["annotate", "aggregate"])
def test_a_messages_line_with_a_lone_surrogate_is_fatal(tmp_path, capsys, monkeypatch, argv, field):
    monkeypatch.chdir(tmp_path)
    bad = json.dumps({**json.loads(MESSAGE), field: "bad \ud800 x"})
    assert "\\ud800" in bad
    Path("gaz.tsv").write_text(GAZETTEER, encoding="utf-8")
    Path("msgs.jsonl").write_text(MESSAGE + bad + "\n", encoding="utf-8")
    assert main(argv + ["--in", "msgs.jsonl", "--out", "out.txt"]) == 2
    assert capsys.readouterr().err == f"coinbuzz: error: messages line 2: {field!r} holds a lone surrogate\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gaz.tsv", "msgs.jsonl"]


# A gazetteer byte that is not UTF-8 is named by the gazetteer's path and line, in `annotate` and run-all alike.
def test_annotate_and_run_all_name_the_gazetteer_line_that_is_not_utf8(tmp_path, capsys, monkeypatch):
    config_path, out_dir = _run_all_workspace(tmp_path)
    monkeypatch.chdir(tmp_path)
    Path("gaz.tsv").write_bytes(b"bitcoin\tcrypto\tcoin\n\n#btc\tcrypto\ttag\xff\n")
    config = json.loads(config_path.read_text())
    config["gazetteer"] = "gaz.tsv"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    run_all_err = capsys.readouterr().err
    Path("msgs.jsonl").write_text(MESSAGE, encoding="utf-8")
    assert main(["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl", "--out", "out.jsonl"]) == 2
    annotate_err = capsys.readouterr().err
    assert annotate_err == run_all_err == "coinbuzz: error: 'gaz.tsv':3: not UTF-8\n"
    assert list(out_dir.iterdir()) == [] and not Path("out.jsonl").exists()


# --- run-all -----------------------------------------------------------------

def _run_all_workspace(tmp_path):
    capture = tmp_path / "cap.jsonl"
    tweets = []
    tweet_id = 0
    for day in range(1, 6):
        for _ in range(3 + day):
            tweet_id += 1
            # json.dumps escapes the ellipsis to … on the wire, which is
            # exactly what the sanitizer has to scrub.
            tweets.append(_tweet_line(tweet_id, "Bitcoin talk… here", day=day))
    capture.write_text("\n".join(tweets) + "\n", encoding="utf-8")

    irc_log = tmp_path / "chan.log"
    lines = []
    for day in range(1, 6):
        for i in range(2 * day):
            lines.append(f"[Mon Jun {day} 2015] [10:00:{i:02d}] <n{i}>\tbitcoin chat")
        lines.append(f"[Mon Jun {day} 2015] [11:00:00] *** Quit: n0 left")
    irc_log.write_text("\n".join(lines) + "\n", encoding="utf-8")

    _write_market(tmp_path / "price.csv", [230.0, 231.5, 229.0, 228.0, 232.0])
    _write_market(tmp_path / "volume.csv", [40.0, 50.0, 60.0, 70.0, 80.0])
    gaz = tmp_path / "gaz.tsv"
    gaz.write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")

    config = {
        "out_dir": str(tmp_path / "out"),
        "tweet_captures": [str(capture)],
        "irc_logs": [{"path": str(irc_log), "channel": "#bitcoin"}],
        "price_csv": str(tmp_path / "price.csv"),
        "volume_csv": str(tmp_path / "volume.csv"),
        "gazetteer": str(gaz),
        "format": "tsv",
        "plots": [{"series": "twitter", "metric": "volume"}],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path, tmp_path / "out"


def test_run_all_composes_pipeline(tmp_path):
    config_path, out_dir = _run_all_workspace(tmp_path)
    assert main(["run-all", "--config", str(config_path)]) == 0

    report = json.loads((out_dir / "report.json").read_text())
    by_stream = {row["stream_id"]: row for row in report["rows"]}
    assert by_stream["twitter"]["total_messages"] == sum(3 + d for d in range(1, 6))
    assert by_stream["irc:#bitcoin"]["total_messages"] == sum(2 * d for d in range(1, 6))
    # IRC counts were engineered proportional to volume.
    assert by_stream["irc:#bitcoin"]["r_volume"] == 1.0

    assert (out_dir / "report.tsv").exists()
    assert (out_dir / "annotated.jsonl").exists()
    assert (out_dir / "plot_twitter_volume.csv").exists()
    series_text = (out_dir / "series_twitter.csv").read_text()
    assert series_text.startswith("date,count,flag\n")
    # Sanitized escape: the stored text carries spaces, not the ellipsis.
    messages = (out_dir / "messages_twitter.jsonl").read_text()
    assert "\\u2026" not in messages
    assert "…" not in messages
    assert "Bitcoin talk       here" in messages


def test_run_all_is_deterministic(tmp_path):
    config_path, out_dir = _run_all_workspace(tmp_path)
    assert main(["run-all", "--config", str(config_path)]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert main(["run-all", "--config", str(config_path)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert first == second


def test_run_all_window_filters_messages(tmp_path):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    config["window"] = {"start": "2015-06-02", "end": "2015-06-04"}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    by_stream = {row["stream_id"]: row for row in report["rows"]}
    assert by_stream["twitter"]["total_messages"] == sum(3 + d for d in range(2, 5))


def test_run_all_missing_config_is_fatal(tmp_path):
    assert main(["run-all", "--config", str(tmp_path / "absent.json")]) == 2


def _run_all_outputs(config_path, out_dir, **changes):
    config = json.loads(config_path.read_text())
    config.update(changes)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["run-all", "--config", str(config_path)])
    outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    for path in out_dir.iterdir():
        path.unlink()
    return code, outputs


def test_run_all_dedupes_a_capture_listed_twice(tmp_path):
    config_path, out_dir = _run_all_workspace(tmp_path)
    capture = json.loads(config_path.read_text())["tweet_captures"][0]
    once = _run_all_outputs(config_path, out_dir)
    twice = _run_all_outputs(config_path, out_dir, tweet_captures=[capture, capture])
    assert once[0] == twice[0] == 0
    assert once[1] == twice[1]


def test_run_all_dedupes_ids_shared_across_captures(tmp_path):
    config_path, out_dir = _run_all_workspace(tmp_path)
    capture = tmp_path / "cap.jsonl"
    lines = capture.read_text(encoding="utf-8").splitlines()
    # Split the capture in two rotated files that overlap by three tweets.
    first, second = tmp_path / "cap_a.jsonl", tmp_path / "cap_b.jsonl"
    first.write_text("\n".join(lines[:15]) + "\n", encoding="utf-8")
    second.write_text("\n".join(lines[12:]) + "\n", encoding="utf-8")
    whole = _run_all_outputs(config_path, out_dir)
    split = _run_all_outputs(config_path, out_dir, tweet_captures=[str(first), str(second)])
    assert whole[0] == split[0] == 0
    assert whole[1] == split[1]


@pytest.mark.parametrize(
    "drop, key",
    [
        (lambda c: c.pop("price_csv"), "price_csv"),
        (lambda c: c.pop("volume_csv"), "volume_csv"),
        (lambda c: c["irc_logs"][0].pop("path"), "path"),
        (lambda c: c["irc_logs"][0].pop("channel"), "channel"),
        (lambda c: c["plots"][0].pop("series"), "series"),
        (lambda c: c["plots"][0].pop("metric"), "metric"),
        (lambda c: c["plots"][0].update(metric="cap"), "cap"),
        (lambda c: c.update(window={"end": "2015-06-04"}), "start"),
        (lambda c: c.update(window={"start": "2015-06-02"}), "end"),
        (lambda c: c.update(window={"start": 20150602, "end": "2015-06-04"}), 20150602),
        (lambda c: c["irc_logs"][0].update(tz="Mars/Base"), "Mars/Base"),
        (lambda c: c["plots"][0].update(series="irc:#typo"), "irc:#typo"),
        # Both ids have the slug irc_a_b, so they would write one messages file.
        (lambda c: c["irc_logs"].extend(
            [{"path": c["irc_logs"][0]["path"], "channel": ch} for ch in ("#a-b", "#a_b")]
        ), "irc:#a_b"),
        (lambda c: c.update(exlude_outages=True), "exlude_outages"),
        (lambda c: c.update(windw={"start": "2015-06-02", "end": "2015-06-04"}), "windw"),
        (lambda c: c["irc_logs"][0].update(timezone="UTC"), "timezone"),
        (lambda c: c["plots"][0].update(metrc="price"), "metrc"),
        (lambda c: c.update(window={"start": "2015-06-02", "end": "2015-06-04", "tz": "UTC"}), "tz"),
        (lambda c: c.update(window={"start": "2015-06-31", "end": "2015-06-04"}), "start"),
        # Values of the wrong type.
        (lambda c: c.update(theta=None), "theta"),
        (lambda c: c.update(out_dir=5), "out_dir"),
        (lambda c: c.update(price_csv=1), "price_csv"),
        (lambda c: c["irc_logs"][0].update(channel=5), "channel"),
        (lambda c: c.update(gazetteer=3), "gazetteer"),
        (lambda c: c.update(tweet_captures="cap.jsonl"), "tweet_captures"),
        (lambda c: c.update(k=7.9), "k"),
        (lambda c: c.update(k="7"), "k"),
        (lambda c: c.update(k=True), "k"),
        (lambda c: c.update(strict="false"), "strict"),
        (lambda c: c.update(keywords="bitcoin"), "keywords"),
        # Values a later stage would reject only after output is written.
        (lambda c: c.update(theta=2), "theta"),
        (lambda c: c.update(k=0), "k"),
        (lambda c: c.update(format="html"), "format"),
        (lambda c: c.update(keywords=[]), "keywords"),
        (lambda c: c.update(keywords=["bitcoin", ""]), "keywords"),
        (lambda c: c.update(keywords=["bitcoin", " btc"]), "keywords"),
        (lambda c: c.update(keywords=["#"]), "keywords"),
        (lambda c: c.update(keywords=["# btc"]), "keywords"),
        (lambda c: c.update(keywords=["bitcoin cash"]), "keywords"),
        (lambda c: c.update(keywords=json.loads("[" * 900 + "]" * 900)), "keywords"),
        (lambda c: c["irc_logs"][0].update(channel="c"), "channel"),
        (lambda c: c.update(window={"start": "2015-06-05", "end": "2015-06-01"}), "window"),
        (lambda c: c.update(irc_logs=["x" * 2000]), "irc_logs"),
        # Both would fail only after out_dir exists.
        (lambda c: c["plots"].append(dict(c["plots"][0])), "plots"),
        (lambda c: c.update(tweet_captures=[], irc_logs=[]), "tweet_captures"),
        (lambda c: c.update(tweet_captures=[], irc_logs=[]), "irc_logs"),
        # Values of 2,000 characters, which the error quotes cut short.
        (lambda c: c["plots"][0].update(series=LONG), LONG),
        (lambda c: c["irc_logs"][0].update(channel=LONG), LONG),
        (lambda c: c["irc_logs"].extend(
            [{"path": c["irc_logs"][0]["path"], "channel": f"#{LONG}{sep}b"} for sep in "-_"]
        ), f"irc:#{LONG}-b"),
        (lambda c: c["irc_logs"][0].update(tz=LONG), LONG),
        (lambda c: c.update(keywords=["bitcoin", f"#{LONG} "]), "keywords"),
        (lambda c: c.update(keywords=[f"{LONG} {LONG}"]), "keywords"),
        (lambda c: c.update({LONG: True}), LONG),
        (lambda c: c.update(k=-10**2000), "k"),
        (lambda c: c.update(theta=10**400), "theta"),
    ],
    ids=[
        "price_csv", "volume_csv", "irc_logs.path", "irc_logs.channel", "plots.series",
        "plots.metric", "plots.metric-unknown", "window.start", "window.end",
        "window.not-a-string", "irc_logs.tz-unknown", "plots.series-unknown",
        "irc_logs.slug-collision", "unknown-key", "unknown-key.windw",
        "irc_logs.unknown-key", "plots.unknown-key", "window.unknown-key",
        "window.not-a-date", "theta.null", "out_dir.int", "price_csv.int", "irc_logs.channel-int",
        "gazetteer.int", "tweet_captures.string", "k.float", "k.string", "k.bool", "strict.string",
        "keywords.string", "theta.range", "k.range", "format.unknown", "keywords.empty",
        "keywords.blank", "keywords.padded", "keywords.hash-only", "keywords.padded-after-hash",
        "keywords.phrase-as-word", "keywords.nested-deep",
        "irc_logs.channel-no-hash", "window.reversed", "irc_logs.entry-not-a-table",
        "plots.repeated", "no-stream.tweet_captures", "no-stream.irc_logs",
        "plots.series-long", "irc_logs.channel-long", "irc_logs.slug-collision-long",
        "irc_logs.tz-long", "keywords.padded-long", "keywords.phrase-as-word-long",
        "unknown-key.long", "k.range-long", "theta.past-float-range",
    ],
)
def test_run_all_missing_required_key_is_fatal(tmp_path, capsys, drop, key):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    drop(config)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinbuzz: error: ")
    # A value is quoted cut to 40 characters, however large it is.
    assert repr(key)[:40] in err
    assert len(err) < 200
    # The config is checked before anything is written.
    assert not out_dir.exists()


# `gaps` and run-all hold one rule for theta and k, so a value that breaks it gives one error line.
@pytest.mark.parametrize(
    "key, value", [("theta", 2), ("theta", 0), ("theta", math.nan), ("k", 0)], ids=["theta-2", "theta-0", "theta-nan", "k-0"]
)
def test_gaps_and_run_all_reject_a_gap_arg_with_one_error_line(tmp_path, capsys, key, value):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    config[key] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    run_all_err = capsys.readouterr().err
    daily = tmp_path / "daily.csv"
    daily.write_text("date,count,flag\n2015-06-01,5,ok\n", encoding="utf-8")
    flagged = tmp_path / "flagged.csv"
    assert main(["gaps", "--in", str(daily), "--out", str(flagged), f"--{key}", str(value)]) == 2
    gaps_err = capsys.readouterr().err
    assert gaps_err == run_all_err
    # Each names the value, as the option or the config gives it to the stage.
    named = repr(float(value)) if key == "theta" else repr(value)
    assert gaps_err.startswith(f"coinbuzz: error: {key!r} must be ")
    assert gaps_err.endswith(f", got {named}\n")
    assert not out_dir.exists() and not flagged.exists()


# `parse-irc` and run-all hold one rule for a channel, so a channel that breaks it gives one error line.
@pytest.mark.parametrize("channel", ["c", "", LONG], ids=["no-hash", "empty", "long"])
def test_parse_irc_and_run_all_reject_a_channel_with_one_error_line(tmp_path, capsys, channel):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    config["irc_logs"][0]["channel"] = channel
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    run_all_err = capsys.readouterr().err
    messages = tmp_path / "messages.jsonl"
    argv = ["parse-irc", "--channel", channel, "--in", config["irc_logs"][0]["path"], "--out", str(messages)]
    assert main(argv) == 2
    parse_irc_err = capsys.readouterr().err
    assert parse_irc_err == run_all_err == f"coinbuzz: error: 'channel' must begin with '#', got {channel!r:.40}\n"
    assert not out_dir.exists() and not messages.exists()


# A tab, CR or LF splits a TSV row and '|', CR or LF a Markdown row, so `report` and run-all refuse
# a stream id that holds one, with one error line, before they write anything.
@pytest.mark.parametrize(
    "fmt, channel", [("tsv", "#a\tb"), ("tsv", f"#a{LONG}\nb"), ("markdown", "#a|b"), ("markdown", "#a\rb")],
    ids=["tsv-tab", "tsv-newline-long", "markdown-bar", "markdown-cr"],
)
def test_report_and_run_all_refuse_a_stream_id_that_breaks_the_table(tmp_path, capsys, fmt, channel):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    config["irc_logs"][0]["channel"] = channel
    config["format"] = fmt
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    run_all_err = capsys.readouterr().err
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"rows": [{**REPORT_ROW, "stream_id": f"irc:{channel}"}]}), encoding="utf-8")
    table = tmp_path / "table.txt"
    assert main(["report", "--in", str(report), "--format", fmt, "--out", str(table)]) == 2
    report_out, report_err = capsys.readouterr()
    assert report_err == run_all_err
    assert report_err.startswith(f"coinbuzz: error: stream id {repr(f'irc:{channel}')[:40]} ")
    assert len(report_err) < 200
    assert report_out == ""
    assert not out_dir.exists() and not table.exists() and not Path(f"{table}.partial").exists()


@pytest.mark.parametrize(
    "name, text",
    [("config.json", '{{"out_dir": {out_dir}, "keywords": {deep}}}'), ("config.toml", "out_dir = {out_dir}\nkeywords = {deep}\n")],
    ids=["json", "toml"],
)
def test_run_all_config_nested_past_the_recursion_limit_is_fatal(tmp_path, capsys, name, text):
    out_dir = tmp_path / "out"
    # A long file name, which the error line quotes cut short.
    config_path = tmp_path / ("c" * 240 + name)
    config_path.write_text(text.format(out_dir=json.dumps(str(out_dir)), deep=DEEP), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coinbuzz: error: ")
    if name == "config.json" or sys.version_info >= (3, 11):
        assert "must not nest past the recursion limit" in err
    assert len(err) < 200
    assert not out_dir.exists()


def test_run_all_counts_a_capture_line_nested_past_the_recursion_limit_as_malformed(tmp_path, capsys):
    config_path, out_dir = _run_all_workspace(tmp_path)
    clean = _run_all_outputs(config_path, out_dir)
    capture = Path(json.loads(config_path.read_text())["tweet_captures"][0])
    lines = capture.read_text(encoding="utf-8").splitlines(keepends=True)
    capture.write_text("".join(lines[:4] + [DEEP + "\n"] + lines[4:]), encoding="utf-8")
    capsys.readouterr()
    code, outputs = _run_all_outputs(config_path, out_dir)
    assert (clean[0], code) == (0, 1)
    assert "run-all: twitter: lines=31 parsed=30 malformed=1 " in capsys.readouterr().err
    assert outputs == clean[1]


@pytest.mark.parametrize("hashtags", ["null", "5"])
def test_run_all_keeps_a_tweet_whose_hashtags_are_not_a_list(tmp_path, capsys, hashtags):
    config_path, out_dir = _run_all_workspace(tmp_path)
    capture = Path(json.loads(config_path.read_text())["tweet_captures"][0])
    with open(capture, "a", encoding="utf-8") as out:
        out.write(NULL_HASHTAGS_LINE.replace('"id": 1,', '"id": 100,').replace("null", hashtags) + "\n")
    capsys.readouterr()
    assert main(["run-all", "--config", str(config_path)]) == 0
    texts = [json.loads(line)["text"] for line in (out_dir / "messages_twitter.jsonl").read_text().splitlines()]
    assert texts.count("bitcoin x") == 1
    assert "run-all: twitter: lines=31 parsed=31 malformed=0 " in capsys.readouterr().err


def test_run_all_counts_a_time_out_of_range_in_utc_as_a_bad_line(tmp_path, capsys):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    tz, log_line = OUT_OF_RANGE_LOG_LINES[0]
    config["irc_logs"][0]["tz"] = tz
    config_path.write_text(json.dumps(config), encoding="utf-8")
    clean = _run_all_outputs(config_path, out_dir)
    with open(config["tweet_captures"][0], "a", encoding="utf-8") as out:
        for n, created_at in enumerate(OUT_OF_RANGE_CREATED_AT):
            out.write(_tweet_line(100 + n, "bitcoin", created_at=created_at) + "\n")
    with open(config["irc_logs"][0]["path"], "a", encoding="utf-8") as out:
        out.write(log_line)
    capsys.readouterr()
    code, outputs = _run_all_outputs(config_path, out_dir)
    assert (clean[0], code) == (0, 1)
    err = capsys.readouterr().err
    assert "run-all: twitter: lines=32 parsed=30 malformed=2 " in err
    assert " unparsable=1 " in err
    assert outputs == clean[1]


def _malformed_price(config):
    Path(config["price_csv"]).write_text("date,value\n2015-06-01,abc\n", encoding="utf-8")


def _strict_abort(config):
    # The tweets and the log's first lines are written before the bad line.
    log = Path(config["irc_logs"][0]["path"])
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text("".join(lines[:5] + ["garbage\n"] + lines[5:]), encoding="utf-8")
    config["strict"] = True


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
@pytest.mark.parametrize("fault", [_malformed_price, _strict_abort], ids=["price_csv", "strict"])
def test_run_all_fatal_leaves_no_file_of_its_run(tmp_path, capsys, fault, rerun):
    config_path, out_dir = _run_all_workspace(tmp_path)
    before = {}
    if rerun:
        assert main(["run-all", "--config", str(config_path)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    config = json.loads(config_path.read_text())
    # Had it gone through, the rerun would have rewritten every file with other bytes.
    config["window"] = {"start": "2015-06-02", "end": "2015-06-04"}
    fault(config)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["run-all", "--config", str(config_path)]) == 2
    assert "coinbuzz: error: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


class _Fault:
    """Counts its calls and raises an OSError at the k-th."""

    def __init__(self, k: int):
        self.k, self.calls = k, 0

    def __call__(self) -> None:
        self.calls += 1
        if self.calls == self.k:
            raise OSError(errno.EIO, "injected fault")


class _FaultyFile:
    """A file opened for writing, whose every write calls `fault` first."""

    def __init__(self, file, fault: _Fault):
        self._file, self._fault = file, fault

    def write(self, text: str) -> int:
        self._fault()
        return self._file.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def __getattr__(self, name: str):
        return getattr(self._file, name)


def _inject(patch: pytest.MonkeyPatch, step: str, fault: _Fault) -> None:
    """Call `fault` before each rename, or before each write to a file opened for writing."""
    if step == "rename":
        replace = os.replace
        patch.setattr(os, "replace", lambda *args, **kwargs: fault() or replace(*args, **kwargs))
    else:
        real_open = open

        def faulty_open(file, mode="r", *args, **kwargs):
            opened = real_open(file, mode, *args, **kwargs)
            return _FaultyFile(opened, fault) if "w" in mode else opened

        patch.setattr("builtins.open", faulty_open)


@pytest.mark.parametrize("step", ["rename", "write"])
def test_run_all_commits_every_file_or_none_whichever_step_fails(tmp_path, capsys, monkeypatch, step):
    # Two streams, plots and a gazetteer: every kind of file run-all writes.
    config_path, out_dir = _run_all_workspace(tmp_path)
    assert main(["run-all", "--config", str(config_path)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    config = json.loads(config_path.read_text())
    # Had it gone through, the rerun would have rewritten every file with other bytes and written one more plot.
    config["window"] = {"start": "2015-06-02", "end": "2015-06-04"}
    config["plots"].append({"series": "irc:#bitcoin", "metric": "price"})
    config_path.write_text(json.dumps(config), encoding="utf-8")
    mixed = []
    for k in itertools.count(1):
        fault = _Fault(k)
        capsys.readouterr()
        with monkeypatch.context() as patch:
            _inject(patch, step, fault)
            code = main(["run-all", "--config", str(config_path)])
        if fault.calls < k:  # the run took fewer steps than k and went through
            break
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("coinbuzz: error: ")]
        if (code, len(errors), {p.name: p.read_bytes() for p in out_dir.iterdir()}) != (2, 1, before):
            mixed.append(k)
    assert mixed == []
    assert code == 0 and k > 8
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(after) == sorted([*before, "plot_irc_bitcoin_price.csv"])
    assert all(after[name] != before[name] for name in before)


def test_run_all_onto_a_directory_is_fatal_and_leaves_the_earlier_files(tmp_path, capsys):
    config_path, out_dir = _run_all_workspace(tmp_path)
    assert main(["run-all", "--config", str(config_path)]) == 0
    in_the_way = out_dir / "messages_irc_bitcoin.jsonl"
    in_the_way.unlink()
    (in_the_way / "kept").mkdir(parents=True)
    before = sorted((p.relative_to(out_dir), p.is_dir() or p.read_bytes()) for p in out_dir.rglob("*"))
    config = json.loads(config_path.read_text())
    config["window"] = {"start": "2015-06-02", "end": "2015-06-04"}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["run-all", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.endswith("\ncoinbuzz: error: Is a directory: "
                                            f"{f'{in_the_way}.partial'!r:.40} -> {str(in_the_way)!r:.40}\n")
    assert sorted((p.relative_to(out_dir), p.is_dir() or p.read_bytes()) for p in out_dir.rglob("*")) == before


# Each subcommand that writes an --out file, with inputs it succeeds on.
FIVE_DAY_MARKET = "date,value\n" + "".join(f"2015-06-0{d},{d}\n" for d in range(1, 6))
OUT_CASES = {
    "parse-irc": (["parse-irc", "--channel", "#x", "--in", "chan.log"], {"chan.log": IRC_LOG}),
    "ingest-tweets": (["ingest-tweets", "--in", "cap.jsonl"], {"cap.jsonl": _tweet_line(1, "bitcoin up") + "\n"}),
    "annotate": (["annotate", "--gazetteer", "gaz.tsv", "--in", "msgs.jsonl"],
                 {"msgs.jsonl": MESSAGE, "gaz.tsv": GAZETTEER}),
    "aggregate": (["aggregate", "--in", "msgs.jsonl"], {"msgs.jsonl": MESSAGE}),
    "gaps": (["gaps", "--in", "daily.csv"], {"daily.csv": SERIES_CSV}),
    "correlate": (["correlate", "--series", "s=daily.csv", "--price", "market.csv", "--volume", "market.csv"],
                  {"daily.csv": SERIES_CSV, "market.csv": FIVE_DAY_MARKET}),
    "report": (["report", "--in", "report.json"], {"report.json": json.dumps({"rows": [REPORT_ROW]})}),
    "plot-series": (["plot-series", "--series", "daily.csv", "--market", "market.csv"],
                    {"daily.csv": SERIES_CSV, "market.csv": FIVE_DAY_MARKET}),
}


def _out_workspace(tmp_path: Path, command: str) -> tuple[list[str], bytes]:
    """The argv of `command` without --out, in `tmp_path` with its inputs and an earlier
    `out.txt`, and the bytes that it writes to a fresh --out file, which is removed."""
    argv, inputs = OUT_CASES[command]
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([*argv, "--out", str(tmp_path / "fresh.txt")]) == 0
    fresh = (tmp_path / "fresh.txt").read_bytes()
    (tmp_path / "fresh.txt").unlink()
    (tmp_path / "out.txt").write_text("earlier\n", encoding="utf-8")
    return argv, fresh


@pytest.mark.parametrize("command", sorted(OUT_CASES))
def test_a_subcommand_commits_its_out_file_with_one_rename(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv, fresh = _out_workspace(tmp_path, command)
    # The backup directory that a killed run-all leaves: moving the earlier file aside would fail on it.
    (tmp_path / ".run-all-backup").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    renames = _Fault(0)  # counts, never raises
    with monkeypatch.context() as patch:
        _inject(patch, "rename", renames)
        assert main([*argv, "--out", "out.txt"]) == 0
    assert renames.calls == 1
    assert (tmp_path / "out.txt").read_bytes() == fresh
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / ".run-all-backup").iterdir()) == []


@pytest.mark.parametrize("step", ["rename", "write"])
@pytest.mark.parametrize("command", sorted(OUT_CASES))
def test_a_subcommand_whose_commit_fails_leaves_the_earlier_file(tmp_path, capsys, monkeypatch, command, step):
    monkeypatch.chdir(tmp_path)
    argv, _ = _out_workspace(tmp_path, command)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _inject(patch, step, _Fault(1))
        assert main([*argv, "--out", "out.txt"]) == 2
    assert capsys.readouterr().err.endswith("coinbuzz: error: [Errno 5] injected fault\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_run_all_reports_a_malformed_market_csv_before_the_ingest(tmp_path, capsys):
    # Both faults are fatal; the market CSVs are read first, so their row is the one named.
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    _malformed_price(config)
    _strict_abort(config)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "coinbuzz: error: row 2: bad value 'abc'\n"
    assert list(out_dir.iterdir()) == []


def test_run_all_with_a_k_past_every_c_size_runs(tmp_path):
    config_path, out_dir = _run_all_workspace(tmp_path)
    wide = _run_all_outputs(config_path, out_dir, k=10**20)
    narrow = _run_all_outputs(config_path, out_dir, k=1_000_000)
    assert wide[0] == narrow[0] == 0
    assert wide[1] == narrow[1]


def test_run_all_drops_a_plot_without_overlap_alone(tmp_path, capsys):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    short_log = tmp_path / "doge.log"
    short_log.write_text(
        "".join(f"[Mon Jun {day} 2015] [09:00:00] <d>\tbitcoin doge\n" for day in (4, 5)), encoding="utf-8"
    )
    config["irc_logs"].append({"path": str(short_log), "channel": "#dogecoin"})
    config["plots"].append({"series": "irc:#dogecoin", "metric": "price"})
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 1
    assert "run-all: plot irc:#dogecoin/price: only 2 shared dates" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "annotated.jsonl", "messages_irc_bitcoin.jsonl", "messages_irc_dogecoin.jsonl",
        "messages_twitter.jsonl", "plot_twitter_volume.csv", "report.json", "report.tsv",
        "series_irc_bitcoin.csv", "series_irc_dogecoin.csv", "series_twitter.csv",
    ]


@pytest.mark.parametrize("window", [None, {"start": "2015-06-02", "end": "2015-06-04"}])
def test_run_all_annotated_equals_annotate_over_each_stream(tmp_path, window):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    second_log = tmp_path / "doge.log"
    second_log.write_text(
        "".join(
            f"[Mon Jun {day} 2015] [09:00:0{i}] <d{i}>\tbitcoin doge\n"
            for day in range(1, 6)
            for i in range(day % 3 + 1)
        ),
        encoding="utf-8",
    )
    config["irc_logs"].append({"path": str(second_log), "channel": "#dogecoin"})
    if window:
        config["window"] = window
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run-all", "--config", str(config_path)]) == 0

    # Source order: the tweet captures, then each IRC log in config order.
    expected = b""
    for slug in ("twitter", "irc_bitcoin", "irc_dogecoin"):
        part = tmp_path / f"annotated_{slug}.jsonl"
        messages = out_dir / f"messages_{slug}.jsonl"
        args = ["annotate", "--in", str(messages), "--gazetteer", config["gazetteer"], "--out", str(part)]
        assert main(args) == 0
        expected += part.read_bytes()
    annotated = (out_dir / "annotated.jsonl").read_bytes()
    assert annotated == expected
    doc_ids = [json.loads(line)["doc_id"] for line in annotated.decode().splitlines()]
    assert doc_ids[0] == "twitter:1"
    assert "irc:#bitcoin:1" in doc_ids and "irc:#dogecoin:1" in doc_ids


def test_run_all_toml_config_equals_its_json_twin(tmp_path, capsys):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = json.loads(config_path.read_text())
    config.update(
        keywords=["bitcoin", "talk"], theta=0.5, k=2, exclude_outages=True,
        window={"start": "2015-06-02", "end": "2015-06-05"},
    )
    config_path.write_text(json.dumps(config), encoding="utf-8")
    q = json.dumps  # a JSON string, or list of strings, is TOML as well
    toml_path = tmp_path / "config.toml"
    toml_path.write_text(
        f"""\
out_dir = {q(str(tmp_path / "out_toml"))}
tweet_captures = {q(config["tweet_captures"])}
price_csv = {q(config["price_csv"])}
volume_csv = {q(config["volume_csv"])}
gazetteer = {q(config["gazetteer"])}
keywords = ["bitcoin", "talk"]
theta = 0.5
k = 2
exclude_outages = true
format = "tsv"
window = {{ start = 2015-06-02, end = "2015-06-05" }}

[[irc_logs]]
path = {q(config["irc_logs"][0]["path"])}
channel = "#bitcoin"

[[plots]]
series = "twitter"
metric = "volume"
""",
        encoding="utf-8",
    )
    code = main(["run-all", "--config", str(toml_path)])
    if sys.version_info < (3, 11):
        assert code == 2
        assert "need Python 3.11+" in capsys.readouterr().err
        assert not (tmp_path / "out_toml").exists()
        return
    assert code == 0
    assert main(["run-all", "--config", str(config_path)]) == 0
    toml_outputs = {p.name: p.read_bytes() for p in sorted((tmp_path / "out_toml").iterdir())}
    json_outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert toml_outputs == json_outputs


def test_run_all_toml_without_tomllib_is_fatal(tmp_path, capsys, monkeypatch):
    toml_path = tmp_path / "config.toml"
    toml_path.write_text(f'out_dir = {json.dumps(str(tmp_path / "out"))}\n', encoding="utf-8")
    monkeypatch.setitem(sys.modules, "tomllib", None)  # as on Python 3.10
    assert main(["run-all", "--config", str(toml_path)]) == 2
    assert capsys.readouterr().err.startswith("coinbuzz: error: TOML configs need Python 3.11+")
    assert not (tmp_path / "out").exists()


def _awkward_capture(config: dict) -> None:
    """Rewrite the capture with CRLF endings, its first two records joined by
    a bare CR, a blank and a malformed line, and a tweet whose text holds
    `\\u005cu00e9`: the byte scrub keeps that ASCII escape, and JSON decodes
    it to the literal text `\\u00e9`, which is scrubbed once more."""
    path = Path(config["tweet_captures"][0])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0:2] = [lines[0] + "\r" + lines[1]]
    escaped = _tweet_line(100, "bitcoin \\u00e9 rally", day=3).replace("\\\\u00e9", "\\u005cu00e9")
    assert "\\u005cu00e9" in escaped
    lines += ["", "{not json", escaped]
    path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))


def _outage_and_market_gap(config: dict) -> None:
    """Drop the IRC chat of 2015-06-03, an interior day, which makes it an
    outage, and the price of 2015-06-02, a day the volume CSV still has."""
    log = Path(config["irc_logs"][0]["path"])
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("[Mon Jun 3 2015] [10:")]
    assert len(kept) == len(lines) - 6
    log.write_text("".join(kept), encoding="utf-8")
    price = Path(config["price_csv"])
    rows = price.read_text(encoding="utf-8")
    assert "2015-06-02,231.5\n" in rows
    price.write_text(rows.replace("2015-06-02,231.5\n", ""), encoding="utf-8")


def _rotated_captures_second_channel(config: dict) -> None:
    """Split the capture in two rotated files, each ending with a newline,
    that share the tweet id of one record; add a second channel's log."""
    path = Path(config["tweet_captures"][0])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first, second = path.with_name("cap_a.jsonl"), path.with_name("cap_b.jsonl")
    first.write_text("".join(lines[:16]), encoding="utf-8")
    second.write_text("".join(lines[15:]), encoding="utf-8")
    config["tweet_captures"] = [str(first), str(second)]
    log = path.with_name("doge.log")
    log.write_text(
        "".join(f"[Mon Jun {day} 2015] [09:00:0{i}] <d{i}>\tdoge\n" for day in range(1, 6) for i in range(day)),
        encoding="utf-8",
    )
    config["irc_logs"].append({"path": str(log), "channel": "#dogecoin"})
    config["plots"].append({"series": "irc:#dogecoin", "metric": "price"})


@pytest.mark.parametrize(
    "overrides, edit",
    [
        pytest.param({}, None, id="defaults"),
        pytest.param(
            {
                "exclude_outages": True,
                "format": "markdown",
                "plots": [{"series": "twitter", "metric": "volume"}, {"series": "irc:#bitcoin", "metric": "price"}],
            },
            None,
            id="exclude-outages-markdown-price-plot",
        ),
        pytest.param({}, _awkward_capture, id="crlf-bare-cr-blank-malformed-escaped-escape"),
        pytest.param(
            {"exclude_outages": True, "plots": [{"series": "irc:#bitcoin", "metric": "price"}]},
            _outage_and_market_gap,
            id="exclude-outages-outage-day-market-gap",
        ),
        pytest.param({}, _rotated_captures_second_channel, id="two-captures-sharing-an-id-two-channels"),
        pytest.param({"window": {"start": "2015-06-02", "end": "2015-06-04"}}, None, id="window"),
    ],
)
def test_run_all_equals_its_subcommand_chain(tmp_path, monkeypatch, overrides, edit):
    config_path, out_dir = _run_all_workspace(tmp_path)
    config = {**json.loads(config_path.read_text()), **overrides}
    if edit is not None:
        edit(config)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_all_code = main(["run-all", "--config", str(config_path)])

    chain = tmp_path / "chain"
    chain.mkdir()

    def c(name: str) -> str:
        return str(chain / name)

    # One ingest-tweets input: each capture sanitized, in config order.
    with open(c("clean.jsonl"), "wb") as clean:
        for capture in config["tweet_captures"]:
            with open(capture, "rb") as raw:
                monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=raw))
                monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=clean))
                assert main(["sanitize"]) == 0
            monkeypatch.undo()
    logs = {f"irc:{entry['channel']}": entry for entry in config["irc_logs"]}
    # A stream's files are named by its id, each run of characters other
    # than ASCII letters and digits turned into "_".
    slugs = {stream_id: re.sub(r"[^A-Za-z0-9]+", "_", stream_id).strip("_") for stream_id in ["twitter", *logs]}
    report_name = "report.md" if config["format"] == "markdown" else "report.tsv"
    steps = [["ingest-tweets", "--in", c("clean.jsonl"), "--out", c("messages_twitter.jsonl")]]
    for stream_id, entry in logs.items():
        steps.append(["parse-irc", "--channel", entry["channel"], "--in", entry["path"],
                      "--out", c(f"messages_{slugs[stream_id]}.jsonl")])
    chain_codes = [main(argv) for argv in steps]
    if "window" in config:  # a window has no subcommand: keep the messages of its days, by their UTC date
        start, end = config["window"]["start"], config["window"]["end"]
        for slug in slugs.values():
            path = Path(c(f"messages_{slug}.jsonl"))
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            kept = [line for line in lines if start <= json.loads(line)["ts"][:10] <= end]
            path.write_text("".join(kept), encoding="utf-8")
    steps = []
    for slug in slugs.values():
        steps.append(["aggregate", "--in", c(f"messages_{slug}.jsonl"), "--out", c(f"daily_{slug}.csv")])
        steps.append(["gaps", "--in", c(f"daily_{slug}.csv"), "--out", c(f"series_{slug}.csv")])
    series_args = []
    for stream_id in sorted(slugs):  # run-all reports its streams in the order of their ids
        series_args += ["--series", f"{stream_id}={c(f'series_{slugs[stream_id]}.csv')}"]
    steps += [
        ["correlate", *series_args, "--price", config["price_csv"], "--volume", config["volume_csv"],
         "--out", c("report.json")]
        + (["--exclude-outages"] if config.get("exclude_outages") else []),
        ["report", "--in", c("report.json"), "--format", config["format"], "--out", c(report_name)],
    ]
    plot_names = []
    for plot in config["plots"]:
        slug, metric = slugs[plot["series"]], plot["metric"]
        plot_names.append(f"plot_{slug}_{metric}.csv")
        steps.append(["plot-series", "--series", c(f"series_{slug}.csv"), "--market", config[f"{metric}_csv"],
                      "--metric", metric, "--out", c(plot_names[-1])])
    chain_codes += [main(argv) for argv in steps]
    # Both sides are partial exactly when some stage is: here, on a malformed capture line.
    assert run_all_code == max(chain_codes) == (1 if edit is _awkward_capture else 0), chain_codes

    # Everything run-all writes but the annotations, which
    # test_run_all_annotated_equals_annotate_over_each_stream covers.
    names = sorted(p.name for p in out_dir.iterdir() if p.name != "annotated.jsonl")
    expected = [*plot_names, "report.json", report_name]
    for slug in slugs.values():
        expected += [f"messages_{slug}.jsonl", f"series_{slug}.csv"]
    assert names == sorted(expected)
    for name in names:
        assert (out_dir / name).read_bytes() == (chain / name).read_bytes(), name
    if edit is _awkward_capture:  # the `\\u00e9` that JSON decoded is scrubbed as well
        assert "bitcoin" + " " * 8 + "rally" in (out_dir / "messages_twitter.jsonl").read_text(encoding="utf-8")
    if edit is _outage_and_market_gap:
        assert "2015-06-03,0,outage\n" in (out_dir / "series_irc_bitcoin.csv").read_text(encoding="utf-8")
        assert [row["n_days"] for row in json.loads((out_dir / "report.json").read_text())["rows"]] == [3, 4]
    if edit is _rotated_captures_second_channel:  # the shared id is counted once
        assert len((out_dir / "messages_twitter.jsonl").read_text(encoding="utf-8").splitlines()) == 30
        assert len(json.loads((out_dir / "report.json").read_text())["rows"]) == 3
    if "window" in config:  # three of the five days, 5 + 6 + 7 tweets and 4 + 6 + 8 chat lines
        assert [row["total_messages"] for row in json.loads((out_dir / "report.json").read_text())["rows"]] == [18, 18]
