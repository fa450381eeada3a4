"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion (add -s to see the explicit [criterion N] lines too). Tolerances
are pinned in the assertions; nothing here is calibrated after the fact.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import subprocess
import sys
import textwrap
import time
from datetime import date, timedelta
from pathlib import Path

from coinbuzz.annotate import AnnotatedDocument, Document, Gazetteer, run_pipeline
from coinbuzz.cli import main
from coinbuzz.irc import NETWORK_SUBTYPES, ingest_log
from coinbuzz.sanitize import sanitize_line
from coinbuzz.series import DailySeries, Flag, detect_gaps
from coinbuzz.stats import pearson
from coinbuzz.twitter import (
    BackoffPolicy,
    BackoffState,
    FailureMode,
    default_policies,
    matches_keywords,
    next_delay,
)

DATA_DIR = Path(__file__).parent / "data"
DOW = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
MON = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _report(n: int, label: str) -> None:
    print(f"[criterion {n}] PASS {label}")


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
    return num / den


# --- criterion 1: pearson oracle equivalence ----------------------------------

def test_criterion_1_pearson_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randint(3, 100)
        x = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
        y = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
        assert abs(pearson(x, y) - naive_pearson(x, y)) <= 1e-10
    hand = 5.5 / math.sqrt(43.75)
    assert abs(pearson([1, 2, 3, 4], [1, 3, 2, 5]) - hand) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"pearson equivalence took {elapsed:.3f}s"
    _report(1, f"1000 random pairs within 1e-10, hand case within 1e-12, {elapsed:.2f}s")


# --- criterion 2: IRC filter completeness -------------------------------------

def test_criterion_2_irc_filter_completeness(tmp_path):
    chat_count = 6
    lines = []
    for i in range(chat_count):
        lines.append(f"[Mon Jun 1 2015] [09:00:{i:02d}] <user{i}>\tbitcoin message {i}")
    for i, subtype in enumerate(sorted(NETWORK_SUBTYPES)):
        lines.append(f"[Mon Jun 1 2015] [09:30:{i:02d}] *** {subtype}: housekeeping")
    log = tmp_path / "chan.log"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")

    messages = []
    with open(log, encoding="utf-8") as src:
        stats = ingest_log(src, messages.append, "#bitcoin")
    assert len(messages) == chat_count
    assert stats.dropped_network == 8
    assert stats.unparsable == 0
    _report(2, f"{chat_count} chat kept, all 8 network subtypes dropped")


# --- criterion 3: sanitizer contract ------------------------------------------

def _random_sanitizer_line(rng: random.Random) -> bytes:
    parts = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.2:
            parts.append(rb"\u" + f"{rng.randint(0x80, 0xFFFF):04X}".encode())
        elif roll < 0.3:
            parts.append(rb"\u" + f"{rng.randint(0, 0x7F):04x}".encode())
        elif roll < 0.4:
            parts.append(b"\\uD83D\\uDE00")
        elif roll < 0.5:
            parts.append(rb"\u" + bytes(rng.randint(0x20, 0x7E) for _ in range(rng.randint(0, 3))))
        else:
            parts.append(bytes(rng.randint(0x01, 0xFF) for _ in range(rng.randint(0, 10))))
    return b"".join(parts).replace(b"\n", b" ")


def test_criterion_3_sanitizer_contract():
    fixture = [
        b'{"text": "price\\u2026 up"}',
        b'{"text": "pair \\uD83D\\uDE00 done"}',
        b'{"text": "plain ascii stays"}',
    ]
    for line in fixture:
        out, _, _ = sanitize_line(line)
        assert len(out) == len(line)
        assert sanitize_line(out)[0] == out
    assert sanitize_line(fixture[2])[0] == fixture[2]

    rng = random.Random(303)
    for _ in range(10_000):
        line = _random_sanitizer_line(rng)
        out, replaced, malformed = sanitize_line(line)
        assert len(out) == len(line)
        assert sanitize_line(out)[0] == out
        if b"\\u" not in line:
            assert out == line and replaced == 0 and malformed == 0
    _report(3, "byte-length, idempotence, ASCII transparency over 10k random lines")


# --- criterion 4: keyword filter ------------------------------------------------

def test_criterion_4_keyword_filter_case_rules():
    for combo in itertools.product(*[(c.lower(), c.upper()) for c in "bitcoin"]):
        variant = "".join(combo)
        assert matches_keywords(f"{variant} is moving", []), variant
        assert matches_keywords("unrelated text", [variant]), variant
    assert not matches_keywords("bit coin", [])
    _report(4, "all 128 case permutations match; split word does not")


# --- criterion 5: backoff schedule ----------------------------------------------

def test_criterion_5_backoff_schedule_and_golden_jitter():
    policy = default_policies()[FailureMode.HTTP_ERROR]
    state = BackoffState()
    delays = []
    for _ in range(10):
        delay, state = next_delay(policy, state, FailureMode.HTTP_ERROR)
        delays.append(delay)
    assert delays == [5, 10, 20, 40, 80, 160, 320, 320, 320, 320]
    assert all(a <= b for a, b in zip(delays, delays[1:]))

    # Any success resets the schedule to the base delay.
    _, state = next_delay(policy, state, None)
    delay, _ = next_delay(policy, state, FailureMode.HTTP_ERROR)
    assert delay == 5.0

    golden = json.loads((DATA_DIR / "backoff_golden.json").read_text())
    seeded = BackoffPolicy(
        FailureMode.HTTP_ERROR,
        base_delay=golden["base_delay"],
        factor=golden["factor"],
        cap=golden["cap"],
        jitter_seed=golden["jitter_seed"],
    )
    state = BackoffState()
    produced = []
    for _ in range(len(golden["delays"])):
        delay, state = next_delay(seeded, state, FailureMode.HTTP_ERROR)
        produced.append(delay)
    assert produced == golden["delays"]
    _report(5, "capped monotone schedule, reset on success, golden jitter match")


# --- criterion 6: end-to-end golden run -----------------------------------------

def _build_golden_corpus(tmp_path: Path):
    days = [date(2015, 6, 1) + timedelta(days=i) for i in range(14)]
    rng = random.Random(607)
    twitter_draws = {d: rng.randint(20, 60) for d in days}
    irc_draws = {d: rng.randint(30, 90) for d in days}
    volume = {d: irc_draws[d] * 20000.0 for d in days}
    price = {d: 230.0 + 8.0 * math.sin(i * 0.9) + i for i, d in enumerate(days)}

    def created_at(d: date, i: int) -> str:
        return (
            f"{DOW[d.weekday()]} {MON[d.month - 1]} {d.day:02d} "
            f"{10 + i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d} +0000 {d.year}"
        )

    capture = tmp_path / "capture.jsonl"
    tweet_id = 0
    with open(capture, "w", encoding="utf-8") as fh:
        for d in days:
            for i in range(twitter_draws[d]):
                tweet_id += 1
                if i % 5 == 0:
                    text = "Bitcoin feels… different today"
                elif i % 7 == 0:
                    text = "Bitcoin mood \U0001f600 strong"
                else:
                    text = f"Bitcoin tick {i}"
                record = {
                    "id": tweet_id,
                    "created_at": created_at(d, i),
                    "user": {"screen_name": f"u{tweet_id}"},
                    "text": text,
                }
                if i % 3 == 0:
                    record["text"] = f"volume check {i}"
                    record["entities"] = {"hashtags": [{"text": "Bitcoin"}]}
                fh.write(json.dumps(record) + "\n")
            for i in range(2):  # non-matching noise
                tweet_id += 1
                fh.write(
                    json.dumps(
                        {
                            "id": tweet_id,
                            "created_at": created_at(d, 4000 + i),
                            "user": {"screen_name": f"u{tweet_id}"},
                            "text": "stocks only today",
                        }
                    )
                    + "\n"
                )

    irc_log = tmp_path / "pricetalk.log"
    subtypes = sorted(NETWORK_SUBTYPES)
    with open(irc_log, "w", encoding="utf-8") as fh:
        for day_index, d in enumerate(days):
            stamp = f"[{DOW[d.weekday()]} {MON[d.month - 1]} {d.day} {d.year}]"
            for i in range(irc_draws[d]):
                fh.write(f"{stamp} [{10 + i // 3600:02d}:{(i // 60) % 60:02d}:{i % 60:02d}] <n{i % 9}>\tprice chat {i}\n")
            fh.write(f"{stamp} [20:00:00] *** {subtypes[day_index % len(subtypes)]}: housekeeping\n")

    def write_market(path: Path, values: dict[date, float]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("date,value\n")
            for d in days:
                fh.write(f"{d.isoformat()},{values[d]!r}\n")

    write_market(tmp_path / "price.csv", price)
    write_market(tmp_path / "volume.csv", volume)
    (tmp_path / "gaz.tsv").write_text("bitcoin\tcrypto\tcoin\n", encoding="utf-8")

    config = {
        "out_dir": str(tmp_path / "out"),
        "tweet_captures": [str(capture)],
        "irc_logs": [{"path": str(irc_log), "channel": "#bitcoin-pricetalk"}],
        "price_csv": str(tmp_path / "price.csv"),
        "volume_csv": str(tmp_path / "volume.csv"),
        "gazetteer": str(tmp_path / "gaz.tsv"),
        "format": "tsv",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path, days, twitter_draws, irc_draws, price, volume


def test_criterion_6_end_to_end_golden_run(tmp_path):
    config_path, days, twitter_draws, irc_draws, price, volume = _build_golden_corpus(tmp_path)
    started = time.perf_counter()
    assert main(["run-all", "--config", str(config_path)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"end-to-end run took {elapsed:.2f}s"

    out_dir = tmp_path / "out"
    report = json.loads((out_dir / "report.json").read_text())
    rows = {row["stream_id"]: row for row in report["rows"]}

    assert rows["twitter"]["total_messages"] == sum(twitter_draws.values())
    assert rows["irc:#bitcoin-pricetalk"]["total_messages"] == sum(irc_draws.values())

    expectations = {
        "twitter": twitter_draws,
        "irc:#bitcoin-pricetalk": irc_draws,
    }
    oracle_r = {}
    for stream_id, draws in expectations.items():
        counts = [float(draws[d]) for d in days]
        rv = naive_pearson(counts, [volume[d] for d in days])
        rp = naive_pearson(counts, [price[d] for d in days])
        oracle_r[stream_id] = (rv, rp)
        assert abs(rows[stream_id]["r_volume"] - rv) <= 1e-10
        assert abs(rows[stream_id]["r_price"] - rp) <= 1e-10
        assert rows[stream_id]["n_days"] == 14

    assert rows["irc:#bitcoin-pricetalk"]["r_volume"] >= 0.99

    expected_lines = [
        "Data Source\tTotal Messages\tBitcoin Volume Correlation"
        "\tBitcoin Price Correlation\tn_days\tpolicy"
    ]
    for stream_id in ("irc:#bitcoin-pricetalk", "twitter"):
        rv, rp = oracle_r[stream_id]
        total = sum(expectations[stream_id].values())
        expected_lines.append(
            f"{stream_id}\t{total}\t{rv:.4f}\t{rp:.4f}\t14\tall-days"
        )
    golden = "\n".join(expected_lines) + "\n"
    assert (out_dir / "report.tsv").read_text() == golden
    _report(6, f"totals exact, correlations within 1e-10, {elapsed:.2f}s")


# --- criterion 7: gap detection --------------------------------------------------

def test_criterion_7_gap_detection():
    def series(counts):
        start = date(2015, 6, 1)
        days = {start + timedelta(days=i): c for i, c in enumerate(counts)}
        return DailySeries("s", days, {d: Flag.OK for d in days})

    zero_day = detect_gaps(series([100, 100, 100, 100, 0, 100, 100]))
    assert zero_day.flags[date(2015, 6, 5)] is Flag.OUTAGE

    five_percent = detect_gaps(series([100, 100, 100, 100, 5, 100, 100]))
    assert five_percent.flags[date(2015, 6, 5)] is Flag.OUTAGE
    assert len(five_percent.outage_dates()) == 1

    decline = detect_gaps(series([100, 95, 89, 84, 78, 73, 67, 61, 56, 50]))
    assert decline.outage_dates() == set()
    _report(7, "zero day and 5%-of-median day flagged; gradual decline clean")


# --- criterion 8: throughput and memory ------------------------------------------

PERF_TARGET_BYTES = 100 * 1024 * 1024
PERF_MIN_MBPS = 1.0
PERF_MAX_RSS_KB = 256 * 1024

_DRIVER = textwrap.dedent(
    """
    import resource
    import sys

    from coinbuzz.annotate import Document, Gazetteer, run_pipeline
    from coinbuzz.sanitize import sanitize_line
    from coinbuzz.series import DailyCounter
    from coinbuzz.message import Message
    from coinbuzz.twitter import MalformedRecord, matches_keywords, parse_tweet

    path = sys.argv[1]
    gazetteer = Gazetteer.from_entries({"bitcoin": ("crypto", "coin")})
    counter = DailyCounter()
    n_bytes = 0
    matched = 0
    annotations = 0
    with open(path, "rb") as fh:
        for raw in fh:
            n_bytes += len(raw)
            clean, _, _ = sanitize_line(raw.rstrip(b"\\n"))
            try:
                record = parse_tweet(clean.decode("utf-8", errors="replace"))
            except MalformedRecord:
                continue
            if not matches_keywords(record.text, record.hashtags):
                continue
            matched += 1
            adoc = run_pipeline(Document(str(record.id), record.text), gazetteer)
            annotations += len(adoc.annotations)
            counter.add(Message("twitter", record.created_at, record.user, record.text))
    series = counter.build("twitter")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(n_bytes, matched, annotations, series.total(), len(series.counts), peak_kb)
    """
)


def _write_perf_corpus(path: Path) -> int:
    rng = random.Random(881)
    fillers = [
        "price is moving fast today",
        "watch the order book … now",
        "charts look heavy this session",
        "volume spike across usd exchanges",
        "quiet day in the channels",
    ]
    total = 0
    tweet_id = 0
    with open(path, "w", encoding="utf-8") as fh:
        buffer = []
        while total < PERF_TARGET_BYTES:
            tweet_id += 1
            day = 1 + tweet_id % 14
            filler = fillers[tweet_id % len(fillers)]
            if tweet_id % 3 == 0:
                text = f"nothing here {filler} {tweet_id}"
            else:
                text = f"Bitcoin {filler} {tweet_id}"
            line = json.dumps(
                {
                    "id": tweet_id,
                    "created_at": f"Mon Jun {day:02d} 10:{(tweet_id // 60) % 60:02d}:{tweet_id % 60:02d} +0000 2015",
                    "user": {"screen_name": f"user{tweet_id % 1000}"},
                    "text": text,
                    "entities": {"hashtags": [{"text": "btc"}] if rng.random() < 0.2 else []},
                }
            )
            buffer.append(line)
            total += len(line) + 1
            if len(buffer) >= 10_000:
                fh.write("\n".join(buffer) + "\n")
                buffer.clear()
        if buffer:
            fh.write("\n".join(buffer) + "\n")
    return total


def test_criterion_8_throughput_and_bounded_memory(tmp_path, perf_corpus):
    corpus, corpus_bytes = perf_corpus
    assert corpus_bytes >= PERF_TARGET_BYTES

    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER, encoding="utf-8")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(driver), str(corpus)],
        capture_output=True,
        text=True,
        check=True,
    )
    elapsed = time.perf_counter() - started
    n_bytes, matched, annotations, total, n_days, peak_kb = (
        int(v) for v in proc.stdout.split()
    )
    assert n_bytes == corpus_bytes
    assert matched == total > 0
    assert annotations > 0
    assert n_days == 14
    mbps = n_bytes / (1024 * 1024) / elapsed
    assert mbps >= PERF_MIN_MBPS, f"only {mbps:.2f} MB/s through the pipeline"
    assert peak_kb < PERF_MAX_RSS_KB, f"peak RSS {peak_kb} KB"
    _report(8, f"{mbps:.1f} MB/s over {n_bytes / 1e6:.0f} MB, peak RSS {peak_kb / 1024:.0f} MB")


# --- criterion 9: annotation integrity --------------------------------------------

_NONSPACE_RE = re.compile(r"\S")

_DOC_WORDS = [
    "bitcoin", "to", "the", "moon", "#btc", "#Bitcoin", "@alice", "@b0b",
    "http://x.io/a", "https://y.io", "!", "?", "...", "café", "€5",
    "a_b", "RT", "…",
]


def _random_doc_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 14)):
        pieces.append(rng.choice(_DOC_WORDS))
        pieces.append(rng.choice([" ", "  ", " \t", "\n", " "]))
    return "".join(pieces)


def test_criterion_9_annotation_integrity():
    rng = random.Random(4321)
    gaz = Gazetteer.from_entries({"bitcoin": ("c", "coin"), "to the moon": ("m", "phrase")})
    for i in range(1000):
        text = _random_doc_text(rng)
        doc = Document(f"doc{i}", text)

        covered = []
        for ann in run_pipeline(doc).annotations:
            covered.extend(range(ann.start, ann.end))
        assert len(covered) == len(set(covered)), "token spans overlap"
        assert sorted(covered) == [m.start() for m in _NONSPACE_RE.finditer(text)]

        adoc = run_pipeline(doc, gaz)
        for _ in range(3):
            a = rng.randint(0, len(text)) if text else 0
            b = rng.randint(a, len(text)) if text else 0
            types = rng.choice([None, ("Token",), ("Lookup", "Hashtag")])
            got = adoc.annotations_in(types, (a, b))
            expected = []
            for ann in adoc.annotations:
                if types is not None and ann.type not in types:
                    continue
                if a == b:
                    if not (ann.start <= a < ann.end):
                        continue
                elif not (ann.start < b and a < ann.end):
                    continue
                expected.append(ann)
            expected.sort(key=lambda ann: (ann.start, ann.end, ann.ann_id))
            assert got == expected

        if i % 10 == 0:
            payload = adoc.to_json()
            recovered = AnnotatedDocument.from_json(payload)
            assert recovered.to_json() == payload
            assert recovered.doc.text == text
    _report(9, "partition, window oracle, and round-trip over 1000 random documents")
