"""Seeded synthetic corpus for the coinbuzz benchmark, with a ground-truth sidecar.

`generate(workload, seed, root)` writes tweet captures, IRC logs, market CSVs,
an optional gazetteer and the run-all configs under `root`, plus `truth.json`.
Every expected output is derived from what the generator decided to write
(which records match, repeat, break or fall outside the window), never from
running coinbuzz code, so the check in `check.py` is independent of the
program under test.

The seed only drives the random draws. Sizes (line counts per stream) are
fixed by the workload spec, so runs with different seeds do the same amount
of work and their timings are comparable.

Run standalone to inspect a corpus:

    python3 perfbench/corpus.py --workload ingest_counts --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

KEYWORDS = ("bitcoin", "btc")
THETA = 0.1
K = 7
START = date(2015, 1, 1)

DOW = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
MON = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
VOCAB = (
    "price market moon trade buy sell hold dump pump chart volume order book "
    "exchange wallet miner block fee halving fork node hash rate long short "
    "bull bear rally crash dip support resistance breakout today tomorrow "
    "week month year news rumor report china europe usd eur yuan gold silver "
    "stock bank fed rates inflation coin token ledger address key cold storage "
    "paper hands whale retail fomo fud hodl green red candle wick close open "
    "high low spread arbitrage margin leverage liquidation funding swap future "
    "option call put strike expiry settle clear custody regulator tax audit "
    "hack theft recovery patch release upgrade vote signal consensus peer "
    "network latency mempool backlog confirm double spend segwit blocksize"
).split()
# Never a whole-word keyword match: the filter must reject these.
TRAPS = ("bitcoins", "btcusd", "xbtc", "bitcoinprice", "bit", "coins")
KEYWORD_FORMS = ("bitcoin", "Bitcoin", "BITCOIN", "btc", "BTC", "#bitcoin", "#BTC")
NON_ASCII = ("café", "€", "naïve", "über", "¥", "—", "🚀", "💰")
NETWORK_SUBTYPES = ("Join", "Topic", "Quit", "Mode", "Created", "Part", "Nick", "Notice")
TWEET_OFFSETS = ("+0000",) * 8 + ("+0100", "-0500")
_WORD_RE = re.compile(r"[^\W_]+")


@dataclass(frozen=True)
class Channel:
    name: str
    tz: str
    lines: int
    noise_share: float  # network housekeeping lines, dropped by the parser
    malformed_share: float  # lines outside the grammar, counted as unparsable


@dataclass(frozen=True)
class Spec:
    """Workload shape. Counts are exact; the seed only picks the content."""

    days: int
    tweets: int  # tweet capture lines, all captures together
    captures: int  # capture files, split by date as rotation does
    overlap: int  # records repeated at the start of the next capture
    match_share: float
    dup_share: float  # within-file repeats of a recent record
    escape_share: float  # records whose non-ASCII text is written as \uXXXX
    malformed_share: float
    words: tuple[int, int]  # tweet text length in words
    rich_share: float  # share of words that are hashtags, mentions, URLs
    channels: tuple[Channel, ...]
    outages: int  # injected outage days per stream
    gazetteer: int  # entries; 0 runs without annotation
    gazetteer_share: float  # share of words drawn from the gazetteer
    trim: int | None  # days the window cuts off each end; None: no window
    exclude_outages: bool
    format: str
    plots: tuple[tuple[str, str], ...]
    chain: bool  # drive the subcommand chain instead of run-all


WORKLOADS: dict[str, Spec] = {
    "ingest_counts": Spec(
        days=365, tweets=24_000, captures=12, overlap=3,
        match_share=0.55, dup_share=0.04, escape_share=0.15, malformed_share=0.01,
        words=(6, 16), rich_share=0.08,
        channels=(
            Channel("#bitcoin-otc", "UTC", 44_000, 0.30, 0.002),
            Channel("#bitcoin-pricetalk", "America/New_York", 22_000, 0.45, 0.002),
        ),
        outages=4, gazetteer=0, gazetteer_share=0.0, trim=10,
        exclude_outages=False, format="tsv",
        plots=(("twitter", "volume"), ("irc:#bitcoin-pricetalk", "price")),
        chain=False,
    ),
    "annotate_heavy": Spec(
        days=120, tweets=6_000, captures=4, overlap=3,
        match_share=0.75, dup_share=0.02, escape_share=0.25, malformed_share=0.01,
        words=(24, 44), rich_share=0.25,
        channels=(Channel("#bitcoin", "Europe/London", 5_000, 0.20, 0.004),),
        outages=2, gazetteer=2_000, gazetteer_share=0.20, trim=3,
        exclude_outages=True, format="markdown",
        plots=(("twitter", "price"),),
        chain=False,
    ),
    "stage_chain": Spec(
        days=180, tweets=10_000, captures=1, overlap=0,
        match_share=0.6, dup_share=0.03, escape_share=0.15, malformed_share=0.01,
        words=(8, 20), rich_share=0.12,
        channels=(Channel("#bitcoin-otc", "Asia/Tokyo", 36_000, 0.30, 0.002),),
        outages=3, gazetteer=500, gazetteer_share=0.10, trim=None,
        exclude_outages=False, format="tsv",
        plots=(("twitter", "volume"),),
        chain=True,
    ),
}


def scaled(spec: Spec, factor: float) -> Spec:
    """The same workload at a fraction of its size (for the self-check)."""
    return replace(
        spec,
        tweets=max(200, int(spec.tweets * factor)),
        channels=tuple(
            replace(ch, lines=max(200, int(ch.lines * factor))) for ch in spec.channels
        ),
        gazetteer=min(spec.gazetteer, 200),
    )


def stream_id(channel: str) -> str:
    return f"irc:{channel}"


def slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_") or "stream"


def _split(rng: random.Random, total: int, days: int, outages: set[int], zero: set[int]) -> list[int]:
    """Spread `total` lines over days with 0.6-1.4x daily variation.

    Outage days get one line (below the gap threshold) or none at all.
    """
    weights = [0.0 if d in outages else rng.uniform(0.6, 1.4) for d in range(days)]
    fixed = sum(1 for d in outages if d not in zero)
    scale = (total - fixed) / sum(weights)
    counts = [int(w * scale) for w in weights]
    remainders = sorted(range(days), key=lambda d: weights[d] * scale - counts[d], reverse=True)
    for d in remainders[: total - fixed - sum(counts)]:
        counts[d] += 1
    for d in outages:
        counts[d] = 0 if d in zero else 1
    return counts


def _pick_outages(rng: random.Random, spec: Spec, avoid: set[int]) -> tuple[set[int], set[int]]:
    lo = (spec.trim or 0) + K + 1
    hi = spec.days - (spec.trim or 0) - 3
    candidates = [d for d in range(lo, hi) if not avoid & {d - 1, d, d + 1}]
    days = set(rng.sample(candidates, spec.outages))
    zero = {d for i, d in enumerate(sorted(days)) if i % 2 == 0}
    return days, zero


def _gazetteer(rng: random.Random, size: int) -> dict[str, tuple[str, str]]:
    consonants, vowels = "bdfgklmnprstvz", "aeiou"

    def word() -> str:
        return "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 4)))

    majors = {"currency": ("coin", "token"), "organization": ("exchange", "company"),
              "person": ("founder", "trader"), "location": ("city", "country")}
    entries: dict[str, tuple[str, str]] = {}
    while len(entries) < size:
        roll = rng.random()
        if roll < 0.65:
            surface = word()
        elif roll < 0.90:
            surface = f"{word()} {rng.choice(VOCAB)}"
        elif roll < 0.96:
            surface = f"{word()} {word()} {rng.choice(VOCAB)}"
        else:
            surface = "#" + word()
        if surface in entries or any(w in KEYWORDS for w in _WORD_RE.findall(surface)):
            continue
        major = rng.choice(sorted(majors))
        entries[surface] = (major, rng.choice(majors[major]))
    return entries


def _expected_text(raw: str, escaped: bool) -> str:
    """Text the pipeline should emit for a tweet written with `raw` text.

    Escaped non-ASCII code points become six spaces each (twelve for a
    surrogate pair); raw UTF-8 passes through.
    """
    if not escaped:
        return raw
    return "".join(c if ord(c) < 0x80 else " " * (12 if ord(c) > 0xFFFF else 6) for c in raw)


def _tweet_words(rng: random.Random, spec: Spec, surfaces: list[str], users: list[str]) -> list[str]:
    words = []
    third = spec.rich_share / 3
    for _ in range(rng.randint(*spec.words)):
        roll = rng.random()
        if roll < third:
            words.append("#" + rng.choice(VOCAB))
        elif roll < 2 * third:
            words.append("@" + rng.choice(users))
        elif roll < spec.rich_share:
            words.append(f"https://t.co/{rng.randrange(16**8):08x}")
        elif roll < spec.rich_share + spec.gazetteer_share:
            surface = rng.choice(surfaces)
            words.append(surface.title() if rng.random() < 0.3 else surface)
        else:
            words.append(rng.choice(VOCAB))
    return words


def _created_at(instant: datetime, offset: str) -> str:
    sign = 1 if offset[0] == "+" else -1
    delta = timedelta(hours=int(offset[1:3]), minutes=int(offset[3:5])) * sign
    local = instant + delta
    return (
        f"{DOW[local.weekday()]} {MON[local.month - 1]} {local.day:02d} "
        f"{local:%H:%M:%S} {offset} {local.year}"
    )


def _instants(rng: random.Random, day: date, n: int) -> list[datetime]:
    base = datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
    return [base + timedelta(seconds=s) for s in sorted(rng.randrange(86_400) for _ in range(n))]


class _Digest:
    """Ordered expected message stream: per-day counts and the texts in order."""

    def __init__(self) -> None:
        self.days: dict[str, int] = {}
        self.texts: list[str] = []

    def add(self, day: date, text: str) -> None:
        key = day.isoformat()
        self.days[key] = self.days.get(key, 0) + 1
        self.texts.append(text)

    def as_json(self) -> dict:
        return {"count": len(self.texts), "days": self.days, "text_sha256": text_digest(self.texts)}


def text_digest(texts: list[str]) -> str:
    """sha256 over the texts, each followed by a newline."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8") + b"\n")
    return sha.hexdigest()


def generate(workload: str, seed: int, root: Path, spec: Spec | None = None) -> dict:
    """Write the corpus for (workload, seed) under root; return the sidecar."""
    spec = spec or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    all_days = [START + timedelta(days=d) for d in range(spec.days)]
    window = None if spec.trim is None else (all_days[spec.trim], all_days[-1 - spec.trim])

    def in_window(day: date) -> bool:
        return window is None or window[0] <= day <= window[1]

    surfaces_map = _gazetteer(rng, spec.gazetteer) if spec.gazetteer else {}
    surfaces = sorted(surfaces_map)
    users = [f"{rng.choice(VOCAB)}{rng.randrange(10_000)}" for _ in range(400)]

    # --- tweet captures -------------------------------------------------------
    bounds = [round(i * spec.days / spec.captures) for i in range(spec.captures + 1)]
    boundary_days = {b - 1 for b in bounds[1:-1]} | {b for b in bounds[1:-1]}
    outages, zero = _pick_outages(rng, spec, boundary_days)
    per_day = _split(rng, spec.tweets - spec.overlap * (spec.captures - 1), spec.days, outages, zero)

    run_digest, file_digest = _Digest(), _Digest()  # run-wide vs per-file dedupe
    run_seen: set[int] = set()
    capture_paths = []
    tweet_bytes = tweet_lines = malformed_tweets = 0
    next_id = 560_000_000_000_000_000
    carry: list[tuple[str, int, date, str, bool]] = []  # overlap records for the next file

    for c in range(spec.captures):
        path = inputs / f"capture_{c:02d}.jsonl"
        capture_paths.append(path)
        file_seen: set[int] = set()
        recent: list[tuple[str, int, date, str, bool]] = []
        out_lines: list[str] = []

        def emit(line: str, tweet_id: int | None, day: date, text: str, matched: bool) -> None:
            out_lines.append(line)
            if tweet_id is None:
                return
            for seen, digest in ((run_seen, run_digest), (file_seen, file_digest)):
                if tweet_id in seen:
                    continue
                seen.add(tweet_id)
                if matched and in_window(day):
                    digest.add(day, text)

        for line, tweet_id, day, text, matched in carry:
            emit(line, tweet_id, day, text, matched)
        for d in range(bounds[c], bounds[c + 1]):
            day = all_days[d]
            for instant in _instants(rng, day, per_day[d]):
                if recent and d not in outages and rng.random() < spec.dup_share:
                    emit(*rng.choice(recent[-50:]))
                    continue
                next_id += rng.randint(1, 5_000)
                matched = rng.random() < spec.match_share
                words = _tweet_words(rng, spec, surfaces, users)
                hashtags = [rng.choice(VOCAB) for _ in range(rng.randint(0, 2))]
                if matched:
                    if rng.random() < 0.8:
                        words.insert(rng.randrange(len(words) + 1), rng.choice(KEYWORD_FORMS))
                    else:
                        hashtags.append(rng.choice(("Bitcoin", "btc", "BITCOIN")))
                if rng.random() < 0.1:
                    words.insert(rng.randrange(len(words) + 1), rng.choice(TRAPS))
                escaped = rng.random() < spec.escape_share
                if escaped or rng.random() < 0.05:
                    for _ in range(rng.randint(1, 3)):
                        words.insert(rng.randrange(len(words) + 1), rng.choice(NON_ASCII))
                raw = " ".join(words)
                record = {
                    "id": next_id,
                    "created_at": _created_at(instant, rng.choice(TWEET_OFFSETS)),
                    "user": {"screen_name": rng.choice(users)},
                    "text": raw,
                    "entities": {"hashtags": [{"text": t} for t in hashtags]},
                }
                if rng.random() < spec.malformed_share:
                    kind = rng.randrange(3)
                    if kind == 0:
                        del record["user"]
                    elif kind == 1:
                        record["id"] = "n/a"
                    line = json.dumps(record, ensure_ascii=escaped)
                    if kind == 2:
                        line = line[: len(line) // 2]
                    emit(line, None, day, "", False)
                    malformed_tweets += 1
                    continue
                text = _expected_text(raw, escaped)
                words_found = set(_WORD_RE.findall(text.lower()))
                tags = {t.lower() for t in hashtags}
                assert matched == any(k in words_found or k in tags for k in KEYWORDS), raw
                entry = (json.dumps(record, ensure_ascii=escaped), next_id, day, text, matched)
                emit(*entry)
                recent.append(entry)
        # Rotation overlap: the next file starts with this file's last records.
        carry = [e for e in recent if e[4] and in_window(e[2])][-spec.overlap:] if spec.overlap else []
        payload = "\n".join(out_lines) + "\n"
        path.write_text(payload, encoding="utf-8")
        tweet_bytes += len(payload.encode("utf-8"))
        tweet_lines += len(out_lines)

    # --- IRC logs ---------------------------------------------------------------
    irc_streams = {}
    irc_texts: list[str] = []
    irc_paths = []
    irc_bytes = irc_lines = unparsable = 0
    for ch in spec.channels:
        zone = timezone.utc if ch.tz == "UTC" else ZoneInfo(ch.tz)
        ch_outages, ch_zero = _pick_outages(rng, spec, set())
        counts = _split(rng, ch.lines, spec.days, ch_outages, ch_zero)
        digest = _Digest()
        out_lines = []
        for d, day in enumerate(all_days):
            for instant in _instants(rng, day, counts[d]):
                local = instant.astimezone(zone)
                stamp = f"[{DOW[local.weekday()]} {MON[local.month - 1]} {local.day} {local.year}] [{local:%H:%M:%S}]"
                roll = rng.random()
                outage_day = d in ch_outages
                if roll < ch.malformed_share and not outage_day:
                    out_lines.append(
                        f"[Mon Feb 30 2015] [10:00:00] <ghost>\tno such day"
                        if rng.random() < 0.5 else f"garbage {rng.choice(VOCAB)} line"
                    )
                    unparsable += 1
                    continue
                if roll < ch.malformed_share + 0.003 and not outage_day:
                    out_lines.append("   ")
                    continue
                if roll < ch.malformed_share + 0.003 + ch.noise_share and not outage_day:
                    sub = rng.choice(NETWORK_SUBTYPES)
                    out_lines.append(f"{stamp} *** {sub}: {rng.choice(users)} {rng.choice(VOCAB)}")
                    continue
                raw_parts, text_parts = [], []
                for _ in range(rng.randint(3, 14)):
                    roll = rng.random()
                    if roll < 0.03:
                        raw_parts.append("\\u20ac")  # literal escape: scrubbed to spaces
                        text_parts.append(" " * 6)
                    elif roll < 0.04:
                        raw_parts.append("\\u0041")  # ASCII escape: kept verbatim
                        text_parts.append("\\u0041")
                    else:
                        w = rng.choice(NON_ASCII) if roll < 0.06 else rng.choice(VOCAB + ["bitcoin"])
                        raw_parts.append(w)
                        text_parts.append(w)
                if rng.random() < 0.01:
                    out_lines.append(f"{stamp} *** Server: {' '.join(raw_parts)}")
                else:
                    out_lines.append(f"{stamp} <{rng.choice(users)}>\t{' '.join(raw_parts)}")
                if in_window(day):
                    digest.add(day, " ".join(text_parts))
        path = inputs / f"{slug(ch.name)}.log"
        irc_paths.append(path)
        payload = "\n".join(out_lines) + "\n"
        path.write_text(payload, encoding="utf-8")
        irc_bytes += len(payload.encode("utf-8"))
        irc_lines += len(out_lines)
        irc_streams[stream_id(ch.name)] = digest.as_json()
        irc_texts += digest.texts

    # --- market data, gazetteer, configs ------------------------------------------
    twitter_days = file_digest.days
    price, volume = {}, {}
    level = 250.0
    for day in all_days:
        level *= 1.0 + rng.uniform(-0.03, 0.03)
        price[day] = round(level, 2)
        volume[day] = round((20_000 + 900 * twitter_days.get(day.isoformat(), 0)) * rng.uniform(0.7, 1.3), 2)
    for series, n in ((price, 2), (volume, 3)):
        for day in rng.sample(all_days[1:-1], n):
            del series[day]
    market = {}
    for name, series in (("price", price), ("volume", volume)):
        path = inputs / f"{name}.csv"
        path.write_text(
            "date,value\n" + "".join(f"{d.isoformat()},{v:.2f}\n" for d, v in series.items()),
            encoding="utf-8",
        )
        market[name] = {d.isoformat(): v for d, v in series.items()}

    gazetteer_path = None
    if surfaces_map:
        gazetteer_path = inputs / "gazetteer.tsv"
        gazetteer_path.write_text(
            "".join(f"{s}\t{major}\t{minor}\n" for s, (major, minor) in surfaces_map.items()),
            encoding="utf-8",
        )

    def config(out_dir: str, captures: list[Path], logs: list[Path]) -> dict:
        cfg = {
            "out_dir": out_dir,
            "tweet_captures": [str(p) for p in captures],
            "irc_logs": [
                {"path": str(p), "channel": ch.name, "tz": ch.tz}
                for p, ch in zip(logs, spec.channels)
            ],
            "price_csv": str(inputs / "price.csv"),
            "volume_csv": str(inputs / "volume.csv"),
            "keywords": list(KEYWORDS),
            "theta": THETA,
            "k": K,
            "exclude_outages": spec.exclude_outages,
            "format": spec.format,
            "plots": [{"series": s, "metric": m} for s, m in spec.plots],
        }
        if gazetteer_path is not None:
            cfg["gazetteer"] = str(gazetteer_path)
        if window is not None:
            cfg["window"] = {"start": window[0].isoformat(), "end": window[1].isoformat()}
        return cfg

    empty = inputs / "empty"
    empty.mkdir(exist_ok=True)
    empty_captures = [empty / p.name for p in capture_paths]
    empty_logs = [empty / p.name for p in irc_paths]
    for p in empty_captures + empty_logs:
        p.write_text("", encoding="utf-8")
    (root / "config.json").write_text(
        json.dumps(config(str(root / "out"), capture_paths, irc_paths), indent=1), encoding="utf-8"
    )
    (root / "setup_config.json").write_text(
        json.dumps(config(str(root / "setup_out"), empty_captures, empty_logs), indent=1),
        encoding="utf-8",
    )

    partial = malformed_tweets > 0 or unparsable > 0
    truth = {
        "workload": workload,
        "seed": seed,
        "chain": spec.chain,
        "inputs": {
            "tweet_bytes": tweet_bytes,
            "tweet_lines": tweet_lines,
            "irc_bytes": irc_bytes,
            "irc_lines": irc_lines,
            "bytes": tweet_bytes + irc_bytes,
            "lines": tweet_lines + irc_lines,
            "captures": [str(p) for p in capture_paths],
            "irc_logs": [
                {"path": str(p), "channel": ch.name, "tz": ch.tz}
                for p, ch in zip(irc_paths, spec.channels)
            ],
            "price_csv": str(inputs / "price.csv"),
            "volume_csv": str(inputs / "volume.csv"),
            "gazetteer": str(gazetteer_path) if gazetteer_path else None,
        },
        "malformed_tweets": malformed_tweets,
        "unparsable_irc": unparsable,
        # Twitter stream under run-wide dedupe (each id once per run) and
        # under per-file dedupe (each id once per capture file).
        "twitter": {"run": run_digest.as_json(), "file": file_digest.as_json()},
        # run-all annotates tweets first, then each IRC log in config order.
        "annotated": {
            variant: {"count": len(d.texts) + len(irc_texts), "text_sha256": text_digest(d.texts + irc_texts)}
            for variant, d in (("run", run_digest), ("file", file_digest))
        },
        "irc": irc_streams,
        "market": market,
        "gazetteer": {s: list(v) for s, v in surfaces_map.items()},
        "theta": THETA,
        "k": K,
        "exclude_outages": spec.exclude_outages,
        "format": spec.format,
        "plots": [list(p) for p in spec.plots],
        "expected_exit": {
            "run-all": 1 if partial else 0,
            "setup": 1,
            "sanitize": 0,
            "ingest-tweets": 1 if malformed_tweets else 0,
            "parse-irc": 1 if unparsable else 0,
            "annotate": 0,
            "aggregate": 0,
            "gaps": 0,
            "correlate": 0,
            "report": 0,
            "plot-series": 0,
        },
    }
    (root / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps(truth["inputs"], indent=1))


if __name__ == "__main__":
    main()
