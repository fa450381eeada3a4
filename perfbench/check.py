"""Output checks for the coinbuzz benchmark, against the generator's sidecar.

Expected values come from `truth.json` and the generated inputs, plus small
reference implementations of the documented rules: the gap rule of README's
`gaps` stage, the naive Pearson formula (as acceptance criterion 6 uses it)
and the summary-table layout. Nothing here imports coinbuzz.

A deep check parses every output file. Later repetitions of the same seed
only compare `output_digest`, since their outputs must be byte-identical to
the deep-checked ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from datetime import date, timedelta
from pathlib import Path

from corpus import slug, text_digest

ANNOTATION_TYPES = {"Token", "Hashtag", "Mention", "URL", "Lookup"}
HEADERS = (
    "Data Source", "Total Messages", "Bitcoin Volume Correlation",
    "Bitcoin Price Correlation", "n_days", "policy",
)


class Failures(list):
    """Error messages collected by one check; empty means the check passed."""

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def output_digest(root: Path) -> str:
    """sha256 over every file below root: relative path and bytes, sorted."""
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(str(path.relative_to(root)).encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def naive_pearson(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
    return num / den


def gap_flags(counts: list[int], theta: float, k: int) -> list[bool]:
    """Outage when the count is zero or below theta times the median of the
    previous k healthy days; flagged days never enter that baseline."""
    healthy: list[int] = []
    flags = []
    for count in counts:
        outage = count == 0 or bool(healthy and count < theta * statistics.median(healthy[-k:]))
        flags.append(outage)
        if not outage:
            healthy.append(count)
    return flags


def filled(days: dict[str, int]) -> dict[str, int]:
    """Per-day counts from the first to the last day, interior zeros included."""
    if not days:
        return {}
    day, last = date.fromisoformat(min(days)), date.fromisoformat(max(days))
    out = {}
    while day <= last:
        out[day.isoformat()] = days.get(day.isoformat(), 0)
        day += timedelta(days=1)
    return out


def series_csv(counts: dict[str, int], flags: list[bool] | None) -> str:
    rows = [
        f"{day},{count},{'outage' if flags and flag else 'ok'}\n"
        for (day, count), flag in zip(counts.items(), flags or [False] * len(counts))
    ]
    return "date,count,flag\n" + "".join(rows)


def read_market(path: str) -> dict[str, float]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    return {day: float(value) for day, value in (line.split(",") for line in lines if line)}


def render_table(rows: list[dict], format: str) -> str:
    def cell(value, error):
        return f"n/a({error})" if value is None else f"{value:.4f}"

    table = [list(HEADERS)] + [
        [r["stream_id"], str(r["total_messages"]), cell(r["r_volume"], r["r_volume_error"]),
         cell(r["r_price"], r["r_price_error"]), str(r["n_days"]), r["policy"]]
        for r in rows
    ]
    if format == "tsv":
        return "".join("\t".join(cells) + "\n" for cells in table)
    lines = ["| " + " | ".join(table[0]) + " |", "|" + "|".join(" --- " for _ in HEADERS) + "|"]
    lines += ["| " + " | ".join(cells) + " |" for cells in table[1:]]
    return "\n".join(lines) + "\n"


class Expected:
    """Expected streams for one output set: per-day counts, flags, texts."""

    def __init__(self, truth: dict, twitter_variant: str):
        self.truth = truth
        self.streams = {"twitter": truth["twitter"][twitter_variant]}
        self.streams.update(truth["irc"])
        self.counts = {s: filled(v["days"]) for s, v in self.streams.items()}
        self.flags = {
            s: gap_flags(list(c.values()), truth["theta"], truth["k"]) for s, c in self.counts.items()
        }
        self.price = read_market(truth["inputs"]["price_csv"])
        self.volume = read_market(truth["inputs"]["volume_csv"])

    def csv(self, stream: str, flagged: bool = True) -> str:
        return series_csv(self.counts[stream], self.flags[stream] if flagged else None)

    def outages(self, stream: str) -> set[str]:
        return {d for d, f in zip(self.counts[stream], self.flags[stream]) if f}


def _check_messages(path: Path, stream: str, expected: dict, failures: Failures) -> None:
    if not failures.expect(path.is_file(), f"missing {path.name}"):
        return
    texts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("stream_id") != stream:
                failures.append(f"{path.name}: stream_id {record.get('stream_id')!r}")
                return
            texts.append(record["text"])
    failures.expect(len(texts) == expected["count"], f"{path.name}: {len(texts)} messages, want {expected['count']}")
    failures.expect(text_digest(texts) == expected["text_sha256"], f"{path.name}: message texts differ")


def _check_annotated(path: Path, expected: dict, gazetteer: dict, failures: Failures) -> None:
    if not failures.expect(path.is_file(), f"missing {path.name}"):
        return
    texts = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            doc = json.loads(line)
            text = doc["text"]
            texts.append(text)
            for i, ann in enumerate(doc["annotations"]):
                start, end = ann["start"], ann["end"]
                ok = (
                    ann["id"] == i
                    and ann["type"] in ANNOTATION_TYPES
                    and 0 <= start <= end <= len(text)
                )
                if ok and ann["type"] == "Lookup":
                    entry = gazetteer.get(text[start:end].lower())
                    ok = entry is not None and ann["features"] == {
                        "major_type": entry[0], "minor_type": entry[1]
                    }
                if not ok:
                    failures.append(f"{path.name}:{line_no}: bad annotation {ann}")
                    return
    failures.expect(len(texts) == expected["count"], f"{path.name}: {len(texts)} docs, want {expected['count']}")
    failures.expect(text_digest(texts) == expected["text_sha256"], f"{path.name}: document texts differ")


def _check_report(out: Path, exp: Expected, order: list[str], table: Path, format: str, failures: Failures) -> None:
    try:
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"report.json unreadable: {exc}")
        return
    failures.expect([r["stream_id"] for r in rows] == order, f"report rows {[r['stream_id'] for r in rows]}")
    policy = "exclude-outages" if exp.truth["exclude_outages"] else "all-days"
    for row in rows:
        stream = row["stream_id"]
        if stream not in exp.counts:
            continue
        counts = exp.counts[stream]
        excluded = exp.outages(stream) if exp.truth["exclude_outages"] else set()
        days = sorted(set(counts) & set(exp.price) & set(exp.volume) - excluded)
        x = [float(counts[d]) for d in days]
        want = {
            "total_messages": sum(counts.values()),
            "n_days": len(days),
            "policy": policy,
            "r_volume_error": None,
            "r_price_error": None,
        }
        for key, value in want.items():
            failures.expect(row[key] == value, f"report {stream} {key}={row[key]!r}, want {value!r}")
        for key, market in (("r_volume", exp.volume), ("r_price", exp.price)):
            ref = naive_pearson(x, [market[d] for d in days])
            got = row[key]
            failures.expect(
                isinstance(got, float) and abs(got - ref) <= 1e-10,
                f"report {stream} {key}={got!r}, naive Pearson {ref!r}",
            )
    failures.expect(
        table.is_file() and table.read_text(encoding="utf-8") == render_table(rows, format),
        f"{table.name} does not render report.json",
    )


def _check_plot(path: Path, exp: Expected, stream: str, metric: str, failures: Failures) -> None:
    market = exp.volume if metric == "volume" else exp.price
    counts, flags = exp.counts[stream], dict(zip(exp.counts[stream], exp.flags[stream]))
    want = "date,count,flag,metric_value\n" + "".join(
        f"{d},{counts[d]},{'outage' if flags[d] else 'ok'},{market[d]!r}\n"
        for d in sorted(set(counts) & set(market))
    )
    failures.expect(
        path.is_file() and path.read_text(encoding="utf-8") == want, f"{path.name} differs from the joined series"
    )


def check_run_all(out: Path, truth: dict) -> tuple[Failures, int]:
    """Deep check of a run-all output dir; returns (failures, cross-capture repeats).

    The twitter stream may count each tweet id once per run, or once per
    capture file (ids repeated across rotated captures then count twice).
    Either is accepted, and the number of extra messages is returned so the
    benchmark can report it as twitter.cross_capture_repeats.
    """
    failures = Failures()
    twitter_csv = (out / "series_twitter.csv").read_text(encoding="utf-8") if (out / "series_twitter.csv").is_file() else ""
    variant = "run"
    for candidate in ("run", "file"):
        if Expected(truth, candidate).csv("twitter") == twitter_csv:
            variant = candidate
            break
    else:
        failures.append("series_twitter.csv matches neither run-wide nor per-file dedupe")
    repeats = truth["twitter"][variant]["count"] - truth["twitter"]["run"]["count"]
    exp = Expected(truth, variant)

    for stream in exp.streams:
        name = slug(stream)
        if stream != "twitter":
            failures.expect(
                (out / f"series_{name}.csv").is_file()
                and (out / f"series_{name}.csv").read_text(encoding="utf-8") == exp.csv(stream),
                f"series_{name}.csv differs",
            )
        _check_messages(out / f"messages_{name}.jsonl", stream, exp.streams[stream], failures)
    if truth["inputs"]["gazetteer"]:
        _check_annotated(out / "annotated.jsonl", truth["annotated"][variant], truth["gazetteer"], failures)
    suffix = "md" if truth["format"] == "markdown" else "tsv"
    _check_report(out, exp, sorted(exp.streams), out / f"report.{suffix}", truth["format"], failures)
    for stream, metric in truth["plots"]:
        _check_plot(out / f"plot_{slug(stream)}_{metric}.csv", exp, stream, metric, failures)
    return failures, repeats


def check_chain(out: Path, truth: dict) -> Failures:
    """Deep check of the subcommand chain's files (see run.chain_invocations)."""
    failures = Failures()
    exp = Expected(truth, "run")
    irc = next(iter(truth["irc"]))
    raw = Path(truth["inputs"]["captures"][0]).read_bytes()
    clean = (out / "clean.jsonl").read_bytes() if (out / "clean.jsonl").is_file() else b""
    failures.expect(
        len(clean) == len(raw) and clean.count(b"\n") == raw.count(b"\n"),
        "sanitize changed the byte or line count",
    )
    _check_messages(out / "tweets.jsonl", "twitter", exp.streams["twitter"], failures)
    _check_messages(out / "irc.jsonl", irc, exp.streams[irc], failures)
    _check_annotated(out / "annotated.jsonl", exp.streams["twitter"], truth["gazetteer"], failures)
    for stream, stem in (("twitter", "tw"), (irc, "irc")):
        for name, flagged in ((f"{stem}_daily.csv", False), (f"{stem}.csv", True)):
            path = out / name
            failures.expect(
                path.is_file() and path.read_text(encoding="utf-8") == exp.csv(stream, flagged),
                f"{name} differs",
            )
    _check_report(out, exp, ["twitter", irc], out / "report.tsv", "tsv", failures)
    stream, metric = truth["plots"][0]
    _check_plot(out / "plot.csv", exp, stream, metric, failures)
    return failures


def check_setup(out: Path, truth: dict) -> Failures:
    """run-all over empty inputs: every report row is undefined for lack of days."""
    failures = Failures()
    try:
        rows = json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"setup report.json unreadable: {exc}")
        return failures
    failures.expect(
        len(rows) == 1 + len(truth["irc"])
        and all(r["total_messages"] == 0 and r["r_volume_error"] == "EmptyOverlap" for r in rows),
        f"setup report rows {rows}",
    )
    return failures
