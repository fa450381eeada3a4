"""coinbuzz benchmark: drives the shipped CLI over a seeded synthetic corpus.

    python3 perfbench/run.py --workload ingest_counts --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; coinbuzz is imported from `src/`.
Each run generates its corpus from the seed (untimed), makes one untimed
warm-up invocation whose outputs get a deep check against the generator's
sidecar, then times repetitions of the workload until `--seconds` have
passed. Every repetition runs the CLI as child processes and must reproduce
the warm-up outputs byte for byte. All runs are warm-cache: the inputs were
just written and the page cache is never dropped.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced repetitions (see traced.py) and prints the per-layer
metrics plus the tracing overhead. The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`. A fuller record with
provenance and every sample goes to `.bench_out/results/`. NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import corpus  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("input_mb_per_s", "MB/s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SUBCOMMANDS = (
    "sanitize", "ingest-tweets", "parse-irc", "annotate", "aggregate",
    "gaps", "correlate", "report", "plot-series",
)
PER_LAYER = (
    ("sanitize.busy_s", "s"), ("sanitize.mb_per_s", "MB/s"),
    ("sanitize.lines", "count"), ("sanitize.replacements", "count"),
    ("twitter.parse_s", "s"), ("twitter.filter_s", "s"), ("twitter.ingest_s", "s"),
    ("twitter.records", "count"), ("twitter.malformed", "count"),
    ("twitter.duplicates", "count"), ("twitter.match_ratio", "ratio"),
    ("twitter.cross_capture_repeats", "count"), ("twitter.peak_rss_mb", "MB"),
    ("irc.busy_s", "s"), ("irc.lines", "count"), ("irc.keep_ratio", "ratio"),
    ("irc.unparsable", "count"), ("irc.peak_rss_mb", "MB"),
    ("annotate.pipeline_s", "s"), ("annotate.serialize_s", "s"),
    ("annotate.gazetteer_load_s", "s"), ("annotate.docs", "count"),
    ("annotate.spans", "count"), ("annotate.lookups", "count"),
    ("annotate.spans_per_doc", "ratio"),
    ("message.serialize_s", "s"), ("message.parse_s", "s"), ("message.records", "count"),
    ("series.aggregate_s", "s"), ("series.gaps_s", "s"), ("series.csv_s", "s"),
    ("series.days", "count"), ("series.outages", "count"),
    ("stats.correlate_s", "s"), ("stats.rows", "count"), ("stats.undefined_rows", "count"),
    *((f"cli.{sub.replace('-', '_')}_s", "s") for sub in SUBCOMMANDS),
    ("cli.run_all_s", "s"), ("cli.run_all_other_s", "s"), ("cli.error_rate", "ratio"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"),
)
SETUP_REPS = 11
MIN_REPS = 3
CHILD_TIMEOUT_S = 90
RUN_BUDGET_S = 150  # a run stops repeating after this long, whatever --seconds says
HERE = Path(__file__).resolve().parent
# launch.py's probe loop time on the reference CPU: the 2-vCPU shared-host VM
# the bounds were set on, in its fastest phase. Reported times are raw times scaled by
# CAL_REF_S / probe_s, i.e. seconds at that speed; the record keeps the raw ones.
CAL_REF_S = 0.00016


@dataclass
class Child:
    exit: int
    wall_s: float  # scaled to the reference CPU speed, as are all reported times
    cpu_s: float
    peak_rss_mb: float
    raw_wall_s: float = 0.0
    speed: float = 0.0  # probe_s / CAL_REF_S: 1.0 at reference speed, 1.5 when half as fast


def run_child(cmd: list[str], env: dict, stdin: str | None, stdout: str | None, stderr: Path) -> Child:
    """Run cmd through launch.py and return its exit code, wall, CPU and peak RSS."""
    report = stderr.with_suffix(".rusage")
    report.unlink(missing_ok=True)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(report), str(CHILD_TIMEOUT_S), *cmd]
    with open(stdin or os.devnull, "rb") as fin, open(stdout or os.devnull, "wb") as fout, \
            open(stderr, "wb") as ferr:
        proc = subprocess.Popen(launcher, env=env, stdin=fin, stdout=fout, stderr=ferr, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S + 30)
    finally:
        if proc.returncode is None:  # launcher hung or we were interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not report.is_file():
        return Child(exit=-1, wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0)
    code, wall, cpu, maxrss_kib, probe_s, _ = report.read_text().split()
    factor = float(probe_s) / CAL_REF_S
    return Child(
        exit=int(code), wall_s=float(wall) / factor, cpu_s=float(cpu) / factor,
        peak_rss_mb=int(maxrss_kib) / 1024, raw_wall_s=float(wall), speed=factor,
    )


@dataclass
class Invocation:
    argv: list[str]
    expect: int | None  # None accepts 0 (done) and 1 (partial)
    stdin: str | None = None
    stdout: str | None = None


def chain_invocations(out: Path, truth: dict) -> list[Invocation]:
    """The subcommand chain: each stage hands its output to the next via files."""
    inputs, expect = truth["inputs"], truth["expected_exit"]
    log = inputs["irc_logs"][0]
    irc = corpus.stream_id(log["channel"])
    stream, metric = truth["plots"][0]
    market = inputs["volume_csv"] if metric == "volume" else inputs["price_csv"]
    o = lambda name: str(out / name)  # noqa: E731
    steps = [
        Invocation(["sanitize"], expect["sanitize"], inputs["captures"][0], o("clean.jsonl")),
        Invocation(["ingest-tweets", "--in", o("clean.jsonl"), "--out", o("tweets.jsonl"),
                    "--keywords", ",".join(corpus.KEYWORDS)], expect["ingest-tweets"]),
        Invocation(["parse-irc", "--channel", log["channel"], "--tz", log["tz"],
                    "--in", log["path"], "--out", o("irc.jsonl")], expect["parse-irc"]),
        Invocation(["annotate", "--in", o("tweets.jsonl"), "--gazetteer", inputs["gazetteer"],
                    "--out", o("annotated.jsonl")], expect["annotate"]),
        Invocation(["aggregate", "--in", o("tweets.jsonl"), "--out", o("tw_daily.csv")], expect["aggregate"]),
        Invocation(["aggregate", "--in", o("irc.jsonl"), "--out", o("irc_daily.csv")], expect["aggregate"]),
    ]
    for stem in ("tw", "irc"):
        steps.append(Invocation(
            ["gaps", "--in", o(f"{stem}_daily.csv"), "--out", o(f"{stem}.csv"),
             "--theta", str(truth["theta"]), "--k", str(truth["k"])], expect["gaps"],
        ))
    correlate = ["correlate", "--series", f"twitter={o('tw.csv')}", "--series", f"{irc}={o('irc.csv')}",
                 "--price", inputs["price_csv"], "--volume", inputs["volume_csv"], "--out", o("report.json")]
    if truth["exclude_outages"]:
        correlate.append("--exclude-outages")
    steps += [
        Invocation(correlate, expect["correlate"]),
        Invocation(["report", "--in", o("report.json"), "--format", "tsv", "--out", o("report.tsv")], expect["report"]),
        Invocation(["plot-series", "--series", o("tw.csv" if stream == "twitter" else "irc.csv"),
                    "--market", market, "--metric", metric, "--out", o("plot.csv")], expect["plot-series"]),
    ]
    return steps


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    children: list[Child] = field(default_factory=list)

    def add(self, child: Child) -> None:
        self.children.append(child)
        self.wall_s += child.wall_s
        self.cpu_s += child.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, child.peak_rss_mb)


class Bench:
    """One workload's invocations, their failure accounting and output checks.

    `attempted` counts CLI invocations. An invocation fails when it exits
    with an unexpected code; a repetition whose outputs fail their check
    counts one more failed invocation unless one already failed.
    """

    def __init__(self, root: Path, work: Path, truth: dict):
        self.work = work
        self.truth = truth
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        if truth["chain"]:
            self.out = work / "chain"
            self.invocations = chain_invocations(self.out, truth)
        else:
            self.out = work / "out"
            self.invocations = [
                Invocation(["run-all", "--config", str(work / "config.json")], truth["expected_exit"]["run-all"])
            ]
        self.reference: str | None = None
        self.reference_ok = False

    def _account(self, exits: list[tuple[Invocation, int]], problems: list[str]) -> None:
        bad = 0
        for inv, code in exits:
            if code not in ((0, 1) if inv.expect is None else (inv.expect,)):
                bad += 1
                err = (self.logs / f"{inv.argv[0]}.err").read_text(errors="replace")[-300:].strip()
                self.messages.append(f"{inv.argv[0]} exited {code}, expected {inv.expect}: {err}")
        self.messages += problems
        self.attempted += len(exits)
        self.failed += max(bad, 1 if problems else 0)

    def _fresh(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)

    def _spawn(self, inv: Invocation) -> Child:
        cmd = [sys.executable, "-m", "coinbuzz", *inv.argv]
        return run_child(cmd, self.env, inv.stdin, inv.stdout, self.logs / f"{inv.argv[0]}.err")

    def _digest_problems(self, label: str) -> list[str]:
        if check.output_digest(self.out) != self.reference:
            return [f"{label} repetition: outputs differ from the checked warm-up run"]
        if not self.reference_ok:
            return [f"{label} repetition: outputs repeat the warm-up run's failed check"]
        return []

    def setup_once(self) -> Child:
        """run-all over empty inputs with the workload's own config."""
        self._fresh(self.work / "setup_out")
        inv = Invocation(["run-all", "--config", str(self.work / "setup_config.json")], 1)
        child = self._spawn(inv)
        self._account([(inv, child.exit)], check.check_setup(self.work / "setup_out", self.truth))
        return child

    def warm_up(self) -> int:
        """Untimed setup and workload runs, deep-checked; returns the
        cross-capture repeats seen in the outputs."""
        self.setup_once()
        self._fresh(self.out)
        exits = [(inv, self._spawn(inv).exit) for inv in self.invocations]
        self.reference = check.output_digest(self.out)
        if self.truth["chain"]:
            problems, repeats = check.check_chain(self.out, self.truth), 0
        else:
            problems, repeats = check.check_run_all(self.out, self.truth)
        self.reference_ok = not problems
        self._account(exits, [f"output check: {m}" for m in problems])
        return repeats

    def untraced(self) -> Rep:
        self._fresh(self.out)
        rep = Rep()
        exits = []
        for inv in self.invocations:
            child = self._spawn(inv)
            rep.add(child)
            exits.append((inv, child.exit))
        self._account(exits, self._digest_problems("untraced"))
        return rep

    # --- traced repetitions ---------------------------------------------------

    def _trace_child(self, plan: list[Invocation], tag: str) -> tuple[Child, dict | None]:
        plan_path = self.work / f"plan_{tag}.json"
        result_path = self.work / f"trace_{tag}.json"
        plan_path.write_text(json.dumps([vars(inv) for inv in plan]), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "traced.py"), str(plan_path), str(result_path)]
        child = run_child(cmd, self.env, None, None, self.logs / f"{plan[0].argv[0]}.err")
        if child.exit != 0 or not result_path.is_file():
            return child, None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for entry in result["funcs"].values():  # to reference-speed seconds, like child.wall_s
            entry[1] /= child.speed
            entry[2] /= child.speed
        for record in result["invocations"]:
            record["wall_s"] /= child.speed
        return child, result

    def traced_rep(self) -> tuple[Rep, dict]:
        """Each invocation under traced.py in a process of its own, as
        the untraced CLI runs; their trace results merged."""
        self._fresh(self.out)
        rep = Rep()
        merged: dict = {"invocations": [], "funcs": {}, "counts": {}, "spans": [], "rss": {}, "missing": []}
        exits = []
        for i, inv in enumerate(self.invocations):
            child, result = self._trace_child([inv], f"rep{i}")
            rep.add(child)
            if result is None:
                exits.append((inv, child.exit if child.exit else -1))
                continue
            exits += [(inv, record["exit"]) for record in result["invocations"]]
            merged["invocations"] += result["invocations"]
            merged["missing"] = result["missing"]
            merged["rss"][inv.argv[0]] = child.peak_rss_mb
            for name, (calls, self_s, incl_s) in result["funcs"].items():
                entry = merged["funcs"].setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += incl_s
            for name, value in result["counts"].items():
                merged["counts"][name] = merged["counts"].get(name, 0) + value
            offset = len(merged["spans"])
            merged["spans"] += [
                dict(s, id=s["id"] + offset, parent=None if s["parent"] is None else s["parent"] + offset, process=i)
                for s in result["spans"]
            ]
        self._account(exits, self._digest_problems("traced"))
        return rep, merged

    def probes(self) -> dict[str, tuple[float, float]]:
        """Tweet and IRC ingest through their own subcommands, each layer in
        a traced process of its own so its peak RSS is the layer's alone.
        Returns {subcommand: (peak RSS MB, summed main() wall seconds)}."""
        inputs = self.truth["inputs"]
        probe = self.work / "probe"
        self._fresh(probe)
        plans = {
            "ingest-tweets": [
                Invocation(["ingest-tweets", "--in", path, "--out", str(probe / f"tweets_{i}.jsonl"),
                            "--keywords", ",".join(corpus.KEYWORDS)], None)
                for i, path in enumerate(inputs["captures"])
            ],
            "parse-irc": [
                Invocation(["parse-irc", "--channel", log["channel"], "--tz", log["tz"], "--in", log["path"],
                            "--out", str(probe / f"irc_{i}.jsonl")], None)
                for i, log in enumerate(inputs["irc_logs"])
            ],
        }
        out = {}
        for name, plan in plans.items():
            child, result = self._trace_child(plan, f"probe_{name}")
            records = result["invocations"] if result else []
            exits = [(inv, r["exit"]) for inv, r in zip(plan, records)] or [(plan[0], child.exit or -1)]
            self._account(exits, [])
            out[name] = (child.peak_rss_mb, sum(r["wall_s"] for r in records))
        return out


def layer_metrics(merged: dict) -> dict[str, float]:
    funcs, counts = merged["funcs"], merged["counts"]

    def self_s(*names: str) -> float:
        return sum(funcs[n][1] for n in funcs if n.split("[")[0] in names)

    def layer(prefix: str) -> float:
        return sum(v[1] for n, v in funcs.items() if n.startswith(prefix + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    line_s = self_s("sanitize.sanitize_line")
    parsed = counts.get("twitter.parsed", 0)
    docs = counts.get("annotate.docs", 0)
    walls: dict[str, float] = {}
    for record in merged["invocations"]:
        walls[record["subcommand"]] = walls.get(record["subcommand"], 0.0) + record["wall_s"]
    inside_layers = sum(layer(p) for p in ("sanitize", "twitter", "irc", "annotate", "message", "series", "stats"))
    run_all = walls.get("run-all", 0.0)
    metrics = {
        "sanitize.busy_s": layer("sanitize"),
        "sanitize.mb_per_s": ratio(counts.get("sanitize.bytes", 0) / 1e6, line_s),
        "sanitize.lines": counts.get("sanitize.lines", 0),
        "sanitize.replacements": counts.get("sanitize.replacements", 0),
        "twitter.parse_s": self_s("twitter.parse_tweet"),
        "twitter.filter_s": self_s("twitter.matches_keywords"),
        "twitter.ingest_s": self_s("twitter.ingest_capture"),
        "twitter.records": parsed,
        "twitter.malformed": counts.get("twitter.malformed", 0),
        # Dedupe runs between parse and filter, so unique records reach the filter.
        "twitter.duplicates": parsed - counts.get("twitter.filtered", 0) if parsed else 0,
        "twitter.match_ratio": ratio(counts.get("twitter.matched", 0), parsed),
        "irc.busy_s": layer("irc"),
        "irc.lines": counts.get("irc.lines", 0),
        "irc.keep_ratio": ratio(counts.get("irc.kept", 0), counts.get("irc.lines", 0)),
        "irc.unparsable": counts.get("irc.unparsable", 0),
        "annotate.pipeline_s": self_s("annotate.run_pipeline"),
        "annotate.serialize_s": self_s("annotate.AnnotatedDocument.to_json"),
        "annotate.gazetteer_load_s": sum(v[2] for n, v in funcs.items() if n == "annotate.Gazetteer.load"),
        "annotate.docs": docs,
        "annotate.spans": counts.get("annotate.spans", 0),
        "annotate.lookups": counts.get("annotate.lookups", 0),
        "annotate.spans_per_doc": ratio(counts.get("annotate.spans", 0), docs),
        "message.serialize_s": self_s("message.to_json_line"),
        "message.parse_s": self_s("message.from_json_line"),
        "message.records": sum(funcs[n][0] for n in ("message.to_json_line", "message.from_json_line") if n in funcs),
        "series.aggregate_s": self_s("series.DailyCounter.add", "series.DailyCounter.build"),
        "series.gaps_s": self_s("series.detect_gaps"),
        "series.csv_s": self_s("series.write_daily_csv", "series.read_daily_csv", "series.load_market_csv"),
        "series.days": counts.get("series.days", 0),
        "series.outages": counts.get("series.outages", 0),
        "stats.correlate_s": layer("stats"),
        "stats.rows": counts.get("stats.rows", 0),
        "stats.undefined_rows": counts.get("stats.undefined_rows", 0),
        "cli.run_all_s": run_all,
        "cli.run_all_other_s": run_all - inside_layers if run_all else 0.0,
    }
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub.replace('-', '_')}_s"] = walls.get(sub, 0.0)
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def provenance(root: Path, args, truth: dict, generate_s: float, nproc: int) -> dict:
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((root / "src" / "coinbuzz").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    inputs = truth["inputs"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "input_bytes": inputs["bytes"],
        "input_records": inputs["lines"],
        "tweet_lines": inputs["tweet_lines"],
        "irc_lines": inputs["irc_lines"],
        "generate_s": generate_s,
        "cpu": max(os.sched_getaffinity(0)),
        "cal_ref_s": CAL_REF_S,
        "cache": "warm: inputs freshly written, one untimed warm-up run; the page cache is never dropped",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="coinbuzz benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Turn SIGTERM into SystemExit so the cleanup below kills and reaps children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "coinbuzz" / "cli.py").is_file():
        print(f"perfbench: no coinbuzz sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that launch.py's speed
    # probe runs on the CPU its command runs on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    results_dir = root / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        generated = time.perf_counter()
        truth = corpus.generate(args.workload, args.seed, work)
        generate_s = time.perf_counter() - generated
        bench = Bench(root, work, truth)
        repeats = bench.warm_up()
        deadline = time.perf_counter() + args.seconds
        hard_stop = started + RUN_BUDGET_S

        def more(n: int, minimum: int) -> bool:
            now = time.perf_counter()
            return n == 0 or (now < hard_stop and (n < minimum or now < deadline))

        record: dict = {"provenance": provenance(root, args, truth, generate_s, nproc)}
        if args.trace == 0:
            setups = [bench.setup_once() for _ in range(SETUP_REPS)]
            reps = []
            while more(len(reps), MIN_REPS):
                reps.append(bench.untraced())
            wall = _median([r.wall_s for r in reps])
            metrics = {
                "setup_s": _median([c.wall_s for c in setups]),
                "wall_s": wall,
                "cpu_s": _median([r.cpu_s for r in reps]),
                "input_mb_per_s": truth["inputs"]["bytes"] / 1e6 / wall,
                "records_per_s": truth["inputs"]["lines"] / wall,
                "peak_rss_mb": _median([r.peak_rss_mb for r in reps]),
            }
            units = dict(END_TO_END)
            record["samples"] = {
                "setup_s": [c.wall_s for c in setups],
                "wall_s": [r.wall_s for r in reps],
                "cpu_s": [r.cpu_s for r in reps],
                "peak_rss_mb": [r.peak_rss_mb for r in reps],
                "raw_setup_s": [c.raw_wall_s for c in setups],
                "raw_wall_s": [sum(c.raw_wall_s for c in r.children) for r in reps],
                "speed": [[c.speed for c in r.children] for r in reps],
            }
            record["cross_capture_repeats"] = repeats
        else:
            plain, traced = [], []
            while more(min(len(plain), len(traced)), 2):
                plain.append(bench.untraced())
                traced.append(bench.traced_rep())
            per_rep = [layer_metrics(merged) for _, merged in traced]
            units = dict(PER_LAYER)
            # Times are medians over the traced repetitions; counts and ratios
            # are the same in every repetition of a seed.
            metrics = {
                name: _median([m[name] for m in per_rep]) if units[name] in ("s", "MB/s") else per_rep[-1][name]
                for name in per_rep[0]
            }
            rss = traced[-1][1]["rss"]
            if not truth["chain"]:
                probes = bench.probes()
                metrics["twitter.peak_rss_mb"], metrics["cli.ingest_tweets_s"] = probes["ingest-tweets"]
                metrics["irc.peak_rss_mb"], metrics["cli.parse_irc_s"] = probes["parse-irc"]
            else:
                metrics["twitter.peak_rss_mb"] = rss.get("ingest-tweets", 0.0)
                metrics["irc.peak_rss_mb"] = rss.get("parse-irc", 0.0)
            metrics["twitter.cross_capture_repeats"] = repeats
            untraced_wall = _median([r.wall_s for r in plain])
            traced_wall = _median([r.wall_s for r, _ in traced])
            metrics["trace.untraced_wall_s"] = untraced_wall
            metrics["trace.traced_wall_s"] = traced_wall
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            record["samples"] = {
                "untraced_wall_s": [r.wall_s for r in plain],
                "traced_wall_s": [r.wall_s for r, _ in traced],
            }
            metrics["cli.error_rate"] = bench.failed / bench.attempted
            record["spans"] = traced[-1][1]["spans"]
            record["funcs"] = traced[-1][1]["funcs"]
            record["missing"] = traced[-1][1]["missing"]
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        record["result"] = result
        record["error_rate"] = bench.failed / bench.attempted
        record["failures"] = bench.messages
        record["run_s"] = time.perf_counter() - started
        out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1), encoding="utf-8")
        for message in bench.messages[:20]:
            print(f"perfbench: FAIL {message}", file=sys.stderr)
        print(f"perfbench: {args.workload} seed {args.seed}: {record['run_s']:.1f}s, record in {out}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
