"""Self-check of the benchmark itself; run from a checkout root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the metrics run.py reports.
2. Every workload runs once at a tenth of its size and passes its output
   check, untraced and traced.
3. The output check catches deliberately corrupted outputs, one corruption
   at a time, and the digest check catches any changed byte.
4. run.py in a directory holding only BENCHMARK.json and perfbench/ exits
   non-zero without printing a result.

Exits 0 when every item holds; prints one line per item.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_out" / "selfcheck"
failures: list[str] = []


def report(ok: bool, label: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        failures.append(label)


def _edit(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, count), encoding="utf-8")


def _bump_count(path: Path) -> None:
    """Add one message to the first non-zero day of a series CSV."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        day, count, flag = line.rstrip("\n").split(",")
        if int(count) > 0:
            lines[i] = f"{day},{int(count) + 1},{flag}\n"
            break
    path.write_text("".join(lines), encoding="utf-8")


def _nudge_r(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["rows"][0]["r_volume"] += 1e-9
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _stretch_span(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    doc = json.loads(lines[0])
    doc["annotations"][-1]["end"] = len(doc["text"]) + 1
    lines[0] = json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _flip_text(path: Path) -> None:
    _edit(path, '"text": "', '"text": "X')


def corruptions(truth: dict) -> dict[str, tuple[str, Callable[[Path], None]]]:
    if truth["chain"]:
        return {
            "series count": ("irc.csv", _bump_count),
            "unflagged series": ("tw_daily.csv", _bump_count),
            "correlation off by 1e-9": ("report.json", _nudge_r),
            "report table cell": ("report.tsv", lambda p: _edit(p, "\tall-days", "\tall_days")),
            "lost message": ("tweets.jsonl", _drop_last_line),
            "span past end of text": ("annotated.jsonl", _stretch_span),
            "plot row": ("plot.csv", _drop_last_line),
            "sanitized bytes": ("clean.jsonl", _drop_last_line),
        }
    cases = {
        "twitter series count": ("series_twitter.csv", _bump_count),
        "irc series count": (f"series_{corpus.slug(next(iter(truth['irc'])))}.csv", _bump_count),
        "correlation off by 1e-9": ("report.json", _nudge_r),
        "message text": ("messages_twitter.jsonl", _flip_text),
        "plot row": (f"plot_{corpus.slug(truth['plots'][0][0])}_{truth['plots'][0][1]}.csv", _drop_last_line),
    }
    if truth["inputs"]["gazetteer"]:
        cases["span past end of text"] = ("annotated.jsonl", _stretch_span)
        cases["lost document"] = ("annotated.jsonl", _drop_last_line)
    return cases


def deep_check(out: Path, truth: dict) -> list[str]:
    return check.check_chain(out, truth) if truth["chain"] else check.check_run_all(out, truth)[0]


def check_metric_names() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = [(m["name"], m["unit"]) for m in declared[key]]
        report(names == list(table), f"BENCHMARK.json {key} matches run.py ({len(names)} metrics)")
    report([w["name"] for w in declared["workloads"]] == list(corpus.WORKLOADS), "BENCHMARK.json workloads match corpus.py")


def check_workload(name: str) -> None:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    truth = corpus.generate(name, 7, work, corpus.scaled(corpus.WORKLOADS[name], 0.1))
    bench = run.Bench(ROOT, work, truth)
    bench.warm_up()
    bench.untraced()
    _, merged = bench.traced_rep()
    layers = run.layer_metrics(merged)
    report(bench.failed == 0 and bench.attempted > 0, f"{name}: small run passes ({bench.attempted} invocations) {bench.messages[:3]}")
    report(layers["sanitize.lines"] > 0 and layers["message.records"] > 0, f"{name}: traced run records layer counts")
    for label, (filename, corrupt) in corruptions(truth).items():
        copy = work / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(bench.out, copy)
        corrupt(copy / filename)
        caught = bool(deep_check(copy, truth))
        changed = check.output_digest(copy) != bench.reference
        report(caught and changed, f"{name}: check catches {label} in {filename}")
    shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", next(iter(corpus.WORKLOADS)),
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    report(done.returncode != 0 and not done.stdout.strip(), f"bare directory: exit {done.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metric_names()
    for name in corpus.WORKLOADS:
        check_workload(name)
    check_bare_directory()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"selfcheck: {'all passed' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
