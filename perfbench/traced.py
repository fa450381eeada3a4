"""Runs coinbuzz CLI entry points in-process under a tracer.

    python3 perfbench/traced.py PLAN.json RESULT.json

PLAN.json is a list of invocations `{"argv": [...], "stdin": path|null,
"stdout": path|null}`; each one goes through `coinbuzz.cli.main(argv)`, the
same entry point the shipped CLI uses. Before the first call this script
replaces the public functions of every pipeline module with timing wrappers,
in every coinbuzz module that holds a reference to them, so calls made
inside the package are seen too. Nothing in coinbuzz itself is changed.

Per-record functions only accumulate calls, self time and inclusive time.
Per-pass functions (an ingest pass, a CSV read, a report) also record a span
`(id, name, start, end, parent)`. Self time is a call's duration minus the
time spent in traced calls it made. Everything stays in memory and is
written to RESULT.json when the plan is done.

Counts come from what the wrapped functions take and return, not from the
stats objects the stages print, so that reshaping those stats does not break
the trace.
"""

from __future__ import annotations

import inspect
import io
import json
import sys
import time
from collections import Counter

from coinbuzz import annotate, cli, irc, message, series, stats, sanitize, twitter

MODULES = (annotate, cli, irc, message, series, stats, sanitize, twitter)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open calls: [child seconds, span id or None]
        self.funcs: dict[str, list] = {}  # name -> [calls, self_s, incl_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.missing: list[str] = []

    def _parent_span(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def call(self, name: str, fn, args, kwargs, span: bool, on_result, on_error):
        entry = self.funcs.setdefault(name, [0, 0.0, 0.0])
        span_id = None
        if span:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span_id]
        parent = self._parent_span() if span else None
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(self.counts, exc)
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            elapsed = end - start
            entry[0] += 1
            entry[1] += elapsed - frame[0]
            entry[2] += elapsed
            if self.stack:
                self.stack[-1][0] += elapsed
            if span:
                self.spans[span_id] = (span_id, name, start, end, parent)
        if inspect.isgenerator(result):
            return self._iterate(name, result, span)
        if on_result is not None:
            hook_start = time.perf_counter()
            on_result(self.counts, result, args)
            if self.stack:  # keep hook time out of the caller's self time
                self.stack[-1][0] += time.perf_counter() - hook_start
        return result

    def _iterate(self, name: str, gen, span: bool):
        """Charge each step of a returned generator to the function that made
        it; with `span`, one more span `name[iter]` covers the iteration."""
        span_id = parent = start = None
        if span:
            span_id, parent, start = len(self.spans), self._parent_span(), time.perf_counter()
            self.spans.append(None)
        try:
            while True:
                try:
                    value = self.call(name + "[next]", next, (gen,), {}, False, None, None)
                except StopIteration:
                    return
                yield value
        finally:
            if span:
                self.spans[span_id] = (span_id, name + "[iter]", start, time.perf_counter(), parent)

    def wrap(self, name: str, fn, span: bool = False, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span, on_result, on_error)

        traced.__wrapped__ = fn
        return traced


def _install(tracer: Tracer, module, attr: str, **options) -> None:
    """Replace module.attr everywhere coinbuzz refers to it.

    A function that no longer exists is listed in tracer.missing and its
    metrics read 0, so removing API surface does not break the trace.
    """
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    wrapped = tracer.wrap(f"{module.__name__.split('.')[-1]}.{attr}", original, **options)
    for mod in MODULES:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _install_method(tracer: Tracer, cls, attr: str, layer: str, **options) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        tracer.missing.append(f"{cls.__qualname__}.{attr}")
        return
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    wrapped = tracer.wrap(f"{layer}.{cls.__name__}.{attr}", fn, **options)
    setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)


# --- count hooks: (counts, result, args) ------------------------------------------

def _sanitized(counts, result, args):
    counts["sanitize.lines"] += 1
    counts["sanitize.bytes"] += len(args[0])
    counts["sanitize.replacements"] += result[1]


def _parsed_tweet(counts, result, args):
    counts["twitter.parsed"] += 1


def _malformed_tweet(counts, exc):
    if isinstance(exc, twitter.MalformedRecord):
        counts["twitter.malformed"] += 1


def _filtered(counts, result, args):
    counts["twitter.filtered"] += 1
    counts["twitter.matched"] += bool(result)


def _irc_line(counts, result, args):
    counts["irc.lines"] += 1
    if result is not None and getattr(result, "kind", None) is not irc.EventKind.NETWORK:
        counts["irc.kept"] += 1


def _irc_unparsable(counts, exc):
    counts["irc.lines"] += 1
    if isinstance(exc, irc.UnparsableLine):
        counts["irc.unparsable"] += 1


def _annotated(counts, result, args):
    anns = getattr(result, "annotations", ())
    counts["annotate.docs"] += 1
    counts["annotate.spans"] += len(anns)
    counts["annotate.lookups"] += sum(1 for a in anns if getattr(a, "type", None) == annotate.LOOKUP)


def _gaps(counts, result, args):
    counts["series.days"] += len(result.counts)
    counts["series.outages"] += len(result.outage_dates())


def _report(counts, result, args):
    counts["stats.rows"] += len(result.rows)
    counts["stats.undefined_rows"] += sum(1 for row in result.rows if row.has_error)


def install(tracer: Tracer) -> None:
    _install(tracer, sanitize, "sanitize_line", on_result=_sanitized)
    _install(tracer, sanitize, "sanitize_text")
    _install(tracer, sanitize, "sanitize_stream", span=True)
    _install(tracer, twitter, "parse_tweet", on_result=_parsed_tweet, on_error=_malformed_tweet)
    _install(tracer, twitter, "matches_keywords", on_result=_filtered)
    _install(tracer, twitter, "ingest_capture", span=True)
    _install(tracer, irc, "parse_log_line", on_result=_irc_line, on_error=_irc_unparsable)
    _install(tracer, irc, "ingest_log", span=True)
    _install(tracer, annotate, "run_pipeline", on_result=_annotated)
    _install_method(tracer, annotate.AnnotatedDocument, "to_json", "annotate")
    _install_method(tracer, annotate.Gazetteer, "load", "annotate", span=True)
    _install(tracer, message, "to_json_line")
    _install(tracer, message, "from_json_line")
    _install(tracer, message, "write_messages", span=True)
    _install(tracer, message, "read_messages", span=True)
    _install_method(tracer, series.DailyCounter, "add", "series")
    _install_method(tracer, series.DailyCounter, "build", "series", span=True)
    _install(tracer, series, "detect_gaps", span=True, on_result=_gaps)
    _install(tracer, series, "write_daily_csv", span=True)
    _install(tracer, series, "read_daily_csv", span=True)
    _install(tracer, series, "load_market_csv", span=True)
    _install(tracer, stats, "correlation_report", span=True, on_result=_report)
    _install(tracer, stats, "report_to_json")
    _install(tracer, stats, "report_from_json")
    _install(tracer, cli, "render_table", span=True)
    _install(tracer, cli, "emit_plot_series", span=True)


def _run(invocation: dict) -> int:
    """cli.main(argv) with stdin/stdout redirected to files when asked."""
    saved = sys.stdin, sys.stdout
    opened = []
    try:
        if invocation.get("stdin"):
            sys.stdin = io.TextIOWrapper(open(invocation["stdin"], "rb"), encoding="utf-8")
            opened.append(sys.stdin)
        if invocation.get("stdout"):
            sys.stdout = io.TextIOWrapper(open(invocation["stdout"], "wb"), encoding="utf-8")
            opened.append(sys.stdout)
        try:
            return cli.main(invocation["argv"])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    finally:
        for stream in opened:
            stream.close()
        sys.stdin, sys.stdout = saved


def main() -> None:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    install(tracer)
    invocations = []
    for invocation in plan:
        sub = invocation["argv"][0]
        name = "cli." + sub
        start = time.perf_counter()
        code = tracer.call(name, _run, (invocation,), {}, True, None, None)
        invocations.append({"subcommand": sub, "exit": code, "wall_s": time.perf_counter() - start})
    result = {
        "invocations": invocations,
        "funcs": tracer.funcs,
        "counts": dict(tracer.counts),
        "missing": tracer.missing,
        "spans": [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in tracer.spans
            if s is not None  # a generator dropped before it finished
        ],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
