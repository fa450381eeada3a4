"""run-all: every stage in one process, from one JSON (or TOML) config file.

The config's keys, types and defaults are `cli._CONFIG_KEYS`. A bad config,
or a value that a stage would reject only after writing, is fatal (exit 2)
before `out_dir` is made. Into `out_dir` go, per stream, `messages_<slug>.jsonl`
and `series_<slug>.csv`, then `report.json`, `report.tsv` (or `.md`), a
`plot_<slug>_<metric>.csv` per plot and, with a gazetteer, `annotated.jsonl`,
each as its subcommand writes it. All of them are renamed into place on exit 0
or 1, and none is left after exit 2.

Only run-all loads this module, so it imports its stages at load time.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys
from contextlib import ExitStack
from datetime import date
from pathlib import Path
from typing import IO, Callable, Iterator

from coinbuzz import irc, message, sanitize, series, stats, twitter
from coinbuzz.cli import _CONFIG_KEYS, _annotator, _capture_lines, _log_lines, _output, _print_stats
from coinbuzz.cli import emit_plot_series, render_table


def _slug(stream_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", stream_id).strip("_") or "stream"


def _read_section(table: object, section: str, where: str = "") -> dict:
    """`table` checked against `_CONFIG_KEYS[section]`, typed, with defaults
    filled in; `where` names a table that is not one (default: `section`)."""
    keys = _CONFIG_KEYS[section]
    if not isinstance(table, dict):
        raise ValueError(f"{where or section} must be a table, got {table!r:.40}")
    for key in table:
        if key not in keys:
            raise ValueError(f"{section} has unknown key {key!r:.40}")
    typed = {}
    for key, (kind, default) in keys.items():
        if key in table:
            typed[key] = _read_value(table[key], kind, f"{section} key {key!r}")
        elif default is ...:
            raise ValueError(f"{section} lacks required key {key!r}")
        else:
            typed[key] = default
    return typed


def _read_value(value: object, kind: object, where: str) -> object:
    if isinstance(kind, str):
        return _read_section(value, kind, where)
    if isinstance(kind, list) and isinstance(value, list):
        return [_read_value(item, kind[0], where) for item in value]
    # type(), not isinstance(): a bool is no int here.
    if isinstance(kind, tuple) and value in kind or type(value) is kind:
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is date and isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    wanted = "list" if isinstance(kind, list) else getattr(kind, "__name__", f"one of {kind}")
    raise ValueError(f"{where} must be {wanted}, got {value!r:.40}")


def _load_config(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    loads = json.loads
    if path.suffix.lower() == ".toml":
        try:
            from tomllib import loads
        except ImportError:
            raise ValueError("TOML configs need Python 3.11+; use a JSON config instead") from None
    try:
        config = _read_section(loads(text), "config")
    except RecursionError:
        raise ValueError(f"config {str(path)!r:.40} must not nest past the recursion limit") from None
    # What the stages would reject only after output is written.
    twitter.check_keywords(config["keywords"], config["substring"])
    series.check_gap_args(config["theta"], config["k"])
    if config["window"]["start"] > config["window"]["end"]:
        raise ValueError(f"config key 'window' has its start after its end: {config['window']}")
    if not config["tweet_captures"] and not config["irc_logs"]:
        raise ValueError("config keys 'tweet_captures' and 'irc_logs' are both empty; a run needs a stream")
    # The streams the config produces, by slug: each stream's files are named
    # by its slug, so two ids may not share one.
    streams = {"twitter": "twitter"} if config["tweet_captures"] else {}
    for entry in config["irc_logs"]:
        if not entry["channel"].startswith("#"):
            raise ValueError(f"irc_logs entry key 'channel' must start with '#', got {entry['channel']!r:.40}")
        irc.resolve_tz(entry["tz"])
        stream_id = entry["stream_id"] = entry["stream_id"] or f"irc:{entry['channel']}"
        other = streams.setdefault(_slug(stream_id), stream_id)
        if other != stream_id:
            raise ValueError(
                f"stream ids {other!r:.40} and {stream_id!r:.40} would share the files of {_slug(stream_id)!r:.40}"
            )
    for n, plot in enumerate(config["plots"]):
        if plot["series"] not in streams.values():
            raise ValueError(f"plots entry names a stream the config does not produce: {plot['series']!r:.40}")
        if plot in config["plots"][:n]:
            raise ValueError(f"'plots' lists series {plot['series']!r:.40} with metric {plot['metric']!r} twice")
    return config


def run(config_path: str) -> int:
    """The exit code of the run that the config at `config_path` describes."""
    config = _load_config(Path(config_path))
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    price = series.load_market_csv(config["price_csv"])
    volume = series.load_market_csv(config["volume_csv"])
    start, end = config["window"]["start"], config["window"]["end"]

    # Each source is (stream_id, lines, ingest) with ingest(lines, emit) -> stats.
    # All captures form one "twitter" source, so tweet ids are deduped run-wide.
    sources = []
    if config["tweet_captures"]:
        ingest = functools.partial(
            twitter.ingest_capture, keywords=config["keywords"], substring=config["substring"]
        )
        sources.append(("twitter", map(sanitize.sanitize_text, _capture_lines(config["tweet_captures"])), ingest))
    for entry in config["irc_logs"]:
        ingest = functools.partial(
            irc.ingest_log, channel=entry["channel"], stream_id=entry["stream_id"],
            tz=entry["tz"], strict=config["strict"],
        )
        sources.append((entry["stream_id"], _log_lines(entry["path"]), ingest))

    annotated_line = annotated_out = None
    partial = False
    counters: dict[str, series.DailyCounter] = {}
    sinks: dict[str, Callable[[message.Message], None]] = {}  # handle bound to a stream's file, counter, line numbers

    def handle(out: IO[str], counter: series.DailyCounter, line_nos: Iterator[int], msg: message.Message) -> None:
        if not start <= msg.timestamp.date() <= end:
            return
        out.write(message.to_json_line(msg) + "\n")
        counter.add(msg)
        if annotated_out is not None:
            annotated_out.write(annotated_line(msg, next(line_nos)))

    # Every file of the run is entered on `stack`, so all of them are renamed
    # into place when the run ends with exit 0 or 1 and none after exit 2.
    with ExitStack() as stack:
        if config["gazetteer"]:
            annotated_line = _annotator(config["gazetteer"])
            annotated_out = stack.enter_context(_output(out_dir / "annotated.jsonl"))
        for stream_id, lines, ingest in sources:
            if stream_id not in sinks:
                out = stack.enter_context(_output(out_dir / f"messages_{_slug(stream_id)}.jsonl"))
                counters[stream_id] = series.DailyCounter()
                sinks[stream_id] = functools.partial(handle, out, counters[stream_id], itertools.count(1))
            ingest_stats = ingest(lines, sinks[stream_id])
            partial = partial or ingest_stats.skipped > 0
            _print_stats(f"run-all: {stream_id}", ingest_stats)

        # Aggregate, flag gaps, and persist one series CSV per stream.
        all_series = []
        for stream_id in sorted(counters):
            flagged = series.detect_gaps(counters[stream_id].build(stream_id), config["theta"], config["k"])
            all_series.append(flagged)
            series_out = stack.enter_context(_output(out_dir / f"series_{_slug(stream_id)}.csv"))
            series.write_daily_csv(flagged, series_out)

        report = stats.correlation_report(all_series, price, volume, config["exclude_outages"])
        stack.enter_context(_output(out_dir / "report.json")).write(stats.report_to_json(report) + "\n")
        suffix = "md" if config["format"] == "markdown" else "tsv"
        stack.enter_context(_output(out_dir / f"report.{suffix}")).write(render_table(report, config["format"]))
        partial = partial or any(row.has_error for row in report.rows)

        by_id = {s.stream_id: s for s in all_series}
        for plot in config["plots"]:
            stream_id = plot["series"]
            metric = plot["metric"]
            market = volume if metric == "volume" else price
            plot_path = out_dir / f"plot_{_slug(stream_id)}_{metric}.csv"
            try:
                # A plot without overlap is dropped alone; the others commit with the run.
                with ExitStack() as plot_stack:
                    emit_plot_series(by_id[stream_id], market, plot_stack.enter_context(_output(plot_path)))
                    stack.enter_context(plot_stack.pop_all())
            except series.EmptyOverlap as exc:
                print(f"run-all: plot {stream_id}/{metric}: {exc}", file=sys.stderr)
                partial = True

    print(f"run-all: wrote {out_dir}/report.{suffix}", file=sys.stderr)
    return 1 if partial else 0
