"""run-all: every stage in one process, from one JSON (or TOML) config file.

The config's keys, types and defaults are `cli._CONFIG_KEYS`. A bad config,
or a value that a stage would reject only after writing, is fatal (exit 2)
before `out_dir` is made. Into `out_dir` go, per stream, `messages_<slug>.jsonl`
and `series_<slug>.csv`, then `report.json`, `report.tsv` (or `.md`), a
`plot_<slug>_<metric>.csv` per plot and, with a gazetteer, `annotated.jsonl`,
each as its subcommand writes it. One `cli._Outputs` commits all of them on
exit 0 or 1; after exit 2 none is left, and the files of an earlier run stay
as they were.

Only run-all loads this module, so it imports its stages at load time.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys
from datetime import date
from pathlib import Path
from typing import IO, Callable, Iterator

from coinbuzz import irc, message, sanitize, series, stats, twitter
from coinbuzz.cli import _CONFIG_KEYS, _annotator, _capture_lines, _log_lines, _Outputs, _print_stats, _stderr_line
from coinbuzz.cli import check_stream_id, emit_plot_series, render_table


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
        irc.check_channel(entry["channel"])
        irc.resolve_tz(entry["tz"])
        stream_id = entry["stream_id"] = entry["stream_id"] or f"irc:{entry['channel']}"
        check_stream_id(stream_id, config["format"])
        other = streams.setdefault(_slug(stream_id), stream_id)
        if other != stream_id:
            raise ValueError(
                f"stream ids {other!r:.40} and {stream_id!r:.40} would share the files of {_slug(stream_id)!r:.40}"
            )
    produced = set(streams.values())
    plotted = set()
    for plot in config["plots"]:
        if plot["series"] not in produced:
            raise ValueError(f"plots entry names a stream the config does not produce: {plot['series']!r:.40}")
        if (plot["series"], plot["metric"]) in plotted:
            raise ValueError(f"'plots' lists series {plot['series']!r:.40} with metric {plot['metric']!r} twice")
        plotted.add((plot["series"], plot["metric"]))
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

    with _Outputs() as files:
        if config["gazetteer"]:
            annotated_line = _annotator(config["gazetteer"])
            annotated_out = files.create(out_dir / "annotated.jsonl")
        for stream_id, lines, ingest in sources:
            if stream_id not in sinks:
                out = files.create(out_dir / f"messages_{_slug(stream_id)}.jsonl")
                counters[stream_id] = series.DailyCounter()
                sinks[stream_id] = functools.partial(handle, out, counters[stream_id], itertools.count(1))
            ingest_stats = ingest(lines, sinks[stream_id])
            partial = partial or ingest_stats.skipped > 0
            _print_stats(f"run-all: {stream_id}", ingest_stats)

        # Aggregate, flag gaps, and persist one series CSV per stream.
        by_id: dict[str, series.DailySeries] = {}
        for stream_id in sorted(counters):
            by_id[stream_id] = series.detect_gaps(counters[stream_id].build(stream_id), config["theta"], config["k"])
            series.write_daily_csv(by_id[stream_id], files.create(out_dir / f"series_{_slug(stream_id)}.csv"))

        report = stats.correlation_report(list(by_id.values()), price, volume, config["exclude_outages"])
        files.create(out_dir / "report.json").write(stats.report_to_json(report) + "\n")
        suffix = "md" if config["format"] == "markdown" else "tsv"
        files.create(out_dir / f"report.{suffix}").write(render_table(report, config["format"]))
        partial = partial or any(row.has_error for row in report.rows)

        for plot in config["plots"]:
            stream_id = plot["series"]
            metric = plot["metric"]
            market = volume if metric == "volume" else price
            plot_path = out_dir / f"plot_{_slug(stream_id)}_{metric}.csv"
            plot_out = files.create(plot_path)
            try:
                emit_plot_series(by_id[stream_id], market, plot_out)
            except series.EmptyOverlap as exc:
                # A plot without overlap is dropped alone; the others commit with the run.
                files.discard(plot_path, plot_out)
                _stderr_line(f"run-all: plot {stream_id}/{metric}: {exc}")
                partial = True

    _stderr_line(f"run-all: wrote {out_dir}/report.{suffix}")
    return 1 if partial else 0
