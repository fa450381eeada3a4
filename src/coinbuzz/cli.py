"""Command-line entry point: one subcommand per pipeline stage plus run-all.

Exit codes: 0 success, 1 partial success (skipped lines or per-row report
errors in lenient mode), 2 fatal error, 64 usage error. All stages stream
line by line; the run's set of seen tweet ids is the only state that grows
with the corpus. A tweet capture line ends at "\\n" alone, as sanitize frames
it, in ingest-tweets and run-all, which scrubs each line as sanitize would; an
IRC log line ends at "\\n", "\\r\\n" or "\\r".

Every output file appears whole or not at all: it is written as
`<path>.partial`, which exists only while the file is being written, and
renamed onto `<path>` when its command succeeds. After exit 2 no output of
the command is left; run-all leaves no file of that run.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from coinbuzz import annotate as annotate_mod
from coinbuzz import irc as irc_mod
from coinbuzz import message as message_mod
from coinbuzz import series as series_mod
from coinbuzz import stats as stats_mod
from coinbuzz import twitter as twitter_mod
from coinbuzz.sanitize import sanitize_stream, sanitize_text

TABLE_HEADERS = (
    "Data Source",
    "Total Messages",
    "Bitcoin Volume Correlation",
    "Bitcoin Price Correlation",
    "n_days",
    "policy",
)

# Every input fault (a bad line, row, date or report) is a ValueError.
_FATAL = (OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# --- rendering ---------------------------------------------------------------

def _correlation_cell(value: float | None, error: str | None) -> str:
    if value is None:
        return f"n/a({error})"
    return f"{value:.4f}"


def render_table(report: stats_mod.CorrelationReport, format: str = "tsv") -> str:
    """Render the summary table; correlations to 4 decimals, totals as ints."""
    if not report.rows:
        raise ValueError("cannot render an empty report")
    if format not in ("tsv", "markdown"):
        raise ValueError(f"unknown format {format!r}")
    table = [list(TABLE_HEADERS)]
    for row in report.rows:
        table.append(
            [
                row.stream_id,
                str(row.total_messages),
                _correlation_cell(row.r_volume, row.r_volume_error),
                _correlation_cell(row.r_price, row.r_price_error),
                str(row.n_days),
                row.policy,
            ]
        )
    if format == "tsv":
        return "\n".join("\t".join(cells) for cells in table) + "\n"
    lines = ["| " + " | ".join(table[0]) + " |"]
    lines.append("|" + "|".join(" --- " for _ in table[0]) + "|")
    for cells in table[1:]:
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def emit_plot_series(
    daily: series_mod.DailySeries,
    market: Mapping[date, float],
    out: IO[str],
) -> int:
    """Write `date,count,flag,metric_value` over the joined date range."""
    x, y, days = series_mod.align(daily.counts, market)
    out.write("date,count,flag,metric_value\n")
    for day, count, value in zip(days, x, y):
        flag = daily.flags.get(day, series_mod.Flag.OK).value
        out.write(f"{day.isoformat()},{int(count)},{flag},{value!r}\n")
    return len(days)


# --- subcommand handlers -----------------------------------------------------

def _cmd_sanitize(args: argparse.Namespace) -> int:
    stats = sanitize_stream(sys.stdin.buffer, sys.stdout.buffer)
    sys.stdout.buffer.flush()
    if args.stats:
        _print_stats("sanitize", stats)
    return 0


def _print_stats(label: str, stats: object) -> None:
    """One `label: key=value ...` stderr line with every counter of `stats`."""
    counters = " ".join(f"{key}={value}" for key, value in vars(stats).items())
    print(f"{label}: {counters}", file=sys.stderr)


@contextmanager
def _output(path: str | Path) -> Iterator[IO[str]]:
    """A utf-8 text file, without newline translation, that appears at `path`
    whole or not at all: the block writes `<path>.partial`, which is renamed
    onto `path` when the block completes and removed when an exception leaves it.
    """
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as out:
            yield out
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _capture_lines(paths: Iterable[str]) -> Iterator[str]:
    """Every line of the tweet captures in turn; a line ends at "\\n" only, as `sanitize` frames it."""
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as src:
            yield from src


def _log_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8", errors="replace") as src:
        yield from src


def _ingest_file(label: str, lines: Iterable[str], outfile: str, ingest: Callable) -> int:
    """Write each message `ingest(lines, emit)` emits to `outfile` as a JSON line and
    print its counters; 1 if it skipped a line. `lines` opens its file when ingest pulls a line."""
    with _output(outfile) as out:
        stats = ingest(lines, lambda msg: out.write(message_mod.to_json_line(msg) + "\n"))
    _print_stats(label, stats)
    return 1 if stats.skipped else 0


def _cmd_parse_irc(args: argparse.Namespace) -> int:
    ingest = functools.partial(irc_mod.ingest_log, channel=args.channel, strict=args.strict, tz=args.tz)
    return _ingest_file("parse-irc", _log_lines(args.infile), args.outfile, ingest)


def _cmd_ingest_tweets(args: argparse.Namespace) -> int:
    keywords = [kw.strip() for kw in args.keywords.split(",") if kw.strip()]
    ingest = functools.partial(twitter_mod.ingest_capture, keywords=keywords, substring=args.substring)
    return _ingest_file("ingest-tweets", _capture_lines([args.infile]), args.outfile, ingest)


def _annotated_line(msg: message_mod.Message, line_no: int, gazetteer: annotate_mod.Gazetteer) -> str:
    """The annotated document of the message on line `line_no` (from 1) of its
    stream's messages file; its doc_id is `<stream_id>:<line_no>`."""
    doc = annotate_mod.Document(f"{msg.stream_id}:{line_no}", msg.text)
    return annotate_mod.run_pipeline(doc, gazetteer).to_json() + "\n"


def _cmd_annotate(args: argparse.Namespace) -> int:
    gazetteer = annotate_mod.Gazetteer.load(args.gazetteer)
    docs = 0
    with open(args.infile, "r", encoding="utf-8") as src, _output(args.outfile) as out:
        for line_no, msg in message_mod.read_messages(src):
            out.write(_annotated_line(msg, line_no, gazetteer))
            docs += 1
    print(f"annotate: documents={docs}", file=sys.stderr)
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    counter = series_mod.DailyCounter()
    seen_streams: set[str] = set()
    with open(args.infile, "r", encoding="utf-8") as src:
        for _, msg in message_mod.read_messages(src):
            if args.stream_id and msg.stream_id != args.stream_id:
                continue
            seen_streams.add(msg.stream_id)
            counter.add(msg)
    if args.stream_id:
        stream_id = args.stream_id
    elif len(seen_streams) == 1:
        stream_id = seen_streams.pop()
    elif not seen_streams:
        stream_id = ""
    else:
        raise ValueError(
            f"input mixes streams {sorted(seen_streams)}; pick one with --stream-id"
        )
    with _output(args.outfile) as out:
        days = series_mod.write_daily_csv(counter.build(stream_id), out)
    print(f"aggregate: stream={stream_id or '(empty)'} days={days}", file=sys.stderr)
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    daily = series_mod.read_daily_csv(args.infile)
    flagged = series_mod.detect_gaps(daily, theta=args.theta, k=args.k)
    with _output(args.outfile) as out:
        series_mod.write_daily_csv(flagged, out)
    outages = len(flagged.outage_dates())
    print(f"gaps: days={len(flagged.counts)} outages={outages}", file=sys.stderr)
    return 0


def _parse_series_arg(value: str) -> tuple[str, str]:
    stream_id, sep, path = value.partition("=")
    if not sep or not stream_id or not path:
        raise ValueError(f"--series wants <stream_id>=<path>, got {value!r}")
    return stream_id, path


def _cmd_correlate(args: argparse.Namespace) -> int:
    daily = []
    for series_arg in args.series:
        stream_id, path = _parse_series_arg(series_arg)
        daily.append(series_mod.read_daily_csv(path, stream_id))
    price = series_mod.load_market_csv(args.price)
    volume = series_mod.load_market_csv(args.volume)
    report = stats_mod.correlation_report(
        daily, price, volume, exclude_outages=args.exclude_outages
    )
    with _output(args.outfile) if args.outfile else nullcontext(sys.stdout) as out:
        out.write(stats_mod.report_to_json(report) + "\n")
    return 1 if any(row.has_error for row in report.rows) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.infile, "r", encoding="utf-8") as src:
        report = stats_mod.report_from_json(src)
    with _output(args.outfile) if args.outfile else nullcontext(sys.stdout) as out:
        out.write(render_table(report, args.format))
    return 0


def _cmd_plot_series(args: argparse.Namespace) -> int:
    daily = series_mod.read_daily_csv(args.series)
    market = series_mod.load_market_csv(args.market)
    with _output(args.outfile) as out:
        rows = emit_plot_series(daily, market, out)
    print(f"plot-series: rows={rows}", file=sys.stderr)
    return 0


# --- run-all orchestration ---------------------------------------------------

@dataclass
class _StreamBundle:
    counter: series_mod.DailyCounter
    sink: IO[str]
    lines: int = 0  # messages written to sink so far


def _slug(stream_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", stream_id).strip("_") or "stream"


# Every key run-all reads, per config section: key -> (type, default). A
# default of ... marks a required key; a one-item list is a list of that type,
# a tuple the allowed strings and a section name a nested table.
_CONFIG_KEYS: dict[str, dict[str, tuple]] = {
    "config": {
        "price_csv": (str, ...), "volume_csv": (str, ...), "gazetteer": (str, None),
        "tweet_captures": ([str], ()), "irc_logs": (["irc_logs entry"], ()),
        "keywords": ([str], twitter_mod.DEFAULT_KEYWORDS), "substring": (bool, False),
        "strict": (bool, False), "window": ("window", {"start": date.min, "end": date.max}),
        "theta": (float, 0.1), "k": (int, 7), "exclude_outages": (bool, False),
        "out_dir": (str, "out"), "format": (("tsv", "markdown"), "tsv"), "plots": (["plots entry"], ()),
    },
    "irc_logs entry": {"path": (str, ...), "channel": (str, ...),
                       "tz": (str, "UTC"), "stream_id": (str, None)},
    "plots entry": {"series": (str, ...), "metric": (("price", "volume"), ...)},
    "window": {"start": (date, ...), "end": (date, ...)},
}


def _read_section(table: object, section: str) -> dict:
    """`table` checked against `_CONFIG_KEYS[section]`, typed, with defaults filled in."""
    keys = _CONFIG_KEYS[section]
    if not isinstance(table, dict):
        raise ValueError(f"{section} must be a table, got {table!r}")
    for key in table:
        if key not in keys:
            raise ValueError(f"{section} has unknown key {key!r}")
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
        return _read_section(value, kind)
    if isinstance(kind, list) and isinstance(value, list):
        return [_read_value(item, kind[0], where) for item in value]
    # type(), not isinstance(): a bool is no int here.
    if isinstance(kind, tuple) and value in kind or type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    if kind is date and isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    wanted = "list" if isinstance(kind, list) else getattr(kind, "__name__", f"one of {kind}")
    raise ValueError(f"{where} must be {wanted}, got {value!r}")


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
        raise ValueError(f"config {path} must not nest past the recursion limit") from None
    # What the stages would reject only after output is written.
    twitter_mod.check_keywords(config["keywords"])
    if not 0 < config["theta"] < 1:
        raise ValueError(f"config key 'theta' must be in (0, 1), got {config['theta']!r}")
    if config["k"] < 1:
        raise ValueError(f"config key 'k' must be at least 1, got {config['k']!r}")
    if config["window"]["start"] > config["window"]["end"]:
        raise ValueError(f"config key 'window' has its start after its end: {config['window']}")
    # The streams the config produces, by slug: each stream's files are named
    # by its slug, so two ids may not share one.
    streams = {"twitter": "twitter"} if config["tweet_captures"] else {}
    for entry in config["irc_logs"]:
        if not entry["channel"].startswith("#"):
            raise ValueError(f"irc_logs entry key 'channel' must start with '#', got {entry['channel']!r}")
        irc_mod.resolve_tz(entry["tz"])
        stream_id = entry["stream_id"] = entry["stream_id"] or f"irc:{entry['channel']}"
        other = streams.setdefault(_slug(stream_id), stream_id)
        if other != stream_id:
            raise ValueError(
                f"stream ids {other!r} and {stream_id!r} would share the files of {_slug(stream_id)!r}"
            )
    for plot in config["plots"]:
        if plot["series"] not in streams.values():
            raise ValueError(f"plots entry names a stream the config does not produce: {plot['series']!r}")
    return config


def _cmd_run_all(args: argparse.Namespace) -> int:
    config = _load_config(Path(args.config))
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    start, end = config["window"]["start"], config["window"]["end"]

    # Each source is (stream_id, lines, ingest) with ingest(lines, emit) -> stats.
    # All captures form one "twitter" source, so tweet ids are deduped run-wide.
    sources = []
    if config["tweet_captures"]:
        ingest = functools.partial(
            twitter_mod.ingest_capture, keywords=config["keywords"], substring=config["substring"]
        )
        sources.append(("twitter", map(sanitize_text, _capture_lines(config["tweet_captures"])), ingest))
    for entry in config["irc_logs"]:
        ingest = functools.partial(
            irc_mod.ingest_log, channel=entry["channel"], stream_id=entry["stream_id"],
            tz=entry["tz"], strict=config["strict"],
        )
        sources.append((entry["stream_id"], _log_lines(entry["path"]), ingest))

    gazetteer = None
    annotated_out = None
    partial = False
    bundles: dict[str, _StreamBundle] = {}

    def handle(bundle: _StreamBundle, msg: message_mod.Message) -> None:
        if not start <= msg.timestamp.date() <= end:
            return
        bundle.sink.write(message_mod.to_json_line(msg) + "\n")
        bundle.lines += 1
        bundle.counter.add(msg)
        if annotated_out is not None:
            annotated_out.write(_annotated_line(msg, bundle.lines, gazetteer))

    # Every file of the run is entered on `stack`, so all of them are renamed
    # into place when the run ends with exit 0 or 1 and none after exit 2.
    with ExitStack() as stack:
        if config["gazetteer"]:
            gazetteer = annotate_mod.Gazetteer.load(config["gazetteer"])
            annotated_out = stack.enter_context(_output(out_dir / "annotated.jsonl"))
        for stream_id, lines, ingest in sources:
            if stream_id not in bundles:
                sink = stack.enter_context(_output(out_dir / f"messages_{_slug(stream_id)}.jsonl"))
                bundles[stream_id] = _StreamBundle(series_mod.DailyCounter(), sink)
            stats = ingest(lines, functools.partial(handle, bundles[stream_id]))
            partial = partial or stats.skipped > 0
            _print_stats(f"run-all: {stream_id}", stats)

        # Aggregate, flag gaps, and persist one series CSV per stream.
        all_series = []
        for stream_id in sorted(bundles):
            flagged = series_mod.detect_gaps(bundles[stream_id].counter.build(stream_id), config["theta"], config["k"])
            all_series.append(flagged)
            series_out = stack.enter_context(_output(out_dir / f"series_{_slug(stream_id)}.csv"))
            series_mod.write_daily_csv(flagged, series_out)

        price = series_mod.load_market_csv(config["price_csv"])
        volume = series_mod.load_market_csv(config["volume_csv"])
        report = stats_mod.correlation_report(all_series, price, volume, config["exclude_outages"])
        stack.enter_context(_output(out_dir / "report.json")).write(stats_mod.report_to_json(report) + "\n")
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
            except series_mod.EmptyOverlap as exc:
                print(f"run-all: plot {stream_id}/{metric}: {exc}", file=sys.stderr)
                partial = True

    print(f"run-all: wrote {out_dir}/report.{suffix}", file=sys.stderr)
    return 1 if partial else 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    keys = _CONFIG_KEYS["config"]
    parser = _Parser(prog="coinbuzz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sanitize", help="scrub non-ASCII \\uXXXX escapes, stdin to stdout")
    p.add_argument("--stats", action="store_true", help="print counters to stderr")
    p.set_defaults(func=_cmd_sanitize)

    p = sub.add_parser("parse-irc", help="parse an IRC channel log into messages JSONL")
    p.add_argument("--channel", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--strict", action="store_true", help="abort on the first unparsable line")
    p.add_argument(
        "--tz", default=_CONFIG_KEYS["irc_logs entry"]["tz"][1],
        help="timezone the log was written in (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_parse_irc)

    p = sub.add_parser("ingest-tweets", help="filter a tweet capture into messages JSONL")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument(
        "--keywords", default=",".join(keys["keywords"][1]),
        help="comma-separated keyword list (default: %(default)s)",
    )
    p.add_argument("--substring", action="store_true", help="match keywords as substrings")
    p.set_defaults(func=_cmd_ingest_tweets)

    p = sub.add_parser("annotate", help="annotate messages with tokens and gazetteer lookups")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("aggregate", help="bucket messages into a daily count series CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--stream-id", default="", help="pick one stream from a mixed file")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("gaps", help="flag likely collection outages in a daily series CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument(
        "--theta", type=float, default=keys["theta"][1],
        help="outage threshold fraction (default: %(default)s)",
    )
    p.add_argument(
        "--k", type=int, default=keys["k"][1],
        help="rolling median window in days (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("correlate", help="correlate daily series against market CSVs")
    p.add_argument("--series", action="append", required=True, metavar="STREAM_ID=CSV")
    p.add_argument("--price", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--exclude-outages", action="store_true")
    p.add_argument("--out", dest="outfile", default="", help="report JSON path (default stdout)")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("report", help="render a report JSON as a table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=keys["format"][0], default=keys["format"][1])
    p.add_argument("--out", dest="outfile", default="", help="output path (default stdout)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plot-series", help="join a daily series with a market series into plot CSV")
    p.add_argument("--series", required=True, help="daily series CSV")
    p.add_argument("--market", required=True, help="market CSV")
    p.add_argument(
        "--metric", choices=_CONFIG_KEYS["plots entry"]["metric"][0], default="volume",
        help="the metric --market holds; it only names it (default: %(default)s)",
    )
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_plot_series)

    p = sub.add_parser("run-all", help="compose the whole pipeline from a config file")
    p.add_argument("--config", required=True, help="JSON (or TOML on 3.11+) config path")
    p.set_defaults(func=_cmd_run_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FATAL as exc:
        print(f"coinbuzz: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
