"""Command-line entry point: one subcommand per pipeline stage, and run-all,
which `coinbuzz.run_all` runs.

Exit codes: 0 success, 1 partial success (skipped lines or per-row report
errors in lenient mode), 2 fatal error, 64 usage error. All stages stream
line by line; the run's set of seen tweet ids is the only state that grows
with the corpus. A tweet capture line ends at "\\n" alone, as sanitize frames
it; an IRC log line ends at "\\n", "\\r\\n" or "\\r".

Every output file appears whole or not at all: it is written as
`<path>.partial`, which exists only while the file is being written, and
renamed onto `<path>` when its command succeeds; run-all renames all of its
files as one. After exit 2 no output of the command is left.

Each subcommand's handler imports the stage modules it runs; at load time
this module imports only the standard library and the package's defaults, so
a subcommand starts without loading the stages it does not use.

A command line of the form `<command> (--flag value | --switch)*` is read
from the table `_COMMANDS` without argparse; argparse is imported only to
print `--help`, to report a usage error or to read any other form, such as
`--in=x` or an abbreviated flag, from a parser built from the same table.
"""

from __future__ import annotations

import functools
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from datetime import date
from pathlib import Path
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from coinbuzz import DEFAULT_KEYWORDS

if TYPE_CHECKING:
    import argparse

    from coinbuzz.message import Message
    from coinbuzz.series import DailySeries
    from coinbuzz.stats import CorrelationReport

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


# --- rendering ---------------------------------------------------------------

def _correlation_cell(value: float | None, error: str | None) -> str:
    if value is None:
        return f"n/a({error})"
    return f"{value:.4f}"


# What would break a row of each table format: a tab or `|` splits a cell, CR or LF the row.
_CELL_BREAKERS = {"tsv": "\t\r\n", "markdown": "|\r\n"}


def check_stream_id(stream_id: str, format: str) -> None:
    """ValueError if `stream_id` holds a character that would break its row of a `format` table."""
    if any(ch in stream_id for ch in _CELL_BREAKERS[format]):
        raise ValueError(f"stream id {stream_id!r:.40} would break its row of a {format} table")


def render_table(report: CorrelationReport, format: str = "tsv") -> str:
    """Render the summary table; correlations to 4 decimals, totals as ints."""
    if not report.rows:
        raise ValueError("cannot render an empty report")
    if format not in ("tsv", "markdown"):
        raise ValueError(f"unknown format {format!r}")
    table = [list(TABLE_HEADERS)]
    for row in report.rows:
        check_stream_id(row.stream_id, format)
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
    daily: DailySeries,
    market: Mapping[date, float],
    out: IO[str],
) -> int:
    """Write `date,count,flag,metric_value` over the joined date range."""
    from coinbuzz import series as series_mod

    joined = series_mod.align(daily, market)
    out.write("date,count,flag,metric_value\n")
    for day, count, flag, value in joined:
        out.write(f"{day.isoformat()},{count},{flag.value},{value!r}\n")
    return len(joined)


# --- subcommand handlers -----------------------------------------------------

def _cmd_sanitize(args: SimpleNamespace) -> int:
    from coinbuzz.sanitize import sanitize_stream

    src = _stdio("stdin").buffer
    # A block-buffered stream on stdout's descriptor, which stays open: one write(2) per block, where
    # `sys.stdout.buffer` makes one per line when stdout is unbuffered (`python -u`, PYTHONUNBUFFERED).
    with open(_stdio("stdout").buffer.fileno(), "wb", closefd=False) as dst:
        stats = sanitize_stream(src, dst)
        dst.flush()
    if args.stats:
        _print_stats("sanitize", stats)
    return 0


def _stdio(name: str) -> IO[str]:
    """`sys.stdin` or `sys.stdout`; OSError when the process started with that
    descriptor closed, as Python then sets it to None."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _stderr_line(line: str) -> None:
    """Print `line` to stderr. A stderr that is closed or fails to write loses
    the line and changes neither the exit code nor any output file (`print`
    would write to stdout when stderr is None)."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _print_stats(label: str, stats: object) -> None:
    """One `label: key=value ...` stderr line with every counter of `stats`."""
    counters = " ".join(f"{key}={value}" for key, value in vars(stats).items())
    _stderr_line(f"{label}: {counters}")


class _Outputs:
    """Output files in one directory, each written as `<path>.partial` and renamed onto its path when
    the `with` block completes, all as one; a subcommand's `--out` is a commit of one file. Each file
    but the last first has an earlier file of its name moved aside into `.run-all-backup`, made only
    when there is one: the last rename is the final step, so nothing after it needs undoing. If a step
    fails, the renames made are undone, last first, and the error is re-raised: no file of the block
    is left, and the earlier files are as they were."""

    def __init__(self) -> None:
        self._files = ExitStack()
        self._paths: list[str | Path] = []

    def create(self, path: str | Path) -> IO[str]:
        """`<path>.partial`, open for writing: utf-8 text without newline translation."""
        out = self._files.enter_context(open(Path(f"{path}.partial"), "w", encoding="utf-8", newline=""))
        self._paths.append(path)
        return out

    def discard(self, path: str | Path, out: IO[str]) -> None:
        """Drop the file `create(path)` gave as `out`."""
        out.close()
        self._paths.remove(path)
        Path(f"{path}.partial").unlink()

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type: type[BaseException] | None, *_: object) -> None:
        committed = False
        try:
            self._files.close()
            if exc_type is None:
                self._commit()
                committed = True
        finally:
            if not committed:
                for path in self._paths:
                    Path(f"{path}.partial").unlink(missing_ok=True)

    def _commit(self) -> None:
        aside: list[Path] = []  # the earlier files, in `.run-all-backup`, which is made for the first
        moves: list[tuple[str | Path, str | Path]] = []  # (source, destination) of each rename made, in order
        try:
            for n, path in enumerate(self._paths, 1):
                backup, partial = Path(path).parent / ".run-all-backup", Path(f"{path}.partial")
                if n < len(self._paths) and _exists_as_file(path):
                    if not aside:
                        backup.mkdir()
                    aside.append(backup / Path(path).name)
                    os.replace(path, aside[-1])
                    moves.append((path, aside[-1]))
                os.replace(partial, path)
                moves.append((partial, path))
        except BaseException:
            for source, destination in reversed(moves):
                os.replace(destination, source)
            if aside:
                aside[0].parent.rmdir()
            raise
        for path in aside:
            path.unlink()
        if aside:
            aside[0].parent.rmdir()


def _exists_as_file(path: str | Path) -> bool:
    """Whether something other than a directory is at `path`, a symlink as itself. A directory
    is not moved aside, so the rename onto it fails and the error names it."""
    try:
        return not stat.S_ISDIR(os.lstat(path).st_mode)
    except FileNotFoundError:
        return False


@contextmanager
def _output(path: str) -> Iterator[IO[str]]:
    """A file that `_Outputs` commits alone at `path`, or stdout when `path` is
    empty, flushed when the block completes: writing to a closed pipe fails
    there if not before."""
    if path:
        with _Outputs() as files:
            yield files.create(path)
    else:
        out = _stdio("stdout")
        yield out
        out.flush()


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
    from coinbuzz import message as message_mod

    with _output(outfile) as out:
        stats = ingest(lines, lambda msg: out.write(message_mod.to_json_line(msg) + "\n"))
    _print_stats(label, stats)
    return 1 if stats.skipped else 0


def _cmd_parse_irc(args: SimpleNamespace) -> int:
    from coinbuzz import irc as irc_mod

    ingest = functools.partial(irc_mod.ingest_log, channel=args.channel, strict=args.strict, tz=args.tz)
    return _ingest_file("parse-irc", _log_lines(args.infile), args.outfile, ingest)


def _cmd_ingest_tweets(args: SimpleNamespace) -> int:
    from coinbuzz import twitter as twitter_mod

    keywords = [kw.strip() for kw in args.keywords.split(",") if kw.strip()]
    ingest = functools.partial(twitter_mod.ingest_capture, keywords=keywords, substring=args.substring)
    return _ingest_file("ingest-tweets", _capture_lines([args.infile]), args.outfile, ingest)


def _annotator(gazetteer_path: str) -> Callable[[Message, int], str]:
    """Loads the gazetteer at `gazetteer_path`, then maps (message, its line
    number from 1 in its stream's messages file) to the message's annotated
    document as a JSON line; the doc_id is `<stream_id>:<line_no>`."""
    from coinbuzz import annotate as annotate_mod

    gazetteer = annotate_mod.Gazetteer.load(gazetteer_path)

    def annotated_line(msg: Message, line_no: int) -> str:
        doc = annotate_mod.Document(f"{msg.stream_id}:{line_no}", msg.text)
        return annotate_mod.run_pipeline(doc, gazetteer).to_json() + "\n"

    return annotated_line


def _cmd_annotate(args: SimpleNamespace) -> int:
    from coinbuzz import message as message_mod

    annotated_line = _annotator(args.gazetteer)
    docs = 0
    with open(args.infile, "r", encoding="utf-8") as src, _output(args.outfile) as out:
        for line_no, msg in message_mod.read_messages(src):
            out.write(annotated_line(msg, line_no))
            docs += 1
    _stderr_line(f"annotate: documents={docs}")
    return 0


def _cmd_aggregate(args: SimpleNamespace) -> int:
    from coinbuzz import message as message_mod
    from coinbuzz import series as series_mod

    counter = series_mod.DailyCounter()
    seen_streams: set[str] = set()
    with open(args.infile, "r", encoding="utf-8") as src:
        for _, msg in message_mod.read_messages(src):
            if args.stream_id and msg.stream_id != args.stream_id:
                continue
            seen_streams.add(msg.stream_id)
            counter.add(msg)
    # With --stream-id only that stream is counted, so the set holds at most it.
    if len(seen_streams) > 1:
        raise ValueError(f"input mixes streams {sorted(seen_streams)!r:.40}; pick one with --stream-id")
    stream_id = args.stream_id or next(iter(seen_streams), "")
    with _output(args.outfile) as out:
        days = series_mod.write_daily_csv(counter.build(stream_id), out)
    _stderr_line(f"aggregate: stream={stream_id or '(empty)'} days={days}")
    return 0


def _cmd_gaps(args: SimpleNamespace) -> int:
    from coinbuzz import series as series_mod

    daily = series_mod.read_daily_csv(args.infile)
    flagged = series_mod.detect_gaps(daily, theta=args.theta, k=args.k)
    with _output(args.outfile) as out:
        days = series_mod.write_daily_csv(flagged, out)
    # Every day that the series lacks is an outage, so only its OK days are not.
    outages = days - list(flagged.flags.values()).count(series_mod.Flag.OK)
    _stderr_line(f"gaps: days={days} outages={outages}")
    return 0


def _parse_series_arg(value: str) -> tuple[str, str]:
    stream_id, sep, path = value.partition("=")
    if not sep or not stream_id or not path:
        raise ValueError(f"--series wants <stream_id>=<path>, got {value!r:.40}")
    return stream_id, path


def _cmd_correlate(args: SimpleNamespace) -> int:
    from coinbuzz import series as series_mod
    from coinbuzz import stats as stats_mod

    daily = []
    for series_arg in args.series:
        stream_id, path = _parse_series_arg(series_arg)
        daily.append(series_mod.read_daily_csv(path, stream_id))
    price = series_mod.load_market_csv(args.price)
    volume = series_mod.load_market_csv(args.volume)
    report = stats_mod.correlation_report(
        daily, price, volume, exclude_outages=args.exclude_outages
    )
    with _output(args.outfile) as out:
        out.write(stats_mod.report_to_json(report) + "\n")
    return 1 if any(row.has_error for row in report.rows) else 0


def _cmd_report(args: SimpleNamespace) -> int:
    from coinbuzz import stats as stats_mod

    with open(args.infile, "r", encoding="utf-8") as src:
        report = stats_mod.report_from_json(src)
    with _output(args.outfile) as out:
        out.write(render_table(report, args.format))
    return 0


def _cmd_plot_series(args: SimpleNamespace) -> int:
    from coinbuzz import series as series_mod

    daily = series_mod.read_daily_csv(args.series)
    market = series_mod.load_market_csv(args.market)
    with _output(args.outfile) as out:
        rows = emit_plot_series(daily, market, out)
    _stderr_line(f"plot-series: rows={rows}")
    return 0


# Every key run-all reads, per config section: key -> (type, default). A
# default of ... marks a required key; a one-item list is a list of that type,
# a tuple the allowed strings and a section name a nested table.
_CONFIG_KEYS: dict[str, dict[str, tuple]] = {
    "config": {
        "price_csv": (str, ...), "volume_csv": (str, ...), "gazetteer": (str, None),
        "tweet_captures": ([str], ()), "irc_logs": (["irc_logs entry"], ()),
        "keywords": ([str], DEFAULT_KEYWORDS), "substring": (bool, False),
        "strict": (bool, False), "window": ("window", {"start": date.min, "end": date.max}),
        "theta": (float, 0.1), "k": (int, 7), "exclude_outages": (bool, False),
        "out_dir": (str, "out"), "format": (("tsv", "markdown"), "tsv"), "plots": (["plots entry"], ()),
    },
    "irc_logs entry": {"path": (str, ...), "channel": (str, ...),
                       "tz": (str, "UTC"), "stream_id": (str, None)},
    "plots entry": {"series": (str, ...), "metric": (("price", "volume"), ...)},
    "window": {"start": (date, ...), "end": (date, ...)},
}


def _cmd_run_all(args: SimpleNamespace) -> int:
    from coinbuzz.run_all import run

    return run(args.config)


# --- command line ------------------------------------------------------------

_KEYS = _CONFIG_KEYS["config"]
_IN = ("--in", "infile", str, ..., None, None)
_OUT = ("--out", "outfile", str, ..., None, None)

# Every subcommand, in `--help`'s order: name -> (handler, help, options). An
# option is (flag, dest, kind, default, metavar, help), where kind is str,
# float, int, "switch", "append" or a tuple of the allowed strings, and a
# default of ... marks a required option.
_COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], str, tuple[tuple, ...]]] = {
    "sanitize": (_cmd_sanitize, "scrub non-ASCII \\uXXXX escapes, stdin to stdout", (
        ("--stats", "stats", "switch", False, None, "print counters to stderr"),
    )),
    "parse-irc": (_cmd_parse_irc, "parse an IRC channel log into messages JSONL", (
        ("--channel", "channel", str, ..., None, None), _IN, _OUT,
        ("--strict", "strict", "switch", False, None, "abort on the first unparsable line"),
        ("--tz", "tz", str, _CONFIG_KEYS["irc_logs entry"]["tz"][1], None,
         "timezone the log was written in (default: %(default)s)"),
    )),
    "ingest-tweets": (_cmd_ingest_tweets, "filter a tweet capture into messages JSONL", (
        _IN, _OUT,
        ("--keywords", "keywords", str, ",".join(_KEYS["keywords"][1]), None,
         "comma-separated keyword list (default: %(default)s)"),
        ("--substring", "substring", "switch", False, None, "match keywords as substrings"),
    )),
    "annotate": (_cmd_annotate, "annotate messages with tokens and gazetteer lookups", (
        _IN, ("--gazetteer", "gazetteer", str, ..., None, None), _OUT,
    )),
    "aggregate": (_cmd_aggregate, "bucket messages into a daily count series CSV", (
        _IN, _OUT, ("--stream-id", "stream_id", str, "", None, "pick one stream from a mixed file"),
    )),
    "gaps": (_cmd_gaps, "flag likely collection outages in a daily series CSV", (
        _IN, _OUT,
        ("--theta", "theta", float, _KEYS["theta"][1], None, "outage threshold fraction (default: %(default)s)"),
        ("--k", "k", int, _KEYS["k"][1], None, "rolling median window in days (default: %(default)s)"),
    )),
    "correlate": (_cmd_correlate, "correlate daily series against market CSVs", (
        ("--series", "series", "append", ..., "STREAM_ID=CSV", None),
        ("--price", "price", str, ..., None, None),
        ("--volume", "volume", str, ..., None, None),
        ("--exclude-outages", "exclude_outages", "switch", False, None, None),
        ("--out", "outfile", str, "", None, "report JSON path (default stdout)"),
    )),
    "report": (_cmd_report, "render a report JSON as a table", (
        _IN, ("--format", "format", _KEYS["format"][0], _KEYS["format"][1], None, None),
        ("--out", "outfile", str, "", None, "output path (default stdout)"),
    )),
    "plot-series": (_cmd_plot_series, "join a daily series with a market series into plot CSV", (
        ("--series", "series", str, ..., None, "daily series CSV"),
        ("--market", "market", str, ..., None, "market CSV"),
        ("--metric", "metric", _CONFIG_KEYS["plots entry"]["metric"][0], "volume", None,
         "the metric --market holds; it only names it (default: %(default)s)"),
        _OUT,
    )),
    "run-all": (_cmd_run_all, "compose the whole pipeline from a config file", (
        ("--config", "config", str, ..., None, "JSON (or TOML on 3.11+) config path"),
    )),
}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that `build_parser()` would give for `argv`, read from
    `_COMMANDS` without argparse, when `argv` is `<command> (--flag value |
    --switch)*`: each flag an exact option of the command, given once unless
    it appends, no value starting with "-", each value of its option's kind
    and every required option present. None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    by_flag = {option[0]: option for option in options}
    args: dict[str, object] = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in by_flag:
            return None
        _, dest, kind, _, _, _ = by_flag[flag]
        if kind == "switch":
            value = True
        else:
            value = next(words, "-")
            if value.startswith("-") or (isinstance(kind, tuple) and value not in kind):
                return None
            if kind is float or kind is int:
                try:
                    value = kind(value)
                except ValueError:
                    return None
        if kind == "append":
            args.setdefault(dest, []).append(value)
        elif dest in args:
            return None
        else:
            args[dest] = value
    for _, dest, _, default, _, _ in options:
        if dest not in args:
            if default is ...:
                return None
            args[dest] = default
    return SimpleNamespace(command=argv[0], func=func, **args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command in `_COMMANDS`, which exits 64 on
    a usage error. `main` builds it only for a command line that `_read_argv`
    does not read, such as `--help` or a usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            _stderr_line(f"{self.format_usage()}{self.prog}: error: {message}")
            sys.exit(64)

        # The help goes to stdout and is flushed, and a closed stdout or a write that fails is a fatal error, as
        # for any command that writes to stdout: argparse would print to stderr when stdout is None (closed), and
        # would ignore the OSError of a write.
        def print_help(self, file: IO[str] | None = None) -> None:
            out = file or _stdio("stdout")
            out.write(self.format_help())
            out.flush()

    # `--help` describes the commands with every paragraph of the module docstring but the last.
    parser = _Parser(prog="coinbuzz", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, dest, kind, default, metavar, text in options:
            spec: dict[str, object] = {"dest": dest, "help": text}
            if metavar:
                spec["metavar"] = metavar
            if kind in ("switch", "append"):
                spec["action"] = "store_true" if kind == "switch" else "append"
            elif isinstance(kind, tuple):
                spec["choices"] = kind
            elif kind is not str:
                spec["type"] = kind
            if default is ...:
                spec["required"] = True
            else:
                spec["default"] = default
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def _error_text(exc: Exception) -> str:
    """The error line's text: an OSError names its paths cut to 40
    characters, where `str(exc)` would quote them whole."""
    if not isinstance(exc, OSError) or exc.strerror is None or exc.filename is None:
        return str(exc)
    text = f"{exc.strerror}: {exc.filename!r:.40}"
    if exc.filename2 is not None:
        text += f" -> {exc.filename2!r:.40}"
    return text


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command `argv` names and return its exit code. A command that
    writes to stdout flushes it before it returns, so a closed pipe is a
    fatal error (exit 2) like any other. `--help` and a usage error raise
    `SystemExit` from the argparse parser, which is built only for an `argv`
    that `_read_argv` does not read.

    `coinbuzz.__main__.entry`, which the console script and `python -m
    coinbuzz` run, then runs the atexit handlers and exits without
    interpreter teardown; an in-process caller gets the code back instead.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    try:
        if args is None:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        return args.func(args)
    except _FATAL as exc:
        _stderr_line(f"coinbuzz: error: {_error_text(exc)}")
        return 2
