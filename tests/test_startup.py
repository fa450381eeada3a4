"""Which modules each start-up loads: each subcommand imports only the stages it runs.

Every check runs in a fresh interpreter and compares module sets, not times.
It counts only the modules loaded after the interpreter started, so modules
that a site hook of the host already loaded decide nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the modules that `import coinbuzz.cli` and `main(argv)` load, one a line, and exits
# with the code of the `SystemExit` that `main` raises (`--help`, a usage error), if any.
_PROBE = """
import sys
before = set(sys.modules)
from coinbuzz.cli import main
code = 0
if sys.argv[1:]:
    sys.stdout = sys.stderr  # help text; stdout lists the modules alone
    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    sys.stdout = sys.__stdout__
print("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

# Costly standard-library modules: only a zone other than UTC may load `zoneinfo`,
# and nothing loads `dataclasses` or `statistics`.
HEAVY = {"dataclasses", "statistics", "zoneinfo"}


def _loaded(argv: list[str], cwd: Path, code: int = 0) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        input="", capture_output=True, text=True, cwd=cwd, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == code, result.stderr
    return set(result.stdout.split())


def _coinbuzz(modules: set[str]) -> set[str]:
    return {name.removeprefix("coinbuzz.") for name in modules if name.startswith("coinbuzz.")} - {"cli"}


def test_importing_the_cli_loads_no_stage(tmp_path):
    loaded = _loaded([], tmp_path)
    assert "coinbuzz.cli" in loaded
    assert _coinbuzz(loaded) == set()
    assert not loaded & HEAVY


# Each subcommand fails on its absent input, after its handler has imported what it runs.
STAGES_RUN = [
    (["sanitize"], {"sanitize"}),
    (["parse-irc", "--channel", "#c", "--in", "absent", "--out", "out"], {"irc", "message", "sanitize"}),
    (["ingest-tweets", "--in", "absent", "--out", "out"], {"twitter", "message", "sanitize"}),
    (["annotate", "--in", "absent", "--gazetteer", "absent", "--out", "out"], {"annotate", "message"}),
    (["aggregate", "--in", "absent", "--out", "out"], {"message", "series"}),
    (["gaps", "--in", "absent", "--out", "out"], {"series"}),
    (["correlate", "--series", "s=absent", "--price", "absent", "--volume", "absent"], {"series", "stats"}),
    (["report", "--in", "absent"], {"series", "stats"}),
    (["plot-series", "--series", "absent", "--market", "absent", "--out", "out"], {"series"}),
    # run-all loads its own module, which imports every stage it runs but `annotate`, a gazetteer's.
    (["run-all", "--config", "absent"], {"run_all", "irc", "message", "sanitize", "series", "stats", "twitter"}),
]


@pytest.mark.parametrize("argv, stages", STAGES_RUN, ids=[argv[0] for argv, _ in STAGES_RUN])
def test_subcommand_loads_only_its_stages(tmp_path, argv, stages):
    loaded = _loaded(argv, tmp_path)
    assert _coinbuzz(loaded) == stages
    assert not loaded & HEAVY


def test_parse_irc_in_utc_does_not_load_zoneinfo(tmp_path):
    (tmp_path / "chan.log").write_text("[Mon Jun 1 2015] [10:00:00] <nick>\tbitcoin\n", encoding="utf-8")
    argv = ["parse-irc", "--channel", "#c", "--in", "chan.log", "--out", "out.jsonl", "--tz", "UTC"]
    loaded = _loaded(argv, tmp_path)
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8").count("\n") == 1
    assert "zoneinfo" not in loaded
    assert "zoneinfo" in _loaded([*argv[:-1], "Europe/London"], tmp_path)


# What argparse loads: itself, and `gettext` and `locale` once it translates a string.
ARGPARSE = {"argparse", "gettext", "locale"}

# Well-formed command lines: each subcommand, then options of every kind (switch, float, int, choice, repeat).
WELL_FORMED = [argv for argv, _ in STAGES_RUN] + [
    ["sanitize", "--stats"],
    ["gaps", "--theta", "0.2", "--in", "absent", "--k", "3", "--out", "out"],
    ["report", "--in", "absent", "--format", "markdown", "--out", "out"],
    ["correlate", "--series", "a=absent", "--series", "b=absent", "--price", "absent", "--volume", "absent",
     "--exclude-outages", "--out", "out"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_a_well_formed_command_line_does_not_load_argparse(tmp_path, argv):
    assert not _loaded(argv, tmp_path) & ARGPARSE


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["gaps", "--help"], 0), (["gaps"], 64), (["gaps", "--in", "x", "--bogus"], 64),
     (["gaps", "--in=absent", "--out", "out"], 0)],
    ids=["help", "subcommand-help", "missing-option", "unknown-option", "joined-value"],
)
def test_help_a_usage_error_and_another_form_load_argparse(tmp_path, argv, code):
    assert "argparse" in _loaded(argv, tmp_path, code)
