"""Golden CLI outputs: every case must reproduce tests/golden/ byte for byte.

Each case runs one ``fsolink`` command in a scratch directory. Its stdout,
its stderr (when not empty) and every file it writes are compared with
``tests/golden/<case>.<name>``; the scratch path is written as ``{out}``.
The goldens were made with numpy 2.4 and scipy 1.17, the versions CI pins.
After an intended output change, regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py [DIR]`` (default
``tests/golden``) and review the diff.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fsolink.cli import main

GOLDEN = Path(__file__).parent / "golden"

_TRANSMIT = ["transmit", "--seed", "7", "--symbols", "20000", "--no-timestamp",
             "--report", "{out}/report.json", "--summary-csv", "{out}/summary.csv"]

#: case name -> (argv with ``{out}`` for the scratch directory, exit code)
CASES: dict[str, tuple[list[str], int]] = {
    "budget_clear_text": (["budget", "--scenario", "clear"], 0),
    "budget_clear_csv": (["budget", "--scenario", "clear", "--format", "csv"], 0),
    "budget_clear_json": (["budget", "--scenario", "clear", "--format", "json"], 0),
    "budget_hazy_text": (["budget", "--scenario", "hazy"], 0),
    "budget_hazy_csv": (["budget", "--scenario", "hazy", "--format", "csv"], 0),
    "budget_hazy_json": (["budget", "--scenario", "hazy", "--format", "json"], 0),
    "transmit_clear": ([*_TRANSMIT, "--scenario", "clear"], 0),
    "transmit_hazy": ([*_TRANSMIT, "--scenario", "hazy"], 0),
    "transmit_pointing": (
        [*_TRANSMIT, "--scenario", "clear", "--set", "optics.pointing_error_rad=1e-6"],
        0,
    ),
    "trace_hazy_csv": (
        ["trace", "--scenario", "hazy", "--rate", "1e4", "--duration", "0.05",
         "--out", "{out}/trace.csv"],
        0,
    ),
    "scenarios_text": (["scenarios"], 0),
    "scenarios_json": (["scenarios", "--format", "json"], 0),
    "sweep_visibility": (
        ["sweep", "--scenario", "hazy", "--axis", "scenario.visibility_km",
         "--values", "2,5,10", "--set", "n_symbols=20000", "--out", "{out}/sweep.csv"],
        0,
    ),
    "sweep_pat_m": (
        ["sweep", "--scenario", "clear", "--axis", "pat.m", "--values", "1,4",
         "--out", "{out}/sweep.csv"],
        0,
    ),
    "sweep_filter_n": (
        ["sweep", "--axis", "filter.n", "--values", "1,2", "--set", "filter.n_symbols=100000",
         "--out", "{out}/sweep.csv"],
        0,
    ),
    "sweep_unknown_axis": (
        ["sweep", "--scenario", "clear", "--axis", "nope.nope", "--values", "1",
         "--out", "{out}/sweep.csv"],
        2,
    ),
    "pat_sim": (
        ["pat-sim", "--set", "pat.duration_s=0.1", "--seed", "1", "--no-timestamp",
         "--out", "{out}/residual.csv", "--summary", "{out}/summary.json"],
        0,
    ),
    "filter_sim": (
        ["filter-sim", "--set", "filter.n_symbols=100000", "--seed", "3", "--no-timestamp",
         "--out", "{out}/filter.csv", "--report", "{out}/report.json"],
        0,
    ),
}


def run_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case with its files written to ``out_dir``; return its outputs."""
    argv, expected_code = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(out=out_dir) for arg in argv])
    assert code == expected_code, err.getvalue()
    outputs = {
        f"{name}.{path.name}": path.read_bytes() for path in sorted(out_dir.iterdir())
    }
    for stream, buf in (("stdout", out), ("stderr", err)):
        if buf.getvalue():
            text = buf.getvalue().replace(str(out_dir), "{out}")
            outputs[f"{name}.{stream}"] = text.encode()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    outputs = run_case(name, tmp_path)
    golden = {p.name: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
    assert sorted(outputs) == sorted(golden)
    for file_name, data in outputs.items():
        assert data == golden[file_name], f"{file_name} differs from its golden"


def _regenerate(target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        for stale in target.glob(f"{name}.*"):
            stale.unlink()
        with tempfile.TemporaryDirectory() as scratch:
            for file_name, data in run_case(name, Path(scratch)).items():
                (target / file_name).write_bytes(data)


if __name__ == "__main__":
    _regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
