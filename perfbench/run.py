"""fsolink benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout. Each workload runs in fresh
child processes (``perfbench/child.py``) that import ``fsolink`` from the
checkout's ``src`` with BLAS/OpenMP pinned to one thread. Set-up is timed
in several set-up-only children and reported as their median.

Prints a table of every metric by name and unit, a ``detail`` line (pass
times, host-speed samples, checked outputs, environment), and as the last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json under
``--trace 0``, its ``per_layer`` metrics under ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("transmit_hazy", "sweep_hazy_visibility", "trace_file", "pat_filter")
SETUP_RUNS = 7
#: A workload's run must end within 180 s; its children get what is left of this.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment(seed: int, child: dict) -> dict:
    llc = _probe(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "nproc": os.cpu_count(),
        "git_commit": _probe(["git", "rev-parse", "HEAD"]) or "unknown",
        "seed": seed,
        "llc_mb": int(llc) / 2**20 if llc and llc.isdigit() and int(llc) > 0 else None,
        **child["env"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, deadline: float):
    """Set-up children, then the measuring child.

    Returns the child's result, the metrics it yields by name, and the
    ``detail`` record printed beside the table.
    """
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    setups = [
        _run_child([*common, "--mode", "setup"], deadline)
        for _ in range(1 if smoke else SETUP_RUNS)
    ]
    child = _run_child([*common, "--trace", str(trace)], deadline)
    setups.append(child)
    norm_wall = statistics.median(child["norm_walls"])
    named = {
        "norm_wall_s": norm_wall,
        "norm_throughput": child["units"] / norm_wall,
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(s["norm_setup_s"] for s in setups),
    }
    wall = statistics.median(child["walls"])
    detail = {
        "workload": name,
        "passes": len(child["walls"]),
        "wall_s": wall,
        child["unit_name"]: child["units"] / wall,
        "walls": child["walls"],
        "norm_walls": child["norm_walls"],
        "ref_s": child["ref_s"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setups": [s["setup_s"] for s in setups],
        "norm_setups": [s["norm_setup_s"] for s in setups],
        "error_rate": child["failed"] / child["attempted"],
        "throughput_name": child["unit_name"],
        "failures": child["failures"],
        "observations": child["observations"],
        "env": _environment(seed, child),
    }
    if trace:
        named = child["layers"]
        detail["layers"] = child["layers"]
    return child, named, detail


def _select(spec: dict, trace: int, named: dict) -> dict:
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        if entry["name"] not in named:
            raise BenchError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": named[entry["name"]], "unit": entry["unit"]}
    return metrics


def _print_table(detail: dict, metrics: dict) -> None:
    print(f"workload {detail['workload']}: {detail['passes']} untraced passes, one caller")
    rate = detail["throughput_name"]
    rows = [
        (f"norm_throughput ({rate})" if name == "norm_throughput" else name, m["value"], m["unit"])
        for name, m in metrics.items()
    ]
    if "norm_wall_s" in metrics:
        rows[2:2] = [
            ("wall_s (as measured)", detail["wall_s"], "s"),
            (f"{rate} (as measured)", detail[rate], "1/s"),
        ]
        rows.append(("setup_s (as measured)", detail["setup_s"], "s"))
    rows.append(("error_rate", detail["error_rate"], "share"))
    for label, value, unit in rows:
        print(f"  {label:<48} {value:>16.6g} {unit}")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "fsolink" / "__init__.py").is_file():
        print(f"error: no fsolink sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            child, named, detail = run_workload(
                name, args.seed, args.seconds, args.trace, args.smoke, deadline
            )
            metrics = _select(spec, args.trace, named)
            _print_table(detail, metrics)
            print("detail " + json.dumps(detail))
            results[name] = {
                "correct": child["failed"] == 0,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": metrics,
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
