"""One workload in a fresh process: set up, run timed passes, check outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. ``--mode setup`` stops after the set-up and reports its time;
``--mode run`` measures passes for ``--seconds`` (alternating untraced
and traced passes under ``--trace 1``). The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Host-speed kernel time on the reference host (2-vCPU Xeon VM, fast state).
REF_S = 0.025
#: Operation time after which host speed is sampled again.
SAMPLE_EVERY_S = 0.25


class HostSpeed:
    """A fixed kernel, independent of fsolink, timed between operations.

    The reference host swings between speed states about 1.6x apart for
    seconds to minutes at a time, which no statistic over one run removes.
    Scaling each stretch of operations by REF_S over this kernel's time
    around it gives the time at reference speed. The kernel mixes
    interpreted Python and numpy work, as the workloads do.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).random(1 << 19)
        self.samples: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += (i * 0.5) % 7.0
        python_s = time.perf_counter() - start
        start = time.perf_counter()
        x = self._x
        self._np.fft.rfft(self._np.exp(x) * x + self._np.sort(x))
        self.samples.append(math.sqrt(python_s * (time.perf_counter() - start)))
        return self.samples[-1]


def _pass(workload, first_digest, host: HostSpeed, ref: float):
    """Run one pass, sampling host speed between operations.

    ``ref`` is the host sample taken just before the pass. Returns the
    pass's wall seconds, its seconds at reference speed, the last host
    sample, the failures, the output digest and the outputs.
    """
    steps = workload.steps()
    wall = norm = pending = 0.0
    done, out = False, None
    try:
        while not done:
            start = time.perf_counter()
            try:
                next(steps)
            except StopIteration as stop:
                done, out = True, stop.value
            pending += time.perf_counter() - start
            if done or pending >= SAMPLE_EVERY_S:
                new_ref = host.measure()
                wall += pending
                norm += pending * REF_S / (0.5 * (ref + new_ref))
                ref, pending = new_ref, 0.0
    except Exception:
        return wall + pending, norm, ref, [traceback.format_exc(limit=3)], first_digest, None
    failures = workload.check(out)
    digest = workload.digest(out)
    if first_digest is not None and digest != first_digest:
        failures.append("outputs differ between passes of the same seed")
    return wall, norm, ref, failures, digest, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    scratch = ROOT / f".perfbench_tmp_{os.getpid()}"
    start = time.perf_counter()
    import fsolink
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    setup_s = time.perf_counter() - start
    if not Path(fsolink.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fsolink imported from {fsolink.__file__}, not this checkout", file=sys.stderr)
        return 1
    host = HostSpeed()
    host.measure()  # the first call pays numpy's lazy set-up
    setup_ref = 0.5 * (host.measure() + host.measure())
    setups = {"setup_s": setup_s, "norm_setup_s": setup_s * REF_S / setup_ref}
    if args.mode == "setup":
        print(json.dumps(setups))
        return 0

    import numpy
    import scipy
    import tracer as tracing

    # Pay lazy imports and first-touch costs before timing.
    warm = workloads.WORKLOADS[args.workload](args.seed, True, scratch)
    try:
        warm.run()
    finally:
        warm.close()

    attempted, failed_ops, failures, observations = 0, 0, [], None
    passes, summaries = [], []  # passes: (traced, wall seconds, seconds at REF_S)
    digest = None
    tracer = tracing.Tracer()

    def record(problems: list[str]) -> None:
        nonlocal attempted, failed_ops
        attempted += 1
        failed_ops += bool(problems)
        failures.extend(problems)

    measure_start = time.perf_counter()
    ref = host.measure()
    try:
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            if traced:
                tracer.spans.clear()
                with tracer.installed():
                    wall, norm, ref, problems, digest, out = _pass(workload, digest, host, ref)
                summaries.append(tracing.summarise_pass(tracer.spans, wall))
            else:
                wall, norm, ref, problems, digest, out = _pass(workload, digest, host, ref)
            passes.append((traced, wall, norm))
            record(problems)
            if observations is None and out is not None:
                observations = workload.observe(out)
            # Start no pass that would end after --seconds, judging by the last one.
            done = time.perf_counter() - measure_start + wall > args.seconds
            if done and (args.trace == 0 or summaries):
                break
        record(workload.check_once())
    finally:
        workload.close()

    walls = [wall for traced, wall, _ in passes if not traced]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        **setups,
        "walls": walls,
        "norm_walls": [norm for traced, _, norm in passes if not traced],
        "ref_s": host.samples,
        "units": workload.units,
        "unit_name": workload.unit_name,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observations": observations,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "largest_array_mb_computed": workload.largest_array_bytes / tracing.MIB,
        },
    }
    if args.trace == 1:
        layers = tracing.layer_metrics(summaries, walls)
        counts = tracing.count_metrics(summaries)
        record(["traced counts differ between passes"] if len(set(counts)) > 1 else [])
        record(
            [f"spans cover only {layers['trace.coverage']:.1%} of the traced pass"]
            if layers["trace.coverage"] < 0.9
            else []
        )
        record(
            ["calibration's nested apply_channel calls escaped the tracer"]
            if layers["modem.calibrate_noise_std.calls"] and not layers["modem.calibrate_noise_std.passes"]
            else []
        )
        layers["host.ref_s"] = statistics.median(host.samples)
        result["layers"] = layers
    result.update(attempted=attempted, failed=failed_ops, failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
