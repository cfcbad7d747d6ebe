"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop driven by one caller: ``steps()`` makes the
next library call only when the previous one has returned. It yields
between operations so the caller can sample host speed there, and returns
the pass's outputs. The library
sees only the configuration and inputs built here from the seed. Library
functions are always called through their module (``pipeline.run_endtoend``,
never a name imported into this file), so the tracer's patches reach them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

from fsolink import atmosphere, channel_trace, pat, pipeline, reporting, scenarios, spatial_filter
from fsolink.modem import Pam4Config

#: Standard deviations of slack in the statistical trace checks.
_SIGMAS = 5.0


def derive_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent 32-bit seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """Defaults shared by the workloads below."""

    def run(self):
        """One pass with no pauses between operations; returns its outputs."""
        steps = self.steps()
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

    def check_once(self) -> list[str]:
        """Checks made once per benchmark run, outside the timed passes."""
        return []

    def close(self) -> None:
        """Remove anything the passes left on disk."""


class TransmitHazy(Workload):
    """One long ``hazy`` transmission with two noise workers, serialised."""

    name = "transmit_hazy"
    unit_name = "symbols_per_s"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        (run_seed,) = derive_seeds(seed, 1)
        cfg = scenarios.resolve_config(preset="hazy")
        cfg["n_symbols"] = 1_000_000 if smoke else 10_000_000
        cfg["seed"] = run_seed
        cfg["workers"] = 2
        self.config = pipeline.RunConfig.from_dict(cfg)
        self.units = self.config.n_symbols
        # bits (2 B/symbol as uint8) < symbols, received samples (8 B/symbol).
        self.largest_array_bytes = 8 * self.config.n_symbols

    def steps(self):
        report = pipeline.run_endtoend(self.config)
        yield
        return report, reporting.report_to_json(report, no_timestamp=True)

    def digest(self, out) -> str:
        return _sha(out[1].encode())

    def check(self, out) -> list[str]:
        report, _ = out
        ber = report.ber
        failures = []
        if report.fading_kind != "gamma_gamma":
            failures.append(f"hazy preset ran {report.fading_kind} fading")
        # Criterion 07: the Q-factor estimate sits within 0.3 dex of counting.
        if ber.bit_errors < 100 or ber.ber_estimated <= 0:
            failures.append(f"only {ber.bit_errors} bit errors counted")
        else:
            gap = abs(math.log10(ber.ber_estimated) - math.log10(ber.ber_counted))
            if gap > 0.3:
                failures.append(f"Q estimate {gap:.3f} dex from counted BER")
        return failures

    def observe(self, out) -> dict:
        ber = out[0].ber
        return {
            "ber_counted": ber.ber_counted,
            "ber_estimated": ber.ber_estimated,
            # Criterion 06's band is asserted for the clear preset only; on
            # hazy it is recorded, not checked (see perfbench/README.md).
            "ber_in_2e-5_5e-4": 2e-5 <= ber.ber_counted <= 5e-4,
        }

    def check_once(self) -> list[str]:
        """Criterion 10 on an untimed, smaller run: workers never change bytes."""
        small = dataclasses.replace(self.config, n_symbols=self.config.n_symbols // 20)
        texts = {
            workers: reporting.report_to_json(
                pipeline.run_endtoend(dataclasses.replace(small, workers=workers)),
                no_timestamp=True,
            )
            for workers in (1, 2)
        }
        if texts[1] != texts[2]:
            return ["report JSON differs between workers=1 and workers=2"]
        return []


class SweepHazyVisibility(Workload):
    """Many short ``hazy`` runs across the visibility axis (both Kruse regimes)."""

    name = "sweep_hazy_visibility"
    unit_name = "sweep_points_per_s"
    axis = "scenario.visibility_km"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        (run_seed,) = derive_seeds(seed, 1)
        cfg = scenarios.resolve_config(preset="hazy")
        cfg["n_symbols"] = 20_000 if smoke else 200_000
        cfg["seed"] = run_seed
        self.config = pipeline.RunConfig.from_dict(cfg)
        self.values = [2.0, 6.0, 10.0] if smoke else [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
        self.units = len(self.values)
        # The gamma-gamma quantile table: 2^20 float64 draws per point.
        self.largest_array_bytes = 8 << 20

    def steps(self):
        return pipeline.scenario_sweep(self.config, self.axis, self.values)
        yield  # a generator with one operation

    def digest(self, out) -> str:
        return _sha(repr(out).encode())

    def check(self, out) -> list[str]:
        failures = []
        if [row["value"] for row in out] != self.values:
            failures.append("sweep rows do not follow the requested values")
        losses = [row["l_total_db"] for row in out]
        if any(b > a for a, b in zip(losses, losses[1:])):
            failures.append(f"l_total_db rises with visibility: {losses}")
        if not all(0.0 <= row["ber_counted"] <= 0.5 for row in out):
            failures.append("counted BER outside [0, 0.5]")
        return failures

    def observe(self, out) -> dict:
        bers = [row["ber_counted"] for row in out]
        # BER monotonicity is not checked: the frozen fade makes every point
        # calibrate to the same eye Q (ROADMAP item 4).
        return {"ber_counted": bers, "ber_identical_at_all_points": len(set(bers)) == 1}


def _raw_moments(model: channel_trace.FadingModel, k: int) -> float:
    """E[I^k] of the unit-mean marginal."""
    if model.kind == "log_normal":
        return math.exp(0.5 * k * (k - 1) * math.log1p(model.sigma_i2))
    a, b = model.alpha, model.beta
    return math.exp(
        math.lgamma(a + k) + math.lgamma(b + k) - math.lgamma(a) - math.lgamma(b)
        - k * math.log(a * b)
    )


def trace_tolerances(model: channel_trace.FadingModel, duration_s: float, tau0: float):
    """Slack on the sample mean and sigma_I^2 of a trace spanning duration/tau0.

    Any function of the underlying Gaussian process has an autocorrelation
    no larger than the process's exp(-(t/tau0)^2), whose integral is
    tau0*sqrt(pi). A sample average over duration T therefore has variance
    at most Var(Y) * tau0 * sqrt(pi) / T; Y = I for the mean and
    Y = (I - 1)^2 for sigma_I^2, whose variance is mu4 - mu2^2.
    """
    m2, m3, m4 = (_raw_moments(model, k) for k in (2, 3, 4))
    var = m2 - 1.0
    mu4 = m4 - 4.0 * m3 + 6.0 * m2 - 3.0
    scale = math.sqrt(math.sqrt(math.pi) * tau0 / duration_s)
    mean_tol = _SIGMAS * scale * math.sqrt(var)
    # sigma_I^2 = var/mean^2 also moves by about 2 var times the mean error.
    var_tol = _SIGMAS * scale * (math.sqrt(mu4 - var * var) + 2.0 * var * math.sqrt(var))
    return mean_tol, var_tol


class TraceFile(Workload):
    """The ``fsolink trace`` path: long traces, statistics, file round trips."""

    name = "trace_file"
    unit_name = "trace_samples_per_s"
    rate_hz = 1e5

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        seeds = derive_seeds(seed, 3)
        self.duration_s = 0.5 if smoke else 40.0
        self.csv_duration_s = 0.02 if smoke else 2.0
        self.fades = {}
        for preset, trace_seed in zip(("hazy", "clear"), seeds):
            config = pipeline.RunConfig.from_dict(scenarios.resolve_config(preset=preset))
            rytov = atmosphere.rytov_variance(config.geometry, config.scenario)
            model = pipeline.select_fading_model(config.fading, rytov)
            tau0 = channel_trace.coherence_time(
                config.geometry, max(config.scenario.wind_speed_ground, 1e-6)
            )
            self.fades[preset] = (model, tau0, trace_seed)
        self.csv_seed = seeds[2]
        self.scratch = scratch
        n = int(round(self.rate_hz * self.duration_s))
        self.units = 2 * n + int(round(self.rate_hz * self.csv_duration_s))
        # trace_stats' rfft over the next power of two >= 2n, complex128.
        self.largest_array_bytes = 16 * ((1 << math.ceil(math.log2(2 * n))) // 2 + 1)

    def steps(self):
        traces, stats = {}, {}
        for preset, (model, tau0, seed) in self.fades.items():
            traces[preset] = channel_trace.generate_trace(
                model, tau0, self.rate_hz, self.duration_s, seed
            )
            yield
        for preset, trace in traces.items():
            stats[preset] = channel_trace.trace_stats(trace)
            yield
        self.scratch.mkdir(parents=True, exist_ok=True)
        bin_path = self.scratch / "long.bin"
        channel_trace.trace_to_binary(traces["hazy"], bin_path)
        yield
        from_bin = channel_trace.trace_from_binary(bin_path)
        yield
        model, tau0, _ = self.fades["hazy"]
        short = channel_trace.generate_trace(
            model, tau0, self.rate_hz, self.csv_duration_s, self.csv_seed
        )
        yield
        csv_path = self.scratch / "short.csv"
        channel_trace.trace_to_csv(short, csv_path)
        yield
        from_csv = channel_trace.trace_from_csv(csv_path)
        return traces, stats, (traces["hazy"], from_bin), (short, from_csv)

    def digest(self, out) -> str:
        traces, stats, _, (short, _) = out
        return _sha(
            *(t.gains.tobytes() for t in traces.values()),
            short.gains.tobytes(),
            repr(sorted(stats.items())).encode(),
        )

    def check(self, out) -> list[str]:
        traces, stats, binary, csv = out
        failures = []
        for label, (sent, back) in (("binary", binary), ("csv", csv)):
            same_meta = (sent.sample_rate_hz, sent.duration_s, sent.seed, sent.coherence_time_s) == (
                back.sample_rate_hz, back.duration_s, back.seed, back.coherence_time_s
            )
            if not (same_meta and np.array_equal(sent.gains, back.gains)):
                failures.append(f"{label} round trip is not bit-exact")
        for preset, st in stats.items():
            model, tau0, _ = self.fades[preset]
            mean_tol, var_tol = trace_tolerances(model, self.duration_s, tau0)
            if abs(st.mean - 1.0) > mean_tol:
                failures.append(f"{preset} mean {st.mean:.4f} beyond 1 +- {mean_tol:.4f}")
            if abs(st.sigma_i2 - model.sigma_i2) > var_tol:
                failures.append(
                    f"{preset} sigma_I^2 {st.sigma_i2:.4f} beyond "
                    f"{model.sigma_i2:.4f} +- {var_tol:.4f}"
                )
        return failures

    def observe(self, out) -> dict:
        _, stats, _, _ = out
        return {
            f"{preset}_{field}": getattr(st, field)
            for preset, st in stats.items()
            for field in ("mean", "sigma_i2", "coherence_time_s")
        } | {f"{p}_coherence_times": self.duration_s / f[1] for p, f in self.fades.items()}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class PatFilter(Workload):
    """Paired-seed tracking loops at m = 1 and 10, then the 2x2 filter demo."""

    name = "pat_filter"
    unit_name = "track_steps_per_s"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        seeds = derive_seeds(seed, 21 if smoke else 101)
        self.track_seeds, self.filter_seed = seeds[:-1], seeds[-1]
        self.duration_s = 0.1 if smoke else 0.5
        self.loop_kwargs = dict(
            initial_offset_m=(2e-4, -1e-4),
            disturbance=pat.JitterParams(rms_m=50e-6, bandwidth_hz=50.0),
            geometry=pat.QdGeometry(),
            loop_rate_hz=1000.0,
            duration_s=self.duration_s,
            noise_std=0.05,
        )
        self.filter_scenario = spatial_filter.FilterDemoScenario(
            n_symbols=200_000 if smoke else 1_000_000
        )
        self.modem = Pam4Config()
        steps = int(round(self.duration_s * 1000.0))
        self.units = 2 * len(self.track_seeds) * steps
        # Filter demo: symbols, received samples and labels, float64/intp each.
        self.largest_array_bytes = 8 * self.filter_scenario.n_symbols

    def steps(self):
        residuals = {1: [], 10: []}
        for m, runs in residuals.items():
            for seed in self.track_seeds:
                runs.append(pat.run_tracking_loop(m=m, seed=seed, **self.loop_kwargs).residual_rms_m)
                yield
        demo = spatial_filter.filtering_ber_demo(
            self.filter_scenario, 2, self.modem, self.filter_seed
        )
        return residuals, demo.report_off.ber_counted, demo.report_on.ber_counted

    def digest(self, out) -> str:
        return _sha(repr(out).encode())

    def check(self, out) -> list[str]:
        residuals, off, on = out
        failures = []
        med1, med10 = statistics.median(residuals[1]), statistics.median(residuals[10])
        if not med10 < med1:
            failures.append(f"median residual m=10 {med10:.3g} m not below m=1 {med1:.3g} m")
        if max(residuals[10]) >= 1e-3:
            failures.append(f"m=10 residual {max(residuals[10]):.3g} m reaches 1 mm")
        if not 5e-4 <= off <= 5e-3:
            failures.append(f"filter BER off {off:.3g} outside [5e-4, 5e-3]")
        if not on <= off / 10.0:
            failures.append(f"filter BER on {on:.3g} above off/10 = {off / 10:.3g}")
        return failures

    def observe(self, out) -> dict:
        residuals, off, on = out
        return {
            "median_residual_m1_m": statistics.median(residuals[1]),
            "median_residual_m10_m": statistics.median(residuals[10]),
            "filter_ber_off": off,
            "filter_ber_on": on,
        }


WORKLOADS = {w.name: w for w in (TransmitHazy, SweepHazyVisibility, TraceFile, PatFilter)}
