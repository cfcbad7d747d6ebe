"""End-to-end emulated transmission: scenario -> losses -> trace -> modem.

Composes the other modules in a fixed stage order (turbulence,
atmosphere, linkbudget, trace, noise, transmit, report) and reports
everything measured along the way; the first three form ``link_budget``,
which ``fsolink budget`` also runs, and the trace, noise calibration, the
modem's one link pass ``modem.transmit`` and the trace statistics form
``_link_pass``, a function of the values it reads, which a sweep runs once
per distinct set. Runs are deterministic functions of the configuration
(seed included); worker counts only change execution, never results.
Stage failures are re-raised with the stage name attached.
``RunConfig`` and ``NoiseSpec`` are defined with their codec in
``scenarios`` and re-exported here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .atmosphere import LossBreakdown, rytov_variance, total_atmospheric_loss
from .channel_trace import (
    FadingModel,
    TraceStats,
    coherence_time,
    generate_trace,
    scintillation_index,
    trace_stats,
)
from .errors import PipelineStageError, UnknownAxisError
from .linkbudget import LinkBudget, TransceiverOptics, received_power_dbm
from .modem import (
    BerReport, Pam4Config, RandomBits, calibrate_noise_std, check_n_symbols, derive_seeds,
    transmit,
)
from .pat import run_loop
from .scenarios import NoiseSpec, RunConfig, replace_value
from .spatial_filter import filtering_ber_demo, solar_noise_power

#: Rytov variance below which the marginal is modeled as log-normal.
LOG_NORMAL_RYTOV_LIMIT = 0.3


@dataclass(frozen=True)
class RunReport:
    """Everything measured during one end-to-end run."""

    losses: LossBreakdown
    budget: LinkBudget
    rytov_var: float
    sigma_i2: float
    fading_kind: str
    coherence_time_s: float
    trace_stats: TraceStats
    noise_std: float
    ber: BerReport
    n_symbols: int
    pad_bits: int
    seed: int
    elapsed_s: float
    config: dict
    byte_errors: int | None = None
    payload_bytes: int | None = None


@contextlib.contextmanager
def _stage(name: str):
    """Attach the stage name to failures raised inside the block."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def select_fading_model(fading: str, rytov_var: float) -> FadingModel:
    """Resolve "auto" (weak-fluctuation bound at Rytov 0.3) to a model."""
    kind = fading
    if kind == "auto":
        kind = (
            "log_normal" if rytov_var < LOG_NORMAL_RYTOV_LIMIT else "gamma_gamma"
        )
    if kind == "log_normal":
        return FadingModel.log_normal(scintillation_index(rytov_var))
    return FadingModel.gamma_gamma_from_rytov(rytov_var)


def turbulence(config: RunConfig) -> tuple[float, FadingModel, float]:
    """Rytov variance, fading model and coherence time tau0 of a config."""
    rytov_var = rytov_variance(config.geometry, config.scenario)
    model = select_fading_model(config.fading, rytov_var)
    tau0 = coherence_time(
        config.geometry, max(config.scenario.wind_speed_ground, 1e-6)
    )
    return rytov_var, model, tau0


def _auto_trace_samples(n_symbols: int, duration_s: float, tau0: float) -> int:
    """20 samples per coherence time, at least 100, at most one per symbol."""
    return min(n_symbols, max(100, math.ceil(20.0 * duration_s / tau0)))


def _physical_noise_std(
    noise: NoiseSpec, optics: TransceiverOptics, budget: LinkBudget
) -> float:
    """Noise-to-signal power ratio from solar background plus noise floor."""
    solar_w = solar_noise_power(noise.solar) if noise.solar is not None else 0.0
    floor_w = 10.0 ** ((optics.noise_floor_dbm - 30.0) / 10.0)
    signal_w = 10.0 ** ((budget.p_r_dbm - 30.0) / 10.0)
    return (solar_w + floor_w) / signal_w


def _link_pass(
    model: FadingModel, tau0: float, bits: np.ndarray | RandomBits, seed: int,
    target_q: float | None, noise_std: float | None, modem_config: Pam4Config, workers: int,
):
    """A run's trace, noise level, transmission and trace statistics:
    (noise_std, decided bits or None, BER report, trace statistics).

    A deterministic function of its arguments, the noise input being
    ``target_q`` to calibrate to or else ``noise_std``; ``workers`` never
    changes a result.
    """
    _, trace_seed, cal_seed, noise_seed = derive_seeds(seed, 4)
    n_symbols = (len(bits) + 1) // 2
    duration = n_symbols / modem_config.symbol_rate_hz

    with _stage("trace"):
        n_trace = _auto_trace_samples(n_symbols, duration, tau0)
        trace = generate_trace(model, tau0, n_trace / duration, duration, trace_seed)

    if target_q is not None:
        with _stage("noise"):
            noise_std = calibrate_noise_std(bits, trace, target_q, cal_seed, modem_config)

    with _stage("transmit"):
        rx_bits, ber = transmit(bits, trace, noise_std, noise_seed, modem_config, workers)

    with _stage("report"):
        stats = trace_stats(trace)
    return noise_std, rx_bits, ber, stats


def link_budget(config: RunConfig) -> tuple[float, FadingModel, float, LossBreakdown, LinkBudget]:
    """The turbulence, atmosphere and linkbudget stages of a config:
    (Rytov variance, fading model, tau0, losses, budget)."""
    with _stage("turbulence"):
        rytov, model, tau0 = turbulence(config)
    with _stage("atmosphere"):
        losses = total_atmospheric_loss(
            config.scenario, config.geometry, config.outage_prob, rytov
        )
    with _stage("linkbudget"):
        budget = received_power_dbm(config.optics, losses, config.geometry.beam_divergence_rad)
    return rytov, model, tau0, losses, budget


def _run(config: RunConfig, payload_bits: np.ndarray | None, link_pass=_link_pass):
    """Report of a run of a payload, or of random bits, and its decided bits
    (None for random bits); ``link_pass`` runs ``_link_pass``."""
    started = time.monotonic()
    rytov, model, tau0, losses, budget = link_budget(config)

    bits_seed = derive_seeds(config.seed, 4)[0]
    bits = RandomBits(config.n_symbols, bits_seed) if payload_bits is None else payload_bits

    target_q = noise_std = None
    with _stage("noise"):
        if config.noise.mode == "fixed_std":
            noise_std = float(config.noise.noise_std)
        elif config.noise.mode == "physical":
            noise_std = _physical_noise_std(config.noise, config.optics, budget)
        else:
            target_q = config.noise.target_q

    noise_std, rx_bits, ber, stats = link_pass(
        model, tau0, bits, config.seed, target_q, noise_std, config.modem, config.workers
    )

    with _stage("report"):
        report = RunReport(
            losses=losses,
            budget=budget,
            rytov_var=rytov,
            sigma_i2=model.sigma_i2,
            fading_kind=model.kind,
            coherence_time_s=tau0,
            trace_stats=stats,
            noise_std=noise_std,
            ber=ber,
            n_symbols=(len(bits) + 1) // 2,
            pad_bits=len(bits) % 2,
            seed=config.seed,
            elapsed_s=time.monotonic() - started,
            config=config.to_dict(),
        )
    return report, rx_bits


def run_endtoend(config: RunConfig) -> RunReport:
    """Run the full emulated transmission of random bits; return the report."""
    report, _ = _run(config, None)
    return report


def payload_roundtrip(path_in, config: RunConfig, path_out) -> RunReport:
    """Send a file (or stdin, path "-") through the emulated link and write
    the recovered bytes.

    The report gains byte-level error accounting; a clean channel
    reproduces the input bit-exactly. The payload's four symbols per byte
    must lie in the modem's symbol range, checked before a file is read
    (its size is known) and before stdin is unpacked.
    """
    try:
        if str(path_in) == "-":
            import sys

            data = np.frombuffer(sys.stdin.buffer.read(), dtype=np.uint8)
        else:
            check_n_symbols(4 * os.stat(path_in).st_size)
            data = np.fromfile(path_in, dtype=np.uint8)
    except OSError as exc:
        raise OSError(f"cannot read payload {path_in!r}: {exc}") from exc
    check_n_symbols(4 * len(data))
    bits = np.unpackbits(data)
    report, rx_bits = _run(config, bits)
    recovered = np.packbits(rx_bits)
    try:
        recovered.tofile(path_out)
    except OSError as exc:
        raise OSError(f"cannot write payload {path_out!r}: {exc}") from exc
    byte_errors = int(np.count_nonzero(recovered != data))
    return dataclasses.replace(
        report, byte_errors=byte_errors, payload_bytes=len(data)
    )


# --- parameter sweeps -------------------------------------------------------

def _numeric_leaves(cfg: dict, prefix: str = "") -> list[str]:
    """Dotted names of the numeric, non-bool leaves of an encoded config."""
    names = []
    for key, value in cfg.items():
        if isinstance(value, dict):
            names += _numeric_leaves(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            names.append(prefix + key)
    return names


def sweep_axes(config: RunConfig) -> list[str]:
    return sorted(_numeric_leaves(config.to_dict()))


def _pat_row(point: RunConfig) -> dict:
    loop = run_loop(point.pat, point.seed)
    return {"residual_rms_m": loop.residual_rms_m, "residual_max_m": loop.residual_max_m}


def _filter_row(point: RunConfig) -> dict:
    demo = filtering_ber_demo(point.filter, point.filter.n, point.modem, point.seed)
    return {"gain_db": demo.snr.gain_db, "ber_off": demo.report_off.ber_counted,
            "ber_on": demo.report_on.ber_counted}


#: Sweep rows of the config sections that run their own demo, not the link.
_SECTION_ROWS = {"pat": _pat_row, "filter": _filter_row}


def scenario_sweep(config: RunConfig, axis: str, values) -> list[dict]:
    """One run per axis value; returns flat summary rows for CSV export.

    Transmission axes rerun the pipeline with only the axis value changed
    and the same seed. Points whose link-pass inputs (``_link_pass``'s
    arguments) are equal share one pass, run once per call: a loss or
    optics axis in ``target_q`` or ``fixed_std`` mode runs it once, so its
    BER columns are identical by construction. ``pat.*`` axes run the
    tracking loop of the point's ``pat`` section, and ``filter.*`` axes the
    spatial-filter demo of its ``filter`` section on its ``modem``, both at
    the point's seed.
    """
    axes = sweep_axes(config)
    if axis not in axes:
        raise UnknownAxisError(axis, axes)
    link_pass = functools.cache(_link_pass)
    section_row = _SECTION_ROWS.get(axis.partition(".")[0])
    rows = []
    for value in values:
        point = replace_value(config, axis, value)
        if section_row is not None:
            row = section_row(point)
        else:
            report, _ = _run(point, None, link_pass)
            row = {
                "l_total_db": report.losses.l_total_db,
                "l_sci_db": report.losses.l_sci_db,
                "p_r_dbm": report.budget.p_r_dbm,
                "rytov_var": report.rytov_var,
                "fading_kind": report.fading_kind,
                "noise_std": report.noise_std,
                "ber_counted": report.ber.ber_counted,
                "ber_estimated": report.ber.ber_estimated,
            }
        rows.append({"axis": axis, "value": value, **row})
    return rows
