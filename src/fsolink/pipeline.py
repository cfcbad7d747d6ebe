"""End-to-end emulated transmission: scenario -> losses -> trace -> modem.

Composes the other modules in a fixed stage order and reports everything
measured along the way. Runs are deterministic functions of the
configuration (seed included); worker counts only change execution, never
results. Stage failures are re-raised with the stage name attached.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from . import scenarios as scenario_mod
from .atmosphere import (
    LinkGeometry,
    LossBreakdown,
    WeatherScenario,
    rytov_variance,
    total_atmospheric_loss,
)
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
    BerReport,
    Pam4Config,
    apply_channel,
    ber_report,
    calibrate_noise_std,
    demodulate,
    eye_stats,
    matched_filter,
    modulate,
)
from .pat import JitterParams, QdGeometry, run_tracking_loop
from .spatial_filter import SolarModel, solar_noise_power

#: Rytov variance below which the marginal is modeled as log-normal.
LOG_NORMAL_RYTOV_LIMIT = 0.3

_CALIBRATION_SYMBOLS = 200_000
_MIN_SYMBOLS = 10_000


@dataclass(frozen=True)
class NoiseSpec:
    """How the modem noise level is chosen.

    ``target_q`` calibrates noise_std by bisection until the mean eye
    Q-factor hits the target (the receiver's absolute noise being a free
    parameter of the emulation). ``fixed_std`` uses the given value
    directly. ``physical`` derives a noise-to-signal ratio from the solar
    background plus the receiver noise floor against the received power.
    """

    mode: str = "target_q"
    target_q: float = 3.7
    noise_std: float | None = None
    solar: SolarModel | None = None

    def __post_init__(self):
        if self.mode not in ("target_q", "fixed_std", "physical"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "target_q" and self.target_q <= 0:
            raise ValueError(f"target_q must be > 0, got {self.target_q}")
        if self.mode == "fixed_std":
            if self.noise_std is None or self.noise_std < 0:
                raise ValueError("fixed_std mode needs noise_std >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one end-to-end run."""

    scenario: WeatherScenario
    geometry: LinkGeometry
    optics: TransceiverOptics
    modem: Pam4Config
    noise: NoiseSpec = NoiseSpec()
    fading: str = "auto"
    seed: int = 0
    n_symbols: int = 10_000_000
    outage_prob: float = 1e-3
    trace_rate_hz: float | None = None
    workers: int = 1
    payload: str | None = None  # file path, "-" for stdin, None for random bits

    def __post_init__(self):
        if self.fading not in ("auto", "log_normal", "gamma_gamma"):
            raise ValueError(f"unknown fading selection {self.fading!r}")
        if self.n_symbols < _MIN_SYMBOLS:
            raise ValueError(
                f"sample budget must be >= {_MIN_SYMBOLS} symbols, "
                f"got {self.n_symbols}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        noise_cfg = cfg.get("noise", {})
        solar_cfg = noise_cfg.get("solar")
        noise = NoiseSpec(
            mode=noise_cfg.get("mode", "target_q"),
            target_q=float(noise_cfg.get("target_q", 3.7)),
            noise_std=(
                None
                if noise_cfg.get("noise_std") is None
                else float(noise_cfg["noise_std"])
            ),
            solar=None if solar_cfg is None else SolarModel(**solar_cfg),
        )
        return cls(
            scenario=scenario_mod.build_scenario(cfg["scenario"]),
            geometry=scenario_mod.build_geometry(cfg["geometry"]),
            optics=scenario_mod.build_optics(cfg.get("optics", {})),
            modem=scenario_mod.build_modem(cfg.get("modem", {})),
            noise=noise,
            fading=cfg.get("fading", "auto"),
            seed=int(cfg.get("seed", 0)),
            n_symbols=int(cfg.get("n_symbols", 10_000_000)),
            outage_prob=float(cfg.get("outage_prob", 1e-3)),
            trace_rate_hz=(
                None
                if cfg.get("trace_rate_hz") is None
                else float(cfg["trace_rate_hz"])
            ),
            workers=int(cfg.get("workers", 1)),
            payload=cfg.get("payload"),
        )

    def to_dict(self) -> dict:
        cfg = dataclasses.asdict(self)
        cfg["modem"]["levels"] = list(cfg["modem"]["levels"])
        # Worker count is an execution knob with no effect on results;
        # keeping it out of the echo keeps reports byte-identical.
        cfg.pop("workers")
        return cfg


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
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _derive_seeds(seed: int, n: int) -> list[int]:
    seq = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(n)]


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


def _auto_trace_samples(n_symbols: int, duration_s: float, tau0: float) -> int:
    """Enough samples to resolve the coherence time, at most one per symbol."""
    want = int(math.ceil(20.0 * duration_s / tau0)) if math.isfinite(tau0) else 0
    return max(min(n_symbols, max(100, want)), 1)


def _physical_noise_std(
    noise: NoiseSpec, optics: TransceiverOptics, budget: LinkBudget
) -> float:
    """Noise-to-signal power ratio from solar background plus noise floor."""
    solar_w = solar_noise_power(noise.solar) if noise.solar is not None else 0.0
    floor_w = 10.0 ** ((optics.noise_floor_dbm - 30.0) / 10.0)
    signal_w = 10.0 ** ((budget.p_r_dbm - 30.0) / 10.0)
    return (solar_w + floor_w) / signal_w


def _run(config: RunConfig, payload_bits: np.ndarray | None):
    started = time.monotonic()
    scenario = config.scenario
    geometry = config.geometry

    with _stage("atmosphere"):
        rytov = rytov_variance(geometry, scenario)
        losses = total_atmospheric_loss(
            scenario, geometry, config.outage_prob, rytov_var=rytov
        )
    with _stage("linkbudget"):
        budget = received_power_dbm(
            config.optics, losses, geometry.beam_divergence_rad
        )

    with _stage("turbulence"):
        tau0 = coherence_time(geometry, max(scenario.wind_speed_ground, 1e-6))
        model = select_fading_model(config.fading, rytov)

    bits_seed, trace_seed, cal_seed, noise_seed = _derive_seeds(config.seed, 4)

    with _stage("modem"):
        if payload_bits is None:
            rng = np.random.default_rng(bits_seed)
            bits = rng.integers(0, 2, 2 * config.n_symbols, dtype=np.uint8)
        else:
            bits = np.asarray(payload_bits, dtype=np.uint8)
        symbols, pad_bits = modulate(bits, config.modem)
        labels = np.searchsorted(np.asarray(config.modem.levels), symbols)

    n_symbols = len(symbols)
    duration = n_symbols / config.modem.symbol_rate_hz

    with _stage("trace"):
        if config.trace_rate_hz is None:
            n_trace = _auto_trace_samples(n_symbols, duration, tau0)
            trace_rate = n_trace / duration
        else:
            trace_rate = config.trace_rate_hz
        trace = generate_trace(model, tau0, trace_rate, duration, trace_seed)

    sps = config.modem.samples_per_symbol

    with _stage("noise"):
        if config.noise.mode == "fixed_std":
            noise_std = float(config.noise.noise_std)
        elif config.noise.mode == "physical":
            noise_std = _physical_noise_std(config.noise, config.optics, budget)
        else:
            n_cal = min(n_symbols, _CALIBRATION_SYMBOLS)
            noise_std = calibrate_noise_std(
                symbols[:n_cal],
                labels[:n_cal],
                trace,
                config.noise.target_q,
                cal_seed,
                symbol_rate_hz=config.modem.symbol_rate_hz,
                samples_per_symbol=sps,
            )

    with _stage("channel"):
        tx_samples = np.repeat(symbols, sps) if sps > 1 else symbols
        received = apply_channel(
            tx_samples,
            trace,
            noise_std,
            noise_seed,
            symbol_rate_hz=config.modem.symbol_rate_hz * sps,
            workers=config.workers,
        )
        received = matched_filter(received, sps)

    with _stage("detection"):
        if noise_std == 0.0 and model.sigma_i2 == 0.0:
            rx_bits = demodulate(received, config.modem)
        else:
            rx_bits = demodulate(received, config.modem, thresholds="adaptive")
        rx_bits = rx_bits[: len(bits)]
        stats = eye_stats(received, labels)
        ber = ber_report(bits, rx_bits, stats)

    with _stage("report"):
        if len(trace) >= 100:
            tstats = trace_stats(trace)
        else:
            mean = float(np.mean(trace.gains))
            var = float(np.var(trace.gains))
            tstats = TraceStats(
                mean=mean,
                sigma_i2=var / mean**2 if mean else 0.0,
                coherence_time_s=math.inf if var == 0.0 else math.nan,
            )
        report = RunReport(
            losses=losses,
            budget=budget,
            rytov_var=rytov,
            sigma_i2=model.sigma_i2,
            fading_kind=model.kind,
            coherence_time_s=tau0,
            trace_stats=tstats,
            noise_std=noise_std,
            ber=ber,
            n_symbols=n_symbols,
            pad_bits=pad_bits,
            seed=config.seed,
            elapsed_s=time.monotonic() - started,
            config=config.to_dict(),
        )
    return report, rx_bits


def run_endtoend(config: RunConfig, payload_bits: np.ndarray | None = None) -> RunReport:
    """Run the full emulated transmission and return the report."""
    report, _ = _run(config, payload_bits)
    return report


def payload_roundtrip(path_in, config: RunConfig, path_out) -> RunReport:
    """Send a file (or stdin, path "-") through the emulated link and write
    the recovered bytes.

    The report gains byte-level error accounting; a clean channel
    reproduces the input bit-exactly.
    """
    try:
        if str(path_in) == "-":
            import sys

            data = np.frombuffer(sys.stdin.buffer.read(), dtype=np.uint8)
        else:
            data = np.fromfile(path_in, dtype=np.uint8)
    except OSError as exc:
        raise OSError(f"cannot read payload {path_in!r}: {exc}") from exc
    bits = np.unpackbits(data)
    report, rx_bits = _run(config, bits)
    recovered = np.packbits(rx_bits[: len(bits)])
    try:
        recovered.tofile(path_out)
    except OSError as exc:
        raise OSError(f"cannot write payload {path_out!r}: {exc}") from exc
    byte_errors = int(np.count_nonzero(recovered != data))
    return dataclasses.replace(
        report, byte_errors=byte_errors, payload_bytes=len(data)
    )


def payload_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- parameter sweeps -------------------------------------------------------

#: PAT-mode sweep axes run the tracking loop instead of a transmission.
_PAT_AXES = ("pat.m", "pat.noise_std", "pat.disturbance_rms", "pat.controller_gain")

_PAT_DEFAULTS = {
    "m": 1,
    "noise_std": 0.05,
    "disturbance_rms": 50e-6,
    "controller_gain": 0.8,
    "loop_rate_hz": 1000.0,
    "duration_s": 0.5,
    "initial_offset_m": (2e-4, -1e-4),
}


def _numeric_axes(config: RunConfig) -> dict[str, tuple[str, str]]:
    """Map dotted axis name -> (section attribute, field name)."""
    axes: dict[str, tuple[str, str]] = {}
    for section in ("scenario", "geometry", "optics", "modem"):
        obj = getattr(config, section)
        for f in dataclasses.fields(obj):
            if isinstance(getattr(obj, f.name), (int, float)):
                axes[f"{section}.{f.name}"] = (section, f.name)
    for name in ("n_symbols", "outage_prob", "seed"):
        axes[name] = ("", name)
    axes["noise.target_q"] = ("noise", "target_q")
    return axes


def sweep_axes(config: RunConfig) -> list[str]:
    return sorted(_numeric_axes(config)) + list(_PAT_AXES)


def _with_axis_value(config: RunConfig, axis: str, value: float) -> RunConfig:
    section, field_name = _numeric_axes(config)[axis]
    if section == "":
        cast = int if field_name in ("n_symbols", "seed") else float
        return dataclasses.replace(config, **{field_name: cast(value)})
    obj = getattr(config, section)
    current = getattr(obj, field_name)
    cast = int if isinstance(current, int) and not isinstance(current, bool) else float
    return dataclasses.replace(
        config, **{section: dataclasses.replace(obj, **{field_name: cast(value)})}
    )


def _pat_sweep_row(axis: str, value: float, seed: int) -> dict:
    params = dict(_PAT_DEFAULTS)
    key = axis.split(".", 1)[1]
    params[key] = int(value) if key == "m" else float(value)
    result = run_tracking_loop(
        initial_offset_m=params["initial_offset_m"],
        disturbance=JitterParams(rms_m=params["disturbance_rms"]),
        geometry=QdGeometry(),
        m=int(params["m"]),
        loop_rate_hz=params["loop_rate_hz"],
        controller_gain=params["controller_gain"],
        duration_s=params["duration_s"],
        seed=seed,
        noise_std=params["noise_std"],
    )
    return {
        "axis": axis,
        "value": value,
        "residual_rms_m": result.residual_rms_m,
        "residual_max_m": result.residual_max_m,
    }


def scenario_sweep(config: RunConfig, axis: str, values) -> list[dict]:
    """One run per axis value; returns flat summary rows for CSV export.

    Transmission axes rerun the full pipeline with only the axis value
    changed (same seed, so noise draws are shared and monotonicity in the
    swept parameter is visible). ``pat.*`` axes run the tracking loop.
    """
    values = list(values)
    if axis in _PAT_AXES:
        return [_pat_sweep_row(axis, v, config.seed) for v in values]
    if axis not in _numeric_axes(config):
        raise UnknownAxisError(axis, sweep_axes(config))
    rows = []
    for value in values:
        report = run_endtoend(_with_axis_value(config, axis, value))
        rows.append(
            {
                "axis": axis,
                "value": value,
                "l_total_db": report.losses.l_total_db,
                "l_sci_db": report.losses.l_sci_db,
                "p_r_dbm": report.budget.p_r_dbm,
                "rytov_var": report.rytov_var,
                "fading_kind": report.fading_kind,
                "noise_std": report.noise_std,
                "ber_counted": report.ber.ber_counted,
                "ber_estimated": report.ber.ber_estimated,
            }
        )
    return rows
