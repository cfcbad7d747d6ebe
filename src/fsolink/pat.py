"""Quadrant-detector pointing/acquisition/tracking simulation.

Quadrant convention (beam-centered displacement in detector coordinates):
Q1 = +x+y, Q2 = -x+y, Q3 = -x-y, Q4 = +x-y. The displacement estimator is
the normalized quadrant difference scaled by a calibration gain, so it is
invariant to uniform power scaling and odd under offset negation.

The closed-loop simulation takes m detector samples per correction window
(the channel is held static within a window), averages them, and applies a
proportional correction. The loop rate does not depend on m, so the m
readings cost no loop time: the detector is assumed to take all m within one
loop period, and multi-sampling buys an amplitude-SNR gain of sqrt(m) at a
fixed correction rate.

Noise contract: the loop's detector noise comes from the first child of
the run seed's SeedSequence. Step k's m readings add the k-th (m, 4) block
of that child's normal stream (row i holds reading i's Q1..Q4 draws),
whatever the block size the draws are made in.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .channel_trace import _gaussian_acf_series
from .errors import TrackingDivergedError

#: Consecutive off-detector steps tolerated before declaring divergence.
_DIVERGENCE_STEPS = 10

#: Leading steps of the acquisition transient left out of the residual RMS.
_SETTLE_STEPS = 20

#: Run memory of ``run_tracking_loop`` (tracemalloc): 150 B/step (144.9-145.7
#: at 1e5-4e5 steps, m = 1 and 10) plus 162 B per reading of one step's noise
#: block (161.6 and 160.3 at m = 1e4 and 5e4). It must stay within 4 GiB.
_STEP_BYTES = 150
_READING_BYTES = 162

#: Most noise values ``run_tracking_loop`` draws at once. As one list of
#: floats per step a full block of m = 1 steps takes about 0.2 MiB.
_NOISE_BLOCK_VALUES = 1 << 12

@dataclass(frozen=True)
class QdReading:
    """One acquisition sample: nonnegative power per quadrant."""

    v1: float
    v2: float
    v3: float
    v4: float

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def total(self) -> float:
        return self.v1 + self.v2 + self.v3 + self.v4


@dataclass(frozen=True)
class QdGeometry:
    """Square quadrant detector with a dead-zone gap between cells.

    ``estimator_gain`` converts the normalized quadrant difference to
    meters. It is not an input: it is always calibrated so the estimator
    has unit slope for small displacements of this geometry (the actual
    optics scale is a free calibration).
    """

    detector_size_m: float = 1e-3
    beam_radius_m: float = 0.3e-3
    gap_m: float = 0.0
    estimator_gain: float = field(init=False)

    def __post_init__(self):
        if self.detector_size_m <= 0:
            raise ValueError(f"detector size must be > 0, got {self.detector_size_m}")
        if self.beam_radius_m <= 0:
            raise ValueError(f"beam radius must be > 0, got {self.beam_radius_m}")
        if self.gap_m < 0:
            raise ValueError(f"gap must be >= 0, got {self.gap_m}")
        if self.gap_m >= self.detector_size_m:
            raise ValueError("gap must be smaller than the detector")
        object.__setattr__(self, "estimator_gain", _calibrate_gain(self))


@dataclass(frozen=True)
class JitterParams:
    """Band-limited Gaussian platform jitter (Gaussian-shaped ACF)."""

    rms_m: float
    bandwidth_hz: float = 50.0

    def __post_init__(self):
        if not 0.0 <= self.rms_m < math.inf:
            raise ValueError(f"jitter RMS must be finite and >= 0, got {self.rms_m}")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"jitter bandwidth must be finite, > 0, got {self.bandwidth_hz}")

    @property
    def correlation_time_s(self) -> float:
        # Gaussian ACF exp(-(t/tau)^2) has its half-power spectral point at
        # bandwidth_hz when tau = sqrt(ln 2) / (pi * bandwidth_hz).
        return math.sqrt(math.log(2.0)) / (math.pi * self.bandwidth_hz)


@dataclass(frozen=True)
class LoopConfig:
    """Closed-loop tracking settings, the ``pat`` section of a run config,
    which ``run_loop`` runs: m readings per correction, the loop rate, the
    proportional gain, the run duration, the starting offset, the
    per-quadrant detector noise (relative to the unit beam power) and the
    platform jitter's RMS and bandwidth. Values are checked when the loop
    runs."""

    m: int = 10
    loop_rate_hz: float = 1000.0
    controller_gain: float = 0.8
    duration_s: float = 0.5
    initial_offset_m: tuple[float, float] = (2e-4, -1e-4)
    noise_std: float = 0.05
    disturbance_rms: float = 50e-6
    disturbance_bw_hz: float = JitterParams.bandwidth_hz


@dataclass(frozen=True)
class MultisampleResult:
    """Aggregate of m static-channel readings."""

    mean_reading: QdReading
    amplitude_snr: float
    m: int
    saturated: bool


@dataclass(frozen=True)
class TrackingResult:
    """Closed-loop run summary plus the residual misalignment trace. It
    holds only what the run measured; the settings are the caller's."""

    times_s: np.ndarray = field(repr=False)
    offsets_x_m: np.ndarray = field(repr=False)
    offsets_y_m: np.ndarray = field(repr=False)
    residual_rms_m: float
    residual_max_m: float


def gaussian_fraction(lo, hi, center: float, w: float):
    """Fraction of a 1-D Gaussian (1/e^2 radius w, centered at ``center``)
    falling in [lo, hi], elementwise over array bounds."""
    s = math.sqrt(2.0) / w
    return 0.5 * (erf((hi - center) * s) - erf((lo - center) * s))


def _fraction_kernel(geometry: QdGeometry):
    """``fractions(x, y)``: the beam fractions on Q1..Q4 at offset (x, y),
    ``gaussian_fraction`` of each axis on its two cells, with the edges and
    scale worked out once. Each erf is scipy's scalar kernel, the one its
    ufunc runs per element, so the fractions are the ufunc's bit for bit
    with no array per offset. Its module is imported on first use, not with
    the package.
    """
    from scipy.special.cython_special import erf as fused_erf

    erf = fused_erf["double"]
    half = 0.5 * geometry.detector_size_m
    inner = 0.5 * geometry.gap_m
    s = math.sqrt(2.0) / geometry.beam_radius_m

    def fractions(x: float, y: float) -> list[float]:
        pos_x = 0.5 * (erf((half - x) * s) - erf((inner - x) * s))
        neg_x = 0.5 * (erf((-inner - x) * s) - erf((-half - x) * s))
        pos_y = 0.5 * (erf((half - y) * s) - erf((inner - y) * s))
        neg_y = 0.5 * (erf((-inner - y) * s) - erf((-half - y) * s))
        return [pos_x * pos_y, neg_x * pos_y, neg_x * neg_y, pos_x * neg_y]

    return fractions


def _calibrate_gain(geometry: QdGeometry) -> float:
    """Unit small-signal slope: gain = delta / normalized_difference(delta)."""
    delta = geometry.beam_radius_m / 20.0
    diff, _ = _displacement(_fraction_kernel(geometry)(delta, 0.0), 1.0)
    return delta / diff


#: Noise of a noiseless step: one reading of zero draws on Q1..Q4.
_NO_NOISE = (0.0, 0.0, 0.0, 0.0)


def _mean_reading(fractions, noise) -> list[float]:
    """Per quadrant, the mean over the step's readings of max(fraction +
    draw, 0), with ``noise`` one flat row of the readings' Q1..Q4 draws,
    reading after reading.

    Adding each quadrant's positive terms in reading order repeats numpy's
    axis-0 mean of the clamped readings (the row as (m, 4)) bit for bit.
    """
    f1, f2, f3, f4 = fractions
    a1 = a2 = a3 = a4 = 0.0
    draws = iter(noise)
    for r1, r2, r3, r4 in zip(draws, draws, draws, draws):
        v = f1 + r1
        if v > 0.0:
            a1 += v
        v = f2 + r2
        if v > 0.0:
            a2 += v
        v = f3 + r3
        if v > 0.0:
            a3 += v
        v = f4 + r4
        if v > 0.0:
            a4 += v
    n = len(noise) // 4
    return [a1 / n, a2 / n, a3 / n, a4 / n]


def qd_response(offset_x: float, offset_y: float, geometry: QdGeometry) -> QdReading:
    """Noiseless quadrant powers for a unit-power Gaussian beam displaced by
    (offset_x, offset_y).

    Each quadrant receives the exact beam overlap with its active area
    (separable Gaussian integrals); a centered beam yields four equal
    powers. This is the loop's reading without noise: detector noise is
    drawn only inside ``run_tracking_loop`` (``LoopConfig.noise_std``).
    """
    fractions = _fraction_kernel(geometry)(offset_x, offset_y)
    return QdReading(*_mean_reading(fractions, _NO_NOISE))


def _displacement(v, gain: float) -> tuple[float, float] | None:
    """x_hat = g * ((v1+v4) - (v2+v3)) / sum, y_hat = g * ((v1+v2) - (v3+v4)) / sum
    for quadrant powers v = (v1, v2, v3, v4); None when they sum to <= 0."""
    total = v[0] + v[1] + v[2] + v[3]
    if total <= 0:
        return None
    x_hat = gain * ((v[0] + v[3]) - (v[1] + v[2])) / total
    y_hat = gain * ((v[0] + v[1]) - (v[2] + v[3])) / total
    return x_hat, y_hat


def estimate_displacement(
    reading: QdReading, geometry: QdGeometry
) -> tuple[float, float]:
    """Displacement estimate from normalized quadrant differences."""
    quads = (reading.v1, reading.v2, reading.v3, reading.v4)
    estimate = _displacement(quads, geometry.estimator_gain)
    if estimate is None:
        raise ValueError("quadrant powers sum to zero; no displacement information")
    return estimate


def multisample_snr(readings: np.ndarray, true_reading: QdReading) -> MultisampleResult:
    """Aggregate m readings of a static channel: coherent signal sum over
    root-sum-square noise.

    ``readings`` is an (m, 4) array of quadrant powers, one row per reading
    in Q1..Q4 order; ``true_reading`` is the noiseless reading, so each
    sample's noise is its total's exact deviation from the true total.
    Zero aggregate noise is flagged as saturated with infinite SNR.
    """
    quads = np.asarray(readings)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise ValueError(f"expected (m, 4) powers, got shape {quads.shape}")
    m = len(quads)
    if m == 0:
        raise ValueError("need at least one reading")
    mean_reading = QdReading(*np.mean(quads, axis=0).tolist())
    totals = quads.sum(axis=1)
    signal = true_reading.total
    noise_sq = float(np.sum((totals - signal) ** 2))
    saturated = noise_sq == 0.0
    snr = math.inf if saturated else m * signal / math.sqrt(noise_sq)
    return MultisampleResult(mean_reading, snr, m, saturated)


def _step_noise(rng: np.random.Generator, noise_std: float, m: int, n_steps: int):
    """Yield each step's readings noise as one flat list of 4m draws, reading
    after reading (Q1..Q4 each): step k gets the k-th (m, 4) block of
    ``rng``'s normal stream. Draws are made ``_NOISE_BLOCK_VALUES`` values
    (at least one step) at a time, which gives the same stream as one draw
    per step."""
    block = max(1, _NOISE_BLOCK_VALUES // (4 * m))
    for start in range(0, n_steps, block):
        yield from rng.normal(0.0, noise_std, (min(block, n_steps - start), 4 * m)).tolist()


def run_tracking_loop(
    initial_offset_m: tuple[float, float],
    disturbance: JitterParams,
    geometry: QdGeometry,
    m: int = 1,
    loop_rate_hz: float = LoopConfig.loop_rate_hz,
    controller_gain: float = LoopConfig.controller_gain,
    duration_s: float = LoopConfig.duration_s,
    seed: int = 0,
    noise_std: float = 0.0,
) -> TrackingResult:
    """Closed-loop tracking: sample m readings, average, estimate, correct.

    Each loop step adds the jitter disturbance to the controlled offset
    (none when ``disturbance.rms_m`` is 0), takes m noisy detector
    readings of that (static) state, estimates the displacement from the
    averaged reading, and applies a proportional correction. Residual RMS
    is computed after the first 20 steps to skip the acquisition
    transient; the max covers the whole run. Raises
    ``TrackingDivergedError`` after 10 consecutive off-detector steps, and
    ``ValueError``, before allocating, for an ``m`` that is a bool or not
    an integer >= 1, a duration that is not finite and > 0 or a run over
    4 GiB. The beam has unit power; ``noise_std`` is each reading's
    per-quadrant detector noise relative to it.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise std must be finite and >= 0, got {noise_std}")
    if not all(map(math.isfinite, initial_offset_m)):
        raise ValueError(f"initial offset must be finite, got {initial_offset_m}")
    if not math.isfinite(controller_gain):
        raise ValueError("controller_gain must be finite")
    if not 0 < loop_rate_hz <= 1000.0:
        raise ValueError(f"loop rate must be in (0, 1000] Hz, got {loop_rate_hz}")
    if not 0.0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    steps = duration_s * loop_rate_hz
    if not _STEP_BYTES * steps + _READING_BYTES * m <= 4 << 30:
        raise ValueError(f"duration covers {steps:g} steps of m = {m} readings: over 4 GiB")
    n_steps = int(round(steps))
    if n_steps < 100:
        raise ValueError(
            f"duration must cover >= 100 corrections, got {n_steps} steps"
        )
    dt = 1.0 / loop_rate_hz
    seq = np.random.SeedSequence(seed)
    child_noise, child_jx, child_jy = seq.spawn(3)
    jx = jy = np.zeros(n_steps)
    if disturbance.rms_m > 0:
        tau = disturbance.correlation_time_s
        jx, jy = (
            disturbance.rms_m
            * _gaussian_acf_series(n_steps, dt, tau, np.random.default_rng(child))
            for child in (child_jx, child_jy)
        )
    noise = itertools.repeat(_NO_NOISE)
    if noise_std > 0:
        noise = _step_noise(np.random.default_rng(child_noise), noise_std, m, n_steps)
    gain = geometry.estimator_gain
    ctrl_x, ctrl_y = float(initial_offset_m[0]), float(initial_offset_m[1])
    xs, ys = [], []
    off_detector = 0
    limit = geometry.detector_size_m  # off the detector: past twice its half-width
    fractions = _fraction_kernel(geometry)
    for k, (jitter_x, jitter_y) in enumerate(zip(jx.tolist(), jy.tolist())):
        true_x = ctrl_x + jitter_x
        true_y = ctrl_y + jitter_y
        xs.append(true_x)
        ys.append(true_y)
        if abs(true_x) > limit or abs(true_y) > limit:
            off_detector += 1
            if off_detector >= _DIVERGENCE_STEPS:
                raise TrackingDivergedError(
                    f"residual left the detector for {_DIVERGENCE_STEPS} "
                    f"consecutive steps at t={k * dt:g} s"
                )
        else:
            off_detector = 0
        if controller_gain == 0.0:
            continue
        reading = _mean_reading(fractions(true_x, true_y), next(noise))
        estimate = _displacement(reading, gain)
        if estimate is None:
            continue  # beam lost: no information this step, hold position
        ctrl_x -= controller_gain * estimate[0]
        ctrl_y -= controller_gain * estimate[1]

    xs, ys = np.array(xs), np.array(ys)
    radial = np.hypot(xs, ys)
    return TrackingResult(
        times_s=np.arange(n_steps) * dt,
        offsets_x_m=xs,
        offsets_y_m=ys,
        residual_rms_m=float(np.sqrt(np.mean(radial[_SETTLE_STEPS:] ** 2))),
        residual_max_m=float(np.max(radial)),
    )


def run_loop(config: LoopConfig, seed: int) -> TrackingResult:
    """``run_tracking_loop`` with ``config``'s settings on the default
    detector geometry."""
    return run_tracking_loop(
        initial_offset_m=config.initial_offset_m,
        disturbance=JitterParams(config.disturbance_rms, config.disturbance_bw_hz),
        geometry=QdGeometry(),
        m=config.m,
        loop_rate_hz=config.loop_rate_hz,
        controller_gain=config.controller_gain,
        duration_s=config.duration_s,
        seed=seed,
        noise_std=config.noise_std,
    )
