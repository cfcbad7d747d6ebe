"""PAM-4 intensity modem with statistics-based BER estimation.

Bits are numpy uint8 arrays of 0/1. Intensity levels are nonnegative
(direct detection); the Gray map is 00/01/11/10 onto ascending levels,
and modulation returns uint8 level indices (the intensities are
``levels[labels]``). ``transmit`` is the one link pass: modulate, fade and
add noise, matched-filter, decide, and count errors against the eye
statistics. Each stage runs in blocks of ``_CHUNK_SYMBOLS`` symbols; the
whole-run arrays are the bits in and out, the labels and the received
samples (about 13 B/symbol). A block's noise is drawn in chunks seeded by
(seed, chunk index), so no worker count changes the result. A sample is
decided by counting the thresholds strictly below it (one exactly on a
threshold goes to the lower level). Noise calibration reuses the same
unit-variance draws: it reduces the first ``_CALIBRATION_SYMBOLS`` symbols
to per-level sufficient statistics in one pass and then evaluates the eye
Q-factor in closed form at every trial noise level.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .channel_trace import ChannelTrace
from .errors import DegenerateLevelsError, MissingLevelError, TraceTooShortError

_GRAY_FORWARD = np.array([0, 1, 3, 2], dtype=np.uint8)  # bit pair value <-> level
# Level -> its Gray bit pair's (msb, lsb) bytes read as one uint16: one
# gather writes both bits of a symbol.
_LEVEL_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], np.uint8).view(np.uint16)[:, 0]

_CHUNK_SYMBOLS = 1 << 16
_KMEANS_MAX_POINTS = 1 << 20
_CALIBRATION_SYMBOLS = 200_000
_CALIBRATION_REL_TOL = 1e-4

#: Smallest run: fewer symbols leave the four levels too thinly sampled
#: for eye statistics and k-means thresholds.
MIN_SYMBOLS = 10_000

#: Largest run: a 4 GiB budget over the 15 B/symbol ``pipeline.run_endtoend``
#: peaks at (bits in and out, labels, received samples, error mask).
MAX_SYMBOLS = (4 << 30) // 15


def check_n_symbols(n_symbols: int) -> None:
    """Reject a run length outside [``MIN_SYMBOLS``, ``MAX_SYMBOLS``]."""
    if not MIN_SYMBOLS <= n_symbols <= MAX_SYMBOLS:
        raise ValueError(
            f"n_symbols must be in [{MIN_SYMBOLS}, {MAX_SYMBOLS}] "
            f"(at most 4 GiB of run memory), got {n_symbols}"
        )


@dataclass(frozen=True)
class Pam4Config:
    """Four-level intensity modulation parameters."""

    symbol_rate_hz: float = 2e9
    levels: tuple[float, float, float, float] = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
    samples_per_symbol: int = 1

    def __post_init__(self):
        if self.symbol_rate_hz <= 0:
            raise ValueError(f"symbol rate must be > 0, got {self.symbol_rate_hz}")
        lv = tuple(float(x) for x in self.levels)
        if len(lv) != 4:
            raise ValueError(f"need exactly 4 levels, got {len(lv)}")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError(f"levels must be strictly increasing, got {lv}")
        if lv[0] < 0:
            raise ValueError(f"intensity levels must be nonnegative, got {lv}")
        if self.samples_per_symbol < 1:
            raise ValueError(
                f"samples_per_symbol must be >= 1, got {self.samples_per_symbol}"
            )
        object.__setattr__(self, "levels", lv)


@dataclass(frozen=True)
class LevelStats:
    """Per-level received sample statistics and the three eye Q-factors."""

    means: np.ndarray = field(repr=False)
    stds: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    q_factors: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.any(np.asarray(self.counts) <= 0):
            raise MissingLevelError(
                "every level needs samples, got counts "
                f"{np.asarray(self.counts).tolist()}"
            )
        if np.any(np.asarray(self.stds) < 0):
            raise ValueError("standard deviations must be >= 0")


@dataclass(frozen=True)
class BerReport:
    """Counted and Q-factor-estimated bit error rates for one run."""

    bits_tx: int
    bit_errors: int
    ber_counted: float
    ber_estimated: float
    level_stats: LevelStats
    snr_db: float


def modulate(bits: np.ndarray, config: Pam4Config) -> tuple[np.ndarray, int]:
    """Map a bit stream onto Gray-coded PAM-4 level indices.

    Odd-length inputs are zero-padded by one bit; the returned pad count
    makes the padding explicit. Returns (labels, pad_bits); the transmitted
    intensities are ``levels[labels]``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    labels = np.empty((len(bits) + 1) // 2, dtype=np.uint8)
    for lo in range(0, len(labels), _CHUNK_SYMBOLS):
        pairs = bits[2 * lo : 2 * (lo + _CHUNK_SYMBOLS)]
        label = pairs[0::2] << 1
        label[: len(pairs) // 2] |= pairs[1::2]
        labels[lo : lo + len(label)] = _GRAY_FORWARD[label]
    return labels, len(bits) % 2


def derive_seeds(seed: int, n: int) -> list[int]:
    """n independent integer seeds spawned from one run seed."""
    seq = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(n)]


def apply_channel(
    symbols: np.ndarray,
    trace: ChannelTrace,
    noise_std: float,
    seed: int,
    symbol_rate_hz: float,
    workers: int = 1,
    levels: tuple[float, ...] | None = None,
    samples_per_symbol: int = 1,
) -> np.ndarray:
    """r_k = H(t_k) * x_k + n_k with zero-order-hold gains and AWGN.

    ``symbols`` are the transmitted intensities, or indices into ``levels``
    when those are given. Each is held for ``samples_per_symbol`` samples,
    which the matched filter averages back to one. The trace is sampled at
    each sample's start time and must cover the run. Blocks of
    ``_CHUNK_SYMBOLS`` symbols are mapped over ``workers`` threads; a
    block's noise comes from the seeded chunks of its samples, so the
    output never depends on the worker count.
    """
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    sps = samples_per_symbol
    rate = symbol_rate_hz * sps
    n = len(symbols)
    if int((n * sps - 1) / rate * trace.sample_rate_hz) >= len(trace.gains):
        raise TraceTooShortError(
            f"trace covers {trace.duration_s:g} s but {n} symbols at "
            f"{symbol_rate_hz:g} Baud need {n / symbol_rate_hz:g} s"
        )
    step = trace.sample_rate_hz / rate
    symbols = np.asarray(symbols)
    received = np.empty(n)

    def block(lo: int) -> None:
        hi = min(lo + _CHUNK_SYMBOLS, n)
        tx = symbols[lo:hi] if levels is None else np.take(levels, symbols[lo:hi])
        if sps > 1:
            tx = np.repeat(tx, sps)
        idx = (np.arange(lo * sps, hi * sps) * step).astype(np.intp)
        r = trace.gains[idx] * tx
        if noise_std > 0:
            noise = _unit_noise(lo * sps, hi * sps, seed)
            noise *= noise_std
            r += noise
        received[lo:hi] = matched_filter(r, sps)

    starts = range(0, n, _CHUNK_SYMBOLS)
    if workers == 1:
        for lo in starts:
            block(lo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    return received


def _unit_noise(lo: int, hi: int, seed: int) -> np.ndarray:
    """Standard-normal noise for samples lo..hi-1 (lo a chunk boundary).

    Chunk i, samples [i, i + 1) * ``_CHUNK_SYMBOLS``, comes from
    SeedSequence([seed, i]); scaled by s it is ``rng.normal(0, s, m)``.
    """
    noise = np.empty(hi - lo)
    for start in range(lo, hi, _CHUNK_SYMBOLS):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, start // _CHUNK_SYMBOLS])
        )
        rng.standard_normal(out=noise[start - lo : start - lo + _CHUNK_SYMBOLS])
    return noise


def _kmeans_levels(samples: np.ndarray) -> np.ndarray:
    """1-D k-means (k=4) level means, initialized at quartile medians."""
    if len(samples) > _KMEANS_MAX_POINTS:
        stride = len(samples) // _KMEANS_MAX_POINTS + 1
        samples = samples[::stride]
    quarter = len(samples) // 4
    if quarter == 0:
        raise DegenerateLevelsError("too few samples for adaptive thresholds")
    # Medians of the sorted quarters; the sorted copy is a temporary, so the
    # median may partition it in place.
    means = np.median(
        np.sort(samples)[: 4 * quarter].reshape(4, quarter),
        axis=1,
        overwrite_input=True,
    )
    for _ in range(50):
        cuts = 0.5 * (means[:-1] + means[1:])
        labels = _decide(samples, cuts)
        counts = np.bincount(labels, minlength=4)
        if np.any(counts == 0):
            raise DegenerateLevelsError(
                f"adaptive estimation found an empty level (counts {counts.tolist()})"
            )
        new_means = np.bincount(labels, weights=samples, minlength=4) / counts
        if np.allclose(new_means, means, rtol=1e-12, atol=1e-15):
            means = new_means
            break
        means = new_means
    if np.any(np.diff(means) <= 0):
        raise DegenerateLevelsError(
            f"adaptive estimation found fewer than 4 distinct levels: {means.tolist()}"
        )
    return means


def demodulate(
    samples: np.ndarray, config: Pam4Config, adaptive: bool = False
) -> np.ndarray:
    """Nearest-region PAM-4 decision back to bits (inverse Gray map).

    The cuts are the midpoints of the configured levels or, when
    ``adaptive``, of the k-means level estimates (scale invariant).
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("no samples to demodulate")
    if np.isnan(np.min(samples)):
        raise ValueError("cannot decide NaN samples")
    means = _kmeans_levels(samples) if adaptive else np.asarray(config.levels)
    cuts = 0.5 * (means[:-1] + means[1:])
    pairs = np.empty(len(samples), dtype=np.uint16)
    for lo in range(0, len(samples), _CHUNK_SYMBOLS):
        block = samples[lo : lo + _CHUNK_SYMBOLS]
        pairs[lo : lo + len(block)] = _LEVEL_BITS[_decide(block, cuts)]
    return pairs.view(np.uint8)


def _decide(samples: np.ndarray, cuts) -> np.ndarray:
    """Level index of each sample: the number of cuts strictly below it, as
    ``np.digitize(samples, cuts, right=True)`` gives (but 0 for a NaN)."""
    above = (samples > cuts[0]).view(np.uint8)
    return above + (samples > cuts[1]) + (samples > cuts[2])


def _level_counts(samples: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Samples per level; every level must have at least one."""
    if samples.shape != labels.shape:
        raise ValueError("samples and labels must have equal length")
    counts = np.zeros(4, dtype=np.intp)
    for lo in range(0, len(labels), _CHUNK_SYMBOLS):
        counts += np.bincount(labels[lo : lo + _CHUNK_SYMBOLS], minlength=4)
    if np.any(counts == 0):
        raise MissingLevelError(
            f"level(s) without samples: counts {counts.tolist()}"
        )
    return counts


def _level_sums(labels: np.ndarray, terms) -> np.ndarray:
    """Per-level sums of ``terms(block)`` over ``_CHUNK_SYMBOLS`` slices;
    ``np.add.at`` adds in sample order, so they equal the whole-array
    ``np.bincount(labels, weights=...)`` bit for bit."""
    sums = np.zeros(4)
    for lo in range(0, len(labels), _CHUNK_SYMBOLS):
        block = slice(lo, lo + _CHUNK_SYMBOLS)
        np.add.at(sums, labels[block], terms(block))
    return sums


def _eye_q(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Eye Q-factors gap / (sigma_lo + sigma_hi) between adjacent levels.

    A noiseless eye is +inf when open and -inf when closed (gap <= 0).
    """
    gaps = np.diff(means)
    denoms = stds[1:] + stds[:-1]
    q = np.where(denoms > 0, gaps / np.where(denoms > 0, denoms, 1.0), np.inf)
    return np.where((denoms == 0) & (gaps <= 0), -np.inf, q)


def eye_stats(samples: np.ndarray, labels: np.ndarray) -> LevelStats:
    """Genie-aided per-level moments from received samples and true levels."""
    samples = np.asarray(samples, dtype=float)
    labels = np.asarray(labels)
    counts = _level_counts(samples, labels)
    # Two-pass variance: immune to the cancellation that would report
    # nonzero noise on noiseless levels.
    means = _level_sums(labels, lambda b: samples[b]) / counts
    variances = _level_sums(labels, lambda b: (samples[b] - means[labels[b]]) ** 2)
    variances /= counts
    stds = np.sqrt(variances)
    return LevelStats(
        means=means, stds=stds, counts=counts, q_factors=_eye_q(means, stds)
    )


def gaussian_tail(q) -> np.ndarray | float:
    """P(N(0,1) > q), the Q function."""
    return 0.5 * erfc(np.asarray(q, dtype=float) / math.sqrt(2.0))


def estimate_ber_from_stats(stats: LevelStats) -> float:
    """Q-factor BER estimate (1/4) * sum_i Q(q_i) over the three eyes.

    Adjacent-level errors dominate under Gray coding: symbol error rate
    (1/2) * sum Q(q_i), one wrong bit per two transmitted per symbol error.
    Open noiseless eyes (Q = +inf) contribute zero; a closed noiseless
    eye (Q = -inf, see ``_eye_q``) has no estimate.
    """
    q = np.asarray(stats.q_factors, dtype=float)
    if np.any(q == -np.inf):
        raise ValueError(
            "cannot estimate BER: an eye has zero noise and a nonpositive gap"
        )
    ber = 0.25 * float(np.sum(gaussian_tail(q)))
    return min(max(ber, 0.0), 0.5)


def count_ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> tuple[int, int, float]:
    """Exact Hamming error count: returns (bit_errors, bits, ratio)."""
    tx = np.asarray(tx_bits, dtype=np.uint8)
    rx = np.asarray(rx_bits, dtype=np.uint8)
    if tx.shape != rx.shape:
        raise ValueError(
            f"bit streams differ in length: {tx.shape} vs {rx.shape}"
        )
    errors = int(np.count_nonzero(tx != rx))
    return errors, len(tx), errors / len(tx) if len(tx) else 0.0


def q_for_target_ber(target_ber: float) -> float:
    """Eye Q-factor at which the PAM-4 estimate (3/4) Q(q) equals target_ber."""
    if not 0.0 < target_ber < 0.375:
        raise ValueError(f"target BER must be in (0, 0.375), got {target_ber}")
    from scipy.special import ndtri

    return float(-ndtri(4.0 * target_ber / 3.0))


def matched_filter(received: np.ndarray, samples_per_symbol: int) -> np.ndarray:
    """Average each symbol's samples (rectangular-pulse matched filter)."""
    if samples_per_symbol == 1:
        return received
    return received.reshape(-1, samples_per_symbol).mean(axis=1)


def calibrate_noise_std(
    bits: np.ndarray,
    trace: ChannelTrace,
    target_q: float,
    seed: int,
    config: Pam4Config,
) -> float:
    """Solve for the noise level that hits a target mean eye Q-factor.

    Bisection on noise_std against the mean of the three eye Q-factors
    over the first ``_CALIBRATION_SYMBOLS`` symbols of ``bits``, after the
    matched filter. Every trial level reuses the same noise draws z (those
    ``apply_channel`` makes for ``seed``), so the received samples are
    u + noise_std * z with u = H * x. The block is therefore reduced once
    to per-level means of u and z and their centered second moments
    A = Var(u), B = Var(z), C = Cov(u, z); a trial level s then has means
    u_mean + s * z_mean and variances A + 2 s C + s^2 B. The bracketed
    function is deterministic and strictly decreasing; the interval is
    shrunk to 1e-4 relative width.
    """
    if target_q <= 0:
        raise ValueError(f"target_q must be > 0, got {target_q}")
    labels, _ = modulate(bits[: 2 * _CALIBRATION_SYMBOLS], config)
    sps = config.samples_per_symbol
    u = apply_channel(
        labels, trace, 0.0, seed, config.symbol_rate_hz,
        levels=config.levels, samples_per_symbol=sps,
    )
    z = matched_filter(_unit_noise(0, len(labels) * sps, seed), sps)
    counts = _level_counts(u, labels)
    u_mean = _level_sums(labels, lambda b: u[b]) / counts
    z_mean = _level_sums(labels, lambda b: z[b]) / counts
    du = u - u_mean[labels]
    dz = z - z_mean[labels]
    var_u = _level_sums(labels, lambda b: du[b] * du[b]) / counts
    var_z = _level_sums(labels, lambda b: dz[b] * dz[b]) / counts
    cov_uz = _level_sums(labels, lambda b: du[b] * dz[b]) / counts

    def mean_q(noise_std: float) -> float:
        means = u_mean + noise_std * z_mean
        variances = var_u + 2.0 * noise_std * cov_uz + noise_std**2 * var_z
        # Rounding can push a near-noiseless variance just below zero.
        stds = np.sqrt(np.maximum(variances, 0.0))
        return float(np.mean(_eye_q(means, stds)))

    span = config.levels[-1] - config.levels[0]
    hi = span
    for _ in range(40):
        if mean_q(hi) < target_q:
            break
        hi *= 4.0
    else:
        raise ValueError("could not bracket the target Q-factor from above")
    lo = span * 1e-9
    if mean_q(lo) <= target_q:
        raise ValueError(
            "target Q-factor unreachable: the channel itself is too noisy"
        )
    while (hi - lo) > _CALIBRATION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mean_q(mid) > target_q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ber_report(
    tx_bits: np.ndarray, rx_bits: np.ndarray, stats: LevelStats
) -> BerReport:
    """Bundle counted and estimated BER with an SNR read off the eye stats."""
    errors, bits, ratio = count_ber(tx_bits, rx_bits)
    estimated = estimate_ber_from_stats(stats)
    counts = np.asarray(stats.counts, dtype=float)
    mean_power = float(np.sum(counts * np.asarray(stats.means) ** 2) / np.sum(counts))
    noise_var = float(np.sum(counts * np.asarray(stats.stds) ** 2) / np.sum(counts))
    snr_db = 10.0 * math.log10(mean_power / noise_var) if noise_var > 0 else math.inf
    return BerReport(
        bits_tx=bits,
        bit_errors=errors,
        ber_counted=ratio,
        ber_estimated=estimated,
        level_stats=stats,
        snr_db=snr_db,
    )


def transmit(
    bits: np.ndarray,
    trace: ChannelTrace,
    noise_std: float,
    seed: int,
    config: Pam4Config,
    workers: int = 1,
    adaptive: bool = False,
) -> tuple[np.ndarray, BerReport]:
    """The link pass: modulate, fade and add noise, decide, count errors.

    Returns the decided bits, cut to ``len(bits)``, and their BER report
    against genie-aided eye statistics. ``adaptive`` is passed to
    ``demodulate``; ``workers`` only changes how the channel blocks run.
    """
    labels, _ = modulate(bits, config)
    received = apply_channel(
        labels, trace, noise_std, seed, config.symbol_rate_hz, workers,
        config.levels, config.samples_per_symbol,
    )
    rx_bits = demodulate(received, config, adaptive)[: len(bits)]
    return rx_bits, ber_report(bits, rx_bits, eye_stats(received, labels))
