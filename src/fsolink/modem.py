"""PAM-4 intensity modem with statistics-based BER estimation.

Bits are numpy uint8 arrays of 0/1. Intensity levels are nonnegative
(direct detection); the Gray map is 00/01/11/10 onto ascending levels,
and modulation returns uint8 level indices (the intensities are
``levels[labels]``). ``transmit`` is the one link pass and the only code
run in blocks and threads: modulate, fade and add noise at one sample per
symbol, reduce, decide and count errors, fused into one kernel per block of
``_blocks`` (2^16 symbols, the last taking the tail) on worker threads; the
stage functions are its whole-array references. A kernel reads its bits
from a payload array, which with the decided bits takes 4 B/symbol, or
draws them from a ``RandomBits`` source, which takes none. Random bits and
noise come in 2^16-symbol chunks seeded by (seed, chunk index) and blocks
merge in order, so no worker count changes a result.

The received samples are reduced once, per block, to genie-aided per-level
count, mean and M2. Each block is cut at the midpoints of its own level
means (ideal level tracking over 33 us at 2 GBd; the fade's coherence time
is milliseconds); a sample's level is the number of cuts strictly below
it. The BER estimate averages the blocks' Q-factor estimates, the reported
statistics merge the blocks by Chan's update, and noise calibration
evaluates the same merge in closed form at every trial noise level.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, ndtri

from .channel_trace import ChannelTrace
from .errors import MissingLevelError, TraceTooShortError

# Level -> its Gray bit pair's (msb, lsb) bytes read as one uint16: one
# gather writes both bits of a symbol.
_LEVEL_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], np.uint8).view(np.uint16)[:, 0]

_CHUNK_SYMBOLS = 1 << 16
_CALIBRATION_SYMBOLS = 200_000
_CALIBRATION_REL_TOL = 1e-4

#: Smallest run: fewer symbols leave the four levels too thinly sampled
#: for the eye statistics and the level means that set the cuts.
MIN_SYMBOLS = 10_000

#: Largest run: a 4 GiB budget over 15 B/symbol. At 1e7 hazy symbols,
#: ``pipeline.payload_roundtrip`` peaks at 4.75 B/symbol (its bits in and
#: out, 2 B/symbol each, and about 8 MiB of calibration, trace and block
#: temporaries); a random ``pipeline.run_endtoend`` holds no whole-run array
#: and peaks at those 8 MiB, 0.83 B/symbol.
MAX_SYMBOLS = (4 << 30) // 15

#: Most worker threads a run may ask for; ``transmit`` starts one per block
#: at most.
MAX_WORKERS = 64


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


@dataclass(frozen=True)
class EyeStats:
    """Genie-aided level statistics of the run, the level means of each block
    (rows; a level a block lacks takes its whole-run mean), and the
    symbol-weighted mean of the blocks' Q-factor BER estimates."""

    run: LevelStats
    means: np.ndarray
    ber_estimated: float


@dataclass(frozen=True)
class BerReport:
    """Counted and Q-factor-estimated bit error rates for one run."""

    bits_tx: int
    bit_errors: int
    ber_counted: float
    ber_estimated: float
    level_stats: LevelStats
    snr_db: float


@dataclass(frozen=True)
class RandomBits:
    """2 * ``n_symbols`` random payload bits, drawn by ``_unit_bits`` per block."""

    n_symbols: int
    seed: int

    def __len__(self) -> int:
        return 2 * self.n_symbols


def modulate(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Map a bit stream onto Gray-coded PAM-4 level indices.

    Odd-length inputs are zero-padded by one bit; the returned pad count
    makes the padding explicit. Returns (labels, pad_bits); the transmitted
    intensities are ``levels[labels]``.
    """
    bits = _bit_array(bits)
    return _block_labels(bits), len(bits) % 2


def _bit_array(bits) -> np.ndarray:
    """``bits`` as a contiguous 1-D uint8 array of 0s and 1s
    (``_block_labels`` reads its bit pairs as 16-bit words)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if bits.size and np.max(bits) > 1:
        raise ValueError(f"bits must be 0 or 1, got {np.max(bits)}")
    return np.ascontiguousarray(bits)


def _bit_reader(bits: np.ndarray | RandomBits):
    """The function (lo, hi) -> the bits of symbols lo..hi-1 (lo a chunk
    boundary) of a payload array or a ``RandomBits`` source."""
    if isinstance(bits, RandomBits):
        return lambda lo, hi: _unit_bits(lo, hi, bits.seed)
    bits = _bit_array(bits)
    return lambda lo, hi: bits[2 * lo : 2 * hi]


def _unit_bits(lo: int, hi: int, seed: int) -> np.ndarray:
    """Random bits of symbols lo..hi-1 (lo a chunk boundary), two per symbol.

    Chunk i, symbols [i, i + 1) * ``_CHUNK_SYMBOLS``, is the unpacked
    ``rng.bytes(_CHUNK_SYMBOLS // 4)`` of an rng seeded by SeedSequence([seed, i]).
    """
    drawn = b"".join(
        np.random.default_rng(np.random.SeedSequence([seed, i])).bytes(_CHUNK_SYMBOLS // 4)
        for i in range(lo // _CHUNK_SYMBOLS, -(-hi // _CHUNK_SYMBOLS))
    )
    return np.unpackbits(np.frombuffer(drawn, dtype=np.uint8))[: 2 * (hi - lo)]


def _block_labels(pairs: np.ndarray) -> np.ndarray:
    """Gray-mapped level indices of a contiguous run of bit pairs,
    2 * msb + (msb ^ lsb) for the pair (msb, lsb); an odd tail's last symbol
    takes a zero pad bit."""
    if len(pairs) % 2:
        pairs = np.append(pairs, np.uint8(0))
    word = pairs.view("<u2")  # msb + 256 * lsb
    return ((word << 1) & 2 | (word ^ word >> 8) & 1).astype(np.uint8)


def derive_seeds(seed: int, n: int) -> list[int]:
    """n independent integer seeds spawned from one run seed."""
    seq = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(n)]


def apply_channel(
    symbols: np.ndarray, trace: ChannelTrace, noise_std: float, seed: int,
    symbol_rate_hz: float, levels: tuple[float, ...] | None = None,
) -> np.ndarray:
    """r_k = H(t_k) * x_k + n_k with zero-order-hold gains and AWGN.

    ``symbols`` are the transmitted intensities, or indices into ``levels``
    when those are given, one sample each; the trace, sampled at each
    symbol's start time, must cover the run. This is ``transmit``'s channel
    on the whole array, with the same seeded noise, sample for sample.
    """
    tx = np.asarray(symbols) if levels is None else np.take(levels, symbols)
    return _channel(len(tx), trace, noise_std, seed, symbol_rate_hz)(tx, 0)


def trace_samples_needed(n: int, symbol_rate_hz: float, trace_rate_hz: float) -> int:
    """Trace samples an n-symbol run reads: symbol k takes the gain of sample
    floor(k * trace_rate_hz / symbol_rate_hz), the sample its start lies in."""
    return int((n - 1) * (trace_rate_hz / symbol_rate_hz)) + 1


def _channel(n: int, trace: ChannelTrace, noise_std: float, seed: int, symbol_rate_hz: float):
    """Check an n-symbol channel and return its block function: (the
    intensities of the symbols from index lo on, lo) -> their received
    samples."""
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    need = trace_samples_needed(n, symbol_rate_hz, trace.sample_rate_hz)
    if need > len(trace.gains):
        raise TraceTooShortError(
            f"trace has {len(trace.gains)} samples at {trace.sample_rate_hz:g} Hz but "
            f"{n} symbols at {symbol_rate_hz:g} Baud need {need} samples"
        )
    step = trace.sample_rate_hz / symbol_rate_hz

    def block(tx: np.ndarray, lo: int) -> np.ndarray:
        hi = lo + len(tx)
        r = trace.gains[(np.arange(lo, hi) * step).astype(np.intp)] * tx
        if noise_std > 0:
            noise = _unit_noise(lo, hi, seed)
            noise *= noise_std
            r += noise
        return r

    return block


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


def _blocks(n: int) -> list[slice]:
    """The blocks of an n-symbol pass and of its statistics:
    ``_CHUNK_SYMBOLS`` symbols each, the last one taking the shorter tail."""
    edges = [k * _CHUNK_SYMBOLS for k in range(max(n // _CHUNK_SYMBOLS, 1))] + [n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def demodulate(samples: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Nearest-region PAM-4 decision back to bits (inverse Gray map).

    ``means`` has one row of four level means per block of ``_blocks``;
    each block is cut at the midpoints of its own row.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("no samples to demodulate")
    if np.isnan(np.min(samples)):
        raise ValueError("cannot decide NaN samples")
    means = np.asarray(means, dtype=float)
    pairs = np.empty(len(samples), dtype=np.uint16)
    for block, row in zip(_blocks(len(samples)), means, strict=True):
        pairs[block] = _decide_pairs(samples[block], row)
    return pairs.view(np.uint8)


def _decide_pairs(samples: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Gray bit pairs, as ``_LEVEL_BITS`` words, of samples cut at the
    midpoints of the four level means."""
    return np.take(_LEVEL_BITS, _decide(samples, 0.5 * (means[:-1] + means[1:])))


def _decide(samples: np.ndarray, cuts) -> np.ndarray:
    """Level index of each sample: the number of cuts strictly below it, as
    ``np.digitize(samples, cuts, right=True)`` gives (but 0 for a NaN)."""
    above = (samples > cuts[0]).view(np.uint8)
    return above + (samples > cuts[1]) + (samples > cuts[2])


def _eye_q(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Eye Q-factors gap / (sigma_lo + sigma_hi) between adjacent levels.

    A noiseless eye is +inf when open and -inf when closed (gap <= 0).
    """
    gaps = np.diff(means)
    denoms = stds[..., 1:] + stds[..., :-1]
    q = np.where(denoms > 0, gaps / np.where(denoms > 0, denoms, 1.0), np.inf)
    return np.where((denoms == 0) & (gaps <= 0), -np.inf, q)


def _block_moments(samples: np.ndarray, labels: np.ndarray):
    """Count, mean and M2 of each level among one block's samples.

    Two passes within the block: immune to the cancellation that would
    report nonzero noise on noiseless levels.
    """
    lab = labels.astype(np.intp)
    count = np.bincount(lab, minlength=4)
    mean = np.bincount(lab, weights=samples, minlength=4) / np.maximum(count, 1)
    d = samples - mean[lab]
    return count, mean, np.bincount(lab, weights=d * d, minlength=4)


def _level_moments(samples: np.ndarray, labels: np.ndarray) -> list[tuple]:
    """``_block_moments`` of each block of ``_blocks``, in block order."""
    return [_block_moments(samples[b], labels[b]) for b in _blocks(len(labels))]


def _merge(rows) -> LevelStats:
    """The whole run's statistics from its block moments, folded in block
    order with Chan, Golub & LeVeque's pairwise update (Am. Stat. 37(3),
    1983)."""
    n, mean, m2 = rows[0]
    for nb, mb, m2b in rows[1:]:
        w = nb / np.maximum(n + nb, 1)
        delta = mb - mean
        mean = mean + delta * w
        m2 = m2 + m2b + delta * delta * n * w
        n = n + nb
    stds = np.sqrt(m2 / np.maximum(n, 1))
    return LevelStats(means=mean, stds=stds, counts=n, q_factors=_eye_q(mean, stds))


def _eye(rows) -> EyeStats:
    """``EyeStats`` from the block moments: a level a block lacks takes the
    whole-run mean and std, and each block's Q-factor estimate is weighted
    by its symbols."""
    run = _merge(rows)
    counts, means, m2 = (np.array(column) for column in zip(*rows))
    present = counts > 0
    means = np.where(present, means, run.means)
    stds = np.where(present, np.sqrt(m2 / np.maximum(counts, 1)), run.stds)
    weights = counts.sum(axis=1) / counts.sum()
    ber = float(np.sum(_ber_from_q(_eye_q(means, stds)) * weights))
    return EyeStats(run=run, means=means, ber_estimated=ber)


def eye_stats(samples: np.ndarray, labels: np.ndarray) -> EyeStats:
    """Genie-aided per-level statistics of received samples, per block and
    for the whole run, from one reduction by true level."""
    samples = np.asarray(samples, dtype=float)
    labels = np.asarray(labels)
    if samples.shape != labels.shape:
        raise ValueError("samples and labels must have equal length")
    return _eye(_level_moments(samples, labels))


def gaussian_tail(q) -> np.ndarray | float:
    """P(N(0,1) > q), the Q function."""
    return 0.5 * erfc(np.asarray(q, dtype=float) / math.sqrt(2.0))


def _ber_from_q(q) -> np.ndarray:
    """Q-factor BER estimate (1/4) * sum_i Q(q_i) over the three eyes (the
    last axis), clipped to [0, 1/2].

    Adjacent-level errors dominate under Gray coding: symbol error rate
    (1/2) * sum Q(q_i), one wrong bit per two transmitted per symbol error.
    Open noiseless eyes (Q = +inf) contribute zero; a closed noiseless
    eye (Q = -inf, see ``_eye_q``) has no estimate.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q == -np.inf):
        raise ValueError(
            "cannot estimate BER: an eye has zero noise and a nonpositive gap"
        )
    return np.clip(0.25 * np.sum(gaussian_tail(q), axis=-1), 0.0, 0.5)


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
    return float(-ndtri(4.0 * target_ber / 3.0))


def calibrate_noise_std(
    bits: np.ndarray | RandomBits,
    trace: ChannelTrace,
    target_q: float,
    seed: int,
    config: Pam4Config,
) -> float:
    """Solve for the noise level that hits a target mean eye Q-factor.

    Bisection on noise_std against the mean of the three eye Q-factors
    over the first ``_CALIBRATION_SYMBOLS`` symbols of ``bits`` (a payload
    array or a ``RandomBits`` source, read as ``transmit`` reads it). Every
    trial level reuses the same noise draws z (those ``apply_channel``
    makes for ``seed``), so the received samples are u + noise_std * z
    with u = H * x. The per-level means and variances of u + s z at
    s = 0, 1 and -1 (``eye_stats``' reduction) give the means of
    u and z and A = Var(u), B = Var(z), C = Cov(u, z); a trial level s then
    has means u_mean + s * z_mean and variances A + 2 s C + s^2 B. The
    bracketed function is deterministic and strictly decreasing; the
    interval is shrunk to 1e-4 relative width.
    """
    if target_q <= 0:
        raise ValueError(f"target_q must be > 0, got {target_q}")
    n = min((len(bits) + 1) // 2, _CALIBRATION_SYMBOLS)
    labels = _block_labels(_bit_reader(bits)(0, n))
    u = apply_channel(labels, trace, 0.0, seed, config.symbol_rate_hz, levels=config.levels)
    z = _unit_noise(0, len(labels), seed)
    at_0, at_1, at_minus_1 = (_merge(_level_moments(x, labels)) for x in (u, u + z, u - z))
    z_mean = at_1.means - at_0.means
    var_u, var_plus, var_minus = (s.stds**2 for s in (at_0, at_1, at_minus_1))
    var_z = 0.5 * (var_plus + var_minus) - var_u
    cov_uz = 0.25 * (var_plus - var_minus)

    def mean_q(noise_std: float) -> float:
        means = at_0.means + noise_std * z_mean
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
        raise ValueError("target Q-factor unreachable: the channel itself is too noisy")
    while (hi - lo) > _CALIBRATION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mean_q(mid) > target_q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ber_report(bit_errors: int, bits_tx: int, eye: EyeStats) -> BerReport:
    """Bundle a counted and the estimated BER with an SNR read off the eye
    stats."""
    stats = eye.run
    counts = np.asarray(stats.counts, dtype=float)
    mean_power = float(np.sum(counts * np.asarray(stats.means) ** 2) / np.sum(counts))
    noise_var = float(np.sum(counts * np.asarray(stats.stds) ** 2) / np.sum(counts))
    snr_db = 10.0 * math.log10(mean_power / noise_var) if noise_var > 0 else math.inf
    return BerReport(
        bits_tx=bits_tx,
        bit_errors=bit_errors,
        ber_counted=bit_errors / bits_tx,
        ber_estimated=eye.ber_estimated,
        level_stats=stats,
        snr_db=snr_db,
    )


def transmit(
    bits: np.ndarray | RandomBits,
    trace: ChannelTrace,
    noise_std: float,
    seed: int,
    config: Pam4Config,
    workers: int = 1,
) -> tuple[np.ndarray | None, BerReport]:
    """The link pass: modulate, fade and add noise, decide, count errors.

    ``bits`` is a payload array or a ``RandomBits`` source. Returns the
    decided bits of a payload array, cut to ``len(bits)`` (None for a random
    source, which holds no whole-run array), and the BER report. Each block
    of ``_blocks`` runs one kernel: its bits to level indices, the channel
    of ``apply_channel`` (one sample per symbol), per-level moments, the cut
    at the midpoints of its own level means and its bit-error count. A block
    that lacks a level runs again after the merge, from the same bits and
    seeded noise, cut at that level's whole-run mean. At most ``workers``
    threads run the kernels, one per block at most (one thread is the
    calling one: a started thread would add its malloc arena to the peak
    RSS); the blocks merge in block order with ``eye_stats``' arithmetic, so
    the worker count never changes a result.
    """
    read = _bit_reader(bits)
    n = (len(bits) + 1) // 2
    channel = _channel(n, trace, noise_std, seed, config.symbol_rate_hz)
    blocks = _blocks(n)
    pairs = None if isinstance(bits, RandomBits) else np.empty(n, dtype=np.uint16)

    def kernel(b: slice, means: np.ndarray | None = None):
        """Block b's moments, and its bit errors once it is decided: at
        ``means``, or at its own means if it has every level."""
        tx_bits = read(b.start, b.stop)
        labels = _block_labels(tx_bits)
        samples = channel(np.take(config.levels, labels), b.start)
        row = _block_moments(samples, labels)
        if means is None and not np.all(row[0]):
            return row, None
        decided = _decide_pairs(samples, row[1] if means is None else means)
        if pairs is not None:
            pairs[b] = decided
        return row, count_ber(tx_bits, decided.view(np.uint8)[: len(tx_bits)])[0]

    threads = min(workers, len(blocks))
    with contextlib.ExitStack() as stack:
        run = map if threads == 1 else stack.enter_context(ThreadPoolExecutor(threads)).map
        rows, errors = zip(*run(kernel, blocks))
        eye = _eye(rows)
        late = [k for k, e in enumerate(errors) if e is None]
        redone = run(kernel, [blocks[k] for k in late], eye.means[late])
        bit_errors = sum(e for e in errors if e is not None) + sum(e for _, e in redone)
    rx_bits = None if pairs is None else pairs.view(np.uint8)[: len(bits)]
    return rx_bits, ber_report(bit_errors, len(bits), eye)
