"""Seeded, time-correlated fading trace generation.

Software stand-in for a hardware intensity-channel emulator: produces
unit-mean sequences of linear intensity gains whose marginal distribution
(log-normal or gamma-gamma) and Gaussian-shaped autocorrelation are both
prescribed. Correlation is imposed through a stationary Gaussian process
and a copula/rank transform, so marginal and time structure can be chosen
independently. Everything is deterministic given the seed.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

import numpy as np
import scipy.fft
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, gammaln, ndtri

from .errors import TraceLengthError

if TYPE_CHECKING:
    from .atmosphere import LinkGeometry

#: Longest trace: a 4 GiB budget over 128 B/sample. ``generate_trace`` peaks
#: at 8.1-10.7 B/sample, and followed by ``trace_stats`` at 16.0-19.2, 26.2
#: at T = 10 tau0 (a window just under n/8 lags, one block: 18 beside the
#: trace's 8), or 32.3 when tau0 >> T takes the ACF window to n/2 lags
#: (tracemalloc, 1e6-4.2e6 samples, both marginals). The budget moves only
#: with its own re-measurement.
MAX_TRACE_SAMPLES = (4 << 30) // 128

_BINARY_MAGIC = b"FSOTRC01"
_BINARY_HEADER = "<8sddd q q"

#: Metadata of a trace file, in header order, with the type each is read as.
_TRACE_FIELDS = {
    "sample_rate_hz": float,
    "duration_s": float,
    "coherence_time_s": float,
    "seed": int,
}


def scintillation_index(rytov_var: float) -> float:
    """Map Rytov variance to scintillation index (normalized intensity variance).

    Uses the standard plane-wave weak-to-strong interpolation: equals the
    Rytov variance in the weak regime and saturates toward 1 as turbulence
    strengthens.

    Parameters
    ----------
    rytov_var : float
        Rytov variance, >= 0.

    Returns
    -------
    float
        Scintillation index sigma_I^2 >= 0.
    """
    if rytov_var < 0:
        raise ValueError(f"rytov_var must be >= 0, got {rytov_var}")
    if rytov_var == 0:
        return 0.0
    t_large, t_small = _log_intensity_variances(rytov_var)
    return math.exp(t_large + t_small) - 1.0


def _log_intensity_variances(rytov_var: float) -> tuple[float, float]:
    """Plane-wave large- and small-scale log-intensity variances."""
    s = rytov_var
    t_large = 0.49 * s / (1.0 + 1.11 * s ** (6.0 / 5.0)) ** (7.0 / 6.0)
    t_small = 0.51 * s / (1.0 + 0.69 * s ** (6.0 / 5.0)) ** (5.0 / 6.0)
    return t_large, t_small


def gamma_gamma_params(rytov_var: float) -> tuple[float, float]:
    """Plane-wave gamma-gamma shape parameters (alpha, beta) from Rytov variance.

    alpha and beta are the inverse normalized variances of the large- and
    small-scale intensity factors. The implied scintillation index
    1/alpha + 1/beta + 1/(alpha*beta) equals ``scintillation_index`` exactly.
    """
    if rytov_var <= 0:
        raise ValueError(
            "gamma-gamma parameters require rytov_var > 0; "
            "use the log-normal model for the zero-turbulence case"
        )
    t_large, t_small = _log_intensity_variances(rytov_var)
    alpha = 1.0 / (math.exp(t_large) - 1.0)
    beta = 1.0 / (math.exp(t_small) - 1.0)
    return alpha, beta


@dataclass(frozen=True)
class FadingModel:
    """Marginal intensity distribution for a fading trace.

    ``log_normal`` uses sigma_i2 alone; ``gamma_gamma`` additionally needs
    the (alpha, beta) shape pair, normally derived from the Rytov variance.
    """

    kind: Literal["log_normal", "gamma_gamma"]
    sigma_i2: float = 0.0
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("log_normal", "gamma_gamma"):
            raise ValueError(f"unknown fading model kind {self.kind!r}")
        if self.sigma_i2 < 0:
            raise ValueError(f"sigma_i2 must be >= 0, got {self.sigma_i2}")
        if self.kind == "gamma_gamma":
            if self.alpha is None or self.beta is None:
                raise ValueError("gamma_gamma model requires alpha and beta")
            if self.alpha <= 0 or self.beta <= 0:
                raise ValueError("alpha and beta must be > 0")

    @classmethod
    def log_normal(cls, sigma_i2: float) -> "FadingModel":
        return cls(kind="log_normal", sigma_i2=sigma_i2)

    @classmethod
    def gamma_gamma_from_rytov(cls, rytov_var: float) -> "FadingModel":
        alpha, beta = gamma_gamma_params(rytov_var)
        sigma_i2 = 1.0 / alpha + 1.0 / beta + 1.0 / (alpha * beta)
        return cls(kind="gamma_gamma", sigma_i2=sigma_i2, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class ChannelTrace:
    """Time series of nonnegative linear intensity gains at a fixed rate."""

    sample_rate_hz: float
    duration_s: float
    seed: int
    gains: np.ndarray = field(repr=False)
    coherence_time_s: float

    def __post_init__(self):
        rate, duration = self.sample_rate_hz, self.duration_s
        if not (rate > 0 and duration > 0 and rate * duration < math.inf):
            raise ValueError(
                "trace sample rate and duration must be > 0 with a finite "
                f"product, got {rate} Hz and {duration} s"
            )
        if not self.coherence_time_s > 0:  # inf stands for a frozen channel
            raise ValueError(f"trace coherence time must be > 0, got {self.coherence_time_s}")
        expected = int(round(rate * duration))
        if len(self.gains) != expected:
            raise ValueError(
                f"trace length {len(self.gains)} does not match "
                f"rate*duration = {expected}"
            )
        gains = self.gains
        if len(gains) and not (np.min(gains) >= 0.0 and np.max(gains) < math.inf):
            raise ValueError("trace gains must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class TraceStats:
    """Sample moments and coherence-time estimate of a trace."""

    mean: float
    sigma_i2: float
    coherence_time_s: float


def coherence_time(geometry: "LinkGeometry", wind_speed: float) -> float:
    """Frozen-turbulence coherence time: Fresnel scale over transverse wind.

    tau0 = sqrt(lambda * distance) / v. Halving the wind speed doubles the
    coherence time; quadrupling the distance doubles it.
    """
    if wind_speed <= 0:
        raise ValueError(f"wind_speed must be > 0, got {wind_speed}")
    return math.sqrt(geometry.wavelength_m * geometry.distance_m) / wind_speed


#: FFT length of the overlap-save blocks that filter the node noise.
_FIR_FFT = 1 << 15
#: Output samples per interpolation and marginal-map chunk.
_CHUNK = 1 << 16


@functools.lru_cache(maxsize=8)
def _fir_taps(r: float) -> np.ndarray:
    """Symmetric taps h_j, |j| <= floor(4r) + 4, sum h^2 = 1, whose
    autocorrelation is exp(-(j/r)^2), r being tau0 in node spacings
    (read-only).

    The taps are the square root of the sampled covariance's spectrum, over
    a period of 4*floor(4r) + 80 nodes that keeps the wrapped covariance
    below e^-64 (negative bins are rounding). From r = 5 up they are the
    sampled exp(-2(j/r)^2) to 1.3e-8; below that the sampled Gaussian
    misses the target (by 0.11 at lag 1 for r = 1) and the square root
    decays slowly, hence the 4 nodes beyond 4 tau0. The autocorrelation is
    within 4e-5 of the target at every r.
    """
    half = int(4.0 * r) + 4
    m = 4 * half + 64
    lag = np.minimum(np.arange(m), m - np.arange(m)) / r
    spectrum = np.fft.rfft(np.exp(-(lag**2))).real
    h = np.fft.irfft(np.sqrt(np.maximum(spectrum, 0.0)), m)
    h = np.concatenate([h[m - half :], h[: half + 1]])
    h /= math.sqrt(h @ h)
    h.setflags(write=False)
    return h


def _gaussian_acf_series(
    n: int, dt: float, tau0: float, rng: np.random.Generator
) -> np.ndarray:
    """Stationary standard-normal series with autocorrelation exp(-(t/tau0)^2).

    Nodes k*dt apart, k = max(1, floor(tau0 / (20 dt))) (20-40 nodes per
    tau0), are white noise drawn in order from ``rng`` and filtered by
    ``_fir_taps``, overlap-save in fixed FFT blocks. Each sample is the
    cubic Lagrange interpolation of its four nearest nodes, node p sitting
    at (p - 1)*k*dt; at k = 1 it is the node itself. The covariance is
    within 4e-5 of the target at every lag (interpolation: 3.5e-6), with no
    wrap-around, and time and memory are O(n) whatever tau0.

    The cubics are evaluated in place in ``out``, up to ``_CHUNK`` samples
    of whole intervals at a time as a (rows x k) block against one row of
    fractions u = j/k; an interval longer than ``_CHUNK``, or the trace's
    last one, goes in pieces of at most ``_CHUNK``. Each sample takes the same Horner
    steps as a per-sample evaluation, so the series does not depend on how
    it is cut.
    """
    # Past 1e15 samples per tau0 the ACF is 1 to 1e-15 over any trace the
    # sample budget allows; the cap keeps k an exact int64.
    k = max(1, math.floor(min(tau0 / dt, 1e15) / 20.0))
    h = _fir_taps(tau0 / (k * dt))
    n_nodes = (n - 1) // k + 4
    fft_len = min(_FIR_FFT, scipy.fft.next_fast_len(n_nodes + len(h) - 1, real=True))
    h_spec = np.fft.rfft(h, fft_len)
    out = np.empty(n)
    noise = rng.standard_normal(len(h) - 1)
    nodes = np.empty(0)
    made = done = 0
    while made < n_nodes:
        count = min(fft_len - len(h) + 1, n_nodes - made)
        noise = np.concatenate([noise[len(noise) - len(h) + 1 :], rng.standard_normal(count)])
        fresh = np.fft.irfft(np.fft.rfft(noise, fft_len) * h_spec, fft_len)
        nodes = np.concatenate([nodes[-3:], fresh[len(h) - 1 : len(h) - 1 + count]])
        made += count
        first = made - len(nodes)
        # Interval q, between nodes q + 1 and q + 2, as a cubic in u = j/k.
        a, b, c, d = nodes[:-3], nodes[1:-2], nodes[2:-1], nodes[3:]
        cubic = ((d - a) / 6.0 + 0.5 * (b - c), 0.5 * (a + c) - b, c - a / 3.0 - b / 2.0 - d / 6.0)
        stop = min(n, (made - 3) * k)
        while done < stop:
            q0, j = divmod(done, k)
            rows = min(_CHUNK // k, (stop - done) // k) if j == 0 else 0
            if rows:  # whole intervals
                width = k
            else:  # part of one interval
                rows, width = 1, min(k - j, stop - done, _CHUNK)
            u = np.arange(j, j + width) / k
            q = slice(q0 - first, q0 - first + rows)
            y = out[done : done + rows * width].reshape(rows, width)
            np.multiply.outer(cubic[0][q], u, out=y)
            for coef in cubic[1:]:
                y += coef[q, None]
                y *= u
            y += b[q, None]
            done += rows * width
    return out


#: The quantile table spans |z| <= 8 (tail mass 6e-16) in steps of 1/256.
_Z_MAX = 8.0
_Z_POINTS = 16 * 256 + 1


def gamma_gamma_cdf(
    x: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """CDF F(x) and its complement 1 - F(x), x >= 0, of the unit-mean
    gamma-gamma law.

    I = X*Y with X ~ Gamma(alpha, 1/alpha) and Y ~ Gamma(beta, 1/beta), so
    F(x) = E_Y[P(X <= x/Y)] (Al-Habash, Andrews & Phillips, Opt. Eng. 40(8),
    2001). The expectation runs over the factor with the larger shape (the
    narrower one in log scale), by a trapezoid rule in its logarithm that
    spans its 1e-22 and 1 - 1e-22 quantiles in steps of 0.25/sqrt(shape)
    (0.25 for a shape below 1). Both tails are sums of positive terms,
    ``gammainc`` for F and ``gammaincc`` for 1 - F, and keep their relative
    accuracy: within 1e-7 of ``scipy.integrate.quad`` down to 6e-16 for the
    plane-wave shapes. The weights are normalised, so F + (1 - F) = 1.
    """
    k_mix, k_cond = max(alpha, beta), min(alpha, beta)
    u_lo = math.log(gammaincinv(k_mix, 1e-22) / k_mix)
    u_hi = math.log(gammainccinv(k_mix, 1e-22) / k_mix)
    n = math.ceil((u_hi - u_lo) * math.sqrt(max(k_mix, 1.0)) / 0.25) + 1
    u = np.linspace(u_lo, u_hi, n)
    # Density of log(mixing factor) at the nodes, up to the common step.
    w = np.exp(k_mix * (u - np.exp(u) + math.log(k_mix)) - gammaln(k_mix))
    w /= w.sum()
    t = k_cond * np.multiply.outer(np.asarray(x, dtype=float), np.exp(-u))
    return gammainc(k_cond, t) @ w, gammaincc(k_cond, t) @ w


@functools.lru_cache(maxsize=8)
def _gamma_gamma_table(alpha: float, beta: float) -> np.ndarray:
    """Gamma-gamma quantiles at z = -8, -8 + 1/256, ..., 8 (read-only).

    log x is laid on 512 points between the products of the two factors'
    1e-16 and 1 - 1e-16 quantiles, where F <= 2e-16 and 1 - F <= 2e-16.
    Each point gets z = Phi^-1(F), or -Phi^-1(1 - F) in the upper half, and
    a cubic Hermite curve through them (slopes by finite differences) gives
    log x on the uniform grid: within 3e-6 of a 60 000-point table for the
    plane-wave shapes of Rytov variance 0.43 to 1e4.
    """
    log_x = np.linspace(
        math.log(gammaincinv(alpha, 1e-16) * gammaincinv(beta, 1e-16) / (alpha * beta)),
        math.log(gammainccinv(alpha, 1e-16) * gammainccinv(beta, 1e-16) / (alpha * beta)),
        512,
    )
    cdf, ccdf = gamma_gamma_cdf(np.exp(log_x), alpha, beta)
    z = np.where(cdf < 0.5, ndtri(cdf), -ndtri(ccdf))
    slope = np.gradient(log_x, z)
    grid = np.linspace(-_Z_MAX, _Z_MAX, _Z_POINTS)
    i = np.searchsorted(z, grid) - 1
    h = z[i + 1] - z[i]
    s = (grid - z[i]) / h
    table = np.exp(
        (1.0 - s) ** 2 * ((1.0 + 2.0 * s) * log_x[i] + s * h * slope[i])
        + s**2 * ((3.0 - 2.0 * s) * log_x[i + 1] + (s - 1.0) * h * slope[i + 1])
    )
    table.setflags(write=False)
    return table


def _gamma_gamma_quantiles(g: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Copula transform of a standard-normal series to the gamma-gamma marginal.

    Each g is mapped to the quantile F^-1(Phi(g)) by linear interpolation
    in the per-(alpha, beta) table of ``_gamma_gamma_table``, whose uniform
    z grid turns the lookup into index arithmetic. Samples beyond |g| = 8
    take the end values. Unlike rank matching of n fresh draws, this stays
    constant when the driving series is constant (the frozen-channel limit).
    """
    table = _gamma_gamma_table(alpha, beta)
    last = len(table) - 1
    pos = (g + _Z_MAX) * (last / (2.0 * _Z_MAX))
    np.clip(pos, 0.0, last, out=pos)
    idx = np.minimum(pos.astype(np.intp), last - 1)
    pos -= idx
    return table[idx] * (1.0 - pos) + table[idx + 1] * pos


def generate_trace(
    model: FadingModel,
    coherence_time_s: float,
    sample_rate_hz: float,
    duration_s: float,
    seed: int,
) -> ChannelTrace:
    """Generate a unit-mean fading trace with prescribed marginal and ACF.

    Parameters
    ----------
    model : FadingModel
        Target marginal distribution.
    coherence_time_s : float
        Gaussian-ACF time constant tau0; the autocorrelation of the
        underlying process is exp(-(t/tau0)^2), so the half-power point
        sits at tau0*sqrt(ln 2).
    sample_rate_hz, duration_s : float
        Trace sampling, finite and > 0; rate*duration <= ``MAX_TRACE_SAMPLES``
        (else ``TraceLengthError``, raised before anything is allocated).
    seed : int
        Master seed; identical inputs give bit-identical traces.

    Notes
    -----
    The log-normal trace is the exact monotone transform
    exp(sigma*g - sigma^2/2) of the correlated Gaussian g. The gamma-gamma
    trace maps g through the quantile function F^-1(Phi(g)) (Gaussian
    copula), tabulated from ``gamma_gamma_cdf`` on a uniform grid over
    |g| <= 8, so fades out to the 6e-16 quantile are reached. The table is
    built once per (alpha, beta) and cached. The mapping keeps the marginal
    and degrades gracefully to a single frozen draw when the coherence time
    exceeds the trace duration.
    """
    for name, value in (
        ("sample_rate_hz", sample_rate_hz),
        ("duration_s", duration_s),
        ("coherence_time_s", coherence_time_s),
    ):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    samples = sample_rate_hz * duration_s
    if samples > MAX_TRACE_SAMPLES:
        raise TraceLengthError(
            f"trace of {samples:g} samples exceeds the {MAX_TRACE_SAMPLES}-sample "
            "budget (4 GiB); lower sample_rate_hz or duration_s"
        )
    n = int(round(samples))
    if n < 1:
        raise ValueError("rate*duration rounds to zero samples")

    if model.sigma_i2 == 0.0:
        gains = np.ones(n)
    else:
        (child_g,) = np.random.SeedSequence(seed).spawn(1)
        gains = _gaussian_acf_series(
            n, 1.0 / sample_rate_hz, coherence_time_s, np.random.default_rng(child_g)
        )
        s2 = math.log1p(model.sigma_i2)
        for start in range(0, n, _CHUNK):
            g = gains[start : start + _CHUNK]
            if model.kind == "log_normal":
                np.exp(math.sqrt(s2) * g - 0.5 * s2, out=g)
            else:
                g[:] = _gamma_gamma_quantiles(g, model.alpha, model.beta)

    return ChannelTrace(
        sample_rate_hz=sample_rate_hz,
        duration_s=duration_s,
        seed=seed,
        gains=gains,
        coherence_time_s=coherence_time_s,
    )


def constant_trace(duration_s: float) -> ChannelTrace:
    """Non-fading trace of 1000 unit gains spanning ``duration_s``; other
    gains take a ``dataclasses.replace(trace, gains=...)`` of it."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    return ChannelTrace(
        sample_rate_hz=1000 / duration_s,
        duration_s=duration_s,
        seed=0,
        gains=np.ones(1000),
        coherence_time_s=math.inf,
    )


#: Floor on the lags of ``trace_stats``' first ACF window: it bounds the block
#: count, and so the per-block Python cost, when tau0 spans a few samples.
_FIRST_LAGS = 4096


def _autocovariance(x: np.ndarray, mean: float, lags: int) -> np.ndarray:
    """Sums sum_i (x[i] - mean) * (x[i + k] - mean) for lags k < ``lags``.

    The trace is cut into blocks of 8*lags samples, each with the mean
    removed on its own. A block's real FFT is correlated with that of the
    same block extended by the next lags - 1 samples, and the cross-spectra
    are summed before one inverse FFT. Over m >= block + lags points no
    circular wrap reaches a lag below ``lags``. Past n/9 lags the block is
    the whole trace, transformed once, so no block is shorter than the
    lags. The cross-spectrum is formed from explicit real and imaginary
    parts, so for one block it is bit for bit the power spectrum re^2 + im^2.

    With two blocks or more, the calling thread and one helper thread each
    take one block of every consecutive pair, in buffers allocated here
    once per call, and the cross-spectra are summed in block order: the
    sums are bit for bit those of one thread.
    """
    n = len(x)
    block = n if n < 9 * lags else 8 * lags
    m = scipy.fft.next_fast_len(block + lags, real=True)
    bins = m // 2 + 1
    starts = range(0, n, block)

    def cross(start, buffers):
        """Cross-spectrum (re, im) of the block at ``start``, in ``buffers``."""
        work, head, tail = buffers
        ext = work[: min(n - start, block + lags - 1)]
        np.subtract(x[start : start + len(ext)], mean, out=ext)
        np.fft.rfft(ext[:block], m, out=head)
        if len(ext) > block:
            np.fft.rfft(ext, m, out=tail)
        else:
            tail = head
        # The deviations are spent and take (re, im); the tail's parts, once
        # read, take the second products.
        re, im = work[:bins], work[bins:]
        np.multiply(head.real, tail.real, out=re)
        np.multiply(head.real, tail.imag, out=im)
        im -= np.multiply(head.imag, tail.real, out=tail.real)
        re += np.multiply(head.imag, tail.imag, out=tail.imag)
        return re, im

    def spectra():
        if len(starts) == 1:
            yield cross(0, buffers[0])
            return
        with ThreadPoolExecutor(1) as helper:
            for pair in range(0, len(starts), 2):
                odd = [helper.submit(cross, s, buffers[1]) for s in starts[pair + 1 : pair + 2]]
                yield cross(starts[pair], buffers[0])
                yield from (job.result() for job in odd)

    # Per thread: the block's deviations, then its (re, im), and the head
    # and tail spectra; a thread whose only block is the last has no tail.
    buffers = [
        (
            np.empty(2 * bins),
            np.empty(bins, complex),
            np.empty(bins, complex) if len(starts) > t + 1 else None,
        )
        for t in range(min(2, len(starts)))
    ]
    # A lone block's head takes the sum once its own products are made.
    acc = np.empty(bins, complex) if len(starts) > 1 else buffers[0][1]
    for i, (re, im) in enumerate(spectra()):
        if i == 0:
            acc.real, acc.imag = re, im
        else:
            acc.real += re
            acc.imag += im
    del buffers, re, im  # the inverse FFT needs only the sum
    return np.fft.irfft(acc, m)[:lags]


def trace_stats(trace: ChannelTrace) -> TraceStats:
    """Sample mean, scintillation index, and ACF half-power coherence time.

    The coherence-time estimate inverts the Gaussian-ACF relation: the lag
    where the biased autocovariance, normalized to 1 at lag 0, first drops
    below 1/2 (linearly interpolated) divided by sqrt(ln 2). Infinite for a
    constant trace; nan below 100 samples, too few to estimate it.

    The autocovariance is computed over the first ceil(1.25*tau0*rate)
    lags, tau0 being the trace's ``coherence_time_s`` (1.5 times its
    half-power lag), at least 4096 and at most all n//2 + 1. Without a
    crossing below 1/2 there, the sums are taken again over all n//2 + 1
    lags, so the crossing found is the first one up to lag n//2 whatever
    tau0 the trace carries: tau0 sets only the cost. A window of two
    blocks or more shares them between the calling thread and one helper
    thread and sums them in block order, so every field is bit for bit
    that of one thread.

    A window T of at most a few tau0 does not resolve tau0: the ACF is that
    of a near-linear drift across the trace and the estimate reads about
    0.2*T whatever the true tau0. The default ``transmit`` run is such a
    case: its 100-sample trace spans 5 ms against tau0 = 29-176 ms and
    reports 1.02 ms.
    """
    g = trace.gains
    n = len(g)
    if n == 0:
        raise ValueError("trace has no samples")
    mean = float(np.mean(g))
    var = float(np.var(g))
    sigma_i2 = var / mean**2 if mean != 0 else 0.0
    if var == 0.0:
        return TraceStats(mean=mean, sigma_i2=sigma_i2, coherence_time_s=math.inf)
    if n < 100:
        return TraceStats(mean=mean, sigma_i2=sigma_i2, coherence_time_s=math.nan)

    all_lags = n // 2 + 1
    reach = 1.25 * trace.coherence_time_s * trace.sample_rate_hz
    lags = min(max(_FIRST_LAGS, math.ceil(min(reach, all_lags))), all_lags)
    while True:
        acov = _autocovariance(g, mean, lags)
        acf = acov / acov[0]
        below = np.nonzero(acf < 0.5)[0]
        if len(below) or lags == all_lags:
            break
        lags = all_lags
    if len(below) == 0:
        return TraceStats(mean=mean, sigma_i2=sigma_i2, coherence_time_s=math.inf)
    j = int(below[0])  # >= 1: acf[0] is 1
    frac = (acf[j - 1] - 0.5) / (acf[j - 1] - acf[j])
    t_half = (j - 1 + frac) / trace.sample_rate_hz
    return TraceStats(
        mean=mean,
        sigma_i2=sigma_i2,
        coherence_time_s=float(t_half) / math.sqrt(math.log(2.0)),
    )


def trace_to_csv(trace: ChannelTrace, path) -> None:
    """Write ``time_s,gain`` rows plus metadata comments, ``_CHUNK`` rows at
    a time; bit-exact round trip."""
    n = len(trace.gains)
    with open(path, "w", newline="") as fh:
        fh.write("# fsolink-trace-v1\n")
        fh.writelines(f"# {key}={getattr(trace, key)}\n" for key in _TRACE_FIELDS)
        fh.write("time_s,gain\r\n")
        for start in range(0, n, _CHUNK):
            times = np.arange(start, min(start + _CHUNK, n)) / trace.sample_rate_hz
            gains = trace.gains[start : start + _CHUNK]
            fh.writelines(f"{t!r},{g!r}\r\n" for t, g in zip(times.tolist(), gains.tolist()))


def trace_from_csv(path) -> ChannelTrace:
    """Read ``trace_to_csv``'s layout: "#" metadata comments, an optional
    ``time_s,gain`` header, then the rows (blank ones skipped), whose gain
    column numpy's parser reads (correctly rounded, so the round trip is
    bit-exact)."""
    meta = {}
    with open(path, newline="") as fh:
        first = None
        for line in fh:
            if line[0] != "#":
                first = line
                break
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        if first is None or first.isspace() or first.lstrip().startswith("time_s"):
            first = next((row for row in fh if not row.isspace()), None)
        gains = np.empty(0)
        if first is not None:  # numpy warns on a file without rows
            rows = (row for part in ([first], fh) for row in part if not row.isspace())
            try:
                gains = np.loadtxt(rows, delimiter=",", usecols=1, ndmin=1, comments=None)
            except ValueError as err:
                if "invalid column index" not in str(err):
                    raise
                raise ValueError("trace CSV row without a gain column") from None
    missing = [key for key in _TRACE_FIELDS if key not in meta]
    if missing:
        raise ValueError(f"trace CSV missing metadata keys: {missing}")
    return ChannelTrace(
        gains=gains,
        **{key: kind(meta[key]) for key, kind in _TRACE_FIELDS.items()},
    )


def trace_to_binary(trace: ChannelTrace, path) -> None:
    """Raw little-endian float64 format with an 8-byte magic header."""
    header = struct.pack(
        _BINARY_HEADER,
        _BINARY_MAGIC,
        *(getattr(trace, key) for key in _TRACE_FIELDS),
        len(trace.gains),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(np.ascontiguousarray(trace.gains, dtype="<f8")))


def trace_from_binary(path) -> ChannelTrace:
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize(_BINARY_HEADER))
        if len(header) < struct.calcsize(_BINARY_HEADER):
            raise ValueError("trace file truncated")
        magic, *values, n = struct.unpack(_BINARY_HEADER, header)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"not a trace file: bad magic {magic!r}")
        # Checked against the file's size before numpy allocates n samples.
        if not 0 <= 8 * n <= os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError("trace file truncated")
        gains = np.fromfile(fh, "<f8", count=n)
    return ChannelTrace(gains=gains, **dict(zip(_TRACE_FIELDS, values)))
