import dataclasses
import math
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy import integrate, stats
from scipy.special import ndtr

from fsolink import channel_trace
from fsolink.atmosphere import LinkGeometry
from fsolink.channel_trace import (
    ChannelTrace,
    FadingModel,
    coherence_time,
    constant_trace,
    gamma_gamma_cdf,
    gamma_gamma_params,
    generate_trace,
    scintillation_index,
    trace_from_binary,
    trace_from_csv,
    trace_stats,
    trace_to_binary,
    trace_to_csv,
)
from fsolink.errors import TraceLengthError


def index_oracle(s):
    # Direct evaluation of the interpolation map.
    t1 = 0.49 * s / (1 + 1.11 * s ** 1.2) ** (7 / 6)
    t2 = 0.51 * s / (1 + 0.69 * s ** 1.2) ** (5 / 6)
    return math.exp(t1 + t2) - 1.0


class TestScintillationIndex:
    def test_zero(self):
        assert scintillation_index(0.0) == 0.0

    def test_weak_regime_tracks_rytov(self):
        value = scintillation_index(0.04)
        assert value == pytest.approx(0.04, rel=0.10)
        assert value == pytest.approx(index_oracle(0.04), rel=1e-12)

    def test_saturation(self):
        value = scintillation_index(100.0)
        assert 0.5 < value < 1.5
        assert value == pytest.approx(index_oracle(100.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            scintillation_index(-0.1)


class TestGammaGammaParams:
    def test_values_at_unit_rytov(self):
        alpha, beta = gamma_gamma_params(1.0)
        assert alpha == pytest.approx(4.393859025392147, rel=1e-12)
        assert beta == pytest.approx(2.5636319795036955, rel=1e-12)

    @pytest.mark.parametrize("rytov", [0.05, 0.3, 1.0, 4.0, 25.0, 100.0])
    def test_implied_index_identity(self, rytov):
        alpha, beta = gamma_gamma_params(rytov)
        implied = 1 / alpha + 1 / beta + 1 / (alpha * beta)
        assert implied == pytest.approx(scintillation_index(rytov), rel=1e-6)

    def test_beta_limits_to_one_from_above(self):
        _, beta = gamma_gamma_params(100.0)
        assert 1.0 < beta < 1.1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_gamma_params(0.0)


def quad_cdf(x, a, b):
    """F(x) and 1 - F(x) by adaptive quadrature over Y ~ Gamma(b, 1/b) in log y."""
    lo = math.log(stats.gamma.ppf(1e-30, b, scale=1 / b))
    hi = math.log(stats.gamma.isf(1e-30, b, scale=1 / b))
    split = [min(max(math.log(x), lo + 1e-9), hi - 1e-9)]

    def integrand(u, tail):
        y = math.exp(u)
        return stats.gamma.pdf(y, b, scale=1 / b) * y * tail(x / y, a, scale=1 / a)

    return tuple(
        integrate.quad(
            integrand, lo, hi, args=(tail,), points=split, limit=500,
            epsabs=0.0, epsrel=1e-10,
        )[0]
        for tail in (stats.gamma.cdf, stats.gamma.sf)
    )


class TestGammaGammaCdf:
    # Points from F ~ 1e-9 to 1 - F ~ 1e-9 at Rytov 1 (alpha 4.39, beta 2.56)
    # and Rytov 25 (alpha 8.05, beta 1.03, the strong-turbulence limit).
    @pytest.mark.parametrize(
        "rytov, xs",
        [
            (1.0, [1.1e-4, 1e-3, 0.03, 0.3, 1.0, 3.0, 6.0, 17.0, 26.0]),
            (25.0, [1.6e-9, 4e-7, 1.4e-3, 0.16, 1.0, 8.0, 24.0, 37.0]),
        ],
    )
    def test_matches_quadrature_into_both_tails(self, rytov, xs):
        a, b = gamma_gamma_params(rytov)
        cdf, ccdf = gamma_gamma_cdf(np.array(xs), a, b)
        reference = np.array([quad_cdf(x, a, b) for x in xs])
        assert cdf == pytest.approx(reference[:, 0], rel=1e-4)
        assert ccdf == pytest.approx(reference[:, 1], rel=1e-4)
        assert cdf[0] < 1.5e-9 and ccdf[-1] < 1.5e-9


class TestCoherenceTime:
    def test_clear_preset_value(self):
        geom = LinkGeometry(distance_m=20000.0, rx_altitude_m=10000.0)
        expected = math.sqrt(1550e-9 * 20000.0) / 1.0
        assert coherence_time(geom, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_inverse_in_wind(self):
        geom = LinkGeometry(distance_m=20000.0)
        assert coherence_time(geom, 6.0) == pytest.approx(
            coherence_time(geom, 1.0) / 6.0, rel=1e-12
        )

    def test_sqrt_distance_scaling(self):
        t1 = coherence_time(LinkGeometry(distance_m=5000.0), 2.0)
        t4 = coherence_time(LinkGeometry(distance_m=20000.0), 2.0)
        assert t4 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            coherence_time(LinkGeometry(distance_m=1000.0), 0.0)


def lagrange_weights(u):
    """Cubic Lagrange weights of the nodes at -1, 0, 1 and 2, at 0 <= u < 1."""
    return np.array([
        -u * (u - 1) * (u - 2) / 6, (u + 1) * (u - 1) * (u - 2) / 2,
        -(u + 1) * u * (u - 2) / 2, (u + 1) * u * (u - 1) / 6,
    ])


def model_covariance(ratio, i, lags):
    """Covariance of samples i and i + lags of the series at tau0/dt = ratio,
    from the filter taps and the interpolation weights alone.

    Node spacing k = max(1, floor(ratio / 20)) samples; sample i = q*k + j
    weights the nodes at q - 1 .. q + 2 by ``lagrange_weights(j / k)``, and
    the node covariance at m nodes apart is the taps' autocorrelation.
    """
    k = max(1, math.floor(ratio / 20))
    h = channel_trace._fir_taps(ratio / k)
    node_cov = np.correlate(h, h, "full")
    mid = len(h) - 1
    q0, j0 = divmod(i, k)
    q1, j1 = np.divmod(i + lags, k)
    m = np.arange(4)
    apart = np.abs(q1[None, None, :] + m[None, :, None] - q0 - m[:, None, None])
    cov_nodes = np.where(apart <= mid, node_cov[mid + np.minimum(apart, mid)], 0.0)
    return np.einsum("a,bl,abl->l", lagrange_weights(j0 / k), lagrange_weights(j1 / k), cov_nodes)


def per_sample_series(n, dt, tau0, rng):
    """``_gaussian_acf_series`` with the per-sample interpolation: each chunk
    of sample indices i gathers its interval q = i // k and evaluates the
    cubic at u = (i - q*k) / k in Horner form."""
    k = max(1, math.floor(min(tau0 / dt, 1e15) / 20.0))
    h = channel_trace._fir_taps(tau0 / (k * dt))
    n_nodes = (n - 1) // k + 4
    fft_len = min(channel_trace._FIR_FFT, scipy.fft.next_fast_len(n_nodes + len(h) - 1, real=True))
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
        a, b, c, d = nodes[:-3], nodes[1:-2], nodes[2:-1], nodes[3:]
        cubic = ((d - a) / 6.0 + 0.5 * (b - c), 0.5 * (a + c) - b, c - a / 3.0 - b / 2.0 - d / 6.0)
        stop = min(n, (made - 3) * k)
        for start in range(done, stop, channel_trace._CHUNK):
            i = np.arange(start, min(start + channel_trace._CHUNK, stop))
            q = i // k
            u = (i - q * k) / k
            q -= first
            y = cubic[0][q]
            for coef in (*cubic[1:], b):
                y *= u
                y += coef[q]
            out[start : start + len(y)] = y
        done = stop
    return out


def one_thread_autocovariance(x, mean, lags):
    """``_autocovariance`` as one loop over the blocks on one thread, each
    block's temporaries allocated afresh."""
    n = len(x)
    block = n if n < 9 * lags else 8 * lags
    m = scipy.fft.next_fast_len(block + lags, real=True)
    acc = None
    for start in range(0, n, block):
        ext = x[start : start + block + lags - 1] - mean
        head = np.fft.rfft(ext[:block], m)
        tail = np.fft.rfft(ext, m) if len(ext) > block else head
        re = head.real * tail.real
        re += head.imag * tail.imag
        im = head.real * tail.imag
        im -= head.imag * tail.real
        if acc is None:
            acc = tail
            acc.real, acc.imag = re, im
        else:
            acc.real += re
            acc.imag += im
    return np.fft.irfft(acc, m)[:lags]


class UnitNoise:
    """Stand-in generator whose normal draws are zero but for a 1 at one
    index of the stream; counts the draws."""

    def __init__(self, index):
        self.index, self.drawn = index, 0

    def standard_normal(self, size):
        out = np.zeros(size)
        if 0 <= self.index - self.drawn < size:
            out[self.index - self.drawn] = 1.0
        self.drawn += size
        return out


class TestGaussianSeries:
    @pytest.mark.parametrize("n", [2, 1001, 4_000_001])
    def test_length_is_kept(self, n):
        g = channel_trace._gaussian_acf_series(n, 1e-4, 5e-3, np.random.default_rng(1))
        assert g.shape == (n,)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_white_noise_limit_is_the_seed_draw(self, n):
        # tau0 << dt: the filter is a unit impulse between 4 zero taps a
        # side and the nodes are the samples, the first node sitting one
        # sample before the trace.
        assert channel_trace._fir_taps(1e-3).tolist() == [0.0] * 4 + [1.0] + [0.0] * 4
        g = channel_trace._gaussian_acf_series(n, 1.0, 1e-3, np.random.default_rng(8))
        white = np.random.default_rng(8).standard_normal(n + 11)
        np.testing.assert_allclose(g, white[5 : n + 5], rtol=0, atol=1e-12)

    def test_fir_taps_are_cached_read_only(self):
        taps = channel_trace._fir_taps
        taps.cache_clear()
        built = channel_trace._gaussian_acf_series(3000, 1.0, 30.0, np.random.default_rng(2))
        hits = taps.cache_info().hits
        again = channel_trace._gaussian_acf_series(3000, 1.0, 30.0, np.random.default_rng(2))
        assert taps.cache_info().hits == hits + 1
        assert again.tobytes() == built.tobytes()
        h = taps(30.0)
        assert h.tobytes() == taps.__wrapped__(30.0).tobytes()
        assert taps.cache_info().maxsize is not None
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 0.0

    @pytest.mark.parametrize("ratio", [0.5, 5, 39, 40, 2934, 1e6])
    def test_covariance_matches_the_model(self, ratio):
        # Exact covariance, no Monte Carlo, at lags 0..4 tau0 from samples
        # spread over one node interval.
        k = max(1, math.floor(ratio / 20))
        max_lag = int(4 * ratio)
        lags = np.unique(np.linspace(0, max_lag, min(max_lag + 1, 500)).astype(np.int64))
        target = np.exp(-((lags / ratio) ** 2))
        for i in np.unique(np.linspace(0, k - 1, min(k, 9)).astype(np.int64)) + 3 * k:
            cov = model_covariance(ratio, int(i), lags)
            np.testing.assert_allclose(cov, target, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("ratio", [0.5, 5, 100, 2934])
    def test_series_is_the_interpolated_filter(self, ratio):
        # The series is linear in its noise: feeding it one unit draw at a
        # time gives its columns, and their outer product its covariance.
        n = 300
        drawn = UnitNoise(-1)
        channel_trace._gaussian_acf_series(n, 1.0, ratio, drawn)
        columns = []
        for index in range(drawn.drawn):
            columns.append(channel_trace._gaussian_acf_series(n, 1.0, ratio, UnitNoise(index)))
        a = np.array(columns)
        cov = a.T @ a
        for i in (0, 1, 37, n - 1):
            lags = np.arange(n - i)
            np.testing.assert_allclose(cov[i, i:], model_covariance(ratio, i, lags), atol=1e-12)

    def test_blocks_do_not_change_the_series(self, monkeypatch):
        whole = channel_trace._gaussian_acf_series(5000, 1.0, 5.0, np.random.default_rng(3))
        monkeypatch.setattr(channel_trace, "_FIR_FFT", 64)
        monkeypatch.setattr(channel_trace, "_CHUNK", 7)
        blocked = channel_trace._gaussian_acf_series(5000, 1.0, 5.0, np.random.default_rng(3))
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("small", [False, True], ids=["default-chunks", "small-chunks"])
    @pytest.mark.parametrize(
        "ratio, n",
        [(25, 4001), (45, 8003), (125, 20_005), (2934, 100), (2934, 120_077),
         (17_580, 400_001), (2e6, 350_001)],
        ids=["k1", "k2", "k6", "k146-short", "k146", "k879", "k100000"],
    )
    def test_interpolation_is_the_per_sample_form(self, ratio, n, small, monkeypatch):
        # Bit for bit, whole-interval blocks or pieces: k = 1e5 is longer
        # than a chunk, and with 100-sample chunks and 512-point FFT blocks
        # the per-sample form's chunk edges fall mid-interval and the nodes
        # come in several blocks.
        if small:
            monkeypatch.setattr(channel_trace, "_CHUNK", 100)
            monkeypatch.setattr(channel_trace, "_FIR_FFT", 512)
        got = channel_trace._gaussian_acf_series(n, 1.0, ratio, np.random.default_rng(6))
        want = per_sample_series(n, 1.0, ratio, np.random.default_rng(6))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tau_over_window", [0.05, 1.0, 29.0, 1e4])
    def test_short_window_variances_match_the_model(self, tau_over_window):
        # 100-sample windows, as a default run's trace: the mean squared
        # increment and the variance within the window, over 2000 series,
        # against the model's within 4 standard errors.
        n, series = 100, 2000
        ratio = tau_over_window * n
        rng = np.random.default_rng(14)
        g = np.array([channel_trace._gaussian_acf_series(n, 1.0, ratio, rng) for _ in range(series)])
        rho = np.exp(-((np.arange(n) / ratio) ** 2))
        increment = -2.0 * math.expm1(-((1.0 / ratio) ** 2))
        pairs = n * rho[0] + 2.0 * np.sum((n - np.arange(1, n)) * rho[1:])
        window = 1.0 - pairs / n**2
        for stat, model in (
            (np.mean(np.diff(g, axis=1) ** 2, axis=1), increment),
            (np.var(g, axis=1), window),
        ):
            error = stat.std(ddof=1) / math.sqrt(series)
            assert abs(stat.mean() - model) <= 4.0 * error, (stat.mean() / model, error / model)

    def test_wind_floor_is_linear_in_the_samples(self):
        # tau0 = 1.76e5 s, the coherence time at the 1e-6 m/s wind floor:
        # the draws and the memory follow the 100 samples, not tau0/dt.
        drawn = UnitNoise(0)
        channel_trace._gaussian_acf_series(100, 5e-5, 1.76e5, drawn)
        assert drawn.drawn <= 100 + 8 * 44
        tracemalloc.start()
        try:
            trace = generate_trace(FadingModel.log_normal(0.3), 1.76e5, 2e4, 5e-3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 100 and peak < 1 << 16
        assert np.ptp(trace.gains) < 1e-6 * np.mean(trace.gains)

    @pytest.mark.parametrize("ratio", [5, 2934, 2e6])
    @pytest.mark.parametrize(
        "model",
        [FadingModel.log_normal(0.3), FadingModel.gamma_gamma_from_rytov(1.0)],
        ids=["log_normal", "gamma_gamma"],
    )
    def test_generation_memory(self, model, ratio):
        # The gains plus one chunk's temporaries, also when a node interval
        # (k = 1e5 at tau0/dt = 2e6) is longer than a chunk: 8.3-8.8
        # B/sample measured.
        n = 4_000_000
        tracemalloc.start()
        try:
            generate_trace(model, ratio / 1e5, 1e5, n / 1e5, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 20


class TestGenerateTrace:
    def test_no_fading_is_constant_ones(self):
        trace = generate_trace(FadingModel.log_normal(0.0), 1e-3, 1e4, 0.1, seed=5)
        assert np.all(trace.gains == 1.0)
        assert len(trace) == 1000

    def test_same_seed_bit_identical(self):
        a = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e5, 0.1, seed=42)
        b = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e5, 0.1, seed=42)
        assert np.array_equal(a.gains, b.gains)
        c = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e5, 0.1, seed=43)
        assert not np.array_equal(a.gains, c.gains)

    def test_log_normal_moments(self):
        trace = generate_trace(FadingModel.log_normal(0.1), 5e-5, 1e6, 1.0, seed=11)
        assert abs(float(np.mean(trace.gains)) - 1.0) < 0.02
        assert float(np.var(trace.gains)) == pytest.approx(0.1, rel=0.05)

    def test_log_normal_marginal_ks(self):
        sigma_i2 = 0.1
        trace = generate_trace(FadingModel.log_normal(sigma_i2), 5e-5, 1e6, 1.0, seed=11)
        s2 = math.log1p(sigma_i2)

        def cdf(x):
            return ndtr((np.log(x) + s2 / 2) / math.sqrt(s2))

        ks = stats.kstest(trace.gains, cdf).statistic
        assert ks < 0.01

    def test_acf_half_power_near_target(self):
        tau0 = 5e-5
        trace = generate_trace(FadingModel.log_normal(0.1), tau0, 1e6, 1.0, seed=11)
        est = trace_stats(trace)
        assert est.coherence_time_s == pytest.approx(tau0, rel=0.15)

    def test_gamma_gamma_marginal_and_mean(self):
        model = FadingModel.gamma_gamma_from_rytov(1.0)
        trace = generate_trace(model, 2e-5, 1e6, 1.0, seed=21)
        assert abs(float(np.mean(trace.gains)) - 1.0) < 0.02
        # Marginal contract: indistinguishable from an independent
        # product-of-gammas sample of the same size.
        rng = np.random.default_rng(987654321)
        reference = rng.gamma(model.alpha, 1 / model.alpha, 1_000_000) * rng.gamma(
            model.beta, 1 / model.beta, 1_000_000
        )
        ks = stats.ks_2samp(trace.gains, reference).statistic
        assert ks < 0.01

    def test_gamma_gamma_cdf_spot_check(self):
        # Empirical CDF of the sampler against numeric integration of
        # P(XY <= x) = E_Y[F_X(x/Y)] at a few grid points.
        model = FadingModel.gamma_gamma_from_rytov(1.0)
        trace = generate_trace(model, 2e-5, 1e6, 1.0, seed=33)
        a, b = model.alpha, model.beta
        x_grid = np.array([0.2, 0.5, 1.0, 2.0, 4.0])
        for x in x_grid:
            cdf, _ = integrate.quad(
                lambda y: stats.gamma.pdf(y, b, scale=1 / b)
                * stats.gamma.cdf(x / y, a, scale=1 / a),
                0,
                np.inf,
                limit=200,
            )
            empirical = float(np.mean(trace.gains <= x))
            assert empirical == pytest.approx(cdf, abs=0.012)

    def test_gamma_gamma_trace_repeats_across_table_builds(self):
        # Each (alpha, beta) keeps its own cached table, so a trace repeats
        # bit for bit whichever model's table was built first. The models
        # share alpha: a table cached by alpha alone would be handed over.
        models = [
            FadingModel(kind="gamma_gamma", sigma_i2=0.25 + 1.25 / b, alpha=4.0, beta=b)
            for b in (2.0, 3.0)
        ]
        first = [generate_trace(m, 1e-3, 1e4, 0.5, seed=8).gains for m in models]
        channel_trace._gamma_gamma_table.cache_clear()
        again = [generate_trace(m, 1e-3, 1e4, 0.5, seed=8).gains for m in models[::-1]]
        assert all(map(np.array_equal, first, again[::-1]))
        assert not np.array_equal(*first)

    def test_gamma_gamma_tails_are_not_clamped(self):
        # g = -6 and +6 are the 1e-9 quantiles; a 2^20-draw table could
        # not reach past about 1e-6.
        a, b = gamma_gamma_params(1.0)
        gains = channel_trace._gamma_gamma_quantiles(np.array([-6.0, 6.0]), a, b)
        cdf, ccdf = gamma_gamma_cdf(gains, a, b)
        assert cdf[0] == pytest.approx(ndtr(-6.0), rel=1e-4)
        assert ccdf[1] == pytest.approx(ndtr(-6.0), rel=1e-4)

    def test_gamma_gamma_table_is_read_only(self):
        table = channel_trace._gamma_gamma_table(*gamma_gamma_params(1.0))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_gamma_gamma_frozen_limit_is_single_draw(self):
        # Coherence time far beyond the window: the channel holds one
        # fading state, so the trace must be (nearly) constant.
        model = FadingModel.gamma_gamma_from_rytov(1.0)
        trace = generate_trace(model, 10.0, 1e5, 0.01, seed=4)
        spread = float(np.ptp(trace.gains))
        assert spread < 0.02 * float(np.mean(trace.gains))

    def test_gamma_gamma_acf_half_power(self):
        model = FadingModel.gamma_gamma_from_rytov(0.5)
        tau0 = 5e-5
        trace = generate_trace(model, tau0, 1e6, 1.0, seed=77)
        est = trace_stats(trace)
        assert est.coherence_time_s == pytest.approx(tau0, rel=0.15)

    def test_length_budget_enforced(self):
        with pytest.raises(TraceLengthError):
            generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e9, 1.0, seed=0)

    def test_length_budget_checked_before_allocation(self):
        # MAX_TRACE_SAMPLES is 4 GiB over 128 B/sample; one sample more is
        # refused before any array is made.
        rate = float(channel_trace.MAX_TRACE_SAMPLES + 1)
        tracemalloc.start()
        try:
            with pytest.raises(TraceLengthError, match="4 GiB"):
                generate_trace(FadingModel.log_normal(0.1), 1e-3, rate, 1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert channel_trace.MAX_TRACE_SAMPLES == (4 << 30) // 128
        assert peak < 1 << 16

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["coherence_time_s", "sample_rate_hz", "duration_s"])
    def test_non_finite_parameters_rejected(self, name, bad):
        args = {"coherence_time_s": 1e-3, "sample_rate_hz": 1e3, "duration_s": 1.0}
        args[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            generate_trace(FadingModel.log_normal(0.1), seed=0, **args)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            generate_trace(FadingModel.log_normal(0.1), 0.0, 1e3, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_trace(FadingModel.log_normal(0.1), 1e-3, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e3, 0.0, seed=0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            FadingModel(kind="rayleigh")
        with pytest.raises(ValueError):
            FadingModel(kind="gamma_gamma", sigma_i2=0.5)
        with pytest.raises(ValueError):
            FadingModel(kind="gamma_gamma", sigma_i2=0.5, alpha=-1.0, beta=2.0)


class TestTraceStats:
    def test_constant_trace(self):
        est = trace_stats(constant_trace(1.0))
        assert est.mean == 1.0
        assert est.sigma_i2 == 0.0
        assert math.isinf(est.coherence_time_s)

    def test_fields_are_builtin_floats(self):
        fading = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e4, 0.05, seed=9)
        short = ChannelTrace(
            sample_rate_hz=50.0, duration_s=1.0, seed=0,
            gains=np.linspace(0.5, 1.5, 50), coherence_time_s=1.0,
        )
        for trace in (fading, constant_trace(1.0), short):
            est = trace_stats(trace)
            assert [type(getattr(est, f.name)) for f in dataclasses.fields(est)] == [float] * 3

    def test_generated_trace_reports_target_index(self):
        trace = generate_trace(FadingModel.log_normal(0.2), 5e-5, 1e6, 0.5, seed=3)
        est = trace_stats(trace)
        assert est.sigma_i2 == pytest.approx(0.2, rel=0.08)

    def test_concatenation_preserves_mean(self):
        trace = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e4, 0.05, seed=9)
        doubled = ChannelTrace(
            sample_rate_hz=trace.sample_rate_hz,
            duration_s=2 * trace.duration_s,
            seed=trace.seed,
            gains=np.concatenate([trace.gains, trace.gains]),
            coherence_time_s=trace.coherence_time_s,
        )
        assert trace_stats(doubled).mean == pytest.approx(trace_stats(trace).mean, rel=1e-12)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_autocovariance_has_no_wrap(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        mean = float(np.mean(x))
        acov = channel_trace._autocovariance(x, mean, n // 2 + 1)
        assert len(acov) == n // 2 + 1
        k = n // 2
        d = x - mean
        assert acov[k] == pytest.approx(np.dot(d[: n - k], d[k:]), rel=0, abs=1e-10)

    def test_autocovariance_over_blocks(self):
        # 2048 lags cut the trace into blocks of 8 * 2048 samples; the last
        # one holds 1500, fewer than the lags, so from lag 1500 on only the
        # previous block's extension reaches it. The mean is removed block
        # by block, so the trace keeps an offset of 3.
        lags, last = 2048, 1500
        n = 4 * 8 * lags + last
        x = 3.0 + np.random.default_rng(7).standard_normal(n)
        mean = float(np.mean(x))
        acov = channel_trace._autocovariance(x, mean, lags)
        assert len(acov) == lags
        d = x - mean
        for k in (0, 1, last - 1, last, lags - 1):
            assert acov[k] == pytest.approx(np.dot(d[: n - k], d[k:]), rel=0, abs=1e-9)

    @pytest.mark.parametrize(
        "n", [300, 512, 1024, 1024 + 30, 3 * 512 + 64, 5 * 512 + 700],
        ids=["short", "one-block", "two-blocks", "three-short-tail", "four-lag-tail", "six"],
    )
    def test_autocovariance_is_the_one_thread_loop(self, n):
        # 64 lags, blocks of 512: the blocks shared between two threads and
        # merged in order give the one-thread sums bit for bit.
        x = 3.0 + np.random.default_rng(n).standard_normal(n)
        mean = float(np.mean(x))
        got = channel_trace._autocovariance(x, mean, 64)
        assert got.tobytes() == one_thread_autocovariance(x, mean, 64).tobytes()

    def test_concurrent_calls_keep_their_own_buffers(self):
        # Four callers at once, each with its helper, switching threads
        # every microsecond: every sum is still its own one-thread loop's.
        xs = [np.random.default_rng(seed).standard_normal(5 * 512 + 700) for seed in range(4)]
        results = [None] * len(xs)

        def run(i):
            results[i] = channel_trace._autocovariance(xs[i], 0.0, 64)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(xs))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(caller.is_alive() for caller in callers)
        for x, got in zip(xs, results):
            assert got.tobytes() == one_thread_autocovariance(x, 0.0, 64).tobytes()

    @pytest.mark.parametrize("n, helpers", [(512, 0), (513, 1)])
    def test_helper_thread_only_for_two_blocks(self, n, helpers, monkeypatch):
        # 57 lags take blocks of 456 from 9 * 57 = 513 samples on. A window
        # of one block, such as a link run's 100-sample trace, starts no
        # thread.
        started = []
        real = channel_trace.ThreadPoolExecutor

        def spy(workers):
            started.append(workers)
            return real(workers)

        monkeypatch.setattr(channel_trace, "ThreadPoolExecutor", spy)
        channel_trace._autocovariance(np.random.default_rng(1).standard_normal(n), 0.0, 57)
        assert started == [1] * helpers
        trace_stats(generate_trace(FadingModel.log_normal(0.3), 0.0293, 2e4, 5e-3, seed=1))
        assert started == [1] * helpers

    @staticmethod
    def _whole_length_coherence(trace):
        # Every lag up to n//2 from one real FFT padded to n + n//2 + 1.
        g = trace.gains
        n = len(g)
        m = scipy.fft.next_fast_len(n + n // 2 + 1, real=True)
        spec = np.fft.rfft(g - np.mean(g), m)
        acov = np.fft.irfft(spec.real**2 + spec.imag**2, m)[: n // 2 + 1]
        acf = acov / acov[0]
        j = int(np.argmax(acf < 0.5))
        frac = (acf[j - 1] - 0.5) / (acf[j - 1] - acf[j])
        return (j - 1 + frac) / trace.sample_rate_hz / math.sqrt(math.log(2.0))

    @staticmethod
    def _windows(monkeypatch):
        """Spy on ``_autocovariance``: the list of windows it is called with."""
        seen = []
        real = channel_trace._autocovariance

        def spy(x, mean, lags):
            seen.append(lags)
            return real(x, mean, lags)

        monkeypatch.setattr(channel_trace, "_autocovariance", spy)
        return seen

    @pytest.mark.parametrize(
        "tau0, windows",
        [(0.0293, [4096]), (0.176, [22000]), (1e3, [2**19 + 1])],
        ids=["first-window", "wider-window", "whole-length"],
    )
    def test_window_growth_finds_the_first_crossing(self, tau0, windows, monkeypatch):
        # 2^20 samples at 1e5 Hz, one window of ceil(1.25*tau0*rate) lags
        # each: the hazy tau0 takes the 4096-lag floor; the clear one
        # crosses 1/2 near lag 17 600, inside 22 000 lags taken in blocks;
        # tau0 >> T crosses near 0.2*T, inside all n//2 + 1 lags.
        trace = generate_trace(FadingModel.log_normal(0.3), tau0, 1e5, 2**20 / 1e5, seed=5)
        seen = self._windows(monkeypatch)
        est = trace_stats(trace).coherence_time_s
        assert seen == windows
        assert est == pytest.approx(self._whole_length_coherence(trace), rel=1e-12)

    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0, math.inf])
    def test_wrong_tau0_changes_only_the_cost(self, scale):
        # The window is sized from the trace's tau0, but a window without a
        # crossing is taken again over all lags: a tau0 100 times too short
        # or too long, or inf, finds the same first crossing.
        trace = generate_trace(FadingModel.log_normal(0.3), 0.176, 1e5, 2**20 / 1e5, seed=5)
        exact = trace_stats(trace)
        got = trace_stats(dataclasses.replace(trace, coherence_time_s=0.176 * scale))
        assert (got.mean, got.sigma_i2) == (exact.mean, exact.sigma_i2)
        assert got.coherence_time_s == pytest.approx(
            self._whole_length_coherence(trace), rel=1e-12
        )

    @pytest.mark.parametrize(
        "model",
        [FadingModel.log_normal(0.3), FadingModel.gamma_gamma_from_rytov(3.0)],
        ids=["log_normal", "gamma_gamma"],
    )
    @pytest.mark.parametrize("spans", [0.3, 3.0, 30.0, 1000.0])
    def test_generated_traces_take_one_window(self, model, spans, monkeypatch):
        # A generated trace of T = spans*tau0 crosses 1/2 inside its first
        # window, short of T or not.
        n = 100_000
        trace = generate_trace(model, n / 1e5 / spans, 1e5, n / 1e5, seed=11)
        seen = self._windows(monkeypatch)
        assert math.isfinite(trace_stats(trace).coherence_time_s)
        assert len(seen) == 1

    @pytest.mark.parametrize("slope", [0.5, 0.0], ids=["slow-decay", "flat"])
    def test_no_crossing_is_infinite_after_two_windows(self, slope, monkeypatch):
        # The biased ACF of any real trace falls below 1/2 by lag n//2, so a
        # stand-in autocovariance 1 - slope*k/n, at or above 3/4, stands in.
        # Its tau0 of 1 s sizes the first window at 125 000 lags; the second
        # is all n//2 + 1.
        n = 2**20
        trace = ChannelTrace(
            sample_rate_hz=1e5, duration_s=n / 1e5, seed=0,
            gains=np.linspace(0.5, 1.5, n), coherence_time_s=1.0,
        )
        seen = []

        def stand_in(x, mean, lags):
            seen.append(lags)
            return 1.0 - slope * np.arange(lags) / len(x)

        monkeypatch.setattr(channel_trace, "_autocovariance", stand_in)
        assert math.isinf(trace_stats(trace).coherence_time_s)
        assert seen == [125_000, n // 2 + 1]

    def test_window_at_the_block_edge_memory(self):
        # n // 8 - 1 lags, past n/9: one block of the whole trace, so no
        # short second block takes its own buffer set on the helper thread.
        # 18.0 B/sample measured beyond the input.
        n = 1_000_000
        x = np.random.default_rng(2).standard_normal(n)
        tracemalloc.start()
        try:
            channel_trace._autocovariance(x, 0.0, n // 8 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 24

    @pytest.mark.parametrize(
        "model",
        [FadingModel.log_normal(0.3), FadingModel.gamma_gamma_from_rytov(1.0)],
        ids=["log_normal", "gamma_gamma"],
    )
    def test_trace_then_stats_memory(self, model):
        # The statistics take the autocovariance in blocks over the lags
        # they need (tau0/dt = 500 here) and peak below the trace plus
        # np.var's deviations: 16.0 B/sample measured.
        n = 1_000_000
        tracemalloc.start()
        try:
            trace_stats(generate_trace(model, 5e-3, 1e5, n / 1e5, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 24

    def test_too_short(self):
        # Below 100 samples the moments are reported but the coherence time
        # is not estimated (nan), except that a constant trace keeps inf.
        gains = np.linspace(0.5, 1.5, 50)
        short = ChannelTrace(
            sample_rate_hz=50.0, duration_s=1.0, seed=0, gains=gains,
            coherence_time_s=1.0,
        )
        est = trace_stats(short)
        assert est.mean == pytest.approx(1.0, rel=1e-12)
        assert est.sigma_i2 == pytest.approx(float(np.var(gains)), rel=1e-12)
        assert math.isnan(est.coherence_time_s)
        flat = ChannelTrace(
            sample_rate_hz=50.0, duration_s=1.0, seed=0, gains=np.ones(50),
            coherence_time_s=1.0,
        )
        assert math.isinf(trace_stats(flat).coherence_time_s)
        empty = ChannelTrace(
            sample_rate_hz=1.0, duration_s=0.1, seed=0, gains=np.array([]),
            coherence_time_s=1.0,
        )
        with pytest.raises(ValueError):
            trace_stats(empty)


class TestTraceSerialization:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        trace = generate_trace(FadingModel.log_normal(0.15), 1e-3, 1e4, 0.05, seed=101)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        back = trace_from_csv(path)
        assert np.array_equal(back.gains, trace.gains)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.duration_s == trace.duration_s
        assert back.seed == trace.seed
        assert back.coherence_time_s == trace.coherence_time_s

    def test_csv_io_streams_in_chunks(self, tmp_path):
        # Rows are formatted _CHUNK at a time and parsed by numpy's reader:
        # 4.8 B/sample written and 1.8 read beyond the gains measured at
        # 1e6 samples.
        n = 1_000_000
        gains = np.random.default_rng(4).gamma(2.0, 0.5, n)
        trace = ChannelTrace(
            sample_rate_hz=1e5, duration_s=10.0, seed=4, gains=gains, coherence_time_s=0.01
        )
        path = tmp_path / "trace.csv"
        peaks = []
        tracemalloc.start()
        try:
            trace_to_csv(trace, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            back = trace_from_csv(path)
            peaks.append(tracemalloc.get_traced_memory()[1] - back.gains.nbytes)
        finally:
            tracemalloc.stop()
        assert peaks[0] / n <= 16
        assert peaks[1] / n <= 4
        assert np.array_equal(back.gains, gains)

    def test_csv_blank_rows_across_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(channel_trace, "_CHUNK", 3)
        trace = generate_trace(FadingModel.log_normal(0.15), 1e-3, 1e4, 1e-3, seed=7)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines(keepends=True)
        head, rows = lines[:6], lines[6:]
        assert head[-1] == "time_s,gain\n" and len(rows) == 10
        path.write_text("".join(head[:-1] + rows[:4] + ["\n", " \n"] * 4 + rows[4:] + ["\n"]))
        back = trace_from_csv(path)
        assert np.array_equal(back.gains, trace.gains)

    def test_csv_round_trip_of_extreme_doubles(self, tmp_path):
        # Random bit patterns of finite nonnegative doubles, subnormals down
        # to 5e-324 and the largest double come back bit for bit.
        bits = np.random.default_rng(9).integers(0, 0x7FF0000000000000, 100_000, dtype=np.uint64)
        finfo = np.finfo(float)
        gains = np.concatenate([
            bits.view(float),
            [5e-324, 3 * 5e-324, finfo.smallest_normal, finfo.smallest_normal / 3, finfo.max, 0.0],
        ])
        trace = ChannelTrace(
            sample_rate_hz=1.0, duration_s=float(len(gains)), seed=0, gains=gains,
            coherence_time_s=1.0,
        )
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        assert trace_from_csv(path).gains.tobytes() == gains.tobytes()

    @pytest.mark.parametrize("rows", ["", "\r\n \r\n"], ids=["no-rows", "blank-rows"])
    def test_csv_without_rows(self, tmp_path, rows):
        # Zero gains against the header's length, with no parser warning.
        path = tmp_path / "trace.csv"
        trace_to_csv(constant_trace(1.0), path)
        head = path.read_text().splitlines(keepends=True)[:6]
        path.write_text("".join(head) + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^trace length 0 does not match"):
                trace_from_csv(path)

    def test_binary_round_trip_bit_exact(self, tmp_path):
        trace = generate_trace(
            FadingModel.gamma_gamma_from_rytov(0.8), 1e-3, 1e4, 0.05, seed=55
        )
        path = tmp_path / "trace.ftr"
        trace_to_binary(trace, path)
        back = trace_from_binary(path)
        assert np.array_equal(back.gains, trace.gains)
        assert back.sample_rate_hz == trace.sample_rate_hz

    def test_binary_io_holds_one_copy(self, tmp_path):
        # The writer hands the gains' buffer to the file and the reader fills
        # one array from it: 8.0 B/sample measured. The layout is the header
        # and the raw little-endian gains.
        n = 2_000_000
        trace = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e6, n / 1e6, seed=5)
        path = tmp_path / "trace.ftr"
        tracemalloc.start()
        try:
            trace_to_binary(trace, path)
            back = trace_from_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 8.5
        assert np.array_equal(back.gains, trace.gains)
        header = struct.pack("<8sddd q q", b"FSOTRC01", 1e6, 2.0, 1e-3, 5, n)
        assert path.read_bytes() == header + trace.gains.astype("<f8").tobytes()

    def test_binary_rejects_truncated_file(self, tmp_path):
        trace = generate_trace(FadingModel.log_normal(0.1), 1e-3, 1e4, 0.05, seed=5)
        path = tmp_path / "trace.ftr"
        trace_to_binary(trace, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="^trace file truncated$"):
            trace_from_binary(path)

    @pytest.mark.parametrize("n", [1 << 40, -1])
    def test_binary_header_length_checked_before_reading(self, tmp_path, n):
        # A header claiming 2^40 samples (8 TiB) on a short file is refused
        # before anything is allocated, not by a MemoryError.
        path = tmp_path / "trace.ftr"
        path.write_bytes(struct.pack("<8sddd q q", b"FSOTRC01", 1e3, 1.0, 1e-3, 0, n) + bytes(80))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^trace file truncated$"):
                trace_from_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTATRACE" + b"\0" * 64)
        with pytest.raises(ValueError):
            trace_from_binary(path)

    def test_csv_requires_metadata(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("time_s,gain\n0.0,1.0\n")
        with pytest.raises(ValueError):
            trace_from_csv(path)

    def test_binary_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "stub.ftr"
        path.write_bytes(b"FSOTRC01" + bytes(20))
        with pytest.raises(ValueError, match="^trace file truncated$"):
            trace_from_binary(path)

    def test_csv_row_without_gain_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace_to_csv(constant_trace(1.0), path)
        with open(path, "a") as fh:
            fh.write("1.0\r\n")
        with pytest.raises(ValueError, match="without a gain column"):
            trace_from_csv(path)

    @pytest.mark.parametrize(
        "rate, duration",
        [(-100.0, -0.01), (math.inf, 1.0), (1.0, math.nan), (1e200, 1e200)],
        ids=["negative", "infinite-rate", "nan-duration", "overflowing-product"],
    )
    def test_impossible_rate_or_duration_rejected(self, rate, duration, tmp_path):
        # A 1-sample trace whose header claims an impossible timing: both
        # readers refuse it where they build the trace.
        binary = tmp_path / "trace.ftr"
        binary.write_bytes(
            struct.pack("<8sddd q q", b"FSOTRC01", rate, duration, 1e-3, 0, 1)
            + np.ones(1).tobytes()
        )
        csv = tmp_path / "trace.csv"
        csv.write_text(
            f"# sample_rate_hz={rate}\n# duration_s={duration}\n"
            "# coherence_time_s=0.001\n# seed=0\ntime_s,gain\r\n0.0,1.0\r\n"
        )
        for read, path in ((trace_from_binary, binary), (trace_from_csv, csv)):
            with pytest.raises(ValueError, match="must be > 0 with a finite product"):
                read(path)

    @pytest.mark.parametrize("tau0", [math.nan, 0.0, -1.0, math.inf])
    def test_coherence_time_checked_on_load(self, tau0, tmp_path):
        # A 1-sample trace whose header holds tau0: NaN and values <= 0 are
        # refused by both readers; inf, a frozen channel's, loads.
        binary = tmp_path / "trace.ftr"
        binary.write_bytes(
            struct.pack("<8sddd q q", b"FSOTRC01", 1.0, 1.0, tau0, 0, 1)
            + np.ones(1).tobytes()
        )
        csv = tmp_path / "trace.csv"
        csv.write_text(
            "# sample_rate_hz=1.0\n# duration_s=1.0\n"
            f"# coherence_time_s={tau0}\n# seed=0\ntime_s,gain\r\n0.0,1.0\r\n"
        )
        for read, path in ((trace_from_binary, binary), (trace_from_csv, csv)):
            if tau0 == math.inf:
                assert read(path).coherence_time_s == math.inf
            else:
                with pytest.raises(ValueError, match="coherence time must be > 0"):
                    read(path)


class TestTraceType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChannelTrace(
                sample_rate_hz=100.0,
                duration_s=1.0,
                seed=0,
                gains=np.ones(5),
                coherence_time_s=1.0,
            )

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError):
            ChannelTrace(
                sample_rate_hz=5.0,
                duration_s=1.0,
                seed=0,
                gains=np.array([1.0, -0.1, 1.0, 1.0, 1.0]),
                coherence_time_s=1.0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gains_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ChannelTrace(
                sample_rate_hz=5.0,
                duration_s=1.0,
                seed=0,
                gains=np.array([1.0, bad, 1.0, 1.0, 1.0]),
                coherence_time_s=1.0,
            )
