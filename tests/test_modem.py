import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink import modem
from fsolink.channel_trace import FadingModel, constant_trace, generate_trace
from fsolink.errors import MissingLevelError, TraceTooShortError
from fsolink.modem import (
    LevelStats,
    Pam4Config,
    apply_channel,
    calibrate_noise_std,
    count_ber,
    demodulate,
    eye_stats,
    gaussian_tail,
    modulate,
    q_for_target_ber,
    transmit,
)

CONFIG = Pam4Config(symbol_rate_hz=1e6)
LEVELS = np.asarray(CONFIG.levels)


class TestModulate:
    def test_all_zero_bits(self):
        labels, pad = modulate(np.zeros(6, dtype=np.uint8))
        assert np.array_equal(labels, [0, 0, 0])
        assert pad == 0

    def test_gray_map_order(self):
        bits = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=np.uint8)
        labels, _ = modulate(bits)
        assert np.array_equal(labels, [0, 1, 2, 3])

    def test_odd_length_pads_one_bit(self):
        labels, pad = modulate(np.array([1], dtype=np.uint8))
        assert pad == 1
        # 1 then padded 0 -> pair "10" -> top level under Gray.
        assert np.array_equal(labels, [3])

    def test_strided_bits(self):
        bits = np.random.default_rng(3).integers(0, 2, 4002, dtype=np.uint8)
        labels, _ = modulate(bits[::2])
        assert np.array_equal(labels, modulate(bits[::2].copy())[0])

    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=300))
    def test_round_trip_identity(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        labels, pad = modulate(bits)
        recovered = demodulate(LEVELS[labels], [LEVELS])
        assert np.array_equal(recovered[: len(bits)], bits)
        assert len(recovered) == len(bits) + pad

    def test_rejects_bits_other_than_0_and_1(self):
        # A byte of 2 would otherwise be sent as its low bit.
        bits = np.zeros(2000, dtype=np.uint8)
        bits[5] = 2
        trace = constant_trace(1000 / CONFIG.symbol_rate_hz)
        with pytest.raises(ValueError, match="bits must be 0 or 1, got 2$"):
            modulate(bits)
        with pytest.raises(ValueError, match="bits must be 0 or 1, got 2$"):
            transmit(bits, trace, 0.0, 1, CONFIG)


class TestApplyChannel:
    def test_identity_channel(self):
        labels, _ = modulate(np.random.default_rng(0).integers(0, 2, 2000, dtype=np.uint8))
        symbols = LEVELS[labels]
        trace = constant_trace(len(symbols) / CONFIG.symbol_rate_hz)
        out = apply_channel(symbols, trace, 0.0, seed=1, symbol_rate_hz=CONFIG.symbol_rate_hz)
        assert np.array_equal(out, symbols)

    def test_scalar_gain(self):
        symbols = np.ones(500)
        trace = constant_trace(500 / CONFIG.symbol_rate_hz)
        trace = dataclasses.replace(trace, gains=0.5 * trace.gains)
        out = apply_channel(symbols, trace, 0.0, seed=1, symbol_rate_hz=CONFIG.symbol_rate_hz)
        assert np.allclose(out, 0.5)

    def test_noise_moment(self):
        n = 1_000_000
        symbols = np.ones(n)
        trace = constant_trace(n / 1e9)
        out = apply_channel(symbols, trace, 0.1, seed=7, symbol_rate_hz=1e9)
        assert float(np.std(out)) == pytest.approx(0.1, rel=0.02)
        assert float(np.mean(out)) == pytest.approx(1.0, abs=0.001)

    def test_trace_too_short(self):
        symbols = np.ones(1000)
        trace = constant_trace(1e-6)  # 1 us of coverage
        with pytest.raises(TraceTooShortError):
            apply_channel(symbols, trace, 0.0, seed=0, symbol_rate_hz=1e6)


    def test_trace_of_the_needed_length_covers_the_run(self):
        # 10 000 symbols at 2 GBd last 5 us: 100.4 samples at 20.08 MHz, but
        # the last symbol starts in sample 100.
        n, rate = 10_000, 20.08e6
        assert modem.trace_samples_needed(n, 2e9, rate) == 101

        def trace(samples):
            return generate_trace(FadingModel.log_normal(0.05), 1e-3, rate, samples / rate, 1)

        apply_channel(np.ones(n), trace(101), 0.0, 0, 2e9)
        short = trace(100)
        assert len(short.gains) == 100
        with pytest.raises(TraceTooShortError, match=r"has 100 samples .* need 101 samples$"):
            apply_channel(np.ones(n), short, 0.0, 0, 2e9)

    def test_whole_array_peak_bytes_per_symbol(self):
        # The intensities, the received samples and the noise, 8 B/symbol
        # each; the gather index is freed before the noise is drawn.
        n = 2_000_000
        labels = np.random.default_rng(2).integers(0, 4, n).astype(np.uint8)
        trace = generate_trace(
            FadingModel.gamma_gamma_from_rytov(0.6), 2e-3, 1e5, n / 1e6, seed=4
        )
        tracemalloc.start()
        try:
            apply_channel(labels, trace, 0.05, 11, CONFIG.symbol_rate_hz, CONFIG.levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 25

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise_std):
        # NaN must not pass as noiseless (nan > 0 is false).
        bits = np.zeros(2000, dtype=np.uint8)
        trace = constant_trace(1000 / CONFIG.symbol_rate_hz)
        with pytest.raises(ValueError, match="finite"):
            apply_channel(np.ones(1000), trace, noise_std, 0, CONFIG.symbol_rate_hz)
        with pytest.raises(ValueError, match="finite"):
            transmit(bits, trace, noise_std, 0, CONFIG)


class TestDemodulate:
    def test_noiseless_ramp_exact(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 20_000, dtype=np.uint8)
        labels, _ = modulate(bits)
        assert np.array_equal(demodulate(LEVELS[labels], [LEVELS])[: len(bits)], bits)

    def test_adaptive_is_scale_invariant(self):
        # Cuts at each block's own level means follow any received scale.
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 300_000, dtype=np.uint8)
        labels, _ = modulate(bits)
        received = 0.5 * LEVELS[labels] + rng.normal(0, 0.01, len(labels))
        recovered = demodulate(received, eye_stats(received, labels).means)
        assert np.array_equal(recovered[: len(bits)], bits)
        scaled = 3.0 * received
        assert np.array_equal(
            demodulate(scaled, eye_stats(scaled, labels).means), recovered
        )

    def test_awgn_ber_matches_analytic_prediction(self):
        rng = np.random.default_rng(5)
        n_bits = 2_000_000
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        labels, _ = modulate(bits)
        symbols = LEVELS[labels]
        sigma = 0.055  # eye q = (1/3) / (2 sigma) ~ 3.03
        trace = constant_trace(len(symbols) / CONFIG.symbol_rate_hz)
        received = apply_channel(
            symbols, trace, sigma, seed=6, symbol_rate_hz=CONFIG.symbol_rate_hz
        )
        recovered = demodulate(received, eye_stats(received, labels).means)
        errors, _, ber = count_ber(bits, recovered[: len(bits)])
        q = (1 / 3) / (2 * sigma)
        predicted = 0.75 * float(gaussian_tail(q))
        spread = 3 * math.sqrt(predicted * (1 - predicted) / n_bits)
        assert abs(ber - predicted) < spread

    def test_empty_input(self):
        with pytest.raises(ValueError):
            demodulate(np.array([]), [LEVELS])

    def test_one_row_of_means_per_block(self):
        samples = LEVELS[np.arange(3 << 16) % 4]
        with pytest.raises(ValueError):
            demodulate(samples, [LEVELS])
        assert len(modem._blocks(len(samples))) == 3
        assert [b.stop - b.start for b in modem._blocks((3 << 16) - 1)] == [
            1 << 16, (2 << 16) - 1
        ]

    def test_nan_sample_rejected(self):
        # Counting cuts below a NaN would decide it as level 0; refuse instead.
        samples = LEVELS[np.arange(4000) % 4].copy()
        samples[2500] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            demodulate(samples, [LEVELS])

    @pytest.mark.parametrize("cuts", [None, [-0.25, 0.0, 0.7]])
    def test_decision_matches_digitize(self, cuts):
        # The level midpoints through demodulate (its bits mapped back to
        # levels); other cuts through the rule every block's cuts use.
        edges = 0.5 * (LEVELS[:-1] + LEVELS[1:]) if cuts is None else np.array(cuts)
        samples = np.concatenate([
            np.random.default_rng(6).normal(0.5, 0.6, 200_003),
            edges,  # exactly on a cut: the lower level
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            [-np.inf, np.inf, 0.0, -0.0],
        ])
        if cuts is None:
            every_block = np.tile(LEVELS, (len(modem._blocks(len(samples))), 1))
            decided, _ = modulate(demodulate(samples, every_block))
        else:
            decided = modem._decide(samples, edges)
        assert np.array_equal(decided, np.digitize(samples, edges, right=True))


class TestEyeStats:
    def synthetic(self, sigma=0.02, per_level=100_000, seed=12):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(4), per_level)
        samples = LEVELS[labels] + rng.normal(0, sigma, len(labels))
        return samples, labels

    def test_moment_recovery(self):
        samples, labels = self.synthetic()
        stats = eye_stats(samples, labels).run
        assert np.allclose(stats.means, LEVELS, atol=1e-3)
        assert np.allclose(stats.stds, 0.02, rtol=0.10)

    def test_noiseless_levels(self):
        labels = np.repeat(np.arange(4), 100)
        stats = eye_stats(LEVELS[labels], labels).run
        # Level 1/3 is not exactly representable, so the group mean can be
        # off by one ulp; anything at machine-epsilon scale counts as zero.
        assert np.all(stats.stds < 1e-12)
        assert np.all(stats.q_factors > 1e10)
        assert modem._ber_from_q(stats.q_factors) == 0.0

    def test_noiseless_exact_levels(self):
        exact = Pam4Config(symbol_rate_hz=1e6, levels=(0.0, 0.25, 0.5, 1.0))
        labels = np.repeat(np.arange(4), 100)
        stats = eye_stats(np.asarray(exact.levels)[labels], labels).run
        assert np.all(stats.stds == 0.0)
        assert np.all(np.isinf(stats.q_factors))

    def test_scale_equivariance(self):
        samples, labels = self.synthetic()
        base = eye_stats(samples, labels).run
        scaled = eye_stats(3.0 * samples, labels).run
        assert np.allclose(scaled.means, 3.0 * base.means, rtol=1e-12)
        assert np.allclose(scaled.stds, 3.0 * base.stds, rtol=1e-9)
        assert np.allclose(scaled.q_factors, base.q_factors, rtol=1e-9)

    def test_missing_level(self):
        with pytest.raises(MissingLevelError):
            eye_stats(np.zeros(100), np.zeros(100, dtype=int))

    @staticmethod
    def drifting(seed=13):
        """Three blocks, the last with a tail; the first holds level 2 only."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, (3 << 16) + 999).astype(np.uint8)
        labels[: 1 << 16] = 2
        gains = np.linspace(0.9, 1.1, len(labels))
        return gains * LEVELS[labels] + rng.normal(0, 0.05, len(labels)), labels

    def test_blocks_merge_to_the_whole_run(self):
        samples, labels = self.drifting()
        eye = eye_stats(samples, labels)
        assert [b.stop - b.start for b in modem._blocks(len(labels))] == [
            1 << 16, 1 << 16, (1 << 16) + 999
        ]
        for level in range(4):
            x = samples[labels == level]
            assert eye.run.counts[level] == len(x)
            assert eye.run.means[level] == pytest.approx(x.mean(), rel=1e-12)
            assert eye.run.stds[level] == pytest.approx(x.std(), rel=1e-12)
        tail = slice(2 << 16, None)
        x = samples[tail][labels[tail] == 1]
        assert eye.means[2, 1] == pytest.approx(x.mean(), rel=1e-12)

    def test_block_without_a_level_takes_the_run_value(self):
        samples, labels = self.drifting()
        eye = eye_stats(samples, labels)
        lacking = [0, 1, 3]
        assert np.array_equal(eye.means[0, lacking], eye.run.means[lacking])
        assert eye.means[0, 2] == pytest.approx(samples[: 1 << 16].mean(), rel=1e-12)

    def test_level_messages_print_plain_numbers(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        with pytest.raises(MissingLevelError, match=r"counts \[2, 1, 3, 0\]$"):
            eye_stats(np.zeros(6), labels)
        with pytest.raises(MissingLevelError, match=r"counts \[2, 1, 3, 0\]$"):
            LevelStats(means=np.zeros(4), stds=np.zeros(4), counts=np.array([2, 1, 3, 0]),
                       q_factors=np.zeros(4))


class TestEstimateBer:
    def test_noiseless_gives_zero(self):
        labels = np.repeat(np.arange(4), 100)
        eye = eye_stats(LEVELS[labels], labels)
        assert modem._ber_from_q(eye.run.q_factors) == 0.0
        assert eye.ber_estimated == 0.0

    def test_equal_gap_collapse(self):
        # Equal gaps d and equal sigmas: estimate = (3/4) Q(d / 2 sigma).
        d, sigma = 1 / 3, 0.05
        stats = LevelStats(
            means=LEVELS.copy(),
            stds=np.full(4, sigma),
            counts=np.full(4, 1000),
            q_factors=np.full(3, d / (2 * sigma)),
        )
        expected = 0.75 * float(gaussian_tail(d / (2 * sigma)))
        assert modem._ber_from_q(stats.q_factors) == pytest.approx(expected, rel=1e-12)

    def test_estimator_tracks_counting_at_q37(self):
        rng = np.random.default_rng(8)
        n_bits = 10_000_000
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        labels, _ = modulate(bits)
        symbols = LEVELS[labels]
        sigma = (1 / 3) / (2 * 3.7)
        trace = constant_trace(len(symbols) / CONFIG.symbol_rate_hz)
        received = apply_channel(
            symbols, trace, sigma, seed=9, symbol_rate_hz=CONFIG.symbol_rate_hz
        )
        eye = eye_stats(received, labels)
        recovered = demodulate(received, eye.means)
        _, _, counted = count_ber(bits, recovered[: len(bits)])
        estimated = eye.ber_estimated
        assert counted > 0
        assert 1 / 1.5 < estimated / counted < 1.5

    def test_block_estimates_weighted_by_symbols(self):
        # (1/4) sum Q(gap / (sigma_lo + sigma_hi)) per block, a level the
        # block lacks at its whole-run mean and std, weighted by symbols.
        samples, labels = TestEyeStats.drifting()
        eye = eye_stats(samples, labels)
        per_block, sizes = [], []
        for b in modem._blocks(len(labels)):
            x, lab = samples[b], labels[b]
            means, stds = eye.run.means.copy(), eye.run.stds.copy()
            for level in np.unique(lab):
                means[level], stds[level] = x[lab == level].mean(), x[lab == level].std()
            q = np.diff(means) / (stds[1:] + stds[:-1])
            per_block.append(0.25 * float(np.sum(gaussian_tail(q))))
            sizes.append(len(x))
        expected = np.dot(per_block, sizes) / len(labels)
        assert eye.ber_estimated == pytest.approx(expected, rel=1e-9)
        assert modem._ber_from_q(eye.run.q_factors) != pytest.approx(expected, rel=0.01)

    def test_zero_denominator_with_bad_gap(self):
        stats = LevelStats(
            means=np.array([0.0, 0.0, 2 / 3, 1.0]),
            stds=np.zeros(4),
            counts=np.full(4, 10),
            q_factors=np.array([-np.inf, np.inf, np.inf]),
        )
        with pytest.raises(ValueError):
            modem._ber_from_q(stats.q_factors)


class TestCountBer:
    def test_identical(self):
        bits = np.ones(100, dtype=np.uint8)
        assert count_ber(bits, bits) == (0, 100, 0.0)

    def test_complemented(self):
        bits = np.random.default_rng(1).integers(0, 2, 100, dtype=np.uint8)
        errors, n, ratio = count_ber(bits, 1 - bits)
        assert (errors, n, ratio) == (100, 100, 1.0)

    def test_known_flip_count(self):
        bits = np.zeros(10_000, dtype=np.uint8)
        rx = bits.copy()
        rx[[1, 100, 5000, 7777, 9999]] = 1
        assert count_ber(bits, rx) == (5, 10_000, 5e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_ber(np.zeros(10, dtype=np.uint8), np.zeros(9, dtype=np.uint8))


class TestTransmit:
    def test_clean_link_returns_the_bits(self):
        bits = np.random.default_rng(21).integers(0, 2, 2001, dtype=np.uint8)
        trace = constant_trace(1001 / CONFIG.symbol_rate_hz)
        rx_bits, report = transmit(bits, trace, 0.0, 1, CONFIG)
        assert np.array_equal(rx_bits, bits)
        assert (report.bits_tx, report.bit_errors) == (2001, 0)
        assert report.level_stats.counts.sum() == 1001

    def test_pool_starts_no_more_threads_than_blocks(self, monkeypatch):
        sizes = []

        class Recording(modem.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(modem, "ThreadPoolExecutor", Recording)
        trace = constant_trace(1.01 * (3 << 16) / CONFIG.symbol_rate_hz)
        for n_symbols, workers in ((1000, modem.MAX_WORKERS), (3 << 16, modem.MAX_WORKERS),
                                   (3 << 16, 1)):
            bits = np.random.default_rng(n_symbols).integers(0, 2, 2 * n_symbols, dtype=np.uint8)
            transmit(bits, trace, 0.05, 1, CONFIG, workers)
        # One block, or one worker, runs in the calling thread.
        assert sizes == [3]


class TestRandomBits:
    """The chunk-seeded random payload: any chunk-aligned range reads the
    same bits, and ``transmit`` and calibration read it as they read the
    same bits given as an array."""

    BLOCK = 1 << 16
    N = 3 * BLOCK + 1234

    def test_chunk_aligned_range_is_a_slice_of_the_whole(self):
        whole = modem._unit_bits(0, self.N, 5)
        assert whole.dtype == np.uint8 and len(whole) == 2 * self.N
        assert np.all(whole <= 1)
        assert np.mean(whole) == pytest.approx(0.5, abs=0.01)
        for lo, hi in ((0, 1000), (self.BLOCK, 2 * self.BLOCK), (self.BLOCK, self.N),
                       (2 * self.BLOCK, 2 * self.BLOCK + 7), (3 * self.BLOCK, self.N)):
            assert np.array_equal(modem._unit_bits(lo, hi, 5), whole[2 * lo : 2 * hi])
        assert not np.array_equal(modem._unit_bits(0, self.N, 6), whole)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_transmit_and_calibration_read_it_as_the_array(self, workers):
        source = modem.RandomBits(self.N, 5)
        bits = modem._unit_bits(0, self.N, 5)
        assert len(source) == len(bits)
        duration = 1.01 * self.N / CONFIG.symbol_rate_hz
        trace = generate_trace(FadingModel.log_normal(0.05), 2.0, 1e5, duration, seed=4)
        assert calibrate_noise_std(source, trace, 3.7, 9, CONFIG) == calibrate_noise_std(
            bits, trace, 3.7, 9, CONFIG
        )
        rx_none, report = transmit(source, trace, 0.08, 11, CONFIG, workers)
        rx_bits, expected = transmit(bits, trace, 0.08, 11, CONFIG, workers)
        assert rx_none is None and len(rx_bits) == len(bits)
        assert report.bit_errors > 0
        assert repr(report) == repr(expected)
        for name in ("means", "stds", "counts", "q_factors"):
            assert np.array_equal(
                getattr(report.level_stats, name), getattr(expected.level_stats, name)
            )


class TestTransmitMatchesReference:
    """The fused ``transmit`` against the five-pass chain it replaced:
    ``modulate`` -> ``apply_channel`` -> ``eye_stats`` -> ``demodulate``
    -> ``count_ber``, bit for bit."""

    BLOCK = 1 << 16

    @staticmethod
    def trace(n_bits):
        duration = 1.01 * ((n_bits + 1) // 2) / CONFIG.symbol_rate_hz
        return generate_trace(FadingModel.log_normal(0.05), 2e-3, 1e5, duration, seed=4)

    @staticmethod
    def check(bits, trace, noise_std, workers):
        rx_bits, report = transmit(bits, trace, noise_std, 11, CONFIG, workers)

        labels, _ = modulate(bits)
        received = apply_channel(
            labels, trace, noise_std, 11, CONFIG.symbol_rate_hz, CONFIG.levels
        )
        eye = eye_stats(received, labels)
        ref_bits = demodulate(received, eye.means)[: len(bits)]
        errors, n_bits, counted = count_ber(bits, ref_bits)

        assert np.array_equal(rx_bits, ref_bits)
        assert (report.bits_tx, report.bit_errors, report.ber_counted) == (
            n_bits, errors, counted
        )
        assert report.ber_estimated == eye.ber_estimated
        for name in ("means", "stds", "counts", "q_factors"):
            assert np.array_equal(
                getattr(report.level_stats, name), getattr(eye.run, name)
            )
        counts = eye.run.counts.astype(float)
        mean_power = float(np.sum(counts * eye.run.means**2) / np.sum(counts))
        noise_var = float(np.sum(counts * eye.run.stds**2) / np.sum(counts))
        snr_db = 10.0 * math.log10(mean_power / noise_var) if noise_var > 0 else math.inf
        assert report.snr_db == snr_db
        return labels

    @pytest.mark.parametrize(
        "n_bits, workers, noise_std",
        [
            (1001, 1, 0.08),
            (3001, 3, 0.08),
            (2 * (3 * BLOCK + 1234) + 1, 2, 0.08),
            (2 * (3 * BLOCK + 1234), 3, 0.08),
            (2 * (2 * BLOCK), 3, 0.08),
            (2 * (2 * BLOCK + 77), 2, 0.0),
            (2 * (2 * BLOCK + 77) + 1, 1, 0.0),
        ],
        ids=[
            "below-block-odd-w1", "below-block-odd-w3", "several-odd-w2",
            "several-w3", "two-blocks-w3", "several-w2-noiseless",
            "several-odd-w1-noiseless",
        ],
    )
    def test_matches_the_chain(self, n_bits, workers, noise_std):
        bits = np.random.default_rng(n_bits).integers(0, 2, n_bits, dtype=np.uint8)
        self.check(bits, self.trace(n_bits), noise_std, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_block_without_a_level_is_decided_after_the_merge(self, workers):
        # 20 KiB random, a 64 KiB zero run, 20 KiB + 3 B random: the zero run
        # holds whole blocks of level 0 only, cut at the whole-run means.
        rng = np.random.default_rng(5)
        data = np.concatenate([
            rng.integers(0, 256, 20 << 10), np.zeros(64 << 10),
            rng.integers(0, 256, (20 << 10) + 3),
        ]).astype(np.uint8)
        bits = np.unpackbits(data)
        labels = self.check(bits, self.trace(len(bits)), 0.08, workers)
        level_0_only = [b for b in modem._blocks(len(labels)) if not np.any(labels[b])]
        assert len(level_0_only) == 3


class TestCalibration:
    def test_hits_target_q(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, 200_000, dtype=np.uint8)
        trace = constant_trace(100_000 / CONFIG.symbol_rate_hz)
        target = 3.7
        sigma = calibrate_noise_std(bits, trace, target, seed=23, config=CONFIG)
        # AWGN closed form: q = gap / (2 sigma).
        assert sigma == pytest.approx((1 / 3) / (2 * target), rel=0.02)

    def test_q_for_target_ber_inverts_estimate(self):
        q = q_for_target_ber(1e-4)
        assert 0.75 * float(gaussian_tail(q)) == pytest.approx(1e-4, rel=1e-9)


def reference_calibrate_noise_std(
    symbols, labels, trace, target_q, seed, symbol_rate_hz, rel_tol=1e-4,
):
    """The direct method: bisection that reruns the channel at every trial."""
    if target_q <= 0:
        raise ValueError(f"target_q must be > 0, got {target_q}")

    def mean_q(noise_std):
        received = apply_channel(symbols, trace, noise_std, seed, symbol_rate_hz)
        return float(np.mean(eye_stats(received, labels).run.q_factors))

    span = float(np.max(symbols) - np.min(symbols)) or 1.0
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
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mean_q(mid) > target_q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCalibrationMatchesReference:
    """One-pass sufficient statistics agree with the direct bisection."""

    N = 50_000

    def block(self, fading, tau_blocks, n=N):
        bits = np.random.default_rng(3).integers(0, 2, 2 * n, dtype=np.uint8)
        duration = n / CONFIG.symbol_rate_hz
        if fading is None:
            trace = constant_trace(duration)
        else:
            trace = generate_trace(
                fading, tau_blocks * duration, 2000 / duration, duration, seed=5
            )
        return bits, trace

    @staticmethod
    def reference(bits, trace, config):
        labels, _ = modulate(bits)
        return reference_calibrate_noise_std(
            LEVELS[labels], labels, trace, 3.7, 9,
            symbol_rate_hz=config.symbol_rate_hz,
        )

    @pytest.mark.parametrize(
        "fading, tau_blocks",
        [
            (FadingModel.gamma_gamma_from_rytov(0.6), 10.0),
            (FadingModel.log_normal(0.1), 1.0),
            (None, None),
        ],
        ids=["hazy", "clear", "constant"],
    )
    def test_same_noise_std(self, fading, tau_blocks):
        bits, trace = self.block(fading, tau_blocks)
        new = calibrate_noise_std(bits, trace, 3.7, 9, CONFIG)
        assert new == pytest.approx(self.reference(bits, trace, CONFIG), rel=1e-4)

    def test_calibrates_on_the_first_200k_symbols(self):
        bits, trace = self.block(FadingModel.log_normal(0.1), 1.0, n=250_000)
        prefix = bits[:400_000]
        new = calibrate_noise_std(bits, trace, 3.7, 9, CONFIG)
        assert new == calibrate_noise_std(prefix, trace, 3.7, 9, CONFIG)
        assert new == pytest.approx(self.reference(prefix, trace, CONFIG), rel=1e-4)

    def test_missing_level(self):
        bits, trace = self.block(None, None)
        pairs = bits.reshape(-1, 2)
        no_level_2 = pairs[(pairs[:, 0] & pairs[:, 1]) == 0].ravel()  # Gray 11 -> 2
        with pytest.raises(MissingLevelError):
            calibrate_noise_std(no_level_2, trace, 3.7, 9, CONFIG)
        with pytest.raises(MissingLevelError):
            self.reference(no_level_2, trace, CONFIG)

    def test_unreachable_target(self):
        # Fading within the block alone closes the eyes below the target.
        bits, trace = self.block(FadingModel.gamma_gamma_from_rytov(0.6), 0.1)
        with pytest.raises(ValueError, match="unreachable"):
            calibrate_noise_std(bits, trace, 3.7, 9, CONFIG)
        with pytest.raises(ValueError, match="unreachable"):
            self.reference(bits, trace, CONFIG)


class TestTransmitPinned:
    """transmit's decided bits and BER report over a grid of runs, pinned
    bit for bit.

    Each digest is sha256 over the rx_bits bytes, then the repr of the
    report's scalars, then the level means, stds, counts and Q-factors.
    Sizes straddle the 2^16-symbol channel and statistics block: below one
    block, exactly one, and several with a partial last channel block (which
    the last statistics block absorbs). The trace runs at 1e5 Hz,
    so gains are looked up by index, except in the ``at-sample-rate`` case.
    """

    BLOCK = 1 << 16
    SEVERAL = 2 * (3 * BLOCK + 1234)

    @staticmethod
    def digest(rx_bits, report):
        h = hashlib.sha256(rx_bits.tobytes())
        scalars = (
            report.bits_tx, report.bit_errors, report.ber_counted,
            report.ber_estimated, report.snr_db,
        )
        h.update(repr(scalars).encode())
        stats = report.level_stats
        for values in (stats.means, stats.stds, stats.q_factors):
            h.update(np.asarray(values, dtype=np.float64).tobytes())
        h.update(np.asarray(stats.counts, dtype=np.int64).tobytes())
        return h.hexdigest()

    def run(self, n_bits, workers=1, noise_std=0.08, trace_rate_hz=1e5):
        bits = np.random.default_rng(n_bits).integers(0, 2, n_bits, dtype=np.uint8)
        duration = 1.01 * ((n_bits + 1) // 2) / CONFIG.symbol_rate_hz
        rate = trace_rate_hz or CONFIG.symbol_rate_hz
        trace = generate_trace(
            FadingModel.log_normal(0.05), 2e-3, rate, duration, seed=4
        )
        return transmit(bits, trace, noise_std, 11, CONFIG, workers)

    @pytest.mark.parametrize(
        "case, expected",
        [
            (dict(n_bits=1001),
                "319f267b7b2e247a05c6b06f45c3e6753aca51c0fb81da5f59144a06060b8e14",
            ),
            (dict(n_bits=2 * BLOCK),
                "a454f2b1c14413173500c9f90974dc5af8ab351c5fe62ddc5f08b60dc583e2d2",
            ),
            (dict(n_bits=SEVERAL + 1),
                "9ed71bc603779190bd2bc1e4064c61cd6d73314e847c53c1905eacb8f23dd2e7",
            ),
            (dict(n_bits=SEVERAL),
                "b1426b26948d3e98801a2530b6f317f118d01f7d03883e0230696c5fe7d2786c",
            ),
            (dict(n_bits=SEVERAL, workers=3),
                "b1426b26948d3e98801a2530b6f317f118d01f7d03883e0230696c5fe7d2786c",
            ),
            (dict(n_bits=2 * BLOCK + 1, workers=3),
                "513f1dbad945a6887eada55d84a1fd98d93cd6de33a0f7a7945c14c841d17230",
            ),
            (dict(n_bits=3001, workers=3),
                "a491c8f2fc8afaac9a6bdca07a3c9b5a90213c554bdc500effa07051eb62b105",
            ),
            (dict(n_bits=SEVERAL, noise_std=0.0),
                "1976c4335503ce579176820f4969db064946e507c051a6ac68f2fffe228a0273",
            ),
            (dict(n_bits=SEVERAL + 1, workers=3, trace_rate_hz=None),
                "4764c1191e08ce1e4b0baa4c687537e66eeb981b7634f310a6521062ca4bec0b",
            ),
            (dict(n_bits=SEVERAL, trace_rate_hz=None),
                "9a523a4d5755a375c4d8f480cb7f18ff1c00ff0ba131e47af66b5de6793ef0fd",
            ),
        ],
        ids=[
            "below-block-odd", "one-block", "several-adaptive-odd", "several",
            "several-w3-adaptive", "one-block-odd-w3-adaptive",
            "below-block-w3", "several-noiseless",
            "several-odd-w3-at-sample-rate", "several-adaptive-at-sample-rate",
        ],
    )
    def test_transmit_pinned(self, case, expected):
        assert self.digest(*self.run(**case)) == expected


@functools.cache
def _transmit_peak_per_symbol(n: int) -> float:
    """Traced allocation peak of one ``transmit`` call, beyond its input
    bits, per symbol."""
    bits = np.random.default_rng(2).integers(0, 2, 2 * n, dtype=np.uint8)
    trace = generate_trace(FadingModel.log_normal(0.05), 2e-3, 1e5, n / 1e6, seed=4)
    tracemalloc.start()
    try:
        transmit(bits, trace, 0.08, 11, CONFIG)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


class TestTransmitMemory:
    """Traced allocation peak of one ``transmit`` call on a payload array,
    beyond its input bits.

    The decided bits (2 B/symbol) are a whole-run array only for an array
    payload: a ``RandomBits`` source gets none back (the run-length bound
    for random runs is in ``test_pipeline``). The rest is one block's
    temporaries per worker thread, about 2.7 MiB, so the peak per symbol
    falls as the run grows. Measured on one worker: 4.74 B/symbol at 1e6
    symbols and 2.57 at 4e6; the bound leaves 0.76 B/symbol (16%) of margin.
    """

    def test_peak_bytes_per_symbol(self):
        assert _transmit_peak_per_symbol(1_000_000) <= 5.5

    def test_peak_per_symbol_does_not_grow_with_the_run(self):
        assert _transmit_peak_per_symbol(4_000_000) <= _transmit_peak_per_symbol(1_000_000)
