import hashlib
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from fsolink import pat
from fsolink.errors import TrackingDivergedError
from fsolink.pat import (
    JitterParams,
    QdGeometry,
    QdReading,
    estimate_displacement,
    multisample_snr,
    qd_response,
    run_tracking_loop,
)

GEOM = QdGeometry(detector_size_m=1e-3, beam_radius_m=0.3e-3, gap_m=0.0)
GEOM_GAP = QdGeometry(detector_size_m=1e-3, beam_radius_m=0.3e-3, gap_m=50e-6)
GEOM_WIDE_GAP = QdGeometry(detector_size_m=1e-3, beam_radius_m=0.3e-3, gap_m=1e-4)


def overlap_oracle(offset_x, offset_y, geometry, n_nodes=160):
    """Brute-force tensor-grid integration of the beam over each quadrant."""
    w = geometry.beam_radius_m
    half = geometry.detector_size_m / 2
    inner = geometry.gap_m / 2

    def integral_1d(lo, hi, center):
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        f = math.sqrt(2 / math.pi) / w * np.exp(-2 * (x - center) ** 2 / w**2)
        return 0.5 * (hi - lo) * float(np.sum(weights * f))

    px = integral_1d(inner, half, offset_x)
    nx = integral_1d(-half, -inner, offset_x)
    py = integral_1d(inner, half, offset_y)
    ny = integral_1d(-half, -inner, offset_y)
    return px * py, nx * py, nx * ny, px * ny


class TestQdResponse:
    def test_centered_beam_splits_equally(self):
        reading = qd_response(0.0, 0.0, GEOM)
        assert reading.v1 == pytest.approx(reading.v2, rel=1e-12)
        assert reading.v2 == pytest.approx(reading.v3, rel=1e-12)
        assert reading.v3 == pytest.approx(reading.v4, rel=1e-12)
        # Slightly below P/4: the finite detector clips the beam tails.
        assert reading.v1 < 0.25
        assert reading.v1 == pytest.approx(0.25, abs=0.01)

    def test_gap_removes_power(self):
        with_gap = qd_response(0.0, 0.0, GEOM_GAP).total
        without = qd_response(0.0, 0.0, GEOM).total
        assert with_gap < without

    def test_far_offset_lands_in_positive_x_half(self):
        # Twice the detector size: nearly all captured power is in +x.
        reading = qd_response(1e-3, 0.0, GEOM)
        assert reading.v1 + reading.v4 > 0.0
        assert reading.v1 + reading.v4 > 1e3 * (reading.v2 + reading.v3)

    @pytest.mark.parametrize("geometry", [GEOM, GEOM_GAP])
    @pytest.mark.parametrize(
        "offset", [(0.15e-3, 0.0), (0.0, -0.2e-3), (0.1e-3, 0.07e-3)]
    )
    def test_overlap_matches_grid_integration(self, geometry, offset):
        reading = qd_response(offset[0], offset[1], geometry)
        expected = overlap_oracle(offset[0], offset[1], geometry)
        for got, want in zip((reading.v1, reading.v2, reading.v3, reading.v4), expected):
            assert got == pytest.approx(want, rel=1e-8)

    #: Q1..Q4 powers as float.hex, centered, off center and far off the
    #: detector (the loop's noiseless reading, pinned bit for bit).
    PINNED = {
        (GEOM, (0.0, 0.0)): ["0x1.ff1f2534962fcp-3"] * 4,
        (GEOM, (0.15e-3, -0.05e-3)): [
            "0x1.3a7834cb3b426p-2", "0x1.dffb7ff8991c7p-5",
            "0x1.98dfa400b6556p-4", "0x1.0be19a9064144p-1",
        ],
        (GEOM, (1.2e-3, 0.3e-3)): [
            "0x1.6c0cf8f9731bfp-20", "0x1.37e2b6f5224f0p-51",
            "0x1.0041c707717ccp-56", "0x1.2b1e235507173p-25",
        ],
        (GEOM_WIDE_GAP, (0.0, 0.0)): ["0x1.16e0546f34b3fp-3"] * 4,
        (GEOM_WIDE_GAP, (0.15e-3, -0.05e-3)): [
            "0x1.7d4748e9154bep-3", "0x1.791caea3465efp-6",
            "0x1.749000c2c5142p-5", "0x1.78adbceb7e7c3p-2",
        ],
        (GEOM_WIDE_GAP, (1.2e-3, 0.3e-3)): [
            "0x1.61c32513af549p-20", "0x1.b8d4c934589c9p-55",
            "0x1.41a08a316c6c0p-61", "0x1.021a2fa3d1379p-26",
        ],
    }

    @pytest.mark.parametrize(
        "geometry, offset", list(PINNED), ids=[
            f"{gap}-{where}" for gap in ("no-gap", "wide-gap")
            for where in ("centered", "off-center", "far")
        ],
    )
    def test_powers_pinned(self, geometry, offset):
        reading = qd_response(*offset, geometry)
        assert [v.hex() for v in astuple(reading)] == self.PINNED[geometry, offset]

    def test_domain(self):
        with pytest.raises(ValueError):
            QdGeometry(detector_size_m=1e-3, beam_radius_m=0.3e-3, gap_m=2e-3)


class TestEstimateDisplacement:
    def test_equal_quadrants_give_zero(self):
        assert estimate_displacement(QdReading(1, 1, 1, 1), GEOM) == (0.0, 0.0)

    def test_odd_symmetry(self):
        for ox, oy in [(0.1e-3, 0.05e-3), (0.2e-3, -0.1e-3), (-0.05e-3, 0.12e-3)]:
            plus = estimate_displacement(qd_response(ox, oy, GEOM), GEOM)
            minus = estimate_displacement(qd_response(-ox, -oy, GEOM), GEOM)
            assert plus[0] == pytest.approx(-minus[0], abs=1e-15)
            assert plus[1] == pytest.approx(-minus[1], abs=1e-15)

    def test_scale_invariance(self):
        reading = qd_response(0.1e-3, -0.05e-3, GEOM)
        base = estimate_displacement(reading, GEOM)
        scaled = QdReading(7 * reading.v1, 7 * reading.v2, 7 * reading.v3, 7 * reading.v4)
        est = estimate_displacement(scaled, GEOM)
        assert est[0] == pytest.approx(base[0], rel=1e-12)
        assert est[1] == pytest.approx(base[1], rel=1e-12)

    def test_monotone_within_half_beam_radius(self):
        xs = np.linspace(-0.15e-3, 0.15e-3, 21)
        estimates = [
            estimate_displacement(qd_response(x, 0.0, GEOM), GEOM)[0] for x in xs
        ]
        assert all(b > a for a, b in zip(estimates, estimates[1:]))

    def test_small_offset_calibration(self):
        # Default gain is calibrated for unit small-signal slope.
        x = GEOM.beam_radius_m / 50
        est, _ = estimate_displacement(qd_response(x, 0.0, GEOM), GEOM)
        assert est == pytest.approx(x, rel=0.01)

    def test_saturated_reading_returns_gain(self):
        est = estimate_displacement(QdReading(3.0, 0.0, 0.0, 0.0), GEOM)
        assert est == (GEOM.estimator_gain, GEOM.estimator_gain)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            estimate_displacement(QdReading(0, 0, 0, 0), GEOM)


class TestMultisample:
    def test_single_sample_matches_definition(self):
        truth = QdReading(0.25, 0.25, 0.25, 0.25)
        reading = QdReading(0.32, 0.2, 0.25, 0.25)  # total 1.02, noise +0.02
        result = multisample_snr(np.array([astuple(reading)]), true_reading=truth)
        # One sample: coherent sum is the sample itself.
        assert result.amplitude_snr == pytest.approx(
            truth.total / abs(reading.total - truth.total), rel=1e-12
        )
        assert result.m == 1

    def test_noiseless_flags_saturation(self):
        truth = QdReading(0.25, 0.25, 0.25, 0.25)
        result = multisample_snr(np.array([astuple(truth)] * 2), true_reading=truth)
        assert result.saturated
        assert math.isinf(result.amplitude_snr)

    def test_mean_reading_feeds_estimator(self):
        rng = np.random.default_rng(5)
        quads = 0.25 + rng.normal(0, 0.01, (10, 4))
        result = multisample_snr(quads, true_reading=QdReading(0.25, 0.25, 0.25, 0.25))
        assert result.mean_reading.total == pytest.approx(float(quads.sum(axis=1).mean()), rel=1e-12)

    def test_sqrt_m_gain_monte_carlo(self):
        # Amplitude-SNR ratio vs m=1 must track sqrt(m) within 5%.
        rng = np.random.default_rng(99)
        trials = 100_000
        sigma = 0.05
        truth = QdReading(0.25, 0.25, 0.25, 0.25)
        signal = truth.total

        def aggregated_snr(m):
            # Noise on each reading total is the sum of 4 quadrant draws.
            noise = rng.normal(0.0, sigma, (trials, m, 4)).sum(axis=2)
            rss_sq = (noise**2).sum(axis=1)
            return m * signal / math.sqrt(float(np.mean(rss_sq)))

        base = aggregated_snr(1)
        for m in (2, 4, 10, 25):
            ratio = aggregated_snr(m) / base
            assert ratio == pytest.approx(math.sqrt(m), rel=0.05)

    def test_function_consistency_with_aggregation(self):
        # multisample_snr on known signal reproduces m*s/sqrt(sum n^2).
        rng = np.random.default_rng(7)
        truth = QdReading(0.25, 0.25, 0.25, 0.25)
        quads = 0.25 + rng.normal(0, 0.05, (10, 4))
        quads = np.maximum(quads, 0.0)
        result = multisample_snr(quads, true_reading=truth)
        totals = quads.sum(axis=1)
        expected = 10 * truth.total / math.sqrt(float(np.sum((totals - truth.total) ** 2)))
        assert result.amplitude_snr == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multisample_snr(np.empty((0, 4)), true_reading=QdReading(0.25, 0.25, 0.25, 0.25))


class TestTrackingLoop:
    def test_clean_loop_converges_in_three_steps(self):
        result = run_tracking_loop(
            (0.15e-3, -0.1e-3),
            disturbance=JitterParams(rms_m=0.0),
            geometry=GEOM,
            m=1,
            controller_gain=1.0,
            duration_s=0.2,
            seed=0,
        )
        after_three = math.hypot(result.offsets_x_m[3], result.offsets_y_m[3])
        assert after_three < 1e-7  # sub-100 nm from a 180 um start
        assert result.residual_rms_m < 1e-9

    def test_multisampling_lowers_residual(self):
        kwargs = dict(
            initial_offset_m=(2e-4, -1e-4),
            disturbance=JitterParams(rms_m=50e-6, bandwidth_hz=50.0),
            geometry=GEOM,
            duration_s=0.3,
            noise_std=0.05,
        )
        wins = 0
        for seed in range(15):
            r1 = run_tracking_loop(m=1, seed=seed, **kwargs).residual_rms_m
            r10 = run_tracking_loop(m=10, seed=seed, **kwargs).residual_rms_m
            wins += r10 < r1
        assert wins >= 14

    def test_open_loop_residual_is_disturbance_rms(self):
        rms = 50e-6
        result = run_tracking_loop(
            (0.0, 0.0),
            disturbance=JitterParams(rms_m=rms, bandwidth_hz=100.0),
            geometry=GEOM,
            controller_gain=0.0,
            duration_s=1.0,
            seed=11,
        )
        # Radial RMS of two independent axes: rms * sqrt(2).
        assert result.residual_rms_m == pytest.approx(rms * math.sqrt(2), rel=0.2)

    def test_divergence_raises(self):
        with pytest.raises(TrackingDivergedError):
            run_tracking_loop(
                (0.2e-3, 0.0),
                disturbance=JitterParams(rms_m=0.0),
                geometry=GEOM,
                controller_gain=-3.0,  # wrong-sign controller pushes the beam out
                duration_s=0.2,
                seed=0,
            )

    def test_deterministic_per_seed(self):
        kwargs = dict(
            initial_offset_m=(1e-4, 0.0),
            disturbance=JitterParams(rms_m=20e-6),
            geometry=GEOM,
            m=4,
            duration_s=0.15,
            noise_std=0.03,
        )
        a = run_tracking_loop(seed=5, **kwargs)
        b = run_tracking_loop(seed=5, **kwargs)
        assert np.array_equal(a.offsets_x_m, b.offsets_x_m)
        assert a.residual_rms_m == b.residual_rms_m

    def test_needs_hundred_corrections(self):
        with pytest.raises(ValueError):
            run_tracking_loop((0, 0), None, GEOM, duration_s=0.05, loop_rate_hz=1000.0)

    def test_loop_rate_cap(self):
        with pytest.raises(ValueError):
            run_tracking_loop((0, 0), None, GEOM, duration_s=1.0, loop_rate_hz=2000.0)

    def test_needs_one_sample_per_correction(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            run_tracking_loop((0, 0), None, GEOM, m=0)

    @pytest.mark.parametrize("noise_std", [0.0, 0.05])
    @pytest.mark.parametrize("m", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
    def test_m_must_be_an_integer(self, m, noise_std):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {m!r}$"):
            run_tracking_loop((0, 0), JitterParams(rms_m=50e-6), GEOM, m=m, noise_std=noise_std)

    def test_numpy_integer_m_is_accepted(self):
        runs = [
            run_tracking_loop((2e-4, -1e-4), JitterParams(rms_m=50e-6), GEOM, m=m,
                              duration_s=0.1, seed=3, noise_std=0.05)
            for m in (np.int64(3), 3)
        ]
        assert runs[0].offsets_x_m.tobytes() == runs[1].offsets_x_m.tobytes()

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0])
    def test_duration_must_be_finite_and_positive(self, duration_s):
        with pytest.raises(ValueError, match="^duration_s must be finite and > 0, got"):
            run_tracking_loop((0, 0), None, GEOM, duration_s=duration_s)

    def test_step_budget_checked_before_allocation(self, monkeypatch):
        # 4 MiB per step and 1 MiB per reading: 4 GiB is 1000 steps of m = 96.
        monkeypatch.setattr(pat, "_STEP_BYTES", 1 << 22)
        monkeypatch.setattr(pat, "_READING_BYTES", 1 << 20)
        still = JitterParams(rms_m=0.0)
        run = run_tracking_loop((0, 0), still, GEOM, m=96, duration_s=1.0)
        assert len(run.times_s) == 1000
        for m, duration_s in ((96, 1.001), (97, 1.0)):
            with pytest.raises(ValueError, match="over 4 GiB"):
                run_tracking_loop((0, 0), still, GEOM, m=m, duration_s=duration_s)

    def test_reading_budget_checked_before_allocation(self):
        # One reading past 4 GiB for the 500 steps of the default duration.
        m = ((4 << 30) - 150 * 500) // 162 + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"500 steps of m = {m} readings"):
                run_tracking_loop((0, 0), JitterParams(rms_m=50e-6), GEOM, m=m,
                                  noise_std=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_peak_bytes_per_reading(self):
        # 100 steps of m = 10 000: one step's noise block dominates.
        steps, m = 100, 10_000
        tracemalloc.start()
        try:
            run_tracking_loop(
                (2e-4, -1e-4), JitterParams(rms_m=50e-6), GEOM, m=m,
                duration_s=steps / 1000, noise_std=0.05,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * steps + 162 * m

    def test_peak_bytes_per_step(self):
        # 150 B/step of the run budget; about 0.2 MiB is per-run (a block of
        # noise draws, one list per step).
        n = 10_000
        tracemalloc.start()
        try:
            run_tracking_loop(
                (2e-4, -1e-4), JitterParams(rms_m=50e-6), GEOM,
                duration_s=n / 1000, noise_std=0.05,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * n + (1 << 20)


    @pytest.mark.parametrize(
        "initial, noise_std",
        [((math.nan, 0.0), 0.0), ((0.0, math.inf), 0.0), ((0.0, 0.0), math.nan),
         ((0.0, 0.0), math.inf)],
        ids=["nan-x", "inf-y", "nan-noise", "inf-noise"],
    )
    def test_non_finite_inputs_rejected(self, initial, noise_std):
        with pytest.raises(ValueError, match="finite"):
            run_tracking_loop(initial, None, GEOM, noise_std=noise_std)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="^controller_gain must be finite$"):
            run_tracking_loop((0, 0), None, GEOM, controller_gain=gain)


def test_scalar_erf_is_the_ufunc_bit_for_bit():
    # The fractions call scipy's scalar erf kernel; the pinned digests were
    # made with its ufunc. The grid spans the loop's arguments (|x| < 10),
    # the kernel's branch edge at |x| = 1, its saturation and subnormals.
    from scipy.special import cython_special, erf

    kernel = cython_special.erf["double"]
    tiny = np.finfo(float).smallest_subnormal
    one = np.nextafter(1.0, [0.0, 2.0])
    grid = np.concatenate([
        np.linspace(0.0, 10.0, 100_001),
        np.abs(np.random.default_rng(0).normal(0.0, 3.0, 100_000)),
        [1.0, *one, 8.0, *np.nextafter(8.0, [0.0, 9.0]), 30.0, 1e3, 1e300, math.inf],
        [tiny, 2 * tiny, 1e-310, np.finfo(float).smallest_normal, 1e-300, 1e-20],
    ])
    grid = np.concatenate([grid, -grid])
    scalar = np.array([kernel(x) for x in grid.tolist()])
    differ = np.flatnonzero(scalar.view(np.int64) != erf(grid).view(np.int64))
    assert differ.size == 0, (
        f"scipy.special.cython_special.erf differs from scipy.special.erf on "
        f"{differ.size} of {grid.size} arguments (first at x = {grid[differ[0]]!r}): "
        "the tracking loop's quadrant fractions no longer repeat the ufunc's"
    )


class TestTrackingLoopPinned:
    """The offset traces of a small grid of loops, pinned bit for bit.

    Each digest is sha256(offsets_x_m bytes + offsets_y_m bytes). The grid
    has a detector gap; noise_std 1.5 clamps readings at zero and, at
    m = 1, loses the beam on 9 of the 150 steps (hold position).
    """

    NOISELESS = "bc5c2b70e254fed8493b33cf578ce99a77e3e3b5d759b536aa184cf21f85119f"

    @staticmethod
    def digest(result):
        h = hashlib.sha256(result.offsets_x_m.tobytes())
        h.update(result.offsets_y_m.tobytes())
        return h.hexdigest()

    def run(self, m, noise_std, duration_s=0.15, seed=7):
        return run_tracking_loop(
            (2e-4, -1e-4),
            JitterParams(rms_m=50e-6),
            GEOM_WIDE_GAP,
            m=m,
            duration_s=duration_s,
            seed=seed,
            noise_std=noise_std,
        )

    #: (m, noise_std) -> digest. The digest stays out of the test id, so a
    #: re-pin keeps the ids.
    PINNED = {
        (1, 0.0): NOISELESS,
        (4, 0.0): NOISELESS,
        (10, 0.0): NOISELESS,
        (1, 0.25): "4a59516674dc65c2a22e49539f389140363713fe19740f1068c24e1d28a210e9",
        (4, 0.25): "135fbba191a815cb884618831d1094037913ec15be882e3892be5a12db6bca71",
        (10, 0.25): "726f443f02fbcc232e6bda96952f653ca67261785b670e5fbed37a3846da0d79",
        (1, 1.5): "29c189235bca8e567f7099b89a28173b3e470a2797d1d02097734fa35f8bda14",
        (4, 1.5): "f4f7d6501ab99e692a3e87405a9b3b4d7907cdad5357378162a4cec2d244c6ea",
        (10, 1.5): "f04de6392d1f24bfa219d1b492555dc7b8a81b4aa8a4415261ccc916e4857e72",
    }

    @pytest.mark.parametrize("m, noise_std", list(PINNED))
    def test_offsets_pinned(self, m, noise_std):
        assert self.digest(self.run(m, noise_std)) == self.PINNED[m, noise_std]

    def test_loud_single_sample_loop_holds_position(self, monkeypatch):
        lost = []

        def counting(v, gain):
            estimate = displacement(v, gain)
            lost.append(estimate is None)
            return estimate

        displacement = pat._displacement
        monkeypatch.setattr(pat, "_displacement", counting)
        self.run(1, 1.5)
        assert sum(lost) == 9

    def test_offsets_pinned_across_noise_blocks(self):
        # 1000 steps of m = 40 span several noise blocks, the last one partial.
        result = self.run(40, 1.5, duration_s=1.0, seed=3)
        expected = "a7a787875ed14e3cb8f1981166bb364e7ec3fe33a57850e0b350abcb9bf6cd10"
        assert self.digest(result) == expected

    @pytest.mark.parametrize("m", [1, 3])
    def test_noise_block_size_does_not_change_the_stream(self, monkeypatch, m):
        default = self.run(m, 1.5, duration_s=0.2)
        # One step per draw, then 7-step blocks (200 is not a multiple of 7).
        for block_values in (1, 7 * 4 * m):
            monkeypatch.setattr(pat, "_NOISE_BLOCK_VALUES", block_values)
            result = self.run(m, 1.5, duration_s=0.2)
            assert np.array_equal(result.offsets_x_m, default.offsets_x_m)
            assert np.array_equal(result.offsets_y_m, default.offsets_y_m)

    def test_noise_is_drawn_in_bounded_blocks(self):
        class RecordingRng:
            def __init__(self):
                self.rng = np.random.default_rng(0)
                self.sizes = []

            def normal(self, loc, scale, size):
                self.sizes.append(size)
                return self.rng.normal(loc, scale, size)

        rng = RecordingRng()
        steps = list(pat._step_noise(rng, 0.1, 10, 1000))
        # One flat row of 4m draws per step, reading after reading: the
        # rows are one whole-run (n_steps, m, 4) draw, in order.
        assert len(steps) == 1000
        assert all(type(row) is list and len(row) == 40 for row in steps)
        whole = np.random.default_rng(0).normal(0.0, 0.1, (1000, 10, 4)).ravel()
        assert np.array_equal(np.concatenate(steps), whole)
        assert sum(size[0] for size in rng.sizes) == 1000
        assert max(math.prod(size) for size in rng.sizes) <= pat._NOISE_BLOCK_VALUES

    def test_divergence_step_time_pinned(self):
        with pytest.raises(TrackingDivergedError, match=r"steps at t=0\.014 s$"):
            run_tracking_loop(
                (0.2e-3, 0.0),
                JitterParams(rms_m=20e-6),
                GEOM_WIDE_GAP,
                m=3,
                controller_gain=-3.0,
                duration_s=0.2,
                seed=0,
                noise_std=0.2,
            )
