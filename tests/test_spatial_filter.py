import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsolink import modem
from fsolink.errors import CalibrationError
from fsolink.modem import Pam4Config
from fsolink.reporting import as_jsonable
from fsolink.spatial_filter import (
    ApertureGrid,
    FilterDemoScenario,
    SolarModel,
    beam_on_grid,
    filtered_snr,
    filtering_ber_demo,
    grid_from_csv,
    select_cell,
    solar_noise_power,
)


class TestSolarNoise:
    def test_product_of_factors(self):
        model = SolarModel(
            background_radiance=0.02,
            optical_bandwidth_nm=1.0,
            aperture_area_m2=0.0314,
            fov_sr=1e-6,
        )
        assert solar_noise_power(model) == pytest.approx(
            0.02 * 1.0 * 0.0314 * 1e-6, rel=1e-12
        )

    def test_linear_in_fov(self):
        base = solar_noise_power(SolarModel(fov_sr=1e-6))
        for c in (0.5, 2.0, 10.0):
            scaled = solar_noise_power(SolarModel(fov_sr=c * 1e-6))
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_vanishing_bandwidth_limit(self):
        # The model requires positive factors; the zero-bandwidth limit is
        # approached linearly.
        tiny = solar_noise_power(SolarModel(optical_bandwidth_nm=1e-12))
        assert tiny < 1e-18
        with pytest.raises(ValueError):
            SolarModel(optical_bandwidth_nm=0.0)


class TestSelectCell:
    def test_single_hot_cell(self):
        cells = np.zeros((2, 2))
        cells[0, 1] = 5.0
        grid = ApertureGrid(n=2, signal_power=cells)
        assert select_cell(grid) == (0, 1)

    def test_uniform_ties_to_first(self):
        grid = ApertureGrid(n=3, signal_power=np.ones((3, 3)))
        assert select_cell(grid) == (0, 0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            cells = rng.random((n, n))
            grid = ApertureGrid(n=n, signal_power=cells)
            best, best_idx = -1.0, None
            for i in range(n):
                for j in range(n):
                    if cells[i, j] > best:
                        best, best_idx = cells[i, j], (i, j)
            assert select_cell(grid) == best_idx


class TestFilteredSnr:
    def test_concentrated_2x2_gain_is_four(self):
        cells = np.zeros((2, 2))
        cells[1, 0] = 3.0
        snr = filtered_snr(ApertureGrid(n=2, signal_power=cells, noise_power_total=2.0))
        assert snr.snr_filtered / snr.snr_unfiltered == pytest.approx(4.0, rel=1e-12)
        assert snr.gain_db == pytest.approx(10 * math.log10(4.0), abs=1e-9)

    def test_uniform_gain_is_one(self):
        snr = filtered_snr(ApertureGrid(n=2, signal_power=np.full((2, 2), 0.7)))
        assert snr.gain_db == pytest.approx(0.0, abs=1e-12)
        assert snr.snr_filtered == pytest.approx(snr.snr_unfiltered, rel=1e-12)

    def test_matches_formula_on_random_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            cells = rng.random((3, 3))
            grid = ApertureGrid(n=3, signal_power=cells, noise_power_total=1.3)
            snr = filtered_snr(grid)
            expected = 9 * cells.max() / cells.sum()
            assert snr.snr_filtered / snr.snr_unfiltered == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        cells=arrays(
            np.float64,
            (3, 3),
            elements=st.floats(0.0, 10.0, allow_nan=False),
        )
    )
    def test_dominance_property(self, cells):
        grid = ApertureGrid(n=3, signal_power=cells, noise_power_total=0.9)
        snr = filtered_snr(grid)
        assert snr.snr_filtered >= snr.snr_unfiltered - 1e-12


class TestBeamOnGrid:
    def test_single_cell_captures_everything_inside(self):
        grid = beam_on_grid(1, (0.0, 0.0), 0.1)
        assert grid.signal_power[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_centered_beam_is_symmetric(self):
        grid = beam_on_grid(2, (0.0, 0.0), 0.3)
        cells = grid.signal_power
        assert cells[0, 0] == pytest.approx(cells[0, 1], rel=1e-12)
        assert cells[0, 0] == pytest.approx(cells[1, 1], rel=1e-12)

    def test_offset_beam_prefers_its_cell(self):
        grid = beam_on_grid(2, (0.25, 0.25), 0.25)
        assert select_cell(grid) == (0, 1)  # +x +y quadrant = top right

    def test_peak_bytes_per_cell(self):
        # The 8 B/cell behind the partition-order limit: the float64 cells
        # and nothing of their size besides, the sign check included.
        n = 1500
        tracemalloc.start()
        try:
            filtered_snr(beam_on_grid(n, (0.25, 0.25), 0.35))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.25 * n * n


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        cells = np.array([[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "grid.csv"
        np.savetxt(path, cells, delimiter=",")
        grid = grid_from_csv(path)
        assert grid.n == 2
        assert np.allclose(grid.signal_power, cells)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.ones((2, 3)), delimiter=",")
        with pytest.raises(ValueError):
            grid_from_csv(path)


class TestFilteringDemo:
    CONFIG = Pam4Config(symbol_rate_hz=1e9)

    def test_selection_improves_ber_by_an_order(self):
        scenario = FilterDemoScenario(n_symbols=400_000)
        result = filtering_ber_demo(scenario, 2, self.CONFIG, seed=3)
        off = result.report_off.ber_counted
        on = result.report_on.ber_counted
        assert 5e-4 <= off <= 5e-3
        assert on <= off / 10
        assert result.snr.gain_db > 0

    def test_no_partition_is_identity(self):
        scenario = FilterDemoScenario(n_symbols=100_000)
        result = filtering_ber_demo(scenario, 1, self.CONFIG, seed=5)
        assert result.snr.gain_db == pytest.approx(0.0, abs=1e-12)
        assert as_jsonable(result.report_off) == as_jsonable(result.report_on)

    def test_uniform_beam_gives_no_improvement(self):
        scenario = FilterDemoScenario(spot_center=(0.0, 0.0), n_symbols=100_000)
        result = filtering_ber_demo(scenario, 2, self.CONFIG, seed=7)
        assert result.snr.gain_db == pytest.approx(0.0, abs=1e-9)
        assert result.report_on.ber_counted == pytest.approx(
            result.report_off.ber_counted, rel=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_out_of_band_operating_point_rejected(self, seed):
        # At target 1e-9, 10 000 symbols (20 000 bits) expect 2e-5 bit
        # errors, so any seed counts none: below the [5e-10, 5e-9] band.
        scenario = FilterDemoScenario(target_unfiltered_ber=1e-9, n_symbols=10_000)
        with pytest.raises(CalibrationError, match=r"BER 0 is outside the \[5e-10, 5e-09\]"):
            filtering_ber_demo(scenario, 2, self.CONFIG, seed=seed)


class TestFilterDemoScenario:
    def test_symbol_range_is_the_modem_range(self):
        assert FilterDemoScenario(n_symbols=modem.MIN_SYMBOLS).n_symbols == modem.MIN_SYMBOLS
        for n in (modem.MIN_SYMBOLS - 1, 0, -5, modem.MAX_SYMBOLS + 1):
            with pytest.raises(ValueError, match=f"n_symbols must be in .*, got {n}$"):
                FilterDemoScenario(n_symbols=n)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"spot_center": (math.nan, 0.0)}, "spot_center"),
         ({"spot_center": (0.0, math.inf)}, "spot_center"),
         ({"spot_radius": math.nan}, "spot_radius"),
         ({"spot_radius": math.inf}, "spot_radius"),
         ({"spot_radius": 0.0}, "spot_radius")],
        ids=["nan-x", "inf-y", "nan-radius", "inf-radius", "zero-radius"],
    )
    def test_spot_must_be_finite(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FilterDemoScenario(**kwargs)


class TestApertureGridType:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApertureGrid(n=0, signal_power=np.ones((1, 1)))
        with pytest.raises(ValueError):
            ApertureGrid(n=2, signal_power=np.ones((2, 3)))
        with pytest.raises(ValueError):
            ApertureGrid(n=2, signal_power=-np.ones((2, 2)))
        with pytest.raises(ValueError, match="cell powers"):
            ApertureGrid(n=2, signal_power=np.array([[1.0, 1.0], [1.0, -1e-300]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, bad):
        cells = np.ones((3, 3))
        cells[1, 2] = bad
        with pytest.raises(ValueError, match="^cell powers must be finite and >= 0$"):
            ApertureGrid(n=3, signal_power=cells)
        with pytest.raises(ValueError):
            ApertureGrid(n=2, signal_power=np.ones((2, 2)), noise_power_total=0.0)
