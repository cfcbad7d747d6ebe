import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fsolink.atmosphere import (
    CloudLayer,
    LinkGeometry,
    LossBreakdown,
    WeatherScenario,
    cn2_profile,
    cloud_attenuation_db,
    fog_attenuation_db_per_km,
    geometric_loss_db,
    rain_attenuation_db_per_km,
    rytov_variance,
    scintillation_loss_db,
    total_atmospheric_loss,
)
from fsolink.channel_trace import scintillation_index


def hv_oracle(h, v, a0):
    # Independent three-term evaluation of the profile.
    return (
        0.00594 * (v / 27.0) ** 2 * (1e-5 * h) ** 10 * math.exp(-h / 1000.0)
        + 2.7e-16 * math.exp(-h / 1500.0)
        + a0 * math.exp(-h / 100.0)
    )


def slant_integral_oracle(h0, dh, v, a0):
    """int_{h0}^{h0+dh} Cn2(h) (h - h0)^(5/6) dh by adaptive quadrature.

    The substitution h - h0 = u^6 turns the (h - h0)^(5/6) cusp, on which
    plain quad is off by up to 2.3e-4 relative, into the smooth 6 u^10 du.
    The breakpoints at h0 + 100, 1000 and 3000 m split off the ranges where
    the ground, wind and background terms change scale.
    """
    points = [t ** (1 / 6) for t in (100.0, 1000.0, 3000.0) if t < dh]
    value, _ = integrate.quad(
        lambda u: 6.0 * u**10 * hv_oracle(h0 + u**6, v, a0),
        0.0,
        dh ** (1 / 6),
        points=points,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return value


class TestCn2Profile:
    def test_ground_level_collapses_wind_term(self):
        # (1e-5 * 0)^10 kills the wind term at h = 0.
        for v in (0.0, 5.0, 21.0):
            assert cn2_profile(0.0, v, 1.7e-14) == pytest.approx(
                1.7e-14 + 2.7e-16, rel=1e-12
            )

    def test_high_altitude_decay(self):
        values = [cn2_profile(h, 21.0, 1.7e-14) for h in (12e3, 20e3, 40e3, 80e3)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-19
        assert all(v > 0 for v in values)

    def test_against_direct_evaluation(self):
        assert cn2_profile(10000.0, 21.0, 1.7e-14) == pytest.approx(
            hv_oracle(10000.0, 21.0, 1.7e-14), rel=1e-12
        )
        assert cn2_profile(10000.0, 21.0, 1.7e-14) == pytest.approx(
            1.6657319221014648e-17, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cn2_profile(-1.0, 21.0, 1.7e-14)
        with pytest.raises(ValueError):
            cn2_profile(0.0, -1.0, 1.7e-14)
        with pytest.raises(ValueError):
            cn2_profile(0.0, 21.0, 0.0)


class TestRytovVariance:
    def test_horizontal_closed_form(self):
        geom = LinkGeometry(distance_m=1000.0, wavelength_m=1550e-9)
        scen = WeatherScenario(visibility_km=10.0, ground_cn2=1e-14)
        k = 2 * math.pi / 1550e-9
        cn2 = hv_oracle(0.0, scen.wind_speed_ground, 1e-14)
        expected = 1.23 * cn2 * k ** (7 / 6) * 1000.0 ** (11 / 6)
        assert rytov_variance(geom, scen) == pytest.approx(expected, rel=1e-12)

    def test_distance_scaling_power_law(self):
        scen = WeatherScenario(visibility_km=10.0)
        r1 = rytov_variance(LinkGeometry(distance_m=1000.0), scen)
        r2 = rytov_variance(LinkGeometry(distance_m=2000.0), scen)
        assert r2 / r1 == pytest.approx(2 ** (11 / 6), rel=1e-9)

    def test_vanishing_turbulence_floor(self):
        # The profile keeps its fixed 2.7e-16 background term, so driving
        # the ground parameter to zero leaves exactly that contribution.
        scen = WeatherScenario(visibility_km=10.0, ground_cn2=1e-30)
        geom = LinkGeometry(distance_m=1000.0)
        k = 2 * math.pi / geom.wavelength_m
        floor = 1.23 * 2.7e-16 * k ** (7 / 6) * 1000.0 ** (11 / 6)
        assert rytov_variance(geom, scen) == pytest.approx(floor, rel=1e-9)

    def test_slant_against_trapezoid_integral(self):
        geom = LinkGeometry(distance_m=20000.0, tx_altitude_m=0.0, rx_altitude_m=10000.0)
        scen = WeatherScenario(visibility_km=10.0)
        h = np.linspace(0.0, 10000.0, 400_001)
        cn2 = np.array([hv_oracle(x, scen.wind_speed_ground, scen.ground_cn2) for x in h[:2]])
        # vectorized oracle
        cn2 = (
            0.00594 * (scen.wind_speed_ground / 27.0) ** 2 * (1e-5 * h) ** 10 * np.exp(-h / 1000.0)
            + 2.7e-16 * np.exp(-h / 1500.0)
            + scen.ground_cn2 * np.exp(-h / 100.0)
        )
        integral = np.trapezoid(cn2 * h ** (5 / 6), h)
        k = 2 * math.pi / geom.wavelength_m
        expected = 2.25 * k ** (7 / 6) * (20000.0 / 10000.0) ** (11 / 6) * integral
        assert rytov_variance(geom, scen) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("h0", [0.0, 500.0, 2000.0])
    @pytest.mark.parametrize("wind", [0.0, 1.0, 6.0, 21.0])
    @pytest.mark.parametrize("ground_cn2", [1.7e-14, 2e-13])
    def test_slant_closed_form_against_quadrature(self, h0, wind, ground_cn2):
        # h0 > 0 exercises the binomial expansion of the h^10 wind term.
        geom = LinkGeometry(
            distance_m=20000.0, tx_altitude_m=h0 + 10000.0, rx_altitude_m=h0
        )
        scen = WeatherScenario(
            visibility_km=10.0, wind_speed_ground=wind, ground_cn2=ground_cn2
        )
        k = 2 * math.pi / geom.wavelength_m
        integral = slant_integral_oracle(h0, 10000.0, wind, ground_cn2)
        expected = 2.25 * k ** (7 / 6) * 2.0 ** (11 / 6) * integral
        assert rytov_variance(geom, scen) == pytest.approx(expected, rel=1e-10)

    def test_slant_constant_profile_matches_horizontal_form(self):
        # With Cn2 ~ constant the path integral reduces to the 1.23 form.
        geom = LinkGeometry(distance_m=5000.0, tx_altitude_m=0.0, rx_altitude_m=2.0)
        scen = WeatherScenario(visibility_km=10.0, ground_cn2=1e-14)
        k = 2 * math.pi / geom.wavelength_m
        cn2 = hv_oracle(1.0, scen.wind_speed_ground, 1e-14)
        expected = 1.23 * cn2 * k ** (7 / 6) * 5000.0 ** (11 / 6)
        # ~1% slack: the profile itself varies ~2% over the 2 m span.
        assert rytov_variance(geom, scen) == pytest.approx(expected, rel=0.01)

    def test_altitude_gap_larger_than_distance_rejected(self):
        geom = LinkGeometry(distance_m=1000.0, rx_altitude_m=5000.0)
        with pytest.raises(ValueError):
            rytov_variance(geom, WeatherScenario(visibility_km=10.0))


class TestScintillationLoss:
    def test_zero_turbulence_needs_no_margin(self):
        assert scintillation_loss_db(0.0, 1e-3) == 0.0

    def test_median_margin_closed_form(self):
        # At p = 0.5 the margin is the median depth of the unit-mean
        # log-normal: 10 log10(e) * sigma^2 / 2.
        for rytov in (0.05, 0.2, 1.0):
            s2 = math.log1p(scintillation_index(rytov))
            expected = 10.0 * math.log10(math.e) * s2 / 2.0
            assert scintillation_loss_db(rytov, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_quantile(self):
        # Margin must match the empirical 1e-3 quantile of 1e7 unit-mean
        # log-normal draws within 0.1 dB.
        rytov = 0.2
        s2 = math.log1p(scintillation_index(rytov))
        rng = np.random.default_rng(20240817)
        draws = np.exp(rng.normal(-s2 / 2, math.sqrt(s2), 10_000_000))
        quantile = np.quantile(draws, 1e-3)
        expected = -10.0 * math.log10(quantile)
        assert scintillation_loss_db(rytov, 1e-3) == pytest.approx(expected, abs=0.1)

    def test_monotone_in_rytov_and_outage(self):
        margins = [scintillation_loss_db(r, 1e-3) for r in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(margins, margins[1:]))
        by_p = [scintillation_loss_db(0.2, p) for p in (1e-5, 1e-4, 1e-3, 1e-2, 0.4)]
        assert all(b <= a for a, b in zip(by_p, by_p[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            scintillation_loss_db(-0.1, 1e-3)
        with pytest.raises(ValueError):
            scintillation_loss_db(0.2, 0.0)
        with pytest.raises(ValueError):
            scintillation_loss_db(0.2, 0.6)


class TestFogAttenuation:
    def test_clear_visibility_value(self):
        # q = 1.3 in the 6..50 km regime.
        expected = 4.343 * (3.91 / 10.0) * (1550.0 / 550.0) ** (-1.3)
        assert fog_attenuation_db_per_km(10.0, 1550e-9) == pytest.approx(expected, rel=1e-12)

    def test_hazy_visibility_value(self):
        q = 0.585 * 3.0 ** (1 / 3)
        expected = 4.343 * (3.91 / 3.0) * (1550.0 / 550.0) ** (-q)
        assert fog_attenuation_db_per_km(3.0, 1550e-9) == pytest.approx(expected, rel=1e-12)

    def test_reference_wavelength_independent_of_q(self):
        for vis in (0.5, 3.0, 10.0, 80.0):
            assert fog_attenuation_db_per_km(vis, 550e-9) == pytest.approx(
                4.343 * 3.91 / vis, rel=1e-12
            )

    def test_regime_exponents_both_sides_of_six(self):
        lam = 1550e-9
        below = fog_attenuation_db_per_km(5.999999, lam)
        at = fog_attenuation_db_per_km(6.0, lam)
        q_below = 0.585 * 5.999999 ** (1 / 3)
        assert below == pytest.approx(
            4.343 * (3.91 / 5.999999) * (1550 / 550) ** (-q_below), rel=1e-9
        )
        assert at == pytest.approx(4.343 * (3.91 / 6.0) * (1550 / 550) ** (-1.3), rel=1e-9)

    def test_regime_switch_jump_is_bounded(self):
        # The two size-exponent laws do not meet at V = 6 km at 1550 nm;
        # the measured step is ~21.8% of the low-side value. Keep it
        # bounded and frozen so regressions show up.
        lam = 1550e-9
        lo = fog_attenuation_db_per_km(6.0 - 1e-9, lam)
        hi = fog_attenuation_db_per_km(6.0, lam)
        jump = abs(lo - hi) / lo
        assert jump == pytest.approx(0.2177, abs=0.002)
        assert jump < 0.25

    def test_monotone_decreasing_within_each_regime(self):
        lam = 1550e-9
        low = [fog_attenuation_db_per_km(v, lam) for v in np.linspace(0.2, 5.9, 30)]
        assert all(a > b for a, b in zip(low, low[1:]))
        mid = [fog_attenuation_db_per_km(v, lam) for v in np.linspace(6.0, 50.0, 30)]
        assert all(a > b for a, b in zip(mid, mid[1:]))

    def test_wavelength_warning_and_domain(self):
        with pytest.warns(UserWarning):
            fog_attenuation_db_per_km(10.0, 3000e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fog_attenuation_db_per_km(10.0, 1550e-9)
        with pytest.raises(ValueError):
            fog_attenuation_db_per_km(0.0, 1550e-9)


class TestRainAttenuation:
    def test_no_rain(self):
        assert rain_attenuation_db_per_km(0.0) == 0.0

    def test_power_law_value(self):
        assert rain_attenuation_db_per_km(10.0) == pytest.approx(
            1.076 * 10.0**0.67, rel=1e-12
        )

    def test_power_law_scaling(self):
        ratio = rain_attenuation_db_per_km(25.0) / rain_attenuation_db_per_km(12.5)
        assert ratio == pytest.approx(2**0.67, rel=1e-12)

    def test_monotone_and_domain(self):
        rates = [rain_attenuation_db_per_km(r) for r in (0.0, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        with pytest.raises(ValueError):
            rain_attenuation_db_per_km(-1.0)


class TestCloudAttenuation:
    def test_absent_layer(self):
        assert cloud_attenuation_db(None, 1550e-9) == 0.0

    def test_composition_with_fog_rate(self):
        layer = CloudLayer(thickness_m=100.0, equivalent_visibility_km=0.1)
        expected = 0.1 * fog_attenuation_db_per_km(0.1, 1550e-9)
        assert cloud_attenuation_db(layer, 1550e-9) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_thickness(self):
        thin = cloud_attenuation_db(CloudLayer(thickness_m=50.0), 1550e-9)
        thick = cloud_attenuation_db(CloudLayer(thickness_m=100.0), 1550e-9)
        assert thick == pytest.approx(2 * thin, rel=1e-12)

    def test_invariants(self):
        with pytest.raises(ValueError):
            CloudLayer(thickness_m=0.0)
        with pytest.raises(ValueError):
            CloudLayer(thickness_m=10.0, equivalent_visibility_km=0.0)


scenario_strategy = st.builds(
    WeatherScenario,
    visibility_km=st.floats(0.5, 60.0),
    wind_speed_ground=st.floats(0.0, 30.0),
    fog_layer_m=st.floats(0.0, 500.0),
    rain_layer_km=st.floats(0.0, 5.0),
    rain_rate=st.floats(0.0, 50.0),
    cloud=st.one_of(
        st.none(),
        st.builds(
            CloudLayer,
            thickness_m=st.floats(1.0, 500.0),
            equivalent_visibility_km=st.floats(0.01, 1.0),
        ),
    ),
    ground_cn2=st.floats(1e-17, 1e-13),
)


class TestTotalLoss:
    def test_clear_preset_has_only_margin_and_geometry(self):
        scen = WeatherScenario(visibility_km=10.0, wind_speed_ground=1.0)
        geom = LinkGeometry(distance_m=20000.0, rx_altitude_m=10000.0)
        breakdown = total_atmospheric_loss(scen, geom, 1e-3, rytov_variance(geom, scen))
        assert breakdown.l_fog_db == 0.0
        assert breakdown.l_rain_db == 0.0
        assert breakdown.l_cloud_db == 0.0
        assert breakdown.l_total_db == pytest.approx(
            breakdown.l_sci_db + breakdown.l_geometric_db, abs=1e-12
        )

    def test_hazy_preset_is_component_sum(self):
        scen = WeatherScenario(
            visibility_km=3.0,
            wind_speed_ground=6.0,
            fog_layer_m=50.0,
            rain_layer_km=1.0,
            rain_rate=10.0,
            ground_cn2=2e-13,
        )
        geom = LinkGeometry(distance_m=20000.0, rx_altitude_m=10000.0)
        breakdown = total_atmospheric_loss(scen, geom, 1e-3, rytov_variance(geom, scen))
        assert breakdown.l_fog_db == pytest.approx(
            fog_attenuation_db_per_km(3.0, geom.wavelength_m) * 0.05, rel=1e-12
        )
        assert breakdown.l_rain_db == pytest.approx(
            rain_attenuation_db_per_km(10.0) * 1.0, rel=1e-12
        )
        assert breakdown.l_sci_db == pytest.approx(
            scintillation_loss_db(rytov_variance(geom, scen), 1e-3), rel=1e-12
        )
        assert breakdown.l_total_db == pytest.approx(
            breakdown.l_sci_db
            + breakdown.l_fog_db
            + breakdown.l_rain_db
            + breakdown.l_cloud_db
            + breakdown.l_geometric_db,
            abs=1e-9,
        )

    def test_everything_vanishes_in_benign_limit(self):
        scen = WeatherScenario(visibility_km=50.0, ground_cn2=1e-30)
        # Oversized receive aperture makes the spreading loss negligible too.
        geom = LinkGeometry(
            distance_m=10.0,
            rx_aperture_m=5.0,
            beam_divergence_rad=1e-6,
        )
        breakdown = total_atmospheric_loss(scen, geom, 1e-3, rytov_variance(geom, scen))
        assert breakdown.l_total_db < 0.05

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenario_strategy)
    def test_additivity_property(self, scenario):
        geom = LinkGeometry(distance_m=20000.0, rx_altitude_m=10000.0)
        breakdown = total_atmospheric_loss(
            scenario, geom, 1e-3, rytov_variance(geom, scenario)
        )
        parts = (
            breakdown.l_sci_db,
            breakdown.l_fog_db,
            breakdown.l_rain_db,
            breakdown.l_cloud_db,
            breakdown.l_geometric_db,
        )
        assert all(p >= 0 for p in parts)
        assert breakdown.l_total_db == pytest.approx(sum(parts), abs=1e-9)

    def test_breakdown_validates_itself(self):
        with pytest.raises(ValueError):
            LossBreakdown(1.0, 0.0, 0.0, 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            LossBreakdown(-1.0, 0.0, 0.0, 0.0, 0.0, -1.0)


class TestGeometricLoss:
    def test_positive_and_shrinks_with_aperture(self):
        small = geometric_loss_db(LinkGeometry(distance_m=20000.0, rx_aperture_m=0.1))
        large = geometric_loss_db(LinkGeometry(distance_m=20000.0, rx_aperture_m=0.4))
        assert small > large > 0.0

    def test_capture_fraction_oracle(self):
        geom = LinkGeometry(distance_m=20000.0)
        w = math.hypot(0.025, 50e-6 * 20000.0)
        captured = 1.0 - math.exp(-2 * 0.1**2 / w**2)
        assert geometric_loss_db(geom) == pytest.approx(-10 * math.log10(captured), rel=1e-12)
