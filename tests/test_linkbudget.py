import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsolink.atmosphere import LossBreakdown
from fsolink.linkbudget import (
    TransceiverOptics,
    optical_loss_db,
    pointing_loss_db,
    received_power_dbm,
)


def make_losses(sci=0.0, fog=0.0, rain=0.0, cloud=0.0, geom=0.0):
    return LossBreakdown(sci, fog, rain, cloud, geom, sci + fog + rain + cloud + geom)


class TestOpticalLoss:
    def test_nominal_operating_point(self):
        # eta_t * eta_r = 0.65 is the usual "about 2 dB" optics allowance.
        assert optical_loss_db(0.8125, 0.8) == pytest.approx(1.87, abs=0.01)
        assert optical_loss_db(0.8125, 0.8) == pytest.approx(-10 * math.log10(0.65), rel=1e-12)

    def test_lossless_and_low_end(self):
        assert optical_loss_db(1.0, 1.0) == 0.0
        assert optical_loss_db(0.2, 1.0) == pytest.approx(-10 * math.log10(0.2), rel=1e-12)

    def test_symmetry(self):
        assert optical_loss_db(0.3, 0.9) == pytest.approx(optical_loss_db(0.9, 0.3), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.01, 1.0), b=st.floats(0.01, 1.0))
    def test_additive_in_efficiency_product(self, a, b):
        combined = optical_loss_db(min(a * b, 1.0), 1.0)
        assert combined == pytest.approx(
            optical_loss_db(a, 1.0) + optical_loss_db(b, 1.0), abs=1e-9
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            optical_loss_db(0.0, 1.0)
        with pytest.raises(ValueError):
            optical_loss_db(0.5, 1.5)


class TestPointingLoss:
    def test_perfect_alignment(self):
        assert pointing_loss_db(0.0, 100e-6) == 0.0

    def test_unspecified_error_uses_fixed_allowance(self):
        assert pointing_loss_db(None, 100e-6) == 2.0

    def test_error_at_half_angle(self):
        # theta_err equal to the 1/e^2 half-angle leaves exp(-2) of the
        # on-axis intensity: 8.686 dB.
        theta_b = 50e-6
        expected = -10.0 * math.log10(math.exp(-2.0))
        assert pointing_loss_db(theta_b, 100e-6) == pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing(self):
        values = [pointing_loss_db(t, 100e-6) for t in (0.0, 1e-6, 1e-5, 5e-5, 1e-4)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            pointing_loss_db(1e-6, 0.0)
        with pytest.raises(ValueError):
            pointing_loss_db(-1e-6, 100e-6)


class TestReceivedPower:
    def test_identity_link(self):
        optics = TransceiverOptics(tx_efficiency=1.0, rx_efficiency=1.0, tx_power_dbm=10.0)
        budget = received_power_dbm(optics, make_losses(), 100e-6)
        # Only the fixed pointing allowance remains.
        assert budget.p_r_dbm == pytest.approx(10.0 - 2.0, abs=1e-12)
        assert budget.l_o_db == 0.0

    def test_clear_style_budget_composition(self):
        optics = TransceiverOptics(tx_power_dbm=30.0)
        losses = make_losses(sci=4.3, geom=17.0)
        budget = received_power_dbm(optics, losses, 100e-6)
        expected = 30.0 - losses.l_total_db - 2.0 - optical_loss_db(0.8125, 0.8)
        assert budget.p_r_dbm == pytest.approx(expected, abs=1e-9)
        assert budget.snr_db == pytest.approx(budget.p_r_dbm - optics.noise_floor_dbm, abs=1e-12)

    def test_loss_delta_moves_power_exactly(self):
        optics = TransceiverOptics()
        base = received_power_dbm(optics, make_losses(sci=3.0), 100e-6)
        bumped = received_power_dbm(optics, make_losses(sci=3.0, fog=1.25), 100e-6)
        assert base.p_r_dbm - bumped.p_r_dbm == pytest.approx(1.25, abs=1e-12)

    def test_unknown_pointing_error_takes_the_default(self):
        budget = received_power_dbm(TransceiverOptics(), make_losses(), 100e-6)
        assert budget.l_p_db == pointing_loss_db(None, 100e-6) == 2.0

    def test_pointing_error_path_uses_divergence(self):
        optics = TransceiverOptics(pointing_error_rad=25e-6)
        budget = received_power_dbm(optics, make_losses(), beam_divergence_rad=100e-6)
        assert budget.l_p_db == pytest.approx(pointing_loss_db(25e-6, 100e-6), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        tx=st.floats(-10.0, 40.0),
        sci=st.floats(0.0, 30.0),
        fog=st.floats(0.0, 30.0),
        eta_t=st.floats(0.05, 1.0),
        eta_r=st.floats(0.05, 1.0),
    )
    def test_budget_identity_property(self, tx, sci, fog, eta_t, eta_r):
        optics = TransceiverOptics(
            tx_efficiency=eta_t, rx_efficiency=eta_r, tx_power_dbm=tx
        )
        budget = received_power_dbm(optics, make_losses(sci=sci, fog=fog), 100e-6)
        assert budget.p_r_dbm == pytest.approx(
            tx - budget.l_l_db - budget.l_p_db - budget.l_o_db, abs=1e-9
        )

    def test_budget_type_validates_identity(self):
        from fsolink.linkbudget import LinkBudget

        with pytest.raises(ValueError):
            LinkBudget(
                p_r_dbm=0.0, l_l_db=5.0, l_p_db=2.0, l_o_db=2.0, snr_db=0.0, tx_power_dbm=20.0
            )
