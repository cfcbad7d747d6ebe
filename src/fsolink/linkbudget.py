"""Link budget: transmit power minus atmospheric, pointing, and optical losses.

Sign convention: every L_* value is a positive dB loss; subtraction happens
only in ``received_power_dbm``. Pure and stateless throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atmosphere import LossBreakdown

#: Lumped pointing loss used when no pointing error angle is supplied (dB).
DEFAULT_POINTING_LOSS_DB = 2.0


@dataclass(frozen=True)
class TransceiverOptics:
    """Transmitter/receiver optical chain parameters."""

    tx_efficiency: float = 0.8125
    rx_efficiency: float = 0.8
    tx_power_dbm: float = 30.0
    pointing_error_rad: float | None = None  # None -> fixed 2 dB pointing loss
    noise_floor_dbm: float = -40.0

    def __post_init__(self):
        if not 0.0 < self.tx_efficiency <= 1.0:
            raise ValueError(f"tx efficiency must be in (0, 1], got {self.tx_efficiency}")
        if not 0.0 < self.rx_efficiency <= 1.0:
            raise ValueError(f"rx efficiency must be in (0, 1], got {self.rx_efficiency}")
        if self.pointing_error_rad is not None and self.pointing_error_rad < 0:
            raise ValueError(
                f"pointing error must be >= 0, got {self.pointing_error_rad}"
            )


@dataclass(frozen=True)
class LinkBudget:
    """Received power and the losses that produced it."""

    p_r_dbm: float
    l_l_db: float
    l_p_db: float
    l_o_db: float
    snr_db: float
    tx_power_dbm: float

    def __post_init__(self):
        expected = self.tx_power_dbm - self.l_l_db - self.l_p_db - self.l_o_db
        if abs(self.p_r_dbm - expected) > 1e-9:
            raise ValueError("budget identity violated: p_r != tx - l_l - l_p - l_o")


def optical_loss_db(tx_efficiency: float, rx_efficiency: float) -> float:
    """Optics insertion loss -10 log10(eta_t * eta_r), reported as positive dB."""
    if not 0.0 < tx_efficiency <= 1.0 or not 0.0 < rx_efficiency <= 1.0:
        raise ValueError("efficiencies must be in (0, 1]")
    return -10.0 * math.log10(tx_efficiency * rx_efficiency)


def pointing_loss_db(
    pointing_error_rad: float | None, beam_divergence_rad: float
) -> float:
    """Pointing loss for a Gaussian beam, or the fixed default when unspecified.

    With theta_b = divergence/2 (the 1/e^2 half-angle), the intensity at
    angle theta_err off the beam axis falls by exp(-2 theta_err^2 / theta_b^2)
    (Farid & Hranilovic, J. Lightwave Technol. 25(7), 2007, in the limit of
    an aperture small against the beam), so the loss is
    10 log10(e) * 2 * (theta_err / theta_b)^2 = 8.686 * (theta_err / theta_b)^2 dB,
    zero at perfect alignment. A ``None`` error angle returns the lumped
    2 dB allowance.
    """
    if beam_divergence_rad <= 0:
        raise ValueError(f"beam divergence must be > 0, got {beam_divergence_rad}")
    if pointing_error_rad is None:
        return DEFAULT_POINTING_LOSS_DB
    if pointing_error_rad < 0:
        raise ValueError(f"pointing error must be >= 0, got {pointing_error_rad}")
    theta_b = 0.5 * beam_divergence_rad
    return 20.0 * math.log10(math.e) * (pointing_error_rad / theta_b) ** 2


def received_power_dbm(
    optics: TransceiverOptics,
    losses: LossBreakdown,
    beam_divergence_rad: float,
) -> LinkBudget:
    """Assemble the budget: p_r = tx - L_l - L_p - L_o.

    The pointing term is ``pointing_loss_db`` of the optics' pointing error
    at the given divergence (the fixed 2 dB default when the error is
    None). snr_db is the aggregate p_r minus the configured noise floor;
    the modem refines electrical SNR separately.
    """
    l_o = optical_loss_db(optics.tx_efficiency, optics.rx_efficiency)
    l_p = pointing_loss_db(optics.pointing_error_rad, beam_divergence_rad)
    p_r = optics.tx_power_dbm - losses.l_total_db - l_p - l_o
    return LinkBudget(
        p_r_dbm=p_r,
        l_l_db=losses.l_total_db,
        l_p_db=l_p,
        l_o_db=l_o,
        snr_db=p_r - optics.noise_floor_dbm,
        tx_power_dbm=optics.tx_power_dbm,
    )
