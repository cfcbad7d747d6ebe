"""Solar background noise and n-by-n spatial selective filtering.

Background light entering the receiver scales with its field of view.
Partitioning the aperture into n x n cells and keeping only the
brightest cell keeps most of a concentrated signal spot while cutting
the (uniform) background power by n^2, so the optical SNR never gets
worse and improves whenever the signal is nonuniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel_trace import constant_trace
from .errors import CalibrationError
from .modem import (
    BerReport,
    Pam4Config,
    RandomBits,
    calibrate_noise_std,
    check_n_symbols,
    derive_seeds,
    q_for_target_ber,
    transmit,
)
from .pat import gaussian_fraction

#: Largest ``beam_on_grid`` order: 4 GiB over the 8 B/cell it peaks at
#: (tracemalloc with ``filtered_snr``, n = 1000-3000: the float64 cells).
_MAX_PARTITION = math.isqrt((4 << 30) // 8)


@dataclass(frozen=True)
class SolarModel:
    """Receiver-side sky background parameters."""

    background_radiance: float = 0.02  # W m^-2 sr^-1 nm^-1, daylight sky at 1550 nm
    optical_bandwidth_nm: float = 1.0
    aperture_area_m2: float = 0.0314
    fov_sr: float = 1e-6

    def __post_init__(self):
        for name in (
            "background_radiance",
            "optical_bandwidth_nm",
            "aperture_area_m2",
            "fov_sr",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ApertureGrid:
    """n x n cell intensities plus the total background power over the aperture."""

    n: int
    signal_power: np.ndarray = field(repr=False)
    noise_power_total: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"partition order must be >= 1, got {self.n}")
        cells = np.asarray(self.signal_power, dtype=float)
        if cells.shape != (self.n, self.n):
            raise ValueError(
                f"signal_power must have shape ({self.n}, {self.n}), "
                f"got {cells.shape}"
            )
        # NaN fails the first test; neither makes an n x n mask.
        if not (np.min(cells) >= 0 and np.max(cells) < np.inf):
            raise ValueError("cell powers must be finite and >= 0")
        if self.noise_power_total <= 0:
            raise ValueError(
                f"noise_power_total must be > 0, got {self.noise_power_total}"
            )
        object.__setattr__(self, "signal_power", cells)


@dataclass(frozen=True)
class FilterSnr:
    """Optical SNR before/after selecting the brightest cell."""

    snr_unfiltered: float
    snr_filtered: float
    gain_db: float


@dataclass(frozen=True)
class FilterDemoScenario:
    """Concentrated-beam demo setup for the paired BER comparison, the
    ``filter`` section of a run config: the partition order n, a finite
    spot, the unfiltered BER to calibrate to, and ``modem.MIN_SYMBOLS`` to
    ``modem.MAX_SYMBOLS`` symbols. The demo keeps its own ``n_symbols``
    (1e6, against a link run's 1e7): it is a shorter run, not a second
    default for the same one. n is checked when its grid is built."""

    n: int = 2
    spot_center: tuple[float, float] = (0.25, 0.25)  # aperture units, center origin
    spot_radius: float = 0.35
    target_unfiltered_ber: float = 1e-3
    n_symbols: int = 1_000_000

    def __post_init__(self):
        if not all(map(math.isfinite, self.spot_center)):
            raise ValueError("spot_center must be finite")
        if not 0.0 < self.spot_radius < math.inf:
            raise ValueError("spot_radius must be finite and > 0")
        check_n_symbols(self.n_symbols)


@dataclass(frozen=True)
class FilterDemoResult:
    """Paired modem runs with selection off and on."""

    report_off: BerReport
    report_on: BerReport
    snr: FilterSnr
    noise_std_unfiltered: float
    noise_std_filtered: float
    grid: ApertureGrid


def solar_noise_power(model: SolarModel) -> float:
    """Background optical power: radiance x bandwidth x area x FoV (watts)."""
    return (
        model.background_radiance
        * model.optical_bandwidth_nm
        * model.aperture_area_m2
        * model.fov_sr
    )


def select_cell(grid: ApertureGrid) -> tuple[int, int]:
    """Index of the brightest cell; ties go to the lowest row-major index."""
    flat = int(np.argmax(grid.signal_power))
    return flat // grid.n, flat % grid.n


def filtered_snr(grid: ApertureGrid) -> FilterSnr:
    """SNR with and without keeping only the brightest of n^2 cells.

    Unfiltered: total signal over total noise. Filtered: selected-cell
    signal over noise/n^2. The gain is n^2 * max_cell / sum_cells, >= 1
    with equality only for a uniform grid.
    """
    total_signal = float(np.sum(grid.signal_power))
    row, col = select_cell(grid)
    selected = float(grid.signal_power[row, col])
    snr_u = total_signal / grid.noise_power_total
    snr_f = selected / (grid.noise_power_total / grid.n**2)
    if total_signal == 0.0:
        gain_db = 0.0
    else:
        gain_db = 10.0 * math.log10(snr_f / snr_u)
    return FilterSnr(snr_unfiltered=snr_u, snr_filtered=snr_f, gain_db=gain_db)


def beam_on_grid(
    n: int, spot_center: tuple[float, float], spot_radius: float
) -> ApertureGrid:
    """Integrate a unit-power Gaussian spot over the n x n cells of a unit aperture.

    The aperture spans [-1/2, 1/2]^2; row 0 is the top (+y) band and
    column 0 the left (-x) band. ``spot_radius`` is the 1/e^2 intensity
    radius in aperture units.
    """
    if spot_radius <= 0:
        raise ValueError(f"spot radius must be > 0, got {spot_radius}")
    if not 1 <= n <= _MAX_PARTITION:
        raise ValueError(f"n must be in [1, {_MAX_PARTITION}] (n x n cells in 4 GiB), got {n}")
    cx, cy = spot_center
    edges = np.linspace(-0.5, 0.5, n + 1)
    frac_x = gaussian_fraction(edges[:-1], edges[1:], cx, spot_radius)
    y_edges = edges[::-1]  # row 0 at the top
    frac_y = gaussian_fraction(y_edges[1:], y_edges[:-1], cy, spot_radius)
    return ApertureGrid(n=n, signal_power=np.outer(frac_y, frac_x))


def grid_from_csv(path) -> ApertureGrid:
    """Load a square CSV matrix of cell intensities."""
    cells = np.atleast_2d(np.loadtxt(path, delimiter=","))
    if cells.shape[0] != cells.shape[1]:
        raise ValueError(f"grid must be square, got shape {cells.shape}")
    return ApertureGrid(n=cells.shape[0], signal_power=cells)


def filtering_ber_demo(
    scenario: FilterDemoScenario,
    n: int,
    config: Pam4Config,
    seed: int,
    grid: ApertureGrid | None = None,
) -> FilterDemoResult:
    """Paired BER runs showing the effect of n x n selection.

    The AWGN operating point is calibrated so the unfiltered counted BER
    sits near the target (outside [target/2, 5 target] it raises
    ``CalibrationError``); the filtered run then scales the noise by the
    optical SNR ratio of the two configurations. Both runs are
    ``modem.transmit`` passes (each block cut at its own level means) on
    one noise seed, so selection off and on differ only through that
    scaling; n = 1 reproduces identical reports. A precomputed cell grid
    (e.g. from CSV) overrides the beam model and ``n``.
    """
    if grid is None:
        grid = beam_on_grid(n, scenario.spot_center, scenario.spot_radius)
    snr = filtered_snr(grid)
    if snr.snr_unfiltered == 0.0:
        raise ValueError("aperture grid has no signal: every cell power is 0")

    bits_seed, cal_seed, run_seed = derive_seeds(seed, 3)
    bits = RandomBits(scenario.n_symbols, bits_seed)
    trace = constant_trace(scenario.n_symbols / config.symbol_rate_hz)
    target_q = q_for_target_ber(scenario.target_unfiltered_ber)
    noise_std = calibrate_noise_std(bits, trace, target_q, cal_seed, config)

    gain_linear = snr.snr_filtered / snr.snr_unfiltered
    report_off, report_on = (
        transmit(bits, trace, std, run_seed, config)[1]
        for std in (noise_std, noise_std / gain_linear)
    )

    target = scenario.target_unfiltered_ber
    if not target / 2 <= report_off.ber_counted <= 5 * target:
        raise CalibrationError(
            f"unfiltered BER {report_off.ber_counted:.3g} is outside the "
            f"[{target / 2:.3g}, {5 * target:.3g}] calibration band"
        )
    return FilterDemoResult(
        report_off=report_off,
        report_on=report_on,
        snr=snr,
        noise_std_unfiltered=noise_std,
        noise_std_filtered=noise_std / gain_linear,
        grid=grid,
    )
