"""Deterministic atmospheric loss models for free-space optical links.

Combines a turbulence fade margin derived from a Hufnagel-Valley
refractive-index profile with visibility-driven scattering terms
(fog/haze, rain, cloud-as-dense-fog) and Gaussian-beam geometric
spreading. All losses are positive dB values; internal lengths are
meters, visibility is km at the API boundary. Every function here is
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.special import gammainc, ndtri

from .channel_trace import scintillation_index

_DB_PER_NEPER = 10.0 / math.log(10.0)  # 4.342944... dB per factor e

#: Altitude difference below which a path is treated as horizontal (m).
HORIZONTAL_TOLERANCE_M = 1.0


@dataclass(frozen=True)
class CloudLayer:
    """Cloud slab described by thickness and an equivalent in-cloud visibility."""

    thickness_m: float
    equivalent_visibility_km: float = 0.1

    def __post_init__(self):
        if self.thickness_m <= 0:
            raise ValueError(f"cloud thickness must be > 0, got {self.thickness_m}")
        if self.equivalent_visibility_km <= 0:
            raise ValueError(
                "cloud equivalent visibility must be > 0, "
                f"got {self.equivalent_visibility_km}"
            )


@dataclass(frozen=True)
class WeatherScenario:
    """Weather inputs for one link evaluation.

    Attributes
    ----------
    visibility_km : float
        Meteorological visibility V (km).
    wind_speed_ground : float
        Wind speed at 0 km altitude (m/s); drives both the high-altitude
        turbulence term and the channel coherence time.
    fog_layer_m : float
        Thickness of the fog/haze layer along the path (m).
    rain_layer_km : float
        Thickness of the rain cell along the path (km).
    rain_rate : float
        Rainfall rate (mm/h).
    cloud : CloudLayer | None
        Optional cloud slab crossed by the path.
    ground_cn2 : float
        Ground-level refractive-index structure parameter A (m^-2/3).
    """

    visibility_km: float
    wind_speed_ground: float = 1.0
    fog_layer_m: float = 0.0
    rain_layer_km: float = 0.0
    rain_rate: float = 0.0
    cloud: CloudLayer | None = None
    ground_cn2: float = 1.7e-14

    def __post_init__(self):
        if self.visibility_km <= 0:
            raise ValueError(f"visibility must be > 0, got {self.visibility_km}")
        if self.wind_speed_ground < 0:
            raise ValueError(f"wind speed must be >= 0, got {self.wind_speed_ground}")
        if self.fog_layer_m < 0:
            raise ValueError(f"fog layer must be >= 0, got {self.fog_layer_m}")
        if self.rain_layer_km < 0:
            raise ValueError(f"rain layer must be >= 0, got {self.rain_layer_km}")
        if self.rain_rate < 0:
            raise ValueError(f"rain rate must be >= 0, got {self.rain_rate}")
        if self.ground_cn2 <= 0:
            raise ValueError(f"ground Cn2 must be > 0, got {self.ground_cn2}")


@dataclass(frozen=True)
class LinkGeometry:
    """Transceiver geometry of one point-to-point link."""

    distance_m: float
    tx_altitude_m: float = 0.0
    rx_altitude_m: float = 0.0
    wavelength_m: float = 1550e-9
    tx_aperture_m: float = 0.05
    rx_aperture_m: float = 0.2
    beam_divergence_rad: float = 100e-6  # full angle at 1/e^2 intensity

    def __post_init__(self):
        if self.distance_m <= 0:
            raise ValueError(f"distance must be > 0, got {self.distance_m}")
        if self.wavelength_m <= 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength_m}")
        if self.tx_altitude_m < 0 or self.rx_altitude_m < 0:
            raise ValueError(
                f"altitudes must be >= 0, got {self.tx_altitude_m} and {self.rx_altitude_m}"
            )
        if self.tx_aperture_m <= 0 or self.rx_aperture_m <= 0:
            raise ValueError(
                f"apertures must be > 0, got {self.tx_aperture_m} and {self.rx_aperture_m}"
            )
        if self.beam_divergence_rad <= 0:
            raise ValueError(
                f"beam divergence must be > 0, got {self.beam_divergence_rad}"
            )


@dataclass(frozen=True)
class LossBreakdown:
    """Per-component positive dB losses; total equals their sum."""

    l_sci_db: float
    l_fog_db: float
    l_rain_db: float
    l_cloud_db: float
    l_geometric_db: float
    l_total_db: float

    def __post_init__(self):
        components = (
            self.l_sci_db,
            self.l_fog_db,
            self.l_rain_db,
            self.l_cloud_db,
            self.l_geometric_db,
        )
        for value in components:
            if value < 0:
                raise ValueError(f"loss components must be >= 0, got {value}")
        if abs(self.l_total_db - sum(components)) > 1e-9:
            raise ValueError("l_total_db must equal the sum of its components")


def _hv_terms(v: float, a0: float) -> tuple[tuple[float, int, float], ...]:
    """Hufnagel-Valley terms (c, p, H) of Cn2(h) = sum c h^p e^(-h/H), h in m:
    the wind term, with its (1e-5 h)^10 folded into c, background and ground."""
    return (
        (0.00594 * (v / 27.0) ** 2 * 1e-50, 10, 1000.0),
        (2.7e-16, 0, 1500.0),
        (a0, 0, 100.0),
    )


def cn2_profile(h: float, v: float, a0: float) -> float:
    """Hufnagel-Valley refractive-index structure parameter at altitude h.

    Parameters
    ----------
    h : float
        Altitude above ground (m).
    v : float
        Wind speed parameter (m/s); the standard profile folds the wind
        profile into this single value.
    a0 : float
        Ground-level Cn2 (m^-2/3).

    Returns
    -------
    float
        Cn2 at altitude h (m^-2/3), strictly positive.
    """
    if h < 0:
        raise ValueError(f"altitude must be >= 0, got {h}")
    if v < 0:
        raise ValueError(f"wind speed must be >= 0, got {v}")
    if a0 <= 0:
        raise ValueError(f"ground Cn2 must be > 0, got {a0}")
    return sum(c * h**p * math.exp(-h / scale) for c, p, scale in _hv_terms(v, a0))


def rytov_variance(geometry: LinkGeometry, scenario: WeatherScenario) -> float:
    """Rytov variance for the scenario's turbulence profile along the path.

    Horizontal paths (altitude difference below 1 m) use the closed form
    1.23 * Cn2 * k^(7/6) * L^(11/6). Slant paths use the slant-path closed
    form of the profile integral

        2.25 * k^(7/6) * (L / dh)^(11/6) * int Cn2(h) (h - h0)^(5/6) dh,

    which reduces exactly to the horizontal form for constant Cn2. With
    t = h - h0, each profile term c h^p e^(-h/H) integrates to
    c e^(-h0/H) sum_j C(p, j) h0^(p-j) H^a_j Gamma(a_j) P(a_j, dh/H), where
    a_j = j + 11/6 and P is the regularized lower incomplete gamma
    function. Every summand is positive, so nothing cancels.
    """
    k = 2.0 * math.pi / geometry.wavelength_m
    h_lo = min(geometry.tx_altitude_m, geometry.rx_altitude_m)
    h_hi = max(geometry.tx_altitude_m, geometry.rx_altitude_m)
    dh = h_hi - h_lo
    length = geometry.distance_m
    v = scenario.wind_speed_ground
    a0 = scenario.ground_cn2

    if dh < HORIZONTAL_TOLERANCE_M:
        h_mid = 0.5 * (h_lo + h_hi)
        cn2 = cn2_profile(h_mid, v, a0)
        return 1.23 * cn2 * k ** (7.0 / 6.0) * length ** (11.0 / 6.0)

    if dh > length:
        raise ValueError(
            f"altitude difference {dh} m exceeds link distance {length} m"
        )

    integral = 0.0
    for c, p, scale in _hv_terms(v, a0):
        for j in range(p + 1):
            a = j + 11.0 / 6.0
            integral += (
                c * math.exp(-h_lo / scale) * math.comb(p, j) * h_lo ** (p - j)
                * scale**a * math.gamma(a) * float(gammainc(a, dh / scale))
            )
    return (
        2.25 * k ** (7.0 / 6.0) * (length / dh) ** (11.0 / 6.0) * integral
    )


def scintillation_loss_db(rytov_var: float, outage_prob: float) -> float:
    """Log-normal fade margin for a target outage probability.

    The received intensity is modeled as unit-mean log-normal with
    sigma^2 = ln(1 + sigma_I^2). The margin is the depth in dB that the
    intensity undershoots with probability ``outage_prob``:

        L_sci = -10 log10( exp(-sigma^2/2 + sigma * Phi^-1(p)) )

    Zero turbulence needs no margin; the margin grows with turbulence
    strength and with stricter (smaller) outage targets.
    """
    if rytov_var < 0:
        raise ValueError(f"rytov_var must be >= 0, got {rytov_var}")
    if not 0.0 < outage_prob <= 0.5:
        raise ValueError(
            f"outage_prob must be in (0, 0.5], got {outage_prob}"
        )
    if rytov_var == 0.0:
        return 0.0
    sigma_i2 = scintillation_index(rytov_var)
    s2 = math.log1p(sigma_i2)
    ln_quantile = -0.5 * s2 + math.sqrt(s2) * float(ndtri(outage_prob))
    return -_DB_PER_NEPER * ln_quantile


def fog_attenuation_db_per_km(visibility_km: float, wavelength_m: float) -> float:
    """Visibility-based fog/haze scattering rate in dB/km.

    gamma = 4.343 * (3.91 / V) * (lambda_nm / 550)^(-q), with the size
    exponent q = 1.6 for V > 50 km, 1.3 for 6 <= V <= 50 km, and
    0.585 * V^(1/3) below 6 km. Evaluation at 550 nm is independent of q.
    """
    if visibility_km <= 0:
        raise ValueError(f"visibility must be > 0, got {visibility_km}")
    if not 500e-9 <= wavelength_m <= 2000e-9:
        warnings.warn(
            f"wavelength {wavelength_m * 1e9:.0f} nm is outside the validated "
            "500-2000 nm band for the visibility model",
            stacklevel=2,
        )
    if visibility_km > 50.0:
        q = 1.6
    elif visibility_km >= 6.0:
        q = 1.3
    else:
        q = 0.585 * visibility_km ** (1.0 / 3.0)
    wavelength_nm = wavelength_m * 1e9
    return 4.343 * (3.91 / visibility_km) * (wavelength_nm / 550.0) ** (-q)


def rain_attenuation_db_per_km(rain_rate: float) -> float:
    """Rain scattering rate 1.076 * R^0.67 in dB/km (rate R in mm/h)."""
    if rain_rate < 0:
        raise ValueError(f"rain rate must be >= 0, got {rain_rate}")
    if rain_rate == 0.0:
        return 0.0
    return 1.076 * rain_rate**0.67


def cloud_attenuation_db(layer: CloudLayer | None, wavelength_m: float) -> float:
    """Cloud slab loss: dense-fog rate at the equivalent visibility times thickness."""
    if layer is None:
        return 0.0
    rate = fog_attenuation_db_per_km(layer.equivalent_visibility_km, wavelength_m)
    return rate * layer.thickness_m / 1000.0


def geometric_loss_db(geometry: LinkGeometry) -> float:
    """Gaussian-beam spreading loss past the receive aperture.

    Far-field 1/e^2 beam radius w = hypot(tx_aperture/2, half_divergence * L);
    the captured fraction over a centered circular aperture of radius r is
    1 - exp(-2 r^2 / w^2).
    """
    half_divergence = 0.5 * geometry.beam_divergence_rad
    w = math.hypot(0.5 * geometry.tx_aperture_m, half_divergence * geometry.distance_m)
    r = 0.5 * geometry.rx_aperture_m
    captured = -math.expm1(-2.0 * r * r / (w * w))
    return -10.0 * math.log10(captured)


def total_atmospheric_loss(
    scenario: WeatherScenario,
    geometry: LinkGeometry,
    outage_prob: float,
    rytov_var: float,
) -> LossBreakdown:
    """Full loss breakdown for a scenario/geometry pair.

    Scattering rates are multiplied by their layer thicknesses; the
    scintillation margin is evaluated at the given outage probability
    (``RunConfig.outage_prob`` in a run) from ``rytov_var``, the path's
    ``rytov_variance(geometry, scenario)``, which the caller computes once;
    the total is the plain sum of all components.
    """
    wavelength = geometry.wavelength_m
    l_fog = (
        fog_attenuation_db_per_km(scenario.visibility_km, wavelength)
        * scenario.fog_layer_m
        / 1000.0
    )
    l_rain = rain_attenuation_db_per_km(scenario.rain_rate) * scenario.rain_layer_km
    l_cloud = cloud_attenuation_db(scenario.cloud, wavelength)
    l_sci = scintillation_loss_db(rytov_var, outage_prob)
    l_geom = geometric_loss_db(geometry)
    total = l_sci + l_fog + l_rain + l_cloud + l_geom
    return LossBreakdown(
        l_sci_db=l_sci,
        l_fog_db=l_fog,
        l_rain_db=l_rain,
        l_cloud_db=l_cloud,
        l_geometric_db=l_geom,
        l_total_db=total,
    )
