"""Free-space optical link simulator and fading channel emulator.

Modules
-------
atmosphere
    Deterministic losses: turbulence fade margin, fog/rain/cloud
    scattering, geometric spreading.
linkbudget
    Received power from transmit power and the loss stack.
channel_trace
    Seeded time-correlated fading traces (log-normal / gamma-gamma).
modem
    PAM-4 intensity modem, the link pass, and statistics-based BER estimation.
pat
    Quadrant-detector pointing/acquisition/tracking with multi-sampling.
spatial_filter
    Solar background noise and n-by-n aperture selection.
scenarios
    Run configuration dataclasses, their dict codec, and weather presets.
pipeline
    End-to-end runs, payload round trips, and parameter sweeps.
cli
    ``fsolink`` command-line entry point.
"""

__version__ = "0.1.0"

from .atmosphere import (
    CloudLayer,
    LinkGeometry,
    LossBreakdown,
    WeatherScenario,
    cn2_profile,
    cloud_attenuation_db,
    fog_attenuation_db_per_km,
    rain_attenuation_db_per_km,
    rytov_variance,
    scintillation_loss_db,
    total_atmospheric_loss,
)
from .channel_trace import (
    ChannelTrace,
    FadingModel,
    TraceStats,
    coherence_time,
    gamma_gamma_params,
    generate_trace,
    scintillation_index,
    trace_stats,
)
from .linkbudget import (
    LinkBudget,
    TransceiverOptics,
    optical_loss_db,
    pointing_loss_db,
    received_power_dbm,
)
from .modem import (
    BerReport,
    LevelStats,
    Pam4Config,
    apply_channel,
    count_ber,
    demodulate,
    estimate_ber_from_stats,
    eye_stats,
    modulate,
    transmit,
)
from .pat import (
    JitterParams,
    QdGeometry,
    QdReading,
    estimate_displacement,
    multisample_snr,
    qd_response,
    run_tracking_loop,
)
from .pipeline import RunConfig, RunReport, payload_roundtrip, run_endtoend, scenario_sweep
from .spatial_filter import (
    ApertureGrid,
    SolarModel,
    filtered_snr,
    filtering_ber_demo,
    select_cell,
    solar_noise_power,
)

__all__ = [name for name in dir() if not name.startswith("_")]
