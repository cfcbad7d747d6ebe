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

Names are imported from their module, e.g.
``from fsolink.pipeline import run_endtoend``.
"""

__version__ = "0.1.0"
