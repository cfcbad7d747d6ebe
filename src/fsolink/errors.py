"""Exception types shared across the simulator.

Precondition violations on plain values raise the builtin ``ValueError``;
the classes here mark runtime failures that callers may want to catch and
handle individually (the CLI maps them to exit code 1).
"""


class FsoLinkError(Exception):
    """Base class for runtime errors raised by this package."""


class TraceLengthError(FsoLinkError):
    """Requested trace exceeds the configured in-memory sample budget."""


class TraceTooShortError(FsoLinkError):
    """Channel trace does not cover the requested symbol duration."""


class MissingLevelError(FsoLinkError):
    """A symbol level has no received samples to compute statistics from."""


class CalibrationError(FsoLinkError):
    """Noise calibration landed outside the required operating band."""


class TrackingDivergedError(FsoLinkError):
    """Closed-loop residual left the detector for too many consecutive steps."""


class ConfigKeyError(FsoLinkError):
    """A config key, override or preset name is not recognized.

    The CLI reports it as a usage error (exit code 2).
    """


class UnknownAxisError(ConfigKeyError):
    """Sweep axis name is not a recognized numeric parameter: a usage error."""

    def __init__(self, axis: str, valid: list[str]):
        self.axis = axis
        self.valid = sorted(valid)
        super().__init__(
            f"unknown sweep axis {axis!r}; valid axes: {', '.join(self.valid)}"
        )


class PipelineStageError(FsoLinkError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")
