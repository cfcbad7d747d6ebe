"""Run configuration: the config dataclasses, their dict codec, and presets.

A configuration is a plain JSON-compatible dict whose keys are the field
names of ``RunConfig`` and the dataclasses it nests (units are part of the
key names). ``decode`` turns such a dict into a ``RunConfig`` and is the
one place keys and value types are checked; ``reporting.as_jsonable`` is
the encoder. Defaults live only in the dataclass fields. Layers are merged
as sparse overlays, lowest to highest precedence: built-in defaults, named
preset, config file, ``dotted.key=value`` overrides.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass
from typing import Any

from .atmosphere import LinkGeometry, WeatherScenario
from .errors import ConfigKeyError
from .linkbudget import TransceiverOptics
from .modem import MAX_WORKERS, Pam4Config, check_n_symbols
from .reporting import as_jsonable
from .spatial_filter import SolarModel

#: Resolving a class's string annotations costs about 0.1 ms; do it once.
_type_hints = functools.cache(typing.get_type_hints)


@dataclass(frozen=True)
class NoiseSpec:
    """How the modem noise level is chosen.

    ``target_q`` calibrates noise_std by bisection until the mean eye
    Q-factor hits the target (the receiver's absolute noise being a free
    parameter of the emulation). ``fixed_std`` uses the given value
    directly. ``physical`` derives a noise-to-signal ratio from the solar
    background plus the receiver noise floor against the received power.
    """

    mode: str = "target_q"
    target_q: float = 3.7
    noise_std: float | None = None
    solar: SolarModel | None = None

    def __post_init__(self):
        if self.mode not in ("target_q", "fixed_std", "physical"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "target_q" and self.target_q <= 0:
            raise ValueError(f"target_q must be > 0, got {self.target_q}")
        if self.mode == "fixed_std":
            if self.noise_std is None or self.noise_std < 0:
                raise ValueError("fixed_std mode needs noise_std >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one end-to-end run (clear weather, 20 km
    ground-to-platform uplink by default)."""

    scenario: WeatherScenario = WeatherScenario(visibility_km=10.0)
    geometry: LinkGeometry = LinkGeometry(distance_m=20000.0, rx_altitude_m=10000.0)
    optics: TransceiverOptics = TransceiverOptics()
    modem: Pam4Config = Pam4Config()
    noise: NoiseSpec = NoiseSpec()
    fading: str = "auto"
    seed: int = 0
    n_symbols: int = 10_000_000
    outage_prob: float = 1e-3
    workers: int = 1

    def __post_init__(self):
        if self.fading not in ("auto", "log_normal", "gamma_gamma"):
            raise ValueError(f"unknown fading selection {self.fading!r}")
        check_n_symbols(self.n_symbols)
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {self.workers}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        return decode(cls, cfg)

    def to_dict(self) -> dict:
        cfg = as_jsonable(self)
        # Worker count is an execution knob with no effect on results;
        # keeping it out of the echo keeps reports byte-identical.
        cfg.pop("workers")
        return cfg


def decode(cls, data, key: str = ""):
    """Build dataclass ``cls`` from a JSON-style dict at dotted path ``key``.

    Absent keys take the field default. An unknown or missing required key
    raises ``ConfigKeyError``; a value of the wrong type, a non-finite
    float or an integer beyond the float range raises ``ValueError``. Both
    name the dotted key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config key {key!r} must be an object, got {data!r}")
    prefix = f"{key}." if key else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name in data:
        if name not in fields:
            raise ConfigKeyError(f"config key {prefix + name!r} does not exist")
    hints = _type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in data:
            kwargs[name] = _decode_value(hints[name], data[name], prefix + name)
        elif f.default is dataclasses.MISSING:
            raise ConfigKeyError(f"config key {prefix + name!r} is required")
    return cls(**kwargs)


def _decode_value(hint, value, key: str):
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, key)
    if isinstance(value, dict) and value:
        unknown = f"{key}.{next(iter(value))}"
        raise ConfigKeyError(f"config key {unknown!r} does not exist")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ValueError(
                f"config key {key!r} must be a list of {len(args)} values, got {value!r}"
            )
        return tuple(
            _decode_value(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is float and number:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite, got {value!r}")
        return value
    if hint is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if hint is str and isinstance(value, str):
        return value
    raise ValueError(f"config key {key!r} must be {hint.__name__}, got {value!r}")


def replace_value(config, key: str, value, prefix: str = ""):
    """``config`` with the field at dotted ``key`` set to ``value``, the value
    checked as ``decode`` checks it and every dataclass along the path
    rebuilt, so each one's own checks run again."""
    name, _, rest = key.partition(".")
    if rest:
        value = replace_value(getattr(config, name), rest, value, f"{prefix}{name}.")
    else:
        value = _decode_value(_type_hints(type(config))[name], value, prefix + name)
    return dataclasses.replace(config, **{name: value})


PRESETS: dict[str, dict[str, Any]] = {
    "clear": {
        "note": (
            "clear weather, 20 km link: 10 km visibility, 1 m/s ground wind, "
            "no fog/rain layers; weak turbulence (log-normal fading)"
        ),
        "config": {},
    },
    "hazy": {
        "note": (
            "hazy weather, 20 km link: 3 km visibility, 6 m/s ground wind, "
            "50 m fog layer, 1 km rain cell; strong ground turbulence "
            "(gamma-gamma fading)"
        ),
        "config": {
            "scenario": {
                "visibility_km": 3.0,
                "wind_speed_ground": 6.0,
                "fog_layer_m": 50.0,
                "rain_layer_km": 1.0,
                "rain_rate": 10.0,
                "ground_cn2": 2e-13,
            },
        },
    },
}


def default_config() -> dict[str, Any]:
    """Built-in baseline configuration: the encoded ``RunConfig`` field
    defaults, read without validating a default run; the resolved config is
    checked when it is decoded."""
    return {f.name: as_jsonable(f.default) for f in dataclasses.fields(RunConfig)}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> dict[str, Any]:
    """The preset's overlay on the defaults."""
    if name not in PRESETS:
        raise ConfigKeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return copy.deepcopy(PRESETS[name]["config"])


def preset_note(name: str) -> str:
    return PRESETS[name]["note"]


def load_config_file(path) -> dict[str, Any]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also Python's integer-string digit limit
            raise ValueError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def merge_config(base: dict, overlay: dict) -> dict:
    """Recursive dict merge; overlay wins, nested dicts merge key-by-key."""
    merged = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(merged.get(key), dict) and isinstance(value, dict):
            merged[key] = merge_config(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def dotted_overlay(key: str, value) -> dict:
    """``"a.b", v`` -> ``{"a": {"b": v}}``."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Merge ``dotted.key=value`` overrides into ``config``.

    Values are parsed as JSON where possible (numbers, booleans, null,
    lists, objects) and fall back to plain strings.
    """
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigKeyError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except ValueError as exc:  # Python's integer-string digit limit
            raise ValueError(f"config key {key!r}: {exc}") from exc
        config = merge_config(config, dotted_overlay(key, value))
    return config


def resolve_config(
    preset: str | None = None,
    config_file=None,
    overrides: list[str] | None = None,
) -> dict[str, Any]:
    """Layer defaults, preset, config file, and overrides into one dict.

    Keys and values are checked when the result is decoded
    (``RunConfig.from_dict``).
    """
    config = default_config()
    if preset is not None:
        config = merge_config(config, preset_config(preset))
    if config_file is not None:
        config = merge_config(config, load_config_file(config_file))
    return apply_overrides(config, overrides or [])
