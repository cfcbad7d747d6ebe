"""Bundled weather presets and layered configuration handling.

Configurations are plain JSON-compatible dicts whose keys mirror the
domain dataclass fields (units are part of the key names); a layer may
only set keys the built-in defaults have. Precedence, lowest to highest:
built-in defaults, named preset, config file, CLI overrides.
"""

from __future__ import annotations

import copy
import json
from typing import Any

from .atmosphere import CloudLayer, LinkGeometry, WeatherScenario
from .errors import ConfigKeyError
from .linkbudget import TransceiverOptics
from .modem import Pam4Config

#: Shared 20 km ground-to-platform uplink geometry used by both presets.
_PRESET_GEOMETRY = {
    "distance_m": 20000.0,
    "tx_altitude_m": 0.0,
    "rx_altitude_m": 10000.0,
    "wavelength_m": 1550e-9,
    "tx_aperture_m": 0.05,
    "rx_aperture_m": 0.2,
    "beam_divergence_rad": 100e-6,
    "rx_fov_sr": 1e-6,
}

PRESETS: dict[str, dict[str, Any]] = {
    "clear": {
        "note": (
            "clear weather, 20 km link: 10 km visibility, 1 m/s ground wind, "
            "no fog/rain layers; weak turbulence (log-normal fading)"
        ),
        "config": {
            "scenario": {
                "visibility_km": 10.0,
                "wind_speed_ground": 1.0,
                "fog_layer_m": 0.0,
                "rain_layer_km": 0.0,
                "rain_rate": 0.0,
                "cloud": None,
                "ground_cn2": 1.7e-14,
            },
            "geometry": dict(_PRESET_GEOMETRY),
        },
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
                "cloud": None,
                "ground_cn2": 2e-13,
            },
            "geometry": dict(_PRESET_GEOMETRY),
        },
    },
}


def default_config() -> dict[str, Any]:
    """Built-in baseline configuration (clear-weather values)."""
    return {
        "scenario": {
            "visibility_km": 10.0,
            "wind_speed_ground": 1.0,
            "fog_layer_m": 0.0,
            "rain_layer_km": 0.0,
            "rain_rate": 0.0,
            "cloud": None,
            "ground_cn2": 1.7e-14,
        },
        "geometry": dict(_PRESET_GEOMETRY),
        "optics": {
            "tx_efficiency": 0.8125,
            "rx_efficiency": 0.8,
            "tx_power_dbm": 30.0,
            "pointing_error_rad": None,
            "responsivity_a_per_w": 0.9,
            "noise_floor_dbm": -40.0,
        },
        "modem": {
            "symbol_rate_hz": 2e9,
            "levels": [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0],
            "gray_mapping": True,
            "samples_per_symbol": 1,
        },
        "fading": "auto",
        "seed": 0,
        "n_symbols": 10_000_000,
        "noise": {
            "mode": "target_q",
            "target_q": 3.7,
            "noise_std": None,
            "solar": None,
        },
        "outage_prob": 1e-3,
        "trace_rate_hz": None,
        "workers": 1,
        "payload": None,
    }


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_config(name: str) -> dict[str, Any]:
    if name not in PRESETS:
        raise ConfigKeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return copy.deepcopy(PRESETS[name]["config"])


def preset_note(name: str) -> str:
    return PRESETS[name]["note"]


def load_config_file(path) -> dict[str, Any]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def merge_config(base: dict, overlay: dict, prefix: str = "") -> dict:
    """Recursive dict merge; overlay wins, nested dicts merge key-by-key.

    Overlay keys must already exist in ``base``; under a None default (an
    optional sub-object such as ``scenario.cloud``) any dict is accepted.
    """
    merged = copy.deepcopy(base)
    for key, value in overlay.items():
        if key not in merged:
            raise ConfigKeyError(
                f"config key {prefix + key!r} does not exist in the config"
            )
        if isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = merge_config(merged[key], value, f"{prefix}{key}.")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.key=value`` overrides; keys must already exist.

    Values are parsed as JSON where possible (numbers, booleans, null,
    lists) and fall back to plain strings.
    """
    result = copy.deepcopy(config)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigKeyError(f"override {item!r} is not of the form key=value")
        node = result
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigKeyError(
                    f"override key {key!r} does not exist in the config"
                )
            if node[part] is None:
                node[part] = {}
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigKeyError(f"override key {key!r} does not exist in the config")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node[leaf] = value
    return result


def resolve_config(
    preset: str | None = None,
    config_file=None,
    overrides: list[str] | None = None,
) -> dict[str, Any]:
    """Layer defaults, preset, config file, and overrides into one dict.

    Every layer may only set keys the built-in defaults already have.
    """
    config = default_config()
    if preset is not None:
        config = merge_config(config, preset_config(preset))
    if config_file is not None:
        config = merge_config(config, load_config_file(config_file))
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def build_scenario(d: dict) -> WeatherScenario:
    cloud = d.get("cloud")
    return WeatherScenario(
        visibility_km=float(d["visibility_km"]),
        wind_speed_ground=float(d.get("wind_speed_ground", 1.0)),
        fog_layer_m=float(d.get("fog_layer_m", 0.0)),
        rain_layer_km=float(d.get("rain_layer_km", 0.0)),
        rain_rate=float(d.get("rain_rate", 0.0)),
        cloud=None
        if cloud is None
        else CloudLayer(
            thickness_m=float(cloud["thickness_m"]),
            equivalent_visibility_km=float(
                cloud.get("equivalent_visibility_km", 0.1)
            ),
        ),
        ground_cn2=float(d.get("ground_cn2", 1.7e-14)),
    )


def build_geometry(d: dict) -> LinkGeometry:
    return LinkGeometry(
        distance_m=float(d["distance_m"]),
        tx_altitude_m=float(d.get("tx_altitude_m", 0.0)),
        rx_altitude_m=float(d.get("rx_altitude_m", 0.0)),
        wavelength_m=float(d.get("wavelength_m", 1550e-9)),
        tx_aperture_m=float(d.get("tx_aperture_m", 0.05)),
        rx_aperture_m=float(d.get("rx_aperture_m", 0.2)),
        beam_divergence_rad=float(d.get("beam_divergence_rad", 100e-6)),
        rx_fov_sr=float(d.get("rx_fov_sr", 1e-6)),
    )


def build_optics(d: dict) -> TransceiverOptics:
    pointing = d.get("pointing_error_rad")
    return TransceiverOptics(
        tx_efficiency=float(d.get("tx_efficiency", 0.8125)),
        rx_efficiency=float(d.get("rx_efficiency", 0.8)),
        tx_power_dbm=float(d.get("tx_power_dbm", 30.0)),
        pointing_error_rad=None if pointing is None else float(pointing),
        responsivity_a_per_w=float(d.get("responsivity_a_per_w", 0.9)),
        noise_floor_dbm=float(d.get("noise_floor_dbm", -40.0)),
    )


def build_modem(d: dict) -> Pam4Config:
    return Pam4Config(
        symbol_rate_hz=float(d.get("symbol_rate_hz", 2e9)),
        levels=tuple(float(x) for x in d.get("levels", (0.0, 1 / 3, 2 / 3, 1.0))),
        gray_mapping=bool(d.get("gray_mapping", True)),
        samples_per_symbol=int(d.get("samples_per_symbol", 1)),
    )
