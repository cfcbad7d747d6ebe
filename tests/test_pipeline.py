import dataclasses
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from fsolink import atmosphere, modem, pipeline, scenarios
from fsolink.atmosphere import total_atmospheric_loss
from fsolink.channel_trace import coherence_time, generate_trace
from fsolink.errors import PipelineStageError, UnknownAxisError
from fsolink.linkbudget import received_power_dbm
from fsolink.modem import (
    apply_channel, count_ber, demodulate, derive_seeds, eye_stats, modulate, transmit,
)
from fsolink.pipeline import NoiseSpec, RunConfig
from fsolink.reporting import as_jsonable, report_to_json
from fsolink.spatial_filter import SolarModel, solar_noise_power


def make_config(preset="clear", **kwargs) -> RunConfig:
    cfg = scenarios.resolve_config(preset=preset)
    cfg.update(kwargs)
    return RunConfig.from_dict(cfg)


def quiet_config(n_symbols=20_000, seed=0) -> RunConfig:
    """Almost-zero turbulence, zero noise: the clean-channel case."""
    cfg = scenarios.resolve_config(preset="clear")
    cfg["scenario"]["ground_cn2"] = 1e-30
    cfg["geometry"]["distance_m"] = 100.0
    cfg["geometry"]["rx_altitude_m"] = 0.0
    cfg["n_symbols"] = n_symbols
    cfg["seed"] = seed
    cfg["noise"] = {"mode": "fixed_std", "noise_std": 0.0}
    return RunConfig.from_dict(cfg)


class TestRunEndToEnd:
    def test_clean_channel_is_error_free(self):
        report = pipeline.run_endtoend(quiet_config())
        assert report.ber.bit_errors == 0
        assert report.ber.ber_counted == 0.0
        assert report.noise_std == 0.0

    def test_clean_channel_payload_bits_round_trip(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 40_000, dtype=np.uint8)
        config = quiet_config()
        report, rx_bits = pipeline._run(config, bits)
        assert np.array_equal(rx_bits[: len(bits)], bits)
        assert report.pad_bits == 0

    def test_odd_payload_sets_pad_flag(self):
        bits = np.random.default_rng(8).integers(0, 2, 20_001, dtype=np.uint8)
        report, _ = pipeline._run(quiet_config(), bits)
        assert report.pad_bits == 1

    def test_auto_selects_log_normal_for_clear(self):
        report = pipeline.run_endtoend(make_config("clear", n_symbols=20_000))
        assert report.fading_kind == "log_normal"
        assert report.rytov_var < pipeline.LOG_NORMAL_RYTOV_LIMIT

    def test_auto_selects_gamma_gamma_for_hazy(self):
        report = pipeline.run_endtoend(make_config("hazy", n_symbols=20_000))
        assert report.fading_kind == "gamma_gamma"
        assert report.rytov_var >= pipeline.LOG_NORMAL_RYTOV_LIMIT

    def test_stage_composition_matches_manual(self):
        config = make_config(
            "clear",
            n_symbols=30_000,
            seed=11,
            noise={"mode": "fixed_std", "noise_std": 0.04},
        )
        report = pipeline.run_endtoend(config)

        losses = total_atmospheric_loss(
            config.scenario, config.geometry, config.outage_prob
        )
        budget = received_power_dbm(
            config.optics, losses, config.geometry.beam_divergence_rad
        )
        from fsolink.atmosphere import rytov_variance

        rytov = rytov_variance(config.geometry, config.scenario)
        tau0 = coherence_time(config.geometry, config.scenario.wind_speed_ground)
        model = pipeline.select_fading_model(config.fading, rytov)
        bits_seed, trace_seed, _, noise_seed = derive_seeds(config.seed, 4)
        bits = modem._unit_bits(0, config.n_symbols, bits_seed)
        labels, _ = modulate(bits)
        symbols = np.asarray(config.modem.levels)[labels]
        duration = len(symbols) / config.modem.symbol_rate_hz
        n_trace = pipeline._auto_trace_samples(len(symbols), duration, tau0)
        trace = generate_trace(model, tau0, n_trace / duration, duration, trace_seed)
        received = apply_channel(
            symbols, trace, 0.04, noise_seed, symbol_rate_hz=config.modem.symbol_rate_hz
        )
        means = eye_stats(received, labels).means
        rx_bits = demodulate(received, means)[: len(bits)]
        errors, _, manual_ber = count_ber(bits, rx_bits)

        assert report.losses.l_total_db == pytest.approx(losses.l_total_db, abs=1e-12)
        assert report.budget.p_r_dbm == pytest.approx(budget.p_r_dbm, abs=1e-12)
        assert report.ber.bit_errors == errors
        assert report.ber.ber_counted == pytest.approx(manual_ber, rel=1e-12)

    def test_estimate_tracks_count_under_drift(self):
        # A 100 m/s wind moves the fade within the 1 ms run (tau0 1.76 ms);
        # per-block cuts and per-block eye statistics follow it together.
        # Each seed draws its own fade, and only a deep one counts enough
        # errors to compare: every run of seeds 0-9 counting 100 or more
        # is checked (seeds 0, 7, 8 and 9, from 648 to 551 591 errors).
        cfg = scenarios.resolve_config(preset="hazy")
        cfg["scenario"]["wind_speed_ground"] = 100.0
        cfg["n_symbols"] = 2_000_000
        cfg["noise"] = {"mode": "fixed_std", "noise_std": 0.03}
        counted = []
        for seed in range(10):
            ber = pipeline.run_endtoend(RunConfig.from_dict({**cfg, "seed": seed})).ber
            if ber.bit_errors >= 100:
                counted.append(seed)
                assert abs(math.log10(ber.ber_estimated / ber.ber_counted)) <= 0.1, seed
        assert len(counted) >= 3

    def test_seed_changes_errors_within_binomial_dispersion(self, monkeypatch):
        # A clear run's fade is frozen, so a new seed's new fade moves the
        # BER far beyond binomial dispersion; the fade is held here (one
        # trace seed) and the seed redraws the bits and the noise.
        def held_fade(model, tau0, rate, duration, seed):
            return generate_trace(model, tau0, rate, duration, 0)

        monkeypatch.setattr(pipeline, "generate_trace", held_fade)
        base = dict(n_symbols=100_000, noise={"mode": "fixed_std", "noise_std": 0.05})
        r1 = pipeline.run_endtoend(make_config("clear", seed=1, **base))
        r2 = pipeline.run_endtoend(make_config("clear", seed=2, **base))
        assert r1.ber.bit_errors > 0 and r2.ber.bit_errors > 0
        assert r1.ber.bit_errors != r2.ber.bit_errors  # different error patterns
        pooled = (r1.ber.bit_errors + r2.ber.bit_errors) / (2 * r1.ber.bits_tx)
        spread = 3 * math.sqrt(2 * r1.ber.bits_tx * pooled)
        assert abs(r1.ber.bit_errors - r2.ber.bit_errors) <= spread

    def test_worker_count_invariant(self):
        base = dict(n_symbols=150_000, seed=9)
        r1 = pipeline.run_endtoend(make_config("clear", workers=1, **base))
        r4 = pipeline.run_endtoend(make_config("clear", workers=4, **base))
        a, b = as_jsonable(r1), as_jsonable(r4)
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b

    def test_report_is_byte_identical_at_any_worker_count(self):
        # Four whole blocks and a 1234-symbol tail: the last block draws a
        # partial bit and noise chunk, and calibration's 200 000 symbols end
        # inside a chunk the link pass draws whole.
        config = make_config("hazy", n_symbols=4 * (1 << 16) + 1234, seed=4)
        texts = {
            report_to_json(
                pipeline.run_endtoend(dataclasses.replace(config, workers=workers)),
                no_timestamp=True,
            )
            for workers in (1, 2, 3)
        }
        assert len(texts) == 1

    def test_random_run_memory_does_not_grow_with_the_run(self):
        # Random bits are drawn per block inside the link pass, so the run
        # holds no whole-run array: its traced peak (calibration's 200 000
        # symbols and one block's temporaries, about 5 MiB) stays within one
        # block's temporaries from 2e6 to 8e6 symbols.
        def peak(n_symbols):
            config = make_config("hazy", n_symbols=n_symbols)
            tracemalloc.start()
            try:
                pipeline.run_endtoend(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8_000_000) <= peak(2_000_000) + (3 << 20)

    def test_physical_noise_mode(self):
        solar = SolarModel()
        config = make_config(
            "clear",
            n_symbols=50_000,
            noise={"mode": "physical", "solar": None},
        )
        config = RunConfig(
            scenario=config.scenario,
            geometry=config.geometry,
            optics=config.optics,
            modem=config.modem,
            noise=NoiseSpec(mode="physical", solar=solar),
            n_symbols=50_000,
        )
        report = pipeline.run_endtoend(config)
        floor_w = 10 ** ((config.optics.noise_floor_dbm - 30) / 10)
        signal_w = 10 ** ((report.budget.p_r_dbm - 30) / 10)
        expected = (solar_noise_power(solar) + floor_w) / signal_w
        assert report.noise_std == pytest.approx(expected, rel=1e-12)

    def test_rytov_variance_computed_once_per_run(self, monkeypatch):
        calls = []
        original = atmosphere.rytov_variance

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "rytov_variance", counted)
        monkeypatch.setattr(atmosphere, "rytov_variance", counted)
        pipeline.run_endtoend(make_config("hazy", n_symbols=10_000))
        assert len(calls) == 1

    def test_stage_attribution_on_failure(self):
        # At 1e7 m/s of wind, 20 samples per coherence time over 1e8 symbols
        # is 5.68e7 samples, over the trace sample budget: the trace stage
        # must be named in the failure.
        bad = RunConfig.from_dict(scenarios.resolve_config(
            "clear", overrides=["scenario.wind_speed_ground=1e7", "n_symbols=100000000"]
        ))
        with pytest.raises(PipelineStageError) as info:
            pipeline.run_endtoend(bad)
        assert info.value.stage == "trace"

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            make_config("clear", n_symbols=5000)


class TestPayloadRoundtrip:
    def test_clean_channel_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        src.write_bytes(rng.bytes(200_000))
        report = pipeline.payload_roundtrip(src, quiet_config(n_symbols=1_000_000), dst)
        assert report.byte_errors == 0
        sent, received = (hashlib.sha256(p.read_bytes()).digest() for p in (src, dst))
        assert received == sent

    def test_byte_errors_follow_binomial_model(self, tmp_path):
        rng = np.random.default_rng(4)
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        n_bytes = 1 << 20
        src.write_bytes(rng.bytes(n_bytes))
        cfg = scenarios.resolve_config(preset="clear")
        cfg["noise"] = {"mode": "target_q", "target_q": 3.6428977627678496}  # ~1e-4
        cfg["seed"] = 6
        config = RunConfig.from_dict(cfg)
        report = pipeline.payload_roundtrip(src, config, dst)
        p_bit = report.ber.ber_counted
        assert report.ber.bit_errors >= 100
        p_byte = 1 - (1 - p_bit) ** 8
        expected = n_bytes * p_byte
        spread = 3 * math.sqrt(n_bytes * p_byte * (1 - p_byte))
        assert abs(report.byte_errors - expected) <= spread

    def test_constant_runs_transmit(self, tmp_path):
        # Blocks that hold one level take the other levels' whole-run means;
        # the decisions and the estimate must not run away on them.
        rng = np.random.default_rng(12)
        body = bytearray(rng.bytes(400_000))
        body[100_000 : 100_000 + (64 << 10)] = bytes(64 << 10)
        src = tmp_path / "in.bin"
        src.write_bytes(b"\xff" * 40_000 + bytes(body))
        config = make_config("clear", seed=5)
        assert config.noise.mode == "target_q"
        report = pipeline.payload_roundtrip(src, config, tmp_path / "out.bin")
        ber = report.ber
        assert ber.bit_errors >= 100
        assert abs(math.log10(ber.ber_estimated / ber.ber_counted)) <= 0.3

    def test_range_checked_before_unpacking(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the payload was unpacked")

        config = quiet_config()
        monkeypatch.setattr(modem, "MAX_SYMBOLS", 20_000)
        monkeypatch.setattr(np, "unpackbits", never)
        src = tmp_path / "in.bin"
        src.write_bytes(bytes(5001))
        with pytest.raises(ValueError, match=r"\[10000, 20000\].*got 20004$"):
            pipeline.payload_roundtrip(src, config, tmp_path / "out.bin")

    def test_missing_input_surfaces_path(self, tmp_path):
        with pytest.raises(OSError) as info:
            pipeline.payload_roundtrip(
                tmp_path / "absent.bin", quiet_config(), tmp_path / "out.bin"
            )
        assert "absent.bin" in str(info.value)


class TestScenarioSweep:
    def test_visibility_sweep_orders_losses(self):
        config = make_config("hazy", n_symbols=20_000)
        rows = pipeline.scenario_sweep(config, "scenario.visibility_km", [3.0, 10.0])
        assert rows[0]["l_total_db"] > rows[1]["l_total_db"]
        assert [r["value"] for r in rows] == [3.0, 10.0]

    def test_pat_axis_residual_decreases_with_m(self):
        config = make_config("clear", n_symbols=20_000)
        rows = pipeline.scenario_sweep(config, "pat.m", [1, 10])
        assert rows[1]["residual_rms_m"] < rows[0]["residual_rms_m"]

    def test_empty_values(self):
        config = make_config("clear", n_symbols=20_000)
        assert pipeline.scenario_sweep(config, "scenario.visibility_km", []) == []

    def test_unknown_axis_lists_valid_names(self):
        config = make_config("clear", n_symbols=20_000)
        with pytest.raises(UnknownAxisError) as info:
            pipeline.scenario_sweep(config, "scenario.bogus", [1.0])
        assert "scenario.visibility_km" in str(info.value)
        assert "pat.m" in pipeline.sweep_axes(config)

    def test_axes_are_numeric_non_bool_leaves(self):
        axes = pipeline.sweep_axes(make_config("clear", n_symbols=20_000))
        assert pipeline._numeric_leaves({"flag": True, "n": 2}) == ["n"]
        assert "n_symbols" in axes
        assert "workers" not in axes and "noise.noise_std" not in axes

    def test_swept_run_decodes_like_a_config_file(self):
        config = make_config("clear", n_symbols=20_000, workers=2)
        rows = pipeline.scenario_sweep(config, "n_symbols", [2e4])
        direct = pipeline.run_endtoend(dataclasses.replace(config, n_symbols=20_000))
        assert rows[0]["ber_counted"] == direct.ber.ber_counted
        with pytest.raises(ValueError, match="'seed'"):
            pipeline.scenario_sweep(config, "seed", [1.5])

    @pytest.mark.parametrize("axis, value", [
        ("scenario.visibility_km", 4.5), ("noise.target_q", 5), ("seed", 3.0),
        ("optics.tx_power_dbm", 12.25), ("modem.symbol_rate_hz", 1e9),
    ])
    def test_swept_value_replaces_the_decoded_field(self, axis, value):
        config = make_config("hazy", n_symbols=20_000, workers=2)
        swept = scenarios.replace_value(config, axis, value)
        encoded = scenarios.merge_config(config.to_dict(), scenarios.dotted_overlay(axis, value))
        assert swept == dataclasses.replace(RunConfig.from_dict(encoded), workers=2)

    def test_swept_value_is_checked_like_a_config_file(self):
        config = make_config("clear", n_symbols=20_000)
        with pytest.raises(ValueError, match="config key 'seed' must be int, got 1.5"):
            scenarios.replace_value(config, "seed", 1.5)
        with pytest.raises(ValueError, match="'scenario.visibility_km' must be finite"):
            pipeline.scenario_sweep(config, "scenario.visibility_km", [math.inf])
        with pytest.raises(ValueError, match="visibility"):
            pipeline.scenario_sweep(config, "scenario.visibility_km", [-1.0])


def count_link_passes(monkeypatch) -> list:
    """Record one entry per ``modem.transmit`` call the pipeline makes."""
    passes = []

    def counted(*args, **kwargs):
        passes.append(1)
        return transmit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "transmit", counted)
    return passes


def point_rows(config: RunConfig, axis: str, values) -> list[dict]:
    """The sweep's rows, each from its own ``run_endtoend``."""
    section, key = axis.split(".")
    rows = []
    for value in values:
        part = dataclasses.replace(getattr(config, section), **{key: value})
        report = pipeline.run_endtoend(dataclasses.replace(config, **{section: part}))
        rows.append({
            "axis": axis,
            "value": value,
            "l_total_db": report.losses.l_total_db,
            "l_sci_db": report.losses.l_sci_db,
            "p_r_dbm": report.budget.p_r_dbm,
            "rytov_var": report.rytov_var,
            "fading_kind": report.fading_kind,
            "noise_std": report.noise_std,
            "ber_counted": report.ber.ber_counted,
            "ber_estimated": report.ber.ber_estimated,
        })
    return rows


class TestSweepSharesLinkPasses:
    @pytest.mark.parametrize("noise, axis, values", [
        ({}, "scenario.visibility_km", [1.0, 3.0, 10.0]),
        ({"mode": "fixed_std", "noise_std": 0.05}, "optics.tx_power_dbm", [20.0, 30.0, 40.0]),
    ])
    def test_loss_axis_runs_one_pass(self, monkeypatch, noise, axis, values):
        config = make_config("hazy", n_symbols=20_000, seed=3, noise=noise)
        passes = count_link_passes(monkeypatch)
        rows = pipeline.scenario_sweep(config, axis, values)
        assert len(passes) == 1
        assert len({row["p_r_dbm"] for row in rows}) == len(values)
        assert repr(rows) == repr(point_rows(config, axis, values))

    @pytest.mark.parametrize("noise, axis, values", [
        ({}, "scenario.ground_cn2", [1e-14, 1e-13, 2e-13]),
        ({}, "scenario.wind_speed_ground", [2.0, 6.0]),
        ({"mode": "physical"}, "scenario.visibility_km", [1.0, 3.0, 10.0]),
    ])
    def test_link_axis_runs_one_pass_per_point(self, monkeypatch, noise, axis, values):
        config = make_config("hazy", n_symbols=20_000, seed=3, noise=noise)
        passes = count_link_passes(monkeypatch)
        rows = pipeline.scenario_sweep(config, axis, values)
        assert len(passes) == len(values)
        assert repr(rows) == repr(point_rows(config, axis, values))

    def test_no_pass_outlives_its_sweep(self, monkeypatch):
        config = make_config("hazy", n_symbols=20_000)
        passes = count_link_passes(monkeypatch)
        first = pipeline.scenario_sweep(config, "scenario.visibility_km", [2.0, 4.0])
        second = pipeline.scenario_sweep(config, "scenario.visibility_km", [2.0, 4.0])
        assert len(passes) == 2
        assert repr(first) == repr(second)
        pipeline.run_endtoend(config)
        pipeline.run_endtoend(config)
        assert len(passes) == 4

    def test_unreachable_target_names_noise_stage(self):
        config = make_config("hazy", n_symbols=20_000, noise={"target_q": 1e9})
        with pytest.raises(PipelineStageError) as info:
            pipeline.scenario_sweep(config, "scenario.visibility_km", [2.0, 4.0])
        assert info.value.stage == "noise"

    def test_transmit_failure_names_transmit_stage(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("link down")

        monkeypatch.setattr(pipeline, "transmit", broken)
        config = make_config("hazy", n_symbols=20_000)
        with pytest.raises(PipelineStageError, match="link down") as info:
            pipeline.scenario_sweep(config, "scenario.visibility_km", [2.0, 4.0])
        assert info.value.stage == "transmit"


class TestRunConfig:
    def test_round_trip_through_dict(self):
        config = make_config("hazy", seed=42, n_symbols=12_345)
        echoed = config.to_dict()
        assert echoed["scenario"]["visibility_km"] == 3.0
        assert echoed["seed"] == 42
        assert echoed["n_symbols"] == 12_345
        assert "workers" not in echoed
        rebuilt = RunConfig.from_dict(echoed)
        assert rebuilt == config

    def test_defaults_are_the_dataclass_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()
        assert RunConfig.from_dict(scenarios.default_config()) == RunConfig()
        assert scenarios.preset_config("clear") == {}

    def test_optional_sections_decode_to_dataclasses(self):
        config = RunConfig.from_dict({
            "scenario": {"visibility_km": 2, "cloud": {"thickness_m": 100}},
            "noise": {"mode": "physical", "solar": {"fov_sr": 2e-6}},
            "modem": {"levels": [0, 0.25, 0.5, 1]},
        })
        assert config.scenario.cloud == atmosphere.CloudLayer(thickness_m=100.0)
        assert config.noise.solar == SolarModel(fov_sr=2e-6)
        assert config.modem.levels == (0.0, 0.25, 0.5, 1.0)
        assert isinstance(config.scenario.visibility_km, float)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config("clear", fading="bogus")
        with pytest.raises(ValueError):
            NoiseSpec(mode="fixed_std", noise_std=None)
        with pytest.raises(ValueError):
            NoiseSpec(mode="of-course-not")

    def test_settable_value_count(self):
        # Each leaf of the encoded defaults is one settable value (a list or
        # None counts once); adding or retiring a config key changes this
        # list on purpose.
        def leaves(cfg: dict, prefix: str = ""):
            for key, value in cfg.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(leaves(scenarios.default_config())) == [
            "fading",
            "geometry.beam_divergence_rad", "geometry.distance_m",
            "geometry.rx_altitude_m", "geometry.rx_aperture_m",
            "geometry.tx_altitude_m", "geometry.tx_aperture_m",
            "geometry.wavelength_m",
            "modem.levels", "modem.symbol_rate_hz",
            "n_symbols",
            "noise.mode", "noise.noise_std", "noise.solar", "noise.target_q",
            "optics.noise_floor_dbm", "optics.pointing_error_rad",
            "optics.rx_efficiency", "optics.tx_efficiency", "optics.tx_power_dbm",
            "outage_prob",
            "scenario.cloud", "scenario.fog_layer_m", "scenario.ground_cn2",
            "scenario.rain_layer_km", "scenario.rain_rate", "scenario.visibility_km",
            "scenario.wind_speed_ground",
            "seed",
            "workers",
        ]

    def test_integer_beyond_float_range_rejected(self):
        huge = {"scenario": {"visibility_km": 10**400}}
        with pytest.raises(ValueError, match="'scenario.visibility_km' must be finite"):
            scenarios.decode(RunConfig, huge)

    def test_worker_bound(self):
        # Checked on the config alone: no run, pool or thread is started.
        threads = threading.active_count()
        limit = modem.MAX_WORKERS
        assert RunConfig(workers=limit).workers == limit
        for workers in (0, limit + 1):
            with pytest.raises(ValueError, match=rf"workers must be in \[1, {limit}\]"):
                RunConfig(workers=workers)
        with pytest.raises(ValueError, match="workers"):
            RunConfig.from_dict({"workers": limit + 1})
        assert threading.active_count() == threads

    def test_symbol_budget(self):
        # Constructing a config allocates nothing; the budget is checked first.
        limit = modem.MAX_SYMBOLS
        assert RunConfig(n_symbols=limit).n_symbols == limit
        with pytest.raises(ValueError, match="n_symbols"):
            RunConfig(n_symbols=limit + 1)
