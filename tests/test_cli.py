import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from fsolink import cli, modem, pipeline, reporting, scenarios
from fsolink.cli import main
from fsolink.pat import LoopConfig, run_loop
from fsolink.reporting import as_jsonable
from fsolink.spatial_filter import FilterDemoScenario, filtering_ber_demo


def run_cli(*args):
    return main(list(args))


class TestDispatch:
    def test_budget_prints_table(self, capsys):
        assert run_cli("budget", "--scenario", "clear", "--set", "n_symbols=10000") == 0
        out = capsys.readouterr().out
        assert "scintillation_margin_db" in out
        assert "received_power_dbm" in out

    def test_budget_csv_and_json(self, tmp_path, capsys):
        assert run_cli("budget", "--scenario", "clear", "--format", "csv") == 0
        assert "component,value" in capsys.readouterr().out
        out = tmp_path / "budget.json"
        assert run_cli("budget", "--scenario", "clear", "--format", "json", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert "losses" in data and "budget" in data

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("budget", "--bogus-flag") == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_unknown_preset_is_usage_error(self, capsys):
        assert run_cli("budget", "--scenario", "fictional") == 2

    @pytest.mark.parametrize(
        "override, key",
        [
            ("scenario.bogus=1", "scenario.bogus"),
            ("scenario.cloud.thikness_m=100", "scenario.cloud.thikness_m"),
            ("noise.solar.fov=1e-6", "noise.solar.fov"),
            ("scenario.visibility_km.x=1", "scenario.visibility_km.x"),
            ("scenario.cloud={}", "scenario.cloud.thickness_m"),
            ("modem.gray_mapping=false", "modem.gray_mapping"),
            ("modem.samples_per_symbol=2", "modem.samples_per_symbol"),
            ("trace_rate_hz=20080000", "trace_rate_hz"),
            ("payload=f.bin", "payload"),
            ("pat.mm=1", "pat.mm"),
        ],
        ids=["unknown", "cloud-typo", "solar-typo", "below-leaf", "cloud-missing",
             "retired-gray-mapping", "retired-samples-per-symbol",
             "retired-trace-rate", "retired-payload", "pat-typo"],
    )
    def test_unknown_override_key_is_usage_error(self, override, key, capsys):
        assert run_cli("budget", "--scenario", "clear", "--set", override) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and key in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"scenario": {"visibilty_km": 4}}, "scenario.visibilty_km"),
            ({"scenario": {"cloud": {"thikness_m": 100}}}, "scenario.cloud.thikness_m"),
            ({"noise": {"solar": {"fov": 1e-6}}}, "noise.solar.fov"),
            ({"trace_rate_hz": 1e6}, "trace_rate_hz"),
            ({"payload": "f.bin"}, "payload"),
        ],
        ids=["scenario-typo", "cloud-typo", "solar-typo", "retired-trace-rate",
             "retired-payload"],
    )
    def test_misspelled_config_file_key_is_usage_error(
        self, config, key, tmp_path, capsys
    ):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        assert run_cli("budget", "--config", str(path)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key",
        [
            ("seed=true", "seed"),
            ("scenario.visibility_km=false", "scenario.visibility_km"),
            ("seed=1.5", "seed"),
            ("modem.levels=[0, 1]", "modem.levels"),
            ("scenario.visibility_km=abc", "scenario.visibility_km"),
            ("scenario=5", "scenario"),
            ("scenario.visibility_km=NaN", "scenario.visibility_km"),
            ("geometry.distance_m=Infinity", "geometry.distance_m"),
            ("optics.tx_power_dbm=-Infinity", "optics.tx_power_dbm"),
            ("scenario.visibility_km=1" + "0" * 5000, "scenario.visibility_km"),
        ],
        ids=["seed-bool", "visibility-bool", "seed-fraction",
             "levels-length", "visibility-string", "section-number",
             "visibility-nan", "distance-inf", "power-minus-inf",
             "visibility-5001-digits"],
    )
    def test_bad_config_value_is_runtime_error(self, override, key, capsys):
        assert run_cli("budget", "--scenario", "clear", "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert len(err.splitlines()) == 1

    def test_non_finite_value_in_config_file_or_transmit(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"scenario": {"visibility_km": NaN}}')
        for args in (
            ("budget", "--config", str(path)),
            ("transmit", "--set", "scenario.visibility_km=NaN"),
        ):
            assert run_cli(*args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "'scenario.visibility_km'" in err
            assert "finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text",
        ['{"scenario": {"visibility_km": 1' + "0" * 5000 + "}}", '{"scenario": '],
        ids=["5001-digit-integer", "truncated"],
    )
    def test_unreadable_config_file_names_the_file(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli("budget", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path}: ")
        assert len(err.splitlines()) == 1

    def test_nested_override_of_optional_section(self, capsys):
        assert run_cli(
            "budget", "--format", "json",
            "--set", "scenario.cloud.thickness_m=100", "--set", "n_symbols=1e6",
        ) == 0
        assert json.loads(capsys.readouterr().out)["losses"]["l_cloud_db"] > 0

    def test_internal_key_error_is_not_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(reporting, "budget_text", broken)
        with pytest.raises(KeyError, match="internal"):
            run_cli("budget", "--scenario", "clear")

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # A point the link cannot run is a runtime failure, not a usage error.
        code = run_cli(
            "sweep", "--scenario", "clear", "--axis", "geometry.rx_altitude_m",
            "--values", "30000", "--out", str(tmp_path / "s.csv"),
            "--set", "n_symbols=10000",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: stage 'turbulence' failed")

    def test_unknown_sweep_axis_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--scenario", "clear", "--axis", "nope.nope",
            "--values", "1,2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: unknown sweep axis") and "valid axes" in err

    def test_non_numeric_sweep_value_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--axis", "seed", "--values", "1,abc", "--out", str(tmp_path / "s.csv")
        )
        assert code == 2
        assert "argument --values" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "argv", [["filter-sim", "--n"], ["transmit", "--sym", "100"]], ids=["n", "sym"]
    )
    def test_abbreviated_flag_is_usage_error(self, argv):
        # Neither may pass as the one flag it prefixes (--no-timestamp, --symbols).
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        assert info.value.code == 2

    def test_budget_and_transmit_fail_alike(self, capsys):
        # Both run pipeline.link_budget, so a bad geometry fails in the same stage.
        errors = []
        for command in ("budget", "transmit"):
            assert run_cli(command, "--set", "geometry.rx_altitude_m=30000") == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "error: stage 'turbulence' failed: altitude difference 30000.0 m "
            "exceeds link distance 20000.0 m\n"
        )

    def test_scenarios_listing(self, capsys):
        assert run_cli("scenarios") == 0
        out = capsys.readouterr().out
        assert "clear:" in out and "hazy:" in out
        assert "visibility_km = 3.0" in out


class TestTransmit:
    def test_report_matches_direct_pipeline_call(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "transmit", "--scenario", "hazy", "--seed", "7",
            "--symbols", "20000", "--no-timestamp",
            "--report", str(report_path),
        )
        assert code == 0
        cfg = scenarios.resolve_config(preset="hazy")
        cfg["seed"] = 7
        cfg["n_symbols"] = 20000
        direct = pipeline.run_endtoend(pipeline.RunConfig.from_dict(cfg))
        written = json.loads(report_path.read_text())
        expected = as_jsonable(direct)
        expected.pop("elapsed_s")
        assert written == expected

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, workers in zip(paths, ("1", "4")):
            code = run_cli(
                "transmit", "--scenario", "clear", "--seed", "3",
                "--symbols", "15000", "--no-timestamp",
                "--workers", workers, "--report", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_override_round_trips_into_config_echo(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            "transmit", "--scenario", "clear", "--symbols", "10000",
            "--set", "scenario.visibility_km=7.5",
            "--set", "modem.symbol_rate_hz=1e9",
            "--no-timestamp", "--report", str(report_path),
        )
        assert code == 0
        echo = json.loads(report_path.read_text())["config"]
        assert echo["scenario"]["visibility_km"] == 7.5
        assert echo["modem"]["symbol_rate_hz"] == 1e9

    def test_payload_round_trip(self, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        recovered = tmp_path / "recovered.bin"
        payload.write_bytes(np.random.default_rng(5).bytes(40_000))
        code = run_cli(
            "transmit", "--scenario", "clear", "--payload", str(payload),
            "--payload-out", str(recovered),
            "--set", "noise.mode=fixed_std", "--set", "noise.noise_std=0.0",
            "--set", "scenario.ground_cn2=1e-30",
            "--set", "geometry.distance_m=100.0",
            "--set", "geometry.rx_altitude_m=0.0",
        )
        assert code == 0
        assert recovered.read_bytes() == payload.read_bytes()
        assert "byte errors 0" in capsys.readouterr().out


class TestConfigFile:
    def test_config_file_layering(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": {"visibility_km": 4.2}}))
        report_path = tmp_path / "r.json"
        code = run_cli(
            "transmit", "--scenario", "clear", "--config", str(config),
            "--symbols", "10000", "--no-timestamp", "--report", str(report_path),
        )
        assert code == 0
        echo = json.loads(report_path.read_text())["config"]
        assert echo["scenario"]["visibility_km"] == 4.2
        # Preset values not touched by the file survive.
        assert echo["scenario"]["wind_speed_ground"] == 1.0

    def test_optional_sections_accept_nested_keys(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "scenario": {"cloud": {"thickness_m": 100.0}},
            "noise": {"mode": "physical", "solar": {"background_radiance": 0.03}},
        }))
        out = tmp_path / "budget.json"
        code = run_cli(
            "budget", "--config", str(config), "--format", "json", "--out", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["losses"]["l_cloud_db"] > 0

    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "env.json"
        config.write_text(json.dumps({"scenario": {"visibility_km": 6.5}}))
        monkeypatch.setenv("FSO_SIM_CONFIG", str(config))
        report_path = tmp_path / "r.json"
        code = run_cli(
            "transmit", "--scenario", "clear", "--symbols", "10000",
            "--no-timestamp", "--report", str(report_path),
        )
        assert code == 0
        echo = json.loads(report_path.read_text())["config"]
        assert echo["scenario"]["visibility_km"] == 6.5


class TestOtherCommands:
    def test_trace_csv_output(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "trace", "--scenario", "clear", "--rate", "1e4",
            "--duration", "0.1", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        from fsolink.channel_trace import trace_from_csv

        trace = trace_from_csv(out)
        assert len(trace) == 1000

    def test_trace_binary_output(self, tmp_path):
        out = tmp_path / "trace.ftr"
        assert run_cli(
            "trace", "--scenario", "hazy", "--rate", "1e4",
            "--duration", "0.05", "--out", str(out),
        ) == 0
        from fsolink.channel_trace import trace_from_binary

        assert len(trace_from_binary(out)) == 500

    def test_pat_sim(self, tmp_path, capsys):
        out = tmp_path / "residual.csv"
        summary = tmp_path / "summary.json"
        code = run_cli(
            "pat-sim", "--set", "pat.m=4", "--set", "pat.duration_s=0.2", "--seed", "1",
            "--out", str(out), "--summary", str(summary), "--no-timestamp",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time_s,offset_x_m,offset_y_m"
        assert len(lines) == 201
        data = json.loads(summary.read_text())
        assert data["m"] == 4
        assert data["residual_rms_m"] < 1e-3

    def test_pat_sim_reads_the_config_file_pat_section(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(
            {"seed": 2, "pat": {"m": 4, "duration_s": 0.2, "controller_gain": 0.5}}
        ))
        out, summary = tmp_path / "residual.csv", tmp_path / "summary.json"
        code = run_cli(
            "pat-sim", "--config", str(path), "--set", "pat.m=2",
            "--out", str(out), "--summary", str(summary), "--no-timestamp",
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 201
        data = json.loads(summary.read_text())
        expected = run_loop(LoopConfig(m=2, duration_s=0.2, controller_gain=0.5), 2)
        assert (data["m"], data["controller_gain"], data["seed"]) == (2, 0.5, 2)
        assert data["residual_rms_m"] == expected.residual_rms_m

    def test_readme_cli_lines_parse(self, monkeypatch):
        monkeypatch.delenv("FSO_SIM_CONFIG", raising=False)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines]
        assert commands and all(argv[0] == "fsolink" for argv in commands)
        parser = cli.build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            if hasattr(args, "overrides"):  # the command reads the run config
                pipeline.RunConfig.from_dict(cli._resolve(args))

    def test_filter_sim(self, tmp_path, capsys):
        out = tmp_path / "filter.csv"
        code = run_cli(
            "filter-sim", "--set", "filter.n=2", "--set", "filter.n_symbols=200000",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("selection,")
        assert len(rows) == 3

    def test_filter_sim_runs_on_the_config_modem_and_seed(self, capsys):
        # Unequal eyes whose BER still lands in the calibration band; the
        # default levels give 9.835e-04 at this seed.
        levels = (0.0, 0.3, 0.65, 1.0)
        assert run_cli("filter-sim", "--set", "modem.levels=[0,0.3,0.65,1]", "--seed", "5") == 0
        demo = filtering_ber_demo(FilterDemoScenario(), 2, modem.Pam4Config(levels=levels), 5)
        assert capsys.readouterr().out == (
            f"n=2: gain {demo.snr.gain_db:.2f} dB, BER {demo.report_off.ber_counted:.3e}"
            f" -> {demo.report_on.ber_counted:.3e}\n"
        )

    def test_filter_sim_reads_the_config_file_filter_section(self, tmp_path, capsys):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"seed": 2, "filter": {
            "n": 3, "spot_center": [0.1, -0.2], "spot_radius": 0.3, "n_symbols": 100_000,
        }}))
        report = tmp_path / "demo_report.json"
        code = run_cli(
            "filter-sim", "--config", str(path), "--set", "filter.spot_radius=0.25",
            "--report", str(report), "--no-timestamp",
        )
        assert code == 0
        scenario = FilterDemoScenario(
            spot_center=(0.1, -0.2), spot_radius=0.25, n_symbols=100_000
        )
        demo = filtering_ber_demo(scenario, 3, modem.Pam4Config(), 2)
        expected = json.loads(reporting.report_to_json(demo, no_timestamp=True))
        assert json.loads(report.read_text()) == expected
        assert capsys.readouterr().out.startswith("n=3: gain ")

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--scenario", "hazy", "--axis", "scenario.visibility_km",
            "--values", "3,10", "--set", "n_symbols=10000", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_sweep_empty_values_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli(
            "sweep", "--scenario", "clear", "--axis", "scenario.visibility_km",
            "--values", "", "--set", "n_symbols=10000", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines() == ["axis,value"]

    def test_transmit_summary_csv(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = run_cli(
            "transmit", "--scenario", "clear", "--symbols", "10000",
            "--summary-csv", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("seed,")
        assert len(lines) == 2

    def test_transmit_stdin_payload(self, tmp_path, monkeypatch, capsys):
        data = np.random.default_rng(9).bytes(5000)

        class FakeStdin:
            class buffer:
                @staticmethod
                def read():
                    return data

        monkeypatch.setattr("sys.stdin", FakeStdin)
        recovered = tmp_path / "out.bin"
        code = run_cli(
            "transmit", "--scenario", "clear", "--payload", "-",
            "--payload-out", str(recovered),
            "--set", "noise.mode=fixed_std", "--set", "noise.noise_std=0.0",
            "--set", "scenario.ground_cn2=1e-30",
            "--set", "geometry.distance_m=100.0",
            "--set", "geometry.rx_altitude_m=0.0",
        )
        assert code == 0
        assert recovered.read_bytes() == data

    def test_filter_sim_with_grid_csv(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        np.savetxt(grid, np.array([[0.9, 0.04], [0.03, 0.03]]), delimiter=",")
        code = run_cli(
            "filter-sim", "--grid", str(grid), "--set", "filter.n_symbols=150000",
            "--seed", "4",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gain" in out

    def test_filter_sim_prints_the_order_of_the_grid_it_ran(self, tmp_path, capsys):
        grid = tmp_path / "grid3.csv"
        cells = np.full((3, 3), 0.02)
        cells[0, 0] = 0.8
        np.savetxt(grid, cells, delimiter=",")
        code = run_cli(
            "filter-sim", "--grid", str(grid), "--set", "filter.n_symbols=100000",
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("n=3: gain ")
        assert json.loads((tmp_path / "r.json").read_text())["grid"]["n"] == 3


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "override",
        ["pat.initial_offset_m=[NaN,0]", "pat.initial_offset_m=[0,NaN]", "pat.noise_std=NaN",
         "pat.disturbance_rms=NaN", "pat.disturbance_bw_hz=NaN"],
        ids=["--initial-x", "--initial-y", "--noise-std", "--disturbance-rms", "--disturbance-bw"],
    )
    def test_pat_sim_rejects_nan(self, override, capsys):
        assert run_cli("pat-sim", "--set", "pat.m=1", "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("n_bytes", [0, 2048], ids=["empty", "2KiB"])
    def test_payload_outside_symbol_range(self, n_bytes, tmp_path, capsys):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(n_bytes))
        assert run_cli("transmit", "--payload", str(payload)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_symbols must be in [10000, ")
        assert err.rstrip().endswith(f"got {4 * n_bytes}")
        assert len(err.splitlines()) == 1

    def test_oversized_payload_rejected_before_reading(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(modem, "MAX_SYMBOLS", 20_000)
        monkeypatch.setattr(np, "fromfile", never)
        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(5001))
        # Every decoded config checks the filter demo's length too (1e6 by default).
        code = run_cli(
            "transmit", "--symbols", "10000", "--set", "filter.n_symbols=10000",
            "--payload", str(payload),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_symbols must be in [10000, 20000]")
        assert err.rstrip().endswith("got 20004")

    def test_sweep_rejects_a_fractional_pat_m(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--axis", "pat.m", "--values", "1.5,2.9", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'pat.m'" in err and "1.5" in err
        assert not out.exists()

    def test_transmit_over_symbol_budget(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        # Fail rather than allocate if the budget check ever goes missing.
        monkeypatch.setattr(pipeline, "_run", never)
        over = modem.MAX_SYMBOLS + 1
        assert run_cli("transmit", "--symbols", str(over)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_symbols" in err and str(over) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (("pat.disturbance_rms=-1e-6",), "jitter RMS"),
            (("pat.disturbance_rms=0", "pat.disturbance_bw_hz=0"), "jitter bandwidth"),
            (("pat.duration_s=1e12",), "duration covers 1e+15 steps"),
            (("pat.m=30000000",), "500 steps of m = 30000000 readings: over 4 GiB"),
        ],
        ids=["negative-jitter", "zero-bandwidth", "over-step-budget",
             "over-reading-budget"],
    )
    def test_pat_sim_rejects_bad_loop(self, args, message, capsys):
        overrides = [arg for override in args for arg in ("--set", override)]
        assert run_cli("pat-sim", "--set", "pat.m=1", *overrides) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert len(err.splitlines()) == 1

    def test_filter_sim_over_symbol_budget(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "filtering_ber_demo", never)
        assert run_cli("filter-sim", "--set", "filter.n_symbols=1000000000000") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_symbols" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("n", ["1000000", "-3"])
    def test_filter_sim_rejects_bad_partition_order(self, n, capsys):
        # 10^6 is over the grid budget; numpy would also fail to allocate it.
        code = run_cli(
            "filter-sim", "--set", f"filter.n={n}", "--set", "filter.n_symbols=10000"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: n must be in [1, 23170] (n x n cells in 4 GiB), got {n}\n"

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_filter_sim_rejects_non_finite_grid_cell(self, cell, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"0.9,0.04\n0.03,{cell}\n")
        code = run_cli(
            "filter-sim", "--grid", str(grid), "--set", "filter.n_symbols=10000"
        )
        assert code == 1
        assert capsys.readouterr().err == "error: cell powers must be finite and >= 0\n"

    def test_filter_sim_rejects_grid_without_signal(self, tmp_path, capsys):
        grid = tmp_path / "zeros.csv"
        grid.write_text("0,0\n0,0\n")
        code = run_cli(
            "filter-sim", "--grid", str(grid), "--set", "filter.n_symbols=10000"
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: aperture grid has no signal: every cell power is 0\n"
        )

    def test_integer_beyond_float_range_rejected(self, capsys):
        override = "scenario.visibility_km=1" + "0" * 400
        assert run_cli("budget", "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'scenario.visibility_km'" in err
        assert "finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "override, message",
        [("filter.n_symbols=0", "n_symbols must be"),
         ("filter.n_symbols=10", "n_symbols must be"),
         ("filter.n_symbols=-5", "n_symbols must be"),
         ("filter.spot_radius=0", "spot_radius must be"),
         ("filter.spot_radius=-0.1", "spot_radius must be"),
         # Non-finite values are refused by the codec, which names the key.
         ("filter.spot_radius=NaN", "config key 'filter.spot_radius' must be finite, got nan\n"),
         ("filter.spot_radius=Infinity",
          "config key 'filter.spot_radius' must be finite, got inf\n"),
         ("filter.spot_center=[NaN,0]",
          "config key 'filter.spot_center[0]' must be finite, got nan\n"),
         ("filter.spot_center=[0,-Infinity]",
          "config key 'filter.spot_center[1]' must be finite, got -inf\n"),
         ("filter.target_unfiltered_ber=NaN",
          "config key 'filter.target_unfiltered_ber' must be finite, got nan\n")],
        ids=["zero-symbols", "ten-symbols", "negative-symbols", "zero-radius",
             "negative-radius", "nan-radius", "inf-radius", "nan-spot-x", "inf-spot-y",
             "nan-target"],
    )
    def test_filter_sim_rejects_bad_scenario(self, override, message, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "filtering_ber_demo", never)
        assert run_cli("filter-sim", "--set", override) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "np." not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "args, field",
        [(("--rate", "nan"), "sample_rate_hz"), (("--rate", "inf"), "sample_rate_hz"),
         (("--duration", "inf"), "duration_s")],
        ids=["nan-rate", "inf-rate", "inf-duration"],
    )
    def test_trace_rejects_non_finite(self, args, field, tmp_path, capsys):
        out = tmp_path / "t.bin"
        assert run_cli("trace", *args, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {field} must be finite and > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("gain, shown", [("NaN", "nan"), ("Infinity", "inf")],
                             ids=["nan", "inf"])
    def test_pat_sim_rejects_non_finite_gain(self, gain, shown, capsys):
        assert run_cli("pat-sim", "--set", f"pat.controller_gain={gain}") == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: config key 'pat.controller_gain' must be finite, got {shown}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("target", ["1e-2", "1e-4"])
    def test_filter_sim_band_follows_target(self, target, capsys):
        assert run_cli("filter-sim", "--set", f"filter.target_unfiltered_ber={target}") == 0
        off = float(capsys.readouterr().out.split("BER ")[1].split(" ->")[0])
        assert float(target) / 2 <= off <= 5 * float(target)
