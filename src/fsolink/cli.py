"""Command-line interface.

Subcommands: budget, trace, transmit, pat-sim, filter-sim, sweep,
scenarios. Every command but scenarios reads the run config; pat-sim and
filter-sim run its ``pat`` and ``filter`` sections. Configuration
precedence: built-in defaults < preset (--scenario) < config file
(--config or FSO_SIM_CONFIG) < --set overrides. Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__, pipeline, reporting, scenarios
from .channel_trace import generate_trace, trace_to_binary, trace_to_csv
from .errors import ConfigKeyError, FsoLinkError
from .pat import run_loop
from .spatial_filter import filtering_ber_demo, grid_from_csv


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        help=f"weather preset ({', '.join(scenarios.preset_names())})",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON config file (falls back to $FSO_SIM_CONFIG)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted path, e.g. scenario.visibility_km=5)",
    )
    parser.add_argument("--seed", type=int, help="override the run seed")


def _resolve(args, **flags) -> pipeline.RunConfig:
    """The decoded run config of a command's config layers, with ``--seed`` and
    ``flags`` (top-level config key -> flag value) set over them where given."""
    config_file = args.config or os.environ.get("FSO_SIM_CONFIG") or None
    cfg = scenarios.resolve_config(
        preset=args.scenario, config_file=config_file, overrides=args.overrides
    )
    flags["seed"] = args.seed
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    return pipeline.RunConfig.from_dict(cfg)


def _numbers(text: str) -> list[float]:
    """The sweep values of ``--values``: comma-separated numbers."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    # No parser takes a prefix of a long flag for the one flag it matches.
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = no_abbrev(
        prog="fsolink",
        description="Free-space optical link simulator and channel emulator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)

    p_budget = sub.add_parser("budget", help="print the link loss budget")
    _add_config_args(p_budget)
    p_budget.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    p_budget.add_argument("--out", metavar="PATH", help="write instead of stdout")

    p_trace = sub.add_parser("trace", help="generate a fading trace file")
    _add_config_args(p_trace)
    p_trace.add_argument("--rate", type=float, default=1e5, help="samples per second")
    p_trace.add_argument("--duration", type=float, default=1.0, help="seconds")
    p_trace.add_argument("--out", required=True, metavar="PATH")
    p_trace.add_argument(
        "--format",
        choices=("csv", "bin"),
        help="default: from the file extension (.csv vs anything else)",
    )

    p_tx = sub.add_parser("transmit", help="run an end-to-end transmission")
    _add_config_args(p_tx)
    p_tx.add_argument("--symbols", type=int, help="override the symbol budget")
    p_tx.add_argument(
        "--payload", metavar="PATH", help="send file contents ('-' for stdin)"
    )
    p_tx.add_argument(
        "--payload-out", metavar="PATH", help="write recovered payload here"
    )
    p_tx.add_argument("--report", metavar="PATH", help="write the JSON run report")
    p_tx.add_argument("--summary-csv", metavar="PATH", help="write a one-row CSV summary")
    p_tx.add_argument(
        "--workers", type=int, help="threads for every stage of the link pass (results identical)"
    )
    p_tx.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit wall-clock fields for byte-identical reports",
    )

    p_pat = sub.add_parser("pat-sim", help="closed-loop quadrant-detector tracking")
    _add_config_args(p_pat)
    p_pat.add_argument("--out", metavar="PATH", help="residual trace CSV")
    p_pat.add_argument("--summary", metavar="PATH", help="JSON summary")
    p_pat.add_argument("--no-timestamp", action="store_true")

    p_filter = sub.add_parser(
        "filter-sim", help="paired BER demo of n-by-n spatial selection"
    )
    _add_config_args(p_filter)
    p_filter.add_argument(
        "--grid", metavar="PATH", help="CSV matrix of cell intensities (overrides the beam model)"
    )
    p_filter.add_argument("--out", metavar="PATH", help="paired summary CSV")
    p_filter.add_argument("--report", metavar="PATH", help="JSON result")
    p_filter.add_argument("--no-timestamp", action="store_true")

    p_sweep = sub.add_parser("sweep", help="sweep one numeric parameter")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--axis", required=True, metavar="NAME")
    p_sweep.add_argument(
        "--values", required=True, type=_numbers, metavar="V1,V2,...", help="comma-separated"
    )
    p_sweep.add_argument("--out", required=True, metavar="PATH")

    p_scen = sub.add_parser("scenarios", help="list bundled weather presets")
    p_scen.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_budget(args) -> int:
    *_, losses, budget = pipeline.link_budget(_resolve(args))
    if args.format == "text":
        text = reporting.budget_text(losses, budget)
    elif args.format == "csv":
        text = reporting.budget_csv(losses, budget)
    else:
        text = reporting.report_to_json(
            {"losses": losses, "budget": budget}, no_timestamp=True
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_trace(args) -> int:
    run_cfg = _resolve(args)
    _, model, tau0 = pipeline.turbulence(run_cfg)
    trace = generate_trace(model, tau0, args.rate, args.duration, run_cfg.seed)
    fmt = args.format or ("csv" if str(args.out).endswith(".csv") else "bin")
    if fmt == "csv":
        trace_to_csv(trace, args.out)
    else:
        trace_to_binary(trace, args.out)
    print(
        f"wrote {len(trace)} samples ({model.kind}, sigma_i2={model.sigma_i2:.4g}, "
        f"tau0={tau0:.4g} s) to {args.out}"
    )
    return 0


def _cmd_transmit(args) -> int:
    if args.payload_out is not None and args.payload is None:
        print("usage error: --payload-out needs --payload", file=sys.stderr)
        return 2
    run_cfg = _resolve(args, n_symbols=args.symbols, workers=args.workers)
    if args.payload is not None:
        payload_out = args.payload_out or args.payload + ".out"
        report = pipeline.payload_roundtrip(args.payload, run_cfg, payload_out)
    else:
        report = pipeline.run_endtoend(run_cfg)
    if args.report:
        reporting.write_json(report, args.report, no_timestamp=args.no_timestamp)
    if args.summary_csv:
        reporting.rows_to_csv([reporting.ber_summary_row(report)], args.summary_csv)
    ber = report.ber
    print(
        f"{report.fading_kind} fading, rytov={report.rytov_var:.4g}, "
        f"L_total={report.losses.l_total_db:.2f} dB, P_R={report.budget.p_r_dbm:.2f} dBm"
    )
    print(
        f"BER counted {ber.ber_counted:.3e} ({ber.bit_errors}/{ber.bits_tx} bits), "
        f"estimated {ber.ber_estimated:.3e}"
    )
    if report.byte_errors is not None:
        print(f"payload bytes {report.payload_bytes}, byte errors {report.byte_errors}")
    return 0


def _cmd_pat_sim(args) -> int:
    run_cfg = _resolve(args)
    result = run_loop(run_cfg.pat, run_cfg.seed)
    if args.out:
        reporting.tracking_csv(result, args.out)
    summary = {
        "m": run_cfg.pat.m,
        "loop_rate_hz": run_cfg.pat.loop_rate_hz,
        "controller_gain": run_cfg.pat.controller_gain,
        "seed": run_cfg.seed,
        "residual_rms_m": result.residual_rms_m,
        "residual_max_m": result.residual_max_m,
    }
    if args.summary:
        reporting.write_json(summary, args.summary, no_timestamp=args.no_timestamp)
    print(
        f"m={run_cfg.pat.m}: residual rms {result.residual_rms_m * 1e6:.2f} um, "
        f"max {result.residual_max_m * 1e6:.2f} um"
    )
    return 0


def _cmd_filter_sim(args) -> int:
    run_cfg = _resolve(args)
    grid = grid_from_csv(args.grid) if args.grid else None
    result = filtering_ber_demo(
        run_cfg.filter, run_cfg.filter.n, run_cfg.modem, run_cfg.seed, grid=grid
    )
    rows = [
        {"selection": selection, "ber_counted": report.ber_counted,
         "ber_estimated": report.ber_estimated, "noise_std": noise_std, "gain_db": gain_db}
        for selection, report, noise_std, gain_db in (
            ("off", result.report_off, result.noise_std_unfiltered, 0.0),
            ("on", result.report_on, result.noise_std_filtered, result.snr.gain_db),
        )
    ]
    if args.out:
        reporting.rows_to_csv(rows, args.out)
    if args.report:
        reporting.write_json(result, args.report, no_timestamp=args.no_timestamp)
    print(
        f"n={result.grid.n}: gain {result.snr.gain_db:.2f} dB, "
        f"BER {result.report_off.ber_counted:.3e} -> {result.report_on.ber_counted:.3e}"
    )
    return 0


def _cmd_sweep(args) -> int:
    run_cfg = _resolve(args)
    rows = pipeline.scenario_sweep(run_cfg, args.axis, args.values)
    reporting.rows_to_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_scenarios(args) -> int:
    shown = {}
    for name in scenarios.preset_names():
        cfg = scenarios.resolve_config(preset=name)
        shown[name] = {
            "note": scenarios.preset_note(name),
            "config": {"scenario": cfg["scenario"], "geometry": cfg["geometry"]},
        }
    if args.format == "json":
        sys.stdout.write(reporting.report_to_json(shown, no_timestamp=True))
        return 0
    for name, entry in shown.items():
        print(f"{name}: {entry['note']}")
        for key, value in entry["config"]["scenario"].items():
            print(f"    {key} = {value}")
    return 0


_COMMANDS = {
    "budget": _cmd_budget,
    "trace": _cmd_trace,
    "transmit": _cmd_transmit,
    "pat-sim": _cmd_pat_sim,
    "filter-sim": _cmd_filter_sim,
    "sweep": _cmd_sweep,
    "scenarios": _cmd_scenarios,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigKeyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FsoLinkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
