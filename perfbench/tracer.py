"""Spans around fsolink's public functions, recorded from outside the library.

The library imports functions by name (``pipeline`` holds its own
``apply_channel``; ``calibrate_noise_std`` reaches ``apply_channel``
through ``modem``'s globals), so a wrapper is installed in every
``fsolink`` module namespace that holds the original function. Spans
(name, start, end, parent) are kept in memory and summarised per pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

MIB = float(1 << 20)

#: Traced functions, as ``module.function`` under the ``fsolink`` package.
TRACED = (
    "atmosphere.total_atmospheric_loss",
    "atmosphere.rytov_variance",
    "linkbudget.received_power_dbm",
    "channel_trace.generate_trace",
    "channel_trace.trace_stats",
    "channel_trace.trace_to_csv",
    "channel_trace.trace_from_csv",
    "channel_trace.trace_to_binary",
    "channel_trace.trace_from_binary",
    "modem.modulate",
    "modem.apply_channel",
    "modem.demodulate",
    "modem.eye_stats",
    "modem.ber_report",
    "modem.calibrate_noise_std",
    "pat.run_tracking_loop",
    "spatial_filter.filtering_ber_demo",
    "pipeline.run_endtoend",
    "pipeline.scenario_sweep",
    "reporting.report_to_json",
)

#: Spans whose tracemalloc peak is recorded; tracemalloc runs only inside them.
PEAK_SPANS = frozenset({"pipeline.run_endtoend", "channel_trace.generate_trace"})

#: float64 arrays of n elements that r = H x + n reads or writes: x, H, H x,
#: n and r. ``bytes_computed`` is derived from this, not measured.
APPLY_CHANNEL_ARRAYS = 5


def _work(name: str, args: dict, result) -> float:
    """Units of work one call did: symbols, samples, steps or file bytes."""
    if name == "modem.apply_channel":
        return len(args["symbols"])
    if name == "channel_trace.generate_trace":
        return len(result.gains)
    if name == "channel_trace.trace_stats":
        return len(args["trace"].gains)
    if name.startswith(("channel_trace.trace_to_", "channel_trace.trace_from_")):
        return os.path.getsize(args["path"])
    if name == "pat.run_tracking_loop":
        return len(result.times_s)
    return 0.0


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    work: float = 0.0
    mem_start: int = 0
    mem_peak: int = 0


class Tracer:
    """Collects spans while installed; ``spans`` is cleared per pass by the caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._peak_open: list[Span] = []

    def _fold_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for span in self._peak_open:
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, self._open[-1] if self._open else None)
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            if peak:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                self._fold_peak()
                span.mem_start = span.mem_peak = tracemalloc.get_traced_memory()[0]
                self._peak_open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if peak:
                    self._fold_peak()
                    self._peak_open.pop()
                    if not self._peak_open:
                        tracemalloc.stop()
            span.work = _work(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every fsolink namespace holding a traced function; undo on exit."""
        patches = []
        for qualname in TRACED:
            module_name, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"fsolink.{module_name}"), fn_name)
            wrapper = self._wrap(qualname, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "fsolink" and not name.startswith("fsolink."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


def summarise_pass(spans: list[Span], wall_s: float) -> dict:
    """Per-function totals for one traced pass, plus coverage and module shares."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    names = {}
    for i, span in enumerate(spans):
        entry = names.setdefault(
            span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0, "peak": 0}
        )
        duration = span.end - span.start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_s[i]
        entry["work"] += span.work
        entry["peak"] = max(entry["peak"], span.mem_peak - span.mem_start)

    def under_calibration(span: Span) -> bool:
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == "modem.calibrate_noise_std":
                return True
        return False

    shares = {}
    for name, entry in names.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + entry["self_s"] / wall_s
    return {
        "names": names,
        "calibration_passes": sum(
            1 for s in spans if s.name == "modem.apply_channel" and under_calibration(s)
        ),
        "coverage": sum(s.end - s.start for s in spans if s.parent is None) / wall_s,
        "shares": shares,
        "wall_s": wall_s,
    }


def _rate(summaries: list[dict], name: str, scale: float) -> float:
    work = sum(s["names"].get(name, {}).get("work", 0.0) for s in summaries)
    busy = sum(s["names"].get(name, {}).get("s", 0.0) for s in summaries)
    return work / busy / scale if busy > 0 else 0.0


def layer_metrics(summaries: list[dict], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from traced passes: counts from the first pass,
    times as medians over passes, rates as total work over total busy time."""
    first = summaries[0]

    def per_pass(name: str, key: str) -> list[float]:
        return [s["names"].get(name, {}).get(key, 0.0) for s in summaries]

    metrics: dict[str, float] = {}
    for name in TRACED:
        entry = first["names"].get(name, {})
        metrics[f"{name}.calls"] = entry.get("calls", 0)
        metrics[f"{name}.s"] = statistics.median(per_pass(name, "s"))
        metrics[f"{name}.self_s"] = statistics.median(per_pass(name, "self_s"))
    metrics["modem.apply_channel.msym_per_s"] = _rate(summaries, "modem.apply_channel", 1e6)
    metrics["modem.apply_channel.bytes_computed"] = (
        8 * APPLY_CHANNEL_ARRAYS * first["names"].get("modem.apply_channel", {}).get("work", 0)
    )
    metrics["modem.calibrate_noise_std.passes"] = first["calibration_passes"]
    for name in PEAK_SPANS:
        metrics[f"{name}.peak_alloc_mb"] = statistics.median(per_pass(name, "peak")) / MIB
    metrics["channel_trace.generate_trace.samples_per_s"] = _rate(
        summaries, "channel_trace.generate_trace", 1.0
    )
    metrics["channel_trace.trace_stats.samples_per_s"] = _rate(
        summaries, "channel_trace.trace_stats", 1.0
    )
    for direction in ("to", "from"):
        for fmt in ("csv", "binary"):
            name = f"channel_trace.trace_{direction}_{fmt}"
            metrics[f"{name}.mb_per_s"] = _rate(summaries, name, MIB)
    metrics["pat.run_tracking_loop.steps_per_s"] = _rate(summaries, "pat.run_tracking_loop", 1.0)

    traced_wall = statistics.median(s["wall_s"] for s in summaries)
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.coverage"] = statistics.median(s["coverage"] for s in summaries)
    modules = sorted({name.split(".")[0] for name in TRACED})
    for module in modules:
        metrics[f"share.{module}"] = statistics.median(
            s["shares"].get(module, 0.0) for s in summaries
        )
    return metrics


def count_metrics(summaries: list[dict]) -> list[tuple]:
    """The counts of each pass; a fixed seed must repeat them exactly."""
    return [
        (
            tuple(sorted((n, e["calls"], e["work"]) for n, e in s["names"].items())),
            s["calibration_passes"],
        )
        for s in summaries
    ]
