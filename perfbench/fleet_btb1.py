"""``fleet-btb1``: a warm-pool ``stream_cells`` sweep over every
generation.

zEC12/z13/z14/z15 x {compute-kernel, patterned, dispatch, transactions}
x 2 seeds in functional fast mode, plus one cycle-engine cell per
generation.  Every program fits the BTB1, so prediction runs on the hit
and probe path (the read path).  This is the only workload that
measures the serialize, transfer and merge phases of
``repro.engine.parallel`` and the cycle engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.configs import GENERATIONS
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine import CellError, FunctionalEngine, SweepCell, stream_cells
from repro.obs.spans import SpanTracer

from perfbench import layers
from perfbench.harness import (
    Tracer,
    WorkloadResult,
    empty_layers,
    median,
    peak_rss_mb,
    percentile,
    span,
)
from perfbench.hostclock import HostClock

GENERATION_NAMES = ("zEC12", "z13", "z14", "z15")
FLEET_WORKLOADS = ("compute-kernel", "patterned", "dispatch", "transactions")
CYCLE_WORKLOAD = "transactions"
#: Pool workers: sized for a 2-core box.
WORKERS = 2
#: (warmup, counted) branches per functional cell; cycle cells run the
#: counted number with no warmup (the cycle engine has none).
SIZES = {"full": (2_000, 4_000), "small": (200, 400)}


def make_cells(seed: int, size: str, engine_mode: str) -> List[SweepCell]:
    """The grid, in submission order.  Cells name their workload, so each
    worker builds a fresh Program per cell."""
    warmup, counted = SIZES[size]
    cells = []
    for generation in GENERATION_NAMES:
        factory, _info = GENERATIONS[generation]
        for workload in FLEET_WORKLOADS:
            for cell_seed in (seed, seed + 1):
                cells.append(SweepCell(
                    label=f"{generation}/{workload}/{cell_seed}",
                    config=factory(), workload=workload, seed=cell_seed,
                    branches=counted, warmup=warmup,
                    engine_mode=engine_mode))
        cells.append(SweepCell(
            label=f"{generation}/{CYCLE_WORKLOAD}/{seed}/cycle",
            config=factory(), workload=CYCLE_WORKLOAD, seed=seed,
            branches=counted, warmup=0, engine="cycle",
            engine_mode=engine_mode))
    return cells


def simulated_branches(cells: List[SweepCell]) -> int:
    return sum(cell.branches + (cell.warmup if cell.engine != "cycle" else 0)
               for cell in cells)


@dataclass
class Sweep:
    results: list
    #: Seconds from the ``stream_cells`` call to each row's arrival,
    #: scaled to the reference host speed.
    arrivals: List[float]
    #: The sweep's seconds, scaled, and as wall time.
    wall: float
    raw_wall: float
    #: Mean spin time over the reference during the sweep.
    slowdown: float
    pool_stats: dict
    spans: Optional[SpanTracer]


def sweep(cells: List[SweepCell], tracer: Optional[Tracer],
          clock: HostClock) -> Sweep:
    """One ``stream_cells`` sweep; with a tracer, the sweep is a span and
    the runner's own ``spans=`` / ``pool_stats`` hooks are switched on."""
    pool_stats: dict = {}
    spans = SpanTracer() if tracer is not None else None
    results, stamps = [], []
    start = time.perf_counter()
    with span(tracer, "parallel.sweep"):
        for row in stream_cells(cells, workers=WORKERS,
                                pool_stats=pool_stats, spans=spans):
            stamps.append(time.perf_counter())
            results.append(row)
    end = time.perf_counter()
    return Sweep(results, [clock.scaled(start, stamp) for stamp in stamps],
                 clock.scaled(start, end), end - start,
                 clock.slowdown(start, end), pool_stats, spans)


def measure(cells: List[SweepCell], seconds: float,
            tracer: Optional[Tracer] = None) -> Tuple[List[Sweep], float]:
    """Sweep while the loop ends nearer *seconds* with one more sweep
    than without it; returns the sweeps and the loop's wall time."""
    sweeps: List[Sweep] = []
    start = time.perf_counter()
    with HostClock() as clock:
        while True:
            sweeps.append(sweep(cells, tracer, clock))
            elapsed = time.perf_counter() - start
            if elapsed + sweeps[-1].raw_wall / 2 >= seconds:
                return sweeps, elapsed


def expected_rows(seed: int, size: str) -> Dict[str, tuple]:
    """The oracle: the same grid on the reference engine.  Functional
    cells are compared by fingerprint; cycle cells also by cycle and
    instruction counts."""
    return {row.label: _row_key(row)
            for row in stream_cells(make_cells(seed, size, "reference"),
                                    workers=WORKERS)}


def _row_key(row) -> tuple:
    if isinstance(row, CellError):
        return ("cell-error", row.kind, row.message)
    stats = row.stats
    if hasattr(stats, "cycles"):
        return (row.fingerprint, stats.cycles, stats.instructions)
    return (row.fingerprint,)


def count_failures(results: list, expected: Dict[str, tuple]) -> int:
    """Rows that are a :class:`CellError` or differ from the oracle."""
    return sum(1 for row in results
               if isinstance(row, CellError)
               or _row_key(row) != expected.get(row.label))


def run(seed: int, seconds: float, trace: bool,
        size: str = "full") -> WorkloadResult:
    cells = make_cells(seed, size, "fast")
    sweeps, _ = measure(cells, seconds)
    traced_sweeps: List[Sweep] = []
    tracer = Tracer() if trace else None
    if trace:
        traced_sweeps, traced_wall = measure(cells, seconds, tracer)
    expected = expected_rows(seed, size)
    if any(key[0] == "cell-error" for key in expected.values()):
        raise RuntimeError(f"reference sweep failed: {expected}")
    checked = [row for item in sweeps + traced_sweeps for row in item.results]
    result = WorkloadResult(attempted=len(checked),
                            failed=count_failures(checked, expected),
                            tracer=tracer)
    branches = simulated_branches(cells)
    first = sweeps[0].results
    functional = [row.stats for row in first
                  if not isinstance(row, CellError)
                  and not hasattr(row.stats, "cycles")]
    cycle = [row.stats for row in first
             if not isinstance(row, CellError) and hasattr(row.stats, "cycles")]
    arrivals_ms = [t * 1e3 for item in sweeps for t in item.arrivals]
    # p99 of one sweep is its last row: take the median sweep's, so one
    # slow sweep does not set it alone (pooled, p99 is the second-last
    # row of the slowest sweep).
    last_ms = median([percentile(item.arrivals, 99) * 1e3
                      for item in sweeps])
    result.metrics = {
        "branches_per_s": median([branches / item.wall for item in sweeps]),
        "setup_s": median([item.arrivals[0] for item in sweeps]),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": percentile(arrivals_ms, 50),
        "latency_p99_ms": last_ms,
        "mpki": 1000.0 * sum(s.mispredicted_branches for s in functional)
        / sum(s.instructions for s in functional),
        "ipc": sum(s.instructions for s in cycle)
        / sum(s.cycles for s in cycle),
    }
    result.details = {
        "sweeps": len(sweeps),
        "cells": len(cells),
        "branches_per_sweep": branches,
        "workers": WORKERS,
        "sweep_wall_s": [item.raw_wall for item in sweeps],
        "host_slowdown": [item.slowdown for item in sweeps],
        "oracle": "the same grid on the reference engine",
    }
    if trace:
        result.details["pool_spans"] = [item.spans.spans + item.spans.events
                                        for item in traced_sweeps]
        result.layers = _layers(seed, size, sweeps, traced_sweeps,
                                traced_wall)
    return result


def _layers(seed, size, sweeps, traced, traced_wall):
    warmup, counted = SIZES[size]
    z15 = GENERATIONS["z15"][0]()
    phase: Dict[str, List[float]] = {}
    retries = 0
    for item in traced:
        for record in item.spans.spans:
            phase.setdefault(record["name"], []).append(record["wall"])
        retries += sum(1 for event in item.spans.events
                       if event["name"] == "cell.retry")
    def phase_ms(name: str, q: float) -> Tuple[float, int]:
        walls_ms = [wall * 1e3 for wall in phase.get(name, [])]
        return percentile(walls_ms, q), len(walls_ms)

    execute = sum(phase.get("execute", []))
    parent_side = sum(sum(phase.get(name, []))
                      for name in ("serialize", "transfer", "merge"))
    traced_sum = sum(item.raw_wall for item in traced)

    builds, streams, executor_ns = [], [], []
    for workload in FLEET_WORKLOADS:
        builds.append(layers.build_program(workload, seed)[1])
        stream, ns = layers.record_stream(workload, seed, warmup + counted)
        streams.append((workload, stream))
        executor_ns.append(ns * len(stream))
    recorded = sum(len(stream) for _, stream in streams)
    predict_ns = sum(layers.predict_ns_per_branch(z15, stream) * len(stream)
                     for _, stream in streams)
    compiles = [layers.compile_seconds(GENERATIONS[name][0]())
                for name in GENERATION_NAMES]
    _, cycle_ns = layers.cycle_run(CYCLE_WORKLOAD, seed, z15, counted)
    call_ns, _ = layers.predict_call_ns(z15, dict(streams)[CYCLE_WORKLOAD])
    counters = []
    for workload in FLEET_WORKLOADS:
        predictor = LookaheadBranchPredictor(z15)
        FunctionalEngine(predictor, engine_mode="reference").run_program(
            layers.build_program(workload, seed)[0], counted, seed=seed,
            warmup_branches=warmup)
        counters.append(predictor.component_counters())

    last_stats = traced[-1].pool_stats
    failed = sum(1 for item in traced for row in item.results
                 if isinstance(row, CellError))
    values = empty_layers()
    values.update({
        "workloads.build_s": (median(builds), len(builds)),
        "workloads.executor_ns_per_branch": (sum(executor_ns) / recorded,
                                             recorded),
        "engine.compile_s": (median(compiles), len(compiles)),
        "engine.predict_ns_per_branch": (predict_ns / recorded, recorded),
        "engine.cycle_ns_per_branch": (cycle_ns, counted),
        "parallel.serialize_ms.p50": phase_ms("serialize", 50),
        "parallel.transfer_ms.p50": phase_ms("transfer", 50),
        "parallel.execute_ms.p50": phase_ms("execute", 50),
        "parallel.execute_ms.p99": phase_ms("execute", 99),
        "parallel.merge_ms.p50": phase_ms("merge", 50),
        "parallel.worker_busy_frac": (execute / (traced_sum * WORKERS),
                                      len(phase.get("execute", []))),
        "parallel.first_result_s": (median([item.arrivals[0]
                                            for item in traced]),
                                    len(traced)),
        "parallel.payload_bytes": (last_stats["payload_bytes"], 1),
        "parallel.result_bytes": (last_stats["result_bytes"], 1),
        "parallel.cells_failed": (failed, len(traced)),
        "parallel.retries": (retries, len(traced)),
        "trace.overhead_frac": (
            median([item.wall for item in traced])
            / median([item.wall for item in sweeps]) - 1.0, len(traced)),
        # Execute runs on WORKERS processes at once: on the critical
        # path it counts once per worker.
        "unaccounted_frac": (
            1.0 - (parent_side + execute / WORKERS) / traced_wall,
            len(traced)),
    })
    values.update(layers.core_layers(layers.sum_counters(counters), call_ns,
                                     len(counters)))
    return values
