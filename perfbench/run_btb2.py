"""``run-btb2``: one single-thread fast-mode run of ``footprint-large``.

The ~8K-block ring overflows the 16K-entry BTB1, so prediction spends
its time on the install, miss and BTB2 staging path (the write path).
Each repetition builds a fresh Program, predictor and compiled kernels
(the set-up), then runs warmup plus counted branches.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.configs import z15_config
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine import FunctionalEngine, clear_kernel_cache
from repro.verification.differential import comparable_stats
from repro.workloads import get_workload

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

WORKLOAD = "footprint-large"
#: (warmup, counted) branches per repetition.
SIZES = {"full": (40_000, 80_000), "small": (1_000, 2_000)}
#: Branches of the cycle-engine run that gives ``ipc``.
CYCLE_BRANCHES = {"full": 20_000, "small": 1_000}
#: Branches of the offline executor / predict probes.
PROBE_BRANCHES = {"full": 40_000, "small": 1_000}


@dataclass
class Repetition:
    #: Set-up and run seconds, scaled to the reference host speed.
    setup: float
    run: float
    #: The same, as wall seconds.
    setup_wall: float
    run_wall: float
    #: Mean spin time over the reference while the repetition ran.
    slowdown: float
    stats: Dict[str, object]
    mpki: float


def _setup(seed: int, tracer: Optional[Tracer]):
    with span(tracer, "workloads.build"):
        program = get_workload(WORKLOAD, seed)
    with span(tracer, "core.construct"):
        predictor = LookaheadBranchPredictor(z15_config())
    with span(tracer, "engine.compile"):
        clear_kernel_cache()
        engine = FunctionalEngine(predictor, engine_mode="fast")
    return program, engine


def measure(seed: int, seconds: float, size: str,
            tracer: Optional[Tracer] = None) -> List[Repetition]:
    """Repeat set-up + run while the loop ends nearer *seconds* with one
    more repetition than without it (at least one repetition)."""
    warmup, counted = SIZES[size]
    reps: List[Repetition] = []
    start = time.perf_counter()
    with HostClock() as clock:
        while True:
            # Free the previous repetition's program and predictor
            # outside the timed region, so every repetition starts from
            # the same heap.
            gc.collect()
            rep_start = time.perf_counter()
            with span(tracer, "repetition"):
                program, engine = _setup(seed, tracer)
                run_start = time.perf_counter()
                with span(tracer, "engine.run_program"):
                    stats = engine.run_program(program, counted, seed=seed,
                                               warmup_branches=warmup)
                run_end = time.perf_counter()
            reps.append(Repetition(
                clock.scaled(rep_start, run_start),
                clock.scaled(run_start, run_end),
                run_start - rep_start, run_end - run_start,
                clock.slowdown(rep_start, run_end),
                comparable_stats(stats), stats.mpki))
            del program, engine, stats
            if run_end - start + (run_end - rep_start) / 2 >= seconds:
                return reps


def reference_run(seed: int, size: str):
    """The oracle: the reference engine on a fresh program and seed."""
    warmup, counted = SIZES[size]
    predictor = LookaheadBranchPredictor(z15_config())
    engine = FunctionalEngine(predictor, engine_mode="reference")
    stats = engine.run_program(get_workload(WORKLOAD, seed), counted,
                               seed=seed, warmup_branches=warmup)
    return comparable_stats(stats), predictor


def count_mismatches(reps: List[Repetition], expected: Dict) -> int:
    return sum(1 for rep in reps if rep.stats != expected)


def run(seed: int, seconds: float, trace: bool,
        size: str = "full") -> WorkloadResult:
    warmup, counted = SIZES[size]
    branches = warmup + counted
    reps = measure(seed, seconds, size)
    tracer = None
    traced: List[Repetition] = []
    if trace:
        tracer = Tracer()
        loop_start = time.perf_counter()
        traced = measure(seed, seconds, size, tracer)
        traced_wall = time.perf_counter() - loop_start
    expected, oracle = reference_run(seed, size)
    checked = reps + traced
    result = WorkloadResult(attempted=len(checked),
                            failed=count_mismatches(checked, expected),
                            tracer=tracer)
    cycle_stats, cycle_ns = layers.cycle_run(
        WORKLOAD, seed, z15_config(), CYCLE_BRANCHES[size])
    run_ms = [rep.run * 1e3 for rep in reps]
    result.metrics = {
        "branches_per_s": median([branches / rep.run for rep in reps]),
        "setup_s": median([rep.setup for rep in reps]),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": median(run_ms),
        "latency_p99_ms": percentile(run_ms, 99),
        "mpki": reps[0].mpki,
        "ipc": cycle_stats.ipc,
    }
    result.details = {
        "repetitions": len(reps),
        "run_wall_s": [rep.run_wall for rep in reps],
        "setup_wall_s": [rep.setup_wall for rep in reps],
        "host_slowdown": [rep.slowdown for rep in reps],
        "branches_per_repetition": branches,
        "oracle": "reference engine, same program and seed",
        "oracle_counters": oracle.component_counters(),
    }
    if trace:
        result.layers = _layers(seed, size, reps, traced, tracer,
                                traced_wall, oracle, cycle_ns)
    return result


def _layers(seed, size, reps, traced, tracer, traced_wall, oracle,
            cycle_ns):
    config = z15_config()
    stream, executor_ns = layers.record_stream(WORKLOAD, seed,
                                               PROBE_BRANCHES[size])
    call_ns, _ = layers.predict_call_ns(config, stream)
    untraced_s = median([rep.run + rep.setup for rep in reps])
    traced_s = median([rep.run + rep.setup for rep in traced])
    builds = tracer.durations("workloads.build")
    compiles = tracer.durations("engine.compile")
    values = empty_layers()
    values.update({
        "workloads.build_s": (median(builds), len(builds)),
        "workloads.executor_ns_per_branch": (executor_ns, len(stream)),
        "engine.compile_s": (median(compiles), len(compiles)),
        "engine.predict_ns_per_branch": (
            layers.predict_ns_per_branch(config, stream), len(stream)),
        "engine.cycle_ns_per_branch": (cycle_ns, CYCLE_BRANCHES[size]),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, len(traced)),
        "unaccounted_frac": (1.0 - tracer.layer_self_time() / traced_wall,
                             len(traced)),
    })
    values.update(layers.core_layers(oracle.component_counters(),
                                     call_ns, 1))
    return values
