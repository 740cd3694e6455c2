"""Offline per-layer probes: each times calls into one layer's public
functions, outside the end-to-end measurement.

Every probe builds its own fresh :class:`~repro.workloads.Program`:
behaviours are stateful, so a second :class:`~repro.workloads.Executor`
over an already-executed Program yields a different branch stream.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.configs.predictor import PredictorConfig
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine import (
    CycleEngine,
    FunctionalEngine,
    clear_kernel_cache,
    kernels_for,
)
from repro.workloads import Executor, get_workload

from perfbench.harness import percentile


def build_program(name: str, seed: int) -> Tuple[object, float]:
    """``get_workload`` and the seconds it took."""
    start = time.perf_counter()
    program = get_workload(name, seed)
    return program, time.perf_counter() - start


def record_stream(name: str, seed: int, branches: int) -> Tuple[list, float]:
    """Drain ``Executor.run`` of a fresh program into a list; returns the
    branches and the drain's ns per branch."""
    program = get_workload(name, seed)
    executor = Executor(program, seed=seed)
    start = time.perf_counter_ns()
    stream = list(executor.run(max_branches=branches))
    return stream, (time.perf_counter_ns() - start) / max(1, len(stream))


def compile_seconds(config: PredictorConfig) -> float:
    """First ``kernels_for`` of *config* after ``clear_kernel_cache``."""
    predictor = LookaheadBranchPredictor(config)
    clear_kernel_cache()
    start = time.perf_counter()
    kernels_for(predictor)
    return time.perf_counter() - start


def predict_ns_per_branch(config: PredictorConfig, stream: Sequence) -> float:
    """Fast-mode ``FunctionalEngine.run_branches`` over a recorded
    stream (no executor in the timed region)."""
    engine = FunctionalEngine(LookaheadBranchPredictor(config),
                              engine_mode="fast")
    start = time.perf_counter_ns()
    engine.run_branches(stream)
    return (time.perf_counter_ns() - start) / max(1, len(stream))


def cycle_run(name: str, seed: int, config: PredictorConfig,
              branches: int) -> Tuple[object, float]:
    """Fast-mode ``CycleEngine.run_program`` of a fresh program: its
    stats and ns per branch (the executor runs inside)."""
    program = get_workload(name, seed)
    engine = CycleEngine(LookaheadBranchPredictor(config),
                         engine_mode="fast")
    start = time.perf_counter_ns()
    stats = engine.run_program(program, max_branches=branches, seed=seed)
    return stats, (time.perf_counter_ns() - start) / max(1, branches)


def predict_call_ns(config: PredictorConfig,
                    stream: Sequence) -> Tuple[List[float], object]:
    """Per-call ns of the reference ``predict_and_resolve`` over a
    recorded stream, and the predictor it trained."""
    predictor = LookaheadBranchPredictor(config)
    if stream:
        predictor.restart(stream[0].address, context=stream[0].context)
    predict = predictor.predict_and_resolve
    clock = time.perf_counter_ns
    samples = []
    for branch in stream:
        start = clock()
        predict(branch)
        samples.append(clock() - start)
    predictor.finalize()
    return samples, predictor


def sum_counters(counter_sets: Sequence[Dict[str, Dict[str, int]]]
                 ) -> Dict[str, Dict[str, int]]:
    total: Dict[str, Dict[str, int]] = {}
    for counters in counter_sets:
        for component, values in counters.items():
            bucket = total.setdefault(component, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return total


def core_layers(counters: Dict[str, Dict[str, int]], call_ns: Sequence[float],
                predictors: int) -> Dict[str, Tuple[float, int]]:
    """The ``core.*`` metrics from ``component_counters`` (summed over
    *predictors* predictors) and per-call reference timings."""
    btb1 = counters.get("btb1", {})
    btb2 = counters.get("btb2", {})
    searches = btb1.get("searches", 0)
    install_attempts = btb2.get("installs", 0) + btb2.get("install_dedups", 0)
    return {
        "core.predict_ns.p50": (percentile(call_ns, 50), len(call_ns)),
        "core.predict_ns.p99": (percentile(call_ns, 99), len(call_ns)),
        "core.btb1.hit_ratio": (
            btb1.get("hit_searches", 0) / searches if searches else 0.0,
            searches),
        "core.btb1.installs": (btb1.get("installs", 0), predictors),
        "core.btb1.evictions": (btb1.get("evictions", 0), predictors),
        "core.btb2.searches": (btb2.get("searches", 0), predictors),
        "core.btb2.transfers_staged": (btb2.get("transfers_staged", 0),
                                       predictors),
        "core.btb2.install_dedup_ratio": (
            btb2.get("install_dedups", 0) / install_attempts
            if install_attempts else 0.0,
            install_attempts),
    }
