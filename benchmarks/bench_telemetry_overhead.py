"""X7 — telemetry overhead (the observability layer's own cost).

Not a paper experiment: measures what attaching a `TelemetrySession`
costs relative to a plain run — in every engine mode — and pins the
contract that matters more than the absolute numbers: telemetry *off*
is free (the engines keep their ``observer is None`` fast loops and
produce byte-identical fingerprints), and telemetry *on* never changes
results (fingerprint-identical stats).  Uses real pytest-benchmark
rounds like `bench_simulator_throughput`.
"""

import pytest

from repro.configs import z15_config
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine import ENGINE_MODES, FunctionalEngine
from repro.obs import TelemetrySession
from repro.obs.spans import SpanTracer
from repro.verification.differential import stats_fingerprint
from repro.workloads import get_workload

BRANCHES = 3000


def _run_plain(workload: str, engine_mode: str = "reference", spans=None):
    engine = FunctionalEngine(LookaheadBranchPredictor(z15_config()),
                              engine_mode=engine_mode, spans=spans)
    return engine.run_program(get_workload(workload),
                              max_branches=BRANCHES, warmup_branches=0)


def _run_instrumented(workload: str, trace_path=None,
                      engine_mode: str = "reference"):
    predictor = LookaheadBranchPredictor(z15_config())
    session = TelemetrySession(predictor=predictor, interval=500,
                               trace_path=trace_path)
    if trace_path:
        session.begin(workload=workload, predictor="z15", seed=1,
                      branches=BRANCHES)
    engine = FunctionalEngine(predictor, telemetry=session,
                              engine_mode=engine_mode)
    stats = engine.run_program(get_workload(workload),
                               max_branches=BRANCHES, warmup_branches=0)
    session.finish(stats)
    return stats


@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_telemetry_collection_overhead(benchmark, workload, engine_mode):
    if engine_mode == "fast":
        # Kernel compilation is cached process-wide; pay it outside the
        # timed rounds so they measure steady state (like any JIT).
        _run_plain(workload, engine_mode="fast")
    stats = benchmark.pedantic(
        _run_instrumented, args=(workload,),
        kwargs={"engine_mode": engine_mode},
        rounds=3, iterations=1, warmup_rounds=1,
    )
    seconds = benchmark.stats.stats.mean
    branches_per_second = BRANCHES / seconds
    print(f"\n{workload} [{engine_mode}] (telemetry on): "
          f"{branches_per_second:,.0f} branches/second")
    # Collection adds one observer call and ~20 counter increments per
    # branch; anything below this floor means the collector grew a
    # pathological hot path.
    assert branches_per_second > 3000
    # The contract the overhead is paid for: identical results.
    assert stats_fingerprint(stats) == stats_fingerprint(
        _run_plain(workload, engine_mode=engine_mode)
    )


@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_telemetry_off_is_identity(workload):
    """Telemetry-off runs are byte-identical in every engine mode: no
    observability hook may perturb results when disabled, and a span
    tracer (which only *times* phases) must not perturb them either."""
    reference = stats_fingerprint(_run_plain(workload))
    for engine_mode in ENGINE_MODES:
        fingerprint = stats_fingerprint(
            _run_plain(workload, engine_mode=engine_mode)
        )
        assert fingerprint == reference, (
            f"telemetry-off fingerprint diverged in {engine_mode} mode"
        )
        traced = stats_fingerprint(
            _run_plain(workload, engine_mode=engine_mode,
                       spans=SpanTracer())
        )
        assert traced == reference, (
            f"span tracing perturbed results in {engine_mode} mode"
        )


def test_trace_sink_overhead(benchmark, tmp_path):
    path = str(tmp_path / "bench.jsonl")
    stats = benchmark.pedantic(
        _run_instrumented, args=("transactions", path), rounds=3,
        iterations=1, warmup_rounds=1,
    )
    seconds = benchmark.stats.stats.mean
    branches_per_second = BRANCHES / seconds
    print(f"\ntransactions (telemetry + trace): "
          f"{branches_per_second:,.0f} branches/second")
    # One json.dumps + write per branch dominates; the floor only
    # catches order-of-magnitude regressions in the sink.
    assert branches_per_second > 1000
    assert stats.branches == BRANCHES
