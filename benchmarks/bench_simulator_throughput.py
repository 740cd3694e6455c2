"""X6 — simulator throughput (the library's own performance).

Not a paper experiment: measures the model's simulation speed so
regressions in the hot paths (the search walk, figure-8 selection, the
update pipeline) are caught.  Uses real pytest-benchmark rounds, unlike
the reproduction benches which run once and print tables.
"""

import pytest

from repro.configs import z15_config
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine import CycleEngine, FunctionalEngine, SweepCell, run_cells
from repro.workloads import get_workload

BRANCHES = 3000
CYCLE_BRANCHES = 2000
SWEEP_CELLS = 8
SWEEP_BRANCHES = 1500


def _simulate(program_name: str, engine_mode: str = "reference") -> float:
    engine = FunctionalEngine(LookaheadBranchPredictor(z15_config()),
                              engine_mode=engine_mode)
    stats = engine.run_program(get_workload(program_name),
                               max_branches=BRANCHES, warmup_branches=0)
    return stats.mpki


def _simulate_cycles(program_name: str) -> int:
    engine = CycleEngine(LookaheadBranchPredictor(z15_config()))
    stats = engine.run_program(get_workload(program_name),
                               max_branches=CYCLE_BRANCHES)
    return stats.cycles


@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_functional_throughput(benchmark, workload):
    result = benchmark.pedantic(
        _simulate, args=(workload,), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result >= 0.0
    # Floor: the hot-path optimisation pass roughly doubled the engine's
    # speed, so the regression floor doubles too — 6K branches/second,
    # which still leaves ~1.5-2x headroom for machine noise below the
    # slowest numbers observed on a loaded box.
    seconds = benchmark.stats.stats.mean
    branches_per_second = BRANCHES / seconds
    print(f"\n{workload}: "
          f"{branches_per_second:,.0f} branches/second")
    assert branches_per_second > 6000


@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_fast_mode_throughput(benchmark, workload):
    # Warm the process-wide kernel cache outside the timed rounds, so
    # the bench measures steady state (the one-off compile is ~the cost
    # of a few thousand simulated branches).
    _simulate(workload, "fast")
    result = benchmark.pedantic(
        _simulate, args=(workload, "fast"), rounds=3,
        iterations=1, warmup_rounds=1,
    )
    assert result >= 0.0
    # The specialized kernels target >= 1.5x the reference interpreter;
    # the committed floor leaves the same noise headroom as above
    # (observed ~27-31K branches/s on the baseline box).
    seconds = benchmark.stats.stats.mean
    branches_per_second = BRANCHES / seconds
    print(f"\n{workload} [fast]: "
          f"{branches_per_second:,.0f} branches/second")
    assert branches_per_second > 9000


@pytest.mark.parametrize("workload", ["compute-kernel", "transactions"])
def test_cycle_throughput(benchmark, workload):
    result = benchmark.pedantic(
        _simulate_cycles, args=(workload,), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert result > 0
    # The cycle engine models the search pipe cycle by cycle, so it is
    # legitimately slower than the functional engine; the floor only
    # catches order-of-magnitude regressions.
    seconds = benchmark.stats.stats.mean
    branches_per_second = CYCLE_BRANCHES / seconds
    print(f"\n{workload} (cycle): "
          f"{branches_per_second:,.0f} branches/second")
    assert branches_per_second > 1000


def _sweep_cells():
    # One shared Program across every cell: the serialize-once registry
    # should collapse the whole grid's payload traffic to two blobs
    # (program + config).
    program = get_workload("compute-kernel", 1)
    config = z15_config()
    return [
        SweepCell(label="warm", config=config, workload=program,
                  seed=seed, branches=SWEEP_BRANCHES, warmup=500)
        for seed in range(1, SWEEP_CELLS + 1)
    ]


def _run_warm_sweep(workers: int, chunk_size: int) -> dict:
    stats: dict = {}
    results = run_cells(_sweep_cells(), workers=workers,
                        chunk_size=chunk_size, pool_stats=stats)
    assert all(r.stats is not None for r in results)
    return stats


@pytest.mark.parametrize("workers,chunk_size", [(1, 1), (2, 4)])
def test_warm_pool_sweep_throughput(benchmark, workers, chunk_size):
    stats = benchmark.pedantic(
        _run_warm_sweep, args=(workers, chunk_size), rounds=3,
        iterations=1, warmup_rounds=1,
    )
    seconds = benchmark.stats.stats.mean
    branches = SWEEP_CELLS * (SWEEP_BRANCHES + 500)
    print(f"\nwarm sweep [workers={workers} chunk={chunk_size} "
          f"mode={stats['mode']}]: {branches / seconds:,.0f} branches/second")
    # Serialize-once microbench contract: however the sweep is fanned
    # out, the parent pickles each distinct payload object exactly once
    # (one Program + one config here), and each worker process receives
    # the blob cache exactly once — never once per cell or per chunk.
    assert stats["parent_pickle_calls"] == 2
    assert stats["payload_blobs"] == 2
    for pid, worker in stats["workers"].items():
        assert worker["installs"] == 1, (
            f"worker {pid} re-received payloads {worker['installs']} times"
        )
    # Floor only guards order-of-magnitude regressions: pool spawn costs
    # dominate a grid this small on a loaded 1-core box.
    assert branches / seconds > 1500
