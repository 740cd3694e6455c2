"""The parallel sweep runner's determinism contract.

A sweep fanned over worker processes must be indistinguishable from the
sequential loop it replaces: same per-cell stats (checked via the
differential suite's fingerprinting), same result order, and Program
inputs must come back untouched (each cell runs a pristine copy).
"""

import copy

from repro.configs import z15_config
from repro.engine.parallel import SweepCell, make_grid, run_cells
from repro.verification.differential import stats_fingerprint

from tests.conftest import (
    build_small_program,
    build_medium_program,
    small_predictor_config,
)


def _small_grid():
    return make_grid(
        configs=[("tiny", small_predictor_config()), ("z15", z15_config())],
        workloads=[build_small_program(), "compute-kernel"],
        seeds=(1, 7),
        branches=600,
        warmup=100,
    )


def test_parallel_matches_sequential_fingerprints():
    cells = _small_grid()
    sequential = run_cells(copy.deepcopy(cells), workers=1)
    parallel = run_cells(cells, workers=2)
    assert len(sequential) == len(parallel) == len(cells)
    for seq, par in zip(sequential, parallel):
        assert (seq.label, seq.workload, seq.seed) == (
            par.label, par.workload, par.seed
        )
        assert seq.fingerprint == par.fingerprint
        assert stats_fingerprint(seq.stats) == stats_fingerprint(par.stats)


def test_results_preserve_cell_order():
    cells = _small_grid()
    results = run_cells(cells, workers=2)
    assert [(r.label, r.workload, r.seed) for r in results] == [
        (c.label, c.workload_name, c.seed) for c in cells
    ]


def test_make_grid_stamps_engine_mode_on_every_cell():
    grid = make_grid(
        configs=[("z15", z15_config())],
        workloads=["compute-kernel"],
        seeds=(1, 2),
        branches=400,
        warmup=0,
        engine_mode="fast",
    )
    assert all(cell.engine_mode == "fast" for cell in grid)
    results = run_cells(grid, workers=1)
    assert all(result.stats is not None for result in results)


def test_program_inputs_stay_pristine():
    # Behaviours are stateful; the runner must deep-copy Program inputs,
    # so running the same cell twice gives the same fingerprint.
    program = build_medium_program()
    cell = SweepCell(label="m", config=z15_config(), workload=program,
                     branches=500, warmup=0)
    first = run_cells([cell], workers=1)[0]
    second = run_cells([cell], workers=1)[0]
    assert first.fingerprint == second.fingerprint


def test_cycle_cells_fingerprint_identically():
    cells = [
        SweepCell(label="c", config=z15_config(), workload="compute-kernel",
                  branches=400, engine="cycle"),
        SweepCell(label="f", config=z15_config(), workload="compute-kernel",
                  branches=400, warmup=0, engine="functional"),
    ]
    sequential = run_cells(copy.deepcopy(cells), workers=1)
    parallel = run_cells(cells, workers=2)
    assert [r.fingerprint for r in sequential] == [
        r.fingerprint for r in parallel
    ]
    # The cycle cell really ran the cycle engine.
    assert sequential[0].stats.cycles > 0


def test_named_workloads_resolve_per_seed():
    cells = make_grid(
        configs=[("z15", z15_config())],
        workloads=["compute-kernel"],
        seeds=(1, 2),
        branches=400,
        warmup=0,
    )
    results = run_cells(cells, workers=1)
    assert results[0].seed == 1 and results[1].seed == 2
    # Each cell ran its own seed's workload and stats.
    assert all(r.stats.branches == 400 for r in results)


def test_telemetry_cells_do_not_change_results():
    # Satellite guarantee for PR 4: a sweep with telemetry attached is
    # fingerprint-identical to one without, sequentially and in workers.
    base = SweepCell(label="t", config=small_predictor_config(),
                     workload=build_medium_program(), branches=600,
                     warmup=100)
    instrumented = copy.deepcopy(base)
    instrumented.telemetry = True
    instrumented.telemetry_interval = 200
    sequential = run_cells([base, instrumented], workers=1)
    parallel = run_cells([copy.deepcopy(base),
                          copy.deepcopy(instrumented)], workers=2)
    fingerprints = {r.fingerprint for r in sequential + parallel}
    assert len(fingerprints) == 1
    assert sequential[0].telemetry is None
    for result in (sequential[1], parallel[1]):
        assert result.telemetry is not None
        assert result.telemetry["counters"]["engine.branches"] == 600
        assert len(result.telemetry["samples"]) == 3
    # The registry export itself is deterministic across worker counts.
    assert sequential[1].telemetry == parallel[1].telemetry


def test_cycle_cell_telemetry_counts_all_branches():
    cell = SweepCell(label="c", config=z15_config(),
                     workload="compute-kernel", branches=400,
                     engine="cycle", telemetry=True)
    plain = SweepCell(label="c", config=z15_config(),
                      workload="compute-kernel", branches=400,
                      engine="cycle")
    result, reference = run_cells([cell, plain], workers=1)
    assert result.fingerprint == reference.fingerprint
    # No warmup phase in the cycle engine: every branch is counted.
    assert result.telemetry["counters"]["engine.branches"] == 400


# ----------------------------------------------------------------------
# Hardening: failures surface as CellError rows, sweeps never abort
# ----------------------------------------------------------------------
#
# The preludes live at module level so they pickle into worker
# processes; each targets seed 2, leaving the neighbouring cells
# innocent — their fingerprints must match a clean baseline run.


def _tiny_cells():
    return [
        SweepCell(label="tiny", config=small_predictor_config(),
                  workload="compute-kernel", seed=seed, branches=400,
                  warmup=100)
        for seed in (1, 2, 3)
    ]


def _boom_prelude(cell):
    if cell.seed == 2:
        raise RuntimeError("injected cell failure")


def _crash_prelude(cell):
    if cell.seed == 2:
        import os

        os._exit(13)  # simulates a worker killed mid-cell


def _hang_prelude(cell):
    if cell.seed == 2:
        import time

        time.sleep(60)


def _flaky_prelude(marker, cell):
    """Fails the first attempt only — proves the retry path recovers."""
    import os

    if cell.seed == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient failure")


def _baseline_fingerprints():
    return [r.fingerprint for r in run_cells(_tiny_cells(), workers=1)]


def test_failing_cell_becomes_error_row_sequential():
    cells = _tiny_cells()
    cells[1].prelude = _boom_prelude
    results = run_cells(cells, workers=1, retries=1, backoff=0.0)
    error = results[1]
    assert error.kind == "error"
    assert error.attempts == 2  # first try + one retry
    assert "injected cell failure" in error.message
    assert error.stats is None
    assert error.fingerprint == "cell-error:error"
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]


def test_failing_cell_becomes_error_row_parallel():
    cells = _tiny_cells()
    cells[1].prelude = _boom_prelude
    results = run_cells(cells, workers=2, retries=1, backoff=0.0)
    assert results[1].kind == "error"
    assert results[1].attempts == 2
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]


def test_crashed_worker_is_isolated_and_attributed():
    cells = _tiny_cells()
    cells[1].prelude = _crash_prelude
    results = run_cells(cells, workers=2, retries=1, backoff=0.0)
    assert results[1].kind == "crash"
    assert results[1].stats is None
    # Innocent neighbours still complete with baseline-identical stats.
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]


def test_hung_worker_times_out():
    cells = _tiny_cells()
    cells[1].prelude = _hang_prelude
    results = run_cells(cells, workers=2, timeout=3.0, retries=0,
                        backoff=0.0)
    assert results[1].kind == "timeout"
    assert "3.0" in results[1].message
    baseline = _baseline_fingerprints()
    assert [results[0].fingerprint, results[2].fingerprint] == [
        baseline[0], baseline[2]
    ]


def test_retry_recovers_transient_failure(tmp_path):
    import functools

    cells = _tiny_cells()
    cells[1].prelude = functools.partial(
        _flaky_prelude, str(tmp_path / "attempted.marker")
    )
    results = run_cells(cells, workers=1, retries=1, backoff=0.0)
    # The flaky cell recovered on retry: a full SweepResult, identical
    # to what a clean run produces (retries preserve determinism).
    baseline = _baseline_fingerprints()
    assert [r.fingerprint for r in results] == baseline


def test_fault_plan_rides_cells_and_rate_zero_is_identity():
    from repro.resilience import FaultPlan

    clean = _tiny_cells()
    faulted = _tiny_cells()
    for cell in faulted:
        cell.fault_plan = FaultPlan(seed=5, rate=0.02)
    inert = _tiny_cells()
    for cell in inert:
        cell.fault_plan = FaultPlan(seed=5, rate=0.0)
    clean_results = run_cells(clean, workers=1)
    faulted_results = run_cells(faulted, workers=2)
    inert_results = run_cells(inert, workers=1)
    for result in faulted_results:
        assert result.faults is not None
        assert result.faults["branches_seen"] == 500  # branches + warmup
    # rate=0: the injector rides along but never perturbs the run.
    assert [r.fingerprint for r in inert_results] == [
        r.fingerprint for r in clean_results
    ]
    assert all(r.faults["injected"] == 0 for r in inert_results)
