"""Property battery: a random sweep grid run through the warm pool is
byte-identical to the sequential loop, whatever the grid shape.

Hypothesis draws the whole execution geometry — grid composition
(concrete Programs and named suite workloads, mixed engine modes, telemetry
cells, fault-plan cells, functional and cycle engines), chunk size and
worker count — and the property is always the same string comparison:
the parallel fingerprint list equals the sequential one, row for row.

Examples are kept deliberately tiny (hundreds of branches, a handful of
cells) because every example spawns a real process pool; the value is
in the geometry coverage, not the cell size.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.configs import z15_config
from repro.engine.parallel import SweepCell, run_cells
from repro.resilience import FaultPlan

from tests.conftest import (
    build_medium_program,
    build_small_program,
    small_predictor_config,
)

_CONFIGS = {
    "tiny": small_predictor_config,
    "z15": z15_config,
}

#: Workload axis: two concrete Program builders plus named suite
#: workloads resolved per (name, seed) inside the cell body.
_WORKLOADS = ("small-program", "medium-program", "compute-kernel",
              "dispatch")


def _workload_for(name: str, seed: int):
    if name == "small-program":
        return build_small_program()
    if name == "medium-program":
        return build_medium_program(seed=seed)
    return name


@st.composite
def sweep_cells(draw):
    """One random cell: every axis the fleet grid crosses, in miniature."""
    config_name = draw(st.sampled_from(sorted(_CONFIGS)))
    workload_name = draw(st.sampled_from(_WORKLOADS))
    seed = draw(st.integers(min_value=1, max_value=50))
    engine = draw(st.sampled_from(["functional", "functional", "cycle"]))
    telemetry = draw(st.booleans())
    faulted = draw(st.booleans())
    return SweepCell(
        label=config_name,
        config=_CONFIGS[config_name](),
        workload=_workload_for(workload_name, seed),
        seed=seed,
        branches=draw(st.sampled_from([150, 200, 300])),
        warmup=draw(st.sampled_from([0, 50])),
        engine=engine,
        engine_mode=draw(st.sampled_from(["reference", "fast"])),
        telemetry=telemetry,
        telemetry_interval=draw(st.sampled_from([0, 100])) if telemetry
        else 0,
        fault_plan=FaultPlan(seed=seed, rate=draw(
            st.sampled_from([0.0, 0.02]))) if faulted else None,
    )


@st.composite
def sweep_geometry(draw):
    cells = draw(st.lists(sweep_cells(), min_size=2, max_size=5))
    chunk_size = draw(st.integers(min_value=1, max_value=4))
    workers = draw(st.sampled_from([2, 2, 3]))
    return cells, chunk_size, workers


@given(sweep_geometry())
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_grid_parallel_matches_sequential(geometry):
    cells, chunk_size, workers = geometry
    sequential = run_cells(copy.deepcopy(cells), workers=1)
    parallel = run_cells(cells, workers=workers, chunk_size=chunk_size)
    assert [r.fingerprint for r in parallel] == [
        r.fingerprint for r in sequential
    ]
    # Row identity (not just digests) survives the fan-out: telemetry
    # exports and fault counters are observer data, but they too must be
    # deterministic across worker counts.
    for seq, par in zip(sequential, parallel):
        assert (seq.label, seq.workload, seq.seed) == (
            par.label, par.workload, par.seed
        )
        assert seq.telemetry == par.telemetry
        assert seq.faults == par.faults


@given(chunk_size=st.integers(min_value=1, max_value=6),
       workers=st.sampled_from([1, 2, 4]))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fixed_grid_invariant_to_execution_geometry(chunk_size, workers):
    """Same fixed grid, every (chunk_size, workers) drawn: one canonical
    fingerprint list."""
    program = build_medium_program(seed=9)
    config = small_predictor_config()
    cells = [
        SweepCell(label="geo", config=config, workload=program,
                  seed=seed, branches=250, warmup=50)
        for seed in (1, 2, 3, 4)
    ]
    reference = run_cells(copy.deepcopy(cells), workers=1)
    results = run_cells(cells, workers=workers, chunk_size=chunk_size)
    assert [r.fingerprint for r in results] == [
        r.fingerprint for r in reference
    ]
