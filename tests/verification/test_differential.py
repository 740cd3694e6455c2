"""Tests for the differential verification harness.

Covers the three check families (cross-engine equivalence, deterministic
replay, baseline cross-validation), proves the harness actually *detects*
divergence when a predictor table is corrupted, and sweeps randomized
programs through both engines with hypothesis.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LookaheadBranchPredictor
from repro.core.entries import BtbEntry
from repro.engine import CycleEngine, FunctionalEngine
from repro.isa.instructions import BranchKind
from repro.structures.saturating import TwoBitDirectionCounter
from repro.verification.differential import (
    BASELINE_EXPECTATIONS,
    DIRECTED_FAMILIES,
    BranchObservation,
    Divergence,
    DivergenceReport,
    always_taken_loop_program,
    cross_engine_report,
    cross_validate_baselines,
    diff_observations,
    observer_into,
    predictor_fingerprint,
    replay_report,
    run_differential_suite,
    state_roundtrip_report,
    stats_fingerprint,
)
from repro.workloads import get_workload

from tests.conftest import (
    DEFAULT_TEST_SEED,
    program_shapes,
    small_predictor_config,
)

#: Fast-but-representative workload families for cross-engine checks.
FAMILIES = ("compute-kernel", "services", "dispatch")


# ----------------------------------------------------------------------
# Cross-engine equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", FAMILIES)
def test_cross_engine_clean_on_standard_families(workload):
    report = cross_engine_report(workload, branches=800,
                                 seed=DEFAULT_TEST_SEED)
    assert report.clean, report.summary()
    assert report.branches_compared == 800
    assert report.first_divergence is None
    assert report.aggregate_mismatches == []


def test_cross_engine_observers_see_identical_streams():
    """The per-branch observation streams themselves must be equal, not
    just hash-equal aggregates."""
    program = get_workload("patterned", DEFAULT_TEST_SEED)
    functional_obs, cycle_obs = [], []
    from repro.configs import z15_config

    FunctionalEngine(
        LookaheadBranchPredictor(z15_config()),
        observer=observer_into(functional_obs),
    ).run_program(program, max_branches=400, seed=DEFAULT_TEST_SEED)
    CycleEngine(
        LookaheadBranchPredictor(z15_config()),
        observer=observer_into(cycle_obs),
    ).run_program(get_workload("patterned", DEFAULT_TEST_SEED),
                  max_branches=400, seed=DEFAULT_TEST_SEED)
    assert functional_obs == cycle_obs


def test_corrupted_table_produces_named_divergence():
    """Poisoning one BTB1 entry on the cycle side must surface as a
    DivergenceReport naming the first diverging branch."""
    program = always_taken_loop_program()
    branch_address = 0x4010  # start + 4 straight instructions

    def corrupt(predictor):
        poison = BtbEntry(
            tag=0,
            offset=0,
            length=4,
            kind=BranchKind.CONDITIONAL_RELATIVE,
            target=0x9999 & ~1,
            bht=TwoBitDirectionCounter(
                TwoBitDirectionCounter.STRONG_NOT_TAKEN
            ),
        )
        predictor.btb1.install(branch_address, 0, poison)

    report = cross_engine_report(
        program, branches=200, seed=DEFAULT_TEST_SEED, prepare_cycle=corrupt
    )
    assert not report.clean
    assert report.first_divergence is not None
    assert report.first_divergence.address == branch_address
    assert report.first_divergence.index == 0
    summary = report.summary()
    assert "DIVERGED" in summary
    assert hex(branch_address) in summary


def test_corruption_on_functional_side_also_detected():
    program = always_taken_loop_program()

    def corrupt(predictor):
        poison = BtbEntry(
            tag=0, offset=0, length=4,
            kind=BranchKind.CONDITIONAL_RELATIVE, target=0x4000,
            bht=TwoBitDirectionCounter(
                TwoBitDirectionCounter.STRONG_NOT_TAKEN
            ),
        )
        predictor.btb1.install(0x4010, 0, poison)

    report = cross_engine_report(
        program, branches=100, seed=DEFAULT_TEST_SEED,
        prepare_functional=corrupt,
    )
    assert not report.clean
    assert report.first_divergence is not None


# ----------------------------------------------------------------------
# Divergence localisation plumbing
# ----------------------------------------------------------------------


def _observation(index, **overrides):
    values = dict(
        index=index,
        address=0x1000 + index * 4,
        taken=True,
        predicted_taken=True,
        predicted_target=0x2000,
        dynamic=True,
        mispredict_class="none",
    )
    values.update(overrides)
    return BranchObservation(**values)


def test_diff_observations_finds_first_mismatch():
    left = [_observation(0), _observation(1), _observation(2)]
    right = [
        _observation(0),
        _observation(1, predicted_taken=False, mispredict_class="surprise-taken"),
        _observation(2, taken=False),
    ]
    divergence = diff_observations(left, right)
    assert divergence is not None
    assert divergence.index == 1
    assert divergence.field == "predicted_taken"
    assert divergence.left is True and divergence.right is False
    assert "#1" in divergence.describe()


def test_diff_observations_reports_length_mismatch():
    left = [_observation(0)]
    right = [_observation(0), _observation(1)]
    divergence = diff_observations(left, right)
    assert divergence is not None
    assert divergence.field == "stream_length"
    assert (divergence.left, divergence.right) == (1, 2)


def test_diff_observations_equal_streams():
    stream = [_observation(i) for i in range(5)]
    assert diff_observations(stream, list(stream)) is None


def test_divergence_report_summary_shapes():
    report = DivergenceReport(title="t", left_label="a", right_label="b")
    assert report.clean
    assert "CLEAN" in report.summary()
    report.first_divergence = Divergence(
        index=3, address=0x40, field="taken", left=True, right=False
    )
    report.aggregate_mismatches.append(("branches", 10, 11))
    assert not report.clean
    summary = report.summary()
    assert "DIVERGED" in summary and "branches" in summary


# ----------------------------------------------------------------------
# Deterministic replay
# ----------------------------------------------------------------------


def test_replay_is_bit_identical():
    report = replay_report("services", branches=600, seed=DEFAULT_TEST_SEED)
    assert report.clean, report.summary()


def test_stats_and_predictor_fingerprints_are_stable():
    def run():
        from repro.configs import z15_config

        predictor = LookaheadBranchPredictor(z15_config())
        engine = FunctionalEngine(predictor)
        stats = engine.run_program(
            get_workload("dispatch", DEFAULT_TEST_SEED),
            max_branches=500, seed=DEFAULT_TEST_SEED,
        )
        return stats_fingerprint(stats), predictor_fingerprint(predictor)

    assert run() == run()


def test_predictor_fingerprint_changes_with_state():
    predictor = LookaheadBranchPredictor(small_predictor_config())
    before = predictor_fingerprint(predictor)
    entry = BtbEntry(
        tag=0, offset=0, length=4,
        kind=BranchKind.UNCONDITIONAL_RELATIVE, target=0x2000,
    )
    predictor.btb1.install(0x1000, 0, entry)
    assert predictor_fingerprint(predictor) != before


def test_state_roundtrip_report_clean_on_warmed_predictor():
    from repro.configs import z15_config

    predictor = LookaheadBranchPredictor(z15_config())
    FunctionalEngine(predictor).run_program(
        get_workload("transactions", DEFAULT_TEST_SEED),
        max_branches=2000, seed=DEFAULT_TEST_SEED,
    )
    report = state_roundtrip_report(predictor, label="warmed")
    assert report.clean, report.summary()


# ----------------------------------------------------------------------
# Baseline cross-validation
# ----------------------------------------------------------------------


def test_expectation_table_covers_every_family():
    assert set(BASELINE_EXPECTATIONS) == set(DIRECTED_FAMILIES)


def test_cross_validate_baselines_all_pass():
    checks = cross_validate_baselines(seed=DEFAULT_TEST_SEED,
                                      branches=1200, warmup=400)
    failing = [check.describe() for check in checks if not check.ok]
    assert not failing, "\n".join(failing)
    # Every (family, predictor) expectation actually ran.
    expected_count = sum(
        1 for family in BASELINE_EXPECTATIONS
        for minimum in BASELINE_EXPECTATIONS[family].values()
        if minimum is not None
    )
    assert len(checks) == expected_count


def test_directed_families_have_the_advertised_shape():
    """The always-taken family really is 100% taken branches."""
    from repro.workloads.executor import Executor

    program = always_taken_loop_program()
    executor = Executor(program, seed=DEFAULT_TEST_SEED)
    outcomes = [branch.taken for branch in executor.run(max_branches=50)]
    assert all(outcomes)


# ----------------------------------------------------------------------
# The full suite
# ----------------------------------------------------------------------


def test_run_differential_suite_clean_and_summarised():
    result = run_differential_suite(
        seed=DEFAULT_TEST_SEED, branches=600,
        workloads=("compute-kernel", "services", "dispatch"),
    )
    assert result.clean
    assert result.divergence_count == 0
    # Per workload: cross-engine x 2 modes + cross-mode = 9, then
    # replay x 2 modes and one state round-trip.
    assert len(result.reports) == 12
    summary = result.summary()
    assert "verdict: CLEAN" in summary
    assert summary.count("[CLEAN]") == 12
    assert "cross-mode" in summary
    assert "[fast mode]" in summary


def test_run_differential_suite_reference_mode_shape():
    # The pre-fast-mode report structure is still reachable explicitly.
    result = run_differential_suite(
        seed=DEFAULT_TEST_SEED, branches=600,
        workloads=("compute-kernel", "services", "dispatch"),
        engine_modes=("reference",),
    )
    assert result.clean
    # 3 cross-engine + replay + state round-trip.
    assert len(result.reports) == 5
    assert "cross-mode" not in result.summary()


def test_cli_verify_diff_exits_zero(capsys):
    from repro.__main__ import main

    main(["verify-diff", "--seed", "1234", "--branches", "500",
          "--workloads", "compute-kernel", "services", "patterned"])
    out = capsys.readouterr().out
    assert "verdict: CLEAN" in out
    assert "baseline cross-validation" in out


# ----------------------------------------------------------------------
# Hypothesis sweeps (randomized program shapes through both engines)
# ----------------------------------------------------------------------


@pytest.mark.slow
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_shapes(), st.integers(min_value=0, max_value=2**16))
def test_random_programs_cross_engine_equivalent(program, seed):
    report = cross_engine_report(
        program, branches=250, seed=seed,
        config_factory=small_predictor_config,
    )
    assert report.clean, report.summary()


@pytest.mark.slow
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_shapes(), st.integers(min_value=0, max_value=2**16))
def test_random_programs_replay_deterministically(program, seed):
    report = replay_report(
        program, branches=250, seed=seed,
        config_factory=small_predictor_config,
    )
    assert report.clean, report.summary()


@pytest.mark.slow
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**16))
def test_random_seeds_state_roundtrip_byte_identical(seed):
    predictor = LookaheadBranchPredictor(small_predictor_config())
    FunctionalEngine(predictor).run_program(
        get_workload("footprint-small", seed), max_branches=400, seed=seed
    )
    report = state_roundtrip_report(predictor, label=f"seed={seed}")
    assert report.clean, report.summary()
