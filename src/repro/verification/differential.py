"""Differential verification: cross-engine equivalence, deterministic
replay, and baseline cross-validation.

The paper's verification environment (§VII) checks the predictor against
reference models driven by the same stimulus.  This module generalises
the idea to the reproduction itself, where the risks are different: the
functional engine (:mod:`repro.engine.functional`) and the cycle engine
(:mod:`repro.engine.cycle`) both drive the same predictor protocol, so a
silent behavioural divergence between them — or a lossy
:mod:`repro.core.state_io` round-trip, or a seed-dependent
nondeterminism — would corrupt every experiment built on top without
failing a single unit test.

Four families of checks, each producing a :class:`DivergenceReport`
that localises the *first* diverging branch for debuggability:

* **Cross-engine equivalence** — the same workload through both engines
  must produce bit-identical per-branch predictions and identical shared
  accuracy invariants (branch counts, per-class mispredict totals,
  coverage; cycle-only timing stats are excluded).
* **Cross-mode equivalence** — the same workload through the same
  predictor under two *engine modes* (the reference interpreter and the
  config-specialized compiled kernels of
  :mod:`repro.engine.specialize`) must produce bit-identical per-branch
  predictions, invariants, table fingerprints, *and* byte-identical
  ``state_io`` checkpoints — specialization is pure derivation, so any
  observable difference is a codegen bug.
* **Deterministic replay** — the same seed must reproduce bit-identical
  :class:`~repro.stats.metrics.RunStats` and final predictor state
  across runs, and predictor state must survive a ``state_io``
  save -> load -> save round-trip byte-identically.
* **Baseline cross-validation** — directed workloads with known-best
  outcomes (always-taken loops, dead guards, short counted loops) must
  reach their expected direction accuracy on the z15 predictor *and*
  every baseline, catching harness bugs that a single predictor's
  regression suite would attribute to the predictor.

``python -m repro verify-diff`` runs the full suite.
"""

from __future__ import annotations

import copy
import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GsharePredictor,
    LTagePredictor,
    StaticBtfntPredictor,
)
from repro.configs import z15_config
from repro.core import LookaheadBranchPredictor, load_state, save_state
from repro.core.predictor import PredictionOutcome
from repro.core.state_io import _entry_to_dict
from repro.engine.specialize import ENGINE_MODES
from repro.engine.cycle import CycleEngine
from repro.engine.functional import FunctionalEngine
from repro.stats.metrics import RunStats, classify
from repro.workloads import get_workload
from repro.workloads.behaviors import AlwaysTaken, Loop, NeverTaken
from repro.workloads.program import CodeBuilder, Program
from repro.isa.instructions import BranchKind

#: A standard-suite workload name, or a prebuilt directed Program.
Workload = Union[str, Program]


def _resolve_workload(workload: Workload, seed: int) -> Program:
    if isinstance(workload, Program):
        # Behaviours are stateful (loop counters, pattern positions);
        # every differential run must start from a pristine copy.
        return copy.deepcopy(workload)
    return get_workload(workload, seed)


def _workload_name(workload: Workload) -> str:
    return workload.name if isinstance(workload, Program) else workload

#: RunStats fields both engines must agree on (timing-only stats such as
#: CPI, restart cycles or cache behaviour live in CycleStats and are
#: deliberately excluded).
SHARED_INVARIANTS: Tuple[str, ...] = (
    "branches",
    "instructions",
    "dynamic_predictions",
    "surprise_branches",
    "taken_branches",
    "mispredicted_branches",
    "direction_wrong",
    "target_wrong",
    "lines_searched",
    "empty_searches",
    "lines_skipped_by_skoot",
    "skoot_overshoots",
    "btb2_triggers",
    "bad_predictions_removed",
    "bad_taken_restarts",
    "cpred_accelerated_streams",
    "predicted_taken_dynamic",
)

#: Workload families the CLI cross-engine check runs by default.
DEFAULT_WORKLOAD_FAMILIES: Tuple[str, ...] = (
    "compute-kernel",
    "services",
    "dispatch",
    "transactions",
)


# ----------------------------------------------------------------------
# Per-branch observations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BranchObservation:
    """The engine-independent view of one predicted branch."""

    index: int
    address: int
    taken: bool
    predicted_taken: bool
    predicted_target: Optional[int]
    dynamic: bool
    mispredict_class: str

    @classmethod
    def from_outcome(cls, index: int, outcome: PredictionOutcome
                     ) -> "BranchObservation":
        record = outcome.record
        return cls(
            index=index,
            address=record.address,
            taken=bool(record.actual_taken),
            predicted_taken=record.predicted_taken,
            predicted_target=record.predicted_target,
            dynamic=record.dynamic,
            mispredict_class=classify(outcome).value,
        )


def observer_into(sink: List[BranchObservation]
                  ) -> Callable[[PredictionOutcome], None]:
    """An engine ``observer`` callback appending to *sink*."""

    def observe(outcome: PredictionOutcome) -> None:
        sink.append(BranchObservation.from_outcome(len(sink), outcome))

    return observe


# ----------------------------------------------------------------------
# Divergence reporting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """The first point where two observation streams disagree."""

    index: int
    address: int
    field: str
    left: object
    right: object

    def describe(self) -> str:
        return (
            f"first divergence at branch #{self.index} "
            f"(address {self.address:#x}): {self.field} "
            f"{self.left!r} != {self.right!r}"
        )


@dataclass
class DivergenceReport:
    """Result of one differential comparison."""

    title: str
    left_label: str
    right_label: str
    branches_compared: int = 0
    first_divergence: Optional[Divergence] = None
    #: Aggregate metric mismatches as (metric, left value, right value).
    aggregate_mismatches: List[Tuple[str, object, object]] = field(
        default_factory=list
    )

    @property
    def clean(self) -> bool:
        return self.first_divergence is None and not self.aggregate_mismatches

    def summary(self) -> str:
        status = "CLEAN" if self.clean else "DIVERGED"
        lines = [
            f"[{status}] {self.title} "
            f"({self.left_label} vs {self.right_label}, "
            f"{self.branches_compared} branches)"
        ]
        if self.first_divergence is not None:
            lines.append(f"  {self.first_divergence.describe()}")
        for metric, left, right in self.aggregate_mismatches:
            lines.append(
                f"  aggregate {metric}: "
                f"{self.left_label}={left!r} {self.right_label}={right!r}"
            )
        return "\n".join(lines)


def diff_observations(
    left: Sequence[BranchObservation], right: Sequence[BranchObservation]
) -> Optional[Divergence]:
    """The first per-branch disagreement between two streams, if any."""
    for a, b in zip(left, right):
        if a == b:
            continue
        for name in ("address", "taken", "predicted_taken",
                     "predicted_target", "dynamic", "mispredict_class"):
            if getattr(a, name) != getattr(b, name):
                return Divergence(
                    index=a.index,
                    address=a.address,
                    field=name,
                    left=getattr(a, name),
                    right=getattr(b, name),
                )
    if len(left) != len(right):
        shorter = min(len(left), len(right))
        longer = left if len(left) > len(right) else right
        return Divergence(
            index=shorter,
            address=longer[shorter].address,
            field="stream_length",
            left=len(left),
            right=len(right),
        )
    return None


def comparable_stats(stats: RunStats) -> Dict[str, object]:
    """The engine-independent slice of a :class:`RunStats`, as a plain
    JSON-serialisable dict (stable key order)."""
    snapshot: Dict[str, object] = {
        name: getattr(stats, name) for name in SHARED_INVARIANTS
    }
    snapshot["classes"] = {
        klass.value: count
        for klass, count in sorted(
            stats.classes.items(), key=lambda kv: kv[0].value
        )
        if count
    }
    snapshot["direction_providers"] = {
        provider.value: list(counts)
        for provider, counts in sorted(
            stats.direction_providers.items(), key=lambda kv: kv[0].value
        )
    }
    snapshot["target_providers"] = {
        provider.value: list(counts)
        for provider, counts in sorted(
            stats.target_providers.items(), key=lambda kv: kv[0].value
        )
    }
    return snapshot


def diff_aggregates(
    left: Dict[str, object], right: Dict[str, object]
) -> List[Tuple[str, object, object]]:
    mismatches = []
    for key in left:
        if left[key] != right.get(key):
            mismatches.append((key, left[key], right.get(key)))
    for key in right:
        if key not in left:
            mismatches.append((key, None, right[key]))
    return mismatches


# ----------------------------------------------------------------------
# Fingerprints (bit-identical replay)
# ----------------------------------------------------------------------


def stats_fingerprint(stats: RunStats) -> str:
    """A stable digest of every shared accuracy invariant."""
    payload = json.dumps(comparable_stats(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def predictor_fingerprint(predictor: LookaheadBranchPredictor) -> str:
    """A stable digest of the predictor's learned address-keyed state
    (BTB1 and BTB2 contents, position included) plus its top-level
    counters."""
    btb1 = [
        {"row": row, "way": way, **_entry_to_dict(entry)}
        for row, way, entry in predictor.btb1.entries()
    ]
    btb2 = []
    if predictor.btb2 is not None:
        for row, way, snapshot in predictor.btb2._table:
            btb2.append(
                {
                    "row": row,
                    "way": way,
                    "offset": snapshot.offset,
                    "kind": snapshot.kind.value,
                    "target": snapshot.target,
                    "bht": snapshot.bht_value,
                    "line_base": snapshot.line_base,
                    "context": snapshot.context,
                }
            )
    payload = {
        "btb1": btb1,
        "btb2": btb2,
        "predictions": predictor.predictions,
        "dynamic_predictions": predictor.dynamic_predictions,
        "surprise_branches": predictor.surprise_branches,
        "restarts": predictor.restarts,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Cross-engine equivalence
# ----------------------------------------------------------------------


def cross_engine_report(
    workload: Workload,
    branches: int = 3000,
    seed: int = 1234,
    config_factory: Callable = z15_config,
    prepare_functional: Optional[Callable] = None,
    prepare_cycle: Optional[Callable] = None,
    engine_mode: str = "reference",
) -> DivergenceReport:
    """Run *workload* through the functional and cycle engines with
    identically configured predictors and compare them branch by branch.

    The ``prepare_*`` hooks receive the freshly built predictor before
    the run; tests use them to corrupt one side's tables and prove the
    comparison actually detects divergence.  *engine_mode* selects the
    drive mode both engines use.
    """
    functional_observations: List[BranchObservation] = []
    functional_predictor = LookaheadBranchPredictor(config_factory())
    if prepare_functional is not None:
        prepare_functional(functional_predictor)
    functional_engine = FunctionalEngine(
        functional_predictor,
        observer=observer_into(functional_observations),
        engine_mode=engine_mode,
    )
    functional_stats = functional_engine.run_program(
        _resolve_workload(workload, seed), max_branches=branches, seed=seed
    )

    cycle_observations: List[BranchObservation] = []
    cycle_predictor = LookaheadBranchPredictor(config_factory())
    if prepare_cycle is not None:
        prepare_cycle(cycle_predictor)
    cycle_engine = CycleEngine(
        cycle_predictor, observer=observer_into(cycle_observations),
        engine_mode=engine_mode,
    )
    cycle_stats = cycle_engine.run_program(
        _resolve_workload(workload, seed), max_branches=branches, seed=seed
    ).accuracy

    suffix = "" if engine_mode == "reference" else f" [{engine_mode} mode]"
    report = DivergenceReport(
        title=f"cross-engine {_workload_name(workload)}{suffix}",
        left_label="functional",
        right_label="cycle",
        branches_compared=min(
            len(functional_observations), len(cycle_observations)
        ),
    )
    report.first_divergence = diff_observations(
        functional_observations, cycle_observations
    )
    report.aggregate_mismatches = diff_aggregates(
        comparable_stats(functional_stats), comparable_stats(cycle_stats)
    )
    return report


# ----------------------------------------------------------------------
# Cross-mode equivalence (reference interpreter vs compiled kernels)
# ----------------------------------------------------------------------


def cross_mode_report(
    workload: Workload,
    branches: int = 3000,
    seed: int = 1234,
    config_factory: Callable = z15_config,
    left_mode: str = "reference",
    right_mode: str = "fast",
    prepare_left: Optional[Callable] = None,
    prepare_right: Optional[Callable] = None,
) -> DivergenceReport:
    """Run *workload* through the functional engine under two engine
    modes and compare them branch by branch.

    On top of the per-branch stream, the aggregate invariants and the
    final table fingerprints, both predictors' ``state_io`` checkpoints
    must be **byte-identical** — specialization is pure derivation from
    the config, so the compiled kernels may never leave different state
    behind — and both predictors must pass their invariant audits.  The
    ``prepare_*`` hooks mirror :func:`cross_engine_report`'s.
    """
    streams: List[List[BranchObservation]] = []
    stats_pair: List[RunStats] = []
    fingerprints: List[str] = []
    state_digests: List[str] = []
    audits: List[List[str]] = []
    with tempfile.TemporaryDirectory() as tmp:
        for mode, prepare in (
            (left_mode, prepare_left),
            (right_mode, prepare_right),
        ):
            observations: List[BranchObservation] = []
            predictor = LookaheadBranchPredictor(config_factory())
            if prepare is not None:
                prepare(predictor)
            engine = FunctionalEngine(
                predictor, observer=observer_into(observations),
                engine_mode=mode,
            )
            stats = engine.run_program(
                _resolve_workload(workload, seed), max_branches=branches,
                seed=seed,
            )
            path = Path(tmp) / f"{mode}-{len(streams)}.json"
            save_state(predictor, path)
            streams.append(observations)
            stats_pair.append(stats)
            fingerprints.append(predictor_fingerprint(predictor))
            state_digests.append(
                hashlib.sha256(path.read_bytes()).hexdigest()
            )
            audits.append(predictor.audit())

    report = DivergenceReport(
        title=f"cross-mode {_workload_name(workload)}",
        left_label=left_mode,
        right_label=right_mode,
        branches_compared=min(len(streams[0]), len(streams[1])),
    )
    report.first_divergence = diff_observations(streams[0], streams[1])
    report.aggregate_mismatches = diff_aggregates(
        comparable_stats(stats_pair[0]), comparable_stats(stats_pair[1])
    )
    if fingerprints[0] != fingerprints[1]:
        report.aggregate_mismatches.append(
            ("predictor_fingerprint", fingerprints[0], fingerprints[1])
        )
    if state_digests[0] != state_digests[1]:
        report.aggregate_mismatches.append(
            ("state_bytes", state_digests[0], state_digests[1])
        )
    for label, audit in zip((left_mode, right_mode), audits):
        if audit:
            report.aggregate_mismatches.append(
                ("audit", label, "; ".join(audit))
            )
    return report


# ----------------------------------------------------------------------
# Deterministic replay
# ----------------------------------------------------------------------


def _functional_run(
    workload: Workload, branches: int, seed: int, config_factory: Callable,
    engine_mode: str = "reference",
) -> Tuple[List[BranchObservation], RunStats, LookaheadBranchPredictor]:
    observations: List[BranchObservation] = []
    predictor = LookaheadBranchPredictor(config_factory())
    engine = FunctionalEngine(predictor, observer=observer_into(observations),
                              engine_mode=engine_mode)
    stats = engine.run_program(
        _resolve_workload(workload, seed), max_branches=branches, seed=seed
    )
    return observations, stats, predictor


def replay_report(
    workload: Workload,
    branches: int = 3000,
    seed: int = 1234,
    config_factory: Callable = z15_config,
    engine_mode: str = "reference",
) -> DivergenceReport:
    """Two identically seeded runs must be bit-identical: same per-branch
    predictions, same :class:`RunStats`, same final predictor state."""
    first_obs, first_stats, first_pred = _functional_run(
        workload, branches, seed, config_factory, engine_mode
    )
    second_obs, second_stats, second_pred = _functional_run(
        workload, branches, seed, config_factory, engine_mode
    )
    suffix = "" if engine_mode == "reference" else f" [{engine_mode} mode]"
    report = DivergenceReport(
        title=f"replay {_workload_name(workload)} seed={seed}{suffix}",
        left_label="run-1",
        right_label="run-2",
        branches_compared=min(len(first_obs), len(second_obs)),
    )
    report.first_divergence = diff_observations(first_obs, second_obs)
    report.aggregate_mismatches = diff_aggregates(
        comparable_stats(first_stats), comparable_stats(second_stats)
    )
    first_fp = predictor_fingerprint(first_pred)
    second_fp = predictor_fingerprint(second_pred)
    if first_fp != second_fp:
        report.aggregate_mismatches.append(
            ("predictor_fingerprint", first_fp, second_fp)
        )
    return report


def state_roundtrip_report(
    predictor: LookaheadBranchPredictor,
    label: str = "predictor",
) -> DivergenceReport:
    """Save *predictor*'s state, restore it into a fresh same-config
    predictor, save again — the two files must be byte-identical and
    the restored tables must fingerprint identically."""
    report = DivergenceReport(
        title=f"state round-trip {label}",
        left_label="saved",
        right_label="resaved",
        branches_compared=0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        first_path = Path(tmp) / "first.json"
        second_path = Path(tmp) / "second.json"
        saved = save_state(predictor, first_path)
        fresh = type(predictor)(predictor.config)
        loaded = load_state(fresh, first_path)
        resaved = save_state(fresh, second_path)
        if saved != loaded:
            report.aggregate_mismatches.append(("installed_counts", saved, loaded))
        if saved != resaved:
            report.aggregate_mismatches.append(("resaved_counts", saved, resaved))
        first_bytes = first_path.read_bytes()
        second_bytes = second_path.read_bytes()
        if first_bytes != second_bytes:
            report.aggregate_mismatches.append(
                (
                    "state_bytes",
                    hashlib.sha256(first_bytes).hexdigest(),
                    hashlib.sha256(second_bytes).hexdigest(),
                )
            )
    return report


# ----------------------------------------------------------------------
# Baseline cross-validation on directed workloads
# ----------------------------------------------------------------------


def always_taken_loop_program(start: int = 0x4000) -> Program:
    """A tight loop closed by an unconditional branch: every dynamic
    branch is taken, so *every* predictor must approach 100% direction
    accuracy once warm."""
    builder = CodeBuilder(start, name="directed-always-taken")
    top = builder.label("top")
    builder.straight(4)
    builder.branch(BranchKind.UNCONDITIONAL_RELATIVE, target=top,
                   behavior=AlwaysTaken())
    return builder.build()


def dead_guard_program(start: int = 0x5000) -> Program:
    """A never-taken conditional guard inside an always-taken loop: any
    predictor that learns (or statically guesses forward-not-taken)
    must approach 100%; a hardwired always-taken predictor must sit
    near 50% (it still gets the loop-closing branch right)."""
    builder = CodeBuilder(start, name="directed-dead-guard")
    top = builder.label("top")
    skip = builder.forward_label("skip")
    builder.branch(BranchKind.CONDITIONAL_RELATIVE, target=skip,
                   behavior=NeverTaken())
    builder.straight(3)
    builder.bind(skip)
    builder.branch(BranchKind.UNCONDITIONAL_RELATIVE, target=top,
                   behavior=AlwaysTaken())
    return builder.build()


def counted_loop_program(trip_count: int = 8, start: int = 0x6000) -> Program:
    """A counted loop (taken ``trip_count - 1`` of every ``trip_count``
    executions) restarted by an unconditional branch: simple-counter
    predictors converge to the bias, history predictors to ~100%."""
    builder = CodeBuilder(start, name="directed-counted-loop")
    entry = builder.label("entry")
    builder.straight(2)
    builder.branch(BranchKind.LOOP_RELATIVE, target=entry,
                   behavior=Loop(trip_count))
    builder.branch(BranchKind.UNCONDITIONAL_RELATIVE, target=entry,
                   behavior=AlwaysTaken())
    return builder.build()


#: Directed program builders by family name.
DIRECTED_FAMILIES: Dict[str, Callable[[], Program]] = {
    "always-taken-loop": always_taken_loop_program,
    "dead-guard": dead_guard_program,
    "counted-loop": counted_loop_program,
}


def _directed_predictors() -> Dict[str, Callable[[], object]]:
    return {
        "z15": lambda: LookaheadBranchPredictor(z15_config()),
        "always-taken": AlwaysTakenPredictor,
        "static-btfnt": StaticBtfntPredictor,
        "bimodal": BimodalPredictor,
        "gshare": GsharePredictor,
        "l-tage": LTagePredictor,
    }


#: Minimum post-warmup direction accuracy by (family, predictor).
#: ``None`` means "no expectation" (the family is genuinely hard for
#: that predictor — e.g. always-taken on a dead guard).
BASELINE_EXPECTATIONS: Dict[str, Dict[str, Optional[float]]] = {
    "always-taken-loop": {
        "z15": 0.99,
        "always-taken": 0.99,
        "static-btfnt": 0.99,
        "bimodal": 0.99,
        "gshare": 0.99,
        "l-tage": 0.99,
    },
    "dead-guard": {
        "z15": 0.99,
        # Correct on the loop-closing half of the branches only.
        "always-taken": 0.45,
        "static-btfnt": 0.99,
        "bimodal": 0.99,
        "gshare": 0.99,
        "l-tage": 0.99,
    },
    "counted-loop": {
        "z15": 0.95,
        # The bias leaves ~1 mispredict per trip for counter predictors.
        "always-taken": 0.80,
        "static-btfnt": 0.80,
        "bimodal": 0.80,
        "gshare": 0.95,
        "l-tage": 0.95,
    },
}


@dataclass(frozen=True)
class BaselineCheck:
    """One predictor's accuracy on one directed family."""

    family: str
    predictor: str
    direction_accuracy: float
    minimum: float

    @property
    def ok(self) -> bool:
        return self.direction_accuracy >= self.minimum

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] {self.family:<18} {self.predictor:<13} "
            f"accuracy {self.direction_accuracy:6.2%} "
            f"(minimum {self.minimum:.0%})"
        )


def cross_validate_baselines(
    seed: int = 1234,
    branches: int = 2000,
    warmup: int = 500,
) -> List[BaselineCheck]:
    """Run every predictor over every directed family and check the
    known-best direction accuracy expectations."""
    checks: List[BaselineCheck] = []
    for family, build in DIRECTED_FAMILIES.items():
        expectations = BASELINE_EXPECTATIONS[family]
        for name, factory in _directed_predictors().items():
            minimum = expectations.get(name)
            if minimum is None:
                continue
            engine = FunctionalEngine(factory())
            stats = engine.run_program(
                build(), max_branches=branches,
                warmup_branches=warmup, seed=seed,
            )
            checks.append(
                BaselineCheck(
                    family=family,
                    predictor=name,
                    direction_accuracy=stats.direction_accuracy,
                    minimum=minimum,
                )
            )
    return checks


# ----------------------------------------------------------------------
# The full suite
# ----------------------------------------------------------------------


@dataclass
class DifferentialResult:
    """Everything ``verify-diff`` ran, with an overall verdict."""

    reports: List[DivergenceReport] = field(default_factory=list)
    baseline_checks: List[BaselineCheck] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.reports) and all(
            c.ok for c in self.baseline_checks
        )

    @property
    def divergence_count(self) -> int:
        return sum(1 for r in self.reports if not r.clean) + sum(
            1 for c in self.baseline_checks if not c.ok
        )

    def summary(self) -> str:
        lines = ["== differential verification =="]
        for report in self.reports:
            lines.append(report.summary())
        if self.baseline_checks:
            lines.append("baseline cross-validation:")
            for check in self.baseline_checks:
                lines.append(f"  {check.describe()}")
        verdict = "CLEAN" if self.clean else "DIVERGED"
        lines.append(
            f"verdict: {verdict} ({self.divergence_count} failing checks)"
        )
        return "\n".join(lines)


def run_differential_suite(
    seed: int = 1234,
    branches: int = 3000,
    workloads: Sequence[str] = DEFAULT_WORKLOAD_FAMILIES,
    config_factory: Callable = z15_config,
    engine_modes: Sequence[str] = ("reference", "fast"),
) -> DifferentialResult:
    """The full differential sweep the CLI exposes as ``verify-diff``.

    *engine_modes* names the drive modes to verify: the first is the
    reference mode every other mode is cross-mode compared against
    (per-branch streams, invariants, table fingerprints, byte-identical
    checkpoints), and the cross-engine functional-vs-cycle check and
    replay run under each mode.
    """
    for mode in engine_modes:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {mode!r}; "
                f"choose from {sorted(ENGINE_MODES)}"
            )
    reference_mode = engine_modes[0]
    result = DifferentialResult()
    for workload in workloads:
        for mode in engine_modes:
            result.reports.append(
                cross_engine_report(
                    workload, branches=branches, seed=seed,
                    config_factory=config_factory, engine_mode=mode,
                )
            )
        for mode in engine_modes[1:]:
            result.reports.append(
                cross_mode_report(
                    workload, branches=branches, seed=seed,
                    config_factory=config_factory,
                    left_mode=reference_mode, right_mode=mode,
                )
            )
    for mode in engine_modes:
        result.reports.append(
            replay_report(
                workloads[0], branches=branches, seed=seed,
                config_factory=config_factory, engine_mode=mode,
            )
        )
    # State persistence round-trip on a warmed predictor.
    _obs, _stats, warmed = _functional_run(
        workloads[-1], branches, seed, config_factory
    )
    result.reports.append(
        state_roundtrip_report(warmed, label=f"after {workloads[-1]}")
    )
    result.baseline_checks = cross_validate_baselines(seed=seed)
    return result
