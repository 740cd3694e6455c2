"""The functional simulation engine.

Drives any predictor implementing the *branch predictor protocol* (the
:class:`~repro.core.predictor.LookaheadBranchPredictor` or one of the
baselines) over a workload, collecting :class:`~repro.stats.RunStats`.
This engine measures *accuracy* (coverage, direction/target
correctness, MPKI); the cycle engine in :mod:`repro.engine.cycle`
measures time.

Every run method has two paths.  In ``fast`` mode with no observer,
telemetry, injector or profile attached, the allocation-free compiled
``counted``/``warmup`` kernels pull the branch stream directly.
Everything else — both modes, any attachment — runs the shared loop of
:mod:`repro.engine.kernel` over an outcome iterator (the compiled
``outcomes`` generator, or ``reference_outcomes`` over
``predict_and_resolve``), the same loop the cycle engine drives, so
both engines run one semantics definition.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Iterable, Optional, Union

from repro.core.predictor import LookaheadBranchPredictor
from repro.engine.kernel import (
    INSTRUCTIONS_PER_BRANCH,
    _chain_observers,
    drive_counted,
    outcome_iterator,
    run_warmup,
)
from repro.engine.specialize import effective_engine_mode, kernels_for
from repro.isa.dynamic import DynamicBranch
from repro.stats.metrics import RunStats
from repro.workloads.executor import Executor
from repro.workloads.multi import ContextSwitch, InterleavedRun
from repro.workloads.program import Program

__all__ = [
    "FunctionalEngine",
    "INSTRUCTIONS_PER_BRANCH",
    "_chain_observers",
]


class FunctionalEngine:
    """Feeds executed branches to a predictor and aggregates statistics.

    An optional *profile* (:class:`repro.stats.analysis.MispredictProfile`)
    receives every counted outcome for per-address analysis.  An optional
    *observer* callable receives every :class:`PredictionOutcome` —
    including warmup branches — in prediction order; the differential
    verification harness uses it to compare engines branch by branch.
    An optional *telemetry* session (:class:`repro.obs.session.
    TelemetrySession`, or anything with an ``observe(outcome)`` method)
    rides the same hook: its observe is chained after any explicit
    observer, so telemetry-off runs keep the ``observer is None`` fast
    path untouched.  An optional fault *injector*
    (:class:`repro.resilience.FaultInjector`, or anything with an
    ``observe(outcome)`` method) rides the same seam, chained last, so
    fault-off runs are byte-identical to pre-resilience builds.
    """

    def __init__(self, predictor: LookaheadBranchPredictor, profile=None,
                 observer=None, telemetry=None, injector=None,
                 engine_mode: str = "reference", spans=None):
        self.predictor = predictor
        self.stats = RunStats()
        self.profile = profile
        self.telemetry = telemetry
        self.injector = injector
        #: Optional :class:`repro.obs.spans.SpanTracer` receiving
        #: ``engine.warmup``/``engine.counted``/``engine.finalize`` phase
        #: timings from :meth:`run_program`.  Spans only observe — the
        #: default off path pays one truthiness check per phase and
        #: results stay byte-identical either way.
        self.spans = spans
        self.observer = _chain_observers(observer, telemetry, injector)
        #: The mode actually driving this engine: ``fast`` compiles (or
        #: fetches from cache) the config-specialized kernels; baseline
        #: predictors have no specialized kernel and silently fall back
        #: to ``reference``.
        self.engine_mode = effective_engine_mode(engine_mode, predictor)
        self._kernels = (
            kernels_for(predictor) if self.engine_mode == "fast" else None
        )

    def _bare(self) -> bool:
        """Fast mode with nothing attached: the allocation-free
        ``counted``/``warmup`` kernels run and no outcome is built."""
        return (self._kernels is not None and self.observer is None
                and self.profile is None)

    def _source(self, stream):
        """What the drive methods consume: *stream* itself on the bare
        path, else this mode's outcome iterator over it."""
        if self._bare():
            return stream
        return outcome_iterator(self.predictor, self._kernels, stream)

    def _warmup(self, source, warmup_branches: int) -> int:
        if self._bare():
            return self._kernels.warmup(self.predictor, source,
                                        warmup_branches)
        return run_warmup(source, warmup_branches, self.observer)

    def _counted(self, source) -> int:
        if self._bare():
            return self._kernels.counted(self.predictor, source, self.stats)
        profile = self.profile
        return drive_counted(
            source,
            self.stats.record,
            observer=self.observer,
            extra=profile.record if profile is not None else None,
        )

    def _finish(self, count: int, instructions: Optional[int]) -> RunStats:
        """Finalize a branch- or event-stream run of *count* branches."""
        self.predictor.finalize()
        if instructions is not None:
            self.stats.instructions = instructions
        else:
            # Without real instruction counts, approximate with the
            # paper's branch density and flag the derived MPKI.
            self.stats.instructions = count * INSTRUCTIONS_PER_BRANCH
            self.stats.instructions_approximate = True
        return self.stats

    def run_program(
        self,
        program: Program,
        max_branches: int,
        seed: int = 1,
        warmup_branches: int = 0,
    ) -> RunStats:
        """Execute *program* and predict every branch.

        With *warmup_branches* the first that many branches train the
        predictor without being counted (steady-state measurement).
        Warmup and counted phases consume one stream, so the counted
        phase starts exactly where warmup stopped.
        """
        executor = Executor(program, seed=seed)
        self.predictor.restart(program.entry_point, context=0)
        spans = self.spans
        counted_instructions_start = 0
        stream = executor.run(max_branches=warmup_branches + max_branches)
        source = self._source(stream)
        if warmup_branches > 0:
            if spans:
                phase_start = time.perf_counter()
            consumed = self._warmup(source, warmup_branches)
            if spans:
                spans.observe("engine.warmup",
                              time.perf_counter() - phase_start,
                              branches=warmup_branches)
            if consumed == warmup_branches:
                counted_instructions_start = executor.instructions_executed
        if spans:
            phase_start = time.perf_counter()
        self._counted(source)
        if spans:
            spans.observe("engine.counted",
                          time.perf_counter() - phase_start,
                          branches=max_branches)
            with spans.span("engine.finalize"):
                self.predictor.finalize()
        else:
            self.predictor.finalize()
        self.stats.instructions = (
            executor.instructions_executed - counted_instructions_start
        )
        return self.stats

    def run_branches(
        self,
        branches: Iterable[DynamicBranch],
        instructions: Optional[int] = None,
        restart_at: Optional[int] = None,
    ) -> RunStats:
        """Predict a pre-recorded branch stream (e.g. a loaded trace)."""
        count = 0
        iterator = iter(branches)
        head = next(iterator, None)
        if head is not None:
            start = restart_at if restart_at is not None else head.address
            self.predictor.restart(start, context=head.context)
            count = self._counted(self._source(chain((head,), iterator)))
        return self._finish(count, instructions)

    def run_events(
        self,
        events: Iterable[Union[DynamicBranch, ContextSwitch]],
        instructions: Optional[int] = None,
    ) -> RunStats:
        """Drive an interleaved multi-context event stream."""
        count = self._counted(self._source(events))
        return self._finish(count, instructions)

    def run_interleaved(
        self, run: InterleavedRun, total_branches: int
    ) -> RunStats:
        """Convenience wrapper for :class:`InterleavedRun`."""
        stats = self.run_events(run.run(total_branches))
        stats.instructions = run.instructions_executed
        stats.instructions_approximate = False
        return stats
