"""The cycle-level engine.

A trace-driven timing model of the z15 front end around the functional
predictor: it reproduces the pipeline behaviours the paper quantifies —
the 6-cycle b0..b5 search pipeline and its taken-branch intervals
(5 ST / 6 SMT2 / 2 with CPRED, figures 4-7), the 64B-per-cycle search
versus 32B-per-cycle fetch race (section IV), restart penalties (~26
cycles, ~35 statistical, section II.D), and lookahead I-cache
prefetching that hides miss latency (sections II.C, IV).

It is a cycle-*level* model, not RTL-exact: the out-of-order back end is
summarised by the paper's own statistical penalties.

Both drives (``run_program`` and ``run_smt2``) run the functional
engine's shared loop from :mod:`repro.engine.kernel` over an outcome
iterator — the compiled ``outcomes`` generator in ``fast`` mode,
``predict_and_resolve`` in ``reference`` mode — with the per-branch
timing advance as the loop's last consumer.  Timing reads everything
it needs from the outcome's prediction record and the thread's
executor, so no drive steps instructions one at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.configs.timing import TimingConfig
from repro.core.predictor import LookaheadBranchPredictor, PredictionOutcome
from repro.engine.kernel import (
    _chain_observers,
    drive_counted,
    outcome_iterator,
)
from repro.engine.specialize import effective_engine_mode, kernels_for
from repro.frontend.icache import InstructionCacheHierarchy
from repro.stats.metrics import MispredictClass, RunStats, classify
from repro.workloads.executor import Executor
from repro.workloads.program import Program


@dataclass
class CycleStats:
    """Timing results of one cycle-level run."""

    cycles: int = 0
    instructions: int = 0
    branches: int = 0
    #: Cycles the dispatch stage waited on branch prediction delivery.
    bpl_wait_cycles: int = 0
    #: Cycles dispatch waited on instruction fetch (exposed I-miss etc).
    fetch_wait_cycles: int = 0
    #: Restart penalties (all flavours).
    restart_cycles: int = 0
    #: Exposed I-cache miss cycles after prefetch overlap.
    exposed_miss_cycles: int = 0
    #: I-cache miss cycles hidden by lookahead prefetch.
    hidden_miss_cycles: int = 0
    #: Taken-branch redirects that ran at the CPRED-accelerated interval.
    cpred_redirects: int = 0
    taken_redirects: int = 0
    restarts: int = 0
    accuracy: RunStats = field(default_factory=RunStats)
    cache_levels: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def report(self, title: str = "cycle run") -> str:
        lines = [
            f"== {title} ==",
            f"instructions:        {self.instructions}",
            f"branches:            {self.branches}",
            f"cycles:              {self.cycles}",
            f"CPI:                 {self.cpi:6.3f}",
            f"restart cycles:      {self.restart_cycles}"
            f"  ({self.restarts} restarts)",
            f"BPL wait cycles:     {self.bpl_wait_cycles}",
            f"fetch wait cycles:   {self.fetch_wait_cycles}",
            f"exposed miss cycles: {self.exposed_miss_cycles}",
            f"hidden miss cycles:  {self.hidden_miss_cycles}",
            f"taken redirects:     {self.taken_redirects}"
            f"  (CPRED-accelerated {self.cpred_redirects})",
            f"MPKI:                {self.accuracy.mpki:8.3f}",
        ]
        return "\n".join(lines)


@dataclass
class _Clocks:
    """Per-thread front-end clocks."""

    now: float = 0.0
    bpl_ready: float = 0.0
    fetch_clock: float = 0.0
    fetch_point: int = 0


class CycleEngine:
    """Drives a program through the predictor with front-end timing."""

    def __init__(
        self,
        predictor: LookaheadBranchPredictor,
        icache: Optional[InstructionCacheHierarchy] = None,
        timing: Optional[TimingConfig] = None,
        smt2: bool = False,
        lookahead_prefetch: bool = True,
        observer=None,
        telemetry=None,
        injector=None,
        engine_mode: str = "reference",
        spans=None,
    ):
        self.predictor = predictor
        self.icache = icache if icache is not None else InstructionCacheHierarchy()
        self.timing = (timing if timing is not None else TimingConfig()).validate()
        self.smt2 = smt2
        self.lookahead_prefetch = lookahead_prefetch
        #: Optional callable receiving every PredictionOutcome in
        #: prediction order (differential cross-engine checking); an
        #: optional telemetry session and fault injector ride the same
        #: hook (see :class:`repro.engine.functional.FunctionalEngine`).
        self.telemetry = telemetry
        self.injector = injector
        #: Optional :class:`repro.obs.spans.SpanTracer` receiving the
        #: ``engine.counted``/``engine.finalize`` phase timings of
        #: :meth:`run_program` (the cycle engine has no warmup phase).
        #: Spans only observe; results are identical with tracing off.
        self.spans = spans
        self.observer = _chain_observers(observer, telemetry, injector)
        self.stats = CycleStats()
        #: Timing needs every per-branch outcome, so ``fast`` here swaps
        #: the reference ``predict_and_resolve`` pyramid for the compiled
        #: ``outcomes`` generator (same outcome objects, same state
        #: transitions, fewer Python frames per branch).
        self.engine_mode = effective_engine_mode(engine_mode, predictor)
        self._kernels = (
            kernels_for(predictor) if self.engine_mode == "fast" else None
        )
        # Per-thread clocks (thread 0 for single-thread runs).
        self._clocks: Dict[int, _Clocks] = {}

    # ------------------------------------------------------------------
    # Derived rates
    # ------------------------------------------------------------------

    @property
    def _search_interval(self) -> int:
        """Cycles per sequential 64B search (SMT2 shares the one port)."""
        return 2 if self.smt2 else 1

    @property
    def _taken_interval(self) -> int:
        return (
            self.timing.taken_interval_smt2
            if self.smt2
            else self.timing.taken_interval_st
        )

    @property
    def _fetch_bytes_per_cycle(self) -> float:
        rate = self.timing.fetch_bytes_per_cycle
        return rate / 2 if self.smt2 else rate

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_program(
        self, program: Program, max_branches: int, seed: int = 1
    ) -> CycleStats:
        executor = Executor(program, seed=seed)
        self.predictor.restart(program.entry_point, context=0)
        clocks = self._clocks_for(0)
        clocks.fetch_point = program.entry_point
        spans = self.spans
        if spans:
            phase_start = time.perf_counter()
        self._drive(executor.run(max_branches=max_branches), [executor])
        if spans:
            spans.observe("engine.counted",
                          time.perf_counter() - phase_start,
                          branches=max_branches)
            with spans.span("engine.finalize"):
                self.predictor.finalize()
        else:
            self.predictor.finalize()
        self.stats.instructions = executor.instructions_executed
        self.stats.branches = executor.branches_executed
        self.stats.accuracy.instructions = executor.instructions_executed
        self.stats.cycles = int(clocks.now)
        for name, accesses, hits in self.icache.level_stats():
            self.stats.cache_levels[name] = {"accesses": accesses, "hits": hits}
        return self.stats

    def run_smt2(
        self, program_a: Program, program_b: Program,
        max_branches: int, seed: int = 1,
    ) -> CycleStats:
        """Two SMT threads through the shared predictor and I-cache.

        Each thread keeps its own clocks; the shared-port cost is the
        SMT2 search/fetch rates (construct the engine with ``smt2=True``).
        Total cycles = the slower thread's clock.
        """
        from repro.workloads.multi import ContextSwitch, Smt2Run

        run = Smt2Run(program_a, program_b, seed=seed)

        def branches():
            # Each thread's start marker is a full restart (not a
            # context switch) that also points its fetch at the entry.
            for event in run.run(max_branches):
                if isinstance(event, ContextSwitch):
                    self.predictor.restart(event.entry_point,
                                           context=event.context,
                                           thread=event.thread)
                    self._clocks_for(event.thread).fetch_point = (
                        event.entry_point
                    )
                    continue
                yield event

        self._drive(branches(), run._executors)
        self.predictor.finalize()
        self.stats.instructions = run.instructions_executed
        self.stats.branches = max_branches
        self.stats.accuracy.instructions = run.instructions_executed
        self.stats.cycles = int(max(c.now for c in self._clocks.values()))
        for name, accesses, hits in self.icache.level_stats():
            self.stats.cache_levels[name] = {"accesses": accesses, "hits": hits}
        return self.stats

    def _drive(self, stream, executors) -> None:
        """Time every branch of *stream* through the shared counted loop.

        Each outcome is observed and recorded, then advances its
        thread's clocks.  The branch's gap (the non-branch instructions
        before it) is read from that thread's executor as the outcome
        arrives: the outcome iterator pulls one branch per outcome, so
        nothing has executed since.
        """
        before = [0] * len(executors)

        def time_branch(outcome):
            thread = outcome.record.thread
            executed = executors[thread].instructions_executed
            gap = executed - before[thread] - 1
            before[thread] = executed
            self._advance(self._clocks_for(thread), outcome, max(0, gap))

        drive_counted(
            outcome_iterator(self.predictor, self._kernels, stream),
            self.stats.accuracy.record,
            observer=self.observer,
            extra=time_branch,
        )

    def _clocks_for(self, thread: int) -> _Clocks:
        clocks = self._clocks.get(thread)
        if clocks is None:
            clocks = _Clocks()
            self._clocks[thread] = clocks
        return clocks

    # ------------------------------------------------------------------
    # Per-branch timing
    # ------------------------------------------------------------------

    def _advance(self, clocks: _Clocks, outcome: PredictionOutcome,
                 gap: int) -> None:
        """Advance one thread's clocks across one branch (plus its
        leading non-branch instructions); the branch's address, length
        and resolution come from its prediction record."""
        timing = self.timing
        trace = outcome.trace
        record = outcome.record

        # --- BPL side: when was this branch's prediction delivered? ---
        searches = max(1, trace.lines_searched)
        b0_time = clocks.bpl_ready + (searches - 1) * self._search_interval
        delivered = b0_time + (timing.bpl_pipeline_depth - 1)
        if record.dynamic and record.predicted_taken:
            self.stats.taken_redirects += 1
            if trace.cpred_accelerated:
                interval = timing.taken_interval_cpred
                self.stats.cpred_redirects += 1
            else:
                interval = self._taken_interval
            clocks.bpl_ready = b0_time + interval
        else:
            clocks.bpl_ready = b0_time + self._search_interval

        # --- Fetch side: deliver bytes up to the end of the branch. ---
        fetch_end = record.address + record.length
        self._fetch_lines(clocks, clocks.fetch_point, fetch_end, b0_time)
        if fetch_end > clocks.fetch_point:
            clocks.fetch_clock += (
                fetch_end - clocks.fetch_point
            ) / self._fetch_bytes_per_cycle
        clocks.fetch_point = fetch_end

        # --- Dispatch: strict synchronisation with prediction. ---
        base = clocks.now + gap / timing.dispatch_width
        dispatch_time = max(base, delivered, clocks.fetch_clock)
        if delivered > max(base, clocks.fetch_clock):
            self.stats.bpl_wait_cycles += int(
                delivered - max(base, clocks.fetch_clock)
            )
        elif clocks.fetch_clock > base:
            self.stats.fetch_wait_cycles += int(clocks.fetch_clock - base)
        clocks.now = dispatch_time

        # --- Bad predictions found during the walk. ---
        if trace.bad_taken_restarts:
            penalty = trace.bad_taken_restarts * timing.decode_restart_penalty
            self._apply_restart(clocks, penalty, resync_to=None)

        # --- Resolution ---
        klass = classify(outcome)
        if klass is MispredictClass.NONE:
            if record.actual_taken:
                # Correct taken prediction: fetch redirects to the target;
                # the redirect is free when the BPL ran ahead.
                clocks.fetch_clock = max(clocks.fetch_clock, delivered)
                clocks.fetch_point = record.actual_target
            return
        # Where control actually went: the target if taken, else NSIA.
        next_address = (record.actual_target if record.actual_taken
                        else fetch_end)
        if klass is MispredictClass.SURPRISE_GUESSED_TAKEN_RELATIVE:
            self._apply_restart(clocks, timing.decode_restart_penalty,
                                next_address)
        elif klass is MispredictClass.SURPRISE_GUESSED_TAKEN_INDIRECT:
            self._apply_restart(
                clocks,
                timing.decode_restart_penalty + timing.indirect_resolution_delay,
                next_address,
            )
        else:
            self._apply_restart(
                clocks, timing.statistical_restart_penalty, next_address
            )

    def _fetch_lines(self, clocks: _Clocks, start: int, end: int,
                     bpl_b0_time: float) -> None:
        """Access every I-cache line fetch touches in [start, end).

        The BPL searched these lines earlier (64B/cycle versus fetch's
        32B/cycle) and prefetched them; the exposed latency is whatever
        the accumulated lead could not cover.
        """
        if end <= start:
            return
        line_size = self.icache.line_size
        line = (start // line_size) * line_size
        while line < end:
            if self.lookahead_prefetch:
                # The BPL search of this line preceded the branch's b0 by
                # one search interval per 64 bytes of remaining stream.
                lines_ahead = max(0, (end - line) // 64)
                bpl_time = bpl_b0_time - lines_ahead * self._search_interval
                result = self.icache.access(line)
                arrival = max(
                    clocks.fetch_clock,
                    (line - start) / self._fetch_bytes_per_cycle
                    + clocks.fetch_clock,
                )
                lead = arrival - bpl_time
                # L1 hits pipeline at full fetch bandwidth; only latency
                # beyond the L1 hit can stall, and the BPL's lead hides
                # whatever it covered.
                effective = max(0, result.latency - self.timing.l1i_latency)
                exposed = max(0.0, effective - max(0.0, lead))
                hidden = effective - exposed
                if effective > 0:
                    self.stats.exposed_miss_cycles += int(exposed)
                    self.stats.hidden_miss_cycles += int(hidden)
                clocks.fetch_clock += exposed
            else:
                result = self.icache.access(line)
                if result.latency > self.timing.l1i_latency:
                    extra = result.latency - self.timing.l1i_latency
                    self.stats.exposed_miss_cycles += extra
                    clocks.fetch_clock += extra
            line += line_size

    def _apply_restart(self, clocks: _Clocks, penalty: float,
                       resync_to: Optional[int]) -> None:
        self.stats.restart_cycles += int(penalty)
        self.stats.restarts += 1
        clocks.now += penalty
        clocks.bpl_ready = clocks.now
        clocks.fetch_clock = clocks.now
        if resync_to is not None:
            clocks.fetch_point = resync_to
