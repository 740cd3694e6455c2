"""The composed asynchronous lookahead branch predictor (sections III-VI).

:class:`LookaheadBranchPredictor` assembles every structure of the z15
design and models its *stream-based* operation: the predictor holds a
search address, walks 64-byte lines looking for upcoming branches in the
BTB1, predicts direction (figure 8) and target (figure 9) for each hit,
redirects itself on predicted-taken branches, primes itself from the
BTB2 when content appears to be missing, and applies every table update
non-speculatively when branches complete, ``completion_delay`` branches
after prediction (through the GPQ).

The functional driving model: the engine feeds executed branches in
program order; for each one the predictor walks its search from wherever
it was to the branch's address, reproducing empty searches, SKOOT skips,
BTB2 triggers, aliased "bad" predictions and the hit/surprise decision
exactly as the search pipeline would encounter them on the resolved
path.  See DESIGN.md for the documented simplifications (GPV repair,
walk capping).

SMT: the search address, stream state, GPV and CRS stacks are kept per
thread (each thread follows its own control flow); every prediction
table is shared between threads, as on the hardware.  In SMT2 the
threads alternate on the single search port — a timing property the
cycle engine models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.addresses import line_of, lines_between
from repro.common.slots import add_slots
from repro.configs.predictor import PredictorConfig
from repro.core.btb1 import Btb1, BtbHit
from repro.core.btb2 import Btb2System
from repro.core.cpred import (
    POWER_CTB,
    POWER_PERCEPTRON,
    POWER_PHT,
    ColumnPredictor,
    CpredLookup,
)
from repro.core.crs import CallReturnStack
from repro.core.ctb import ChangingTargetBuffer
from repro.core.direction import DirectionLogic
from repro.core.entries import BtbEntry
from repro.core.gpq import GlobalPredictionQueue, PredictionRecord
from repro.core.gpv import GlobalPathVector
from repro.core.perceptron import Perceptron
from repro.core.providers import DirectionProvider, TargetProvider
from repro.core.spec import SpeculativeOverlay, sbht_key, spht_key
from repro.core.tage import LONG, SHORT, TagePht
from repro.core.target import TargetLogic
from repro.isa.dynamic import DynamicBranch
from repro.isa.instructions import static_guess_taken, static_target_known
from repro.structures.queues import BoundedQueue
from repro.structures.saturating import TwoBitDirectionCounter


@add_slots
@dataclass
class SearchTrace:
    """Search-pipeline events observed while reaching one branch."""

    lines_searched: int = 0
    lines_skipped_by_skoot: int = 0
    empty_searches: int = 0
    btb2_triggers: int = 0
    bad_predictions_removed: int = 0
    bad_taken_restarts: int = 0
    skoot_overshoot: bool = False
    walk_capped: bool = False
    cpred_accelerated: bool = False
    stream_searches: int = 0


@add_slots
@dataclass
class PredictionOutcome:
    """Per-branch result handed back to the driving engine."""

    record: PredictionRecord
    trace: SearchTrace

    @property
    def dynamic(self) -> bool:
        return self.record.dynamic

    @property
    def mispredicted(self) -> bool:
        return self.record.mispredicted


@add_slots
@dataclass
class _Stream:
    """State of the instruction stream currently being searched."""

    start_address: int
    context: int
    #: BTB1 entry of the taken branch whose target opened this stream;
    #: it owns the SKOOT field describing this stream's empty lead-in.
    opener: Optional[BtbEntry] = None
    pending_skip: int = 0
    first_branch_trained: bool = False
    searches_done: int = 0
    needed_power_mask: int = 0
    cpred_lookup: CpredLookup = field(default_factory=lambda: CpredLookup(hit=False))


@add_slots
@dataclass
class _ThreadState:
    """Per-SMT-thread front-end state (search point, path history)."""

    search_address: int
    context: int
    stream: _Stream
    gpv: GlobalPathVector


@add_slots
@dataclass
class _InstallCommand:
    """One write-queue item: a pending BTB1 install."""

    address: int
    context: int
    entry: BtbEntry


class LookaheadBranchPredictor:
    """The full z15-style branch prediction logic (BPL)."""

    def __init__(self, config: PredictorConfig):
        config.validate()
        self.config = config
        self.btb1 = Btb1(config.btb1)
        # The BTB2 holds a reference to the BTB1 it stages lines into.
        self.btb2: Optional[Btb2System] = (
            Btb2System(config.btb2, self.btb1) if config.btb2 is not None else None
        )
        self.tage = TagePht(config.pht, config.gpv_bits_per_branch)
        gpv_width = config.gpv_depth * config.gpv_bits_per_branch
        self.perceptron = Perceptron(config.perceptron, gpv_width)
        self.sbht = SpeculativeOverlay(config.speculative, "sbht")
        self.spht = SpeculativeOverlay(config.speculative, "spht")
        self.ctb = ChangingTargetBuffer(config.ctb, config.gpv_bits_per_branch)
        self.crs = CallReturnStack(config.crs)
        self.cpred = ColumnPredictor(config.cpred)
        self.gpq = GlobalPredictionQueue(config.gpq_capacity)
        self.direction_logic = DirectionLogic(
            self.tage, self.perceptron, self.sbht, self.spht, self.cpred
        )
        self.target_logic = TargetLogic(self.ctb, self.crs, self.cpred)
        self.write_queue: BoundedQueue[_InstallCommand] = BoundedQueue(
            config.write_queue_capacity, name="write-queue"
        )
        self._line = config.btb1.line_size
        self._threads: Dict[int, _ThreadState] = {}
        self._staging_drain_countdown: Optional[int] = None
        # Statistics
        self.predictions = 0
        self.dynamic_predictions = 0
        self.surprise_branches = 0
        self.restarts = 0
        self.context_switches = 0
        self.write_queue_drops = 0
        self.skipped_indirect_installs = 0

    # ------------------------------------------------------------------
    # Per-thread state access
    # ------------------------------------------------------------------

    def _thread_state(self, thread: int) -> _ThreadState:
        state = self._threads.get(thread)
        if state is None:
            state = _ThreadState(
                search_address=0,
                context=0,
                stream=_Stream(start_address=0, context=0),
                gpv=GlobalPathVector(
                    self.config.gpv_depth, self.config.gpv_bits_per_branch
                ),
            )
            self._threads[thread] = state
        return state

    @property
    def gpv(self) -> GlobalPathVector:
        """Thread 0's global path vector (single-thread convenience)."""
        return self._thread_state(0).gpv

    # ------------------------------------------------------------------
    # Synchronisation points
    # ------------------------------------------------------------------

    def restart(self, address: int, context: int = 0, thread: int = 0) -> None:
        """Full restart: re-synchronise one thread's search with
        instruction fetch (after a pipeline flush or at run start)."""
        state = self._thread_state(thread)
        state.search_address = address
        state.context = context
        self.restarts += 1
        self.crs.flush_prediction_stack(thread)
        if self.btb2 is not None:
            self.btb2.reset_empty_counter()
        self._begin_stream(state, address, context, opener=None)

    def context_switch(self, address: int, context: int, thread: int = 0) -> None:
        """A context-changing event: proactively prime the BTB1 for the
        new context from the BTB2 (section III), then restart."""
        self.context_switches += 1
        if self.btb2 is not None:
            self.btb2.note_context_switch(address, context)
            self.btb2.drain_staging()
        self.restart(address, context, thread)

    def _begin_stream(
        self,
        state: _ThreadState,
        start: int,
        context: int,
        opener: Optional[BtbEntry],
    ) -> None:
        pending_skip = 0
        if (
            self.config.skoot_enabled
            and opener is not None
            and opener.skoot is not None
        ):
            pending_skip = opener.skoot
        state.stream = _Stream(
            start_address=start,
            context=context,
            opener=opener,
            pending_skip=pending_skip,
            cpred_lookup=self.cpred.lookup(start, context),
        )

    # ------------------------------------------------------------------
    # Main per-branch step
    # ------------------------------------------------------------------

    def predict_and_resolve(self, branch: DynamicBranch) -> PredictionOutcome:
        """Predict the next executed branch, resolve it, and retire due
        completions.  The engine guarantees per-thread program order and
        globally monotonic sequence numbers."""
        self.predictions += 1
        state = self._threads.get(branch.thread)
        if state is None:
            state = self._thread_state(branch.thread)
        trace = SearchTrace()
        # The staging queue drains through the write port continuously
        # (up to one entry per cycle; several cycles pass per branch).
        # The queue is empty for most branches; the truthiness guard
        # skips the no-op drain call on the hot path.
        btb2 = self.btb2
        if (
            btb2 is not None
            and self._staging_drain_countdown is None
            and btb2.staging
        ):
            btb2.drain_staging(limit=2 * self.config.write_drain_per_step)
        hit = self._walk_to(state, branch.address, branch.context, trace)
        trace.stream_searches = state.stream.searches_done

        if hit is not None:
            record = self._predict_dynamic(state, branch, hit, trace)
        else:
            record = self._predict_surprise(state, branch, trace)

        # record.resolve() inlined (two plain stores, once per branch).
        record.actual_taken = branch.taken
        record.actual_target = branch.target
        self._after_resolution(state, branch, record, hit)

        forced = self.gpq.push(record)
        if forced is not None:
            self._apply_update(forced)
        completed = branch.sequence - self.config.completion_delay
        for due in self.gpq.completions_due(completed):
            self._apply_update(due)

        return PredictionOutcome(record=record, trace=trace)

    def finalize(self) -> None:
        """End of run: complete every in-flight prediction."""
        for record in self.gpq.drain():
            self._apply_update(record)
        self._drain_write_queue(limit=len(self.write_queue))

    # ------------------------------------------------------------------
    # The search walk
    # ------------------------------------------------------------------

    def _walk_to(
        self,
        state: _ThreadState,
        branch_address: int,
        context: int,
        trace: SearchTrace,
    ) -> Optional[BtbHit]:
        """Advance one thread's search to the branch's address.

        Returns the BTB1 hit for the branch, or None (surprise).  All the
        search-pipeline side effects — empty-search counting and BTB2
        triggers, SKOOT skipping, bad-prediction removal — happen here.
        """
        line_size = self._line
        stream = state.stream

        # SKOOT: skip the known-empty lead-in of a fresh stream.
        if stream.pending_skip:
            first_line = (
                line_of(stream.start_address, line_size)
                + stream.pending_skip * line_size
            )
            if branch_address < first_line:
                # The skip overshot a (newly appeared) branch.
                trace.skoot_overshoot = True
                stream.pending_skip = 0
                return None
            if state.search_address < first_line:
                trace.lines_skipped_by_skoot += stream.pending_skip
                state.search_address = first_line
            stream.pending_skip = 0

        if branch_address < state.search_address:
            # The search ran past the branch (e.g. after a SKOOT
            # overshoot already consumed): surprise.
            return None

        # Cap pathological sequential gaps (documented approximation).
        gap = lines_between(state.search_address, branch_address, line_size)
        cap = self.config.search_walk_cap
        if gap > cap:
            skipped = gap - cap
            trace.walk_capped = True
            trace.lines_searched += skipped
            trace.empty_searches += skipped
            stream.searches_done += skipped
            if self.btb2 is not None:
                self.btb2.reset_empty_counter()
            state.search_address = (
                line_of(branch_address, line_size) - cap * line_size
            )

        target_line = line_of(branch_address, line_size)
        btb2 = self.btb2
        search_line = self.btb1.search_line
        result: Optional[BtbHit] = None
        while True:
            search_address = state.search_address
            line_base = search_address - (search_address % line_size)
            min_offset = search_address - line_base
            hits = search_line(line_base, context, min_offset)
            trace.lines_searched += 1
            stream.searches_done += 1

            if hits:
                if line_base == target_line:
                    # Hits are offset-ordered: everything before the
                    # branch is bad, an exact match is the prediction,
                    # later offsets stay for the redirected next search.
                    for candidate in hits:
                        hit_address = candidate.address
                        if hit_address < branch_address:
                            self._handle_bad_prediction(candidate, trace)
                        elif hit_address == branch_address:
                            result = candidate
                            break
                        else:
                            break
                else:
                    # A line strictly before the target line: every hit
                    # precedes the branch, so all are bad predictions.
                    for bad in hits:
                        self._handle_bad_prediction(bad, trace)
            else:
                trace.empty_searches += 1

            if btb2 is not None:
                fired = btb2.note_search_outcome(
                    line_base, context, hit=bool(hits)
                )
                if fired:
                    trace.btb2_triggers += 1
                    self._staging_drain_countdown = self.config.btb2_visibility_lines
                if self._staging_drain_countdown is not None:
                    if self._staging_drain_countdown <= 0:
                        btb2.drain_staging()
                        self._staging_drain_countdown = None
                    else:
                        self._staging_drain_countdown -= 1

            if line_base == target_line:
                break
            state.search_address = line_base + line_size

        # Transfer latency modelling ends with the walk: anything still
        # staged becomes visible before the next branch.
        if self.btb2 is not None and self._staging_drain_countdown is not None:
            self.btb2.drain_staging()
            self._staging_drain_countdown = None
        return result

    def _handle_bad_prediction(self, bad: BtbHit, trace: SearchTrace) -> None:
        """An entry matched where no branch exists (aliasing / stale
        content): the IDU detects it, restarts the front end, and the
        entry is removed from the BTB (section IV)."""
        would_redirect = bad.entry.is_unconditional or bad.entry.bht.taken
        self.btb1.remove(bad)
        trace.bad_predictions_removed += 1
        if would_redirect:
            trace.bad_taken_restarts += 1

    # ------------------------------------------------------------------
    # Dynamic prediction (BTB1 hit)
    # ------------------------------------------------------------------

    def _predict_dynamic(
        self,
        state: _ThreadState,
        branch: DynamicBranch,
        hit: BtbHit,
        trace: SearchTrace,
    ) -> PredictionRecord:
        self.dynamic_predictions += 1
        entry = hit.entry
        stream = state.stream
        gpv_snapshot = state.gpv.snapshot()

        decision = self.direction_logic.decide(
            hit, state.gpv, branch.sequence, stream.cpred_lookup
        )
        predicted_target: Optional[int] = None
        target_provider = TargetProvider.BTB1
        ctb_lookup = None
        crs_prediction = None
        ctb_powered = True
        if decision.taken:
            target_decision = self.target_logic.decide(
                hit,
                branch.context,
                gpv_snapshot,
                stream.cpred_lookup,
                thread=branch.thread,
            )
            predicted_target = target_decision.target
            target_provider = target_decision.provider
            ctb_lookup = target_decision.ctb_lookup
            crs_prediction = target_decision.crs_prediction
            ctb_powered = target_decision.ctb_powered

        record = PredictionRecord(
            sequence=branch.sequence,
            address=branch.address,
            context=branch.context,
            thread=branch.thread,
            kind=branch.kind,
            length=branch.instruction.length,
            dynamic=True,
            predicted_taken=decision.taken,
            predicted_target=predicted_target,
            direction_provider=decision.provider,
            target_provider=target_provider,
            alternate_taken=decision.alternate_taken,
            alternate_provider=decision.alternate_provider,
            gpv_snapshot=gpv_snapshot,
            btb_row=hit.row,
            btb_way=hit.way,
            btb_tag=entry.tag,
            btb_offset=entry.offset,
            bidirectional_at_prediction=entry.bidirectional,
            multi_target_at_prediction=entry.multi_target,
            marked_return_at_prediction=entry.return_offset is not None,
            blacklisted_at_prediction=entry.crs_blacklisted,
            tage=decision.tage_snapshot,
            perceptron=decision.perceptron_lookup,
            ctb=ctb_lookup,
            crs=crs_prediction,
            cpred=stream.cpred_lookup,
            pht_powered=decision.pht_powered,
            perceptron_powered=decision.perceptron_powered,
            ctb_powered=ctb_powered,
        )

        # Stream bookkeeping: power needs and SKOOT training.
        if entry.may_use_direction_aux:
            stream.needed_power_mask |= POWER_PHT | POWER_PERCEPTRON
        if entry.may_use_target_aux:
            stream.needed_power_mask |= POWER_CTB
        self._train_opener_skoot(state, branch.address)

        if decision.taken:
            assert predicted_target is not None
            # Prediction-side CRS push (after any stack use by figure 9).
            self.crs.note_predicted_taken(
                branch.address,
                predicted_target,
                branch.next_sequential,
                thread=branch.thread,
            )
            # CPRED: score and retrain this stream's exit.
            redirect = self._effective_redirect(predicted_target, entry)
            trace.cpred_accelerated = self.cpred.resolve(
                stream.cpred_lookup, hit.way, redirect
            )
            self.cpred.train(
                stream.start_address,
                branch.context,
                searches_to_taken=stream.searches_done,
                way=hit.way,
                redirect_address=redirect,
                power_mask=stream.needed_power_mask,
            )
        record.crs_stack_snapshot = self.crs.snapshot_prediction_stack(
            branch.thread
        )
        return record

    def _effective_redirect(self, target: int, entry: BtbEntry) -> int:
        """Where the next stream's first search lands: the target, or the
        SKOOT-skipped line along the target stream."""
        if (
            self.config.skoot_enabled
            and entry.skoot is not None
            and entry.skoot > 0
        ):
            return line_of(target, self._line) + entry.skoot * self._line
        return target

    def _train_opener_skoot(
        self, state: _ThreadState, first_branch_address: int
    ) -> None:
        """Train the previous stream-ender's SKOOT with the observed skip
        to this stream's first predictable branch."""
        stream = state.stream
        if stream.first_branch_trained:
            return
        stream.first_branch_trained = True
        if not self.config.skoot_enabled or stream.opener is None:
            return
        if first_branch_address < stream.start_address:
            return
        skip = lines_between(stream.start_address, first_branch_address, self._line)
        stream.opener.train_skoot(skip, self.config.skoot_max)

    # ------------------------------------------------------------------
    # Surprise prediction (BTB1 miss)
    # ------------------------------------------------------------------

    def _predict_surprise(
        self, state: _ThreadState, branch: DynamicBranch, trace: SearchTrace
    ) -> PredictionRecord:
        self.surprise_branches += 1
        instruction = branch.instruction
        guessed_taken = static_guess_taken(instruction)
        predicted_target: Optional[int] = None
        target_provider = TargetProvider.NONE
        if guessed_taken and static_target_known(instruction):
            predicted_target = instruction.static_target
            target_provider = TargetProvider.STATIC_RELATIVE

        # A disruptive surprise: guessed taken, or will resolve taken.
        if self.btb2 is not None and (guessed_taken or branch.taken):
            self.btb2.note_surprise_branch(
                branch.sequence, branch.address, branch.context
            )

        # A taken (or installed-to-be) surprise still bounds the previous
        # stream's SKOOT skip — it will be predictable after install.
        if guessed_taken or branch.taken:
            self._train_opener_skoot(state, branch.address)

        return PredictionRecord(
            sequence=branch.sequence,
            address=branch.address,
            context=branch.context,
            thread=branch.thread,
            kind=branch.kind,
            length=instruction.length,
            dynamic=False,
            predicted_taken=guessed_taken,
            predicted_target=predicted_target,
            direction_provider=DirectionProvider.STATIC,
            target_provider=target_provider,
            gpv_snapshot=state.gpv.snapshot(),
            crs_stack_snapshot=self.crs.snapshot_prediction_stack(
                branch.thread
            ),
        )

    # ------------------------------------------------------------------
    # Resolution: re-synchronise the search with the resolved path
    # ------------------------------------------------------------------

    def _after_resolution(
        self,
        state: _ThreadState,
        branch: DynamicBranch,
        record: PredictionRecord,
        hit: Optional[BtbHit],
    ) -> None:
        """Redirect / restart this thread's search and repair speculative
        state."""
        correct_path = (
            record.predicted_taken == branch.taken
            and (not branch.taken or record.predicted_target == branch.target)
        )

        # Mispredicted branches install corrected SBHT/SPHT entries so
        # in-flight re-occurrences predict right before the BHT/PHT
        # updates land (section IV).
        if record.dynamic and record.direction_wrong and hit is not None:
            self._install_corrected_overlays(record, hit, branch)

        if branch.taken:
            state.gpv.record_taken(branch.address)

        if record.dynamic and correct_path:
            if branch.taken:
                assert hit is not None and branch.target is not None
                state.search_address = branch.target
                self._begin_stream(state, branch.target, branch.context, hit.entry)
            else:
                state.search_address = branch.address + 2
            return

        # Every other case is a restart of some flavour.  The CRS
        # prediction stack is repaired to its checkpoint at this branch
        # (the flush discards only wrong-path state, which the resolved-
        # path model never created).
        self.restarts += 1
        self.crs.restore_prediction_stack(record.crs_stack_snapshot,
                                          branch.thread)
        if self.btb2 is not None:
            self.btb2.reset_empty_counter()
        next_address = branch.next_address
        state.search_address = next_address
        opener = hit.entry if (hit is not None and branch.taken) else None
        self._begin_stream(state, next_address, branch.context, opener)

    def _install_corrected_overlays(
        self, record: PredictionRecord, hit: BtbHit, branch: DynamicBranch
    ) -> None:
        provider = record.direction_provider
        if provider in (DirectionProvider.BHT, DirectionProvider.SBHT):
            self.sbht.install(
                sbht_key(hit.row, hit.way, record.btb_tag, record.btb_offset),
                branch.taken,
                record.sequence,
            )
        elif provider in (
            DirectionProvider.PHT_SHORT,
            DirectionProvider.PHT_LONG,
            DirectionProvider.SPHT,
        ):
            snapshot = record.tage
            if snapshot is not None and snapshot.provider is not None:
                self.spht.install(
                    spht_key(
                        snapshot.provider,
                        snapshot.provider_row,
                        snapshot.provider_tag,
                    ),
                    branch.taken,
                    record.sequence,
                )

    # ------------------------------------------------------------------
    # Completion-time updates (the write pipeline)
    # ------------------------------------------------------------------

    def _apply_update(self, record: PredictionRecord) -> None:
        """Non-speculative updates for one completed (resolved) branch."""
        # The overlays are empty for most branches; the truthiness guard
        # skips two no-op retire calls per completion on the hot path.
        if self.sbht._entries:
            self.sbht.retire(record.sequence)
        if self.spht._entries:
            self.spht.retire(record.sequence)
        if record.dynamic:
            self._update_dynamic(record)
        else:
            self._update_surprise(record)
        self._drain_write_queue(limit=self.config.write_drain_per_step)

    def _update_dynamic(self, record: PredictionRecord) -> None:
        entry = self._refind_entry(record)
        actual_taken = bool(record.actual_taken)
        direction_wrong = record.predicted_taken != record.actual_taken

        if entry is not None:
            entry.bht.update(actual_taken)
            if direction_wrong and not entry.is_unconditional:
                entry.bidirectional = True

        # TAGE: provider-entry direction/usefulness update plus the
        # weak-confidence bookkeeping, then allocation on a wrong
        # direction.
        if record.tage is not None:
            self.tage.update(
                record.tage, actual_taken, self._tage_alternate(record)
            )
        unconditional = entry is not None and entry.is_unconditional
        if direction_wrong and not unconditional:
            mispredicting = None
            if record.direction_provider is DirectionProvider.PHT_SHORT:
                mispredicting = SHORT
            elif record.direction_provider is DirectionProvider.PHT_LONG:
                mispredicting = LONG
            self.tage.install_on_mispredict(
                record.address,
                record.gpv_snapshot,
                actual_taken,
                mispredicting,
            )
            # Hard-to-predict branches also contend for a perceptron
            # entry (section V).
            if record.perceptron is None or not record.perceptron.hit:
                self.perceptron.install(record.address)

        # Perceptron training: the provider's direction is the
        # perceptron's comparison point when the perceptron was only the
        # tracked alternate (section V).
        if record.perceptron is not None and record.perceptron.hit:
            if record.direction_provider is DirectionProvider.PERCEPTRON:
                comparison = record.alternate_taken
            else:
                comparison = record.predicted_taken
            self.perceptron.update(record.perceptron, actual_taken, comparison)

        # Target-side updates (figure 9's learning rules).
        if actual_taken and record.actual_target is not None:
            self._update_targets(record, entry)

        # CRS detection side runs for every completed resolved-taken
        # branch.
        if actual_taken and record.actual_target is not None:
            matched_offset = self.crs.observe_completed_taken(
                record.address,
                record.actual_target,
                record.next_sequential,
                thread=record.thread,
            )
            if entry is not None:
                if matched_offset is not None and entry.return_offset is None:
                    entry.return_offset = matched_offset
                if record.target_wrong and entry.crs_blacklisted:
                    if self.crs.consider_amnesty(matched_offset is not None):
                        entry.crs_blacklisted = False

    def _update_targets(
        self, record: PredictionRecord, entry: Optional[BtbEntry]
    ) -> None:
        actual_target = record.actual_target
        assert actual_target is not None
        if not record.target_wrong:
            return
        provider = record.target_provider
        if provider is TargetProvider.BTB1:
            if entry is not None:
                entry.target = actual_target
                entry.multi_target = True
            self.ctb.install(
                record.address, record.context, record.gpv_snapshot, actual_target
            )
        elif provider is TargetProvider.CTB and record.ctb is not None:
            self.ctb.correct_target(record.ctb, actual_target)
        elif provider is TargetProvider.CRS:
            self.crs.should_blacklist()
            if entry is not None:
                entry.crs_blacklisted = True

    def _update_surprise(self, record: PredictionRecord) -> None:
        """Completion of a surprise branch: queue its BTB1 install.

        Guessed-not-taken branches that resolved not taken are not
        installed (section IV)."""
        actual_taken = bool(record.actual_taken)
        guessed_taken = record.predicted_taken
        if not actual_taken and not guessed_taken:
            return
        target = record.actual_target if actual_taken else record.predicted_target
        if target is None:
            # Guessed-taken indirect that resolved not taken: no target
            # to install.
            self.skipped_indirect_installs += 1
            return
        entry = BtbEntry(
            tag=0,
            offset=0,
            length=record.length,
            kind=record.kind,
            target=target,
            bht=TwoBitDirectionCounter.for_direction(actual_taken),
        )
        command = _InstallCommand(
            address=record.address, context=record.context, entry=entry
        )
        if not self.write_queue.try_push(command):
            self.write_queue_drops += 1
        # CRS detection side also observes taken surprises.
        if actual_taken and record.actual_target is not None:
            matched_offset = self.crs.observe_completed_taken(
                record.address,
                record.actual_target,
                record.next_sequential,
                thread=record.thread,
            )
            if matched_offset is not None:
                entry.return_offset = matched_offset

    def _drain_write_queue(self, limit: int) -> None:
        for _ in range(limit):
            command = self.write_queue.try_pop()
            if command is None:
                return
            result = self.btb1.install(command.address, command.context, command.entry)
            if (
                result.installed
                and result.victim is not None
                and self.btb2 is not None
            ):
                self.btb2.handle_btb1_eviction(result.victim)

    # ------------------------------------------------------------------
    # Telemetry harvest
    # ------------------------------------------------------------------

    def component_counters(self) -> Dict[str, Dict[str, int]]:
        """Every structure's native statistics, keyed by the component
        prefix the telemetry layer files them under.

        These are the plain-int attributes the structures maintain
        unconditionally (no telemetry hook runs on the hot paths); the
        observability layer snapshots them here at harvest time.
        """
        counters = {
            "predictor": {
                "predictions": self.predictions,
                "dynamic_predictions": self.dynamic_predictions,
                "surprise_branches": self.surprise_branches,
                "restarts": self.restarts,
                "context_switches": self.context_switches,
                "skipped_indirect_installs": self.skipped_indirect_installs,
            },
            "btb1": self.btb1.component_counters(),
            "tage": self.tage.component_counters(),
            "perceptron": self.perceptron.component_counters(),
            "cpred": self.cpred.component_counters(),
            "crs": self.crs.component_counters(),
            "ctb": self.ctb.component_counters(),
            "gpq": self.gpq.component_counters(),
            "spec": {
                f"sbht_{key}": value
                for key, value in self.sbht.component_counters().items()
            },
            "write_queue": {
                "drops": self.write_queue_drops,
                "occupancy": len(self.write_queue),
            },
        }
        counters["spec"].update(
            {
                f"spht_{key}": value
                for key, value in self.spht.component_counters().items()
            }
        )
        if self.btb2 is not None:
            counters["btb2"] = self.btb2.component_counters()
        return counters

    # ------------------------------------------------------------------
    # Structural-invariant audit (repro.resilience)
    # ------------------------------------------------------------------

    def audit(self) -> List[str]:
        """Collect structural-invariant violations across every structure.

        Returns an empty list when the predictor is healthy.  This is
        the library home of the robustness suite's ``check_invariants``:
        the fault-injection framework runs it periodically to prove that
        injected faults stay *legal-but-wrong* — they may cost
        mispredicts, never corrupt the model's own bookkeeping.
        """
        violations: List[str] = list(self.btb1.audit())
        skoot_max = self.config.skoot_max
        for row, way, entry in self.btb1.entries():
            if entry.skoot is not None and not 0 <= entry.skoot <= skoot_max:
                violations.append(
                    f"btb1[row={row},way={way}] skoot {entry.skoot} outside "
                    f"[0, {skoot_max}]"
                )
        if self.btb2 is not None:
            violations.extend(self.btb2.audit())
        violations.extend(self.tage.audit())
        violations.extend(self.perceptron.audit())
        violations.extend(self.ctb.audit())
        violations.extend(self.crs.audit())
        violations.extend(self.gpq.audit())
        if len(self.write_queue) > self.write_queue.capacity:
            violations.append(
                f"write queue occupancy {len(self.write_queue)} over "
                f"capacity {self.write_queue.capacity}"
            )
        return violations

    def _refind_entry(self, record: PredictionRecord) -> Optional[BtbEntry]:
        """Locate the predicted entry at update time; it may be gone."""
        entry = self.btb1.entry_at(record.btb_row, record.btb_way)
        if (
            entry is None
            or entry.tag != record.btb_tag
            or entry.offset != record.btb_offset
        ):
            return None
        return entry

    def _tage_alternate(self, record: PredictionRecord) -> Optional[bool]:
        """The alternate direction for TAGE usefulness accounting: the
        short table when the long table provided, else the BHT leg."""
        snapshot = record.tage
        if snapshot is None or snapshot.provider is None:
            return None
        if snapshot.provider == LONG:
            for table, taken, _weak in snapshot.weak_observations:
                if table == SHORT:
                    return taken
        if record.direction_provider in (
            DirectionProvider.PHT_SHORT,
            DirectionProvider.PHT_LONG,
        ):
            return record.alternate_taken
        # The PHT was not the overall provider; compare against the BHT
        # leg via the recorded alternate when available.
        return record.alternate_taken
