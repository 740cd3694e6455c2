"""Config-specialized compiled prediction kernels (the ``fast`` engine mode).

Profiling showed that ~80% of a simulated branch was the prediction
*pipeline* rather than the table probes: ``predict_and_resolve`` →
``_predict_dynamic`` → figure-8/9 selection → resolution → completion
updates, ~170 Python calls per branch.  This module collapses
that pyramid the way :func:`collections.namedtuple` builds classes —
textual code generation plus :func:`compile` — producing, per *config
shape*, a flat kernel in which:

* dead component paths are dropped at generation time (no BTB2 section
  when ``config.btb2 is None``, no SKOOT section when
  ``config.skoot_enabled`` is false, no overlay probes when the
  SBHT/SPHT are disabled);
* geometry and latency constants (line size, walk cap, completion
  delay, GPQ capacity, drain limits, BTB2 visibility) are baked in as
  integer literals;
* every hot structure attribute and bound method is hoisted to a local
  once per *drive call* instead of being re-resolved per branch; and
* the per-branch allocations of the reference path (``SearchTrace``,
  ``DirectionDecision``, ``TargetDecision``, ``PredictionOutcome``)
  are elided entirely on the bare no-observer path, with the
  ``RunStats`` fold inlined over local accumulators.

The reference object path in :mod:`repro.core.predictor` stays the
semantics definition; the generated code is a transcription of it, and
the cross-mode differential battery
(:mod:`repro.verification.differential`) proves byte-identical branch
streams, stats and state round-trips.  See ``docs/INTERNALS.md`` §14
for the specialization contract — what may be specialized away and
what must stay observable.

Observability contract of the three generated kernels:

* **``counted`` and ``warmup``** (fast mode with no observer,
  telemetry, injector or profile attached) accumulate the predictor
  counters (``predictions``, ``dynamic_predictions``,
  ``surprise_branches``, ``restarts``), ``_staging_drain_countdown``
  and, in ``counted``, every ``RunStats`` integer in locals, flushed in
  a ``finally`` so exceptions and early exits leave exactly the state
  the reference path would have left.
* **``outcomes``** is a generator yielding the same
  ``PredictionOutcome`` objects as the reference path, one per branch,
  pulling exactly one input item per outcome.  Code outside it runs
  at every yield — observers, the telemetry sampler harvesting
  ``component_counters()``, the fault injector mutating tables, the
  cycle engine restarting SMT2 threads — so every predictor counter is
  an attribute update, and ``_staging_drain_countdown`` is re-read
  after each resume and written back before each yield.
* All three apply ``ContextSwitch`` items inline through
  ``P.context_switch`` and produce nothing for them.
"""

from __future__ import annotations

import linecache
import textwrap
import threading
from string import Template
from typing import Dict, Tuple

from repro.configs.predictor import PredictorConfig
from repro.core.cpred import (
    POWER_ALL,
    POWER_CTB,
    POWER_PERCEPTRON,
    POWER_PHT,
    CpredEntry,
    CpredLookup,
)
from repro.core.crs import CrsPrediction, _Stack as _CrsStack
from repro.core.gpq import PredictionRecord
from repro.core.predictor import (
    LookaheadBranchPredictor,
    PredictionOutcome,
    SearchTrace,
    _Stream,
)
from repro.core.providers import DirectionProvider, TargetProvider
from repro.core.tage import LONG, SHORT, TageLookupSnapshot
from repro.isa.instructions import static_guess_taken, static_target_known
from repro.stats.metrics import MispredictClass
from repro.workloads.multi import ContextSwitch

__all__ = [
    "ENGINE_MODES",
    "SpecializedKernels",
    "clear_kernel_cache",
    "config_shape",
    "generate_kernel_source",
    "kernels_for",
    "kernels_for_config",
]

#: The engine modes every engine/CLI surface accepts.  ``reference``
#: drives the object path in :mod:`repro.core.predictor`; ``fast``
#: drives the specialized kernels generated here.
ENGINE_MODES = ("reference", "fast")


# ---------------------------------------------------------------------------
# Shape keying
# ---------------------------------------------------------------------------

def config_shape(config: PredictorConfig) -> Tuple:
    """The specialization key: everything the generated source depends on.

    Two configs with the same shape share one compiled kernel module
    (the cache below); geometry that lives *inside* the structures
    (table rows/ways, mask constants) is already bound at structure
    construction and needs no key here.
    """
    return (
        config.btb2 is not None,
        bool(config.skoot_enabled),
        bool(config.speculative.enabled),
        config.btb1.line_size,
        config.search_walk_cap,
        config.completion_delay,
        config.gpq_capacity,
        config.write_drain_per_step,
        config.btb2_visibility_lines,
        config.skoot_max,
    )


class SpecializedKernels:
    """The compiled drive loops for one config shape."""

    __slots__ = ("shape", "source", "counted", "warmup", "outcomes")

    def __init__(self, shape: Tuple, source: str, namespace: Dict):
        self.shape = shape
        self.source = source
        self.counted = namespace["counted"]
        self.warmup = namespace["warmup"]
        self.outcomes = namespace["outcomes"]


_CACHE: Dict[Tuple, SpecializedKernels] = {}
_CACHE_LOCK = threading.Lock()


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (tests of the generation path)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def kernels_for_config(config: PredictorConfig) -> SpecializedKernels:
    """The (cached) compiled kernels for *config*'s shape."""
    shape = config_shape(config)
    kernels = _CACHE.get(shape)
    if kernels is None:
        with _CACHE_LOCK:
            kernels = _CACHE.get(shape)
            if kernels is None:
                kernels = _compile_shape(shape)
                _CACHE[shape] = kernels
    return kernels


def kernels_for(predictor: LookaheadBranchPredictor) -> SpecializedKernels:
    """The compiled kernels for a live predictor."""
    return kernels_for_config(predictor.config)


# ---------------------------------------------------------------------------
# Template rendering
# ---------------------------------------------------------------------------
# The kernel body is written once as a marker-annotated template:
# ``#IF NAME`` / ``#ELSE`` / ``#ENDIF`` lines gate config- and
# flavour-conditional regions, ``$TOKEN`` placeholders take baked
# integer literals and flavour-specific statements.  The renderer is
# deliberately dumb — no expression language — so the template reads
# as the plain Python it becomes.


def _render(template: str, flags: Dict[str, bool], subs: Dict[str, str]) -> str:
    out = []
    # Stack of (emitting, this_if_taken); emitting folds in the parents.
    stack = [(True, True)]
    for line in template.splitlines():
        stripped = line.strip()
        if stripped.startswith("#IF "):
            name = stripped[4:].strip()
            taken = bool(flags.get(name, False))
            stack.append((stack[-1][0] and taken, taken))
            continue
        if stripped == "#ELSE":
            _, taken = stack.pop()
            stack.append((stack[-1][0] and not taken, not taken))
            continue
        if stripped == "#ENDIF":
            stack.pop()
            continue
        if stack[-1][0]:
            out.append(line)
    if len(stack) != 1:
        raise AssertionError("unbalanced #IF/#ENDIF in kernel template")
    text = "\n".join(out) + "\n"
    return Template(text).substitute(subs)


# --- the shared per-branch core (indent 0 == loop-body level) --------------
# A transcription of LookaheadBranchPredictor.predict_and_resolve with
# _walk_to, _predict_dynamic (figure 8 + figure 9 inlined),
# _predict_surprise, _after_resolution, the GPQ push/completions and
# _apply_update flattened in.  Every side effect runs in the reference
# order; the differential battery holds this line by line.

_CORE = """\
if isinstance(branch, ContextSwitch):
    P.context_switch(branch.entry_point, branch.context, branch.thread)
    continue
$INC_PRED
thread = branch.thread
if thread != cur_thread:
    state = tstates.get(thread)
    if state is None:
        state = mk_state(thread)
    gpv = state.gpv
    crs_pstk = crs_pstacks.get(thread)
    if crs_pstk is None:
        crs_pstk = crs_pstacks[thread] = CrsStack()
    cur_thread = thread
stream_s = state.stream
address = branch.address
context = branch.context
sequence = branch.sequence
t_lines = 0
t_skoot = 0
t_empty = 0
t_btb2 = 0
t_bad = 0
t_badtaken = 0
t_overshoot = False
t_capped = False
t_cpred = False
#IF BTB2
if drain_cd is None and btb2_staging:
    btb2_drain(limit=$DRAIN2)
#ENDIF
hit = None
while True:
#IF SKOOT
    pending = stream_s.pending_skip
    if pending:
        s_start = stream_s.start_address
        first_line = s_start - s_start % $LINE + pending * $LINE
        if address < first_line:
            t_overshoot = True
            stream_s.pending_skip = 0
            break
        if state.search_address < first_line:
            t_skoot += pending
            state.search_address = first_line
        stream_s.pending_skip = 0
#ENDIF
    if address < state.search_address:
        break
    sa = state.search_address
    gap = address // $LINE - sa // $LINE
    if gap > $CAP:
        skipped = gap - $CAP
        t_capped = True
        t_lines += skipped
        t_empty += skipped
        stream_s.searches_done += skipped
#IF BTB2
        btb2_reset()
#ENDIF
        state.search_address = address - address % $LINE - $CAPBYTES
    target_line = address - address % $LINE
    while True:
        sa = state.search_address
        line_base = sa - sa % $LINE
        min_offset = sa - line_base
        hits = search_line(line_base, context, min_offset)
        t_lines += 1
        stream_s.searches_done += 1
        if hits:
            if line_base == target_line:
                for candidate in hits:
                    hit_address = candidate.address
                    if hit_address < address:
                        c_entry = candidate.entry
                        would_redirect = c_entry.is_unconditional or c_entry.bht.taken
                        btb1_remove(candidate)
                        t_bad += 1
                        if would_redirect:
                            t_badtaken += 1
                    elif hit_address == address:
                        hit = candidate
                        break
                    else:
                        break
            else:
                for candidate in hits:
                    c_entry = candidate.entry
                    would_redirect = c_entry.is_unconditional or c_entry.bht.taken
                    btb1_remove(candidate)
                    t_bad += 1
                    if would_redirect:
                        t_badtaken += 1
        else:
            t_empty += 1
#IF BTB2
        if btb2_note(line_base, context, bool(hits)):
            t_btb2 += 1
            drain_cd = $VIS
        if drain_cd is not None:
            if drain_cd <= 0:
                btb2_drain()
                drain_cd = None
            else:
                drain_cd = drain_cd - 1
#ENDIF
        if line_base == target_line:
            break
        state.search_address = line_base + $LINE
#IF BTB2
    if drain_cd is not None:
        btb2_drain()
        drain_cd = None
#ENDIF
    break
#IF ALLOC
t_stream = stream_s.searches_done
#ENDIF
if hit is not None:
    $INC_DYN
    entry = hit.entry
    gpv_snapshot = gpv._value
    cpred_lookup = stream_s.cpred_lookup
    # --- figure 8 (direction) -----------------------------------------
    if entry.is_unconditional:
        d_taken = True
        d_provider = D_UNCOND
        d_alt_taken = None
        d_alt_provider = None
        d_tage = None
        d_perc = None
        d_pht_powered = True
        d_perc_powered = True
    else:
        d_provider = None
        d_taken = False
        d_alt_provider = None
        d_alt_taken = None
        d_tage = None
        d_perc = None
        d_pht_powered = True
        d_perc_powered = True
        if entry.bidirectional:
            if cpred_on and cpred_lookup.hit:
                u_pmask = cpred_lookup.power_mask
                d_perc_powered = u_pmask & $PPERC != 0
                if not d_perc_powered:
                    cpred.power_gated_lookups += 1
                d_pht_powered = u_pmask & $PPHT != 0
                if not d_pht_powered:
                    cpred.power_gated_lookups += 1
            if d_perc_powered:
                d_perc = perc_lookup(hit.address, gpv)
                if d_perc.hit and d_perc.useful:
                    d_provider = D_PERC
                    d_taken = d_perc.taken
            else:
                cpred.power_gate_misses += 1
            if d_pht_powered:
                tage_lookup = tage_lookup_fn(hit.address, gpv)
                d_tage = tage_from_lookup(tage_lookup)
#IF SPEC
                for pht_hit in (tage_lookup.long_hit, tage_lookup.short_hit):
                    if pht_hit is None:
                        continue
                    spht_entry = spht_entries.get(
                        ("spht", pht_hit.table, pht_hit.row, pht_hit.tag)
                    )
                    if spht_entry is not None:
                        spht.overrides += 1
                        override = spht_entry.taken
                        if d_provider is None:
                            d_provider = D_SPHT
                            d_taken = override
                        elif d_alt_provider is None:
                            d_alt_provider = D_SPHT
                            d_alt_taken = override
                        break
#ENDIF
                tage_provider = tage_lookup.provider
                if tage_provider is not None:
                    provider_id = D_PHTL if tage_provider == LONG_T else D_PHTS
                    if d_provider is None:
                        d_provider = provider_id
                        d_taken = tage_lookup.provider_taken
                    elif d_alt_provider is None:
                        d_alt_provider = provider_id
                        d_alt_taken = tage_lookup.provider_taken
                    if tage_provider == LONG_T and tage_lookup.short_hit is not None:
                        if d_alt_provider is None:
                            d_alt_provider = D_PHTS
                            d_alt_taken = tage_lookup.short_hit.taken
            else:
                cpred.power_gate_misses += 1
        bht_taken = entry.bht.taken
#IF SPEC
        sbht_entry = sbht_entries.get(
            ("sbht", hit.row, hit.way, entry.tag, entry.offset)
        )
        if sbht_entry is not None:
            sbht.overrides += 1
            sbht_override = sbht_entry.taken
            if d_provider is None:
                d_provider = D_SBHT
                d_taken = sbht_override
            elif d_alt_provider is None:
                d_alt_provider = D_SBHT
                d_alt_taken = sbht_override
#ENDIF
        if d_provider is None:
            d_provider = D_BHT
            d_taken = bht_taken
        elif d_alt_provider is None:
            d_alt_provider = D_BHT
            d_alt_taken = bht_taken
#IF SPEC
        # _install_weak_overlays
        if d_provider is D_BHT and entry.bht.weak:
            sbht_install(
                ("sbht", hit.row, hit.way, entry.tag, entry.offset),
                d_taken,
                sequence,
            )
        if (
            (d_provider is D_PHTS or d_provider is D_PHTL)
            and d_tage is not None
            and d_tage.provider_weak
            and d_tage.provider is not None
        ):
            spht_install(
                ("spht", d_tage.provider, d_tage.provider_row, d_tage.provider_tag),
                d_taken,
                sequence,
            )
#ENDIF
    # --- figure 9 (target) --------------------------------------------
    predicted_target = None
    target_provider = T_BTB1
    ctb_lookup = None
    crs_prediction = None
    ctb_powered = True
    if d_taken:
        fig9_done = False
        if entry.multi_target:
            u_roff = entry.return_offset
            if (
                crs_on
                and u_roff is not None
                and not entry.crs_blacklisted
                and crs_pstk.valid
            ):
                u_target = crs_pstk.nsia + u_roff
                crs_pstk.valid = False
                crs.predictions_used += 1
                crs_prediction = new_crspred(CrsPredT)
                crs_prediction.used = True
                crs_prediction.target = u_target
                predicted_target = u_target
                target_provider = T_CRS
                fig9_done = True
            else:
                crs_prediction = new_crspred(CrsPredT)
                crs_prediction.used = False
                crs_prediction.target = None
                if cpred_on and cpred_lookup.hit:
                    ctb_powered = cpred_lookup.power_mask & $PCTB != 0
                    if not ctb_powered:
                        cpred.power_gated_lookups += 1
                if ctb_powered:
                    ctb_lookup = ctb_lookup_fn(hit.address, context, gpv_snapshot)
                    if ctb_lookup.hit:
                        predicted_target = ctb_lookup.target
                        target_provider = T_CTB
                        fig9_done = True
                else:
                    cpred.power_gate_misses += 1
        if not fig9_done:
            predicted_target = entry.target
            target_provider = T_BTB1
    # --- the prediction record ----------------------------------------
    record = new_record(Record)
    record.sequence = sequence
    record.address = address
    record.context = context
    record.thread = thread
    record.kind = branch.kind
    record.length = branch.instruction.length
    record.dynamic = True
    record.predicted_taken = d_taken
    record.predicted_target = predicted_target
    record.direction_provider = d_provider
    record.target_provider = target_provider
    record.alternate_taken = d_alt_taken
    record.alternate_provider = d_alt_provider
    record.gpv_snapshot = gpv_snapshot
    record.btb_row = hit.row
    record.btb_way = hit.way
    record.btb_tag = entry.tag
    record.btb_offset = entry.offset
    record.bidirectional_at_prediction = entry.bidirectional
    record.multi_target_at_prediction = entry.multi_target
    record.marked_return_at_prediction = entry.return_offset is not None
    record.blacklisted_at_prediction = entry.crs_blacklisted
    record.tage = d_tage
    record.perceptron = d_perc
    record.ctb = ctb_lookup
    record.crs = crs_prediction
    record.cpred = cpred_lookup
    record.pht_powered = d_pht_powered
    record.perceptron_powered = d_perc_powered
    record.ctb_powered = ctb_powered
    # --- stream bookkeeping: power needs and SKOOT training -----------
    if entry.bidirectional and not entry.is_unconditional:
        stream_s.needed_power_mask |= $PPMASK
    if entry.multi_target:
        stream_s.needed_power_mask |= $PCTB
    if not stream_s.first_branch_trained:
        stream_s.first_branch_trained = True
#IF SKOOT
        opener_t = stream_s.opener
        if opener_t is not None:
            s_start = stream_s.start_address
            if address >= s_start:
                opener_t.train_skoot(address // $LINE - s_start // $LINE, $SKOOTMAX)
#ENDIF
    if d_taken:
        if crs_on:
            u_d = predicted_target - address
            if (u_d if u_d >= 0 else -u_d) >= crs_dist:
                crs_pstk.nsia = branch.next_sequential
                crs_pstk.valid = True
#IF SKOOT
        e_skoot = entry.skoot
        if e_skoot is not None and e_skoot > 0:
            redirect = predicted_target - predicted_target % $LINE + e_skoot * $LINE
        else:
            redirect = predicted_target
#ELSE
        redirect = predicted_target
#ENDIF
        if cpred_lookup.hit:
            if cpred_lookup.way == hit.way and cpred_lookup.redirect_address == redirect:
                cpred.correct += 1
                t_cpred = True
            else:
                cpred.wrong += 1
        if cpred_on:
            u_v = stream_s.start_address >> 1
            u_row = 0
            while u_v:
                u_row ^= u_v & cpred_rowmask
                u_v >>= cpred_rowbits
            u_row %= cpred_rowcount
            u_v = (stream_s.start_address >> 4) ^ (context * 0x1F7B)
            u_tag = 0
            while u_v:
                u_tag ^= u_v & cpred_tagmask
                u_v >>= cpred_tagbits
            u_new = new_cpred_entry(CpredEntryT)
            u_new.tag = u_tag
            u_new.searches_to_taken = stream_s.searches_done
            u_new.way = hit.way
            u_new.redirect_address = redirect
            u_new.power_mask = stream_s.needed_power_mask
            u_data = cpred_data[u_row]
            if u_data is None:
                u_data = cpred_data[u_row] = [None] * cpred_ways
            u_found = -1
            u_way = 0
            for u_e in u_data:
                if u_e is not None and u_e.tag == u_tag:
                    u_found = u_way
                    break
                u_way += 1
            if u_found < 0:
                u_way = 0
                for u_e in u_data:
                    if u_e is None:
                        u_found = u_way
                        break
                    u_way += 1
            u_pol = cpred_pols[u_row]
            if u_pol is None:
                u_pol = cpred_pols[u_row] = cpred_polf(cpred_ways)
            if u_found < 0:
                u_found = u_pol.victim()
            u_data[u_found] = u_new
            u_pol.touch(u_found)
            cpred.trains += 1
    record.crs_stack_snapshot = (crs_pstk.valid, crs_pstk.nsia)
    predicted_taken_l = d_taken
    direction_provider_l = d_provider
else:
    $INC_SUR
    instruction = branch.instruction
    guessed_taken = static_guess(instruction)
    predicted_target = None
    target_provider = T_NONE
    if guessed_taken and static_known(instruction):
        predicted_target = instruction.static_target
        target_provider = T_STATREL
#IF BTB2
    if guessed_taken or branch.taken:
        btb2_surprise(sequence, address, context)
#ENDIF
    if guessed_taken or branch.taken:
        if not stream_s.first_branch_trained:
            stream_s.first_branch_trained = True
#IF SKOOT
            opener_t = stream_s.opener
            if opener_t is not None:
                s_start = stream_s.start_address
                if address >= s_start:
                    opener_t.train_skoot(address // $LINE - s_start // $LINE, $SKOOTMAX)
#ENDIF
    record = new_record(Record)
    record.sequence = sequence
    record.address = address
    record.context = context
    record.thread = thread
    record.kind = branch.kind
    record.length = instruction.length
    record.dynamic = False
    record.predicted_taken = guessed_taken
    record.predicted_target = predicted_target
    record.direction_provider = D_STATIC
    record.target_provider = target_provider
    record.alternate_taken = None
    record.alternate_provider = None
    record.gpv_snapshot = gpv._value
    record.btb_row = 0
    record.btb_way = 0
    record.btb_tag = 0
    record.btb_offset = 0
    record.bidirectional_at_prediction = False
    record.multi_target_at_prediction = False
    record.marked_return_at_prediction = False
    record.blacklisted_at_prediction = False
    record.tage = None
    record.perceptron = None
    record.ctb = None
    record.crs = None
    record.cpred = None
    record.crs_stack_snapshot = (crs_pstk.valid, crs_pstk.nsia)
    record.pht_powered = True
    record.perceptron_powered = True
    record.ctb_powered = True
    predicted_taken_l = guessed_taken
    direction_provider_l = D_STATIC
# --- resolution ------------------------------------------------------
actual_taken = branch.taken
actual_target = branch.target
record.actual_taken = actual_taken
record.actual_target = actual_target
# --- _after_resolution ----------------------------------------------
correct_path = predicted_taken_l == actual_taken and (
    not actual_taken or predicted_target == actual_target
)
#IF SPEC
if hit is not None and predicted_taken_l != actual_taken:
    install_corrected(record, hit, branch)
#ENDIF
if actual_taken:
    u_gc = gpv._hash_cache
    u_h = u_gc.get(address)
    if u_h is None:
        if len(u_gc) >= 65536:
            u_gc.clear()
        u_h = u_gc[address] = gpv._hash_fold(address >> 1)
    gpv._value = ((gpv._value << gpv.bits_per_branch) | u_h) & gpv._width_mask
if hit is not None and correct_path:
    if actual_taken:
        state.search_address = actual_target
        begin_stream(P, state, actual_target, context, entry)
    else:
        state.search_address = address + 2
else:
    $INC_RST
    crs_pstk.valid, crs_pstk.nsia = record.crs_stack_snapshot
#IF BTB2
    btb2_reset()
#ENDIF
    next_address = branch.next_address
    state.search_address = next_address
    if hit is not None and actual_taken:
        opener_n = entry
    else:
        opener_n = None
    begin_stream(P, state, next_address, context, opener_n)
# --- GPQ push + due completions (with _apply_update inlined) ---------
if len(gpq_items) >= $GPQCAP:
    forced = gpq_popleft()
    gpq.forced_completions += 1
else:
    forced = None
gpq_append(record)
if forced is not None:
    #APPLY forced
completed = sequence - $CDELAY
while gpq_items and gpq_items[0].sequence <= completed:
    due = gpq_popleft()
    #APPLY due
#IF FOLD
# --- RunStats.record inlined over local accumulators -----------------
s_branches += 1
if hit is not None:
    s_dyn += 1
else:
    s_sur += 1
if actual_taken:
    s_taken += 1
if hit is not None:
    if predicted_taken_l != actual_taken:
        klass = K_DIRW
    elif actual_taken and predicted_target != actual_target:
        klass = K_TGTW
    else:
        klass = K_NONE
else:
    if not predicted_taken_l:
        klass = K_SURT if actual_taken else K_NONE
    elif not actual_taken:
        klass = K_SGW
    elif predicted_target is None:
        klass = K_SGTI
    elif predicted_target != actual_target:
        klass = K_SGW
    else:
        klass = K_SGTR
classes[klass] += 1
if klass is K_DIRW:
    s_mis += 1
    s_dirw += 1
elif klass is K_TGTW:
    s_mis += 1
    s_tgtw += 1
elif klass is K_SURT or klass is K_SGW:
    s_mis += 1
pstats = dprov.get(direction_provider_l)
if pstats is None:
    pstats = dprov[direction_provider_l] = [0, 0]
pstats[0] += 1
if predicted_taken_l == actual_taken:
    pstats[1] += 1
if hit is not None and predicted_taken_l:
    s_ptd += 1
    if actual_taken:
        tstats = tprov.get(target_provider)
        if tstats is None:
            tstats = tprov[target_provider] = [0, 0]
        tstats[0] += 1
        if predicted_target == actual_target:
            tstats[1] += 1
s_lines += t_lines
s_empty += t_empty
s_skoot += t_skoot
s_btb2 += t_btb2
s_bad += t_bad
s_badtaken += t_badtaken
if t_overshoot:
    s_overshoot += 1
if t_cpred:
    s_cpredacc += 1
#ENDIF
#IF ALLOC
trace = new_trace(Trace)
trace.lines_searched = t_lines
trace.lines_skipped_by_skoot = t_skoot
trace.empty_searches = t_empty
trace.btb2_triggers = t_btb2
trace.bad_predictions_removed = t_bad
trace.bad_taken_restarts = t_badtaken
trace.skoot_overshoot = t_overshoot
trace.walk_capped = t_capped
trace.cpred_accelerated = t_cpred
trace.stream_searches = t_stream
outcome = new_outcome(Outcome)
outcome.record = record
outcome.trace = trace
#ENDIF
"""


# --- _apply_update inlined (spliced at the two completion sites) ----------
# A transcription of _apply_update -> _update_dynamic / _update_targets
# (with _refind_entry and _tage_alternate folded in); surprise
# completions stay a bound-method call — they are rare and allocate.
# ``$REC`` is the record variable at the splice site (forced / due).

_APPLY = """\
#IF SPEC
if sbht_entries:
    u_stale = [
        u_k
        for u_k, u_e in sbht_entries.items()
        if u_e.installer_sequence <= $REC.sequence
    ]
    if u_stale:
        for u_k in u_stale:
            del sbht_entries[u_k]
            sbht_order.remove(u_k)
        sbht.removals += len(u_stale)
if spht_entries:
    u_stale = [
        u_k
        for u_k, u_e in spht_entries.items()
        if u_e.installer_sequence <= $REC.sequence
    ]
    if u_stale:
        for u_k in u_stale:
            del spht_entries[u_k]
            spht_order.remove(u_k)
        spht.removals += len(u_stale)
#ENDIF
if $REC.dynamic:
    u_entry = btb1_entry_at($REC.btb_row, $REC.btb_way)
    if u_entry is not None and (
        u_entry.tag != $REC.btb_tag or u_entry.offset != $REC.btb_offset
    ):
        u_entry = None
    u_ataken = $REC.actual_taken
    u_taken = bool(u_ataken)
    u_dirw = $REC.predicted_taken != u_ataken
    if u_entry is not None:
        u_entry.bht.update(u_taken)
        if u_dirw and not u_entry.is_unconditional:
            u_entry.bidirectional = True
    u_tage = $REC.tage
    if u_tage is not None:
        # _tage_alternate: the short table's direction when the long
        # table provided and a short observation exists, else the
        # recorded alternate (None when there was no provider).
        if u_tage.provider is None:
            u_alt = None
        else:
            u_alt = $REC.alternate_taken
            if u_tage.provider == LONG_T:
                for u_tbl, u_tk, u_wk in u_tage.weak_observations:
                    if u_tbl == SHORT_T:
                        u_alt = u_tk
                        break
        tage_update(u_tage, u_taken, u_alt)
    if u_dirw and not (u_entry is not None and u_entry.is_unconditional):
        u_dp = $REC.direction_provider
        if u_dp is D_PHTS:
            u_mis = SHORT_T
        elif u_dp is D_PHTL:
            u_mis = LONG_T
        else:
            u_mis = None
        tage_install_mis($REC.address, $REC.gpv_snapshot, u_taken, u_mis)
        u_perc = $REC.perceptron
        if u_perc is None or not u_perc.hit:
            perc_install($REC.address)
    u_perc = $REC.perceptron
    if u_perc is not None and u_perc.hit:
        if $REC.direction_provider is D_PERC:
            u_cmp = $REC.alternate_taken
        else:
            u_cmp = $REC.predicted_taken
        perc_update(u_perc, u_taken, u_cmp)
    u_atgt = $REC.actual_target
    if u_taken and u_atgt is not None:
        u_tgtw = $REC.predicted_taken and $REC.predicted_target != u_atgt
        if u_tgtw:
            u_tp = $REC.target_provider
            if u_tp is T_BTB1:
                if u_entry is not None:
                    u_entry.target = u_atgt
                    u_entry.multi_target = True
                ctb_install($REC.address, $REC.context, $REC.gpv_snapshot, u_atgt)
            elif u_tp is T_CTB and $REC.ctb is not None:
                ctb_correct($REC.ctb, u_atgt)
            elif u_tp is T_CRS:
                crs.blacklists += 1
                if u_entry is not None:
                    u_entry.crs_blacklisted = True
        u_match = None
        if crs_on:
            u_stk = crs_dstacks.get($REC.thread)
            if u_stk is None:
                u_stk = crs_dstacks[$REC.thread] = CrsStack()
            if u_stk.valid:
                u_delta = u_atgt - u_stk.nsia
                if u_delta in crs_offsets:
                    u_match = u_delta
            if u_match is not None:
                crs.detections += 1
                u_stk.valid = False
            else:
                u_d2 = u_atgt - $REC.address
                if (u_d2 if u_d2 >= 0 else -u_d2) >= crs_dist:
                    u_stk.nsia = $REC.address + $REC.length
                    u_stk.valid = True
        if u_entry is not None:
            if u_match is not None and u_entry.return_offset is None:
                u_entry.return_offset = u_match
            if u_tgtw and u_entry.crs_blacklisted:
                if crs_amnesty(u_match is not None):
                    u_entry.crs_blacklisted = False
else:
    upd_sur($REC)
if wq_items:
    drained = 0
    while drained < $DRAIN:
        command = wq_try_pop()
        if command is None:
            break
        result = btb1_install(command.address, command.context, command.entry)
#IF BTB2
        if result.installed and result.victim is not None:
            btb2_evict(result.victim)
#ENDIF
        drained += 1
"""


def _splice_apply(core_text: str) -> str:
    """Replace ``#APPLY <name>`` marker lines with the inlined
    completion-update template, indented to the marker and with $REC
    bound to the site's record variable."""
    out = []
    for line in core_text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#APPLY "):
            name = stripped[7:].strip()
            indent = line[: len(line) - len(line.lstrip())]
            body = _APPLY.replace("$REC", name)
            out.append(textwrap.indent(body, indent).rstrip("\n"))
        else:
            out.append(line)
    return "\n".join(out) + "\n"


_HOISTS = """\
tstates = P._threads
mk_state = P._thread_state
btb1 = P.btb1
search_line = btb1.search_line
btb1_remove = btb1.remove
btb1_install = btb1.install
btb1_entry_at = btb1.entry_at
tage_update = P.tage.update
tage_install_mis = P.tage.install_on_mispredict
perc_install = P.perceptron.install
perc_update = P.perceptron.update
ctb_install = P.ctb.install
ctb_correct = P.ctb.correct_target
#IF BTB2
btb2 = P.btb2
btb2_staging = btb2.staging
btb2_drain = btb2.drain_staging
btb2_note = btb2.note_search_outcome
btb2_reset = btb2.reset_empty_counter
btb2_surprise = btb2.note_surprise_branch
btb2_evict = btb2.handle_btb1_eviction
#ENDIF
tage_lookup_fn = P.tage.lookup
tage_from_lookup = TageLookupSnapshot.from_lookup
perc_lookup = P.perceptron.lookup
#IF SPEC
sbht = P.sbht
spht = P.spht
sbht_entries = sbht._entries
spht_entries = spht._entries
sbht_order = sbht._insertion_order
spht_order = spht._insertion_order
sbht_install = sbht.install
spht_install = spht.install
sbht_retire = sbht.retire
spht_retire = spht.retire
install_corrected = P._install_corrected_overlays
#ENDIF
ctb_lookup_fn = P.ctb.lookup
crs = P.crs
crs_on = crs.enabled
crs_dist = crs.config.distance_threshold
crs_offsets = crs.config.return_offsets
crs_pstacks = crs._predict_stacks
crs_dstacks = crs._detect_stacks
crs_amnesty = crs.consider_amnesty
CrsStack = _CrsStack
CrsPredT = _CrsPrediction
new_crspred = _new_crspred
CpredLookupT = _CpredLookup
new_cpred_lookup = _new_cpred_lookup
CpredEntryT = _CpredEntry
new_cpred_entry = _new_cpred_entry
cpred = P.cpred
cpred_on = cpred.enabled
cpred_table = cpred._table
cpred_data = cpred_table._data
cpred_pols = cpred_table._policies
cpred_ways = cpred_table.ways
cpred_polf = cpred_table._policy_factory
cpred_rowbits = cpred._row_bits
cpred_rowmask = cpred._row_fold_mask
cpred_rowcount = cpred._row_count
cpred_tagbits = cpred._tag_bits
cpred_tagmask = cpred._tag_fold_mask
gpq = P.gpq
gpq_items = gpq._items
gpq_popleft = gpq_items.popleft
gpq_append = gpq_items.append
wq = P.write_queue
wq_items = wq._items
wq_try_pop = wq.try_pop
upd_dyn = P._update_dynamic
upd_sur = P._update_surprise
begin_stream = _begin_stream
static_guess = _static_guess_taken
static_known = _static_target_known
Record = PredictionRecord
new_record = _new_record
Trace = SearchTrace
new_trace = _new_trace
Outcome = PredictionOutcome
new_outcome = _new_outcome
D_UNCOND = _D_UNCOND
D_PERC = _D_PERC
D_SPHT = _D_SPHT
D_PHTL = _D_PHTL
D_PHTS = _D_PHTS
D_SBHT = _D_SBHT
D_BHT = _D_BHT
D_STATIC = _D_STATIC
T_BTB1 = _T_BTB1
T_CRS = _T_CRS
T_CTB = _T_CTB
T_NONE = _T_NONE
T_STATREL = _T_STATREL
K_NONE = _K_NONE
K_DIRW = _K_DIRW
K_TGTW = _K_TGTW
K_SURT = _K_SURT
K_SGTR = _K_SGTR
K_SGTI = _K_SGTI
K_SGW = _K_SGW
LONG_T = _LONG
SHORT_T = _SHORT
cur_thread = None
state = None
gpv = None
crs_pstk = None
"""


_STATS_LOCALS = """\
stats_obj = stats
classes = stats_obj.classes
dprov = stats_obj.direction_providers
tprov = stats_obj.target_providers
s_branches = 0
s_dyn = 0
s_sur = 0
s_taken = 0
s_mis = 0
s_dirw = 0
s_tgtw = 0
s_ptd = 0
s_lines = 0
s_empty = 0
s_skoot = 0
s_overshoot = 0
s_btb2 = 0
s_bad = 0
s_badtaken = 0
s_cpredacc = 0
"""


_PREDICTOR_FLUSH = """\
P.predictions += n_pred
P.dynamic_predictions += n_dyn
P.surprise_branches += n_sur
P.restarts += n_rst
P._staging_drain_countdown = drain_cd
"""


_STATS_FLUSH = """\
stats_obj.branches += s_branches
stats_obj.dynamic_predictions += s_dyn
stats_obj.surprise_branches += s_sur
stats_obj.taken_branches += s_taken
stats_obj.mispredicted_branches += s_mis
stats_obj.direction_wrong += s_dirw
stats_obj.target_wrong += s_tgtw
stats_obj.predicted_taken_dynamic += s_ptd
stats_obj.lines_searched += s_lines
stats_obj.empty_searches += s_empty
stats_obj.lines_skipped_by_skoot += s_skoot
stats_obj.skoot_overshoots += s_overshoot
stats_obj.btb2_triggers += s_btb2
stats_obj.bad_predictions_removed += s_bad
stats_obj.bad_taken_restarts += s_badtaken
stats_obj.cpred_accelerated_streams += s_cpredacc
"""


_BEGIN_STREAM = """\
def _begin_stream(P, state, start, context, opener):
    pending_skip = 0
#IF SKOOT
    if opener is not None:
        skoot_v = opener.skoot
        if skoot_v is not None:
            pending_skip = skoot_v
#ENDIF
    s = _new_stream(_Stream)
    s.start_address = start
    s.context = context
    s.opener = opener
    s.pending_skip = pending_skip
    s.first_branch_trained = False
    s.searches_done = 0
    s.needed_power_mask = 0
    cpred = P.cpred
    if not cpred.enabled:
        look = _new_cpred_lookup(_CpredLookup)
        look.hit = False
        look.row = 0
        look.tag = 0
        look.searches_to_taken = 0
        look.way = 0
        look.redirect_address = 0
        look.power_mask = $PALL
    else:
        cpred.lookups += 1
        value = start >> 1
        row = 0
        row_bits = cpred._row_bits
        fold_mask = cpred._row_fold_mask
        while value:
            row ^= value & fold_mask
            value >>= row_bits
        row %= cpred._row_count
        value = (start >> 4) ^ (context * 0x1F7B)
        tag = 0
        tag_bits = cpred._tag_bits
        fold_mask = cpred._tag_fold_mask
        while value:
            tag ^= value & fold_mask
            value >>= tag_bits
        table = cpred._table
        data = table._data[row]
        if data is None:
            data = table._data[row] = [None] * table.ways
        found = None
        way = 0
        for entry in data:
            if entry is not None and entry.tag == tag:
                found = entry
                break
            way += 1
        look = _new_cpred_lookup(_CpredLookup)
        look.row = row
        look.tag = tag
        if found is None:
            look.hit = False
            look.searches_to_taken = 0
            look.way = 0
            look.redirect_address = 0
            look.power_mask = $PALL
        else:
            pol = table._policies[row]
            if pol is None:
                pol = table._policies[row] = table._policy_factory(table.ways)
            pol.touch(way)
            cpred.hits += 1
            look.hit = True
            look.searches_to_taken = found.searches_to_taken
            look.way = found.way
            look.redirect_address = found.redirect_address
            look.power_mask = found.power_mask
    s.cpred_lookup = look
    state.stream = s
"""


_BARE_SUBS = {
    "INC_PRED": "n_pred += 1",
    "INC_DYN": "n_dyn += 1",
    "INC_SUR": "n_sur += 1",
    "INC_RST": "n_rst += 1",
}

# ``outcomes`` hands control to the consumer at every yield, so its
# predictor counters are attribute updates, never locals.
_OUTCOME_SUBS = {
    "INC_PRED": "P.predictions += 1",
    "INC_DYN": "P.dynamic_predictions += 1",
    "INC_SUR": "P.surprise_branches += 1",
    "INC_RST": "P.restarts += 1",
}


def _indent(text: str, spaces: int) -> str:
    return textwrap.indent(text, " " * spaces)


def generate_kernel_source(shape: Tuple) -> str:
    """The full generated module text for one config shape (pure
    function of the shape — tests introspect it)."""
    (
        has_btb2,
        skoot_enabled,
        spec_enabled,
        line_size,
        walk_cap,
        completion_delay,
        gpq_capacity,
        write_drain,
        visibility_lines,
        skoot_max,
    ) = shape
    shape_flags = {
        "BTB2": has_btb2,
        "SKOOT": skoot_enabled,
        "SPEC": spec_enabled,
    }
    subs_base = {
        "LINE": str(line_size),
        "CAP": str(walk_cap),
        "CAPBYTES": str(walk_cap * line_size),
        "CDELAY": str(completion_delay),
        "GPQCAP": str(gpq_capacity),
        "DRAIN": str(write_drain),
        "DRAIN2": str(2 * write_drain),
        "VIS": str(visibility_lines),
        "SKOOTMAX": str(skoot_max),
        "PPMASK": str(POWER_PHT | POWER_PERCEPTRON),
        "PPERC": str(POWER_PERCEPTRON),
        "PPHT": str(POWER_PHT),
        "PCTB": str(POWER_CTB),
    }

    def core(extra_flags: Dict[str, bool], subs: Dict[str, str]) -> str:
        flags = dict(shape_flags)
        flags.update(extra_flags)
        merged = dict(subs_base)
        merged.update(subs)
        return _render(_splice_apply(_CORE), flags, merged)

    hoists = _render(_HOISTS, shape_flags, {})
    begin_stream = _render(
        _BEGIN_STREAM, shape_flags, {"PALL": str(POWER_ALL)}
    )

    parts = [
        f'"""Specialized prediction kernels for shape {shape!r}.\n'
        "\n"
        "Generated by repro.engine.specialize; do not edit.  The\n"
        "reference semantics live in repro.core.predictor.\n"
        '"""\n',
        begin_stream,
    ]

    bare_prologue = (
        "n_pred = 0\nn_dyn = 0\nn_sur = 0\nn_rst = 0\n"
        "drain_cd = P._staging_drain_countdown\n"
    )

    # -- counted: the allocation-free stats-folding loop -----------------
    parts.append(
        "def counted(P, stream, stats):\n"
        + _indent(hoists, 4)
        + _indent(bare_prologue, 4)
        + _indent(_STATS_LOCALS, 4)
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({"FOLD": True}, _BARE_SUBS), 12)
        + "    finally:\n"
        + _indent(_PREDICTOR_FLUSH, 8)
        + _indent(_STATS_FLUSH, 8)
        + "    return s_branches\n"
    )

    # -- warmup: the allocation-free uncounted prefix ---------------------
    parts.append(
        "def warmup(P, stream, warmup_branches):\n"
        + _indent(hoists, 4)
        + _indent(bare_prologue, 4)
        + "    consumed = 0\n"
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({}, _BARE_SUBS), 12)
        + "            consumed += 1\n"
        + "            if consumed == warmup_branches:\n"
        + "                break\n"
        + "    finally:\n"
        + _indent(_PREDICTOR_FLUSH, 8)
        + "    return consumed\n"
    )

    # -- outcomes: one PredictionOutcome per branch, pulled on demand ----
    # Consumer code runs at every yield (observers, samplers, injectors,
    # the cycle engine's restarts), so the drain countdown is re-read
    # after each resume and written back, even on an exception, before
    # the outcome leaves.
    parts.append(
        "def outcomes(P, stream):\n"
        + _indent(hoists, 4)
        + "    for branch in stream:\n"
        + "        drain_cd = P._staging_drain_countdown\n"
        + "        try:\n"
        + _indent(core({"ALLOC": True}, _OUTCOME_SUBS), 12)
        + "        finally:\n"
        + "            P._staging_drain_countdown = drain_cd\n"
        + "        yield outcome\n"
    )

    return "\n".join(parts)


def _compile_shape(shape: Tuple) -> SpecializedKernels:
    source = generate_kernel_source(shape)
    filename = f"<repro-specialized-{'-'.join(str(s) for s in shape)}>"
    namespace = {
        "_Stream": _Stream,
        "_new_stream": _Stream.__new__,
        "PredictionRecord": PredictionRecord,
        "_new_record": PredictionRecord.__new__,
        "SearchTrace": SearchTrace,
        "_new_trace": SearchTrace.__new__,
        "PredictionOutcome": PredictionOutcome,
        "_new_outcome": PredictionOutcome.__new__,
        "TageLookupSnapshot": TageLookupSnapshot,
        "ContextSwitch": ContextSwitch,
        "_static_guess_taken": static_guess_taken,
        "_static_target_known": static_target_known,
        "_D_UNCOND": DirectionProvider.UNCONDITIONAL,
        "_D_PERC": DirectionProvider.PERCEPTRON,
        "_D_SPHT": DirectionProvider.SPHT,
        "_D_PHTL": DirectionProvider.PHT_LONG,
        "_D_PHTS": DirectionProvider.PHT_SHORT,
        "_D_SBHT": DirectionProvider.SBHT,
        "_D_BHT": DirectionProvider.BHT,
        "_D_STATIC": DirectionProvider.STATIC,
        "_T_BTB1": TargetProvider.BTB1,
        "_T_CRS": TargetProvider.CRS,
        "_T_CTB": TargetProvider.CTB,
        "_T_NONE": TargetProvider.NONE,
        "_T_STATREL": TargetProvider.STATIC_RELATIVE,
        "_K_NONE": MispredictClass.NONE,
        "_K_DIRW": MispredictClass.DIRECTION_WRONG,
        "_K_TGTW": MispredictClass.TARGET_WRONG,
        "_K_SURT": MispredictClass.SURPRISE_TAKEN,
        "_K_SGTR": MispredictClass.SURPRISE_GUESSED_TAKEN_RELATIVE,
        "_K_SGTI": MispredictClass.SURPRISE_GUESSED_TAKEN_INDIRECT,
        "_K_SGW": MispredictClass.SURPRISE_GUESS_WRONG,
        "_LONG": LONG,
        "_SHORT": SHORT,
        "_CrsStack": _CrsStack,
        "_CrsPrediction": CrsPrediction,
        "_new_crspred": CrsPrediction.__new__,
        "_CpredLookup": CpredLookup,
        "_new_cpred_lookup": CpredLookup.__new__,
        "_CpredEntry": CpredEntry,
        "_new_cpred_entry": CpredEntry.__new__,
    }
    code = compile(source, filename, "exec")
    exec(code, namespace)
    # Register the source so tracebacks through generated code show
    # real lines (the namedtuple trick, one better).
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    return SpecializedKernels(shape, source, namespace)


def effective_engine_mode(engine_mode: str, predictor) -> str:
    """The mode a run will actually use: baselines and other non-z15
    predictor protocols have no specialized kernel and silently fall
    back to the reference path."""
    if engine_mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {engine_mode!r}; expected one of {ENGINE_MODES}"
        )
    if engine_mode == "fast" and isinstance(predictor, LookaheadBranchPredictor):
        return "fast"
    return "reference"
