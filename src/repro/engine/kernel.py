"""The shared drive loop every engine runs.

Both engines consume an *outcome iterator*: one
:class:`~repro.core.predictor.PredictionOutcome` per executed branch,
produced either by :func:`reference_outcomes` (the predictor's own
``predict_and_resolve``) or by the compiled ``outcomes`` generator of
:mod:`repro.engine.specialize`.  Each outcome goes to an optional
observer chain (explicit observer, telemetry session, fault injector),
then to stats recording.  This module is the single home of that
consume sequence — the engines differ only in *what else* they do
around each outcome (nothing or timing), never in how a branch flows
through the predictor.

Keeping the consume sequence here means a divergence between engines
can only come from the predictor itself, which is exactly what
the differential harness (:mod:`repro.verification.differential`) is
built to localise.
"""

from __future__ import annotations

from repro.workloads.multi import ContextSwitch

#: Instructions assumed per executed branch when a branch stream carries
#: no real instruction counts: the classic ~1-branch-in-4 dynamic
#: density of the branch-heavy commercial footprints the paper's
#: predictor targets.  MPKI derived through this approximation is
#: exactly ``branch_mpki / INSTRUCTIONS_PER_BRANCH`` and is flagged via
#: ``RunStats.instructions_approximate``.
INSTRUCTIONS_PER_BRANCH = 4


def _chain_observers(observer, telemetry, injector=None):
    """Compose an explicit observer, a telemetry session's observe and a
    fault injector's observe into one per-branch callback.

    Returns None when none is attached, preserving the engines'
    per-branch ``observer is None`` fast paths; a single consumer is
    returned unwrapped (no indirection for the common one-hook case).
    The injector runs last: faults land after the branch's own updates,
    like a soft error striking between predictions.
    """
    callbacks = [callback for callback in (
        observer,
        telemetry.observe if telemetry is not None else None,
        injector.observe if injector is not None else None,
    ) if callback is not None]
    if not callbacks:
        return None
    if len(callbacks) == 1:
        return callbacks[0]

    def chained(outcome, _callbacks=tuple(callbacks)):
        for callback in _callbacks:
            callback(outcome)

    return chained


def reference_outcomes(predictor, stream):
    """The reference outcome iterator: ``predict_and_resolve`` for each
    branch of *stream*; ``ContextSwitch`` items go through
    ``context_switch`` and yield nothing.  Pulls one item per outcome,
    so a consumer that stops early leaves the rest of *stream* unread."""
    predict = predictor.predict_and_resolve
    for item in stream:
        if isinstance(item, ContextSwitch):
            predictor.context_switch(item.entry_point, item.context,
                                     item.thread)
            continue
        yield predict(item)


def outcome_iterator(predictor, kernels, stream):
    """*stream*'s outcomes in the engine's mode: the compiled
    ``outcomes`` generator when *kernels* is set (``fast``), else
    :func:`reference_outcomes`."""
    if kernels is not None:
        return kernels.outcomes(predictor, stream)
    return reference_outcomes(predictor, stream)


def run_warmup(outcomes, warmup_branches, observer):
    """Drive the uncounted warmup prefix of *outcomes*.

    Warmup branches train the predictor and are shown to observers (the
    differential harness compares them too) but are never recorded into
    stats.  Returns the number of outcomes consumed, which is less than
    *warmup_branches* only when the stream ran dry; the iterator is left
    positioned on the first counted branch.
    """
    consumed = 0
    for outcome in outcomes:
        if observer is not None:
            observer(outcome)
        consumed += 1
        if consumed == warmup_branches:
            break
    return consumed


def drive_counted(outcomes, record, observer=None, extra=None):
    """The counted loop: observer (when attached) -> *record* -> *extra*
    for each outcome; returns the number of outcomes consumed.

    *record* is the stats sink (``RunStats.record``); *extra* an
    optional second recorder (a mispredict profile).  The order is part
    of the cross-engine contract: observers see the outcome before
    stats accumulate it.
    """
    count = 0
    if observer is None and extra is None:
        for outcome in outcomes:
            record(outcome)
            count += 1
        return count
    for outcome in outcomes:
        if observer is not None:
            observer(outcome)
        record(outcome)
        if extra is not None:
            extra(outcome)
        count += 1
    return count
