"""Direct contract of :mod:`repro.engine.kernel` — the shared consume
sequence every engine drives.

These tests pin the module's own guarantees, apart from the engines:
the observer chain order (explicit observer → telemetry → injector),
single-consumer unwrapping (no indirection for the common one-hook
case), the observer → record → extra order of the counted loop, the
reference outcome iterator pulling one item per outcome, and the
``run_warmup`` dry-stream edge where the stream ends before warmup
does.
"""

from repro.engine.kernel import (
    _chain_observers,
    drive_counted,
    reference_outcomes,
    run_warmup,
)
from repro.workloads.multi import ContextSwitch


class _Hook:
    """A telemetry-/injector-shaped consumer: has ``observe``."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def observe(self, outcome):
        self.log.append((self.name, outcome))


class _Predictor:
    """A predictor-shaped stand-in: upper-cases each branch and logs
    context switches."""

    def __init__(self):
        self.switches = []

    def predict_and_resolve(self, branch):
        return branch.upper()

    def context_switch(self, address, context, thread=0):
        self.switches.append((address, context, thread))


# ----------------------------------------------------------------------
# _chain_observers
# ----------------------------------------------------------------------


def test_chain_order_is_observer_then_telemetry_then_injector():
    log = []
    chained = _chain_observers(
        lambda outcome: log.append(("observer", outcome)),
        _Hook(log, "telemetry"),
        _Hook(log, "injector"),
    )
    chained("o1")
    assert [name for name, _ in log] == ["observer", "telemetry", "injector"]
    assert all(outcome == "o1" for _, outcome in log)


def test_chain_with_nothing_attached_is_none():
    """The engines key their per-branch fast path on ``observer is
    None``; an empty chain must collapse to None, not a no-op callable."""
    assert _chain_observers(None, None, None) is None


def test_single_consumer_is_returned_unwrapped():
    def observer(outcome):
        pass

    telemetry = _Hook([], "telemetry")
    injector = _Hook([], "injector")
    assert _chain_observers(observer, None, None) is observer
    # Bound methods are equal (not identical) across attribute lookups.
    assert _chain_observers(None, telemetry, None) == telemetry.observe
    assert _chain_observers(None, None, injector) == injector.observe


def test_two_consumer_chain_skips_the_missing_slot():
    log = []
    chained = _chain_observers(
        lambda outcome: log.append(("observer", outcome)),
        None,
        _Hook(log, "injector"),
    )
    chained("o1")
    assert [name for name, _ in log] == ["observer", "injector"]


# ----------------------------------------------------------------------
# drive_counted: consume-sequence order
# ----------------------------------------------------------------------


def test_drive_counted_runs_observer_before_record():
    log = []
    count = drive_counted(
        iter(["outcome-b1"]),
        lambda outcome: log.append(("record", outcome)),
        observer=lambda outcome: log.append(("observer", outcome)),
    )
    assert count == 1
    assert log == [("observer", "outcome-b1"), ("record", "outcome-b1")]


def test_drive_counted_without_observer_still_records():
    log = []
    assert drive_counted(iter(["b1"]), log.append) == 1
    assert log == ["b1"]


def test_drive_counted_order_with_all_consumers():
    log = []
    drive_counted(
        iter(["b1", "b2"]),
        lambda outcome: log.append(("record", outcome)),
        observer=lambda outcome: log.append(("observer", outcome)),
        extra=lambda outcome: log.append(("extra", outcome)),
    )
    assert log == [
        ("observer", "b1"), ("record", "b1"), ("extra", "b1"),
        ("observer", "b2"), ("record", "b2"), ("extra", "b2"),
    ]


def test_drive_counted_bare_path_records_everything():
    recorded = []
    assert drive_counted(iter(range(5)), recorded.append) == 5
    assert recorded == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# reference_outcomes
# ----------------------------------------------------------------------


def test_reference_outcomes_pulls_one_item_per_outcome():
    stream = iter(["b1", "b2", "b3"])
    outcomes = reference_outcomes(_Predictor(), stream)
    assert next(outcomes) == "B1"
    assert list(stream) == ["b2", "b3"]


def test_reference_outcomes_applies_context_switches_silently():
    predictor = _Predictor()
    switch = ContextSwitch(context=3, thread=1, entry_point=0x4000)
    outcomes = list(reference_outcomes(predictor, ["b1", switch, "b2"]))
    assert outcomes == ["B1", "B2"]
    assert predictor.switches == [(0x4000, 3, 1)]


# ----------------------------------------------------------------------
# run_warmup
# ----------------------------------------------------------------------


def test_run_warmup_consumes_exactly_the_prefix():
    stream = iter(["b1", "b2", "b3", "b4"])
    consumed = run_warmup(reference_outcomes(_Predictor(), stream), 2, None)
    assert consumed == 2
    assert list(stream) == ["b3", "b4"]


def test_run_warmup_shows_warmup_branches_to_the_observer():
    seen = []
    outcomes = reference_outcomes(_Predictor(), iter(["b1", "b2"]))
    consumed = run_warmup(outcomes, 2, seen.append)
    assert consumed == 2
    assert seen == ["B1", "B2"]


def test_run_warmup_dry_stream_reports_short_count():
    """A stream shorter than the warmup budget must report how many
    branches it actually consumed — the engines use the exact-match
    return to decide whether the instruction baseline is trustworthy."""
    consumed = run_warmup(iter(["b1"]), 10, None)
    assert consumed == 1
    assert run_warmup(iter([]), 10, None) == 0
