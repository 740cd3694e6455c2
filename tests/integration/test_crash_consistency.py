"""Property: a child killed mid-checkpoint at ANY byte offset recovers.

The durable-state contract (``repro.serve.journal`` riding
``repro.common.atomic``) claims a crash at any byte of any write leaves
a recoverable spool: either the batch landed in the journal (replay
reproduces it) or it did not (the client's resend recomputes it) —
never a state that serves a different stream.  Hypothesis drives a real
child process that tears its own journal append at a randomized byte
offset and dies with ``os._exit`` (the faithful SIGKILL analogue: no
atexit, no flush), then the parent recovers the spool and finishes the
stream; the final fingerprint chain must equal the uninterrupted run's.
"""

import functools
import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.serve.client import TenantPlan, reference_fingerprint
from repro.serve.shard import TenantState

#: One fixed plan per test run: the oracle is computed once.
_PLAN_ARGS = dict(workload="transactions", seed=13, branches=120,
                  batch_size=20)

#: Child driver: serve batches, arming the tear before batch
#: ``tear_batch`` so the journal append for it crashes ``tear_bytes``
#: bytes in (os._exit: nothing is flushed or unwound on the way down).
_CHILD = """
import sys
from repro.serve.client import TenantPlan
from repro.serve.shard import TenantState

spool, tear_batch, tear_bytes, checkpoint_every = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
plan = TenantPlan("t0", workload="transactions", seed=13, branches=120,
                  batch_size=20)
state = TenantState("t0", "z15", spool,
                    checkpoint_every=checkpoint_every)
state.open_fresh()
for seq, rows in enumerate(plan.batches()):
    if seq == tear_batch:
        state.journal.tear_after_bytes = tear_bytes
    response = state.predict(seq, rows)
    assert "rejected" not in response, response
state.close()
sys.exit(0)
"""


@functools.lru_cache(maxsize=1)
def _oracle():
    return reference_fingerprint(TenantPlan("t0", **_PLAN_ARGS))


def _run_child(spool, tear_batch, tear_bytes, checkpoint_every):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _CHILD, str(spool), str(tear_batch),
         str(tear_bytes), str(checkpoint_every)],
        env=env, capture_output=True, text=True, timeout=120,
    )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    tear_batch=st.integers(min_value=0, max_value=5),
    tear_bytes=st.integers(min_value=0, max_value=512),
    checkpoint_every=st.sampled_from([0, 2, 3]),
)
def test_torn_append_at_any_offset_recovers_exactly(
        tmp_path_factory, tear_batch, tear_bytes, checkpoint_every):
    spool = tmp_path_factory.mktemp("spool")
    child = _run_child(spool, tear_batch, tear_bytes, checkpoint_every)
    # The tear always fires (70 is its private exit code); anything else
    # means the child died some *other* way, which is a real failure.
    assert child.returncode == 70, (child.returncode, child.stderr)

    recovered = TenantState.recover("t0", spool,
                                    checkpoint_every=checkpoint_every)
    plan = TenantPlan("t0", **_PLAN_ARGS)
    batches = plan.batches()
    # The crash may only have lost un-acknowledged work: recovery lands
    # at or before the torn batch, never past it.
    assert 0 <= recovered.next_seq <= tear_batch + 1
    last = None
    for seq in range(recovered.next_seq, len(batches)):
        last = recovered.predict(seq, batches[seq])
        assert "rejected" not in last, last
    recovered.close()
    assert last is not None
    assert last["fingerprint"] == _oracle()["fingerprint"]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(junk=st.binary(min_size=0, max_size=64), data=st.data())
def test_stranded_snapshot_temp_never_corrupts_recovery(
        tmp_path_factory, junk, data):
    """A writer killed before the atomic rename strands only a
    ``*.tmp.*`` sibling; recovery reads the intact previous snapshot."""
    from repro.common.atomic import TMP_MARKER

    spool = tmp_path_factory.mktemp("spool")
    plan = TenantPlan("t0", **_PLAN_ARGS)
    batches = plan.batches()
    state = TenantState("t0", "z15", spool, checkpoint_every=2)
    state.open_fresh()
    upto = data.draw(st.integers(min_value=2, max_value=len(batches)))
    for seq in range(upto):
        state.predict(seq, batches[seq])
    state.journal.close()  # crash, not close(): no final checkpoint

    snapshot = state.paths.snapshot
    stranded = snapshot.with_name(snapshot.name + TMP_MARKER + "dead")
    stranded.write_bytes(junk)

    recovered = TenantState.recover("t0", spool, checkpoint_every=2)
    assert recovered.next_seq == upto
    last = None
    for seq in range(upto, len(batches)):
        last = recovered.predict(seq, batches[seq])
    recovered.close()
    final = (last or recovered.last_response)["fingerprint"] \
        if (last or recovered.last_response) else recovered.fingerprint
    assert final == _oracle()["fingerprint"]


def test_resume_equals_uninterrupted_without_any_crash(tmp_path):
    """Control arm: split the same stream over two processes' worth of
    lifecycles with clean closes — identical chain, same oracle."""
    plan = TenantPlan("t0", **_PLAN_ARGS)
    batches = plan.batches()
    state = TenantState("t0", "z15", tmp_path,
                        checkpoint_every=3)
    state.open_fresh()
    for seq in range(len(batches) // 2):
        state.predict(seq, batches[seq])
    state.close()
    resumed = TenantState.recover("t0", tmp_path, checkpoint_every=3)
    last = None
    for seq in range(resumed.next_seq, len(batches)):
        last = resumed.predict(seq, batches[seq])
    resumed.close()
    assert last["fingerprint"] == _oracle()["fingerprint"]
