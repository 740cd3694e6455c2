"""TenantState: the exactness contract, in-process.

Live serving, idempotent retries, crash recovery by journal replay and
the lossy evict tier are all exercised here without any processes or
sockets — the same compute path the shard workers run.
"""

import pytest

from repro.common.errors import JournalError
from repro.serve import protocol
from repro.serve.client import TenantPlan, reference_fingerprint
from repro.serve.shard import TenantState

PLAN = TenantPlan("t0", workload="transactions", seed=5, branches=120,
                  batch_size=30)


def _serve_all(state, batches, start=0):
    response = None
    for seq in range(start, len(batches)):
        response = state.predict(seq, batches[seq])
        assert "rejected" not in response, response
    return response


def test_live_stream_matches_uninterrupted_oracle(tmp_path):
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    last = _serve_all(state, PLAN.batches())
    oracle = reference_fingerprint(PLAN)
    assert last["fingerprint"] == oracle["fingerprint"]
    assert state.stats.branches == oracle["branches"]
    state.close()


def test_retry_of_last_batch_is_cached_and_identical(tmp_path):
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    batches = PLAN.batches()
    first = state.predict(0, batches[0])
    retried = state.predict(0, batches[0])
    assert retried["cached"] and not first["cached"]
    assert retried["records"] == first["records"]
    assert retried["fingerprint"] == first["fingerprint"]
    # And the retry did not advance the chain.
    second = state.predict(1, batches[1])
    assert second["next_seq"] == 2
    state.close()


def test_out_of_window_sequence_is_rejected(tmp_path):
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    batches = PLAN.batches()
    state.predict(0, batches[0])
    for bad in (5, -1, "0", None):
        response = state.predict(bad, batches[0])
        assert response["rejected"] == protocol.REJECT_BAD_SEQ
    # The rejection changed nothing.
    response = state.predict(1, batches[1])
    assert "rejected" not in response
    state.close()


def test_recover_after_clean_close_resumes_exactly(tmp_path):
    batches = PLAN.batches()
    half = len(batches) // 2
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    for seq in range(half):
        state.predict(seq, batches[seq])
    state.close()

    recovered = TenantState.recover("t0", tmp_path)
    assert recovered.next_seq == half
    # The pre-crash retry contract survives recovery too.
    cached = recovered.predict(half - 1, batches[half - 1])
    assert cached["cached"]
    last = _serve_all(recovered, batches, start=half)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_recover_from_journal_only_no_snapshot(tmp_path):
    batches = PLAN.batches()
    state = TenantState("t0", "z15", tmp_path)  # no checkpointing
    state.open_fresh()
    for seq in range(2):
        state.predict(seq, batches[seq])
    state.journal.close()  # crash: no close(), no snapshot written

    recovered = TenantState.recover("t0", tmp_path)
    assert recovered.next_seq == 2
    last = _serve_all(recovered, batches, start=2)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_recover_with_torn_journal_tail_replays_prefix(tmp_path):
    batches = PLAN.batches()
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    for seq in range(3):
        state.predict(seq, batches[seq])
    state.journal.close()
    with open(state.paths.journal, "a") as stream:
        stream.write('{"type": "batch", "seq": 3, "branch')  # killed mid-append

    recovered = TenantState.recover("t0", tmp_path)
    # The torn batch was never acknowledged; the client resends it.
    assert recovered.next_seq == 3
    last = _serve_all(recovered, batches, start=3)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()


def test_evict_restore_chain_is_replayable(tmp_path):
    """The evict tier is lossy for accuracy but the *served* stream is
    still exact: offline replay of the journal reproduces it bit for
    bit, evictions included."""
    batches = PLAN.batches()
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    state.predict(0, batches[0])
    assert state.evict()
    assert not state.warm
    assert not state.evict()  # idempotent when cold
    # Next predict re-warms from the lossy tier (journaled as restore).
    response = state.predict(1, batches[1])
    assert response["restored"]
    for seq in range(2, len(batches)):
        state.predict(seq, batches[seq])
    served = state.fingerprint
    state.close()

    replayed = TenantState.recover("t0", tmp_path)
    assert replayed.fingerprint == served
    assert replayed.next_seq == len(batches)
    replayed.close()


def test_checkpoint_rotation_bounds_replay(tmp_path):
    from repro.serve.journal import load_journal

    batches = PLAN.batches()
    state = TenantState("t0", "z15", tmp_path, checkpoint_every=2)
    state.open_fresh()
    for seq in range(len(batches)):
        state.predict(seq, batches[seq])
    served = state.fingerprint
    state.journal.close()  # crash without the closing checkpoint
    # Rotation kept the journal to at most checkpoint_every batches.
    _, events = load_journal(state.paths.journal)
    assert len([e for e in events if e["type"] == "batch"]) <= 2

    recovered = TenantState.recover("t0", tmp_path, checkpoint_every=2)
    assert recovered.fingerprint == served
    recovered.close()


def test_recover_unknown_tenant_raises(tmp_path):
    with pytest.raises(JournalError, match="nothing to recover"):
        TenantState.recover("ghost", tmp_path)


def test_recover_reads_spools_that_carry_a_backend_field(tmp_path):
    """Journal headers and snapshots written before the predictor
    backend was retired carry ``"backend": "object"``; recovery must
    read them and serve on exactly."""
    import json

    from repro.serve.journal import write_snapshot

    batches = PLAN.batches()
    state = TenantState("t0", "z15", tmp_path)
    state.open_fresh()
    for seq in range(2):
        state.predict(seq, batches[seq])
    state.close()
    lines = state.paths.journal.read_text().splitlines()
    header = dict(json.loads(lines[0]), backend="object")
    state.paths.journal.write_text(
        "\n".join([json.dumps(header)] + lines[1:]) + "\n")
    write_snapshot(state.paths.snapshot, {
        "tenant": "t0", "config": "z15", "backend": "object",
        "seq": state.next_seq, "fingerprint": state.fingerprint,
        "predictor": state.predictor, "stats": state.stats,
        "needs_restart": state.needs_restart,
        "last_response": state.last_response,
    })

    recovered = TenantState.recover("t0", tmp_path)
    last = _serve_all(recovered, batches, start=2)
    assert last["fingerprint"] == reference_fingerprint(PLAN)["fingerprint"]
    recovered.close()
