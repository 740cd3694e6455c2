"""The asyncio front end over real shard processes.

These tests boot a real :class:`PredictorServer` (worker processes via
the spawn-family start method — safe under pytest, whose main module is
importable) and speak the wire protocol through :class:`ServeClient`.
Kept deliberately small: one short stream per test; the heavy fault
matrix lives in the chaos harness.
"""

import asyncio

import pytest

from repro.serve import protocol
from repro.serve.client import (
    LoadGenerator,
    ServeClient,
    TenantPlan,
    reference_fingerprint,
)
from repro.serve.journal import TenantPaths
from repro.serve.server import PredictorServer, ServeOptions


def _options(**overrides):
    base = dict(shards=1, heartbeat_interval=0.1, heartbeat_timeout=2.0,
                checkpoint_every=2)
    base.update(overrides)
    return ServeOptions(**base)


def _run(coro):
    return asyncio.run(coro)


async def _with_server(tmp_path, options, body):
    server = PredictorServer(tmp_path / "spool", options)
    await server.start()
    try:
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            return await body(server, client)
        finally:
            await client.aclose()
    finally:
        await server.stop(reason="test")


def test_served_stream_matches_local_oracle(tmp_path):
    plan = TenantPlan("t0", workload="transactions", seed=9, branches=90,
                      batch_size=30)

    async def body(server, client):
        opened = await client.open("t0")
        assert opened["status"] == "ok"
        fingerprint = protocol.GENESIS_FINGERPRINT
        last = None
        for seq, rows in enumerate(plan.batches()):
            last = await client.predict("t0", seq, rows)
            assert last["status"] == "ok", last
            fingerprint = protocol.fold_fingerprint(fingerprint,
                                                    last["records"])
            assert last["fingerprint"] == fingerprint
        stats = await client.stats("t0")
        assert stats["status"] == "ok"
        metrics = await client.metrics()
        return last, stats, metrics

    last, stats, metrics = _run(_with_server(tmp_path, _options(), body))
    oracle = reference_fingerprint(plan)
    assert last["fingerprint"] == oracle["fingerprint"]
    assert stats["stats"]["branches"] == oracle["branches"]
    assert metrics["metrics"]["answered"] == 3
    assert metrics["metrics"]["accounted"]


def test_unknown_tenant_and_bad_sequence_reject_cleanly(tmp_path):
    plan = TenantPlan("t0", workload="dispatch", seed=2, branches=30,
                      batch_size=30)

    async def body(server, client):
        rows = plan.batches()[0]
        ghost = await client.predict("ghost", 0, rows)
        await client.open("t0")
        await client.predict("t0", 0, rows)
        stale = await client.predict("t0", 7, rows)
        bogus = await client.call("frobnicate")
        return ghost, stale, bogus, server.metrics.accounted()

    ghost, stale, bogus, accounted = _run(
        _with_server(tmp_path, _options(), body))
    assert ghost["status"] == "rejected"
    assert ghost["code"] == protocol.REJECT_UNKNOWN_TENANT
    assert stale["status"] == "rejected"
    assert stale["code"] == protocol.REJECT_BAD_SEQ
    assert bogus["status"] == "error"
    assert accounted


def test_open_naming_a_foreign_backend_is_rejected_before_the_spool(
        tmp_path):
    """Only the one predictor implementation may be named.  A rejected
    open must leave no spool behind, so the tenant name stays usable;
    older clients that send ``"object"`` keep working."""
    tenant_dir = TenantPaths(tmp_path / "spool", "t1").directory

    async def body(server, client):
        foreign = await client.call("open", tenant="t1", config="z15",
                                    backend="array")
        left_spool = tenant_dir.exists()
        plain = await client.open("t1")
        legacy = await client.call("open", tenant="t2", config="z15",
                                   backend="object")
        return foreign, left_spool, plain, legacy

    foreign, left_spool, plain, legacy = _run(
        _with_server(tmp_path, _options(), body))
    assert foreign["status"] == "error"
    assert "invalid backend 'array'" in foreign["detail"]
    assert not left_spool
    assert plain["status"] == "ok"
    assert not plain["recovered"]
    assert legacy["status"] == "ok"


def test_shard_kill_recovers_from_journal_exactly(tmp_path):
    plan = TenantPlan("t0", workload="services", seed=4, branches=120,
                      batch_size=30)

    async def body(server, client):
        await client.open("t0")
        batches = plan.batches()
        fingerprint = protocol.GENESIS_FINGERPRINT
        for seq, rows in enumerate(batches):
            if seq == 2:
                await client.chaos(mode="kill", shard=0)
            for _attempt in range(200):
                response = await client.predict("t0", seq, rows)
                if response["status"] == "ok":
                    break
                assert response["status"] == "retry" or (
                    response["status"] == "rejected"
                    and response["code"] == protocol.REJECT_UNKNOWN_TENANT
                ), response
                if response.get("code") == protocol.REJECT_UNKNOWN_TENANT:
                    await client.open("t0")
                await asyncio.sleep(0.02)
            assert response["status"] == "ok", response
            fingerprint = protocol.fold_fingerprint(fingerprint,
                                                    response["records"])
        return response, fingerprint, server.metrics.restarts

    response, fingerprint, restarts = _run(
        _with_server(tmp_path, _options(), body))
    assert restarts >= 1
    # Chains agree with each other AND with the uninterrupted oracle:
    # the kill cost latency, never a byte of the stream.
    assert response["fingerprint"] == fingerprint
    assert fingerprint == reference_fingerprint(plan)["fingerprint"]


def test_queue_depth_backpressure_rejects_then_drains(tmp_path):
    plan = TenantPlan("t0", workload="correlated", seed=6, branches=240,
                      batch_size=20, burst=12)

    async def body(server, client):
        report = await LoadGenerator(
            "127.0.0.1", server.port).run([plan])
        return report, server.metrics.to_dict()

    report, metrics = _run(_with_server(
        tmp_path, _options(queue_depth=2, shed_highwater=4), body))
    assert report["complete"]
    assert report["chains_agree"]
    rejected = metrics["rejected"].get("queue-full", 0) + \
        metrics["rejected"].get("shed", 0)
    assert rejected > 0
    assert metrics["accounted"]


def test_lru_eviction_under_warm_cap_still_serves_exact_chains(tmp_path):
    plans = [
        TenantPlan(f"t{i}", workload="transactions", seed=10 + i,
                   branches=60, batch_size=20)
        for i in range(3)
    ]

    async def body(server, client):
        report = await LoadGenerator(
            "127.0.0.1", server.port).run(plans)
        return report, server.metrics.to_dict()

    report, metrics = _run(_with_server(
        tmp_path, _options(warm_tenants=1), body))
    assert report["complete"]
    assert report["chains_agree"]
    assert metrics["evictions"] > 0
    assert metrics["restores"] > 0
    assert metrics["accounted"]


def test_final_manifest_accounts_for_the_run(tmp_path):
    plan = TenantPlan("t0", workload="patterned", seed=3, branches=60,
                      batch_size=30)

    async def body(server, client):
        await client.open("t0")
        for seq, rows in enumerate(plan.batches()):
            response = await client.predict("t0", seq, rows)
            assert response["status"] == "ok"
        return None

    async def run():
        server = PredictorServer(tmp_path / "spool", _options())
        await server.start()
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            await body(server, client)
        finally:
            await client.aclose()
        return await server.stop(reason="test-shutdown")

    manifest = _run(run())
    assert manifest["kind"] == "serve"
    assert manifest["serve"]["reason"] == "test-shutdown"
    assert manifest["serve"]["metrics"]["answered"] == 2
    assert manifest["serve"]["metrics"]["accounted"]
    assert (tmp_path / "spool" / "manifest.json").exists()
    assert (tmp_path / "spool" / "events.jsonl").exists()
