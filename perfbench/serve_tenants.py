"""``serve-tenants``: two ``transactions`` tenants against
``python -m repro serve --shards 2``.

One process drives both tenants over two connections.  Phase one is a
closed loop (each client waits for a reply before sending its next
batch) and gives throughput.  Phase two is an open loop: batches are
due on a fixed schedule whether or not earlier ones were answered, and
each latency is timed from when its batch was due.  Shards compute on
the reference ``predict_and_resolve`` path, so most of the time goes to
protocol, journal fsync, snapshot pickling, shard IPC and queueing; a
faster fast-mode kernel should leave this workload unchanged.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ServeError
from repro.configs import z15_config
from repro.core.predictor import LookaheadBranchPredictor
from repro.serve import (
    GENESIS_FINGERPRINT,
    JournalWriter,
    ServeClient,
    TenantPlan,
    compute_batch,
    decode_branch,
    decode_message,
    encode_branch,
    encode_message,
    fold_fingerprint,
    reference_fingerprint,
    write_snapshot,
)
from repro.serve.journal import journal_header
from repro.stats import RunStats
from repro.workloads import Executor, get_workload

from perfbench import layers
from perfbench.harness import (
    REJECT_CODES,
    RESULTS_DIR,
    ROOT,
    Tracer,
    WorkloadResult,
    empty_layers,
    median,
    peak_rss_mb,
    percentile,
    span,
)
from perfbench.hostclock import HostClock

WORKLOAD = "transactions"
TENANTS = 2
SHARDS = 2
BATCH = 64
#: Snapshot period in batches per tenant (``--checkpoint-every``; the
#: server's default is 4).  A snapshot batch takes ~45 ms and the
#: tenant's next batch ~18 ms, against ~9 ms for the rest.  At 4 those
#: two kinds are half of all batches, so p50 falls on the edge between
#: ~9 and ~18 ms and swings between runs; at 8 it sits among the fast
#: batches, and p99 among the snapshot batches.
CHECKPOINT_EVERY = 8
#: Outstanding batches per tenant the server admits (its default
#: ``--queue-depth``).  The open-loop client never has more in flight,
#: so a stall queues batches client-side instead of drawing queue-full
#: rejections and out-of-order resends.
QUEUE_DEPTH = 8
#: Open-loop arrival rate in batches/s over all tenants: a quarter to a
#: third of the closed-loop capacity on a 2-core box (130-170 batches/s,
#: depending on how busy the host is).  At 64/s, runs on a slowed host
#: fell into sustained queueing and p99 jumped from ~90 ms to ~500 ms.
OPEN_RATE = 40.0
SIZES = {
    # boots: server start-ups per run (set-up is their median);
    # closed_per_s: closed-loop batches per tenant per second of
    # --seconds (about half of --seconds on a 2-core box);
    # min_open: open-loop batches (>= 1000 leaves 10 samples past p99);
    # probe_batches: batches replayed by the offline layer probes.
    "full": {"boots": 5, "closed_per_s": 40, "min_open": 1000,
             "probe_batches": 400, "cycle": 8000},
    "small": {"boots": 1, "closed_per_s": 5, "min_open": 20,
              "probe_batches": 8, "cycle": 500},
}
#: Rejections a client resends after a short back-off.
RETRYABLE = ("queue-full", "shed", "deadline", "bad-seq")
MAX_ATTEMPTS = 200
BACKOFF_S = 0.01
BOOT_TIMEOUT_S = 60.0


@dataclass
class TenantInput:
    """One tenant's generated traffic: wire batches plus the executed
    instruction count at the end of each batch (for MPKI)."""

    tenant: str
    seed: int
    batches: List[list]
    instructions: List[int]


def make_inputs(seed: int, batches: int) -> List[TenantInput]:
    inputs = []
    for index in range(TENANTS):
        tenant_seed = seed + index
        executor = Executor(get_workload(WORKLOAD, tenant_seed),
                            seed=tenant_seed)
        rows, ends, batch = [], [], []
        for branch in executor.run(max_branches=batches * BATCH):
            batch.append(encode_branch(branch))
            if len(batch) == BATCH:
                rows.append(batch)
                ends.append(executor.instructions_executed)
                batch = []
        inputs.append(TenantInput(f"tenant-{index}", tenant_seed, rows, ends))
    return inputs


class ServerProcess:
    """``python -m repro serve`` on a fresh spool, stopped by SIGTERM."""

    def __init__(self, spool: Path):
        self.spool = spool
        shutil.rmtree(spool, ignore_errors=True)
        spool.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        self.log_path = spool.parent / f"{spool.name}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--shards", str(SHARDS), "--spool", str(spool), "--port", "0",
             "--checkpoint-every", str(CHECKPOINT_EVERY),
             "--queue-depth", str(QUEUE_DEPTH)],
            stdout=subprocess.PIPE, stderr=self._log, env=env, text=True,
            cwd=ROOT)
        line = ""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        if ready:
            line = self.proc.stdout.readline()
        match = re.search(r"serving on (\S+):(\d+) ", line)
        if match is None:
            self.stop()
            raise ServeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> str:
        """Drain the server; returns the rest of its stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self._log.close()
        if self.proc.returncode == -signal.SIGTERM or \
                self.proc.returncode == 128 + signal.SIGTERM:
            # A clean drain: the spool and the stderr log are not needed.
            self.log_path.unlink()
        shutil.rmtree(self.spool, ignore_errors=True)
        return out


@dataclass
class Traffic:
    """What the client side saw across both phases."""

    records: List[Dict[int, list]] = field(
        default_factory=lambda: [{} for _ in range(TENANTS)])
    server_fingerprint: List[Optional[str]] = field(
        default_factory=lambda: [None] * TENANTS)
    sent: int = 0
    unanswered: int = 0
    rejected: Dict[str, int] = field(
        default_factory=lambda: {code: 0 for code in REJECT_CODES})
    retries: int = 0
    closed_rtt: List[float] = field(default_factory=list)
    closed_batches: int = 0
    #: Start and end stamps of the closed loop, and its seconds scaled
    #: to the reference host speed.
    closed_span: Tuple[float, float] = (0.0, 0.0)
    closed_wall: float = 0.0
    #: (due, answered) stamps of each open-loop batch, and its latency
    #: in seconds scaled to the reference host speed.
    open_spans: List[Tuple[float, float]] = field(default_factory=list)
    open_latency: List[float] = field(default_factory=list)
    #: Mean spin time over the reference during the two phases.
    slowdown: float = 1.0
    open_lag: List[float] = field(default_factory=list)
    ledger_accounted: bool = False
    final_line: str = ""


async def _predict(client: ServeClient, traffic: Traffic, index: int,
                   tenant: str, seq: int, rows: list) -> None:
    """Send one batch until it is answered; store its records."""
    traffic.sent += 1
    for attempt in range(MAX_ATTEMPTS):
        response = await client.predict(tenant, seq, rows)
        status = response.get("status")
        if status == "ok":
            traffic.records[index][seq] = response["records"]
            if seq == max(traffic.records[index]):
                traffic.server_fingerprint[index] = response["fingerprint"]
            return
        code = response.get("code")
        if status == "rejected":
            traffic.rejected[code] = traffic.rejected.get(code, 0) + 1
        if status == "retry":
            traffic.retries += 1
        elif status != "rejected" or code not in RETRYABLE:
            traffic.unanswered += 1
            return
        await asyncio.sleep(BACKOFF_S * min(attempt + 1, 10))
    traffic.unanswered += 1


async def _closed_loop(clients, inputs, traffic, count, tracer):
    async def one(index: int) -> int:
        client, tenant = clients[index], inputs[index]
        seq = 0
        while seq < closed_end(count, index):
            start = time.perf_counter()
            await _predict(client, traffic, index, tenant.tenant, seq,
                           tenant.batches[seq])
            end = time.perf_counter()
            if seq not in traffic.records[index]:
                break
            traffic.closed_rtt.append(end - start)
            if tracer is not None:
                tracer.record("serve.predict", start, end)
            seq += 1
        return seq

    start = time.perf_counter()
    counts = await asyncio.gather(*(one(i) for i in range(TENANTS)))
    traffic.closed_span = (start, time.perf_counter())
    traffic.closed_batches = sum(counts)
    return counts


async def _open_loop(clients, inputs, traffic, first_seq, count, tracer):
    next_seq = list(first_seq)
    windows = [asyncio.Semaphore(QUEUE_DEPTH) for _ in range(TENANTS)]
    tasks = []

    async def one(index: int, seq: int, due: float) -> None:
        async with windows[index]:
            await _predict(clients[index], traffic, index,
                           inputs[index].tenant, seq,
                           inputs[index].batches[seq])
        end = time.perf_counter()
        if seq in traffic.records[index]:
            traffic.open_spans.append((due, end))
            if tracer is not None:
                tracer.record("serve.predict.open", due, end)

    origin = time.perf_counter() + 0.01
    for j in range(count):
        # Waves: one batch per tenant, all due at the same instant.
        index = j % TENANTS
        due = origin + (j // TENANTS) * TENANTS / OPEN_RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        traffic.open_lag.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(one(index, next_seq[index], due)))
        next_seq[index] += 1
    await asyncio.gather(*tasks)


def closed_batches(seconds: float, size: str) -> int:
    """Closed-loop batches per tenant.  A fixed count, not a time
    limit: snapshots grow along a tenant's stream (from ~15 ms to ~65 ms
    over its first 2,000 batches), so the open loop must start at the
    same place in the stream on every run."""
    return math.ceil(SIZES[size]["closed_per_s"] * seconds)


def closed_end(count: int, index: int) -> int:
    """Where tenant *index*'s closed loop stops: staggered by half a
    snapshot period, so the tenants' snapshots never share a wave."""
    return count + index * CHECKPOINT_EVERY // TENANTS


def open_batches(seconds: float, size: str) -> int:
    return max(SIZES[size]["min_open"], math.ceil(OPEN_RATE * seconds / 2))


async def _boot(spool: Path, inputs) -> tuple:
    server = ServerProcess(spool)
    clients = []
    try:
        for tenant in inputs:
            client = await ServeClient.connect(server.host, server.port)
            clients.append(client)
            response = await client.open(tenant.tenant)
            if response.get("status") != "ok":
                raise ServeError(f"open {tenant.tenant}: {response}")
    except BaseException:
        await _shutdown(server, clients)
        raise
    return server, clients


async def _shutdown(server: ServerProcess, clients) -> str:
    for client in clients:
        await client.aclose()
    return server.stop()


async def _drive(inputs, seconds, size, tracer, tag) -> tuple:
    """Boot (several times, for the set-up median), then run both
    phases against the last server."""
    plan = SIZES[size]
    boots = []
    traffic = Traffic()
    with HostClock() as clock:
        for boot in range(plan["boots"]):
            start = time.perf_counter()
            with span(tracer, "serve.boot"):
                server, clients = await _boot(
                    RESULTS_DIR / f"spool-{os.getpid()}-{tag}-{boot}",
                    inputs)
            boots.append((start, time.perf_counter()))
            if boot < plan["boots"] - 1:
                await _shutdown(server, clients)
        try:
            counts = await _closed_loop(clients, inputs, traffic,
                                        closed_batches(seconds, size),
                                        tracer)
            open_count = open_batches(seconds, size)
            await _open_loop(clients, inputs, traffic, counts, open_count,
                             tracer)
            metrics = await clients[0].metrics()
            traffic.ledger_accounted = bool(
                metrics.get("metrics", {}).get("accounted"))
        finally:
            out = await _shutdown(server, clients)
    traffic.final_line = out.strip().splitlines()[-1] if out.strip() else ""
    traffic.closed_wall = clock.scaled(*traffic.closed_span)
    traffic.slowdown = clock.slowdown(traffic.closed_span[0])
    traffic.open_latency = [clock.scaled(due, end)
                            for due, end in traffic.open_spans]
    return traffic, [clock.scaled(start, end) for start, end in boots]


def answered_prefix(records: Dict[int, list]) -> int:
    count = 0
    while count in records:
        count += 1
    return count


def client_chain(records: Dict[int, list], count: int) -> str:
    fingerprint = GENESIS_FINGERPRINT
    for seq in range(count):
        fingerprint = fold_fingerprint(fingerprint, records[seq])
    return fingerprint


def oracle_chains(inputs: Sequence[TenantInput],
                  counts: Sequence[int]) -> List[str]:
    """``reference_fingerprint`` of each tenant's answered prefix: the
    uninterrupted local replay, no server involved."""
    return [reference_fingerprint(TenantPlan(
                tenant.tenant, WORKLOAD, tenant.seed, count * BATCH, BATCH)
            )["fingerprint"]
            for tenant, count in zip(inputs, counts)]


def count_failures(traffic: Traffic, oracle: Sequence[str]) -> int:
    """Unanswered batches, plus one per tenant whose client chain
    differs from the oracle or from the server's chain, plus one for an
    unbalanced ledger or an unclean server stop."""
    failed = traffic.unanswered
    for index, records in enumerate(traffic.records):
        chain = client_chain(records, answered_prefix(records))
        failed += chain != oracle[index]
        failed += chain != traffic.server_fingerprint[index]
    failed += not traffic.ledger_accounted
    failed += "accounted=True" not in traffic.final_line
    return failed


def served_mpki(traffic: Traffic, inputs: Sequence[TenantInput]) -> float:
    mispredicts = instructions = 0
    for records, tenant in zip(traffic.records, inputs):
        count = answered_prefix(records)
        mispredicts += sum(row[3] for seq in range(count)
                           for row in records[seq])
        instructions += tenant.instructions[count - 1] if count else 0
    return 1000.0 * mispredicts / instructions


def run(seed: int, seconds: float, trace: bool,
        size: str = "full") -> WorkloadResult:
    plan = SIZES[size]
    inputs = make_inputs(seed, closed_end(closed_batches(seconds, size),
                                          TENANTS - 1)
                         + math.ceil(open_batches(seconds, size) / TENANTS))
    # The inputs live for the whole run: keep the collector from
    # rescanning them while the client drives traffic.
    gc.freeze()
    passes = [asyncio.run(_drive(inputs, seconds, size, None, "base"))]
    tracer = None
    if trace:
        tracer = Tracer()
        passes.append(asyncio.run(_drive(inputs, seconds, size, tracer,
                                         "traced")))
    result = WorkloadResult(tracer=tracer)
    for traffic, _ in passes:
        counts = [answered_prefix(records) for records in traffic.records]
        result.attempted += traffic.sent
        result.failed += count_failures(traffic, oracle_chains(inputs,
                                                               counts))
    traffic, setups = passes[0]
    cycle_stats, _ = layers.cycle_run(WORKLOAD, seed, z15_config(),
                                      plan["cycle"])
    latency_ms = [value * 1e3 for value in traffic.open_latency]
    result.metrics = {
        "branches_per_s": traffic.closed_batches * BATCH
        / traffic.closed_wall,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_p99_ms": percentile(latency_ms, 99),
        "mpki": served_mpki(traffic, inputs),
        "ipc": cycle_stats.ipc,
    }
    result.details = {
        "closed_batches": traffic.closed_batches,
        "closed_wall_s": traffic.closed_span[1] - traffic.closed_span[0],
        "host_slowdown": traffic.slowdown,
        "open_batches": len(traffic.open_latency),
        "open_rate_batches_per_s": OPEN_RATE,
        "batch_branches": BATCH,
        "boots": len(setups),
        "rejected": traffic.rejected,
        "retries": traffic.retries,
        "unanswered": traffic.unanswered,
        "server_final_line": traffic.final_line,
        "oracle": "reference_fingerprint of each tenant's answered prefix",
    }
    if trace:
        result.layers = _layers(seed, size, inputs, passes, tracer)
    return result


def offline_batches(tenant: TenantInput, count: int, directory: Path):
    """Replay *count* batches through the serve layers one by one, in
    the server's order: decode, journal, compute, fold + reply codec,
    and a snapshot every ``CHECKPOINT_EVERY`` batches."""
    directory.mkdir(parents=True, exist_ok=True)
    journal = JournalWriter(directory / "journal.jsonl",
                            journal_header(tenant.tenant, "z15", "object"))
    predictor = LookaheadBranchPredictor(z15_config())
    stats = RunStats()
    fingerprint = GENESIS_FINGERPRINT
    needs_restart = True
    timings: Dict[str, List[float]] = {"compute": [], "journal": [],
                                       "codec": [], "snapshot": []}
    clock = time.perf_counter
    try:
        for seq, rows in enumerate(tenant.batches[:count]):
            t0 = clock()
            request = encode_message({"op": "predict", "id": seq,
                                      "tenant": tenant.tenant, "seq": seq,
                                      "branches": rows})
            branches = [decode_branch(row)
                        for row in decode_message(request)["branches"]]
            t1 = clock()
            journal.append({"type": "batch", "seq": seq, "branches": rows})
            t2 = clock()
            records, needs_restart = compute_batch(predictor, stats,
                                                   branches, needs_restart)
            t3 = clock()
            fingerprint = fold_fingerprint(fingerprint, records)
            decode_message(encode_message({
                "id": seq, "status": "ok", "seq": seq, "records": records,
                "fingerprint": fingerprint, "next_seq": seq + 1,
                "cached": False, "restored": False}))
            t4 = clock()
            timings["codec"].append((t1 - t0) + (t4 - t3))
            timings["journal"].append(t2 - t1)
            timings["compute"].append(t3 - t2)
            if (seq + 1) % CHECKPOINT_EVERY == 0:
                t5 = clock()
                write_snapshot(directory / "snapshot.pickle", {
                    "tenant": tenant.tenant, "config": "z15",
                    "backend": "object", "seq": seq + 1,
                    "fingerprint": fingerprint, "predictor": predictor,
                    "stats": stats, "needs_restart": needs_restart,
                    "last_response": None})
                timings["snapshot"].append(clock() - t5)
    finally:
        journal.close()
        shutil.rmtree(directory, ignore_errors=True)
    return {name: [value * 1e3 for value in values]
            for name, values in timings.items()}


def _layers(seed, size, inputs, passes, tracer):
    plan = SIZES[size]
    (base, _), (traced, _) = passes
    tenant = inputs[0]
    count = min(plan["probe_batches"], len(tenant.batches))
    offline = offline_batches(tenant, count,
                              RESULTS_DIR / f"offline-{os.getpid()}")
    stream = [decode_branch(row) for rows in tenant.batches[:count]
              for row in rows]
    call_ns, predictor = layers.predict_call_ns(z15_config(), stream)
    _, build_s = layers.build_program(WORKLOAD, seed)
    recorded, executor_ns = layers.record_stream(WORKLOAD, seed,
                                                 count * BATCH)
    rtt_ms = [value * 1e3 for value in traced.closed_rtt]
    compute, journal, codec, snapshot = (offline["compute"],
                                         offline["journal"],
                                         offline["codec"],
                                         offline["snapshot"])

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    explained = (mean(compute) + mean(journal) + mean(codec)
                 + sum(snapshot) / max(1, len(compute)))
    base_rate = base.closed_batches / base.closed_wall
    traced_rate = traced.closed_batches / traced.closed_wall
    values = empty_layers()
    values.update({
        "workloads.build_s": (build_s, 1),
        "workloads.executor_ns_per_branch": (executor_ns, len(recorded)),
        "serve.rtt_ms.p50": (percentile(rtt_ms, 50), len(rtt_ms)),
        "serve.rtt_ms.p99": (percentile(rtt_ms, 99), len(rtt_ms)),
        "serve.compute_batch_ms.p50": (percentile(compute, 50),
                                       len(compute)),
        "serve.compute_batch_ms.p99": (percentile(compute, 99),
                                       len(compute)),
        "serve.journal_append_ms.p50": (percentile(journal, 50),
                                        len(journal)),
        "serve.journal_append_ms.p99": (percentile(journal, 99),
                                        len(journal)),
        "serve.snapshot_ms.p50": (percentile(snapshot, 50), len(snapshot)),
        "serve.snapshot_ms.p99": (percentile(snapshot, 99), len(snapshot)),
        "serve.codec_ms.p50": (percentile(codec, 50), len(codec)),
        "serve.residual_ms.p50": (
            percentile(rtt_ms, 50) - percentile(compute, 50)
            - percentile(journal, 50) - percentile(codec, 50), len(rtt_ms)),
        **{f"serve.rejected.{code}": (traced.rejected[code], traced.sent)
           for code in REJECT_CODES},
        "serve.retries": (traced.retries, traced.sent),
        "serve.ledger_accounted": (float(traced.ledger_accounted), 1),
        "loadgen.lag_ms.p99": (percentile([v * 1e3 for v in traced.open_lag],
                                          99), len(traced.open_lag)),
        "trace.overhead_frac": (base_rate / traced_rate - 1.0, 1),
        # The share of the closed-loop round trip the offline layer
        # costs do not explain: shard IPC, queueing and the event loop.
        "unaccounted_frac": (1.0 - explained / mean(rtt_ms), len(rtt_ms)),
    })
    values.update(layers.core_layers(predictor.component_counters(),
                                     call_ns, 1))
    return values
