"""Self-test of the benchmark at a small size.

Run with ``python -m pytest perfbench/tests`` from the repository root
(about two minutes: every workload runs end to end, traced and not).
"""

import asyncio
import dataclasses
import json
import subprocess
import sys

import pytest

from perfbench import fleet_btb1, run_btb2, serve_tenants
from perfbench.harness import END_TO_END, PER_LAYER, ROOT
from perfbench.hostclock import NOMINAL_SPIN_S, HostClock

WORKLOADS = ("run-btb2", "fleet-btb1", "serve-tenants")


def _run(workload, trace):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines[:-1]), name
    stem = f"{workload}-seed3-trace{trace}"
    saved = json.loads(
        (ROOT / "perfbench" / "results" / f"{stem}.json").read_text())
    assert {"cpu_count", "python", "commit"} <= set(saved["manifest"])
    if trace:
        assert (ROOT / "perfbench" / "results"
                / f"{stem}.spans.jsonl").exists()


def test_host_clock_scales_to_the_reference_speed():
    clock = HostClock()
    clock.starts = [i * 0.02 for i in range(100)]
    clock.spins = [2 * NOMINAL_SPIN_S] * 100
    clock.spins[50] = 40 * NOMINAL_SPIN_S  # preempted: not in the mean
    # A host at half the reference speed: the region, less its spins,
    # took twice as long as it would have at the reference speed.
    inside = sum(clock.spins)
    assert clock.scaled(0.0, 1.99) == pytest.approx((1.99 - inside) / 2)
    assert clock.slowdown() == pytest.approx(2.0)
    # A region holding no spin takes the spins around it.
    assert clock.scaled(0.501, 0.5011) == pytest.approx(0.0001 / 2)


def test_two_repetitions_at_one_seed_agree():
    # Each repetition builds a fresh Program: re-running an Executor
    # over an already-executed Program yields a different stream.
    first, second = run_btb2.measure(7, 0, "small") + \
        run_btb2.measure(7, 0, "small")
    assert first.stats == second.stats
    inputs = serve_tenants.make_inputs(7, 4)
    assert [t.batches for t in inputs] == \
        [t.batches for t in serve_tenants.make_inputs(7, 4)]


def test_a_wrong_fleet_cell_digest_counts_as_failed():
    cells = fleet_btb1.make_cells(3, "small", "fast")
    with HostClock() as clock:
        rows = fleet_btb1.sweep(cells, None, clock).results
    expected = fleet_btb1.expected_rows(3, "small")
    assert fleet_btb1.count_failures(rows, expected) == 0
    rows[5] = dataclasses.replace(rows[5], fingerprint="0" * 64)
    assert fleet_btb1.count_failures(rows, expected) == 1


def test_a_flipped_serve_record_counts_as_failed():
    inputs = serve_tenants.make_inputs(3, 40)
    traffic, _ = asyncio.run(
        serve_tenants._drive(inputs, 1.0, "small", None, "selftest"))
    counts = [serve_tenants.answered_prefix(r) for r in traffic.records]
    oracle = serve_tenants.oracle_chains(inputs, counts)
    assert serve_tenants.count_failures(traffic, oracle) == 0
    record = traffic.records[0][2][5]
    record[1] ^= 1  # flip the predicted direction of one branch
    assert serve_tenants.count_failures(traffic, oracle) >= 1
