"""The report observatory: history, classification, trends, dashboard."""

import json

import pytest

from repro.obs.manifest import build_manifest
from repro.obs.observatory import (
    HISTORY_SCHEMA,
    ObservatoryError,
    append_history,
    classify_artifact,
    collect_artifacts,
    fleet_metrics,
    history_row,
    load_history,
    render_dashboard,
    single_run_rows,
    throughput_metrics,
    trend_deltas,
)

THROUGHPUT = {
    "schema": "repro-throughput/v4",
    "engine_mode": "reference",
    "cpu_count": 4,
    "grid": {"cells": 8},
    "sequential": {"wall_seconds": 1.0, "branches_per_second": 10_000.0},
    "parallel": {"workers": 2, "wall_seconds": 0.5,
                 "branches_per_second": 20_000.0},
    "speedup": 2.0,
    "equivalent": True,
    "workloads": {},
    "single_run": {
        "transactions": {
            "reference": {"branches_per_second": 30_000.0},
            "fast": {"branches_per_second": 45_000.0},
        },
    },
}

FLEET = {
    "schema": "repro-fleet/v1",
    "cpu_count": 4,
    "grid": {"cells": 16},
    "sequential": {"wall_seconds": 2.0, "branches_per_second": 8_000.0},
    "parallel": {"workers": 2, "wall_seconds": 1.0,
                 "branches_per_second": 16_000.0, "pool_breaks": 0,
                 "chunks_dispatched": 4, "chunk_size": 4,
                 "phase_latency": {}},
    "speedup": 2.0,
    "equivalent": True,
    "failed_cells": 0,
    "rollups": {
        "by_engine_mode": {
            "reference": {"branches": 800, "branches_per_second": 9_000.0},
            "fast": {"branches": 800, "branches_per_second": 11_000.0},
        },
        "by_workload": {
            "transactions": {"branches": 1600,
                             "branches_per_second": 10_000.0},
        },
    },
}


def scaled(payload, factor):
    clone = json.loads(json.dumps(payload))

    def walk(node):
        for key, value in node.items():
            if isinstance(value, dict):
                walk(value)
            elif key == "branches_per_second":
                node[key] = value * factor
    walk(clone)
    return clone


class TestMetrics:
    def test_throughput_metrics_flatten(self):
        metrics = throughput_metrics(THROUGHPUT)
        assert metrics["sweep.sequential.bps"] == 10_000.0
        assert metrics["sweep.speedup"] == 2.0
        assert metrics["single.transactions.fast.bps"] == 45_000.0

    def test_single_run_rows_read_every_schema(self):
        """v4 nests per engine mode; v1-v3 artifacts carry a backend
        level whose object rows are kept and array rows dropped."""
        v4 = THROUGHPUT["single_run"]["transactions"]
        v3 = {"object": v4, "array": {
            "reference": {"branches_per_second": 1.0},
            "fast": {"branches_per_second": 2.0}}}
        v2 = {"object": v4["reference"], "array": v4["fast"]}
        v1 = v4["reference"]
        expected = {("transactions", "reference", 30_000.0),
                    ("transactions", "fast", 45_000.0)}
        assert set(single_run_rows(THROUGHPUT)) == expected
        assert set(single_run_rows(
            {"single_run": {"transactions": v3}})) == expected
        assert single_run_rows({"single_run": {"transactions": v2}}) == [
            ("transactions", "reference", 30_000.0)]
        assert single_run_rows({"single_run": {"transactions": v1}}) == [
            ("transactions", "reference", 30_000.0)]

    def test_fleet_metrics_flatten_rollups(self):
        metrics = fleet_metrics(FLEET)
        assert metrics["fleet.parallel.bps"] == 16_000.0
        assert metrics["fleet.engine_mode.fast.bps"] == 11_000.0
        assert metrics["fleet.workload.transactions.bps"] == 10_000.0


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        manifest = build_manifest("bench")
        append_history(path, history_row(
            "throughput", throughput_metrics(THROUGHPUT),
            manifest=manifest, label="nightly"))
        (row,) = load_history(path)
        assert row["schema"] == HISTORY_SCHEMA
        assert row["kind"] == "throughput"
        assert row["label"] == "nightly"
        assert row["manifest"]["kind"] == "bench"

    def test_append_rejects_unschemaed_rows(self, tmp_path):
        with pytest.raises(ObservatoryError, match="schema"):
            append_history(str(tmp_path / "h.jsonl"), {"kind": "x"})

    def test_load_drops_torn_tail(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, history_row("fleet", {"a": 1.0}))
        with open(path, "a") as stream:
            stream.write('{"schema": "repro-bench-history/v1", "kin')
        assert len(load_history(path)) == 1

    def test_load_rejects_mid_file_corruption(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        with open(path, "w") as stream:
            stream.write("{broken\n")
            stream.write(json.dumps(history_row("fleet", {"a": 1.0})) + "\n")
        with pytest.raises(ObservatoryError, match="malformed"):
            load_history(path)

    def test_trend_deltas_use_newest_pair(self, tmp_path):
        history = [
            history_row("throughput", {"x.bps": 100.0}),
            history_row("throughput", {"x.bps": 200.0}),
            history_row("fleet", {"y.bps": 1.0}),
            history_row("throughput", {"x.bps": 150.0}),
        ]
        (delta,) = trend_deltas(history, "throughput")
        metric, before, after, change = delta
        assert (metric, before, after) == ("x.bps", 200.0, 150.0)
        assert change == pytest.approx(-0.25)
        assert trend_deltas(history, "fleet") == []  # only one row


class TestClassification:
    def test_bench_json_kinds(self, tmp_path):
        throughput = tmp_path / "BENCH_throughput.json"
        throughput.write_text(json.dumps(THROUGHPUT))
        fleet = tmp_path / "BENCH_fleet.json"
        fleet.write_text(json.dumps(FLEET))
        assert classify_artifact(str(throughput)) == "throughput"
        assert classify_artifact(str(fleet)) == "fleet"

    def test_manifest_headed_stream_classifies_as_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        rows = [
            json.dumps(build_manifest("sweep")),
            json.dumps({"schema": "repro-sweep-stream/v1", "cell": {},
                        "status": "ok"}),
        ]
        path.write_text("\n".join(rows) + "\n")
        assert classify_artifact(str(path)) == "stream"

    def test_bare_manifest_classifies_as_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(build_manifest("run")))
        assert classify_artifact(str(path)) == "manifest"

    def test_unrecognised_and_binary_ignored(self, tmp_path):
        noise = tmp_path / "noise.txt"
        noise.write_text("not an artifact")
        binary = tmp_path / "blob.bin"
        binary.write_bytes(b"\x00\xff\x00\xff")
        assert classify_artifact(str(noise)) is None
        assert classify_artifact(str(binary)) is None

    def test_collect_scans_directories_one_level(self, tmp_path):
        (tmp_path / "BENCH_fleet.json").write_text(json.dumps(FLEET))
        (tmp_path / "noise.txt").write_text("noise")
        artifacts = collect_artifacts([str(tmp_path)])
        assert [kind for kind in artifacts] == ["fleet"]


class TestDashboard:
    def build_artifacts(self, tmp_path, regress=False):
        throughput = tmp_path / "BENCH_throughput.json"
        throughput.write_text(json.dumps(THROUGHPUT))
        fleet = tmp_path / "BENCH_fleet.json"
        fleet.write_text(json.dumps(FLEET))
        history = str(tmp_path / "history.jsonl")
        factor = 0.5 if regress else 1.02
        append_history(history, history_row(
            "throughput", throughput_metrics(THROUGHPUT)))
        append_history(history, history_row(
            "throughput", throughput_metrics(scaled(THROUGHPUT, factor))))
        return collect_artifacts([str(tmp_path)])

    def test_renders_sections_for_each_artifact_kind(self, tmp_path):
        text = render_dashboard(self.build_artifacts(tmp_path),
                                title="nightly observatory")
        assert text.startswith("# nightly observatory")
        assert "## Throughput" in text
        assert "## Fleet" in text
        assert "45,000" in text  # single-run table rendered

    def test_healthy_history_has_no_regression_section(self, tmp_path):
        text = render_dashboard(self.build_artifacts(tmp_path))
        assert "Regressions" not in text

    def test_regressions_highlighted(self, tmp_path):
        text = render_dashboard(self.build_artifacts(tmp_path, regress=True))
        assert "Regressions" in text
        assert "-50.0%" in text

    def test_history_alone_renders_its_trend(self, tmp_path):
        self.build_artifacts(tmp_path)
        (tmp_path / "BENCH_throughput.json").unlink()
        text = render_dashboard(collect_artifacts([str(tmp_path)]))
        assert "## Throughput" in text
        assert "Trend vs previous run" in text
        assert "single.transactions.fast.bps" in text

    def test_empty_artifact_set_renders(self):
        text = render_dashboard({})
        assert "artifacts: none" in text
