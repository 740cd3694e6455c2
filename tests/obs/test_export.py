"""OpenMetrics export: rendering, parsing, round trips and rollups."""

import pytest

from repro.obs.export import (
    OpenMetricsError,
    metric_name,
    parse_openmetrics,
    rollup_results,
    to_canonical_json,
    to_openmetrics,
)
from repro.obs.telemetry import Telemetry


def sample_registry(scale=1):
    telemetry = Telemetry()
    telemetry.inc("btb1.hits", 40 * scale)
    telemetry.inc("btb1.misses", 3 * scale)
    telemetry.set_gauge("gpq.occupancy", 5.0 * scale)
    for value in (1.0, 2.0, 40.0):
        telemetry.observe("gpq.occupancy", value * scale)
    return telemetry


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("btb1.hit_rate") == "btb1_hit_rate"

    def test_leading_digit_prefixed(self):
        assert metric_name("2nd.level")[0].isalpha() or \
            metric_name("2nd.level")[0] == "_"

    def test_hostile_characters_sanitised(self):
        assert '"' not in metric_name('x."quoted"{}')


class TestRender:
    def test_counter_families_take_total_suffix(self):
        text = to_openmetrics(sample_registry())
        assert "# TYPE btb1_hits counter" in text
        assert "btb1_hits_total 40" in text

    def test_histogram_families_take_dist_suffix(self):
        # A histogram may share its dotted name with a gauge (the
        # registry allows it); the _dist suffix keeps the families
        # from colliding.
        text = to_openmetrics(sample_registry())
        assert "# TYPE gpq_occupancy gauge" in text
        assert "# TYPE gpq_occupancy_dist histogram" in text
        assert 'gpq_occupancy_dist_bucket{le="+Inf"} 3' in text
        assert "gpq_occupancy_dist_count 3" in text

    def test_help_line_carries_dotted_name(self):
        text = to_openmetrics(sample_registry())
        assert "# HELP btb1_hits instrument btb1.hits" in text

    def test_document_is_eof_terminated(self):
        assert to_openmetrics(sample_registry()).endswith("# EOF\n")

    def test_groups_share_families_split_by_labels(self):
        groups = [
            ((("engine_mode", "reference"),), sample_registry(1)),
            ((("engine_mode", "fast"),), sample_registry(2)),
        ]
        text = to_openmetrics(groups)
        assert text.count("# TYPE btb1_hits counter") == 1
        assert 'btb1_hits_total{engine_mode="fast"} 80' in text
        assert 'btb1_hits_total{engine_mode="reference"} 40' in text

    def test_accepts_payload_dicts(self):
        payload = sample_registry().to_dict()
        assert to_openmetrics(payload) == to_openmetrics(sample_registry())

    def test_deterministic_output(self):
        assert to_openmetrics(sample_registry()) == \
            to_openmetrics(sample_registry())


class TestRoundTrip:
    def test_single_registry_round_trips(self):
        text = to_openmetrics(sample_registry())
        assert to_openmetrics(parse_openmetrics(text)) == text

    def test_grouped_registries_round_trip(self):
        groups = [
            ((("engine_mode", "reference"), ("workload", "transactions")),
             sample_registry(1)),
            ((("engine_mode", "fast"), ("workload", "transactions")),
             sample_registry(3)),
        ]
        text = to_openmetrics(groups)
        assert to_openmetrics(parse_openmetrics(text)) == text

    def test_parsed_values_match(self):
        parsed = parse_openmetrics(to_openmetrics(sample_registry()))
        ((labels, telemetry),) = parsed
        assert labels == ()
        assert telemetry.counters["btb1.hits"].value == 40
        assert telemetry.gauges["gpq.occupancy"].value == 5.0
        assert telemetry.histograms["gpq.occupancy"].count == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("btb1_hits_total not-a-number\n# EOF\n")

    def test_hostile_label_values_round_trip(self):
        # Quotes, backslashes, closing braces, spaces and newlines in a
        # label value must survive render -> parse exactly.
        groups = [((("workload", 'a"b\\c}d e\nf'),), sample_registry())]
        text = to_openmetrics(groups)
        ((labels, _),) = parse_openmetrics(text)
        assert labels == (("workload", 'a"b\\c}d e\nf'),)
        assert to_openmetrics(parse_openmetrics(text)) == text


class TestCanonicalJson:
    def test_single_registry_exports_to_dict(self):
        import json

        payload = json.loads(to_canonical_json(sample_registry()))
        assert payload == sample_registry().to_dict()

    def test_groups_export_labelled_list(self):
        import json

        groups = [((("engine_mode", "fast"),), sample_registry())]
        payload = json.loads(to_canonical_json(groups))
        assert payload["groups"][0]["labels"] == {"engine_mode": "fast"}


class FakeCell:
    def __init__(self, engine_mode, workload):
        self.engine_mode = engine_mode
        self.workload = workload


class FakeResult:
    def __init__(self, telemetry):
        self.telemetry = telemetry


class TestRollup:
    def test_groups_by_mode_workload_plus_total(self):
        cells = [
            FakeCell("reference", "transactions"),
            FakeCell("reference", "transactions"),
            FakeCell("fast", "dispatch"),
        ]
        results = [
            FakeResult(sample_registry(1).to_dict()),
            FakeResult(sample_registry(1).to_dict()),
            FakeResult(sample_registry(2).to_dict()),
        ]
        rollup = rollup_results(cells, results)
        labels = [dict(group_labels) for group_labels, _ in rollup]
        assert {"engine_mode": "reference",
                "workload": "transactions"} in labels
        assert {} in labels  # the grand total
        by_labels = {group_labels: telemetry
                     for group_labels, telemetry in rollup}
        merged = by_labels[(("engine_mode", "reference"),
                            ("workload", "transactions"))]
        assert merged.counters["btb1.hits"].value == 80
        assert by_labels[()].counters["btb1.hits"].value == 160

    def test_cells_without_telemetry_are_skipped(self):
        cells = [FakeCell("reference", "transactions")]
        assert rollup_results(cells, [FakeResult(None)]) == []

    def test_program_valued_workload_labelled_by_name(self):
        # Fleet cells carry materialised Programs, not suite names; the
        # label must be the program's name, never the object repr.
        class FakeProgram:
            name = "patterns"

        cells = [FakeCell("reference", FakeProgram())]
        ((labels, _), _total) = rollup_results(
            cells, [FakeResult(sample_registry().to_dict())])
        assert ("workload", "patterns") in labels
