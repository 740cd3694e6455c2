"""Tests for predictor-state save/restore."""

import json

import pytest

from repro.common.errors import ReproError, StateFormatError, TraceFormatError
from repro.configs import z15_config
from repro.configs.predictor import Btb1Config, PredictorConfig
from repro.core import LookaheadBranchPredictor, load_state, save_state
from repro.core.entries import BtbEntry
from repro.core.state_io import STATE_FORMAT
from repro.engine import FunctionalEngine
from repro.isa.instructions import BranchKind
from repro.structures.saturating import TwoBitDirectionCounter
from repro.workloads import get_workload


def warmed_predictor(branches=4000):
    predictor = LookaheadBranchPredictor(z15_config())
    engine = FunctionalEngine(predictor)
    engine.run_program(get_workload("transactions"), max_branches=branches,
                       warmup_branches=0)
    return predictor


def test_roundtrip_counts(tmp_path):
    predictor = warmed_predictor()
    path = tmp_path / "state.json"
    saved = save_state(predictor, path)
    assert saved["btb1"] == predictor.btb1.occupancy
    fresh = LookaheadBranchPredictor(z15_config())
    loaded = load_state(fresh, path)
    assert loaded["btb1"] == saved["btb1"]
    assert fresh.btb1.occupancy == predictor.btb1.occupancy


def test_restored_entries_preserve_metadata(tmp_path):
    predictor = warmed_predictor()
    path = tmp_path / "state.json"
    save_state(predictor, path)
    fresh = LookaheadBranchPredictor(z15_config())
    load_state(fresh, path)
    for _row, _way, entry in predictor.btb1.entries():
        address = entry.line_base + entry.offset
        restored = fresh.btb1.lookup(address, entry.context)
        assert restored is not None
        assert restored.entry.target == entry.target
        assert restored.entry.kind == entry.kind
        assert restored.entry.bht.value == entry.bht.value
        assert restored.entry.bidirectional == entry.bidirectional
        assert restored.entry.multi_target == entry.multi_target
        assert restored.entry.return_offset == entry.return_offset
        assert restored.entry.skoot == entry.skoot


def test_warm_start_beats_cold_start(tmp_path):
    predictor = warmed_predictor(branches=6000)
    path = tmp_path / "state.json"
    save_state(predictor, path)

    def run(preload):
        fresh = LookaheadBranchPredictor(z15_config())
        if preload:
            load_state(fresh, path)
        engine = FunctionalEngine(fresh)
        return engine.run_program(get_workload("transactions"),
                                  max_branches=2000, warmup_branches=0)

    warm = run(True)
    cold = run(False)
    assert warm.dynamic_coverage > cold.dynamic_coverage
    assert warm.mpki <= cold.mpki


def test_restore_into_smaller_geometry(tmp_path):
    """Restoring into a smaller BTB1 just evicts; no errors."""
    predictor = warmed_predictor()
    path = tmp_path / "state.json"
    save_state(predictor, path)
    small = LookaheadBranchPredictor(
        PredictorConfig(btb1=Btb1Config(rows=16, ways=2, policy="lru"),
                        btb2=None, name="small").validate()
    )
    load_state(small, path)
    assert small.btb1.occupancy <= small.btb1.capacity


def test_bad_format_rejected(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(StateFormatError):
        load_state(LookaheadBranchPredictor(z15_config()), path)


def test_unknown_format_error_names_both_formats(tmp_path):
    """The rejection must say what was found and what was expected."""
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "repro-predictor-state-v99"}')
    with pytest.raises(StateFormatError) as excinfo:
        load_state(LookaheadBranchPredictor(z15_config()), path)
    message = str(excinfo.value)
    assert "repro-predictor-state-v99" in message
    assert STATE_FORMAT in message


def test_missing_format_error_is_clear(tmp_path):
    path = tmp_path / "noformat.json"
    path.write_text('{"btb1": []}')
    with pytest.raises(StateFormatError) as excinfo:
        load_state(LookaheadBranchPredictor(z15_config()), path)
    assert "unknown state format" in str(excinfo.value)


def test_state_format_error_is_a_trace_format_repro_error():
    """Callers catching the trace-format family (or ReproError at the
    CLI top level) must also catch state-file problems."""
    assert issubclass(StateFormatError, TraceFormatError)
    assert issubclass(StateFormatError, ReproError)


class TestCorruptedStateFiles:
    """Malformed or truncated state files raise StateFormatError — never
    a bare ValueError / KeyError / json.JSONDecodeError."""

    def _fresh(self):
        return LookaheadBranchPredictor(z15_config())

    def _saved(self, tmp_path, branches=2000):
        path = tmp_path / "state.json"
        save_state(warmed_predictor(branches=branches), path)
        return path

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json {")
        with pytest.raises(StateFormatError, match="not valid JSON"):
            load_state(self._fresh(), path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(StateFormatError):
            load_state(self._fresh(), path)

    def test_wrong_toplevel_type(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(StateFormatError, match="JSON object"):
            load_state(self._fresh(), path)

    def test_entry_missing_field(self, tmp_path):
        path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        del payload["btb1"][0]["offset"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError, match="malformed state entry"):
            load_state(self._fresh(), path)

    def test_entry_bad_kind(self, tmp_path):
        path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["btb1"][0]["kind"] = "not-a-branch-kind"
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError, match="malformed state entry"):
            load_state(self._fresh(), path)

    def test_entry_wrong_type(self, tmp_path):
        path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["btb1"][0] = "not-a-dict"
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFormatError):
            load_state(self._fresh(), path)

    def test_chained_cause_is_preserved(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{")
        with pytest.raises(StateFormatError) as caught:
            load_state(self._fresh(), path)
        assert isinstance(caught.value.__cause__, json.JSONDecodeError)


def _entry_with_every_field(target, skoot):
    """A BtbEntry with every persisted optional field set non-default."""
    return BtbEntry(
        tag=0,  # recomputed at install
        offset=0,
        length=6,
        kind=BranchKind.CONDITIONAL_INDIRECT,
        target=target,
        bht=TwoBitDirectionCounter(TwoBitDirectionCounter.STRONG_TAKEN),
        bidirectional=True,
        multi_target=True,
        return_offset=4,
        skoot=skoot,
    )


def test_save_load_save_is_byte_identical_with_all_fields(tmp_path):
    """Every persisted BtbEntry field — including skoot, multi_target,
    return_offset and context — must survive save -> load -> save with
    byte-identical JSON."""
    predictor = LookaheadBranchPredictor(z15_config())
    for index in range(12):
        address = 0x8000 + index * 0x140
        context = index % 3
        entry = _entry_with_every_field(
            target=0x2000 + index * 64, skoot=index % 4
        )
        predictor.btb1.install(address, context, entry)
        predictor.btb2.writeback_entry(entry)

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_state(predictor, first)
    fresh = LookaheadBranchPredictor(z15_config())
    load_state(fresh, first)
    save_state(fresh, second)
    assert first.read_bytes() == second.read_bytes()

    # Field-level check on the decoded payload, not just the bytes.
    payload = json.loads(first.read_text())
    assert payload["format"] == STATE_FORMAT
    assert len(payload["btb1"]) == 12
    for data in payload["btb1"]:
        assert data["length"] == 6
        assert data["kind"] == BranchKind.CONDITIONAL_INDIRECT.value
        assert data["bht"] == TwoBitDirectionCounter.STRONG_TAKEN
        assert data["bidirectional"] is True
        assert data["multi_target"] is True
        assert data["return_offset"] == 4
        assert data["skoot"] in (0, 1, 2, 3)
        assert data["context"] in (0, 1, 2)


def test_warmed_state_roundtrip_is_byte_identical(tmp_path):
    """The byte-identity guarantee holds for organically learned state,
    not just synthetic entries."""
    predictor = warmed_predictor(branches=3000)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save_state(predictor, first)
    fresh = LookaheadBranchPredictor(z15_config())
    load_state(fresh, first)
    save_state(fresh, second)
    assert first.read_bytes() == second.read_bytes()


def test_btb2_state_roundtrips(tmp_path):
    predictor = warmed_predictor(branches=6000)
    # Push some learning into the BTB2 via explicit writebacks.
    count = 0
    for _row, _way, entry in list(predictor.btb1.entries())[:20]:
        predictor.btb2.writeback_entry(entry)
        count += 1
    path = tmp_path / "state.json"
    saved = save_state(predictor, path)
    assert saved["btb2"] >= count
    fresh = LookaheadBranchPredictor(z15_config())
    loaded = load_state(fresh, path)
    assert loaded["btb2"] == saved["btb2"]
    assert fresh.btb2.occupancy > 0
