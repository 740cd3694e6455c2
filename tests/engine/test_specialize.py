"""Unit contract of the config-specialized kernel generator.

The equivalence battery (``test_fast_mode_equivalence.py``) proves the
compiled kernels *behave* identically; this module pins the generator
machinery itself — shape derivation, the three-kernel set, source
hygiene (no unexpanded template markers), the ``outcomes`` generator's
one-pull-per-outcome contract, process-wide caching, and the
mode-resolution rules (`fast` silently falls back to `reference` for
baseline predictors, unknown modes are rejected loudly).
"""

import pytest

from repro.baselines import BimodalPredictor
from repro.configs import GENERATIONS, z15_config
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine.specialize import (
    ENGINE_MODES,
    SpecializedKernels,
    clear_kernel_cache,
    config_shape,
    effective_engine_mode,
    generate_kernel_source,
    kernels_for,
    kernels_for_config,
)
from repro.workloads import get_workload
from repro.workloads.executor import Executor
from repro.workloads.multi import ContextSwitch
from tests.conftest import small_predictor_config

KERNEL_NAMES = ("counted", "warmup", "outcomes")


def test_config_shape_is_hashable_and_config_dependent():
    z15 = config_shape(z15_config())
    tiny = config_shape(small_predictor_config())
    assert hash(z15) is not None
    assert z15 != tiny
    assert z15 == config_shape(z15_config())


@pytest.mark.parametrize("generation", sorted(GENERATIONS))
def test_every_generation_compiles_all_kernels(generation):
    factory, _ = GENERATIONS[generation]
    kernels = kernels_for_config(factory())
    assert isinstance(kernels, SpecializedKernels)
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name)), name


def test_generated_source_has_no_unexpanded_markers():
    """Every ``#IF``/``#ELSE``/``#ENDIF``/``#APPLY`` marker and every
    ``$TOKEN`` must be resolved at generation time — a leftover marker
    means a template branch silently shipped as a comment."""
    for config in (z15_config(), small_predictor_config()):
        source = generate_kernel_source(config_shape(config))
        for marker in ("#IF", "#ELSE", "#ENDIF", "#APPLY", "$"):
            assert marker not in source, f"unexpanded {marker!r} in source"


def test_z15_source_defines_exactly_the_three_kernels():
    source = generate_kernel_source(config_shape(z15_config()))
    defined = [line[4:line.index("(")] for line in source.splitlines()
               if line.startswith("def ")]
    assert defined == ["_begin_stream", "counted", "warmup", "outcomes"]


def _branches(count):
    executor = Executor(get_workload("compute-kernel", 5), seed=5)
    return list(executor.run(max_branches=count))


def _pulling(items, pulled):
    """Iterate *items*, logging each one as it is pulled."""
    for item in items:
        pulled.append(item)
        yield item


def test_outcomes_pulls_one_item_per_outcome_and_switches_silently():
    """``outcomes`` is suspended between yields while consumer code runs,
    so it must never read ahead: k ``next()`` calls pull exactly k
    branches.  A ``ContextSwitch`` goes through ``P.context_switch``
    and yields nothing — the next outcome is the following branch's."""
    branches = _branches(12)
    predictor = LookaheadBranchPredictor(z15_config())
    predictor.restart(branches[0].address, context=0)
    switches = []
    context_switch = predictor.context_switch

    def spy(address, context, thread=0):
        switches.append((address, context, thread))
        context_switch(address, context, thread)

    predictor.context_switch = spy
    pulled = []
    switch = ContextSwitch(context=0, thread=0,
                           entry_point=branches[6].address)
    items = branches[:6] + [switch] + branches[6:]
    outcomes = kernels_for(predictor).outcomes(
        predictor, _pulling(items, pulled)
    )
    for k in range(1, 7):
        outcome = next(outcomes)
        assert len(pulled) == k
        assert outcome.record.sequence == branches[k - 1].sequence
    assert switches == []
    outcome = next(outcomes)
    assert switches == [(branches[6].address, 0, 0)]
    assert len(pulled) == 8
    assert outcome.record.sequence == branches[6].sequence
    assert predictor.context_switches == 1
    assert [o.record.sequence for o in outcomes] == [
        branch.sequence for branch in branches[7:]
    ]


def test_kernels_are_cached_per_shape():
    clear_kernel_cache()
    first = kernels_for_config(z15_config())
    second = kernels_for_config(z15_config())
    assert first is second
    other = kernels_for_config(small_predictor_config())
    assert other is not first
    clear_kernel_cache()
    assert kernels_for_config(z15_config()) is not first


def test_kernels_for_predictor_uses_its_config():
    predictor = LookaheadBranchPredictor(z15_config())
    assert kernels_for(predictor) is kernels_for_config(z15_config())


def test_effective_engine_mode_validates():
    predictor = LookaheadBranchPredictor(z15_config())
    assert effective_engine_mode("reference", predictor) == "reference"
    assert effective_engine_mode("fast", predictor) == "fast"
    with pytest.raises(ValueError):
        effective_engine_mode("warp", predictor)


def test_fast_mode_falls_back_for_baselines():
    """Baselines have no PredictorConfig to specialize on; requesting
    fast mode on one is a silent no-op, not an error — sweeps may mix
    baselines into a fast grid."""
    assert effective_engine_mode("fast", BimodalPredictor()) == "reference"


def test_engine_modes_tuple_is_the_public_axis():
    assert ENGINE_MODES == ("reference", "fast")
