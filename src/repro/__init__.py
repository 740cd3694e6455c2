"""repro — an open-source model of the IBM z15 branch predictor.

A reproduction of "The IBM z15 High Frequency Mainframe Branch Predictor"
(ISCA 2020, Industry Track): the asynchronous lookahead multi-level
branch predictor (BTB1/BTB2, TAGE PHT, perceptron, CTB, CRS, CPRED,
SKOOT, GPV, GPQ, speculative overlays), the front-end substrate it
steers, functional and cycle-level engines, baseline predictors, and the
white-box verification methodology of the paper's section VII.

Quickstart::

    from repro import LookaheadBranchPredictor, FunctionalEngine
    from repro.configs import z15_config
    from repro.workloads import get_workload

    predictor = LookaheadBranchPredictor(z15_config())
    engine = FunctionalEngine(predictor)
    stats = engine.run_program(get_workload("transactions"),
                               max_branches=50_000, warmup_branches=10_000)
    print(stats.report("z15 / transactions"))
"""

from repro.configs import (
    PredictorConfig,
    TimingConfig,
    z13_config,
    z14_config,
    z15_config,
    zec12_config,
)
from repro.core import LookaheadBranchPredictor, PredictionOutcome
from repro.engine import CycleEngine, CycleStats, FunctionalEngine
from repro.stats import MispredictClass, RunStats

__version__ = "1.0.0"

__all__ = [
    "PredictorConfig",
    "TimingConfig",
    "z13_config",
    "z14_config",
    "z15_config",
    "zec12_config",
    "LookaheadBranchPredictor",
    "PredictionOutcome",
    "CycleEngine",
    "CycleStats",
    "FunctionalEngine",
    "MispredictClass",
    "RunStats",
    "__version__",
]
