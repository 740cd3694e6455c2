"""Generic hardware-structure building blocks.

The z15 prediction tables are all variations on a small number of
primitives: set-associative arrays with an LRU-ish replacement policy,
saturating counters, and bounded queues.  The concrete predictor tables
in :mod:`repro.core` are thin, well-named compositions of these.
"""

from repro.structures.assoc import SetAssociativeTable
from repro.structures.lru import PseudoLruTree, ReplacementPolicy, TrueLru
from repro.structures.queues import BoundedQueue, QueueFullError
from repro.structures.saturating import SaturatingCounter, TwoBitDirectionCounter

__all__ = [
    "SetAssociativeTable",
    "ReplacementPolicy",
    "TrueLru",
    "PseudoLruTree",
    "BoundedQueue",
    "QueueFullError",
    "SaturatingCounter",
    "TwoBitDirectionCounter",
]

