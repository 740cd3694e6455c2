"""Shared machinery: metric catalogue, span tracer, percentiles, results.

Every number the benchmark prints is declared here once, with its unit.
``BENCHMARK.json`` at the repository root lists the same names; the
self-test checks that the two agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "perfbench" / "results"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "branches_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "mpki": "1/kinstr",
    "ipc": "instr/cycle",
}

#: Rejection codes of the serve protocol, one per-layer counter each.
REJECT_CODES = ("queue-full", "shed", "deadline", "bad-seq",
                "unknown-tenant", "closed")

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "workloads.build_s": "s",
    "workloads.executor_ns_per_branch": "ns",
    "engine.compile_s": "s",
    "engine.predict_ns_per_branch": "ns",
    "engine.cycle_ns_per_branch": "ns",
    "core.predict_ns.p50": "ns",
    "core.predict_ns.p99": "ns",
    "core.btb1.hit_ratio": "ratio",
    "core.btb1.installs": "count",
    "core.btb1.evictions": "count",
    "core.btb2.searches": "count",
    "core.btb2.transfers_staged": "count",
    "core.btb2.install_dedup_ratio": "ratio",
    "parallel.serialize_ms.p50": "ms",
    "parallel.transfer_ms.p50": "ms",
    "parallel.execute_ms.p50": "ms",
    "parallel.execute_ms.p99": "ms",
    "parallel.merge_ms.p50": "ms",
    "parallel.worker_busy_frac": "ratio",
    "parallel.first_result_s": "s",
    "parallel.payload_bytes": "bytes",
    "parallel.result_bytes": "bytes",
    "parallel.cells_failed": "count",
    "parallel.retries": "count",
    "serve.rtt_ms.p50": "ms",
    "serve.rtt_ms.p99": "ms",
    "serve.compute_batch_ms.p50": "ms",
    "serve.compute_batch_ms.p99": "ms",
    "serve.journal_append_ms.p50": "ms",
    "serve.journal_append_ms.p99": "ms",
    "serve.snapshot_ms.p50": "ms",
    "serve.snapshot_ms.p99": "ms",
    "serve.codec_ms.p50": "ms",
    "serve.residual_ms.p50": "ms",
    **{f"serve.rejected.{code}": "count" for code in REJECT_CODES},
    "serve.retries": "count",
    "serve.ledger_accounted": "bool",
    "loadgen.lag_ms.p99": "ms",
    "trace.overhead_frac": "ratio",
    "unaccounted_frac": "ratio",
}

#: Span-name prefixes that belong to a layer (the rest is bookkeeping).
LAYER_PREFIXES = ("workloads.", "engine.", "core.", "parallel.", "serve.")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value, or the mean of the two middle values."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest reaped
    child (``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the maximum over
    waited-for descendants), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Span tracing (benchmark-side: spans wrap calls into layer functions)
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans with parent links; written out at the end.

    A span's self time is its duration minus the durations of its
    direct children.  Spans nest on one thread, so children never
    overlap and the subtraction is exact.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed elsewhere.  It gets no parent: recorded
        spans may overlap (concurrent requests), so they stay out of
        any parent's self-time subtraction."""
        self.spans.append([name, start, end, None])

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start
                                                    - child_time[index])
        return totals

    def layer_self_time(self) -> float:
        return sum(total for name, total in self.self_times().items()
                   if name.startswith(LAYER_PREFIXES))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for name, start, end, parent in self.spans:
                stream.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent}))
                stream.write("\n")


def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class WorkloadResult:
    """What one workload run measured and checked."""

    #: End-to-end metric values (``--trace 0``).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer ``name -> (value, samples)`` (``--trace 1``).
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Free-form detail for the results file (check verdicts, sizes).
    details: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def empty_layers() -> Dict[str, Tuple[float, int]]:
    """Every per-layer metric at (0, 0 samples): a layer the workload
    does not run keeps this value."""
    return {name: (0.0, 0) for name in PER_LAYER}


def source_digest(root: Path = ROOT) -> str:
    """sha256 over the package sources, so a results file identifies
    the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path = ROOT) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def manifest(args: Dict[str, object]) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "args": args,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def output_metrics(result: WorkloadResult, trace: bool) -> Dict[str, dict]:
    if trace:
        return {name: {"value": result.layers[name][0], "unit": unit}
                for name, unit in PER_LAYER.items()}
    return {name: {"value": result.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def human_lines(result: WorkloadResult, trace: bool) -> Iterable[str]:
    if trace:
        for name, unit in PER_LAYER.items():
            value, samples = result.layers[name]
            yield f"{name:40s} {value:16.6g} {unit:12s} n={samples}"
    else:
        for name, unit in END_TO_END.items():
            yield f"{name:40s} {result.metrics[name]:16.6g} {unit}"
    yield (f"{'failed_frac':40s} {result.failed_frac:16.6g} ratio "
           f"({result.failed} of {result.attempted} operations)")


def write_results(workload: str, seed: int, trace: bool,
                  result: WorkloadResult, args: Dict[str, object],
                  results_dir: Path = RESULTS_DIR) -> Path:
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    payload = {
        "manifest": manifest(args),
        "workload": workload,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed_frac,
        "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                    for name, value in result.metrics.items()},
        "layers": {name: {"value": value, "samples": samples,
                          "unit": PER_LAYER[name]}
                   for name, (value, samples) in result.layers.items()},
        "details": result.details,
    }
    path = results_dir / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if result.tracer is not None:
        result.tracer.write(results_dir / f"{stem}.spans.jsonl")
    return path
