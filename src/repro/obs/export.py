"""OpenMetrics and canonical-JSON export of telemetry registries.

The registry's native export (:meth:`Telemetry.to_dict`) is for
round-tripping inside this codebase; this module renders the same data
in the two shapes external tooling expects:

* :func:`to_openmetrics` — the OpenMetrics text exposition format
  (Prometheus-compatible): ``# TYPE``/``# HELP`` metadata, counters with
  the ``_total`` suffix, histograms as cumulative ``_bucket{le="..."}``
  samples plus ``_sum``/``_count``, and the mandatory ``# EOF``
  terminator.  Dotted instrument names are sanitised to the metric
  charset; the original dotted name rides in the ``# HELP`` line so
  :func:`parse_openmetrics` can restore it.
* :func:`rollup_results` — cross-cell aggregation: merges per-cell
  telemetry payloads from a sweep/fleet into one registry per
  ``(engine_mode, workload)`` group (plus a grand total), which
  :func:`to_openmetrics` then renders as label sets on the samples.

Rendering is deterministic: groups and instruments are emitted sorted,
floats via ``repr`` (shortest round-trip form), so
``render(parse(render(x))) == render(x)`` — the property the round-trip
test pins.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import Telemetry

#: Group keys used for cross-cell rollups, in label order.
ROLLUP_KEYS = ("engine_mode", "workload")

#: Label set marking the merged-everything group.
TOTAL_LABELS: Tuple[Tuple[str, str], ...] = ()

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_HELP_RE = re.compile(r"^# HELP ([a-zA-Z0-9_:]+) instrument (\S+)")
_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z0-9_:]+) (counter|gauge|histogram)$")
# The label body is a sequence of quoted strings and separators; the
# quoted-string alternative lets a value carry "}" or spaces, which a
# naive [^}]* body would misparse.
_SAMPLE_RE = re.compile(
    r'^([a-zA-Z0-9_:]+)(?:\{((?:[^"}]|"(?:[^"\\]|\\.)*")*)\})? (\S+)$'
)
_LABEL_RE = re.compile(r'([a-zA-Z0-9_]+)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_RE = re.compile(r"\\(.)")


class OpenMetricsError(ValueError):
    """An exposition-format document cannot be parsed."""


def metric_name(instrument_name: str) -> str:
    """Sanitise a dotted instrument name to the metric charset."""
    name = _NAME_RE.sub("_", instrument_name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    # repr() is the shortest round-trip form, and ints stay ints —
    # deterministic output is what makes re-render comparisons exact.
    if isinstance(value, float) and value.is_integer():
        return repr(int(value))
    return repr(value)


def _format_labels(labels: Sequence[Tuple[str, str]],
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(key, str(value).replace("\\", "\\\\")
                         .replace('"', '\\"').replace("\n", "\\n"))
        for key, value in pairs
    )
    return "{" + rendered + "}"


def _normalise_groups(telemetry_or_groups) -> List[
        Tuple[Tuple[Tuple[str, str], ...], Telemetry]]:
    if isinstance(telemetry_or_groups, dict):
        telemetry_or_groups = Telemetry.from_dict(telemetry_or_groups)
    if hasattr(telemetry_or_groups, "to_dict") and not isinstance(
            telemetry_or_groups, (list, tuple)):
        return [(TOTAL_LABELS, telemetry_or_groups)]
    groups = []
    for labels, telemetry in telemetry_or_groups:
        if isinstance(telemetry, dict):
            telemetry = Telemetry.from_dict(telemetry)
        groups.append((tuple(labels), telemetry))
    return groups


def to_openmetrics(telemetry_or_groups) -> str:
    """Render one registry — or ``[(labels, registry), ...]`` groups —
    as an OpenMetrics text exposition document.

    With groups, same-named instruments from different groups share one
    metric family and are distinguished by their label sets, which is
    how per-(engine-mode, workload) rollups read naturally in
    Prometheus-style tooling.
    """
    groups = _normalise_groups(telemetry_or_groups)
    # family name -> (type, dotted name, [(labels, instrument)])
    families: Dict[str, Tuple[str, str, List]] = {}

    def add(kind: str, dotted: str, labels, instrument) -> None:
        base = metric_name(dotted)
        # Counters take the OpenMetrics _total suffix; histograms take
        # _dist unconditionally so a histogram can share its dotted name
        # with a gauge (the registry allows it: gpq.occupancy is both a
        # live gauge and a distribution) without a family collision.
        if kind == "counter":
            name = base + "_total"
        elif kind == "histogram":
            name = base + "_dist"
        else:
            name = base
        family = families.get(name)
        if family is None:
            family = families[name] = (kind, dotted, [])
        elif family[0] != kind:
            raise OpenMetricsError(
                f"instrument {dotted!r} exported as both {family[0]} "
                f"and {kind}"
            )
        family[2].append((labels, instrument))

    for labels, telemetry in groups:
        for dotted in sorted(telemetry.counters):
            add("counter", dotted, labels, telemetry.counters[dotted])
        for dotted in sorted(telemetry.gauges):
            add("gauge", dotted, labels, telemetry.gauges[dotted])
        for dotted in sorted(telemetry.histograms):
            add("histogram", dotted, labels, telemetry.histograms[dotted])

    lines: List[str] = []
    for name in sorted(families):
        kind, dotted, samples = families[name]
        base = name[: -len("_total")] if kind == "counter" else name
        lines.append(f"# HELP {base} instrument {dotted}")
        lines.append(f"# TYPE {base} {kind}")
        for labels, instrument in sorted(samples, key=lambda item: item[0]):
            label_str = _format_labels(labels)
            if kind == "counter":
                lines.append(
                    f"{name}{label_str} {_format_value(instrument.value)}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{name}{label_str} {_format_value(instrument.value)}"
                )
            else:
                cumulative = 0
                for bound, in_bucket in zip(instrument.bounds,
                                            instrument.buckets):
                    cumulative += in_bucket
                    bucket_labels = _format_labels(
                        labels, [("le", _format_value(float(bound)))]
                    )
                    lines.append(f"{base}_bucket{bucket_labels} {cumulative}")
                cumulative += instrument.buckets[-1]
                inf_labels = _format_labels(labels, [("le", "+Inf")])
                lines.append(f"{base}_bucket{inf_labels} {cumulative}")
                lines.append(
                    f"{base}_sum{_format_labels(labels)} "
                    f"{_format_value(instrument.total)}"
                )
                lines.append(
                    f"{base}_count{_format_labels(labels)} "
                    f"{instrument.count}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _parse_labels(raw: Optional[str]) -> Tuple[Tuple[str, str], ...]:
    if not raw:
        return ()
    labels = []
    for match in _LABEL_RE.finditer(raw):
        # One-pass unescape: a single substitution cannot re-read the
        # backslash it just produced, unlike chained str.replace calls
        # (which would turn the escaped pair \\" into a bare quote).
        value = _UNESCAPE_RE.sub(
            lambda m: "\n" if m.group(1) == "n" else m.group(1),
            match.group(2),
        )
        labels.append((match.group(1), value))
    return tuple(labels)


def _parse_number(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise OpenMetricsError(f"{where}: bad sample value {raw!r}") from exc


def parse_openmetrics(text: str) -> List[
        Tuple[Tuple[Tuple[str, str], ...], Telemetry]]:
    """Parse a :func:`to_openmetrics` document back into groups.

    Returns ``[(labels, Telemetry), ...]`` with groups and instruments
    restored to their dotted names (via the ``# HELP`` metadata).  Only
    the subset of OpenMetrics this module emits is supported — enough to
    pin ``render(parse(render(x))) == render(x)``.
    """
    kinds: Dict[str, str] = {}
    dotted_names: Dict[str, str] = {}
    groups: Dict[Tuple[Tuple[str, str], ...], Telemetry] = {}
    # histogram assembly state: (labels, base) -> {"buckets": [...], ...}
    partial: Dict[Tuple, Dict] = {}

    def telemetry_for(labels) -> Telemetry:
        telemetry = groups.get(labels)
        if telemetry is None:
            telemetry = groups[labels] = Telemetry()
        return telemetry

    for line_number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line == "# EOF":
            continue
        if line.startswith("#"):
            help_match = _HELP_RE.match(line)
            if help_match:
                dotted_names[help_match.group(1)] = help_match.group(2)
                continue
            type_match = _TYPE_RE.match(line)
            if type_match:
                kinds[type_match.group(1)] = type_match.group(2)
            continue
        sample = _SAMPLE_RE.match(line)
        if sample is None:
            raise OpenMetricsError(f"line {line_number}: bad sample {line!r}")
        name, raw_labels, raw_value = sample.groups()
        labels = _parse_labels(raw_labels)
        # Resolve the family this sample belongs to.
        if name.endswith("_total") and name[: -len("_total")] in kinds:
            base = name[: -len("_total")]
            kind = kinds[base]
        else:
            base, kind = None, None
            for suffix in ("_bucket", "_sum", "_count", ""):
                candidate = name[: -len(suffix)] if suffix else name
                if candidate in kinds:
                    base, kind = candidate, kinds[candidate]
                    if kind == "histogram" or not suffix:
                        break
            if base is None:
                raise OpenMetricsError(
                    f"line {line_number}: sample {name!r} has no # TYPE"
                )
        dotted = dotted_names.get(base, base)
        if kind == "counter":
            telemetry_for(labels).counter(dotted).value = int(
                _parse_number(raw_value, f"line {line_number}")
            )
        elif kind == "gauge":
            telemetry_for(labels).gauge(dotted).value = _parse_number(
                raw_value, f"line {line_number}"
            )
        else:  # histogram parts
            value = _parse_number(raw_value, f"line {line_number}")
            # The le label is positional bucket metadata, not part of
            # the group identity — strip it before keying the family.
            le_value = None
            group_labels = []
            for key, label_value in labels:
                if key == "le":
                    le_value = label_value
                else:
                    group_labels.append((key, label_value))
            state = partial.setdefault(
                (tuple(group_labels), base),
                {"bounds": [], "cumulative": [], "sum": 0.0, "count": 0},
            )
            if name.endswith("_bucket"):
                if le_value is None:
                    raise OpenMetricsError(
                        f"line {line_number}: bucket sample without le"
                    )
                if le_value != "+Inf":
                    state["bounds"].append(float(le_value))
                state["cumulative"].append(int(value))
            elif name.endswith("_sum"):
                state["sum"] = value
            elif name.endswith("_count"):
                state["count"] = int(value)
            else:
                raise OpenMetricsError(
                    f"line {line_number}: unexpected histogram sample "
                    f"{name!r}"
                )

    for (group_labels, base), state in partial.items():
        dotted = dotted_names.get(base, base)
        bounds = state["bounds"]
        cumulative = state["cumulative"]
        if len(cumulative) != len(bounds) + 1:
            raise OpenMetricsError(
                f"histogram {dotted!r}: {len(cumulative)} buckets for "
                f"{len(bounds)} bounds"
            )
        telemetry = telemetry_for(group_labels)
        histogram = telemetry.histogram(dotted, bounds)
        previous = 0
        for index, total in enumerate(cumulative):
            histogram.buckets[index] = total - previous
            previous = total
        histogram.count = state["count"]
        histogram.total = state["sum"]
    return sorted(groups.items(), key=lambda item: item[0])


def to_canonical_json(telemetry_or_groups) -> str:
    """The same data as canonical JSON (sorted keys, one object).

    Single registries export their :meth:`Telemetry.to_dict`; groups
    export ``{"groups": [{"labels": {...}, "telemetry": {...}}, ...]}``.
    """
    groups = _normalise_groups(telemetry_or_groups)
    if len(groups) == 1 and groups[0][0] == TOTAL_LABELS:
        payload = groups[0][1].to_dict()
    else:
        payload = {
            "groups": [
                {"labels": dict(labels), "telemetry": telemetry.to_dict()}
                for labels, telemetry in sorted(
                    groups, key=lambda item: item[0]
                )
            ]
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _label_value(value) -> str:
    # A fleet cell's ``workload`` may be a materialised Program rather
    # than a suite name — label with its name, not the object repr.
    name = getattr(value, "name", None)
    if name is not None and not isinstance(value, str):
        return str(name)
    return str(value)


def rollup_results(cells, results,
                   keys: Sequence[str] = ROLLUP_KEYS) -> List[
        Tuple[Tuple[Tuple[str, str], ...], Telemetry]]:
    """Merge per-cell telemetry into per-group registries.

    *cells* and *results* are parallel sequences (failed cells'
    ``CellError`` entries carry no telemetry and are skipped).  Each
    cell contributes to its ``(engine_mode, workload)`` group
    and to the unlabeled grand total.  Returns the sorted group list
    :func:`to_openmetrics` accepts directly.
    """
    groups: Dict[Tuple[Tuple[str, str], ...], Telemetry] = {}
    total = Telemetry()
    contributed = False
    for cell, result in zip(cells, results):
        payload = getattr(result, "telemetry", None)
        if not payload:
            continue
        contributed = True
        labels = tuple(
            (key, _label_value(getattr(cell, key, None))) for key in keys
        )
        group = groups.get(labels)
        if group is None:
            group = groups[labels] = Telemetry()
        group.merge(payload)
        total.merge(payload)
    rollup = sorted(groups.items(), key=lambda item: item[0])
    if contributed:
        rollup.append((TOTAL_LABELS, total))
    return rollup


__all__ = [
    "OpenMetricsError",
    "ROLLUP_KEYS",
    "metric_name",
    "parse_openmetrics",
    "rollup_results",
    "to_canonical_json",
    "to_openmetrics",
]
