"""Exporters and process introspection: Prometheus text, JSONL, RSS.

The exporters consume the plain name-to-value mapping that
:func:`~repro.service.observation.fleet_metrics` produces — ``int`` values
render as counters, ``float`` values as gauges, and
:class:`~repro.obs.registry.HistogramSnapshot` values as Prometheus
histograms with cumulative ``le`` buckets plus the standard ``_sum`` /
``_count`` series.  Output is name-sorted, so exports are byte-stable for
a given snapshot.

:func:`resident_bytes` reads the process's resident set size from
``/proc/self/status`` — the measurement behind the soak mode's flat-memory
claim (E15).  It returns ``None`` where ``/proc`` is unavailable, and
callers skip their RSS assertions rather than fake them.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Mapping, Optional

from repro.obs.registry import HistogramSnapshot, MetricValue


def _prometheus_name(name: str, prefix: str) -> str:
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    metrics: Mapping[str, MetricValue], prefix: str = "repro"
) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(metrics):
        value = metrics[name]
        full_name = _prometheus_name(name, prefix)
        if isinstance(value, HistogramSnapshot):
            lines.append(f"# TYPE {full_name} histogram")
            cumulative = 0
            for edge, count in zip(value.edges, value.counts):
                cumulative += count
                lines.append(
                    f'{full_name}_bucket{{le="{_format_number(edge)}"}} '
                    f"{cumulative}"
                )
            cumulative += value.counts[-1]
            lines.append(f'{full_name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{full_name}_sum {repr(value.sum)}")
            lines.append(f"{full_name}_count {value.count}")
        elif isinstance(value, int):
            lines.append(f"# TYPE {full_name} counter")
            lines.append(f"{full_name} {value}")
        else:
            lines.append(f"# TYPE {full_name} gauge")
            lines.append(f"{full_name} {_format_number(value)}")
    return "\n".join(lines) + "\n"


def metrics_jsonl_lines(metrics: Mapping[str, MetricValue]) -> List[str]:
    """One JSON document per metric, name-sorted (the JSONL export)."""
    lines: List[str] = []
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, HistogramSnapshot):
            payload: Dict[str, object] = {
                "metric": name,
                "type": "histogram",
                "histogram": value.to_json(),
            }
        else:
            payload = {
                "metric": name,
                "type": "counter" if isinstance(value, int) else "gauge",
                "value": value,
            }
        lines.append(json.dumps(payload, separators=(",", ":")))
    return lines


def write_prometheus_text(
    path: str, metrics: Mapping[str, MetricValue], prefix: str = "repro"
) -> None:
    """Write a snapshot to ``path`` in Prometheus text format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(metrics, prefix=prefix))


def write_metrics_jsonl(path: str, metrics: Mapping[str, MetricValue]) -> int:
    """Write a snapshot to ``path`` as JSONL; returns how many lines."""
    lines = metrics_jsonl_lines(metrics)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def resident_bytes() -> Optional[int]:
    """This process's resident set size in bytes, or ``None`` off-Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    kilobytes = int(line.split()[1])
                    return kilobytes * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None
