"""Registry export: Prometheus text exposition and JSON snapshots.

The metrics registry is an in-process store; this module is how its
contents leave the process in standard shapes:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, sanitized names, cumulative ``_bucket{le=...}``
  series for histograms), scrape-able as-is or diffable in tests;
* :func:`write_json_snapshot` — the registry's
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as stable,
  sorted JSON.

Both renderings are deterministic (sorted instrument and bucket order)
so artifacts produced under a fixed seed are bit-reproducible.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .metrics import LogHistogram, MetricsRegistry

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, namespace: str) -> str:
    """A dotted registry name as a legal Prometheus metric name."""
    flat = _INVALID.sub("_", f"{namespace}_{name}" if namespace else name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _fmt(value: float) -> str:
    """Numbers without float noise: integers stay integers."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _histogram_lines(name: str, hist: LogHistogram) -> list[str]:
    """Cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``."""
    lines = [f"# TYPE {name} histogram"]
    seen = 0
    for idx in sorted(hist.counts):
        seen += hist.counts[idx]
        le = hist.bucket_bounds(idx)[1]
        lines.append(f'{name}_bucket{{le="{le:.6g}"}} {seen}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {hist.total}')
    lines.append(f"{name}_sum {_fmt(hist._sum)}")
    lines.append(f"{name}_count {hist.total}")
    return lines


def render_prometheus(registry: MetricsRegistry,
                      namespace: str = "repro") -> str:
    """The whole registry in Prometheus text exposition format."""
    lines: list[str] = []
    for name, counter in sorted(registry.counters.items()):
        flat = _metric_name(name, namespace)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_fmt(counter.value)}")
    for name, gauge in sorted(registry.gauges.items()):
        flat = _metric_name(name, namespace)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_fmt(gauge.value)}")
    for name, hist in sorted(registry.histograms.items()):
        lines.extend(_histogram_lines(_metric_name(name, namespace), hist))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(registry: MetricsRegistry, path: str | Path,
                     namespace: str = "repro") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_prometheus(registry, namespace))
    return path


def write_json_snapshot(registry: MetricsRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(registry.snapshot(), indent=2, sort_keys=True)
                    + "\n")
    return path
