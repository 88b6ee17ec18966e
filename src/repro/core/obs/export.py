"""Exporters: registry + trace buffer -> human / JSONL / Chrome trace.

Three consumers, three formats:

* :func:`render_profile` -- the ``--profile`` table: per-phase rollup
  of every timer (parse / OntoScore / DIL merge / storage / ...), then
  the individual instruments, then the counters.
* :func:`metrics_lines` / :func:`write_metrics_jsonl` -- one JSON
  object per line per instrument (``--metrics-out``), stable field
  order, sorted by name: trivially diffable and greppable.
* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Trace Event
  Format (``--trace-out``): a JSON object with a ``traceEvents`` array
  of complete (``"ph": "X"``) events, loadable in ``chrome://tracing``
  and https://ui.perfetto.dev. Timestamps are microseconds relative to
  the earliest buffered span.

Phase rollups sum *per-instrument* totals; nested spans (an OntoScore
expansion inside a DIL fetch) therefore overlap across phases by
design -- the table answers "where does time go inside each stage",
not "what fraction of wall-clock is each stage".
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

from .instruments import EMPTY_TIMER, TimerStats
from .tracer import NULL_TRACER, Span

#: Phase rollup, in display order: label -> instrument-name prefixes
#: (a prefix ending in "." matches the namespace, otherwise exactly).
#: The first four are the query path's canonical stages and are always
#: printed, even at zero, so ``--profile`` output has a stable shape.
PHASES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("parse", ("query.parse",)),
    ("ontoscore", ("ontoscore.",)),
    ("dil_merge", ("query.dil_merge",)),
    ("storage", ("storage.",)),
    ("dil_fetch", ("query.dil_fetch", "dil_cache.")),
    ("index_build", ("index.",)),
    ("query_total", ("query.search",)),
)

_ALWAYS_SHOWN = ("parse", "ontoscore", "dil_merge", "storage")


def phase_of(name: str) -> str | None:
    """The phase label an instrument name rolls up into, if any."""
    for label, prefixes in PHASES:
        for prefix in prefixes:
            if (name == prefix
                    or (prefix.endswith(".") and name.startswith(prefix))):
                return label
    return None


def _merge(stats: Iterable[TimerStats]) -> TimerStats:
    """Sum counts/totals, max of maxima, min of minima; percentiles of
    a rollup are not well-defined across instruments and report 0."""
    count, total = 0, 0.0
    minimum, maximum = 0.0, 0.0
    for item in stats:
        if item.count == 0:
            continue
        minimum = item.minimum if count == 0 else min(minimum,
                                                     item.minimum)
        count += item.count
        total += item.total
        maximum = max(maximum, item.maximum)
    if count == 0:
        return EMPTY_TIMER
    return TimerStats(count=count, total=total, minimum=minimum,
                      maximum=maximum, p50=0.0, p95=0.0, p99=0.0)


# ----------------------------------------------------------------------
# Human table
# ----------------------------------------------------------------------
def render_profile(registry: Any, tracer: Any = NULL_TRACER) -> str:
    """The ``--profile`` report over a registry (and span buffer)."""
    timers: dict[str, TimerStats] = registry.timers()
    lines = ["PROFILE -- per-phase timings (milliseconds)"]
    header = (f"{'phase':<24}{'count':>8}{'total':>12}{'mean':>10}"
              f"{'max':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    grouped: dict[str, list[TimerStats]] = {}
    for name, stats in timers.items():
        label = phase_of(name)
        if label is not None:
            grouped.setdefault(label, []).append(stats)
    for label, _ in PHASES:
        rollup = _merge(grouped.get(label, ()))
        if rollup.count == 0 and label not in _ALWAYS_SHOWN:
            continue
        lines.append(f"{label:<24}{rollup.count:>8}"
                     f"{rollup.total * 1e3:>12.3f}"
                     f"{rollup.mean * 1e3:>10.3f}"
                     f"{rollup.maximum * 1e3:>10.3f}")
    if timers:
        lines.append("")
        lines.append("instruments:")
        for name in sorted(timers):
            lines.append(f"  {name}: {timers[name].render()}")
    counters = registry.snapshot()
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name}={counters[name]}")
    if tracer.enabled:
        lines.append("")
        lines.append(f"spans: {len(tracer.finished())} buffered "
                     f"({tracer.dropped} dropped)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def metrics_lines(registry: Any) -> list[str]:
    """One compact JSON object per instrument, sorted by name."""
    lines = []
    for name, value in sorted(registry.snapshot().items()):
        lines.append(json.dumps(
            {"type": "counter", "name": name, "value": value},
            sort_keys=False))
    for name, stats in sorted(registry.timers().items()):
        lines.append(json.dumps(
            {"type": "timer", "name": name, "count": stats.count,
             "total_s": stats.total, "mean_s": stats.mean,
             "min_s": stats.minimum, "max_s": stats.maximum,
             "p50_s": stats.p50, "p95_s": stats.p95,
             "p99_s": stats.p99}))
    return lines


def write_metrics_jsonl(registry: Any, path: str) -> int:
    """Write :func:`metrics_lines` to ``path``; returns line count."""
    lines = metrics_lines(registry)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(tracer: Any) -> dict[str, Any]:
    """The buffered spans in Chrome Trace Event Format."""
    spans: list[Span] = tracer.finished()
    origin = min((span.start for span in spans), default=0.0)
    pid = os.getpid()
    events = []
    for span in spans:
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": span.thread_id,
            "args": {key: _json_safe(value)
                     for key, value in span.attributes.items()},
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(tracer: Any, path: str) -> int:
    """Write :func:`chrome_trace` to ``path``; returns event count."""
    trace = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
    return len(trace["traceEvents"])
