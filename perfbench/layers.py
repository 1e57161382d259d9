"""Per-layer figures read from what the program already exports.

Inputs are a ``trace_summary`` dict (spans, counters, histograms) and
``DiscoveryStats`` as dicts — the same shapes the library hands back and
the service puts into a job's status payload, so the library and the
service workloads share this code.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from common import median


def _span_seconds(summary: Mapping, name: str) -> float:
    return float(summary.get("spans", {}).get(name, {}).get("seconds", 0.0))


def _kernel(summary: Mapping, op: str) -> Dict[str, float]:
    """Calls and seconds of one kernel op, summed over backends."""
    calls = seconds = 0.0
    for name, value in summary.get("counters", {}).items():
        if name.startswith(f"kernels.{op}.") and name.endswith(".calls"):
            calls += value
    for name, hist in summary.get("histograms", {}).items():
        if name.startswith(f"kernels.{op}.") and name.endswith(".seconds"):
            seconds += float(hist.get("sum", 0.0))
    return {"calls": calls, "seconds": seconds}


def discovery_layers(summary: Mapping, stats: Sequence[Mapping]) -> Dict[str, float]:
    """core / fdtree / partitions figures of one traced unit of work.

    ``summary`` covers the unit (a library pass or one service job);
    ``stats`` holds the ``DiscoveryStats`` of every discovery in it.
    """
    levels = [level for s in stats for level in s.get("level_log", [])]
    candidates = sum(level.get("candidates", 0) for level in levels)
    hits = sum(s.get("partition_cache_hits", 0) for s in stats)
    misses = sum(s.get("partition_cache_misses", 0) for s in stats)
    refine = _kernel(summary, "refine")
    return {
        "core.discover_s": _span_seconds(summary, "discovery"),
        "core.sampling_s": _span_seconds(summary, "sampling"),
        "core.validation_s": _span_seconds(summary, "validation"),
        "core.refinement_s": _span_seconds(summary, "refinement"),
        "core.validations": sum(s.get("validations", 0) for s in stats),
        "core.comparisons": sum(s.get("comparisons", 0) for s in stats),
        "core.levels": sum(s.get("levels_processed", 0) for s in stats),
        "core.refreshes": sum(s.get("partition_refreshes", 0) for s in stats),
        "core.valid_frac": (
            sum(level.get("valid", 0) for level in levels) / candidates
            if candidates else 0.0
        ),
        "fdtree.induction_s": _span_seconds(summary, "induction"),
        "fdtree.nodes_visited": sum(s.get("induction_nodes_visited", 0) for s in stats),
        "fdtree.fds_inserted": sum(s.get("induction_fds_inserted", 0) for s in stats),
        "partitions.refine_calls": refine["calls"],
        "partitions.refine_s": refine["seconds"],
        "partitions.group_calls": _kernel(summary, "group")["calls"],
        "partitions.agree_calls": _kernel(summary, "agree")["calls"],
        "partitions.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "partitions.peak_bytes": max(
            (s.get("partition_memory_peak_bytes", 0) for s in stats), default=0
        ),
    }


def covers_ranking_layers(summary: Mapping) -> Dict[str, float]:
    """covers / ranking seconds from the spans ``profile()`` records."""
    return {
        "covers.canonical_s": _span_seconds(summary, "covers"),
        "ranking.rank_s": _span_seconds(summary, "ranking"),
        "ranking.redundancy_s": _span_seconds(summary, "redundancy"),
    }


def median_by_key(rows: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Per-key median over units of work (keys of the first row)."""
    rows = list(rows)
    if not rows:
        return {}
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, by name suffix."""
    if name.endswith("_bytes_per_job"):
        return "bytes/job"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_skew")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_kb"):
        return "kB"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def report_layers(report, values: Mapping[str, float], n: int, unit_note: str) -> None:
    for name in sorted(values):
        report.value(name, values[name], layer_unit(name), n, note=unit_note)


def print_layers(report, values: Mapping[str, float], n: int, unit_note: str) -> None:
    for name in sorted(values):
        report.line(name, values[name], layer_unit(name), n, note=unit_note)
