"""Tests for the repro.telemetry subsystem and its wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.bench.runner import run_discovery
from repro.core.dhyfd import DHyFD
from repro.partitions.cache import PartitionCache
from repro.profiling.profiler import profile
from repro.relational import attrset
from repro.telemetry import (
    NOOP_TRACER,
    MetricsRegistry,
    Tracer,
    current_tracer,
    format_trace,
    read_trace_jsonl,
    trace_records,
    trace_summary,
    use_tracer,
    write_trace_jsonl,
)


class FakeClock:
    """Deterministic clock: every call advances time by ``step``."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_nesting_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert [s.name for s in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [s.name for s in outer.children] == ["inner_a", "inner_b"]
        assert [s.name for s in outer.children[1].children] == ["leaf"]
        assert tracer.span_names() == ["outer", "inner_a", "inner_b", "leaf"]

    def test_deterministic_timing(self):
        # FakeClock ticks once per call: origin, open, close -> duration 1.
        tracer = Tracer(clock=FakeClock())
        with tracer.span("phase"):
            pass
        span = tracer.roots[0]
        assert span.duration == pytest.approx(1.0)

    def test_durations_are_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.duration >= inner.duration >= 0.0
        assert inner.start >= outer.start

    def test_annotate_and_attrs(self):
        tracer = Tracer()
        with tracer.span("phase", level=3) as span:
            span.annotate(candidates=7)
        assert tracer.roots[0].attrs == {"level": 3, "candidates": 7}

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        assert tracer.roots[0].duration is not None

    def test_events_attach_to_open_span(self):
        tracer = Tracer()
        with tracer.span("phase"):
            tracer.event("decision", ratio=2.5)
        tracer.event("top_level")
        assert len(tracer.events) == 2
        assert tracer.events[0].span == "phase"
        assert tracer.events[1].span is None
        assert tracer.find_events("decision")[0].attrs == {"ratio": 2.5}
        assert tracer.roots[0].events[0].name == "decision"

    def test_find_spans(self):
        tracer = Tracer()
        for level in (1, 2):
            with tracer.span("validation", level=level):
                pass
        found = tracer.find_spans("validation")
        assert [s.attrs["level"] for s in found] == [1, 2]


class TestMetrics:
    def test_counter_aggregation(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.counter("hits").value == 5

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("mem").set(10.0)
        registry.gauge("mem").set_max(5.0)
        assert registry.gauge("mem").value == 10.0
        registry.gauge("mem").set_max(20.0)
        assert registry.gauge("mem").value == 20.0

    def test_histogram_aggregation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(6.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.percentile(0.5) == 2.0

    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(1.0)
        payload = registry.as_dict()
        assert payload["counters"] == {"c": 1}
        assert payload["gauges"] == {"g": 2.5}
        assert payload["histograms"]["h"]["count"] == 1
        json.dumps(payload)  # JSON-friendly


class TestNoopTracer:
    def test_default_is_noop(self):
        assert current_tracer() is NOOP_TRACER
        assert not current_tracer().enabled

    def test_noop_records_nothing(self):
        tracer = NOOP_TRACER
        with tracer.span("phase") as span:
            span.annotate(level=1)
            tracer.event("decision", ratio=1.0)
            tracer.counter("hits").inc(100)
            tracer.gauge("mem").set(9.9)
            tracer.histogram("lat").observe(1.0)
        assert list(tracer.roots) == []
        assert list(tracer.events) == []
        assert tracer.span_names() == []
        assert tracer.metrics.as_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with use_tracer(None):
                assert current_tracer() is NOOP_TRACER
            assert current_tracer() is tracer
        assert current_tracer() is NOOP_TRACER

    def test_tracer_as_context_manager(self):
        with Tracer() as tracer:
            assert current_tracer() is tracer
        assert current_tracer() is NOOP_TRACER


class TestExporters:
    def _traced(self) -> Tracer:
        tracer = Tracer(clock=FakeClock())
        with tracer.span("discovery", algorithm="dhyfd"):
            with tracer.span("sampling") as span:
                span.annotate(non_fds=3)
            tracer.event("ratio_decision", level=1, ratio=float("inf"))
        tracer.counter("partition_cache.hits").inc(5)
        tracer.gauge("partition_cache.memory_bytes").set(1024)
        tracer.histogram("level_seconds").observe(0.5)
        return tracer

    def test_format_trace_tree(self):
        text = format_trace(self._traced())
        lines = text.splitlines()
        assert lines[0].startswith("discovery")
        assert any(line.startswith("  sampling") for line in lines)
        assert "ratio_decision" in text
        assert "partition_cache.hits = 5" in text

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(tracer, str(path))
        records = read_trace_jsonl(str(path))
        assert len(records) == count
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert by_type["meta"][0]["version"] == 1
        span_names = [r["name"] for r in by_type["span"]]
        assert span_names == ["discovery", "sampling"]
        assert by_type["span"][1]["depth"] == 1
        assert by_type["span"][1]["attrs"] == {"non_fds": 3}
        event = by_type["event"][0]
        assert event["name"] == "ratio_decision"
        assert event["span"] == "discovery"
        # non-finite floats are clamped so every line is strict JSON
        assert event["attrs"]["ratio"] == pytest.approx(1e9)
        counter = by_type["counter"][0]
        assert (counter["name"], counter["value"]) == ("partition_cache.hits", 5)
        assert by_type["histogram"][0]["count"] == 1

    def test_jsonl_stream_target(self):
        buffer = io.StringIO()
        write_trace_jsonl(self._traced(), buffer)
        buffer.seek(0)
        for line in buffer.read().splitlines():
            json.loads(line)

    def test_trace_records_iterates_fresh(self):
        tracer = self._traced()
        assert list(trace_records(tracer)) == list(trace_records(tracer))

    def test_trace_summary_aggregates_by_name(self):
        tracer = Tracer(clock=FakeClock())
        for level in (1, 2):
            with tracer.span("validation", level=level):
                pass
        tracer.event("ratio_decision", level=1)
        tracer.event("ratio_decision", level=2)
        summary = trace_summary(tracer)
        assert summary["spans"]["validation"]["count"] == 2
        assert summary["spans"]["validation"]["seconds"] > 0
        assert summary["events"]["ratio_decision"] == 2
        json.dumps(summary)


class TestStackWiring:
    def test_dhyfd_trace_has_expected_phases(self, city_relation):
        tracer = Tracer()
        with use_tracer(tracer):
            DHyFD().discover(city_relation)
        names = set(tracer.span_names())
        assert {"discovery", "sampling", "validation", "induction"} <= names
        assert tracer.find_events("ratio_decision")
        decision = tracer.find_events("ratio_decision")[0]
        assert {"level", "efficiency", "inefficiency", "ratio", "refresh"} <= set(
            decision.attrs
        )
        cache_events = tracer.find_events("partition_cache")
        assert cache_events and "hits" in cache_events[0].attrs

    def test_dhyfd_stats_surface_ddm_cache(self, city_relation):
        result = DHyFD().discover(city_relation)
        stats = result.stats
        # singleton-id resolutions are by design, tracked apart from
        # hits (dynamic partitions) and misses (stale fallbacks)
        lookups = (
            stats.partition_cache_hits
            + stats.partition_cache_misses
            + stats.partition_singleton_lookups
        )
        assert lookups > 0
        assert stats.induction_nodes_visited > 0

    def test_naive_stats_surface_partition_cache(self, city_relation):
        from repro.algorithms.naive import NaiveFDDiscovery

        stats = NaiveFDDiscovery().discover(city_relation).stats
        assert stats.partition_cache_misses > 0

    def test_partition_cache_counts_evictions(self, city_relation):
        from repro.core.ddm import DynamicDataManager
        from repro.core.result import DiscoveryStats
        from repro.fdtree.extended import ExtendedFDTree

        tree = ExtendedFDTree(city_relation.n_cols)
        nodes = [tree.add_fd(attrset.from_attrs([1, 2]), attrset.singleton(3))]
        tracer = Tracer()
        with use_tracer(tracer):
            ddm = DynamicDataManager(city_relation)
            ddm.update(nodes)
            ddm.update(nodes)  # replaces the first round's array
            stats = DiscoveryStats()
            ddm.record_telemetry(stats)
        assert ddm.evictions == stats.partition_cache_evictions == 1
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["partition_cache.evictions"] == 1
        (event,) = tracer.find_events("partition_cache")
        assert event.attrs["scope"] == "ddm"
        assert event.attrs["evictions"] == 1

    def test_partition_cache_feeds_telemetry_counters(self, city_relation):
        tracer = Tracer()
        with use_tracer(tracer):
            cache = PartitionCache(city_relation)
            mask = attrset.add(attrset.add(attrset.EMPTY, 0), 1)
            cache.get(mask)
            cache.get(mask)
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["partition_cache.hits"] == 1
        assert counters["partition_cache.misses"] == 1

    def test_discovery_runs_clean_without_tracer(self, city_relation):
        # The no-op default: discovery works and records nothing.
        result = DHyFD().discover(city_relation)
        assert result.fd_count > 0
        assert current_tracer() is NOOP_TRACER

    def test_profile_trace_smoke(self, city_relation):
        outcome = profile(city_relation, trace=True)
        tracer = outcome.tracer
        assert tracer is not None
        names = set(tracer.span_names())
        assert {
            "discovery",
            "sampling",
            "validation",
            "induction",
            "covers",
            "ranking",
            "redundancy",
        } <= names
        # ranking and redundancy share one mask pass, which reports its
        # partition cache once
        scopes = [e.attrs["scope"] for e in tracer.find_events("partition_cache")]
        assert "ranking" not in scopes
        assert scopes.count("redundancy") == 1

    def test_profile_accepts_existing_tracer(self, city_relation):
        tracer = Tracer()
        outcome = profile(city_relation, trace=tracer, rank=False)
        assert outcome.tracer is tracer
        assert tracer.find_spans("discovery")

    def test_profile_without_trace_has_no_tracer(self, city_relation):
        outcome = profile(city_relation, rank=False)
        assert outcome.tracer is None

    def test_hyfd_trace_phases(self, city_relation):
        tracer = Tracer()
        with use_tracer(tracer):
            from repro.algorithms.hyfd import HyFD

            HyFD().discover(city_relation)
        names = set(tracer.span_names())
        assert {"discovery", "sampling", "validation", "induction"} <= names

    def test_bench_runner_emits_telemetry_summary(self, city_relation):
        record, result = run_discovery(city_relation, "dhyfd", trace=True)
        assert result is not None
        assert record.telemetry is not None
        assert record.telemetry["spans"]["discovery"]["count"] == 1
        assert "validation" in record.telemetry["spans"]
        json.dumps(record.telemetry)

    def test_bench_runner_without_trace(self, city_relation):
        record, _ = run_discovery(city_relation, "dhyfd")
        assert record.telemetry is None

    def test_memory_tracking_records_deltas(self, city_relation):
        tracer = Tracer(track_memory=True)
        try:
            with use_tracer(tracer):
                DHyFD().discover(city_relation)
            sampling = tracer.find_spans("sampling")[0]
            assert sampling.memory_delta_bytes is not None
            assert sampling.memory_peak_bytes is not None
        finally:
            tracer.close()
