"""Tests for repro.resilience: budgets, degradation, faults, partial results.

The load-bearing properties:

* a tripped limit with ``on_limit="partial"`` returns a *sound* cover —
  every FD in it holds on the full relation — plus the unverified rest;
* a memory budget degrades a run (evict refined partitions, then also
  stop refining) instead of killing it, and the degraded cover is
  byte-identical to the unconstrained one (the budget grid below);
* armed fault points make the stack fail exactly where production code
  claims to survive, and it does.
"""

from __future__ import annotations

import pytest

from repro.algorithms import make_algorithm
from repro.core.base import Deadline, RunContext, TimeLimitExceeded
from repro.core.ddm import DynamicDataManager
from repro.core.dhyfd import DHyFD
from repro.core.validation import check_fd
from repro.covers.canonical import canonical_cover
from repro.datasets.benchmarks import load_benchmark
from repro.partitions.stripped import StrippedPartition
from repro.ranking.ranker import rank_cover
from repro.ranking.redundancy import dataset_redundancy
from repro.resilience import BudgetExceeded, RunBudget, faults, parse_bytes
from repro.telemetry import Tracer, use_tracer
from repro.ucc.discovery import discover_uccs
from tests.conftest import make_random_relation

@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """Every test starts and ends with nothing armed anywhere."""
    monkeypatch.delenv(faults.ENV_FAULTS, raising=False)
    faults.reset()
    yield
    faults.reset()


def _fd_tuples(fds):
    return {(fd.lhs, fd.rhs) for fd in fds}


def _assert_sound(relation, fds):
    for fd in fds:
        assert check_fd(relation, fd.lhs, fd.rhs), (
            f"partial cover contains a violated FD: "
            f"{fd.format(relation.schema)}"
        )


# ----------------------------------------------------------------------
# Deadline edge cases (regression: zero/negative limits never fired)
# ----------------------------------------------------------------------


class TestDeadlineEdges:
    def test_zero_limit_trips_on_first_check(self):
        deadline = Deadline(0.0, "edge")
        with pytest.raises(TimeLimitExceeded):
            deadline.check()

    def test_negative_limit_clamps_to_expired(self):
        deadline = Deadline(-5.0, "edge")
        with pytest.raises(TimeLimitExceeded):
            deadline.check()

    def test_none_never_trips(self):
        Deadline(None, "edge").check()

    def test_generous_limit_does_not_trip(self):
        Deadline(3600.0, "edge").check()


# ----------------------------------------------------------------------
# Budget parsing
# ----------------------------------------------------------------------


class TestParseBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1024, 1024),
            ("1024", 1024),
            ("4k", 4 * 1024),
            ("4K", 4 * 1024),
            ("64m", 64 * 1024 ** 2),
            ("64MB", 64 * 1024 ** 2),
            ("1g", 1024 ** 3),
            ("1.5g", int(1.5 * 1024 ** 3)),
        ],
    )
    def test_valid(self, value, expected):
        assert parse_bytes(value) == expected

    @pytest.mark.parametrize("value", ["", "nope", "4x", "m", 0, -1, "0"])
    def test_invalid(self, value):
        with pytest.raises(ValueError):
            parse_bytes(value)


class TestRunBudget:
    def test_defaults_limit_nothing(self):
        budget = RunBudget()
        assert budget.memory_limit_bytes is None
        assert budget.time_limit is None


# ----------------------------------------------------------------------
# Memory sentinel (RunContext.watch_memory)
# ----------------------------------------------------------------------


class _FakeStore:
    """A byte counter whose relief frees ``amount`` per call, ``calls`` times."""

    def __init__(self, usage, amount=0, calls=0):
        self.usage = usage
        self.amount = amount
        self.calls = calls
        self.relieved = 0

    def probe(self):
        return self.usage

    def relieve(self):
        if self.relieved == self.calls:
            return False
        self.relieved += 1
        self.usage -= min(self.amount, self.usage)
        return True


class TestMemorySentinel:
    @pytest.fixture(autouse=True)
    def _every_check_probes(self, monkeypatch):
        monkeypatch.setattr(RunContext, "CHECK_STRIDE", 1)

    def _watch(self, store, limit):
        context = RunContext("test", RunBudget(memory_limit_bytes=limit))
        context.watch_memory(store.probe, store.relieve)
        return context

    def test_stages_fire_in_order_until_under_limit(self):
        store = _FakeStore(0, amount=300, calls=3)
        context = self._watch(store, limit=400)
        store.usage = 1000
        context.check()
        # 1000 -> 700 (still over) -> 400 (not over): third call unused.
        assert store.relieved == 2
        assert store.usage == 400

    def test_exhausted_ladder_aborts_beyond_floor(self):
        store = _FakeStore(200, amount=500, calls=1)
        context = self._watch(store, limit=100)  # floor: 200
        store.usage = 1000
        with pytest.raises(BudgetExceeded) as excinfo:
            context.check()  # 1000 -> 500, nothing left, 500 > 200
        assert excinfo.value.limit == 100
        assert excinfo.value.usage == 500
        assert store.relieved == 1

    def test_floor_tolerance_prevents_abort(self):
        # Usage sheds down to the irreducible baseline; budget is below
        # the baseline, but the watch tolerates it (no abort).
        store = _FakeStore(500, amount=500, calls=1)
        context = self._watch(store, limit=100)  # floor: 500
        store.usage = 1000
        context.check()  # 1000 -> 500 == floor: tolerated
        assert store.usage == 500
        context.check()  # still over limit, still tolerated

    def test_checks_are_strided(self, monkeypatch):
        monkeypatch.setattr(RunContext, "CHECK_STRIDE", 16)
        probes = []
        context = RunContext("test", RunBudget(memory_limit_bytes=100))
        context.watch_memory(lambda: probes.append(1) or 1000)
        probes.clear()  # the install-time floor probe
        for _ in range(RunContext.CHECK_STRIDE - 1):
            context.check()
        assert not probes
        context.check()
        assert probes


# ----------------------------------------------------------------------
# Fault registry
# ----------------------------------------------------------------------


class TestFaultRegistry:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            faults.activate("no.such.point")

    def test_unarmed_is_silent(self):
        assert not faults.armed()
        assert not faults.should_fire("ddm.stale")
        faults.fire("ddm.stale")  # no-op

    def test_times_and_after(self):
        faults.activate("ddm.stale", times=2, after=1)
        assert not faults.should_fire("ddm.stale")  # skipped
        assert faults.should_fire("ddm.stale")
        assert faults.should_fire("ddm.stale")
        assert not faults.should_fire("ddm.stale")  # budget spent
        assert not faults.is_active("ddm.stale")

    def test_fire_raises_default_and_custom(self):
        faults.activate("partition.build.memory")
        with pytest.raises(MemoryError):
            faults.fire("partition.build.memory", MemoryError)
        with pytest.raises(faults.FaultInjected) as excinfo:
            faults.fire("partition.build.memory")
        assert excinfo.value.point == "partition.build.memory"

    def test_deactivate_and_reset(self):
        faults.activate("ddm.stale")
        faults.deactivate("ddm.stale")
        assert not faults.is_active("ddm.stale")
        faults.activate("ddm.stale")
        faults.reset()
        assert not faults.armed()

    def test_env_bare_entry_always_fires(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULTS, "ddm.stale , journal.replay")
        assert faults.is_active("ddm.stale")
        assert faults.is_active("journal.replay")
        assert faults.should_fire("ddm.stale")
        assert faults.should_fire("ddm.stale")
        assert not faults.should_fire("journal.torn_write")

    def test_arm_once_fires_exactly_once(self):
        import os

        token = faults.arm_once("journal.torn_write")
        try:
            assert os.path.exists(token)
            assert faults.is_active("journal.torn_write")
            assert faults.should_fire("journal.torn_write")  # claims the token
            assert not os.path.exists(token)
            assert not faults.should_fire("journal.torn_write")
        finally:
            faults.disarm("journal.torn_write")
        assert faults.ENV_FAULTS not in os.environ

    def test_corrupt_csv_row(self):
        record = ["a", "b", "c"]
        assert faults.corrupt_csv_row(record) == record
        faults.activate("csv.corrupt_row", times=1)
        assert faults.corrupt_csv_row(record) == ["a", "b"]
        assert faults.corrupt_csv_row(record) == record


# ----------------------------------------------------------------------
# RunContext
# ----------------------------------------------------------------------


class TestRunContext:
    def test_quacks_like_deadline(self):
        context = RunContext("test", RunBudget())
        context.check()

    def test_limit_deadline_fault_trips_check(self):
        context = RunContext("test", RunBudget())
        faults.activate("limit.deadline", times=1)
        with pytest.raises(TimeLimitExceeded):
            context.check()
        context.check()  # disarmed again

    def test_sentinel_only_with_memory_budget(self, monkeypatch):
        monkeypatch.setattr(RunContext, "CHECK_STRIDE", 1)
        probes = []
        unlimited = RunContext("test", RunBudget(time_limit=5.0))
        unlimited.watch_memory(lambda: probes.append(1) or 10 ** 9)
        unlimited.check()
        assert not probes
        limited = RunContext("test", RunBudget(memory_limit_bytes=1024))
        limited.watch_memory(lambda: probes.append(1) or 512)
        limited.check()
        assert len(probes) == 2  # the install-time floor, then the check

    def test_partial_cover_defaults_empty(self):
        context = RunContext("test", RunBudget())
        sound, unverified = context.partial_cover()
        assert len(sound) == 0 and len(unverified) == 0

    def test_on_limit_validated(self):
        with pytest.raises(ValueError):
            make_algorithm("dhyfd", on_limit="bogus")


# ----------------------------------------------------------------------
# Anytime partial results
# ----------------------------------------------------------------------


PARTIAL_ALGORITHMS = ["dhyfd", "hyfd", "tane"]


class TestPartialResults:
    @pytest.mark.parametrize("name", PARTIAL_ALGORITHMS)
    @pytest.mark.parametrize("after", [0, 5, 40, 300])
    def test_partial_cover_is_sound(self, name, after):
        relation = make_random_relation(11)
        complete = make_algorithm(name).discover(relation)
        faults.activate("limit.deadline", times=1, after=after)
        tracer = Tracer()
        with use_tracer(tracer):
            result = make_algorithm(name, on_limit="partial").discover(relation)
        faults.reset()
        if result.completed:
            # The limit fired after discovery finished polling: the run
            # completed normally and must equal the unconstrained cover.
            assert _fd_tuples(result.fds) == _fd_tuples(complete.fds)
            return
        assert result.limit_reason == "time"
        _assert_sound(relation, result.fds)
        events = tracer.find_events("partial_result")
        assert events and events[0].attrs["algorithm"] == name

    @pytest.mark.parametrize("name", PARTIAL_ALGORITHMS)
    def test_raise_policy_propagates(self, name):
        relation = make_random_relation(11)
        faults.activate("limit.deadline", times=1)
        with pytest.raises(TimeLimitExceeded):
            make_algorithm(name).discover(relation)

    def test_partial_result_repr_and_counts(self):
        relation = make_random_relation(11)
        faults.activate("limit.deadline", times=1, after=10)
        result = DHyFD(on_limit="partial").discover(relation)
        if result.completed:
            pytest.skip("relation too small to interrupt mid-run")
        assert "partial/time" in repr(result)
        assert result.limit_reason == "time"

    def test_memory_fault_yields_memory_partial(self):
        relation = make_random_relation(11)
        faults.activate("partition.build.memory", times=1)
        result = DHyFD(on_limit="partial").discover(relation)
        assert not result.completed
        assert result.limit_reason == "memory"
        _assert_sound(relation, result.fds)


# ----------------------------------------------------------------------
# Degradation ladder (DHyFD under a memory budget)
# ----------------------------------------------------------------------


class TestDegradation:
    def test_tiny_budget_walks_full_ladder_and_still_completes(self, monkeypatch):
        # Pin the probe stride to 1 so even a fast run polls the budget.
        monkeypatch.setattr(RunContext, "CHECK_STRIDE", 1)
        relation = make_random_relation(11)
        baseline = DHyFD().discover(relation)
        tracer = Tracer()
        with use_tracer(tracer):
            result = DHyFD(budget=RunBudget(memory_limit_bytes=1)).discover(
                relation
            )
        assert result.completed
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)
        events = tracer.find_events("degradation")
        assert [e.attrs["stage"] for e in events] == [
            "evict_refined_partitions",
            "disable_refinement",
        ]
        for event in events:
            assert event.attrs["resource"] == "memory"
            assert event.attrs["limit"] == 1
            assert event.attrs["usage"] - event.attrs["freed"] >= 0

    def test_half_peak_budget_byte_identical_cover(self, monkeypatch):
        relation = make_random_relation(11)
        peak = {"bytes": 0}
        original_update = DynamicDataManager.update
        original_init = DynamicDataManager.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            peak["bytes"] = max(peak["bytes"], self.memory_bytes())

        def tracking_update(self, reusables):
            out = original_update(self, reusables)
            peak["bytes"] = max(peak["bytes"], self.memory_bytes())
            return out

        monkeypatch.setattr(DynamicDataManager, "__init__", tracking_init)
        monkeypatch.setattr(DynamicDataManager, "update", tracking_update)
        baseline = DHyFD().discover(relation)
        monkeypatch.undo()
        assert peak["bytes"] > 0
        budget = RunBudget(memory_limit_bytes=max(1, peak["bytes"] // 2))
        result = DHyFD(budget=budget).discover(relation)
        assert result.completed
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)

    @pytest.mark.parametrize("factor", [0.9, 0.7, 0.5])
    def test_budget_grid_never_changes_the_cover(self, factor):
        # A budget below DHyFD's unbudgeted peak: DHyFD degrades and
        # returns the same cover; HyFD and TANE, with nothing to relieve,
        # return the exact cover or abort — never a different cover.
        relation = load_benchmark("ncvoter")
        baseline = DHyFD().discover(relation)
        limit = int(baseline.stats.partition_memory_peak_bytes * factor)
        budget = RunBudget(memory_limit_bytes=limit)
        result = DHyFD(budget=budget).discover(relation)
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)
        for name in ("hyfd", "tane"):
            try:
                other = make_algorithm(name, budget=budget).discover(relation)
            except BudgetExceeded:
                continue
            assert _fd_tuples(other.fds) == _fd_tuples(baseline.fds)


# ----------------------------------------------------------------------
# Chaos: injected faults at the instrumented sites
# ----------------------------------------------------------------------


class TestChaosFaults:
    def test_partition_build_fault_fires(self, city_relation):
        faults.activate("partition.build.memory", times=1)
        with pytest.raises(MemoryError):
            StrippedPartition.for_attribute(city_relation, 0)
        StrippedPartition.for_attribute(city_relation, 0)  # disarmed

    def test_partition_refine_fault_fires(self, city_relation):
        base = StrippedPartition.for_attribute(city_relation, 1)
        faults.activate("partition.refine.memory", times=1)
        with pytest.raises(MemoryError):
            base.refine(city_relation, 2)

    def test_refine_fault_degrades_dhyfd_not_kills(self):
        # A MemoryError inside DDM refinement calls the memory relief
        # (drop the refined partitions); the run finishes with the
        # correct cover.  bridges refines once, so the fault fires there.
        relation = load_benchmark("bridges", n_rows=80)
        baseline = DHyFD().discover(relation)
        assert baseline.stats.partition_refreshes > 0
        faults.activate("partition.refine.memory", times=1)
        tracer = Tracer()
        with use_tracer(tracer):
            result = DHyFD().discover(relation)
        assert result.completed
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)
        stages = [e.attrs["stage"] for e in tracer.find_events("degradation")]
        assert stages == ["evict_refined_partitions"]

    def test_ddm_stale_fault_keeps_cover_correct(self):
        relation = make_random_relation(7)
        baseline = DHyFD().discover(relation)
        faults.activate("ddm.stale")
        result = DHyFD().discover(relation)
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)


# ----------------------------------------------------------------------
# Profile: ranking under the leftover time budget
# ----------------------------------------------------------------------


class TestProfilePartial:
    def test_ranking_timeout_skips_under_partial(self, monkeypatch, city_relation):
        from repro.profiling import profiler

        def exploding_masks(*args, **kwargs):
            raise TimeLimitExceeded("ranking", 0.0)

        monkeypatch.setattr(profiler, "lhs_row_masks", exploding_masks)
        outcome = profiler.profile(
            city_relation, algorithm="dhyfd", on_limit="partial"
        )
        assert outcome.ranking is None
        assert outcome.redundancy is None
        assert outcome.discovery.completed

    def test_ranking_timeout_propagates_under_raise(
        self, monkeypatch, city_relation
    ):
        from repro.profiling import profiler

        def exploding_masks(*args, **kwargs):
            raise TimeLimitExceeded("ranking", 0.0)

        monkeypatch.setattr(profiler, "lhs_row_masks", exploding_masks)
        with pytest.raises(TimeLimitExceeded):
            profiler.profile(city_relation, algorithm="dhyfd")

    def test_partial_summary_mentions_limit(self):
        relation = make_random_relation(11)
        faults.activate("limit.deadline", times=1, after=5)
        from repro.profiling import profiler

        outcome = profiler.profile(
            relation, algorithm="dhyfd", on_limit="partial", rank=False
        )
        faults.reset()
        if not outcome.discovery.completed:
            assert "PARTIAL RESULT" in outcome.summary()


# ----------------------------------------------------------------------
# Deadline plumbing in ranking and UCC discovery
# ----------------------------------------------------------------------


class TestDownstreamDeadlines:
    def test_rank_cover_polls_deadline(self, city_relation):
        cover = canonical_cover(DHyFD().discover(city_relation).fds)
        with pytest.raises(TimeLimitExceeded):
            rank_cover(city_relation, cover, deadline=Deadline(0.0, "ranking"))

    def test_dataset_redundancy_polls_deadline(self, city_relation):
        cover = canonical_cover(DHyFD().discover(city_relation).fds)
        with pytest.raises(TimeLimitExceeded):
            dataset_redundancy(
                city_relation, cover, deadline=Deadline(0.0, "ranking")
            )

    def test_discover_uccs_accepts_shared_deadline(self, city_relation):
        with pytest.raises(TimeLimitExceeded):
            discover_uccs(city_relation, deadline=Deadline(0.0, "ucc"))

    def test_discover_uccs_zero_time_limit(self, city_relation):
        with pytest.raises(TimeLimitExceeded):
            discover_uccs(city_relation, time_limit=0.0)
