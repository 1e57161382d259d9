"""Tests for repro.resilience: budgets, degradation, faults, partial results.

The load-bearing properties:

* a tripped limit with ``on_limit="partial"`` returns a *sound* cover —
  every FD in it holds on the full relation — plus the unverified rest;
* a memory budget refuses DHyFD the partition refreshes that would not
  fit instead of killing the run, its recorded peak stays within the
  budget, and the cover is byte-identical to the unconstrained one
  (the budget grid below);
* armed fault points make the stack fail exactly where production code
  claims to survive, and it does.
"""

from __future__ import annotations

import pytest

from repro.algorithms import make_algorithm
from repro.core.base import Deadline, RunContext, TimeLimitExceeded
from repro.core.ddm import DynamicDataManager, refine_bound
from repro.core.dhyfd import DHyFD, _admit_refresh
from repro.core.ratio import DEFAULT_RATIO_THRESHOLD
from repro.core.validation import check_fd
from repro.covers.canonical import canonical_cover
from repro.datasets.benchmarks import load_benchmark
from repro.fdtree.extended import ExtendedFDTree
from repro.partitions.stripped import StrippedPartition
from repro.ranking.ranker import rank_cover
from repro.ranking.redundancy import dataset_redundancy
from repro.relational import attrset
from repro.relational.fd import FDSet
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
# TANE: a running total checked after every partition it stores
# ----------------------------------------------------------------------


def _floor_bytes(relation):
    """Universal plus singleton partitions: what no run can shed."""
    return DynamicDataManager(relation).memory_bytes()


class TestTaneBudget:
    def test_aborts_only_above_the_floor(self):
        relation = load_benchmark("ncvoter")
        floor = _floor_bytes(relation)
        assert floor == 75_588
        with pytest.raises(BudgetExceeded) as excinfo:
            make_algorithm(
                "tane", budget=RunBudget(memory_limit_bytes=floor - 1)
            ).discover(relation)
        assert excinfo.value.limit == floor - 1
        assert excinfo.value.usage > floor

    def test_aborts_at_the_first_partition_over_the_limit(self):
        # Checked on every partition, not on a sampled poll: a limit one
        # byte under the unbudgeted peak trips exactly at the peak.
        relation = load_benchmark("ncvoter")
        baseline = make_algorithm("tane").discover(relation)
        peak = baseline.stats.partition_memory_peak_bytes
        with pytest.raises(BudgetExceeded) as excinfo:
            make_algorithm(
                "tane", budget=RunBudget(memory_limit_bytes=peak - 1)
            ).discover(relation)
        assert excinfo.value.usage == peak
        exact = make_algorithm(
            "tane", budget=RunBudget(memory_limit_bytes=peak)
        ).discover(relation)
        assert _fd_tuples(exact.fds) == _fd_tuples(baseline.fds)

    def test_hyfd_holds_only_its_floor(self):
        # HyFD keeps the universal and singleton partitions alone, so
        # no budget can make it abort.
        relation = make_random_relation(11)
        baseline = make_algorithm("hyfd").discover(relation)
        result = make_algorithm(
            "hyfd", budget=RunBudget(memory_limit_bytes=1)
        ).discover(relation)
        assert result.completed
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)

    def test_hyfd_peak_is_the_floor(self):
        # HyFD's recorded peak is the floor DHyFD and TANE count too.
        relation = load_benchmark("ncvoter")
        result = make_algorithm("hyfd").discover(relation)
        assert result.stats.partition_memory_peak_bytes == _floor_bytes(relation)


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

    def test_fits_only_with_memory_budget(self):
        unlimited = RunContext("test", RunBudget(time_limit=5.0))
        assert unlimited.fits(10 ** 12)
        limited = RunContext("test", RunBudget(memory_limit_bytes=1024))
        assert limited.fits(1024)
        assert not limited.fits(1025)

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
#: (name, after, top_k): every algorithm and fault point, once with
#: ``discover`` and once more with ``discover_top_k(2)`` on ncvoter,
#: where every one of them cuts every algorithm short with up to 207
#: sound FDs to cut to k.
PARTIAL_CASES = [
    pytest.param(name, after, k, id=f"{after}-{name}" + ("" if k is None else f"-top{k}"))
    for k in (None, 2)
    for after in (0, 5, 40, 300)
    for name in PARTIAL_ALGORITHMS
]


class TestPartialResults:
    @pytest.mark.parametrize("name, after, k", PARTIAL_CASES)
    def test_partial_cover_is_sound(self, name, after, k):
        relation = make_random_relation(11) if k is None else load_benchmark("ncvoter")
        faults.activate("limit.deadline", times=1, after=after)
        tracer = Tracer()
        with use_tracer(tracer):
            result = make_algorithm(name, on_limit="partial").discover(relation)
        faults.reset()
        if k is not None:
            # The same fault again: the top-k answer is the first k of
            # ranking what discover() reported as sound.
            faults.activate("limit.deadline", times=1, after=after)
            top = make_algorithm(name, on_limit="partial").discover_top_k(relation, k)
            faults.reset()
            ranking = rank_cover(relation, result.fds, top_k=k)
            assert len(top.fds) <= k
            assert top.fds == FDSet(ranked.fd for ranked in ranking.ranked)
            assert top.unverified == result.unverified
            assert top.completed == result.completed
        if result.completed:
            # The limit fired after discovery finished polling: the run
            # completed normally and must equal the unconstrained cover.
            complete = make_algorithm(name).discover(relation)
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
# Refresh admission (DHyFD under a memory budget)
# ----------------------------------------------------------------------


class TestAdmitRefresh:
    """The three answers of DHyFD's admission check, on one DDM."""

    @pytest.fixture
    def setup(self):
        relation = load_benchmark("bridges", n_rows=80)
        ddm = DynamicDataManager(relation)
        tree = ExtendedFDTree(relation.n_cols)
        # Refine the parent {a} from a large singleton, then ask for
        # {a, b}, where b's singleton is much smaller than the parent.
        size = [partition.size for partition in ddm.singletons]
        a, b = max(
            ((a, b) for a in range(len(size)) for b in range(a + 1, len(size))),
            key=lambda pair: size[pair[0]] - size[pair[1]],
        )
        rhs = next(c for c in range(relation.n_cols) if c not in (a, b))
        end = tree.add_fd(attrset.from_attrs([a, b]), attrset.singleton(rhs))
        ddm.update([end.parent])
        held = ddm.memory_bytes()
        from_dynamic = held + refine_bound(ddm.bases([end]))
        from_singletons = (
            held - ddm.dynamic_memory_bytes()
            + refine_bound([ddm.store.best_singleton(end.path())])
        )
        assert from_singletons < from_dynamic
        return ddm, end, from_dynamic, from_singletons

    @staticmethod
    def _admit(ddm, end, limit):
        context = RunContext("dhyfd", RunBudget(memory_limit_bytes=limit))
        return _admit_refresh(ddm, [end], context)

    def test_admits_what_fits_beside_the_old_array(self, setup):
        ddm, end, from_dynamic, _ = setup
        assert self._admit(ddm, end, from_dynamic)
        assert ddm.dynamic  # kept: the node refines from it

    def test_drops_the_old_array_when_that_alone_fits(self, setup):
        ddm, end, from_dynamic, from_singletons = setup
        assert self._admit(ddm, end, from_dynamic - 1)
        assert not ddm.dynamic
        ddm.update([end])
        assert ddm.memory_bytes() <= from_singletons

    def test_refuses_and_keeps_the_old_array(self, setup):
        ddm, end, _, from_singletons = setup
        old = list(ddm.dynamic)
        assert not self._admit(ddm, end, from_singletons - 1)
        assert ddm.dynamic == old


class TestDegradation:
    def test_one_byte_budget_refuses_every_refresh(self):
        relation = load_benchmark("ncvoter")
        baseline = DHyFD().discover(relation)
        assert baseline.stats.partition_refreshes > 0
        tracer = Tracer()
        with use_tracer(tracer):
            result = DHyFD(budget=RunBudget(memory_limit_bytes=1)).discover(
                relation
            )
        assert result.completed
        assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds)
        assert result.stats.partition_refreshes == 0
        assert not tracer.find_events("degradation")
        events = tracer.find_events("ratio_decision")
        for event in events:
            attrs = event.attrs
            # The ratio asks for a refresh above level 1 when it beats
            # the threshold; 1e9 is the cap of an infinite ratio, which
            # means no reusable node (nothing to refresh).
            asked = attrs["level"] > 1 and (
                DEFAULT_RATIO_THRESHOLD < attrs["ratio"] < 1e9
            )
            assert not attrs["refresh"]
            assert attrs["refused"] == asked
        assert any(event.attrs["refused"] for event in events)

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
        # A budget below DHyFD's unbudgeted peak: DHyFD refuses the
        # refreshes that would not fit, stays within the budget whenever
        # its floor does, and returns the same cover; HyFD returns it
        # too and TANE returns it or aborts — never a different cover.
        for dataset in ("ncvoter", "bridges", "letter", "adult"):
            relation = load_benchmark(dataset)
            baseline = DHyFD().discover(relation)
            limit = int(baseline.stats.partition_memory_peak_bytes * factor)
            budget = RunBudget(memory_limit_bytes=limit)
            result = DHyFD(budget=budget).discover(relation)
            assert _fd_tuples(result.fds) == _fd_tuples(baseline.fds), dataset
            if _floor_bytes(relation) < limit:
                assert result.stats.partition_memory_peak_bytes <= limit, dataset
            for name in ("hyfd", "tane"):
                try:
                    other = make_algorithm(name, budget=budget).discover(relation)
                except BudgetExceeded:
                    continue
                assert _fd_tuples(other.fds) == _fd_tuples(baseline.fds), name


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
        # A MemoryError inside DDM refinement drops the refined
        # partitions and stops refining; the run finishes with the
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
        assert stages == ["disable_refinement"]
        assert result.stats.partition_refreshes == 0

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
