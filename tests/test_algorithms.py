"""Per-algorithm behaviour tests (beyond cross-algorithm agreement)."""

from __future__ import annotations

import random

import pytest

from repro.algorithms import (
    DHyFD,
    FDEP,
    FDEP1,
    FDEP2,
    HyFD,
    NaiveFDDiscovery,
    TANE,
    algorithm_names,
    make_algorithm,
)
from repro.core.base import TimeLimitExceeded
from repro.datasets.synthetic import constant_column_relation, random_relation
from repro.relational import attrset
from repro.relational.fd import FD
from repro.relational.relation import Relation

ALL_ALGORITHMS = ["naive", "tane", "fdep", "fdep1", "fdep2", "hyfd", "dhyfd"]


def fd_tuples(fds):
    return {(tuple(attrset.to_list(f.lhs)), attrset.to_list(f.rhs)[0]) for f in fds}


class TestRegistry:
    def test_names(self):
        assert set(ALL_ALGORITHMS) <= set(algorithm_names())

    def test_make_algorithm(self):
        assert isinstance(make_algorithm("tane"), TANE)
        assert isinstance(make_algorithm("dhyfd"), DHyFD)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_algorithm("nope")

    def test_kwargs_forwarded(self):
        algo = make_algorithm("dhyfd", ratio_threshold=5.0)
        assert algo.ratio_threshold == 5.0


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
class TestCommonBehaviour:
    def test_city_relation_exact(self, name, city_relation):
        """Hand-verified cover of the fixture relation."""
        result = make_algorithm(name).discover(city_relation)
        got = fd_tuples(result.fds)
        # name (0) is a key; zip (1) -> city (2); state (3) constant.
        expected = {
            ((), 3),
            ((0,), 1),
            ((0,), 2),
            ((1,), 2),
            ((1, 2), 0),  # zip+city pin down the single z2/c3-ish rows?
        }
        # compute the precise expectation from the oracle instead of
        # hand-listing borderline accidental FDs:
        oracle = fd_tuples(NaiveFDDiscovery().discover(city_relation).fds)
        assert got == oracle
        assert {((), 3), ((0,), 1), ((1,), 2)} <= got

    def test_single_row(self, name):
        rel = Relation.from_rows([("a", "b")])
        result = make_algorithm(name).discover(rel)
        # every column is constant on a single row
        assert fd_tuples(result.fds) == {((), 0), ((), 1)}

    def test_single_column_constant(self, name):
        rel = Relation.from_rows([("x",), ("x",)])
        result = make_algorithm(name).discover(rel)
        assert fd_tuples(result.fds) == {((), 0)}

    def test_single_column_varying(self, name):
        rel = Relation.from_rows([("x",), ("y",)])
        result = make_algorithm(name).discover(rel)
        assert len(result.fds) == 0

    def test_constant_columns(self, name):
        rel = constant_column_relation(15, 4, [1, 3], seed=2)
        result = make_algorithm(name).discover(rel)
        got = fd_tuples(result.fds)
        assert ((), 1) in got
        assert ((), 3) in got

    def test_result_metadata(self, name, city_relation):
        result = make_algorithm(name).discover(city_relation)
        assert result.algorithm == name
        assert result.elapsed_seconds >= 0
        assert result.schema == city_relation.schema

    def test_output_is_left_reduced(self, name):
        rel = random_relation(40, 5, domain_sizes=3, seed=11)
        result = make_algorithm(name).discover(rel)
        from repro.core.validation import check_fd

        for fd in result.fds:
            assert check_fd(rel, fd.lhs, fd.rhs)
            for attr in attrset.iter_attrs(fd.lhs):
                reduced = attrset.remove(fd.lhs, attr)
                assert not check_fd(rel, reduced, fd.rhs), (
                    f"{name}: {fd} is not left-reduced"
                )


class TestTimeLimit:
    def test_fdep_times_out(self):
        rel = random_relation(400, 8, domain_sizes=3, seed=0)
        with pytest.raises(TimeLimitExceeded):
            FDEP(time_limit=0.0).discover(rel)

    def test_tane_times_out(self):
        rel = random_relation(200, 8, domain_sizes=2, seed=0)
        with pytest.raises(TimeLimitExceeded):
            TANE(time_limit=0.0).discover(rel)

    def test_no_limit_by_default(self, city_relation):
        result = DHyFD().discover(city_relation)
        assert result.fd_count >= 3


class TestDHyFDSpecifics:
    def test_ratio_threshold_does_not_change_output(self):
        rel = random_relation(60, 6, domain_sizes=3, seed=4)
        low = DHyFD(ratio_threshold=0.1).discover(rel)
        high = DHyFD(ratio_threshold=100.0).discover(rel)
        assert low.fds == high.fds

    def test_ddm_ablation_same_output(self):
        rel = random_relation(60, 6, domain_sizes=3, seed=4)
        on = DHyFD().discover(rel)
        off = DHyFD(enable_ddm_updates=False).discover(rel)
        assert on.fds == off.fds
        assert off.stats.partition_refreshes == 0

    def test_sampling_ablation_same_output(self):
        rel = random_relation(60, 6, domain_sizes=3, seed=4)
        sampled = DHyFD().discover(rel)
        unsampled = DHyFD(enable_initial_sampling=False).discover(rel)
        assert sampled.fds == unsampled.fds
        assert unsampled.stats.sampled_non_fds == 0

    def test_level_log_recorded(self):
        rel = random_relation(50, 5, domain_sizes=2, seed=9)
        result = DHyFD().discover(rel)
        assert result.stats.levels_processed >= 1
        assert len(result.stats.level_log) == result.stats.levels_processed


    def test_wider_than_one_word_matches_tane(self):
        """70 columns: FD-tree LHSs span two 64-bit words of the index.

        Ten 3-valued columns (63 and 64 among them) vary; the last column
        is a function of three of them, and every other column is
        constant.  TANE builds no FD-tree, so it is an independent answer.
        """
        rng = random.Random(0)
        n_cols = 70
        varying = sorted(set(rng.sample(range(n_cols - 1), 10)) | {63, 64})
        rows = []
        for _ in range(40):
            row = ["k"] * n_cols
            for col in varying:
                row[col] = rng.randrange(3)
            row[-1] = (row[63] + row[64] + row[varying[0]]) % 3
            rows.append(row)
        rel = Relation.from_rows(rows, [f"c{i}" for i in range(n_cols)])
        fds = DHyFD().discover(rel).fds
        low_word = attrset.full_set(64)
        assert any(fd.lhs & low_word and fd.lhs >> 64 for fd in fds)
        assert fds == TANE().discover(rel).fds


class TestHyFDSpecifics:
    def test_thresholds_do_not_change_output(self):
        rel = random_relation(60, 6, domain_sizes=3, seed=4)
        eager = HyFD(sample_efficiency_threshold=1.0).discover(rel)
        lazy = HyFD(sample_efficiency_threshold=0.0).discover(rel)
        assert eager.fds == lazy.fds

    def test_switch_counter(self):
        rel = random_relation(80, 7, domain_sizes=2, seed=1)
        result = HyFD(invalid_switch_threshold=0.0).discover(rel)
        assert result.stats.strategy_switches >= 0


class TestFDEPVariants:
    def test_negative_cover_size_recorded(self, city_relation):
        for cls in (FDEP, FDEP1, FDEP2):
            result = cls().discover(city_relation)
            assert result.stats.sampled_non_fds > 0

    def test_fdep1_fewer_inductions_than_fdep2(self):
        rel = random_relation(50, 6, domain_sizes=2, seed=7)
        ind1 = FDEP1().discover(rel).stats.induction_calls
        ind2 = FDEP2().discover(rel).stats.induction_calls
        assert ind1 <= ind2
