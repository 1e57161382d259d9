"""Unit tests for the high-level profiling API."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.covers.implication import equivalent
from repro.profiling import profile
from repro.relational.null import NullSemantics


class TestProfile:
    def test_full_profile(self, city_relation):
        outcome = profile(city_relation)
        assert outcome.discovery.fd_count >= 3
        assert len(outcome.canonical) <= outcome.discovery.fd_count
        assert outcome.ranking is not None
        assert outcome.redundancy is not None
        assert equivalent(outcome.left_reduced, outcome.canonical)

    def test_algorithm_choice(self, city_relation):
        outcome = profile(city_relation, algorithm="tane")
        assert outcome.discovery.algorithm == "tane"

    def test_rank_skipped(self, city_relation):
        outcome = profile(city_relation, rank=False)
        assert outcome.ranking is None
        assert outcome.redundancy is None

    def test_null_semantics_override(self, null_relation):
        outcome = profile(null_relation, null_semantics="neq")
        assert outcome.relation.semantics is NullSemantics.NEQ

    def test_summary_text(self, city_relation):
        outcome = profile(city_relation)
        text = outcome.summary()
        assert "left-reduced cover" in text
        assert "canonical cover" in text
        assert "top-ranked FD" in text

    def test_summary_without_ranking(self, city_relation):
        outcome = profile(city_relation, rank=False)
        text = outcome.summary()
        assert "redundancy" not in text

    def test_unknown_algorithm(self, city_relation):
        with pytest.raises(ValueError):
            profile(city_relation, algorithm="bogus")

    def test_kwargs_forwarded(self, city_relation):
        outcome = profile(city_relation, ratio_threshold=9.9)
        assert outcome.discovery.fd_count >= 3

    def test_top_k_is_the_full_ranking_prefix_from_one_mask_pass(self, monkeypatch):
        from repro.datasets.benchmarks import load_benchmark
        from repro.profiling import profiler

        relation = load_benchmark("ncvoter", n_rows=200)
        full = profile(relation)
        passes = []
        masks = profiler.lhs_row_masks
        monkeypatch.setattr(
            profiler, "lhs_row_masks", lambda *a, **kw: passes.append(1) or masks(*a, **kw)
        )
        bounded = profile(relation, top_k=10)
        assert len(full.ranking.ranked) > 10
        assert bounded.ranking.ranked == full.ranking.ranked[:10]
        assert bounded.ranking.top_k == 10
        assert replace(bounded.redundancy, seconds=0) == replace(full.redundancy, seconds=0)
        assert passes == [1]

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_is_rejected(self, top_k):
        from repro.datasets.benchmarks import load_benchmark

        relation = load_benchmark("iris", n_rows=50)
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            profile(relation, top_k=top_k)
