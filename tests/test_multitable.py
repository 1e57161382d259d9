"""Tests for repro.multitable: schema graphs, virtual joins, join FDs.

The acceptance bar (ISSUE 10): ``discover_join_fds`` over the virtual
join is byte-identical — cover, relation fingerprint, ranked order and
any ``top_k`` cut — to running the same algorithm on the materialized
join, across small random schemas x EQ/NEQ null semantics x
per-row/vectorized partition kernels, while the virtual path never builds
a joined row (asserted via the ``multitable.materialize`` telemetry
counter).  Inclusion testing treats nulls identically under both
semantics, dangling rows follow the pad/drop/raise policies, and the
service and CLI layers surface all of it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms.registry import make_algorithm
from repro.cli import build_parser, main
from repro.datasets.star import (
    STAR_PATH,
    reddit_star_graph,
    reddit_star_joined,
    reddit_star_tables,
)
from repro.multitable import (
    PAD,
    DanglingRowError,
    ForeignKey,
    MultitableError,
    SchemaGraph,
    build_provenance,
    discover_join_fds,
    fd_scope,
    fd_tables,
    inclusion_coverage,
    lift_relation,
    materialize_join,
    resolve_policy,
)
from repro.ranking.ranker import rank_cover
from repro.relational import attrset
from repro.relational.fd_io import cover_to_json
from repro.relational.io import write_csv
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation
from repro.service import (
    ConfigError,
    FDService,
    JobConfig,
    ServiceClient,
    ServiceError,
    UnknownSchemaError,
    start_in_thread,
)
from repro.telemetry import Tracer, use_tracer
from repro.ucc import discover_uccs

from .conftest import kernel_mode
from .test_ucc import brute_force_uccs


# ----------------------------------------------------------------------
# Fixtures: a tiny hand-checkable two-table schema plus random stars
# ----------------------------------------------------------------------

PARENT_ROWS = [
    ("p0", "us", "en"),
    ("p1", "uk", "en"),
    ("p2", "de", "de"),
]
PARENT_COLS = ["pid", "country", "lang"]

CHILD_ROWS = [
    ("c0", "p0", "t1"),
    ("c1", "p0", "t2"),
    ("c2", "p1", "t1"),
    ("c3", "p2", "t3"),
]
CHILD_COLS = ["cid", "pid_ref", "tag"]


def two_table_graph(child_rows=None, semantics=NullSemantics.EQ,
                    require_inclusion=True):
    parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS, semantics=semantics)
    child = Relation.from_rows(
        list(child_rows if child_rows is not None else CHILD_ROWS),
        CHILD_COLS,
        semantics=semantics,
    )
    graph = SchemaGraph()
    graph.add_table("parent", parent, key=["pid"])
    graph.add_table("child", child, key=["cid"])
    graph.add_foreign_key(
        "child", ["pid_ref"], "parent", ["pid"],
        require_inclusion=require_inclusion,
    )
    return graph


def random_star(seed, semantics=NullSemantics.EQ, dirty=True):
    """A small random two-table star with planted FDs and optional dirt.

    Dirt means dangling refs (ghost parents) plus null FK values plus
    nulls in ordinary attribute columns, so EQ and NEQ genuinely differ
    on the lifted codes while the covers must still match the
    materialized join exactly.
    """
    import random as _random

    rng = _random.Random(seed)
    n_parent = rng.randint(3, 7)
    parent_rows = []
    for i in range(n_parent):
        a = f"a{rng.randrange(3)}"
        parent_rows.append([
            f"p{i}",
            a,
            f"f({a})",  # planted: pa -> pb
            None if dirty and rng.random() < 0.15 else f"x{rng.randrange(2)}",
        ])
    parent = Relation.from_rows(
        parent_rows, ["pid", "pa", "pb", "px"], semantics=semantics
    )
    n_child = rng.randint(8, 20)
    child_rows = []
    for i in range(n_child):
        roll = rng.random()
        if dirty and roll < 0.1:
            ref = None
        elif dirty and roll < 0.2:
            ref = f"ghost{i}"
        else:
            ref = f"p{rng.randrange(n_parent)}"
        child_rows.append([
            f"c{i}",
            ref,
            f"u{rng.randrange(3)}",
            None if dirty and rng.random() < 0.15 else f"m{rng.randrange(2)}",
        ])
    child = Relation.from_rows(
        child_rows, ["cid", "pid_ref", "ca", "cb"], semantics=semantics
    )
    graph = SchemaGraph()
    graph.add_table("parent", parent, key=["pid"])
    graph.add_table("child", child, key=["cid"])
    graph.add_foreign_key(
        "child", ["pid_ref"], "parent", ["pid"], require_inclusion=False
    )
    return graph


def ranked_snapshot(ranking):
    """Comparable form of a ranking: exact FDs in exact order + counts."""
    return [
        (entry.fd, entry.redundancy, entry.redundancy_excluding_null)
        for entry in ranking.ranked
    ]


# ----------------------------------------------------------------------
# Schema graphs: tables, keys, FKs, paths
# ----------------------------------------------------------------------


class TestSchemaGraph:
    def test_declared_key_is_validated(self):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        graph = SchemaGraph()
        with pytest.raises(MultitableError, match="does not uniquely"):
            graph.add_table("parent", parent, key=["lang"])

    def test_declared_superkey_is_minimized(self):
        parent = Relation.from_rows(
            PARENT_ROWS + [("p3", "us", "en")], PARENT_COLS
        )
        graph = SchemaGraph()
        graph.add_table("parent", parent, key=["pid", "country"])
        assert graph.primary_key("parent") == ("pid",)

    def test_inferred_keys_are_bounded_minimal_uccs(self):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        graph = SchemaGraph()
        keys = graph.add_table("parent", parent)
        expected = [
            u for u in brute_force_uccs(parent) if attrset.count(u) <= 3
        ]
        assert sorted(keys) == sorted(expected)

    def test_table_name_rules(self):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        graph = SchemaGraph()
        for bad in ("", "a.b", "a/b"):
            with pytest.raises(MultitableError):
                graph.add_table(bad, parent)
        graph.add_table("ok", parent)
        with pytest.raises(MultitableError, match="already registered"):
            graph.add_table("ok", parent)

    def test_mixed_semantics_rejected(self):
        graph = SchemaGraph()
        graph.add_table(
            "a", Relation.from_rows(PARENT_ROWS, PARENT_COLS,
                                    semantics=NullSemantics.EQ)
        )
        with pytest.raises(MultitableError, match="null semantics"):
            graph.add_table(
                "b", Relation.from_rows(CHILD_ROWS, CHILD_COLS,
                                        semantics=NullSemantics.NEQ)
            )

    def test_fk_parent_side_must_be_key(self):
        graph = two_table_graph()
        with pytest.raises(MultitableError, match="must form a key"):
            graph.add_foreign_key("child", ["pid_ref"], "parent", ["lang"])

    def test_fk_inclusion_enforced_by_default(self):
        rows = CHILD_ROWS + [("c9", "ghost", "t1")]
        with pytest.raises(MultitableError, match="dangling"):
            two_table_graph(child_rows=rows)
        graph = two_table_graph(child_rows=rows, require_inclusion=False)
        assert len(graph.foreign_keys) == 1

    def test_infer_foreign_keys_unary(self):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        child = Relation.from_rows(CHILD_ROWS, CHILD_COLS)
        graph = SchemaGraph()
        graph.add_table("parent", parent, key=["pid"])
        graph.add_table("child", child, key=["cid"])
        added = graph.infer_foreign_keys()
        assert (
            ForeignKey("child", ("pid_ref",), "parent", ("pid",)) in added
        )

    def test_infer_skips_all_null_columns(self):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        child = Relation.from_rows(
            [("c0", None), ("c1", None)], ["cid", "ref"]
        )
        graph = SchemaGraph()
        graph.add_table("parent", parent, key=["pid"])
        graph.add_table("child", child, key=["cid"])
        added = graph.infer_foreign_keys()
        # an all-null column is vacuously included — no edge for it
        assert not any(fk.child_columns == ("ref",) for fk in added)

    def test_resolve_path_directions(self):
        graph = two_table_graph()
        forward = graph.resolve_path(["child", "parent"])
        assert [s.direction for s in forward] == ["forward"]
        expand = graph.resolve_path(["parent", "child"])
        assert [s.direction for s in expand] == ["expand"]

    def test_resolve_path_errors(self):
        graph = two_table_graph()
        with pytest.raises(MultitableError, match="at least two"):
            graph.resolve_path(["child"])
        with pytest.raises(MultitableError, match="repeats"):
            graph.resolve_path(["child", "parent", "child"])
        with pytest.raises(MultitableError, match="unknown table"):
            graph.resolve_path(["child", "orders"])
        graph.add_table(
            "island", Relation.from_rows([("i0",)], ["iid"]), key=["iid"]
        )
        with pytest.raises(MultitableError, match="no foreign-key edge"):
            graph.resolve_path(["child", "island"])

    def test_fingerprint_depends_on_names_and_edges(self):
        a = two_table_graph()
        b = two_table_graph()
        assert a.fingerprint() == b.fingerprint()
        renamed = SchemaGraph()
        renamed.add_table(
            "parents", Relation.from_rows(PARENT_ROWS, PARENT_COLS),
            key=["pid"],
        )
        renamed.add_table(
            "child", Relation.from_rows(CHILD_ROWS, CHILD_COLS), key=["cid"]
        )
        renamed.add_foreign_key("child", ["pid_ref"], "parents", ["pid"])
        assert renamed.fingerprint() != a.fingerprint()

    def test_describe_is_json_friendly(self):
        graph = two_table_graph()
        payload = json.loads(json.dumps(graph.describe()))
        assert payload["tables"]["parent"]["keys"] == [["pid"]]
        assert payload["foreign_keys"][0]["child"] == "child"


# ----------------------------------------------------------------------
# Inclusion testing: null and dangling handling (satellite 3)
# ----------------------------------------------------------------------


class TestInclusionCoverage:
    def relations(self, semantics):
        parent = Relation.from_rows(
            PARENT_ROWS, PARENT_COLS, semantics=semantics
        )
        child = Relation.from_rows(
            [
                ("c0", "p0", "t1"),
                ("c1", None, "t1"),   # null FK: neither covered nor dangling
                ("c2", "ghost", "t2"),  # dangling
                ("c3", "p2", "t3"),
                ("c4", None, "t3"),
            ],
            CHILD_COLS,
            semantics=semantics,
        )
        return child, parent

    @pytest.mark.parametrize(
        "semantics", [NullSemantics.EQ, NullSemantics.NEQ]
    )
    def test_null_fk_rows_counted_separately(self, semantics):
        child, parent = self.relations(semantics)
        report = inclusion_coverage(child, [1], parent, [0])
        assert report.total_rows == 5
        assert report.null_rows == 2
        assert report.covered_rows == 2
        assert report.dangling_rows == 1
        assert not report.satisfied
        assert report.coverage == pytest.approx(2 / 3)

    def test_eq_and_neq_reports_identical(self):
        child_eq, parent_eq = self.relations(NullSemantics.EQ)
        child_neq, parent_neq = self.relations(NullSemantics.NEQ)
        eq = inclusion_coverage(child_eq, [1], parent_eq, [0])
        neq = inclusion_coverage(child_neq, [1], parent_neq, [0])
        assert eq == neq

    @pytest.mark.parametrize(
        "semantics", [NullSemantics.EQ, NullSemantics.NEQ]
    )
    def test_null_parent_key_rows_never_match(self, semantics):
        parent = Relation.from_rows(
            [("p0", "us"), (None, "uk")], ["pid", "c"], semantics=semantics
        )
        child = Relation.from_rows(
            [("c0", "p0"), ("c1", None)], ["cid", "ref"], semantics=semantics
        )
        report = inclusion_coverage(child, [1], parent, [0])
        # the child null does NOT match the parent null row, under
        # either semantics (two nulls never witness an inclusion)
        assert report.null_rows == 1
        assert report.covered_rows == 1
        assert report.dangling_rows == 0

    def test_all_null_child_is_vacuously_satisfied(self):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        child = Relation.from_rows(
            [("c0", None, "t1")], CHILD_COLS
        )
        report = inclusion_coverage(child, [1], parent, [0])
        assert report.satisfied
        assert report.coverage == 1.0

    def test_arity_mismatch_rejected(self):
        child, parent = self.relations(NullSemantics.EQ)
        with pytest.raises(MultitableError, match="arity mismatch"):
            inclusion_coverage(child, [0, 1], parent, [0])


# ----------------------------------------------------------------------
# Provenance: policies, padding, per-row vs vectorized
# ----------------------------------------------------------------------

DIRTY_CHILD = [
    ("c0", "p0", "t1"),
    ("c1", "ghost", "t1"),  # dangling
    ("c2", None, "t2"),     # null FK
    ("c3", "p2", "t3"),
]


class TestProvenance:
    def test_policy_validation(self):
        assert resolve_policy(None) == "raise"
        with pytest.raises(MultitableError, match="on_dangling"):
            resolve_policy("explode")

    @pytest.mark.parametrize("mode", ["python", "numpy"])
    def test_raise_on_dangling(self, mode):
        graph = two_table_graph(
            child_rows=DIRTY_CHILD, require_inclusion=False
        )
        with kernel_mode(mode), pytest.raises(DanglingRowError):
            build_provenance(graph, ["child", "parent"])

    @pytest.mark.parametrize("mode", ["python", "numpy"])
    def test_null_fk_is_not_a_violation_under_raise(self, mode):
        rows = [("c0", "p0", "t1"), ("c1", None, "t2")]
        graph = two_table_graph(child_rows=rows)
        with kernel_mode(mode):
            prov = build_provenance(
                graph, ["child", "parent"], on_dangling="raise"
            )
        # the null row matches nothing and is dropped, not an error
        assert prov.n_rows == 1
        assert prov.dropped_rows == 1

    @pytest.mark.parametrize("mode", ["python", "numpy"])
    def test_drop_vs_pad_counters(self, mode):
        graph = two_table_graph(
            child_rows=DIRTY_CHILD, require_inclusion=False
        )
        with kernel_mode(mode):
            dropped = build_provenance(
                graph, ["child", "parent"], on_dangling="drop"
            )
            padded = build_provenance(
                graph, ["child", "parent"], on_dangling="pad"
            )
        assert dropped.n_rows == 2
        assert dropped.dropped_rows == 2
        assert dropped.padded_cells == 0
        assert not np.any(dropped.index["parent"] == PAD)
        assert padded.n_rows == 4
        assert padded.dropped_rows == 0
        assert padded.padded_cells == 2
        assert int(np.sum(padded.index["parent"] == PAD)) == 2

    @pytest.mark.parametrize("policy", ["drop", "pad"])
    def test_index_arrays_match_materialized_join(self, policy):
        """Join row ``i`` of the oracle is base row ``index[t][i]`` of
        every table ``t`` (all nulls where padded), in the same order,
        and the counters match a hand count of unmatched FK rows."""
        for seed in range(4):
            graph = random_star(seed)
            parent, child = graph.table("parent"), graph.table("child")
            pids = {parent.value(r, 0) for r in range(parent.n_rows)}
            refs = [child.value(r, 1) for r in range(child.n_rows)]
            unmatched = {
                ("child", "parent"): sum(ref not in pids for ref in refs),
                ("parent", "child"): len(pids - set(refs)),
            }
            for path in (["child", "parent"], ["parent", "child"]):
                prov = build_provenance(graph, path, on_dangling=policy)
                mat = materialize_join(graph, path, on_dangling=policy)
                assert prov.n_rows == mat.n_rows
                expected_rows = [()] * prov.n_rows
                for table in prov.tables:
                    base = graph.table(table)
                    pad = (None,) * base.n_cols
                    expected_rows = [
                        row + (pad if r == PAD else base.row_values(r))
                        for row, r in zip(expected_rows, prov.index[table].tolist())
                    ]
                assert list(mat.iter_rows()) == expected_rows, (seed, path)
                lost = unmatched[tuple(path)]
                assert prov.dropped_rows == (lost if policy == "drop" else 0)
                assert prov.padded_cells == (lost if policy == "pad" else 0)

    def test_expand_childless_parent_dropped_or_padded(self):
        rows = [("c0", "p0", "t1")]  # p1, p2 have no children
        graph = two_table_graph(child_rows=rows)
        dropped = build_provenance(
            graph, ["parent", "child"], on_dangling="raise"
        )
        assert dropped.n_rows == 1 and dropped.dropped_rows == 2
        padded = build_provenance(
            graph, ["parent", "child"], on_dangling="pad"
        )
        assert padded.n_rows == 3 and padded.padded_cells == 2


# ----------------------------------------------------------------------
# The lift: byte-identical to materializing (satellite 4's core)
# ----------------------------------------------------------------------


class TestLift:
    @pytest.mark.parametrize(
        "semantics", [NullSemantics.EQ, NullSemantics.NEQ]
    )
    @pytest.mark.parametrize("policy", ["drop", "pad"])
    @pytest.mark.parametrize("mode", ["python", "numpy"])
    def test_lifted_relation_fingerprints_like_materialized(
        self, semantics, policy, mode
    ):
        for seed in range(4):
            graph = random_star(seed, semantics=semantics)
            for path in (["child", "parent"], ["parent", "child"]):
                with kernel_mode(mode):
                    prov = build_provenance(graph, path, on_dangling=policy)
                    lifted = lift_relation(graph, prov)
                mat = materialize_join(graph, path, on_dangling=policy)
                assert lifted.schema.names == mat.schema.names
                assert lifted.n_rows == mat.n_rows
                assert lifted.fingerprint() == mat.fingerprint(), (
                    seed, path, policy, semantics, mode,
                )
                for attr in range(lifted.n_cols):
                    a, b = lifted.column(attr), mat.column(attr)
                    assert np.array_equal(a.codes, b.codes)
                    assert np.array_equal(a.null_mask, b.null_mask)
                    assert a.decoder == b.decoder

    def test_virtual_path_never_materializes(self):
        graph = two_table_graph()
        tracer = Tracer()
        with use_tracer(tracer):
            result = discover_join_fds(graph, ["child", "parent"])
        assert tracer.counter("multitable.materialize.calls").value == 0
        assert tracer.counter("multitable.lift.columns").value == 6
        assert result.relation.n_rows == 4


# ----------------------------------------------------------------------
# The differential grid (satellite 4): virtual == materialized, always
# ----------------------------------------------------------------------


class TestDiscoveryDifferential:
    @pytest.mark.parametrize(
        "semantics", [NullSemantics.EQ, NullSemantics.NEQ]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_against_materialized_join(self, seed, semantics):
        """Covers, ranked order and top_k: virtual vs materialized.

        One materialized reference per (seed, semantics, policy, path);
        the virtual run under each kernel mode must match it byte for
        byte.
        """
        graph = random_star(seed, semantics=semantics)
        for policy in ("drop", "pad"):
            for path in (["child", "parent"], ["parent", "child"]):
                mat = materialize_join(graph, path, on_dangling=policy)
                reference = make_algorithm("dhyfd").discover(mat)
                ref_cover = cover_to_json(reference.fds, mat.schema)
                ref_rank = ranked_snapshot(
                    rank_cover(mat, reference.fds)
                )
                for mode in ("python", "numpy"):
                    with kernel_mode(mode):
                        result = discover_join_fds(
                            graph, path, on_dangling=policy
                        )
                    tag = (seed, policy, path, mode)
                    assert (
                        result.relation.fingerprint() == mat.fingerprint()
                    ), tag
                    assert (
                        cover_to_json(
                            result.discovery.fds, result.relation.schema
                        )
                        == ref_cover
                    ), tag
                    assert ranked_snapshot(result.ranking) == ref_rank, tag

    def test_top_k_cut_matches_materialized_prefix(self):
        graph = random_star(2)
        mat = materialize_join(graph, ["parent", "child"], on_dangling="pad")
        full = rank_cover(mat, make_algorithm("dhyfd").discover(mat).fds)
        for k in (1, 3, 5):
            result = discover_join_fds(
                graph, ["parent", "child"], on_dangling="pad", top_k=k
            )
            assert ranked_snapshot(result.ranking) == ranked_snapshot(full)[:k]

    def test_tane_agrees_with_dhyfd_on_the_join(self):
        graph = two_table_graph()
        a = discover_join_fds(graph, ["child", "parent"], algorithm="dhyfd")
        b = discover_join_fds(graph, ["child", "parent"], algorithm="tane")
        schema = a.relation.schema
        assert cover_to_json(a.discovery.fds, schema) == cover_to_json(
            b.discovery.fds, schema
        )

    def test_scope_tags_partition_the_cover(self):
        result = discover_join_fds(
            two_table_graph(), ["child", "parent"]
        )
        owners = result.attribute_owners
        assert owners == ["child"] * 3 + ["parent"] * 3
        for entry in result.fds:
            assert entry.scope == fd_scope(entry.fd, owners)
            assert entry.tables == fd_tables(entry.fd, owners)
            assert entry.scope in ("intra", "inter")
            assert (entry.scope == "intra") == (len(entry.tables) == 1)
        assert result.intra_count + result.inter_count == len(result.fds)
        payload = json.loads(json.dumps(result.payload()))
        assert payload["n_join_rows"] == result.provenance.n_rows
        assert len(payload["fds"]) == len(result.fds)


# ----------------------------------------------------------------------
# The star workload
# ----------------------------------------------------------------------


class TestStarWorkload:
    def test_tables_shape_and_dirt(self):
        tables = reddit_star_tables(n_posts=100, seed=3)
        posts = tables["posts"]
        author_col = posts.column(posts.schema.resolve("author_id"))
        assert posts.n_rows == 100
        assert int(author_col.null_mask.sum()) == 2  # half of 5 dirty rows
        assert tables["authors"].n_rows == 25

    def test_graph_validates_and_joins(self):
        graph = reddit_star_graph(n_posts=80, seed=0)
        assert graph.primary_key("posts") == ("post_id",)
        steps = graph.resolve_path(STAR_PATH)
        assert [s.direction for s in steps] == ["expand", "forward"]

    def test_joined_equals_materialized(self):
        joined = reddit_star_joined(n_posts=60, seed=1)
        graph = reddit_star_graph(n_posts=60, seed=1)
        mat = materialize_join(graph, STAR_PATH, on_dangling="pad")
        assert joined.fingerprint() == mat.fingerprint()

    def test_registered_in_benchmark_registry(self):
        from repro.datasets.benchmarks import benchmark_names, load_benchmark

        assert "reddit_star" in benchmark_names()
        loaded = load_benchmark("reddit_star", n_rows=60, seed=1)
        assert loaded.fingerprint() == reddit_star_joined(
            n_posts=60, seed=1
        ).fingerprint()

    def test_planted_inter_table_fds_surface(self):
        graph = reddit_star_graph(n_posts=120, seed=0, dirty_fraction=0.0)
        result = discover_join_fds(graph, STAR_PATH)
        formatted = result.format_fds()
        assert any("country" in line and "lang" in line for line in formatted)
        assert result.inter_count > 0


# ----------------------------------------------------------------------
# UCC max_arity bound (satellite 2)
# ----------------------------------------------------------------------


class TestUCCMaxArity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_arity", [1, 2, 3])
    def test_bound_is_sound_and_complete_below_cut(self, seed, max_arity):
        from repro.datasets.synthetic import random_relation

        rel = random_relation(25, 5, domain_sizes=4, seed=seed)
        bounded = discover_uccs(rel, max_arity=max_arity).uccs
        expected = [
            u
            for u in brute_force_uccs(rel)
            if attrset.count(u) <= max_arity
        ]
        assert sorted(bounded) == sorted(expected)

    def test_bad_bound_rejected(self):
        rel = Relation.from_rows([("a", "b")])
        with pytest.raises(ValueError):
            discover_uccs(rel, max_arity=0)


# ----------------------------------------------------------------------
# Service layer: schemas, jobs, caching, HTTP
# ----------------------------------------------------------------------


def register_star(target, n_posts=60, seed=0, name="star"):
    """Upload the star tables and declare the schema on a service/client."""
    tables = reddit_star_tables(n_posts=n_posts, seed=seed)
    if isinstance(target, FDService):
        for table_name, relation in tables.items():
            target.register_relation(relation, name=f"ds_{table_name}")
        register = target.register_schema
    else:  # ServiceClient
        for table_name, relation in tables.items():
            rows = [
                [
                    None if relation.column(a).null_mask[r] else
                    relation.column(a).decode(int(relation.column(a).codes[r]))
                    for a in range(relation.n_cols)
                ]
                for r in range(relation.n_rows)
            ]
            target.upload_rows(relation.schema.names, rows, name=f"ds_{table_name}")
        register = target.register_schema
    return register(
        name,
        {t: f"ds_{t}" for t in tables},
        keys={
            "posts": ["post_id"],
            "authors": ["author_id"],
            "subreddits": ["subreddit_id"],
        },
        foreign_keys=[
            {
                "child": "posts",
                "child_columns": ["author_id"],
                "parent": "authors",
                "parent_columns": ["author_id"],
            },
            {
                "child": "posts",
                "child_columns": ["subreddit_id"],
                "parent": "subreddits",
            },
        ],
    )


@pytest.fixture
def service():
    with FDService(max_workers=2) as svc:
        yield svc


@pytest.fixture
def http_service():
    svc = FDService(max_workers=2)
    server, _ = start_in_thread(svc)
    client = ServiceClient(f"http://127.0.0.1:{server.server_port}")
    yield svc, client
    server.shutdown()
    svc.close()


class TestJobConfigMultitable:
    def test_round_trip(self):
        config = JobConfig.from_dict(
            {"join_path": ["a", "b"], "on_dangling": "pad"}
        )
        assert config.join_path == ("a", "b")
        assert config.on_dangling == "pad"
        assert JobConfig.from_dict(config.to_dict()) == config

    def test_fields_participate_in_cache_key(self):
        base = JobConfig.from_dict({"join_path": ["a", "b"]})
        other_path = JobConfig.from_dict({"join_path": ["b", "a"]})
        other_policy = JobConfig.from_dict(
            {"join_path": ["a", "b"], "on_dangling": "pad"}
        )
        assert base.key() != other_path.key()
        assert base.key() != other_policy.key()

    def test_fields_never_reach_the_algorithm(self):
        config = JobConfig.from_dict(
            {"join_path": ["a", "b"], "on_dangling": "drop"}
        )
        kwargs = config.algorithm_kwargs()
        assert "join_path" not in kwargs
        assert "on_dangling" not in kwargs

    def test_validation(self):
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"join_path": ["solo"]})
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"join_path": "a,b"})
        with pytest.raises(ConfigError):
            JobConfig.from_dict({"on_dangling": "explode"})


class TestServiceSchemas:
    def test_register_and_resolve(self, service):
        entry = register_star(service)
        assert service.schemas.resolve("star") == entry.fingerprint
        assert service.schemas.get(entry.fingerprint) is entry
        described = entry.describe()
        assert described["name"] == "star"
        assert set(described["datasets"]) == {
            "posts", "authors", "subreddits",
        }

    def test_register_is_idempotent_by_fingerprint(self, service):
        first = register_star(service)
        second = register_star(service, name="star2")
        assert second is first
        counters = service.metrics_payload()["counters"]
        assert counters["service.schemas.registered"] == 1
        assert counters["service.schemas.duplicate_registrations"] == 1
        # both names alias the same schema
        assert service.schemas.resolve("star2") == first.fingerprint

    def test_unknown_schema_raises(self, service):
        with pytest.raises(UnknownSchemaError):
            service.schemas.get("nope")

    def test_unknown_dataset_ref_fails_registration(self, service):
        from repro.service import UnknownDatasetError

        with pytest.raises(UnknownDatasetError):
            service.register_schema("bad", {"t": "missing-dataset"})

    def test_persistence_across_restart(self, tmp_path):
        dirs = {
            "store_dir": tmp_path,
            "dataset_dir": tmp_path / "datasets",
        }
        with FDService(max_workers=1, **dirs) as svc:
            entry = register_star(svc)
            fingerprint = entry.fingerprint
        with FDService(max_workers=1, **dirs) as reborn:
            assert reborn.schemas.resolve("star") == fingerprint
            revived = reborn.schemas.get("star")
            assert revived.graph.fingerprint() == fingerprint
            # and the revived graph still answers jobs
            job = reborn.multitable(
                "star",
                config={"join_path": list(STAR_PATH), "on_dangling": "pad"},
            )
            assert job.status == "done"

    def test_corrupt_persisted_schema_skipped(self, tmp_path):
        dirs = {
            "store_dir": tmp_path,
            "dataset_dir": tmp_path / "datasets",
        }
        with FDService(max_workers=1, **dirs) as svc:
            register_star(svc)
        junk = tmp_path / "schemas" / "junk.json"
        junk.write_text("{not json", encoding="utf-8")
        with FDService(max_workers=1, **dirs) as reborn:
            assert len(reborn.schemas) == 1

    def test_schema_without_datasets_not_revived(self, tmp_path):
        # store_dir only: the schema JSON persists but its datasets
        # don't, so the rebuild must skip (never trust) the entry.
        with FDService(max_workers=1, store_dir=tmp_path) as svc:
            register_star(svc)
        with FDService(max_workers=1, store_dir=tmp_path) as reborn:
            assert len(reborn.schemas) == 0
            counters = reborn.metrics_payload()["counters"]
            assert counters["service.schemas.load_errors"] == 1


class TestServiceMultitableJobs:
    def config(self, **extra):
        return {
            "join_path": list(STAR_PATH), "on_dangling": "pad", **extra
        }

    def test_job_matches_direct_discovery(self, service):
        register_star(service, n_posts=60, seed=0)
        job = service.multitable("star", config=self.config())
        assert job.status == "done"

        graph = reddit_star_graph(n_posts=60, seed=0)
        direct = discover_join_fds(graph, STAR_PATH, on_dangling="pad")
        assert cover_to_json(
            job.result.fds, direct.relation.schema
        ) == cover_to_json(direct.discovery.fds, direct.relation.schema)

        payload = job.status_payload()
        block = payload["multitable"]
        assert block["path"] == list(STAR_PATH)
        assert block["on_dangling"] == "pad"
        assert block["n_join_rows"] == direct.provenance.n_rows
        assert block["intra_count"] + block["inter_count"] == len(
            payload["ranking"]
        )
        # The service ranks the canonicalized cover (same as its rank
        # jobs); scope/table tags must match the library primitives.
        from repro.covers.canonical import canonical_cover
        from repro.multitable.provenance import attribute_tables

        owners = attribute_tables(graph, direct.provenance.tables)
        expected = [
            (
                e.fd.format(direct.relation.schema),
                fd_scope(e.fd, owners),
                list(fd_tables(e.fd, owners)),
            )
            for e in rank_cover(
                direct.relation, canonical_cover(direct.discovery.fds)
            ).ranked
        ]
        got_ranking = [
            (r["fd"], r["scope"], r["tables"]) for r in payload["ranking"]
        ]
        assert got_ranking == expected
        assert job.trace["spans"]["covers"]["count"] == 1

    def test_repeat_job_is_a_cache_hit(self, service):
        register_star(service)
        config = self.config()
        service.multitable("star", config=config)
        counters = service.metrics_payload()["counters"]
        runs = counters["service.discovery.runs"]
        job = service.multitable("star", config=config)
        assert job.status == "done"
        counters = service.metrics_payload()["counters"]
        assert counters["service.discovery.runs"] == runs
        assert counters["service.jobs.cache_hits"] >= 1

    def test_top_k_bounds_ranking_not_cover(self, service):
        register_star(service)
        full = service.multitable("star", config=self.config())
        cut = service.multitable("star", config=self.config(top_k=3))
        assert len(cut.ranking) == 3
        assert cut.ranking == full.ranking[:3]
        assert len(cut.result.fds) == len(full.result.fds)

    def test_missing_join_path_rejected(self, service):
        register_star(service)
        with pytest.raises(ConfigError, match="join_path"):
            service.submit("star", "multitable", config={})

    def test_bad_path_rejected_at_submit(self, service):
        register_star(service)
        with pytest.raises(MultitableError):
            service.submit(
                "star", "multitable",
                config={"join_path": ["authors", "subreddits"]},
            )

    def test_unknown_schema_rejected_at_submit(self, service):
        with pytest.raises(UnknownSchemaError):
            service.submit(
                "ghost", "multitable", config={"join_path": ["a", "b"]}
            )

    def test_scheduler_rejects_unknown_kind(self, service):
        register_star(service)
        with pytest.raises(ValueError, match="multitable"):
            service.scheduler.submit("x", "join", JobConfig())


class TestHTTPMultitable:
    def test_full_flow_over_http(self, http_service):
        _, client = http_service
        described = register_star(client, n_posts=60, seed=0)
        assert described["name"] == "star"

        listing = client.schemas()
        assert [s["fingerprint"] for s in listing] == [
            described["fingerprint"]
        ]

        status = client.multitable(
            "star", STAR_PATH, on_dangling="pad", timeout=30.0
        )
        assert status["status"] == "done"
        assert status["multitable"]["n_join_rows"] > 0
        assert {r["scope"] for r in status["ranking"]} <= {"intra", "inter"}

        graph = reddit_star_graph(n_posts=60, seed=0)
        direct = discover_join_fds(graph, STAR_PATH, on_dangling="pad")
        result = ServiceClient.result_from_status(status)
        assert cover_to_json(
            result.fds, direct.relation.schema
        ) == cover_to_json(direct.discovery.fds, direct.relation.schema)

    def test_top_k_query_param(self, http_service):
        _, client = http_service
        register_star(client)
        status = client.multitable(
            "star", STAR_PATH, on_dangling="pad", timeout=30.0, top_k=2
        )
        assert len(status["ranking"]) == 2

    def test_unknown_schema_404(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError) as excinfo:
            client.multitable("ghost", ["a", "b"], timeout=5.0)
        assert excinfo.value.status == 404

    def test_bad_path_400(self, http_service):
        _, client = http_service
        register_star(client)
        with pytest.raises(ServiceError) as excinfo:
            client.multitable(
                "star", ["authors", "subreddits"], timeout=5.0
            )
        assert excinfo.value.status == 400

    def test_schema_detail_endpoint(self, http_service):
        _, client = http_service
        described = register_star(client)
        detail = client._request(
            "GET", f"/multitable/schemas/{described['fingerprint']}"
        )
        assert detail["fingerprint"] == described["fingerprint"]
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/multitable/schemas/ghost")
        assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLIMultitable:
    def test_star_demo(self, capsys):
        assert main(["multitable", "--star", "--rows", "80"]) == 0
        out = capsys.readouterr().out
        assert "never materialized" in out
        assert "[intra]" in out or "[inter]" in out

    def test_star_json(self, capsys):
        assert main(
            ["multitable", "--star", "--rows", "80", "--json", "--top-k", "5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == list(STAR_PATH)
        assert len(payload["fds"]) <= 5
        assert all(f["scope"] in ("intra", "inter") for f in payload["fds"])

    def test_csv_mode(self, tmp_path, capsys):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        child = Relation.from_rows(CHILD_ROWS, CHILD_COLS)
        write_csv(parent, tmp_path / "parent.csv")
        write_csv(child, tmp_path / "child.csv")
        code = main([
            "multitable",
            "--table", f"parent={tmp_path / 'parent.csv'}",
            "--table", f"child={tmp_path / 'child.csv'}",
            "--key", "parent=pid",
            "--key", "child=cid",
            "--fk", "child.pid_ref=parent.pid",
            "--path", "child,parent",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "child -> parent" in out

    def test_csv_mode_requires_path(self, tmp_path, capsys):
        parent = Relation.from_rows(PARENT_ROWS, PARENT_COLS)
        write_csv(parent, tmp_path / "parent.csv")
        code = main([
            "multitable", "--table", f"parent={tmp_path / 'parent.csv'}"
        ])
        assert code == 2
        assert "--path" in capsys.readouterr().err

    def test_bad_fk_spec_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["multitable", "--fk", "nonsense"]
            )

    def test_bad_path_reports_error(self, capsys):
        code = main([
            "multitable", "--star", "--rows", "40",
            "--path", "authors,ghosts",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
