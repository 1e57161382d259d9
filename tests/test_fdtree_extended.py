"""Unit tests for extended FD-trees (paper §IV-C, Algorithm 1)."""

from __future__ import annotations

import random

import pytest

from repro.fdtree.extended import ExtendedFDTree, ExtFDNode
from repro.relational import attrset
from repro.relational.fd import FD


def A(*attrs):
    return attrset.from_attrs(attrs)


def reference_find_covered(tree, lhs, candidates):
    """Candidate attrs ``B`` with some ``Z -> B`` in the tree, ``Z ⊆ lhs``.

    A plain walk of every path inside ``lhs``: the ground truth the
    FD-node index is checked against.
    """
    covered = attrset.EMPTY
    stack = [tree.root]
    while stack:
        node = stack.pop()
        covered |= node.rhs & candidates
        stack.extend(
            child for attr, child in node.children.items() if lhs >> attr & 1
        )
    return covered


def reference_covered_requiring(tree, lhs, candidates, required):
    """Like :func:`reference_find_covered`, over paths through ``required``."""
    covered = attrset.EMPTY

    def descend(node, has_required):
        nonlocal covered
        if has_required:
            covered |= node.rhs & candidates
        for attr, child in node.children.items():
            if lhs >> attr & 1 and (has_required or attr <= required):
                descend(child, has_required or attr == required)

    descend(tree.root, False)
    return covered


class TestAddFd:
    def test_single_fd_path(self):
        tree = ExtendedFDTree(5)
        tree.add_fd(A(0, 2), A(3))
        fds = list(tree.iter_fds())
        assert fds == [FD(A(0, 2), A(3))]
        assert tree.fd_count == 1

    def test_paper_example_figure1(self):
        # FDs A->B, AB->CD, CD->B over R = {A..E} (0..4).
        tree = ExtendedFDTree(5)
        tree.add_fd(A(0), A(1))
        tree.add_fd(A(0, 1), A(2, 3))
        tree.add_fd(A(2, 3), A(1))
        assert set(tree.iter_fds()) == {
            FD(A(0), A(1)),
            FD(A(0, 1), A(2, 3)),
            FD(A(2, 3), A(1)),
        }
        assert tree.fd_count == 4  # AB->CD counts two RHS attrs

    def test_rhs_union_on_same_path(self):
        tree = ExtendedFDTree(4)
        tree.add_fd(A(0), A(1))
        tree.add_fd(A(0), A(2))
        assert list(tree.iter_fds()) == [FD(A(0), A(1, 2))]
        assert tree.fd_count == 2

    def test_empty_lhs_on_root(self):
        tree = ExtendedFDTree(3)
        tree.add_fd(attrset.EMPTY, A(0, 1, 2))
        assert tree.root.rhs == A(0, 1, 2)
        assert tree.fd_count == 3

    def test_default_ids_inherit_consistently(self):
        tree = ExtendedFDTree(5)
        end = tree.add_fd(A(1, 3), A(4))
        assert end.attr == 3
        # With cl=0 nodes below level 1 inherit their parent's id; the
        # parent's singleton partition π_1 refines a subset of {1,3}.
        assert end.parent.id == 1
        assert end.id == 1

    def test_id_inheritance_beyond_controlled_level(self):
        tree = ExtendedFDTree(6)
        node = tree.add_fd(A(0, 1), A(5))
        node.id = 10  # pretend the DDM assigned a dynamic id
        # new FD extends the path below the controlled level 2
        end = tree.add_fd(A(0, 1, 2, 3), A(5), cl=2, vl=4)
        assert end.id == 10
        assert end.parent.id == 10

    def test_default_id_at_or_below_controlled_level(self):
        tree = ExtendedFDTree(6)
        tree.add_fd(A(0, 1), A(5))
        # new sibling path entirely within the controlled level
        end = tree.add_fd(A(0, 2), A(5), cl=2, vl=2)
        assert end.id == 2  # default id = own attribute

    def test_vl_nodes_updated(self):
        tree = ExtendedFDTree(6)
        vl_nodes = []
        tree.add_fd(A(0, 2, 4), A(5), cl=1, vl=2, vl_nodes=vl_nodes)
        assert [n.attr for n in vl_nodes] == [2]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ExtendedFDTree(0)


class TestQueries:
    def build(self):
        tree = ExtendedFDTree(6)
        tree.add_fd(A(0), A(1))
        tree.add_fd(A(0, 2), A(3, 4))
        tree.add_fd(A(2, 3), A(5))
        return tree

    def test_find_covered(self):
        tree = self.build()
        covered = reference_find_covered(tree, A(0, 2), A(1, 3, 4, 5))
        assert covered == A(1, 3, 4)  # 5 needs {2,3} which is not inside {0,2}

    def test_find_covered_equal_lhs(self):
        tree = self.build()
        assert reference_find_covered(tree, A(0), A(1)) == A(1)

    def test_find_covered_nothing(self):
        tree = self.build()
        assert reference_find_covered(tree, A(4, 5), A(1)) == attrset.EMPTY

    def test_find_covered_requiring_matches_filtered(self):
        tree = self.build()
        # generalizations of {0,2,4} for candidates {1,3,4,5} that pass
        # through attr 2: 0-2 -> {3,4} qualifies, 0 -> 1 does not
        covered = reference_covered_requiring(tree, A(0, 2, 4), A(1, 3, 4, 5), 2)
        assert covered == A(3, 4)
        assert tree.index.covered_extensions(A(0, 4), A(1, 3, 4, 5))[2] == A(3, 4)

    def test_find_covered_requiring_through_first_attr(self):
        tree = self.build()
        covered = reference_covered_requiring(tree, A(0, 2), A(1, 3, 4), 0)
        assert covered == A(1, 3, 4)  # both FDs pass through attr 0
        assert tree.index.covered_extensions(A(2), A(1, 3, 4))[0] == A(1, 3, 4)

    def test_find_covered_requiring_missing_attr(self):
        tree = self.build()
        covered = reference_covered_requiring(tree, A(0, 2), A(1), 5)
        assert covered == attrset.EMPTY
        assert 5 not in tree.index.covered_extensions(A(0, 2), A(1))

    def test_contains_generalization(self):
        tree = self.build()
        assert reference_find_covered(tree, A(0, 5), A(1)) == A(1)
        assert reference_find_covered(tree, A(2), A(5)) == attrset.EMPTY
        assert reference_find_covered(tree, A(2, 3), A(5)) == A(5)

    def test_covered_extensions_by_attribute(self):
        tree = self.build()
        # base {0}: 0-2 -> {3,4} is one attr away (2), 2-3 -> 5 is two.
        assert tree.index.covered_extensions(A(0), A(1, 3, 4, 5)) == {2: A(3, 4)}
        # base {3}: 2-3 -> 5 through 2 only; FDs inside the base are skipped.
        assert tree.index.covered_extensions(A(0, 3), A(1, 5)) == {2: A(5)}

    def test_nodes_at_level(self):
        tree = self.build()
        level1 = {n.attr for n in tree.nodes_at_level(1)}
        assert level1 == {0, 2}
        level2 = {n.attr for n in tree.nodes_at_level(2)}
        assert level2 == {2, 3}
        assert tree.nodes_at_level(3) == []

    def test_nodes_at_level_zero_is_root(self):
        tree = self.build()
        assert tree.nodes_at_level(0) == [tree.root]

    def test_max_depth(self):
        assert self.build().max_depth() == 2

    def test_node_count(self):
        # paths: 0, 0-2, 2-3 -> nodes {0, 0.2, 2, 2.3}
        assert self.build().node_count() == 4

    def test_iter_fd_nodes(self):
        tree = self.build()
        assert len(list(tree.iter_fd_nodes())) == 3

    def test_path(self):
        tree = self.build()
        end = tree.add_fd(A(1, 3, 4), A(5))
        assert end.path() == A(1, 3, 4)


class TestRemoval:
    def test_strip_rhs_updates_count(self):
        tree = ExtendedFDTree(5)
        node = tree.add_fd(A(0), A(1, 2, 3))
        tree.strip_rhs(node, A(1, 2))
        assert tree.fd_count == 1
        assert node.rhs == A(3)

    def test_strip_rhs_ignores_absent(self):
        tree = ExtendedFDTree(5)
        node = tree.add_fd(A(0), A(1))
        tree.strip_rhs(node, A(2, 3))
        assert tree.fd_count == 1

    def test_prune_dead_path(self):
        tree = ExtendedFDTree(5)
        node = tree.add_fd(A(0, 1, 2), A(3))
        tree.strip_rhs(node, A(3))
        tree.prune_dead_path(node)
        assert tree.node_count() == 0
        assert node.deleted

    def test_prune_stops_at_live_ancestor(self):
        tree = ExtendedFDTree(5)
        tree.add_fd(A(0), A(4))
        node = tree.add_fd(A(0, 1), A(3))
        tree.strip_rhs(node, A(3))
        tree.prune_dead_path(node)
        assert tree.node_count() == 1  # node 0 survives (it is an FD-node)
        assert list(tree.iter_fds()) == [FD(A(0), A(4))]

    def test_prune_keeps_node_with_children(self):
        tree = ExtendedFDTree(5)
        parent = tree.add_fd(A(0), A(4))
        tree.add_fd(A(0, 1), A(3))
        tree.strip_rhs(parent, A(4))
        tree.prune_dead_path(parent)
        assert not parent.deleted
        assert tree.node_count() == 2


def _fd_nodes(tree):
    return list(tree.iter_fd_nodes())


class TestFDNodeIndex:
    """The index against the tree walk, under random updates."""

    @pytest.mark.parametrize("n_cols", [5, 18, 64, 65, 130])
    def test_random_updates_match_the_walk(self, n_cols):
        rng = random.Random(n_cols)
        # A small attribute pool makes LHSs overlap; it straddles every
        # word boundary the width has.
        pool = sorted(
            set(rng.sample(range(n_cols), min(n_cols, 7)))
            | {a for a in (0, 63, 64, 65, 127, 128, n_cols - 1) if a < n_cols}
        )
        tree = ExtendedFDTree(n_cols)
        for _ in range(200):
            nodes = _fd_nodes(tree)
            if not nodes or rng.random() < 0.55:
                lhs = A(*rng.sample(pool, rng.randint(0, min(4, len(pool)))))
                rhs = A(*rng.sample(pool, rng.randint(1, min(3, len(pool)))))
                rhs = attrset.difference(rhs, lhs)
                if rhs:
                    tree.add_fd(lhs, rhs)
            else:
                node = rng.choice(nodes)
                tree.strip_rhs(node, A(*rng.sample(pool, rng.randint(1, 3))))
                if not node.rhs and not node.children:
                    tree.prune_dead_path(node)
            self.check(tree, pool, rng)

    def check(self, tree, pool, rng):
        nodes = _fd_nodes(tree)
        assert len(tree.index) == len(nodes)
        assert {id(n) for n in tree.index.nodes} == {id(n) for n in nodes}
        assert all(tree.index.nodes[n.slot] is n for n in nodes)
        for _ in range(3):
            if nodes and rng.random() < 0.7:
                # one attr off a stored LHS, so some extension re-finds it
                base = rng.choice(nodes).path()
                if base:
                    base = attrset.remove(base, rng.choice(attrset.to_list(base)))
            else:
                base = A(*rng.sample(pool, rng.randint(0, 3)))
            candidates = A(*rng.sample(pool, rng.randint(1, len(pool))))
            covered = tree.index.covered_extensions(base, candidates)
            for extra in range(tree.n_cols):
                if base >> extra & 1:
                    assert extra not in covered
                    continue
                expected = reference_covered_requiring(
                    tree, attrset.add(base, extra), candidates, extra
                )
                assert covered.get(extra, attrset.EMPTY) == expected, (base, extra)

    def test_grows_past_initial_capacity(self):
        rng = random.Random(7)
        tree = ExtendedFDTree(130)
        pool = list(range(0, 130, 7))
        for a in pool:
            for b in pool:
                if a < b:
                    tree.add_fd(A(a, b), A(129 - a))
        assert len(tree.index) > len(tree.index.lhs[0]) // 2 > 64
        self.check(tree, pool, rng)

    def test_repeated_bit_across_words_is_not_one_attribute(self):
        # Z - base = {1, 65}: its two words OR to the single bit 1.
        tree = ExtendedFDTree(130)
        tree.add_fd(A(1, 65), A(3))
        tree.add_fd(A(65), A(4))
        tree.add_fd(A(2, 129), A(3))
        assert tree.index.covered_extensions(attrset.EMPTY, A(3, 4)) == {65: A(4)}
        assert tree.index.covered_extensions(A(1), A(3, 4)) == {65: A(3, 4)}
        assert tree.index.covered_extensions(A(129), A(3)) == {2: A(3)}

    def test_slots_stay_dense_under_swap_removal(self):
        tree = ExtendedFDTree(70)
        first = tree.add_fd(A(0), A(69))
        tree.add_fd(A(1), A(69))
        last = tree.add_fd(A(66), A(2))
        tree.strip_rhs(first, A(69))
        assert len(tree.index) == 2
        assert first.slot == -1
        assert tree.index.nodes[last.slot] is last
        assert tree.index.covered_extensions(attrset.EMPTY, A(2, 69)) == {
            1: A(69), 66: A(2)
        }
