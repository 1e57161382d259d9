"""FD induction: turning non-FDs into refined FD candidates.

Two flavours are implemented:

* :func:`synergized_induct` — the paper's Algorithm 2.  A non-FD
  ``X ↛ Y`` is applied to an *extended* FD-tree in a single traversal:
  every FD ``X' → Y'`` with ``X' ⊆ X`` loses the RHS attributes in
  ``Y``, and all non-trivial specializations ``X'A' → Y''`` that are not
  already implied by a generalization in the tree are inserted.

* :func:`classic_induct` — the induction of Flach & Savnik's FDEP,
  which handles one RHS attribute at a time (``X ↛ A`` for each
  ``A ∈ Y``) on a classical FD-tree.  It exists so the FDEP baseline
  behaves like the original algorithm the paper compares against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..relational import attrset
from ..relational.attrset import AttrSet
from .classic import ClassicFDTree
from .extended import ExtendedFDTree, ExtFDNode


def synergized_induct(
    tree: ExtendedFDTree,
    lhs: AttrSet,
    rhs: AttrSet,
    cl: int = 0,
    vl: int = 0,
    vl_nodes: Optional[List[ExtFDNode]] = None,
    tally: Optional[object] = None,
) -> None:
    """Apply the non-FD ``lhs ↛ rhs`` to an extended FD-tree (Algorithm 2).

    ``cl``/``vl``/``vl_nodes`` thread the controlled/validation level
    context through to Algorithm 1 so newly inserted paths receive
    consistent ids; they default to "no level tracking" for plain
    FDEP-style use.  ``tally``, when given, must expose integer
    ``induction_nodes_visited`` / ``induction_fds_inserted`` attributes
    (:class:`~repro.core.result.DiscoveryStats` does) and accumulates
    the traversal's work for telemetry.
    """
    all_attrs = attrset.full_set(tree.n_cols)
    rhs = attrset.difference(rhs & all_attrs, lhs)
    if not rhs:
        return
    visited = _induct_recursive(
        tree, tree.root, attrset.EMPTY, lhs, rhs, cl, vl, vl_nodes, tally
    )
    if tally is not None:
        tally.induction_nodes_visited += visited


def _induct_recursive(
    tree: ExtendedFDTree,
    node: ExtFDNode,
    path: AttrSet,
    full_lhs: AttrSet,
    rhs: AttrSet,
    cl: int,
    vl: int,
    vl_nodes: Optional[List[ExtFDNode]],
    tally: Optional[object] = None,
) -> int:
    """Visit every path ``⊆ full_lhs``; strip and specialize FD-nodes.

    ``path`` is ``node``'s root-to-here attribute set, carried down the
    recursion instead of stored on every node.  Returns the number of
    nodes visited in this subtree (accumulated in locals so the
    untraced hot path pays no per-node attribute writes).
    """
    visited = 1
    removed = node.rhs & rhs
    if removed:
        tree.strip_rhs(node, rhs)
        _specialize(tree, path, full_lhs, removed, cl, vl, vl_nodes, tally)

    # Iterate children (few) rather than LHS attrs (possibly many);
    # paths are strictly increasing so each node is visited once.
    # Specializations inserted along the way extend the LHS with attrs
    # outside full_lhs, so snapshotting the children keeps the visit
    # set exactly "paths ⊆ full_lhs that existed at entry".
    for attr, child in list(node.children.items()):
        if full_lhs >> attr & 1:
            visited += _induct_recursive(
                tree, child, path | 1 << attr, full_lhs, rhs, cl, vl, vl_nodes,
                tally,
            )

    if node is not tree.root and not node.children and not node.rhs:
        tree.prune_dead_path(node)
    return visited


def _specialize(
    tree: ExtendedFDTree,
    base_lhs: AttrSet,
    full_lhs: AttrSet,
    removed: AttrSet,
    cl: int,
    vl: int,
    vl_nodes: Optional[List[ExtFDNode]],
    tally: Optional[object] = None,
) -> None:
    """Insert all non-trivial, non-implied specializations of a removed FD.

    Two extension sources per the paper: attributes outside
    ``full_lhs ∪ removed`` (the invalidated FD's LHS cannot stay inside
    the non-FD's LHS), and attributes drawn from ``removed`` itself
    (which then leave the RHS).
    """
    # One index query answers the minimality test of every extension
    # (see FDNodeIndex.covered_extensions).  It stays exact while
    # the loops below insert: each insert has LHS base ∪ {e'}, which
    # lies inside no other extension's base ∪ {e}.
    covered = tree.index.covered_extensions(base_lhs, removed)
    outside = attrset.complement(full_lhs | removed | base_lhs, tree.n_cols)
    for extra in attrset.iter_attrs(outside):
        new_lhs = attrset.add(base_lhs, extra)
        new_rhs = attrset.difference(removed, covered.get(extra, 0))
        if new_rhs:
            tree.add_fd(new_lhs, new_rhs, cl, vl, vl_nodes)
            if tally is not None:
                tally.induction_fds_inserted += attrset.count(new_rhs)

    if attrset.count(removed) > 1:
        for extra in attrset.iter_attrs(removed):
            rest = attrset.remove(removed, extra)
            new_lhs = attrset.add(base_lhs, extra)
            new_rhs = attrset.difference(rest, covered.get(extra, 0))
            if new_rhs:
                tree.add_fd(new_lhs, new_rhs, cl, vl, vl_nodes)
                if tally is not None:
                    tally.induction_fds_inserted += attrset.count(new_rhs)


def classic_induct(tree: ClassicFDTree, lhs: AttrSet, rhs: AttrSet) -> None:
    """Apply the non-FD ``lhs ↛ rhs`` one RHS attribute at a time.

    This is the classical FDEP induction the paper improves on: each
    attribute in ``rhs`` triggers its own traversal of the tree.
    """
    all_attrs = attrset.full_set(tree.n_cols)
    rhs = attrset.difference(rhs & all_attrs, lhs)
    for attr in attrset.iter_attrs(rhs):
        _classic_induct_one(tree, lhs, attr)


def _classic_induct_one(tree: ClassicFDTree, lhs: AttrSet, attr: int) -> None:
    """Handle the single-RHS non-FD ``lhs ↛ attr`` (Flach & Savnik)."""
    removed = tree.remove_generalizations(lhs, attr)
    if not removed:
        return
    forbidden = attrset.add(lhs, attr)
    extensions = attrset.complement(forbidden, tree.n_cols)
    for old_lhs in removed:
        for extra in attrset.iter_attrs(extensions):
            new_lhs = attrset.add(old_lhs, extra)
            if not tree.contains_generalization(new_lhs, attr):
                tree.add_fd(new_lhs, attr)


def sort_non_fds(non_fds: Iterable[Tuple[AttrSet, AttrSet]]) -> List[Tuple[AttrSet, AttrSet]]:
    """Sort non-FDs by descending LHS size (paper §IV-H).

    Applying more specific non-FDs first avoids inducting FDs that a
    later, more general non-FD would immediately re-eliminate.  Ties
    break on the masks so the ordering is deterministic.
    """
    return sorted(
        non_fds, key=lambda pair: (-attrset.count(pair[0]), pair[0], pair[1])
    )


def non_redundant_non_fds(
    non_fds: Iterable[Tuple[AttrSet, AttrSet]]
) -> List[Tuple[AttrSet, AttrSet]]:
    """Reduce non-FDs to a non-redundant cover (FDEP1's preprocessing).

    The atomic facts are pairs ``(X, A)`` meaning ``X ↛ A``; the fact is
    redundant when some other non-FD ``X' ↛ Y'`` with ``X ⊂ X'`` and
    ``A ∈ Y'`` is kept (paper §IV-H).  For agree-set non-FDs
    ``X ↛ R−X`` this strips from each RHS every attribute outside some
    proper LHS superset; non-FDs whose RHS empties out are dropped.
    Quadratic in the number of non-FDs — the paper found exactly this
    cost not to pay off (FDEP2 always beats FDEP1).
    """
    pairs = sort_non_fds(non_fds)
    kept: List[Tuple[AttrSet, AttrSet]] = []
    for index, (lhs, rhs) in enumerate(pairs):
        reduced = rhs
        for other_lhs, _ in pairs:
            if other_lhs != lhs and attrset.is_subset(lhs, other_lhs):
                # A fact (lhs, A) is dominated iff A ∉ other_lhs.
                reduced &= other_lhs
                if not reduced:
                    break
        if reduced:
            kept.append((lhs, reduced))
    return kept
