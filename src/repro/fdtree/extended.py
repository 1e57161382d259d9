"""Extended FD-trees (paper §IV-C, Algorithm 1).

An extended FD-tree stores a set of FDs as paths of attribute nodes in
ascending attribute order.  Unlike the classical FD-tree of Flach &
Savnik, RHS labels live *only* at FD-nodes — the node where an FD's LHS
path ends — which removes the label-propagation maintenance the paper
identifies as the classical tree's main overhead.

Every node carries an integer ``id``:

* ``id < n_cols``  — the *default* id; it denotes the singleton stripped
  partition of that attribute.
* ``id >= n_cols`` — a *dynamic* id; ``id - n_cols`` indexes the dynamic
  data manager's partition array (see :mod:`repro.core.ddm`), and the
  indexed partition ``π_X'`` is guaranteed to satisfy ``X' ⊆ path``.

Algorithm 1 keeps ids consistent while inserting FDs mid-discovery, and
keeps the running list of validation-level nodes up to date so DHyFD
never loses paths that induction creates at the current level
(Example 2 of the paper).

Beside the nodes, the tree keeps a flat index of its FD-nodes
(:class:`FDNodeIndex`): one slot per FD-node holding its LHS as
``uint64`` words, ``ceil(n_cols / 64)`` of them for every schema
width.  :meth:`add_fd` appends a slot when a node becomes an FD-node
and :meth:`strip_rhs` swap-removes it once the node's RHS empties, so
every update costs O(1) in the number of FD-nodes.  Synergized
induction's minimality test asks it one vectorized question per
invalidated FD (:meth:`FDNodeIndex.covered_extensions`) instead of
walking the tree once per candidate specialization.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.fd import FD

ROOT_ATTR = -1


class ExtFDNode:
    """One node of an extended FD-tree.

    ``rhs`` is non-empty exactly when this node is an FD-node: the FD
    ``path(self) -> rhs`` is a member of the represented FD set.
    """

    __slots__ = (
        "attr", "parent", "children", "rhs", "id", "depth", "deleted", "slot"
    )

    def __init__(self, attr: int, parent: Optional["ExtFDNode"], node_id: int):
        self.attr = attr
        self.parent = parent
        self.children: Dict[int, ExtFDNode] = {}
        self.rhs: AttrSet = attrset.EMPTY
        self.id = node_id
        self.depth = 0 if parent is None else parent.depth + 1
        self.deleted = False
        #: Position in the tree's :class:`FDNodeIndex`; -1 off the index.
        self.slot = -1

    @property
    def is_fd_node(self) -> bool:
        """True iff an FD ends at this node."""
        return self.rhs != attrset.EMPTY

    @property
    def is_leaf(self) -> bool:
        """True iff the node has no children (the paper's reusability test)."""
        return not self.children

    def path(self) -> AttrSet:
        """The attribute set spelled by the root-to-here path."""
        mask = attrset.EMPTY
        node: Optional[ExtFDNode] = self
        while node is not None and node.attr != ROOT_ATTR:
            mask = attrset.add(mask, node.attr)
            node = node.parent
        return mask

    def __repr__(self) -> str:
        return f"ExtFDNode(attr={self.attr}, depth={self.depth}, rhs={bin(self.rhs)})"


_ONE = np.uint64(1)
_WORD = (1 << 64) - 1


class FDNodeIndex:
    """The FD-nodes of a tree, their LHSs as ``uint64`` words.

    Slot ``i`` holds ``nodes[i]``; ``lhs[w][i]`` is word ``w`` of its
    LHS (the node's path), carrying attributes ``64w .. 64w + 63``.  The
    RHS is read off the node itself.  Slots are dense; removing one
    moves the last slot into its place.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.nodes: List[ExtFDNode] = []
        self.lhs = [np.zeros(64, dtype=np.uint64) for _ in range((n_cols + 63) // 64)]

    def __len__(self) -> int:
        return len(self.nodes)

    def masks(self, rows: np.ndarray) -> List[AttrSet]:
        """The LHSs of the given slots as attribute sets."""
        values = self.lhs[0][rows].tolist()
        for word in range(1, len(self.lhs)):
            shift = 64 * word
            values = [
                low | high << shift
                for low, high in zip(values, self.lhs[word][rows].tolist())
            ]
        return values

    def insert(self, node: ExtFDNode, lhs: AttrSet) -> None:
        slot = len(self.nodes)
        if slot == len(self.lhs[0]):
            self.lhs = [
                np.concatenate([words, np.zeros_like(words)]) for words in self.lhs
            ]
        for word, words in enumerate(self.lhs):
            words[slot] = lhs >> 64 * word & _WORD
        self.nodes.append(node)
        node.slot = slot

    def remove(self, node: ExtFDNode) -> None:
        slot, last = node.slot, len(self.nodes) - 1
        moved = self.nodes.pop()
        if moved is not node:
            for words in self.lhs:
                words[slot] = words[last]
            self.nodes[slot] = moved
            moved.slot = slot
        node.slot = -1

    def covered_extensions(
        self, base: AttrSet, candidates: AttrSet
    ) -> Dict[int, AttrSet]:
        """The minimality test of synergized induction, for every extension.

        Maps each attribute ``e`` outside ``base`` to the candidate
        attrs ``B`` with some FD-node ``Z -> B``, ``Z ⊆ base ∪ {e}`` and
        ``e ∈ Z`` (``Z - base == {e}``): the specialization
        ``base ∪ {e} -> B`` is implied by a generalization through
        ``e``.  (While the tree is minimal, a generalization that skips
        ``e`` would lie inside ``base`` and have made the FD being
        specialized non-minimal already.)  Empty entries are left out.
        """
        n = len(self.nodes)
        outside = attrset.complement(base, self.n_cols)
        # Slots whose words of Z - base, ORed together, hold one bit:
        # every slot with |Z - base| == 1, plus (only when there are
        # several words) slots whose words repeat one bit position; the
        # exact test on the gathered ints below drops those.
        spill = self.lhs[0][:n] & (outside & _WORD)
        for word in range(1, len(self.lhs)):
            spill = spill | (self.lhs[word][:n] & (outside >> 64 * word & _WORD))
        below = spill - _ONE
        rows = ((spill ^ below) > below).nonzero()[0]
        covered: Dict[int, AttrSet] = {}
        nodes = self.nodes
        for slot, path in zip(rows.tolist(), self.masks(rows)):
            rhs = nodes[slot].rhs & candidates
            diff = path & outside
            if rhs and not diff & (diff - 1):
                extra = diff.bit_length() - 1
                covered[extra] = covered.get(extra, 0) | rhs
        return covered


class ExtendedFDTree:
    """An extended FD-tree over a schema of ``n_cols`` attributes."""

    def __init__(self, n_cols: int):
        if n_cols <= 0:
            raise ValueError("tree needs a positive number of columns")
        self.n_cols = n_cols
        self.root = ExtFDNode(ROOT_ATTR, None, n_cols)  # root id is never used
        #: Running total of FDs in the tree (Σ |rhs(n)|), the paper's |tree|.
        self.fd_count = 0
        self.index = FDNodeIndex(n_cols)

    # ------------------------------------------------------------------
    # Insertion — Algorithm 1
    # ------------------------------------------------------------------

    def add_fd(
        self,
        lhs: AttrSet,
        rhs: AttrSet,
        cl: int = 0,
        vl: int = 0,
        vl_nodes: Optional[List[ExtFDNode]] = None,
    ) -> ExtFDNode:
        """Insert ``lhs -> rhs``, assigning consistent ids (Algorithm 1).

        New nodes deeper than the controlled level ``cl`` inherit their
        parent's id (the parent's partition attribute set is a subset of
        any extension of the parent's path, so consistency is
        preserved); nodes at depth <= ``cl`` fall back to the default
        singleton id because inherited dynamic ids are not guaranteed to
        reference subsets of the *new* path.  Nodes created at exactly
        the validation level ``vl`` are appended to ``vl_nodes``.
        """
        current = self.root
        depth = 0
        for attr in attrset.iter_attrs(lhs):
            depth += 1
            child = current.children.get(attr)
            if child is None:
                child = ExtFDNode(attr, current, attr)
                if depth > cl and current is not self.root:
                    child.id = current.id
                current.children[attr] = child
                if vl_nodes is not None and depth == vl:
                    vl_nodes.append(child)
            current = child
        added = attrset.difference(rhs, current.rhs)
        if added:
            current.rhs |= added
            self.fd_count += attrset.count(added)
            if current.slot < 0:
                self.index.insert(current, lhs)
        return current

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def nodes_at_level(self, level: int) -> List[ExtFDNode]:
        """All live nodes at depth ``level`` (DFS; root is level 0)."""
        if level == 0:
            return [self.root]
        result: List[ExtFDNode] = []
        stack: List[ExtFDNode] = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                if child.depth == level:
                    result.append(child)
                elif child.depth < level:
                    stack.append(child)
        return result

    def max_depth(self) -> int:
        """Depth of the deepest node."""
        deepest = 0
        stack: List[ExtFDNode] = [self.root]
        while stack:
            node = stack.pop()
            if node.depth > deepest:
                deepest = node.depth
            stack.extend(node.children.values())
        return deepest

    def node_count(self) -> int:
        """Number of nodes excluding the root."""
        total = 0
        stack: List[ExtFDNode] = [self.root]
        while stack:
            node = stack.pop()
            total += len(node.children)
            stack.extend(node.children.values())
        return total

    def iter_fds(self) -> Iterator[FD]:
        """Yield all FDs currently represented by the tree, in slot order."""
        paths = self.index.masks(np.arange(len(self.index)))
        for node, path in zip(self.index.nodes, paths):
            yield FD(path, node.rhs)

    def iter_fd_nodes(self) -> Iterator[ExtFDNode]:
        """Yield all FD-nodes (nodes with non-empty RHS)."""
        stack: List[ExtFDNode] = [self.root]
        while stack:
            node = stack.pop()
            if node.rhs:
                yield node
            stack.extend(node.children.values())

    # ------------------------------------------------------------------
    # Removal support used by induction
    # ------------------------------------------------------------------

    def strip_rhs(self, node: ExtFDNode, removed: AttrSet) -> None:
        """Remove ``removed`` from a node's RHS, updating the FD count."""
        actually_removed = node.rhs & removed
        if not actually_removed:
            return
        node.rhs = attrset.difference(node.rhs, removed)
        self.fd_count -= attrset.count(actually_removed)
        if not node.rhs:
            self.index.remove(node)

    def prune_dead_path(self, node: ExtFDNode) -> None:
        """Detach ``node`` and any ancestors left childless and FD-less.

        Keeping garbage paths would inflate the paper's *reusable node*
        counts (a leaf whose only children are dead would wrongly count
        as reusable), skewing the efficiency–inefficiency ratio.
        """
        current: Optional[ExtFDNode] = node
        while (
            current is not None
            and current is not self.root
            and not current.children
            and not current.rhs
        ):
            parent = current.parent
            current.deleted = True
            if parent is not None:
                parent.children.pop(current.attr, None)
            current = parent
