"""Rooted labeled trees carrying a probability distribution on their leaves.

A tree is built from labeled parent-to-child edges plus a leaf mass map.
``build_tree`` alone picks the numeric mode and converts the masses.  One
pass over the edges collects each parent's (label, child) pairs and each
child's parent edge; the shape checks compare the sizes of those tables
and walk the edges again only to name a bad one.  The tables then go to
one private builder, ``_tree_from_tables``: one bottom-up walk sums the
mass below every node, Q_v.  That one table checks normalization
(Q_root = 1), prunes every node with Q_v = 0 (zero-mass leaves and
branches whose leaves all carry zero mass), so that downstream identities
can assume every leaf has positive probability, and is kept as the tree's
Q.  The matcher in ``generators``, whose trees are valid by construction,
calls the builder directly with the (label, child) pair lists its growth
keeps.

Node ids and edge labels are arbitrary hashable values; labels must be
unique among siblings.  Children keep the order in which their edges were
supplied, and all iteration is in preorder, so every float-mode computation
downstream accumulates in a reproducible order.

Two trees are compared by walking their shared label paths from the roots
(``align_by_paths``), which ignores node ids and sibling order.  That one
walk serves ``structurally_equal`` here and, in ``identities`` and
``approximation``, the divergence of one tree from another and the
per-branch Pinsker bound between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Hashable, Iterable, Mapping

from .errors import (
    CycleDetected,
    DuplicateSiblingLabel,
    LeafMassMismatch,
    MassNotNormalized,
    MultipleParents,
    MultipleRoots,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    ShapeMismatch,
)
from .numeric import _chained, exact_text

__all__ = [
    "Tree",
    "align_by_paths",
    "build_tree",
    "node_probabilities",
    "path_lengths",
    "structurally_equal",
]

NodeId = Hashable
Label = Hashable

MASS_SUM_TOLERANCE = 1e-9


def label_order(label: Label) -> tuple[bool, Label]:
    """Sort key for label sets: non-strings (integers) first, then strings.

    Labels of one type keep their natural order, and a set mixing the two
    types, which documents allow, sorts without comparing a str with an int.
    """
    return isinstance(label, str), label


@dataclass(frozen=True)
class Tree:
    """A validated rooted tree with positive leaf probabilities.

    ``children`` maps every node to its (label, child) pairs; leaves map to
    the empty tuple.  ``nodes`` lists all nodes in preorder.  ``exact`` is
    True when the leaf masses are Fractions and False when they are floats.
    ``mass_below`` is the table ``build_tree`` summed: the integers n with
    Q_v = n_v / D and D = n[root], the lcm of the leaf-mass denominators,
    on an exact tree, and Q itself on a float one.

    The node tuples ``leaves``, ``branching_nodes`` and ``label_alphabet``,
    the derived maps ``node_mass`` (Q), ``branching`` (P_{S_j}) and
    ``depths``, and the mean path length ``mean_length`` (E[w(L)]), are
    computed on first use and then kept; callers must not mutate them.
    """

    root: NodeId
    children: dict[NodeId, tuple[tuple[Label, NodeId], ...]]
    leaf_mass: dict[NodeId, Fraction | float]
    parent_edge: dict[NodeId, tuple[NodeId, Label]] = field(repr=False)
    nodes: tuple[NodeId, ...] = field(repr=False)
    mass_below: dict[NodeId, int | float] = field(repr=False)
    exact: bool = True

    @cached_property
    def leaves(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if not self.children[n])

    @cached_property
    def branching_nodes(self) -> tuple[NodeId, ...]:
        return tuple(n for n in self.nodes if self.children[n])

    @cached_property
    def label_alphabet(self) -> tuple[Label, ...]:
        labels = {lab for kids in self.children.values() for lab, _ in kids}
        return tuple(sorted(labels, key=label_order))

    def path_of(self, node: NodeId) -> tuple[Label, ...]:
        """Labels along the path from the root down to ``node``."""
        path = []
        while node != self.root:
            node, label = self.parent_edge[node]
            path.append(label)
        path.reverse()
        return tuple(path)

    def as_float(self) -> "Tree":
        """This exact tree in float mode, built as ``--float`` builds its
        document: the same edges in preorder and each leaf mass rounded by
        ``float``, so a leaf whose float is 0.0 is pruned."""
        edges = [(v, a, c) for v in self.nodes for a, c in self.children[v]]
        return build_tree(edges, {v: self.leaf_mass[v] for v in self.leaves}, exact=False)

    @cached_property
    def node_mass(self) -> dict[NodeId, Fraction | float]:
        """Q: leaf mass summed below each node; n_v / D on an exact tree."""
        if self.exact:
            d = self.mass_below[self.root]
            return {v: Fraction(n, d) for v, n in self.mass_below.items()}
        return self.mass_below

    @cached_property
    def branching(self) -> dict[NodeId, dict[Label, Fraction | float]]:
        """P_{S_j}: child probability over own, per branching node in preorder."""
        q = self.node_mass
        return {
            node: {lab: q[child] / q[node] for lab, child in self.children[node]}
            for node in self.nodes
            if self.children[node]
        }

    @cached_property
    def mean_length(self) -> Fraction | float:
        """E[w(L)]: Q summed over branching nodes in preorder.

        On an exact tree this is (sum of n_j over branching j) / D, one
        division; a float tree chains Q from 0.0 (``numeric._chained``).
        A bare root yields 0.
        """
        if self.exact:
            n = self.mass_below
            return Fraction(sum(n[j] for j in self.branching_nodes), n[self.root])
        return _chained(map(self.mass_below.__getitem__, self.branching_nodes))

    @cached_property
    def depths(self) -> dict[NodeId, int]:
        """Edge count from the root to each node."""
        depths = {self.root: 0}
        for node in self.nodes:
            for _, child in self.children[node]:
                depths[child] = depths[node] + 1
        return depths


def build_tree(
    edges: Iterable[tuple[NodeId, Label, NodeId]],
    leaf_mass: Mapping[NodeId, object],
    exact: bool | None = None,
) -> Tree:
    """Validate (parent, label, child) edges plus leaf masses into a Tree.

    Checks, in order: no node has two parents, sibling labels are unique,
    there is exactly one root and every node is reachable from it (anything
    else indicates a cycle), mass sits only on childless nodes, no mass is
    NaN, infinite, past the float range or negative, and the masses sum to
    one (exactly in exact mode, within 1e-9 in float mode).  Zero-mass
    leaves are then pruned together with any internal node left without
    descendants of positive mass.

    One pass over the edges collects each parent's (label, child) pairs and
    each child's (parent, label).  The first two checks compare sizes: every
    child has one parent and sibling labels are unique exactly when the
    children's (parent, label) pairs are as many, and as distinct, as the
    edges.  Only when they fall short does ``_first_bad_edge`` walk the
    edges again, to name the first bad one in edge order.  The roots and
    the unreachable count come from the key sets.

    ``exact`` picks the numeric mode; None infers it from the mass types
    (any float mass means float mode).  Exact masses become Fractions (a
    Fraction is kept as the caller's object) and float ones floats.  The
    checks up to the signs run here; ``_tree_from_tables`` then sums the
    mass table, checks normalization, prunes and assembles the Tree.
    """
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    # each parent's (label, child) pairs, in the order their edges came
    children: dict[NodeId, list[tuple[Label, NodeId]]] = {}
    parent_edge: dict[NodeId, tuple[NodeId, Label]] = {}
    for parent, label, child in edges:
        parent_edge[child] = (parent, label)
        if parent in children:
            children[parent].append((label, child))
        else:
            children[parent] = [(label, child)]
    # a repeated child leaves fewer parent edges than edges, and a repeated
    # sibling label fewer distinct (parent, label) pairs than parent edges
    if len(set(parent_edge.values())) < len(edges):
        _first_bad_edge(edges)

    roots = children.keys() - parent_edge.keys()
    roots |= leaf_mass.keys() - parent_edge.keys()
    if not roots:
        if not edges:
            raise ParamsInvalid("empty tree: no edges and no leaf masses")
        raise CycleDetected("no root: every node has a parent")
    if len(roots) > 1:
        raise MultipleRoots(f"multiple roots: {sorted(map(repr, roots))}")
    (root,) = roots

    # the walk cannot loop: with one parent per node, no cycle is reachable
    # from the root; every node but the root has a parent edge
    order = _preorder(root, children)
    if len(order) != len(parent_edge) + 1:
        raise CycleDetected(
            f"{len(parent_edge) + 1 - len(order)} node(s) unreachable from root {root!r}"
        )

    if not children.keys().isdisjoint(leaf_mass):
        node = next(node for node in leaf_mass if node in children)
        raise LeafMassMismatch(f"mass assigned to internal node {node!r}")

    has_float = any(isinstance(m, float) for m in leaf_mass.values())
    if exact is None:
        exact = not has_float
    if exact and has_float:
        raise ParamsInvalid(
            "exact mode requires integer or Fraction masses, got floats"
        )
    masses: dict[NodeId, Fraction | float] = {}
    for node, mass in leaf_mass.items():
        if exact:
            if type(mass) is not Fraction:
                mass = Fraction(mass)
            negative = mass.numerator < 0
        else:
            try:
                mass = float(mass)
            except OverflowError:
                raise NonFiniteMass(
                    f"leaf {node!r} has a mass beyond the float range"
                ) from None
            if not math.isfinite(mass):
                raise NonFiniteMass(f"leaf {node!r} has non-finite mass {mass}")
            negative = mass < 0
        if negative:
            raise NegativeMass(f"leaf {node!r} has negative mass {exact_text(mass)}")
        masses[node] = mass

    # each leaf's entry of the mass table: integers n over D, the lcm of
    # the leaf denominators, on exact input, and the floats otherwise
    if exact:
        d = math.lcm(*(m.denominator for m in masses.values()))
        below = {v: m.numerator * (d // m.denominator) for v, m in masses.items()}
    else:
        d, below = None, dict(masses)
    return _tree_from_tables(root, children, parent_edge, order, masses, below, d)


def _first_bad_edge(edges: Iterable[tuple[NodeId, Label, NodeId]]) -> None:
    """Raise the error of the first edge, in edge order, whose child
    already has a parent (MultipleParents) or whose label its parent
    already gives another child (DuplicateSiblingLabel)."""
    parents: set[NodeId] = set()
    labels: set[tuple[NodeId, Label]] = set()
    for parent, label, child in edges:
        if child in parents:
            raise MultipleParents(f"node {child!r} has more than one parent")
        if (parent, label) in labels:
            raise DuplicateSiblingLabel(
                f"node {parent!r} has two children labeled {label!r}"
            )
        parents.add(child)
        labels.add((parent, label))
    raise AssertionError("the size check failed on no edge")


def _preorder(
    root: NodeId, children: Mapping[NodeId, list[tuple[Label, NodeId]]]
) -> list[NodeId]:
    """The nodes reachable from ``root`` in preorder, each node's children
    in their stored order; ``children`` maps every internal node to its
    (label, child) pairs, and a leaf to nothing."""
    # the stack holds (label, child) pairs, as the children store them
    order = [root]
    stack = list(reversed(children.get(root, ())))
    while stack:
        node = stack.pop()[1]
        order.append(node)
        if node in children:
            stack.extend(reversed(children[node]))
    return order


def _tree_from_tables(root, children, parent_edge, order, masses, below, d) -> Tree:
    """The Tree of a valid shape, from its tables and each leaf's entry of
    the mass table.

    ``children`` maps every internal node to its (label, child) pairs and
    no leaf, ``parent_edge`` every other node to its (parent, label),
    ``order`` lists the nodes in preorder and ``masses`` maps leaves to
    masses.  ``below`` maps leaves to integers n over ``d`` on an exact
    tree, to their float masses (``d`` None) on a float one.  One walk up
    the preorder sums the table into every internal node, the root's sum
    must be one, and nodes with nothing below them are pruned.  The Tree
    takes ``masses`` and ``parent_edge`` as its own; ``children`` is copied
    into tuples.
    """
    # Sums run in stored child order (recursion would be bounded only by
    # tree height).  A zero-mass subtree adds an exact 0 (or 0.0, and
    # x + 0.0 == x), so the kept nodes' sums are those of the pruned tree.
    for node in reversed(order):
        if node in children:
            total = 0
            for _, child in children[node]:
                total += below.get(child, 0)
            below[node] = total
    total = below.get(root, 0)
    if d is not None:
        if total != d:
            raise MassNotNormalized(
                f"leaf masses sum to {exact_text(Fraction(total, d))}, expected 1"
            )
    elif abs(total - 1.0) > MASS_SUM_TOLERANCE:
        raise MassNotNormalized(f"leaf masses sum to {total!r}, expected 1")

    # Keep a node exactly when the mass below it is positive, and drop the
    # others (usually none) from the maps built above.  The root, below
    # which the masses sum to one, is always kept.
    table = dict(zip(order, map(below.get, order, repeat(0))))
    if 0 in table.values():
        table = {v: n for v, n in table.items() if n > 0}
        for v in order:
            if v not in table:
                del parent_edge[v]
                masses.pop(v, None)
        children = {
            v: [pair for pair in pairs if pair[1] in table]
            for v, pairs in children.items()
            if v in table
        }
    kids = dict.fromkeys(table, ())
    for v, pairs in children.items():
        kids[v] = tuple(pairs)
    return Tree(
        root=root,
        children=kids,
        leaf_mass=masses,
        parent_edge=parent_edge,
        nodes=tuple(table),
        mass_below=table,
        exact=d is not None,
    )


def node_probabilities(tree: Tree) -> dict[NodeId, Fraction | float]:
    """Probability of passing through each node: leaf mass summed below it.

    The root always carries probability one.  Returns the tree's cached
    map; internal sums run over children in stored order, so float results
    are reproducible.
    """
    return tree.node_mass


def path_lengths(tree: Tree) -> dict[NodeId, int]:
    """Edge count from the root to each node; the tree's cached map."""
    return tree.depths


def align_by_paths(p: Tree, q: Tree) -> tuple[dict[NodeId, NodeId], bool]:
    """Match q's nodes onto p's by walking shared label paths.

    Returns (mapping from p node to q node, covered) where covered is False
    when q is missing structure that p has: a divergence of p from such a q
    is infinite, since positive p mass sits where q has none.  Structure
    present in q but absent from p violates the same-shape requirement and
    raises ShapeMismatch, naming the first extra label in sorted-repr order
    and p's path to it.  The walk is iterative and visits each aligned
    pair once, so the cost is linear in the number of nodes whatever the
    depth.

    A leaf of q needs no lookup: covered turns False there exactly when p
    branches.  At a branching node of q the walk builds one label -> child
    dict and counts p's labels found in it; q has an extra branch exactly
    when fewer were found than q has children, and only then are the extra
    labels and the path computed, for the message.
    """
    mapping = {p.root: q.root}
    covered = True
    stack = [(p.root, q.root)]
    while stack:
        pn, qn = stack.pop()
        q_pairs = q.children[qn]
        if not q_pairs:
            if p.children[pn]:
                covered = False
            continue
        q_by_label = dict(q_pairs)
        found = 0
        for lab, pc in p.children[pn]:
            qc = q_by_label.get(lab)
            if qc is None:
                covered = False
            else:
                found += 1
                mapping[pc] = qc
                stack.append((pc, qc))
        if found < len(q_pairs):
            extra = q_by_label.keys() - {lab for lab, _ in p.children[pn]}
            raise ShapeMismatch(
                f"second tree has extra branch {sorted(map(repr, extra))[0]}"
                f" under path {p.path_of(pn)!r}"
            )
    return mapping, covered


def structurally_equal(a: Tree, b: Tree) -> bool:
    """True when both trees have the same label paths and leaf masses.

    Node ids and sibling order are ignored: the trees are aligned by label
    paths (``align_by_paths``), and are equal when neither has a branch the
    other lacks and every leaf of a carries the mass of its aligned leaf.
    """
    try:
        mapping, covered = align_by_paths(a, b)
    except ShapeMismatch:
        return False
    return covered and all(b.leaf_mass[mapping[v]] == m for v, m in a.leaf_mass.items())
