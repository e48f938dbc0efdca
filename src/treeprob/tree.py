"""Rooted labeled trees carrying a probability distribution on their leaves.

A tree is built from labeled parent-to-child edges plus a leaf mass map.
``build_tree`` alone picks the numeric mode and converts the masses.  It
validates the shape and the sign of the input, then one bottom-up walk sums
the mass below every node, Q_v.  That one table checks normalization
(Q_root = 1), prunes every node with Q_v = 0 (zero-mass leaves and branches
whose leaves all carry zero mass), so that downstream identities can assume
every leaf has positive probability, and is kept as the tree's Q.

Node ids and edge labels are arbitrary hashable values; labels must be
unique among siblings.  Children keep the order in which their edges were
supplied, and all iteration is in preorder, so every float-mode computation
downstream accumulates in a reproducible order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
)

__all__ = [
    "Tree",
    "build_tree",
    "node_probabilities",
    "branching_distributions",
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
    Q_v = n_v / D and D = n[root] on an exact tree, Q itself on a float one.

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

    def depth_of(self, node: NodeId) -> int:
        return self.depths[node]

    @property
    def mass_numerators(self) -> dict[NodeId, int]:
        """n, for an exact tree: Q_v = n_v / D with the integer D = n[root],
        the lcm of the leaf-mass denominators."""
        return self.mass_below

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

        Starts from a zero of the tree's mode, so a bare root yields 0.
        """
        total = Fraction(0) if self.exact else 0.0
        for j in self.branching_nodes:
            total = total + self.node_mass[j]
        return total

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

    ``exact`` picks the numeric mode; None infers it from the mass types
    (any float mass means float mode).  Exact masses become Fractions and
    float ones floats.
    """
    edges = list(edges)
    # children by label, in the order their edges came
    children: dict[NodeId, dict[Label, NodeId]] = {}
    parent_edge: dict[NodeId, tuple[NodeId, Label]] = {}
    for parent, label, child in edges:
        if child in parent_edge:
            raise MultipleParents(f"node {child!r} has more than one parent")
        if label in children.get(parent, ()):
            raise DuplicateSiblingLabel(
                f"node {parent!r} has two children labeled {label!r}"
            )
        parent_edge[child] = (parent, label)
        children.setdefault(parent, {})[label] = child
        children.setdefault(child, {})

    all_nodes = set(children) | set(leaf_mass)
    if not all_nodes:
        raise ParamsInvalid("empty tree: no edges and no leaf masses")
    for node in leaf_mass:
        children.setdefault(node, {})

    roots = [n for n in all_nodes if n not in parent_edge]
    if not roots:
        raise CycleDetected("no root: every node has a parent")
    if len(roots) > 1:
        raise MultipleRoots(f"multiple roots: {sorted(map(repr, roots))}")
    root = roots[0]

    # One walk from the root lists the whole tree in preorder.  It cannot
    # loop: with one parent per node, no cycle is reachable from the root.
    order: list[NodeId] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node].values()))
    if len(order) != len(all_nodes):
        raise CycleDetected(
            f"{len(all_nodes) - len(order)} node(s) unreachable from root {root!r}"
        )

    for node in leaf_mass:
        if children[node]:
            raise LeafMassMismatch(
                f"mass assigned to internal node {node!r}"
            )

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
            mass = Fraction(mass)
        else:
            try:
                mass = float(mass)
            except OverflowError:
                raise NonFiniteMass(
                    f"leaf {node!r} has a mass beyond the float range"
                ) from None
            if not math.isfinite(mass):
                raise NonFiniteMass(f"leaf {node!r} has non-finite mass {mass}")
        if mass < 0:
            raise NegativeMass(f"leaf {node!r} has negative mass {mass}")
        masses[node] = mass

    # One walk up the preorder sums the mass below every node: integers n
    # over D, the lcm of the leaf denominators, on exact input, and floats
    # in stored child order otherwise (recursion would be bounded only by
    # tree height).  A zero-mass subtree adds an exact 0 (or 0.0, and
    # x + 0.0 == x), so the kept nodes' sums are those of the pruned tree.
    if exact:
        d = math.lcm(*(m.denominator for m in masses.values()))
        below = {v: m.numerator * (d // m.denominator) for v, m in masses.items()}
    else:
        below = dict(masses)
    for node in reversed(order):
        if children[node]:
            total = 0
            for child in children[node].values():
                total += below.get(child, 0)
            below[node] = total
    total = below.get(root, 0)
    if exact:
        if total != d:
            raise MassNotNormalized(
                f"leaf masses sum to {Fraction(total, d)}, expected 1"
            )
    elif abs(total - 1.0) > MASS_SUM_TOLERANCE:
        raise MassNotNormalized(f"leaf masses sum to {total!r}, expected 1")

    # Keep a node exactly when the mass below it is positive.
    table = {v: below[v] for v in order if below.get(v, 0) > 0}
    return Tree(
        root=root,
        children={
            v: tuple((lab, c) for lab, c in children[v].items() if c in table)
            for v in table
        },
        leaf_mass={v: m for v, m in masses.items() if v in table},
        parent_edge={v: parent_edge[v] for v in table if v in parent_edge},
        nodes=tuple(table),
        mass_below=table,
        exact=exact,
    )


def node_probabilities(tree: Tree) -> dict[NodeId, Fraction | float]:
    """Probability of passing through each node: leaf mass summed below it.

    The root always carries probability one.  Returns the tree's cached
    map; internal sums run over children in stored order, so float results
    are reproducible.
    """
    return tree.node_mass


def branching_distributions(tree: Tree) -> dict[NodeId, dict[Label, Fraction | float]]:
    """Per-branching-node label distribution: child probability over own.

    Only nodes with children appear in the result, in preorder.  Returns
    the tree's cached map.
    """
    return tree.branching


def path_lengths(tree: Tree) -> dict[NodeId, int]:
    """Edge count from the root to each node; the tree's cached map."""
    return tree.depths


def structurally_equal(a: Tree, b: Tree) -> bool:
    """True when both trees have the same label paths and leaf masses.

    Node ids and sibling order are ignored; the two trees are walked from
    their roots in step, matching children by label, so the cost is linear
    in the number of nodes whatever the depth.
    """
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        a_kids = dict(a.children[x])
        b_kids = dict(b.children[y])
        if a_kids.keys() != b_kids.keys():
            return False
        if not a_kids and a.leaf_mass[x] != b.leaf_mass[y]:
            return False
        stack.extend((a_kids[lab], b_kids[lab]) for lab in a_kids)
    return True
