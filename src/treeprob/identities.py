"""Leaf-average/node-sum identities on probability trees.

The central identity converts a leaf expectation of a node functional f
into a weighted sum of per-node increments:

    E[f(L)] - f(root) = sum over branching j of  Q_j * E[delta_f(S_j)]

where delta_f(i) = f(i) - f(parent(i)) and the inner expectation runs over
the branching distribution at j.  ``lansit_check`` evaluates the node side
by the constructive argument behind the identity: repeatedly merge a
deepest sibling set into its parent, accumulating that node's term, until
only the root remains.  ``node_increment_sum`` is the independent direct
summation; the two walk the branching nodes in the same order and perform
the same elementary operations, so they agree bit for bit even in float
mode; they differ only in where the node masses come from.

One mode rule (``_exact_sum``) holds for every sum over a tree: it is
exact when the tree is exact and none of its values (f on the nodes, or
the inner values of ``branch_sum``) is a float.  Any other sum is chained
left to right as ``total = total + w * v``.

An exact tree keeps one integer table n with Q_v = n_v / D, D = n_root the
lcm of the leaf-mass denominators (``Tree.mass_numerators``), and every
exact sum here weights by n and passes D to the one fold,
``numeric.exact_weighted_sum``, which divides by it once.  The leaf side
weights f(leaf) by n_leaf and f(root) by -D.  Because n_j is the sum of its
children's n_c, Q_j E[delta_f(S_j)] is the integer combination sum over
children c of n_c f(c), less n_j f(j), over D: no term divides by Q_j.

Specializing f gives the derived quantities, and for each the node side
takes the form sum over branching j of Q_j * inner(j, P_{S_j}), which
``branch_sum`` evaluates once for all of them:

* f = path length: inner = 1, giving the expected parse length E[w(L)],
  which the tree sums itself and keeps (``Tree.mean_length``);
* f = -log2 Q: inner = H(P_{S_j}), giving the leaf entropy;
* f = log2(Q/Q') for two mass assignments on one shape: inner =
  D(P_{S_j} || P'_{S_j}), giving the informational divergence;
* f = log2(Q/Q+) for a product reference (``approximation``): inner is the
  divergence of P_{S_j} from the product's one branching distribution.

In exact mode the three log-valued sums are not taken per branch: Q_j
times the entropy or divergence at j is the increment sum over j's
children c of Q_c (f(c) - f(j)) for the f above.  Summed over j, the
increments telescope to the leaf side E[f(L)] - f(root), with f(root) = 0,
so ``leaf_log_sum`` adds n_l times the prime-exponent map of f at each
leaf l and divides by D once.  Only leaf masses (and the product's branch
masses) are factored, never an internal Q_j.  The result equals the
per-branch sum of ``entropy_of`` or ``kl_of`` terms, type included.

Each normalized, per-branch form is its unnormalized value divided by
E[w(L)], i.e. the average under P_B(j) = Q_j / E[w(L)] over branching
nodes; a caller that already holds an unnormalized value gets its
per-branch form with one division.  ``approximation`` takes its other
P_B averages (of branch distances, and of a bounded functional g) the
same way, with inner = the distance at j or g(P_{S_j}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DegenerateTree, FunctionalIncomplete, ShapeMismatch
from .numeric import entropy_of, exact_weighted_sum, kl_of, log2_exponents, log2_of
from .tree import (
    Label,
    NodeId,
    Tree,
    branching_distributions,
    node_probabilities,
    path_lengths,
)

__all__ = [
    "BranchingNodeDistribution",
    "LansitReport",
    "align_by_paths",
    "branching_node_distribution",
    "differential_lansit_check",
    "entropy_rate",
    "expected_path_length",
    "lansit_check",
    "leaf_entropy",
    "log_ratio_functional",
    "merged_increment_sum",
    "node_increment_sum",
    "normalized_divergence",
    "surprisal_functional",
    "tree_divergence",
]

NodeFunctional = Mapping[NodeId, object]

RESIDUAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class LansitReport:
    """Both sides of the interchange identity plus their difference."""

    leaf_side: object
    node_side: object
    residual: object
    exact: bool

    def holds(self) -> bool:
        if self.exact:
            return self.residual == 0
        if self.leaf_side == self.node_side:  # also two infinities of one sign
            return True
        scale = max(1.0, abs(float(self.leaf_side)))
        return abs(float(self.residual)) <= RESIDUAL_REL_TOL * scale

    def per_branch(self, ew: object) -> "LansitReport":
        """This report with every side divided by E[w(L)] = ``ew``."""
        return LansitReport(
            self.leaf_side / ew, self.node_side / ew, self.residual / ew, self.exact
        )


@dataclass(frozen=True)
class BranchingNodeDistribution:
    """P_B(j) = Q_j / E[w(L)] over branching nodes, plus E[w(L)] itself."""

    mass: dict[NodeId, object]
    mean_length: object


def _require_complete(tree: Tree, f: NodeFunctional) -> None:
    missing = [n for n in tree.nodes if n not in f]
    if missing:
        raise FunctionalIncomplete(
            f"functional missing on {len(missing)} node(s), e.g. {missing[0]!r}"
        )


def normalizer(tree: Tree) -> object:
    """E[w(L)], the divisor of every normalized form; rejects bare roots."""
    if not tree.branching_nodes:
        raise DegenerateTree("single-node tree: no branching nodes")
    return tree.mean_length


def _exact_sum(tree: Tree, values: Iterable) -> bool:
    """The mode rule: a sum over ``tree`` is exact when the tree is exact
    and none of its ``values`` is a float."""
    return tree.exact and not any(isinstance(v, float) for v in values)


def branch_sum(
    tree: Tree, inner: Callable[[NodeId, Mapping[Label, object]], object]
) -> object:
    """Sum over branching j, in preorder, of Q_j * inner(j, P_{S_j}).

    Each inner value is evaluated once, in preorder; on an exact tree all
    of them come first, for the mode rule (``_exact_sum``) to read.  An
    exact sum weights inner(j) by the integer n_j of Q_j = n_j / D and
    folds the terms over D (``numeric.exact_weighted_sum``); any other is
    the float sum from 0.0, left to right.  A tree without branching nodes
    yields Fraction(0) on an exact tree and 0.0 on a float one.
    """
    branching = branching_distributions(tree)
    if tree.exact:
        values = {j: inner(j, dist) for j, dist in branching.items()}
        if _exact_sum(tree, values.values()):
            n = tree.mass_numerators
            return exact_weighted_sum(
                ((n[j], v) for j, v in values.items()), n[tree.root]
            )
        # the float sum below reads the values already evaluated
        inner = lambda j, dist: values[j]
    q = node_probabilities(tree)
    total = 0.0
    for j, dist in branching.items():
        total = total + q[j] * inner(j, dist)
    return total


def leaf_log_sum(
    tree: Tree,
    leaf_ratios: Sequence[tuple[int, Mapping[NodeId, Fraction]]],
    label_ratios: Mapping[Label, Fraction] | None = None,
) -> object:
    """Sum over branching j of Q_j E[f(S_j) - f(j)] for an exact tree and a
    functional f valued in logarithms of rationals with f(root) = 0, in
    integer arithmetic over the leaves alone.

    f(leaf) is the sum of s * log2 R(leaf) over the (s, R) pairs of
    ``leaf_ratios``: s is +1 or -1 and R maps each leaf to a positive
    rational.  ``label_ratios`` maps an edge label a to a positive rational
    r_a, and adds log2 r_a to f(leaf) once for each a-edge on the leaf's
    path.

    The increments telescope to the leaf side E[f(L)] - f(root).  With the
    tree's integer table Q_v = n_v / D (``Tree.mass_numerators``), that is
    (1/D) times the integer combination

        sum over leaves l of n_l f(l)
        + sum over labels a of W_a log2 r_a,   W_a = sum of n_v over a-edges,

    and each prime's coefficient is an integer sum divided by D once
    (``numeric.exact_weighted_sum``).  Only the R(leaf) and r_a are factored,
    never an internal node mass.  A tree without branching nodes gives
    Fraction(0), the zero that ``branch_sum`` starts from.
    """
    if not tree.children[tree.root]:
        return Fraction(0)
    n = tree.mass_numerators
    terms = [
        (sign * n[leaf], log2_exponents(r))
        for sign, ratios in leaf_ratios
        for leaf, r in ratios.items()
    ]
    if label_ratios:
        weights = dict.fromkeys(label_ratios, 0)
        for v, (_, a) in tree.parent_edge.items():
            weights[a] += n[v]
        terms += [(w, log2_exponents(label_ratios[a])) for a, w in weights.items()]
    return exact_weighted_sum(terms, n[tree.root])


def _merge_order(tree: Tree) -> list[NodeId]:
    """Branching nodes deepest first; ties by preorder position."""
    depth = path_lengths(tree)
    index = {n: i for i, n in enumerate(tree.nodes)}
    return sorted(tree.branching_nodes, key=lambda j: (-depth[j], index[j]))


def _increments(tree: Tree, f: NodeFunctional, j: NodeId, n, nj) -> Iterator:
    """D Q_j E[delta_f(S_j)] as exact (weight, value) terms: (n_c, f(c)) for
    each child c of j, then (-n_j, f(j)), since n_j is the sum of the n_c."""
    yield from ((n[child], f[child]) for _, child in tree.children[j])
    yield -nj, f[j]


def _contraction(tree: Tree, exact: bool) -> Iterator[tuple[NodeId, dict, object]]:
    """Yield (j, mass, m_j) per branching node in merge order by the
    leaf-merging contraction, where mass holds the masses of j's children
    and m_j is their sum.

    Maintains the current leaf masses of the progressively contracted tree,
    starting from the leaf entries of Q, or of n in an exact sum: each step
    sums m_j over j's current children (all of which are leaves by the
    deepest-first order), then replaces the sibling set by j itself
    carrying mass m_j.  No internal mass is read from the tree.
    """
    m = tree.mass_numerators if exact else tree.leaf_mass
    mass = {v: m[v] for v in tree.leaf_mass}
    for j in _merge_order(tree):
        kids = tree.children[j]
        mj = mass[kids[0][1]]
        for _, child in kids[1:]:
            mj = mj + mass[child]
        yield j, mass, mj
        for _, child in kids:
            del mass[child]
        mass[j] = mj


def _node_masses(tree: Tree, exact: bool) -> Iterator[tuple[NodeId, dict, object]]:
    """The (j, mass, m_j) of each branching node in merge order, with mass
    the tree's own table: n in an exact sum, Q otherwise."""
    mass = tree.mass_numerators if exact else node_probabilities(tree)
    return ((j, mass, mass[j]) for j in _merge_order(tree))


def _node_side(
    tree: Tree,
    f: NodeFunctional,
    masses: Callable[[Tree, bool], Iterable[tuple[NodeId, dict, object]]],
) -> object:
    """Sum over branching j of Q_j E[delta_f(S_j)], with j's masses from
    ``masses(tree, exact)``.

    An exact sum (``_exact_sum`` over f) folds the ``_increments`` of every
    j over D.  Otherwise it chains, per j, Q_j times the sum over children
    c of (Q_c / Q_j) (f(c) - f(j)).
    """
    if _exact_sum(tree, map(f.get, tree.nodes)):
        terms = (t for step in masses(tree, True) for t in _increments(tree, f, *step))
        return exact_weighted_sum(terms, tree.mass_numerators[tree.root])
    total = 0
    for j, mass, qj in masses(tree, False):
        inner = 0
        for _, child in tree.children[j]:
            inner = inner + (mass[child] / qj) * (f[child] - f[j])
        total = total + qj * inner
    return total


def merged_increment_sum(tree: Tree, f: NodeFunctional) -> object:
    """Node-side sum evaluated by repeated merging of deepest sibling sets."""
    return _node_side(tree, f, _contraction)


def node_increment_sum(tree: Tree, f: NodeFunctional) -> object:
    """Direct node-side sum from the tree's node masses.

    Walks branching nodes in the same order as the merging evaluation and
    performs the same divisions and additions, so the two results are
    identical, not merely close.  The two differ only in where the masses
    come from: this sum reads Q_j, or n_j when exact, from the tree's table
    where the contraction sums it.
    """
    return _node_side(tree, f, _node_masses)


def lansit_check(tree: Tree, f: NodeFunctional) -> LansitReport:
    """Evaluate both sides of the interchange identity for a functional.

    leaf_side is sum of P_L(i) f(i) minus f(root); node_side comes from
    ``merged_increment_sum`` so every call exercises the constructive
    contraction argument.  An exact leaf side folds n_l f(l) and -D f(root)
    over D from the tree's integer mass table, as the node side does, so it
    checks the identity on that table but not the table against the parsed
    leaf masses.  Raises FunctionalIncomplete when f lacks a node.
    """
    _require_complete(tree, f)
    exact = _exact_sum(tree, map(f.get, tree.nodes))
    if exact:
        n = tree.mass_numerators
        d = n[tree.root]
        terms = [(n[leaf], f[leaf]) for leaf in tree.leaves]
        leaf_side = exact_weighted_sum(terms + [(-d, f[tree.root])], d)
    else:
        leaf_side = 0
        for leaf in tree.leaves:
            leaf_side = leaf_side + tree.leaf_mass[leaf] * f[leaf]
        leaf_side = leaf_side - f[tree.root]
    node_side = merged_increment_sum(tree, f)
    residual = leaf_side - node_side
    return LansitReport(leaf_side, node_side, residual, exact)


def expected_path_length(tree: Tree) -> object:
    """E[w(L)] as the sum of branching-node probabilities (inner = 1).

    Equals the leaf-side average of path lengths.  Returns the tree's
    cached ``mean_length``.  A single-node tree has no branching nodes and
    yields 0; normalized quantities reject that case separately with
    DegenerateTree.
    """
    return tree.mean_length


def leaf_entropy(tree: Tree) -> object:
    """H(P_L) in bits via the branch-sum: sum of Q_j H(P_{S_j}).

    Equals the direct leaf-side entropy -sum of P_L log2 P_L; exact mode
    returns an ExactLog2 value for which that equality is literal.  Exact
    mode folds that leaf side, f = -log2 Q, since Q_j H(P_{S_j}) is the
    sum over children c of Q_c (log2 Q_j - log2 Q_c).
    """
    if tree.exact:
        return leaf_log_sum(tree, [(-1, tree.leaf_mass)])
    return branch_sum(tree, lambda j, dist: entropy_of(dist.values(), False))


def align_by_paths(p: Tree, q: Tree) -> tuple[dict[NodeId, NodeId], bool]:
    """Match q's nodes onto p's by walking shared label paths.

    Returns (mapping from p node to q node, covered) where covered is False
    when q is missing structure that p has: a divergence of p from such a q
    is infinite, since positive p mass sits where q has none.  Structure
    present in q but absent from p violates the same-shape requirement and
    raises ShapeMismatch.
    """
    mapping = {p.root: q.root}
    covered = True
    stack = [(p.root, q.root)]
    while stack:
        pn, qn = stack.pop()
        q_by_label = {lab: c for lab, c in q.children[qn]}
        p_labels = {lab for lab, _ in p.children[pn]}
        extra = set(q_by_label) - p_labels
        if extra:
            raise ShapeMismatch(
                f"second tree has extra branch {sorted(map(repr, extra))[0]}"
                f" under path {p.path_of(pn)!r}"
            )
        for lab, pc in p.children[pn]:
            qc = q_by_label.get(lab)
            if qc is None:
                covered = False
            else:
                mapping[pc] = qc
                stack.append((pc, qc))
    return mapping, covered


def tree_divergence(p: Tree, q: Tree) -> object:
    """D(P_L || P_L') in bits via the branch-sum over aligned nodes.

    Trees are aligned by label paths.  Returns +inf when q lacks a branch
    that carries positive p mass; raises ShapeMismatch when q has branches
    p does not.  Equals the leaf-side sum of P_L log2(P_L/P_L').
    """
    return aligned_divergence(p, q, *align_by_paths(p, q))


def aligned_divergence(
    p: Tree, q: Tree, mapping: Mapping[NodeId, NodeId], covered: bool
) -> object:
    """``tree_divergence`` for an alignment ``align_by_paths`` already made."""
    if not covered:
        return math.inf
    if p.exact and q.exact:
        # f = log2(Q / Q') at p's leaves; each aligns with a leaf of q, since
        # q has no branch that p lacks
        ref = {v: q.leaf_mass[mapping[v]] for v in p.leaf_mass}
        return leaf_log_sum(p, [(1, p.leaf_mass), (-1, ref)])
    ref = branching_distributions(q)

    def inner(j, dist):
        ref_j = ref[mapping[j]]
        return kl_of(((m, ref_j[lab]) for lab, m in dist.items()), False)

    return branch_sum(p, inner)


def branching_node_distribution(tree: Tree) -> BranchingNodeDistribution:
    """The length-biased distribution P_B(j) = Q_j / E[w(L)] over branching nodes."""
    ew = normalizer(tree)
    q = node_probabilities(tree)
    mass = {j: q[j] / ew for j in tree.branching_nodes}
    return BranchingNodeDistribution(mass=mass, mean_length=ew)


def differential_lansit_check(tree: Tree, f: NodeFunctional) -> LansitReport:
    """Per-branch form of the interchange identity.

    ``lansit_check`` with every side divided by E[w(L)]: leaf_side is
    (E[f(L)] - f(root)) / E[w(L)] and node_side the P_B-average of the
    per-node increments.  With f = path length both sides are 1.  A caller
    that already holds the ``lansit_check`` report uses its ``per_branch``.
    """
    return lansit_check(tree, f).per_branch(normalizer(tree))


def entropy_rate(tree: Tree) -> object:
    """Bits per branch: H(P_L) / E[w(L)], the P_B-average of node entropies."""
    ew = normalizer(tree)
    return leaf_entropy(tree) / ew


def normalized_divergence(p: Tree, q: Tree) -> object:
    """Bits per branch: tree_divergence(p, q) over p's expected path length.

    This is the P_B-average of per-node divergences, with P_B from p, the
    first argument; +inf propagates when q fails to cover p's support.
    """
    ew = normalizer(p)
    return tree_divergence(p, q) / ew


def surprisal_functional(tree: Tree) -> dict[NodeId, object]:
    """f(j) = -log2 Q_j: its leaf average is H(P_L), its rate the entropy rate."""
    q = node_probabilities(tree)
    return {n: -log2_of(q[n], tree.exact) for n in tree.nodes}


def log_ratio_functional(p: Tree, q: Tree) -> dict[NodeId, object]:
    """f(j) = log2(Q_j / Q'_j) on p's nodes, aligning q by label paths.

    Its leaf average is D(P_L || P_L').  Raises ShapeMismatch when the two
    shapes differ in either direction, since a missing q node would make f
    infinite.
    """
    mapping, covered = align_by_paths(p, q)
    if not covered:
        raise ShapeMismatch("second tree does not cover the first; f would be infinite")
    qp = node_probabilities(p)
    qq = node_probabilities(q)
    exact = p.exact and q.exact
    out: dict[NodeId, object] = {}
    for n in p.nodes:
        ratio = qp[n] / qq[mapping[n]]
        out[n] = log2_of(Fraction(ratio), True) if exact else math.log2(ratio)
    return out
