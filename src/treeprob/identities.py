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
mode.  Each call decides once whether its sum is exact (an exact tree, and
no float value in f or in an inner term); any other sum is chained left to
right as ``total = total + w * v``.

An exact tree keeps one integer table n with Q_v = n_v / D, D = n_root the
lcm of the leaf-mass denominators (``Tree.mass_numerators``), and every
exact sum here weights by n and divides by D once.  Because n_j is the sum
of its children's n_c, Q_j E[delta_f(S_j)] is the integer combination
sum over children c of n_c f(c), less n_j f(j), over D: no term divides by
Q_j, and ``numeric.exact_weighted_sum`` folds the whole node side.

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
children c of Q_c (f(c) - f(j)) for the f above, and
``log_increment_sum`` adds those increments as integer multiples n_c of
prime-exponent maps and divides by D once.  The weights of each
increment sum to zero (n_j is the sum of the n_c), so a constant added to
f cancels.  log2 Q_v is factored from the reduced Q_v all the same, not
from n_v: n_root = D may hold two large primes that no reduced mass holds
together, and trial division of their product costs about the smaller
one.  The result equals the per-branch sum of ``entropy_of`` or
``kl_of`` terms, type included.

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
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DegenerateTree, FunctionalIncomplete, ShapeMismatch
from .numeric import (
    entropy_of,
    exact_log2_sum,
    exact_weighted_sum,
    kl_of,
    log2_exponents,
    log2_of,
)
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


def _exact_functional(tree: Tree, f: NodeFunctional) -> bool:
    """True when the tree is exact and f has no float value on its nodes."""
    return tree.exact and not any(isinstance(f.get(n), float) for n in tree.nodes)


def branch_sum(
    tree: Tree,
    inner: Callable[[NodeId, Mapping[Label, object]], object],
    exact: bool,
) -> object:
    """Sum over branching j, in preorder, of Q_j * inner(j, P_{S_j}).

    ``exact`` is the caller's promise that the tree is exact and every
    inner value a rational or an ExactLog2.  The sum then weights inner(j)
    by the integer n_j of Q_j = n_j / D, folds the terms
    (``numeric.exact_weighted_sum``) and divides by D once; otherwise it is
    the float sum from 0.0, left to right.  A tree without branching nodes
    yields Fraction(0) or 0.0.
    """
    q = node_probabilities(tree)
    branching = branching_distributions(tree)
    if exact:
        n = tree.mass_numerators
        terms = ((n[j], inner(j, dist)) for j, dist in branching.items())
        return exact_weighted_sum(terms) / n[tree.root]
    total = 0.0
    for j, dist in branching.items():
        total = total + q[j] * inner(j, dist)
    return total


def mass_logs(tree: Tree) -> dict[NodeId, dict[int, int]]:
    """The prime exponents of Q_v (``numeric.log2_exponents``) per node of an
    exact tree: log2 Q_v in the form ``log_increment_sum`` takes."""
    return {v: log2_exponents(m) for v, m in tree.node_mass.items()}


def log_increment_sum(
    tree: Tree,
    node_logs: Sequence[tuple[int, Mapping[NodeId, Mapping[int, int]]]],
    label_logs: Mapping[Label, Mapping[int, int]] | None = None,
) -> object:
    """Sum over branching j of Q_j E[f(S_j) - f(j)] for an exact tree and a
    functional f valued in logarithms of rationals, in integer arithmetic.

    f(v) is the sum of s * log2 R(v) over the (s, lam) pairs of
    ``node_logs``: s is +1 or -1 and lam(v) holds the prime exponents of
    the positive rational R(v); a constant added to f changes no increment.
    ``label_logs`` maps an edge label a to the exponents of a rational r_a,
    and adds log2 r_a to the increment f(c) - f(j) of every child c reached
    by an a-edge.

    With the tree's integer table Q_v = n_v / D (``Tree.mass_numerators``),
    n_j is the sum of its children's n_c.  So the sum is (1/D) times the
    integer combination

        sum over j of [sum over children c of n_c f(c)] - n_j f(j)
        + sum over labels a of W_a log2 r_a,   W_a = sum of n_c over a-edges,

    and each prime's coefficient is an integer sum divided by D once
    (``numeric.exact_log2_sum``).  A tree without branching nodes gives
    Fraction(0), the zero that ``branch_sum`` starts from.
    """
    children = tree.children
    if not children[tree.root]:
        return Fraction(0)
    n = tree.mass_numerators
    weights = dict.fromkeys(label_logs or (), 0)

    def terms():
        for j in tree.nodes:
            kids = children[j]
            if not kids:
                continue
            for sign, lam in node_logs:
                yield -sign * n[j], lam[j]
                for _, c in kids:
                    yield sign * n[c], lam[c]
            if label_logs:
                for a, c in kids:
                    weights[a] += n[c]
        for a, w in weights.items():
            yield w, label_logs[a]

    return exact_log2_sum(terms(), n[tree.root])


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


def _merged_terms(
    tree: Tree, f: NodeFunctional, exact: bool
) -> Iterator[tuple[object, object]]:
    """Yield the node side's (weight, value) terms by the leaf-merging
    contraction.

    Maintains the current leaf masses of the progressively contracted tree:
    each step recomputes Q_j from the masses of j's current children (all of
    which are leaves by the deepest-first order), then replaces the sibling
    set by j itself carrying mass Q_j.  Float mode yields (Q_j,
    E[delta_f(S_j)]); exact mode holds the integers n of Q = n / D and
    yields the ``_increments`` of j.
    """
    # leaves only: each internal Q_j, or n_j in exact mode, is rebuilt below
    n = tree.mass_numerators if exact else tree.leaf_mass
    mass = {v: n[v] for v in tree.leaf_mass}
    for j in _merge_order(tree):
        kids = tree.children[j]
        qj = mass[kids[0][1]]
        for _, child in kids[1:]:
            qj = qj + mass[child]
        if exact:
            yield from _increments(tree, f, j, mass, qj)
        else:
            inner = 0
            for _, child in kids:
                inner = inner + (mass[child] / qj) * (f[child] - f[j])
            yield qj, inner
        for _, child in kids:
            del mass[child]
        mass[j] = qj


def merged_increment_sum(tree: Tree, f: NodeFunctional) -> object:
    """Node-side sum evaluated by repeated merging of deepest sibling sets."""
    exact = _exact_functional(tree, f)
    terms = _merged_terms(tree, f, exact)
    if exact:
        return exact_weighted_sum(terms) / tree.mass_numerators[tree.root]
    total = 0
    for qj, inner in terms:
        total = total + qj * inner
    return total


def node_increment_sum(tree: Tree, f: NodeFunctional) -> object:
    """Direct node-side sum from the tree's node probabilities.

    Walks branching nodes in the same order as the merging evaluation and
    performs the same divisions and additions, so the two results are
    identical, not merely close.  An exact sum reads n_j from the tree's
    integer table where the contraction sums it.
    """
    if _exact_functional(tree, f):
        n = tree.mass_numerators
        terms = (t for j in _merge_order(tree) for t in _increments(tree, f, j, n, n[j]))
        return exact_weighted_sum(terms) / n[tree.root]
    q = node_probabilities(tree)
    total = 0
    for j in _merge_order(tree):
        qj = q[j]
        inner = 0
        for _, child in tree.children[j]:
            inner = inner + (q[child] / qj) * (f[child] - f[j])
        total = total + qj * inner
    return total


def lansit_check(tree: Tree, f: NodeFunctional) -> LansitReport:
    """Evaluate both sides of the interchange identity for a functional.

    leaf_side is sum of P_L(i) f(i) minus f(root); node_side comes from
    ``merged_increment_sum`` so every call exercises the constructive
    contraction argument.  Raises FunctionalIncomplete when f lacks a node.
    """
    _require_complete(tree, f)
    exact = _exact_functional(tree, f)
    if exact:
        terms = [(tree.leaf_mass[leaf], f[leaf]) for leaf in tree.leaves]
        leaf_side = exact_weighted_sum(terms + [(-1, f[tree.root])])
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
    mode sums the increments of f = -log2 Q, since Q_j H(P_{S_j}) is the
    sum over children c of Q_c (log2 Q_j - log2 Q_c).
    """
    if tree.exact:
        return log_increment_sum(tree, [(-1, mass_logs(tree))])
    return branch_sum(tree, lambda j, dist: entropy_of(dist.values(), False), False)


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
        # increments of f = log2(Q / Q'), Q' read at the aligned node
        ref_logs = {v: log2_exponents(q.node_mass[mapping[v]]) for v in p.nodes}
        return log_increment_sum(p, [(1, mass_logs(p)), (-1, ref_logs)])
    ref = branching_distributions(q)

    def inner(j, dist):
        ref_j = ref[mapping[j]]
        return kl_of(((m, ref_j[lab]) for lab, m in dist.items()), False)

    return branch_sum(p, inner, False)


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
