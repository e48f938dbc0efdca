"""Leaf-average/node-sum identities on probability trees.

The central identity converts a leaf expectation of a node functional f
into a weighted sum of per-node increments:

    E[f(L)] - f(root) = sum over branching j of  Q_j * E[delta_f(S_j)]

where delta_f(i) = f(i) - f(parent(i)) and the inner expectation runs over
the branching distribution at j.  The paper proves it by contracting the
tree: merge a deepest sibling set into its parent, adding that parent's
term, until only the root remains.  Each merge only sums the masses that
``build_tree`` already summed into the tree's table, so ``lansit_check``
takes its node side straight from that table (``_node_increment_sum``):
as one fold over the table in exact mode, where the order of the terms
cannot matter, and in the paper's merge order in float mode, where it
sets the bits.
The leaf side is sum over leaves l of Q_l f(l), less Q_root f(root), in
both modes: the identity holds for the masses as given, also when float
leaf masses sum to 1 only within ``MASS_SUM_TOLERANCE``.

A pair of trees, or a tree and a product spec, runs in one numeric mode,
decided once where the pair enters (``one_mode``): it is exact only when
both sides are exact, and otherwise each exact side is converted once to
float, as ``--float`` loads it.  A tree and a caller's node functional f
are decided the same way (``functional_mode``): an exact tree with a
float in f runs as its float tree.  So every sum over a tree runs in the
tree's mode, and no sum meets an exact side and a float side.  An exact
sum is one fold; a float sum is chained left to right as
``total = total + w * v``.

An exact tree keeps one integer table n with Q_v = n_v / D, D = n_root the
lcm of the leaf-mass denominators (``Tree.mass_below``), and every
exact sum here weights by n and passes D to the one fold,
``numeric.exact_weighted_sum``, which divides by it once.  The leaf side
weights f(leaf) by n_leaf and f(root) by -D.  Because n_j is the sum of its
children's n_c, Q_j E[delta_f(S_j)] is the integer combination sum over
children c of n_c f(c), less n_j f(j), over D: no term divides by Q_j.
Every non-root node is the child of one branching node, so the node side
is the fold of n_v f(v) over non-root v and -n_j f(j) over branching j,
the same terms as the per-j increments, read from the table in no
particular order.

Specializing f gives the derived quantities, and for each the node side
takes the form sum over branching j of Q_j * inner(j, P_{S_j}):

* f = path length: inner = 1, giving the expected parse length E[w(L)],
  which the tree sums itself and keeps (``Tree.mean_length``);
* f = -log2 Q: inner = H(P_{S_j}), giving the leaf entropy;
* f = log2(Q/Q') for two mass assignments on one shape: inner =
  D(P_{S_j} || P'_{S_j}), giving the informational divergence;
* f = log2(Q/Q+) for a product reference (``approximation``): inner is the
  divergence of P_{S_j} from the product's one branching distribution.

A product distribution is itself a tree with probabilities, one whose
branching distributions all equal the spec, so the last two are one
specialization, and one function, ``pair_divergence``, computes D for
either reference: a tree that p is aligned with (``align_by_paths``), or
a spec, given with no alignment.  It holds the three bodies of D for a
pair in one mode: the exact leaf fold against a tree, the exact leaf fold
against a spec, and the float comparison pass.

In float mode each of these is chained from 0.0 in preorder over the
branching nodes, Q_j * inner(j) after Q_j * inner(j') for each j' before
j: ``Tree.mean_length`` and ``leaf_entropy`` chain their terms
(``numeric._chained``), and the one comparison pass (``comparison_sums``)
chains the divergence.  That pass also serves the Pinsker report: at each
branching j of p it compares P_{S_j} with the reference there
(``branch_references``: the product's distribution, or the branching
distribution of the node that a second tree aligns with j) and chains
Q_j KL_j, Q_j d_j, Q_j d_j^2 and the tail masses, with KL_j chained from
``kl_term`` over j's labels.

In exact mode the three log-valued sums are not taken per branch: Q_j
times the entropy or divergence at j is the increment sum over j's
children c of Q_c (f(c) - f(j)) for the f above.  Summed over j, the
increments telescope to the leaf side E[f(L)] - f(root), with f(root) = 0,
so ``leaf_log_sum`` weights log2 of each leaf ratio by n_l and divides by D
once; against a spec, log2(1/s_a) is weighted by the sum of n_v over the
a-edges.  It first sums the weights n_l per ratio object, so leaves that
share one mass object cost one term: the matcher shares one Fraction per
level, and a parsed document one per distinct mass string.  It then gathers
those terms by the integers in their ratios (the numerators and
denominators), so each distinct integer is factored once, not once per
leaf: a dyadic matcher tree of thousands of leaves has a handful.  Only
leaf masses (and the product's branch masses) are factored, never an
internal Q_j.  The result equals the per-branch sum of exact
entropies or divergences, type included; the tests hold that sum as an
oracle.

Each normalized, per-branch form is its unnormalized value divided by
E[w(L)], i.e. the average under P_B(j) = Q_j / E[w(L)] over branching
nodes; a caller that already holds an unnormalized value gets its
per-branch form with one division.  The Pinsker report of
``approximation`` divides the sums of the comparison pass by E[w(L)] on a
float pair.  On an exact pair, its Pinsker averages are ratios of
integers over the tables n of both sides (the integer references of
``branch_references``), without any P_{S_j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateTree, FunctionalIncomplete
from .numeric import (
    ExactLog2,
    _chained,
    entropy_of,
    exact_weighted_sum,
    kl_term,
    log2_weighted_sum,
)
from .tree import Label, NodeId, Tree, align_by_paths, node_probabilities

__all__ = [
    "LansitReport",
    "branching_node_distribution",
    "entropy_rate",
    "expected_path_length",
    "lansit_check",
    "leaf_entropy",
    "one_mode",
    "surprisal_functional",
    "tree_divergence",
]

NodeFunctional = Mapping[NodeId, object]

RESIDUAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class LansitReport:
    """Both sides of the interchange identity plus their difference.

    ``scale`` is the sum of the absolute values of the leaf side's terms,
    |Q_l f(l)| over leaves l and |Q_root f(root)|, as a float (0.0 when
    exact).  A float residual is judged against max(1, scale): rounding
    error grows with the magnitudes summed, which a common offset of f
    raises while both sides stay small.
    """

    leaf_side: object
    node_side: object
    residual: object
    exact: bool
    scale: float

    def holds(self) -> bool:
        if self.exact:
            return self.residual == 0
        if self.leaf_side == self.node_side:  # also two infinities of one sign
            return True
        residual = abs(float(self.residual))
        tolerance = RESIDUAL_REL_TOL * max(1.0, self.scale)
        return math.isfinite(residual) and residual <= tolerance

    def per_branch(self, ew: object) -> "LansitReport":
        """This report with every side, and the scale, divided by E[w(L)] = ``ew``."""
        sides = (self.leaf_side, self.node_side, self.residual)
        return LansitReport(*(x / ew for x in sides), self.exact, self.scale / ew)


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


def one_mode(p, reference):
    """The pair (p, reference) in one numeric mode: as given when both are
    exact or both are float, and otherwise with its exact side converted
    once to float (``as_float``).  ``reference`` is a Tree or a product
    spec."""
    if p.exact == reference.exact:
        return p, reference
    return tuple(x.as_float() if x.exact else x for x in (p, reference))


def functional_mode(tree: Tree, f: NodeFunctional) -> Tree:
    """The tree that sums of the node functional f run on: the float tree
    of an exact ``tree`` (``as_float``) when f holds a float at one of its
    nodes, as ``one_mode`` converts a mixed pair, and ``tree`` otherwise."""
    if tree.exact and any(isinstance(f.get(v), float) for v in tree.nodes):
        return tree.as_float()
    return tree


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
    tree's integer table Q_v = n_v / D (``Tree.mass_below``), that is
    (1/D) times the integer combination

        sum over leaves l of n_l f(l)
        + sum over labels a of W_a log2 r_a,   W_a = sum of n_v over a-edges,

    and each prime's coefficient is an integer sum divided by D once
    (``numeric.exact_weighted_sum``).  Within each R, the weights n_l are
    first summed per ratio object, by identity (hashing a Fraction takes a
    modular inverse), and each group passes one (w, a, b) triple to
    ``numeric.log2_weighted_sum``, so the fold costs one step per distinct
    mass object, not one per leaf; equal ratios held by different objects
    stay separate groups.  There a ratio a/b in lowest terms adds its
    weight to the integer a and subtracts it from b, so the weights gather
    in one map keyed by plain integers, and each distinct integer is
    factored once, however many leaves share it.  Only the numerators and
    denominators of the R(leaf) and r_a are factored, never an internal
    node mass.  An integer whose weights cancel keeps its term, so a sum
    that cancels is still an ExactLog2.  A tree without branching nodes
    gives Fraction(0), the exact sum of no terms.
    """
    if not tree.children[tree.root]:
        return Fraction(0)
    n = tree.mass_below
    triples = []
    for sign, ratios in leaf_ratios:
        # id(r): [summed n_l, r]; holding each r keeps the ids unique
        gathered: dict[int, list] = {}
        for leaf, r in ratios.items():
            group = gathered.get(id(r))
            if group is None:
                gathered[id(r)] = [n[leaf], r]
            else:
                group[0] += n[leaf]
        triples += [(sign * w, *r.as_integer_ratio()) for w, r in gathered.values()]
    if label_ratios:
        label_weights = dict.fromkeys(label_ratios, 0)
        for v, (_, a) in tree.parent_edge.items():
            label_weights[a] += n[v]
        triples += [(w, *label_ratios[a].as_integer_ratio()) for a, w in label_weights.items()]
    return log2_weighted_sum(triples, n[tree.root])


def _merge_order(tree: Tree) -> list[NodeId]:
    """Branching nodes deepest first; ties in preorder, the order of
    ``Tree.branching_nodes``, which the stable sort keeps."""
    return sorted(tree.branching_nodes, key=tree.depths.__getitem__, reverse=True)


def _node_increment_sum(tree: Tree, f: NodeFunctional) -> object:
    """The node side: sum over branching j of Q_j E[delta_f(S_j)], with
    every mass read from the tree's one table (``Tree.mass_below``), on
    the tree that ``functional_mode`` gives and for an f that
    ``_require_complete`` accepted.  Summed, the increments telescope to
    sum over leaves l of Q_l f(l), less Q_root f(root).

    An exact sum is one fold over D, in no particular order: since n_j is
    the sum of its children's n_c, the increment at j is the integer terms
    n_c f(c) over j's children c and -n_j f(j), and every non-root node is
    the child of one branching node, so the fold takes n_v f(v) for each
    non-root v of the table and -n_j f(j) for each branching j.  A float
    sum chains, per j, Q_j times the sum over children c of
    (Q_c / Q_j) (f(c) - f(j)), with the branching nodes deepest first, ties
    in preorder, as the paper contracts the tree; its bits depend on that
    order (``_merge_order``).  Both float chains start from 0.0, so a tree
    without branching nodes gives 0.0, as its float leaf side does.
    """
    if tree.exact:
        n = tree.mass_below
        root = tree.root
        terms = [(m, f[v]) for v, m in n.items() if v != root]
        terms += [(-n[j], f[j]) for j in tree.branching_nodes]
        return exact_weighted_sum(terms, n[root])
    q = node_probabilities(tree)
    total = 0.0
    for j in _merge_order(tree):
        inner = 0.0
        for _, child in tree.children[j]:
            inner = inner + (q[child] / q[j]) * (f[child] - f[j])
        total = total + q[j] * inner
    return total


def lansit_check(tree: Tree, f: NodeFunctional) -> LansitReport:
    """Evaluate both sides of the interchange identity for a functional.

    The leaf side is sum over leaves l of Q_l f(l), less Q_root f(root),
    over the tree's masses as given; the node side is
    ``_node_increment_sum``, which telescopes to the same sum.  Both sides
    run on ``functional_mode(tree, f)``, so an exact tree with a float in f
    reports what its float tree reports.  An exact leaf side folds n_l f(l)
    and -D f(root) over D from the tree's integer table, as the node side
    does, so it checks the identity on that table but not the table
    against the parsed leaf masses.  A float leaf side weights f(root) by
    Q_root, the summed leaf masses, within ``MASS_SUM_TOLERANCE`` of 1; its
    ``scale`` adds up the absolute values of those terms.  Raises
    FunctionalIncomplete when f lacks a node.
    """
    _require_complete(tree, f)
    tree = functional_mode(tree, f)
    root = tree.root
    scale = 0.0
    if tree.exact:
        n = tree.mass_below
        terms = [(n[leaf], f[leaf]) for leaf in tree.leaves]
        leaf_side = exact_weighted_sum(terms + [(-n[root], f[root])], n[root])
    else:
        leaf_side = 0
        for leaf in tree.leaves:
            term = tree.leaf_mass[leaf] * f[leaf]
            leaf_side = leaf_side + term
            scale += abs(float(term))
        term = node_probabilities(tree)[root] * f[root]
        leaf_side = leaf_side - term
        scale += abs(float(term))
    node_side = _node_increment_sum(tree, f)
    return LansitReport(leaf_side, node_side, leaf_side - node_side, tree.exact, scale)


def expected_path_length(tree: Tree) -> object:
    """E[w(L)] as the sum of branching-node probabilities (inner = 1).

    Equals the leaf-side average of path lengths.  Returns the tree's
    cached ``mean_length``.  A single-node tree has no branching nodes and
    yields 0; normalized quantities reject that case separately with
    DegenerateTree.
    """
    return tree.mean_length


def leaf_entropy(tree: Tree) -> object:
    """H(P_L) in bits as the node sum: sum over branching j of Q_j H(P_{S_j}).

    Equals the direct leaf-side entropy -sum of P_L log2 P_L; exact mode
    returns an ExactLog2 value for which that equality is literal.  Exact
    mode folds that leaf side, f = -log2 Q, since Q_j H(P_{S_j}) is the
    sum over children c of Q_c (log2 Q_j - log2 Q_c).  Float mode chains
    Q_j H(P_{S_j}) from 0.0 in preorder (``numeric._chained``), each
    H(P_{S_j}) chained over j's labels (``numeric.entropy_of``).
    """
    if tree.exact:
        return leaf_log_sum(tree, [(-1, tree.leaf_mass)])
    q = tree.node_mass
    return _chained(q[j] * entropy_of(p.values()) for j, p in tree.branching.items())


def tree_divergence(p: Tree, q: Tree) -> object:
    """D(P_L || P_L') in bits via the branch-sum over aligned nodes.

    Trees are aligned by label paths.  Returns +inf when q lacks a branch
    that carries positive p mass; raises ShapeMismatch when q has branches
    p does not.  Equals the leaf-side sum of P_L log2(P_L/P_L').  The pair
    runs in one mode (``one_mode``).
    """
    p, q = one_mode(p, q)
    return pair_divergence(p, q, *align_by_paths(p, q))


def pair_divergence(p: Tree, reference, mapping: Mapping | None, covered: bool) -> object:
    """D(P_L || reference) in bits for a pair in one mode (``one_mode``)
    that is already checked: ``mapping`` and ``covered`` are p's alignment
    onto a tree reference (``align_by_paths``), and a product spec, whose
    alphabet holds p's labels, comes with None and True.

    An uncovered pair gives +inf.  An exact pair folds f = log2(Q / Q_ref)
    over p's leaves (``leaf_log_sum``): against a tree, log2 of each leaf
    mass over that of the aligned leaf, which exists since the reference
    has no branch that p lacks; against a spec, log2 Q_l less log2 s_a for
    each a-edge on the leaf's path, which gathers into one 1/s_a ratio per
    label.  A float pair takes the D of the comparison pass
    (``comparison_sums``).
    """
    if not covered:
        return math.inf
    if not p.exact:
        return comparison_sums(p, reference, mapping, ())[0]
    if mapping is None:
        ratios = {a: 1 / s for a, s in reference.base.mass.items()}
        return leaf_log_sum(p, [(1, p.leaf_mass)], ratios)
    ref = {v: reference.leaf_mass[mapping[v]] for v in p.leaf_mass}
    return leaf_log_sum(p, [(1, p.leaf_mass), (-1, ref)])


def branch_references(p: Tree, reference, mapping: Mapping | None) -> tuple[dict, Mapping]:
    """The reference ref_j, label -> weight, at each branching node j of p
    for a pair in one mode (``one_mode``): a map j -> ref_j, and the ref_j
    of every j that the map lacks.

    ``mapping`` is p's alignment onto a tree reference (``align_by_paths``),
    and None when the reference is a product spec.  The spec is ref_j at
    every j, so the map is empty and the spec is the default: its masses
    s_a on a float pair, and on an exact one its integer table r_a = M s_a
    (``FiniteDistribution.integer_mass``).  Against a tree, j maps to the
    node v that ``mapping`` aligns with it, when v branches: P_{S_v} on a
    float pair, and on an exact one the entries n' of v's children in the
    reference's table (``Tree.mass_below``).  A j whose aligned node is a
    leaf, or that has none, gets the empty default.
    """
    if mapping is None:
        base = reference.base
        return {}, base.integer_mass if p.exact else base.mass
    if p.exact:
        n = reference.mass_below
        dists = {v: {a: n[c] for a, c in reference.children[v]}
                 for v in reference.branching_nodes}
    else:
        dists = reference.branching
    return {j: dists[v] for j, v in mapping.items() if v in dists}, {}


def comparison_sums(p: Tree, reference, mapping: Mapping | None, epsilons: Iterable) -> tuple:
    """The one comparison pass of a float p against ``reference``, a tree
    that ``mapping`` aligns or a spec with ``mapping`` None, in preorder
    over p's branching distributions P_{S_j}: D, the sums over branching j
    of Q_j d_j and Q_j d_j^2, and per epsilon the sum of Q_j over the j
    with d_j >= epsilon, before any division by E[w(L)].

    At each j, KL_j (``kl_term`` per label) and the L1 distance d_j are
    taken against ref_j (``branch_references``).  A label that ref_j lacks
    makes KL_j, and so D, +inf, as an uncovered reference does.  A j with
    an empty ref_j (an aligned leaf, or no aligned node) has d_j = 1.0, as
    on an exact pair, not the sum of p's float branch masses, which may
    fall short of 1.0 by rounding; spec labels that j lacks add their
    masses to d_j.  Each Q_j-weighted term is chained from 0.0 in preorder,
    KL_j itself chained over j's labels, and a bare root gives 0.0
    throughout.
    """
    refs, default = branch_references(p, reference, mapping)
    q = p.node_mass
    divergence = mean = mean_sq = 0.0
    reached = dict.fromkeys(epsilons, 0.0)
    for j, own in p.branching.items():
        ref = refs.get(j, default)
        d, kl = 0, 0.0
        for a, m in own.items():
            r = ref.get(a, 0)
            d = d + abs(m - r)
            kl = kl + kl_term(m, r)
        if not ref:
            d = 1.0
        elif len(own) < len(ref):  # spec labels that j lacks
            for a, r in ref.items():
                if a not in own:
                    d = d + r
        qj = q[j]
        divergence = divergence + qj * kl
        mean = mean + qj * d
        mean_sq = mean_sq + qj * (d * d)
        for eps in reached:
            if d >= eps:
                reached[eps] = reached[eps] + qj
    return divergence, mean, mean_sq, reached


def branching_node_distribution(tree: Tree) -> dict[NodeId, object]:
    """The length-biased distribution P_B over branching nodes, as a map
    j -> P_B(j) = Q_j / E[w(L)] in preorder; raises DegenerateTree on a
    bare root.

    P_B(j) is n_j / N on an exact tree, a Fraction from the integer table
    (``Tree.mass_below``) with N the sum of n_j over branching j, so
    no Q is built.  A float tree divides Q_j by E[w(L)] (``Tree.mean_length``).
    """
    ew = normalizer(tree)
    if tree.exact:
        n = tree.mass_below
        total = sum(map(n.__getitem__, tree.branching_nodes))
        return {j: Fraction(n[j], total) for j in tree.branching_nodes}
    q = node_probabilities(tree)
    return {j: q[j] / ew for j in tree.branching_nodes}


def entropy_rate(tree: Tree) -> object:
    """Bits per branch: H(P_L) / E[w(L)], the P_B-average of node entropies."""
    ew = normalizer(tree)
    return leaf_entropy(tree) / ew


def surprisal_functional(tree: Tree) -> dict[NodeId, object]:
    """f(j) = -log2 Q_j: its leaf average is H(P_L), its rate the entropy rate.

    On an exact tree, -log2(n / D), as log2(D / n), is built once per
    distinct integer n of the mass table (``Tree.mass_below``), and every
    node with that n shares the one value, so
    ``numeric.exact_weighted_sum`` gathers their terms and expands the
    value once.
    """
    if tree.exact:
        n = tree.mass_below
        shared = {m: ExactLog2.log2(Fraction(n[tree.root], m)) for m in set(n.values())}
        return {v: shared[n[v]] for v in tree.nodes}
    q = node_probabilities(tree)
    return {v: -math.log2(q[v]) for v in tree.nodes}

