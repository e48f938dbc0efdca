"""Deterministic random-tree corpora and oracles shared by the property suites.

Every corpus is a pure function of the index argument, so any test can
regenerate the exact tree another test saw.  The oracles are second,
independent forms of the package's quantities, which the tests compare
the package against: the classical Pinsker check on plain distributions,
the leaf-sum divergence to a product, per-node divergences, the
contraction order of the interchange identity and others.
"""

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from treeprob import (
    AlphabetMismatch,
    CycleDetected,
    DuplicateSiblingLabel,
    FiniteDistribution,
    GeneratorParams,
    LansitReport,
    LeafMassMismatch,
    MassNotNormalized,
    MultipleParents,
    MultipleRoots,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    ShapeMismatch,
    Tree,
    build_tree,
    generate_random_tree,
    lansit_check,
    node_probabilities,
    tree_pinsker_report,
)
from treeprob.approximation import (
    PINSKER_TOLERANCE,
    PinskerTreeReport,
    ProductSpec,
    _require_alphabet,
    require_epsilon,
)
from treeprob.identities import normalizer, one_mode
from treeprob.numeric import (
    ExactLog2,
    Scalar,
    _chained,
    exact_text,
    exact_weighted_sum,
    kl_term,
    log2_exponents,
    log2_weighted_sum,
)
from treeprob.tree import MASS_SUM_TOLERANCE, Label, NodeId, align_by_paths

MAX_NODES = 200
MAX_ALPHABET = 4


def corpus_tree(i: int, exact: bool = True) -> Tree:
    """The i-th corpus tree: at most MAX_NODES nodes, alphabet <= 4."""
    knobs = random.Random(900_000 + i)
    alphabet = knobs.randint(2, MAX_ALPHABET)
    depth = knobs.randint(1, 6)
    prob = knobs.uniform(0.3, 0.9)
    for attempt in range(64):
        params = GeneratorParams(alphabet, depth, prob, seed=1_000_000 * attempt + i)
        tree = generate_random_tree(params, exact=exact)
        if len(tree.nodes) <= MAX_NODES:
            return tree
    raise AssertionError(f"no tree under {MAX_NODES} nodes for corpus index {i}")


def informative_tree(i: int, exact: bool = True) -> Tree:
    """The i-th informative corpus tree: drawn as ``corpus_tree`` draws,
    from its own seeds, but with at least two leaves, so that some node has
    two or more children (``corpus_tree`` is a single leaf at about a
    quarter of its indices)."""
    knobs = random.Random(950_000 + i)
    alphabet = knobs.randint(2, MAX_ALPHABET)
    depth = knobs.randint(1, 6)
    prob = knobs.uniform(0.3, 0.9)
    for attempt in range(64):
        params = GeneratorParams(alphabet, depth, prob, seed=10**9 + 1_000_000 * attempt + i)
        tree = generate_random_tree(params, exact=exact)
        if len(tree.leaves) >= 2 and len(tree.nodes) <= MAX_NODES:
            return tree
    raise AssertionError(f"no informative tree under {MAX_NODES} nodes for index {i}")


def caterpillar(depth: int, seed: int) -> Tree:
    """A spine of ``depth`` branching nodes, each with a leaf on label 0 and
    the spine going on under label 1, with random rational leaf masses over
    one denominator, so that the mass below differs at every spine node."""
    rng = random.Random(seed)
    edges, leaves = [], []
    for level in range(depth):
        spine, leaf, child = 2 * level, 2 * level + 1, 2 * level + 2
        edges += [(spine, 0, leaf), (spine, 1, child)]
        leaves.append(leaf)
    leaves.append(2 * depth)
    weights = [rng.randint(1, 1000) for _ in leaves]
    total = sum(weights)
    return build_tree(edges, {leaf: Fraction(w, total) for leaf, w in zip(leaves, weights)})


def exact_signature(value):
    """The value with its type and, for an ExactLog2, its coefficient types:
    ``int`` where a coefficient is integral, ``Fraction`` where it is not,
    so a fold and a chained sum agree only when they store each
    coefficient alike."""
    if isinstance(value, ExactLog2):
        return ExactLog2, {p: (type(c), c) for p, c in value._coef.items()}
    return type(value), value


def edges_of(tree: Tree):
    return [
        (node, label, child)
        for node in tree.nodes
        for label, child in tree.children[node]
    ]


def float_mirror(tree: Tree) -> Tree:
    """Same shape and node ids, masses converted to floats: the library's
    conversion, ``Tree.as_float``."""
    return tree.as_float()


def remass(tree: Tree, seed: int) -> Tree:
    """Same shape and node ids, fresh positive rational masses."""
    rng = random.Random(seed)
    leaves = tree.leaves
    weights = [rng.randint(1, 1000) for _ in leaves]
    total = sum(weights)
    mass = {leaf: Fraction(w, total) for leaf, w in zip(leaves, weights)}
    return build_tree(edges_of(tree), mass, exact=True)


def without_subtree(tree: Tree, node, keep_node: bool) -> Tree:
    """``tree`` less everything below ``node``.  With ``keep_node`` the node
    stays as a leaf holding that mass; otherwise it goes too and the other
    leaf masses are rescaled to sum to one."""
    gone = set() if keep_node else {node}
    stack = [child for _, child in tree.children[node]]
    while stack:
        v = stack.pop()
        gone.add(v)
        stack.extend(child for _, child in tree.children[v])
    mass = {v: m for v, m in tree.leaf_mass.items() if v not in gone}
    if keep_node:
        mass[node] = tree.node_mass[node]
    else:
        total = sum(mass.values())
        mass = {v: m / total for v, m in mass.items()}
    edges = [edge for edge in edges_of(tree) if edge[2] not in gone]
    return build_tree(edges, mass, exact=tree.exact)


def aligned_references(family, i: int) -> tuple[Tree, dict[str, Tree]]:
    """Tree i of ``family`` (``corpus_tree`` or ``informative_tree``) and,
    by name, the exact trees of its shape or less that it is aligned with:
    a second copy of itself, a remass and, where some branching node has a
    sibling (so that the rest keeps a leaf), the tree less that node's
    subtree and the tree with that node turned into a leaf."""
    p = family(i)
    refs = {"remassed": remass(p, 80_000 + i), "itself": family(i)}
    cut = next((j for j in p.branching_nodes[1:]
                if len(p.children[p.parent_edge[j][0]]) > 1), None)
    if cut is not None:
        refs["subtree-removed"] = without_subtree(p, cut, keep_node=False)
        refs["subtree-to-leaf"] = without_subtree(p, cut, keep_node=True)
    return p, refs


def path_alignment(p: Tree, q: Tree) -> tuple[dict, bool]:
    """``align_by_paths`` from path dictionaries: each node of p maps to the
    node of q with the same label path from the root (``Tree.path_of``).
    A path of q that p lacks raises ShapeMismatch, and q covers p when
    every path of p is q's.  The mapping is in p's preorder."""
    by_path = {q.path_of(v): v for v in q.nodes}
    paths = {p.path_of(v): v for v in p.nodes}
    if not by_path.keys() <= paths.keys():
        raise ShapeMismatch("second tree has a branch that the first lacks")
    mapping = {v: by_path[path] for path, v in paths.items() if path in by_path}
    return mapping, len(mapping) == len(paths)


def rational_functional(tree: Tree, seed: int) -> dict:
    """Random rational f on all nodes, values in [-1, 1]."""
    rng = random.Random(seed)
    return {
        n: Fraction(rng.randint(-1_000_000, 1_000_000), 1_000_000)
        for n in tree.nodes
    }


def float_functional(tree: Tree, seed: int) -> dict:
    rng = random.Random(seed)
    return {n: rng.uniform(-1.0, 1.0) for n in tree.nodes}


def random_distribution(labels, seed: int, exact: bool = True) -> dict:
    """Random full-support distribution over the given labels."""
    rng = random.Random(seed)
    labels = list(labels)
    weights = [rng.randint(1, 1000) for _ in labels]
    total = sum(weights)
    if exact:
        return {lab: Fraction(w, total) for lab, w in zip(labels, weights)}
    return {lab: w / total for lab, w in zip(labels, weights)}


def complete_tree(alphabet: int, depth: int, seed: int) -> Tree:
    """Complete tree of the given arity and depth with random rational masses."""
    rng = random.Random(seed)
    edges = []
    level = [0]
    next_id = 1
    for _ in range(depth):
        nxt = []
        for node in level:
            for label in range(alphabet):
                edges.append((node, label, next_id))
                nxt.append(next_id)
                next_id += 1
        level = nxt
    weights = [rng.randint(1, 1000) for _ in level]
    total = sum(weights)
    mass = {leaf: Fraction(w, total) for leaf, w in zip(level, weights)}
    return build_tree(edges, mass, exact=True)


def merged_increment_sum(tree: Tree, f: dict) -> object:
    """The node side of the interchange identity by the paper's contraction.

    Repeatedly merges a deepest sibling set (ties in preorder) into its
    parent j, which then carries as its leaf mass m_j the sum of its
    children's current masses, adding j's increment term on the way, until
    only the root remains.  Only leaf masses are read from the tree: the
    leaf entries of Q, or of the integer table n in an exact sum.  A float
    sum takes the terms of ``lansit_check``'s node side in its order, so the
    two agree bit for bit.  An exact sum folds the same terms, which that
    node side takes in table order, so the two agree under
    ``==`` and in coefficient types (``exact_signature``).
    """
    exact = tree.exact and not any(isinstance(f[v], float) for v in tree.nodes)
    table = tree.mass_below if exact else tree.leaf_mass
    mass = {v: table[v] for v in tree.leaf_mass}
    index = {v: i for i, v in enumerate(tree.nodes)}
    order = sorted(tree.branching_nodes, key=lambda j: (-tree.depths[j], index[j]))
    terms, total = [], 0
    for j in order:
        kids = [child for _, child in tree.children[j]]
        mj = mass[kids[0]]
        for child in kids[1:]:
            mj = mj + mass[child]
        if exact:
            terms += [(mass[child], f[child]) for child in kids] + [(-mj, f[j])]
        else:
            inner = 0
            for child in kids:
                inner = inner + (mass[child] / mj) * (f[child] - f[j])
            total = total + mj * inner
        for child in kids:
            del mass[child]
        mass[j] = mj
    if exact:
        return exact_weighted_sum(terms, tree.mass_below[tree.root])
    return total


def branch_sum(tree: Tree, inner) -> object:
    """Sum over branching j, in preorder, of Q_j * inner(j, P_{S_j}), in
    the tree's mode: the per-branch form of a node sum, which the library's
    leaf folds, chains and comparison pass must equal.

    Each inner value is evaluated once, in preorder.  On an exact tree the
    sum weights inner(j) by the integer n_j of Q_j = n_j / D and folds the
    terms over D (``numeric.exact_weighted_sum``), so every inner value
    must be exact.  On a float tree it chains Q_j * inner(j) from 0.0, left
    to right.  A tree without branching nodes yields Fraction(0) on an
    exact tree and 0.0 on a float one.  It was the library's branch-sum
    kernel.
    """
    branching = tree.branching
    values = [inner(j, dist) for j, dist in branching.items()]
    if tree.exact:
        n = tree.mass_below
        return exact_weighted_sum(zip(map(n.get, branching), values), n[tree.root])
    q = tree.node_mass
    total = 0.0
    for j, v in zip(branching, values):
        total = total + q[j] * v
    return total


def exact_entropy_of(masses: Iterable) -> Scalar:
    """The exact Shannon entropy in bits of rational masses: -p log2 p per
    mass p that is not 0, from p's own exponent map, folded once
    (``numeric.exact_weighted_sum``).  It was the exact mode of
    ``numeric.entropy_of``; the exact leaf folds and
    ``FiniteDistribution.entropy`` must equal it, coefficient types
    included."""
    return exact_weighted_sum((-p, log2_exponents(p)) for p in masses if p)


def leaf_log_sum_reference(tree: Tree, leaf_ratios, label_ratios=None):
    """``identities.leaf_log_sum`` term by term: one prime-exponent map per
    leaf ratio and per label ratio, weighted by the integer table n, all
    folded over D.

    This is the fold before it grouped leaves by integer, and it factors
    each ratio as often as it appears; the grouped fold must equal it,
    coefficient types included.
    """
    if not tree.children[tree.root]:
        return Fraction(0)
    n = tree.mass_below
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


def pinsker_reference(p: Tree, reference, epsilons) -> PinskerTreeReport:
    """``tree_pinsker_report`` from one distance per branching node, in
    several passes: the library's former float path, which the one float
    comparison pass and the exact integer path must both equal bit for bit.

    D is the ``branch_sum`` of a per-node ``kl_of`` against the same
    references, in the pair's mode, and +inf on an exact pair that the
    reference tree does not cover: separate code from the library's leaf
    folds and its one float comparison pass.  Every branch distance is
    summed edge by edge from the branching distributions P_{S_j}
    (``Tree.branching``), Fractions on an exact tree, and each P_B average
    of a function of the distances is a ``branch_sum`` divided by E[w(L)]:
    the mean, the mean square and, for each epsilon, the mass of the nodes
    whose distance reaches it.  For a tree reference,
    nodes align by label paths and a node with no aligned branching node
    compares against zero mass, at distance 1; a product reference
    compares every node with the spec over its whole alphabet.  Trees are
    aligned by their path dictionaries (``path_alignment``), not by the
    library's walk.
    """
    epsilons = list(epsilons)
    for eps in epsilons:
        require_epsilon(eps)
    ew = normalizer(p)
    if isinstance(reference, ProductSpec):
        _require_alphabet(p, reference)
        mapping, covered = None, True
    else:
        mapping, covered = path_alignment(p, reference)
    refs = reference_branches(p, reference, mapping)
    if p.exact and not covered:
        divergence = math.inf
    else:
        # a float label that ref_j lacks faces mass 0, which makes D +inf
        divergence = branch_sum(p, lambda j, dist: kl_of(
            ((m, refs[j].get(a, 0)) for a, m in dist.items()), p.exact))
    distances = branch_distances(p, refs)

    def average(h):
        return branch_sum(p, lambda j, dist: h(distances[j])) / ew

    mean_sq = average(lambda d: d * d)
    bound = float(mean_sq) / (2.0 * math.log(2.0))
    normalized = float(divergence / ew)
    return PinskerTreeReport(
        divergence=divergence,
        normalized_divergence=normalized,
        mean_distance=float(average(lambda d: d)),
        mean_sq_distance=float(mean_sq),
        bound=bound,
        holds=normalized >= bound - PINSKER_TOLERANCE,
        tail={eps: float(average(lambda d: d >= eps)) for eps in epsilons},
    )


def reference_branches(p: Tree, reference, mapping: dict | None) -> dict:
    """ref_j, label -> mass, at each branching node j of p, in preorder:
    the spec's masses at every j when ``mapping`` is None, and otherwise
    the branching distribution (``Tree.branching``) of the node of the
    reference tree that ``mapping`` (``path_alignment``) gives j, or {}
    where that node is a leaf or there is none."""
    if mapping is None:
        return dict.fromkeys(p.branching_nodes, reference.base.mass)
    dists = reference.branching
    return {j: dists.get(mapping[j], {}) if j in mapping else {}
            for j in p.branching_nodes}


def branch_distances(p: Tree, refs: dict) -> dict[NodeId, object]:
    """The branch distance d_j, the sum over labels a of |P_{S_j}(a) -
    ref_j(a)|, at each branching node j of p, in preorder: summed label by
    label from P_{S_j} (``Tree.branching``, Fractions on an exact tree)
    against ``refs[j]`` (``reference_branches``), over the labels of both.
    Against an empty ref_j, no mass, d_j is 1, also where a float tree's
    branch masses add up to less."""
    distances = {}
    for j, own in p.branching.items():
        ref = refs[j]
        d = 0
        for lab, mass in own.items():
            d = d + abs(mass - ref.get(lab, 0))
        for lab, mass in ref.items():
            if lab not in own:
                d = d + abs(mass)
        distances[j] = d if ref else 1
    return distances


def kl_of(pairs: Iterable, exact: bool) -> Scalar:
    """Informational divergence in bits from (p, q) mass pairs: the
    per-node divergence whose ``branch_sum`` the library's leaf folds and
    comparison pass must equal.

    Returns +inf when some p > 0 faces q = 0; otherwise the exact or the
    chained float sum of the individual terms.
    """
    if exact:
        ratios = []
        for p, q in pairs:
            if not p:
                continue
            if not q:
                return math.inf
            ratios.append((*p.as_integer_ratio(), *q.as_integer_ratio()))
        lcm = math.lcm(*(b for _, b, _, _ in ratios))
        # p log2(p / q) is (a / b) (log2(a / b) + log2(d / c)) for p = a/b, q = c/d
        return log2_weighted_sum(
            ((a * (lcm // b), x, y) for a, b, c, d in ratios for x, y in ((a, b), (d, c))),
            lcm,
        )
    return _chained(kl_term(p, q) for p, q in pairs)


def exact_entropy_term(p) -> Scalar:
    """The exact summand -p*log2(p) of a rational p, zero at p = 0: the
    per-term form whose sums the exact leaf folds must equal."""
    if not p:
        return Fraction(0)
    return ExactLog2.log2(p) * -Fraction(p)


def exact_kl_term(p, q) -> Scalar:
    """The exact summand p*log2(p/q) of rationals p and q; zero when p = 0,
    +inf when p > 0 and q = 0."""
    if not p:
        return Fraction(0)
    if not q:
        return math.inf
    return ExactLog2.log2(Fraction(p) / Fraction(q)) * Fraction(p)


def power_sign(value: ExactLog2) -> int:
    """The sign of an ExactLog2 sum c_p * log2(p), from integer powers: with
    L the lcm of the coefficients' denominators, the sign of
    prod p^(c_p * L) - 1, taken as the product of the positive powers
    against that of the negative ones.  Exact over any keys, at a cost that
    grows with the powers' bit lengths, so for small maps only: the oracle
    of ``ExactLog2._sign``."""
    coef = value._coef
    lcm = math.lcm(*(c.denominator for c in coef.values()))
    num = den = 1
    for p, c in coef.items():
        e = c.numerator * (lcm // c.denominator)
        if e > 0:
            num *= p**e
        else:
            den *= p**-e
    return (num > den) - (num < den)


def _shared_alphabet(p: FiniteDistribution, q: FiniteDistribution) -> tuple[Label, ...]:
    """The sorted alphabet of p; AlphabetMismatch unless q has the same one."""
    if p.mass.keys() != q.mass.keys():
        raise AlphabetMismatch(
            f"alphabets differ: {p.alphabet!r} vs {q.alphabet!r}"
        )
    return p.alphabet


def _l1(p: FiniteDistribution, q: FiniteDistribution, alphabet) -> object:
    """The sum of |p(a) - q(a)| over ``alphabet``: over the lcm of the
    denominators in integers, one Fraction, when both are exact, and added
    in alphabet order otherwise.  A pair of distributions is not converted
    to one mode: a Fraction meeting a float is rounded to a float first, so
    a mixed pair already computes as the float pair would."""
    if p.exact and q.exact:
        pairs = [(p.mass[a].as_integer_ratio(), q.mass[a].as_integer_ratio())
                 for a in alphabet]
        d = math.lcm(*(den for pair in pairs for _, den in pair))
        total = sum(abs(a * (d // b) - x * (d // y)) for (a, b), (x, y) in pairs)
        return Fraction(total, d)
    total = 0
    for label in alphabet:
        total = total + abs(p.mass[label] - q.mass[label])
    return total


def variational_distance(p: FiniteDistribution, q: FiniteDistribution) -> object:
    """L1 distance between mass functions; 0 iff equal, 2 iff disjoint supports."""
    return _l1(p, q, _shared_alphabet(p, q))


class PinskerCheck(NamedTuple):
    divergence: object
    distance: object
    bound: float
    holds: bool


def pinsker_check(p: FiniteDistribution, q: FiniteDistribution) -> PinskerCheck:
    """Divergence, distance, and the lower bound d^2/(2 ln 2) with verdict:
    the classical Pinsker inequality, the one-branching-node case of
    ``tree_pinsker_report``.

    The bound is a theorem, so holds is True for every valid input; a False
    verdict signals an arithmetic bug, not a property of the data.  The
    alphabet is sorted once, for both sums.
    """
    alphabet = _shared_alphabet(p, q)
    distance = _l1(p, q, alphabet)
    exact = p.exact and q.exact
    divergence = kl_of(((p.mass[lab], q.mass[lab]) for lab in alphabet), exact)
    bound = float(distance) ** 2 / (2.0 * math.log(2.0))
    holds = float(divergence) >= bound - PINSKER_TOLERANCE
    return PinskerCheck(divergence, distance, bound, holds)


def star_tree(masses: dict, exact: bool = True) -> Tree:
    """The tree with one branching node, the root, whose child on label a
    is a leaf of mass ``masses[a]``: the tree form of one distribution.
    ``build_tree`` prunes the leaves of mass 0."""
    edges = [("root", a, ("leaf", a)) for a in masses]
    return build_tree(edges, {("leaf", a): m for a, m in masses.items()}, exact=exact)


def star_report(p: FiniteDistribution, q: FiniteDistribution) -> PinskerTreeReport | None:
    """The package's ``tree_pinsker_report`` of p's star tree against q: the
    one-branching-node case, whose D is D(p || q) and whose mean distance
    is the L1 distance of p and q, the values ``pinsker_check`` gives.

    q is the reference as a product spec when its masses are all positive,
    and otherwise as its own star tree, which lacks q's labels of mass 0.
    The package takes no reference tree with a branch that p lacks, so a
    pair in which p has mass 0 on a label where q has mass gets None."""
    star = star_tree(p.mass, p.exact)
    if all(q.mass.values()):
        return tree_pinsker_report(star, ProductSpec(q))
    if all(p.mass[a] for a, m in q.mass.items() if m):
        return tree_pinsker_report(star, star_tree(q.mass, q.exact))
    return None


def product_node_probabilities(shape: Tree, spec: ProductSpec) -> dict[NodeId, object]:
    """Node probabilities when every internal node branches per the spec.

    The root gets 1 and each child multiplies by the spec mass of its edge
    label.  On complete shapes the leaf values form a distribution; on
    non-complete shapes they sum to less than one and are left as is.
    """
    _require_alphabet(shape, spec)
    # the spec's mode alone, not a pair's: an exact spec keeps P+ exact,
    # which divergence_to_product needs on deep float trees
    one = Fraction(1) if spec.exact else 1.0
    qplus: dict[NodeId, object] = {shape.root: one}
    for node in shape.nodes:
        for label, child in shape.children[node]:
            qplus[child] = qplus[node] * spec.base.mass[label]
    return qplus


def divergence_to_product(tree: Tree, spec: ProductSpec) -> object:
    """D(P_L || P+) in bits, the definition's plain sum over leaves.

    P+ is not normalized on non-complete shapes.  The leaf-side oracle of
    the branch-sum form ``product_branch_divergence``.  With a float spec
    the product masses P+ of deep leaves underflow (to subnormals, then to
    0.0), so this sum loses precision and then turns infinite where the
    branch-sum form, which never forms P+, stays accurate.  As the oracle it
    takes the pair as given, not in one mode: an exact spec keeps P+ exact,
    which keeps a deep float tree's sum finite.
    """
    qplus = product_node_probabilities(tree, spec)
    exact = tree.exact and spec.exact
    total = Fraction(0) if exact else 0.0
    term = exact_kl_term if exact else kl_term
    for leaf in tree.leaves:
        total = total + term(tree.leaf_mass[leaf], qplus[leaf])
    return total


def differential_lansit_check(tree: Tree, f: dict) -> LansitReport:
    """``lansit_check`` with every side divided by E[w(L)], as ``check``
    reports it; with f = path length both sides are 1."""
    return lansit_check(tree, f).per_branch(normalizer(tree))


def log_ratio_functional(p: Tree, q: Tree) -> dict[NodeId, object]:
    """f(j) = log2(Q_j / Q'_j) on p's nodes, aligning q by label paths.

    Its leaf average is D(P_L || P_L').  Raises ShapeMismatch when the two
    shapes differ in either direction, since a missing q node would make f
    infinite.  The pair runs in one mode (``one_mode``).
    """
    p, q = one_mode(p, q)
    mapping, covered = align_by_paths(p, q)
    if not covered:
        raise ShapeMismatch("second tree does not cover the first; f would be infinite")
    qp, qq = node_probabilities(p), node_probabilities(q)
    log2 = ExactLog2.log2 if p.exact else math.log2
    return {n: log2(qp[n] / qq[mapping[n]]) for n in p.nodes}


def build_tree_reference(edges, leaf_mass, exact=None) -> Tree:
    """``build_tree`` as one per-edge loop: each edge is checked for a
    second parent and a repeated sibling label as it comes, every node gets
    a label -> child dict, and the sums, the normalization check and the
    pruning follow in the same order.  It was the library's builder; the
    one-pass builder must give the same fields, in value and in key order,
    and raise the same errors with the same messages."""
    children, parent_edge = {}, {}
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
    for node in leaf_mass:
        children.setdefault(node, {})
    if not children:
        raise ParamsInvalid("empty tree: no edges and no leaf masses")
    roots = [n for n in children if n not in parent_edge]
    if not roots:
        raise CycleDetected("no root: every node has a parent")
    if len(roots) > 1:
        raise MultipleRoots(f"multiple roots: {sorted(map(repr, roots))}")
    root = roots[0]
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node].values()))
    if len(order) != len(children):
        raise CycleDetected(
            f"{len(children) - len(order)} node(s) unreachable from root {root!r}"
        )
    for node in leaf_mass:
        if children[node]:
            raise LeafMassMismatch(f"mass assigned to internal node {node!r}")

    has_float = any(isinstance(m, float) for m in leaf_mass.values())
    if exact is None:
        exact = not has_float
    if exact and has_float:
        raise ParamsInvalid("exact mode requires integer or Fraction masses, got floats")
    masses = {}
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
    if exact:
        d = math.lcm(*(m.denominator for m in masses.values()))
        below = {v: m.numerator * (d // m.denominator) for v, m in masses.items()}
    else:
        d, below = None, dict(masses)

    for node in reversed(order):
        if children[node]:
            total = 0
            for child in children[node].values():
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
    table = {v: below[v] for v in order if below.get(v, 0) > 0}
    if len(table) < len(order):
        for v in order:
            if v not in table:
                parent, label = parent_edge.pop(v)
                del children[parent][label]
                masses.pop(v, None)
    return Tree(
        root=root,
        children={v: tuple(children[v].items()) for v in table},
        leaf_mass=masses,
        parent_edge=parent_edge,
        nodes=tuple(table),
        mass_below=table,
        exact=d is not None,
    )


def tree_tables(tree: Tree) -> tuple:
    """A tree's fields as item lists, so that two trees compare equal only
    when their maps hold the same entries, of the same types, in the same
    key order."""
    def items(table):
        return [(k, type(v), v) for k, v in table.items()]

    return (
        tree.root,
        tree.exact,
        tree.nodes,
        items(tree.children),
        items(tree.leaf_mass),
        items(tree.parent_edge),
        items(tree.mass_below),
    )
