"""Random tree generation and product-matching convergence sweeps.

Two constructions feed the test suites and experiments.  The random
generator produces arbitrary validated trees from a seeded pseudo-random
stream, for property suites.  The matcher grows a complete tree toward a
target branching distribution: it repeatedly expands the leaf with the
largest product probability, then sets the leaf masses to the dyadic
quantization of the product leaf probabilities, so every leaf mass is a
power of two and the masses sum to one exactly.  Sweeping the matcher over
growing leaf budgets demonstrates the decay of normalized divergence and
of the entropy-rate gap toward the target.

The matcher runs in integers.  Its heap keys are the integers
K * M^(L - d) for a spec s_a = k_a / M, a depth-d leaf with path product K
and L a depth no leaf can reach, which is bounded through the budget; the
quantizer works on those numerators over M^L and returns each leaf's
level k, its mass being 2^-k.  Equal keys go to the smaller label path,
which the heap holds as an integer rank: the path's label positions as
base-w digits, w the alphabet size, padded to L digits.  The leaves form a
prefix-free set of paths, so their ranks order as their paths do.  The
greedy growth for a larger budget extends the one for a smaller budget (as
in Tunstall's parse trees), so a sweep grows its matcher once, up to its
largest budget, and only quantizes and builds a tree at each budget on the
way.  Growth keeps the preorder as a successor list, which each expansion
splices, so a budget's preorder is one walk of that list.  A matcher tree
is valid by construction, so it is built from the growth's own tables by
the table builder that ``build_tree`` ends in, without ``build_tree``'s
checks; random trees go through ``build_tree``.  Growth holds every node of the
largest tree, so a budget above ``MAX_LEAF_BUDGET`` is rejected before any
growth.  A sweep writes one CSV row per budget, with the columns in
``SweepRow``'s field order.

All randomness comes from ``random.Random``, Python's Mersenne Twister
(MT19937), seeded explicitly, so results can be reproduced bit for bit
elsewhere.  The matcher itself uses no randomness.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence

from .approximation import ProductSpec, require_epsilon, tree_pinsker_report
from .errors import ParamsInvalid
from .identities import leaf_entropy
from .numeric import _chained, exact_text
from .tree import Label, Tree, _tree_from_tables, build_tree, label_order

__all__ = [
    "GeneratorParams",
    "MAX_LEAF_BUDGET",
    "SWEEP_CSV_COLUMNS",
    "SweepRow",
    "convergence_sweep",
    "dyadic_quantization",
    "generate_random_tree",
    "grow_matcher_tree",
    "write_sweep_csv",
]

# the largest matcher leaf budget; growth costs memory in proportion to it
MAX_LEAF_BUDGET = 2**16

SWEEP_CSV_COLUMNS = (
    "leaf_count",
    "mean_length",
    "normalized_divergence_bits_per_branch",
    "entropy_rate_bits_per_branch",
    "entropy_rate_gap",
    "tail_probability",
)


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the random tree generator; same params and seed, same tree."""

    alphabet_size: int
    max_depth: int
    branching_probability: float
    seed: int

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ParamsInvalid(
                f"alphabet size must be at least 2, got {self.alphabet_size}"
            )
        if self.max_depth < 1:
            raise ParamsInvalid(f"max depth must be at least 1, got {self.max_depth}")
        if not 0.0 <= self.branching_probability <= 1.0:
            raise ParamsInvalid(
                f"branching probability must lie in [0, 1],"
                f" got {self.branching_probability}"
            )


def generate_random_tree(params: GeneratorParams, exact: bool = True) -> Tree:
    """A validated random tree, deterministic given the seed.

    The root always branches; deeper nodes branch with the configured
    probability until the depth cap.  Each branching node draws a random
    nonempty subset of the alphabet as child labels.  Leaf masses are an
    exchangeable random point on the simplex: integer weights in exact
    mode, exponential draws in float mode, normalized either way.  The
    float draws are added left to right (``numeric._chained``), so a seed
    gives the same float tree on every Python version.  All masses are
    positive, so validation prunes nothing.
    """
    rng = random.Random(params.seed)
    edges: list[tuple[int, Label, int]] = []
    leaves: list[int] = []
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        branch = depth == 0 or (
            depth < params.max_depth
            and rng.random() < params.branching_probability
        )
        if not branch:
            leaves.append(node)
            continue
        width = rng.randint(1, params.alphabet_size)
        labels = sorted(rng.sample(range(params.alphabet_size), width))
        for label in labels:
            child = len(edges) + 1
            edges.append((node, label, child))
            stack.append((child, depth + 1))
    if exact:
        weights = [rng.randint(1, 1000) for _ in leaves]
        total = sum(weights)
        mass = {leaf: Fraction(w, total) for leaf, w in zip(leaves, weights)}
    else:
        draws = [rng.expovariate(1.0) for _ in leaves]
        total = _chained(draws)
        mass = {leaf: x / total for leaf, x in zip(leaves, draws)}
    return build_tree(edges, mass, exact=exact)


def dyadic_quantization(
    targets: Sequence[tuple[tuple[Label, ...], Fraction]]
) -> dict[tuple[Label, ...], Fraction]:
    """Round positive rationals summing to at most 1 down to powers of two,
    then promote largest remainders until the total is exactly 1.

    Each target p gets the largest power of two not exceeding it.  The
    leftover deficit is returned to the leaves greedily: among leaves whose
    current mass still fits inside the deficit, double the one with the
    largest remainder (target minus current mass), breaking ties by path
    order.  Every mass is a power of two, so the deficit always stays a
    multiple of the smallest mass; while it is positive the smallest-mass
    leaf fits, hence the loop terminates with deficit zero.

    The targets are sorted by path (labels compared as ``label_order``
    does), put over their common denominator and quantized in integers by
    ``_dyadic_levels``, the matcher's own quantizer, whose ties go to the
    earlier position.  The result is keyed in that path order.  Raises
    ParamsInvalid for no targets, for a target that is not an int or a
    Fraction, for a target that is not positive, for
    a path given twice (the result has one mass per path), and for targets
    whose one integer sum over that denominator exceeds it.
    """
    targets = list(targets)
    if not targets:
        raise ParamsInvalid("dyadic quantization needs at least one target")
    paths = set()
    for path, p in targets:
        if not isinstance(p, (int, Fraction)):
            raise ParamsInvalid(f"target mass {p!r} at {path!r} is not an int or a Fraction")
        if p <= 0:
            raise ParamsInvalid(f"target mass must be positive, got {p} at {path!r}")
        if path in paths:
            raise ParamsInvalid(f"target path {path!r} is repeated")
        paths.add(path)
    ranked = sorted(targets, key=lambda target: [label_order(a) for a in target[0]])
    denominator = math.lcm(*(p.denominator for _, p in targets))
    numerators = [p.numerator * (denominator // p.denominator) for _, p in ranked]
    if (total := sum(numerators)) > denominator:
        text = exact_text(Fraction(total, denominator))
        raise ParamsInvalid(f"targets sum to {text}, more than 1")
    levels = _dyadic_levels(numerators, denominator)
    return {path: Fraction(1, 1 << level) for (path, _), level in zip(ranked, levels)}


def _dyadic_levels(targets: Sequence[int], denominator: int) -> list[int]:
    """``dyadic_quantization`` of targets t / denominator, in integers: the
    level k of each final mass 2^-k, ties broken by position.

    With E the largest starting level, the deficit counts units of 2^-E and
    each remainder units of 1 / (2^E * denominator), so the heap orders
    exactly as the rationals would.

    The caller passes at least one target, and the targets sum to at most
    1.  Each 2^-k is at most its target, so the deficit starts at 0 or
    more.  The steps 2^(E - k) and the total 2^E are powers of two no
    smaller than the smallest step, so the deficit 2^E less the sum of the
    steps stays a multiple of it.  So while the deficit is positive, the
    leaf with the smallest step fits; it was never dropped, since a leaf is
    dropped only when its step exceeds the deficit, which only shrinks; and
    the heap cannot run empty.
    """
    # largest k with 2^-k <= t / denominator, i.e. smallest 2^k >= den / t
    levels = [(-(-denominator // t) - 1).bit_length() for t in targets]
    top = max(levels)
    deficit = (1 << top) - sum(1 << (top - level) for level in levels)
    heap = [
        ((denominator << (top - level)) - (t << top), i)
        for i, (t, level) in enumerate(zip(targets, levels))
    ]
    heapq.heapify(heap)
    while deficit > 0:
        neg_remainder, i = heapq.heappop(heap)
        step = 1 << (top - levels[i])
        if step > deficit:
            # deficit only shrinks, so this leaf can never fit again
            continue
        levels[i] -= 1
        deficit -= step
        heapq.heappush(heap, (neg_remainder + denominator * step, i))
    return levels


def grow_matcher_tree(spec: ProductSpec, leaf_budget: int) -> Tree:
    """Greedy complete tree aimed at a product target, dyadic leaf masses.

    Starting from a bare root, repeatedly replace the leaf of largest
    product probability with a full set of children (one per spec label)
    while the leaf count stays within budget; ties go to the
    lexicographically smallest label path, labels compared as
    ``label_order`` does.  Leaf masses are then the dyadic
    quantization of the product probabilities, which keeps the tree exactly
    normalized and the construction fully deterministic.

    The growth runs in integers.  With the spec written as s_a = k_a / M
    (its integer table, ``FiniteDistribution.integer_mass``), a depth-d
    leaf whose path multiplies to K = prod k_a has Q+ = K / M^d, and the
    heap keys it by the integer -K * M^(L - d), which orders as -Q+ does,
    and then by its path's integer rank, which orders as the path does.
    An expanded leaf is the largest of fewer than B leaves whose Q+ sum to
    1, so its Q+ exceeds 1/B, while Q+ <= (k_max / M)^d; L is the first
    depth with k_max^L * B < M^L, found by an integer loop, so no leaf lies
    deeper.
    The keys over M^L are the quantizer's targets.  This is the one-budget
    case of the growth ``convergence_sweep`` runs.  A budget below the
    alphabet size or above ``MAX_LEAF_BUDGET`` raises ParamsInvalid.
    """
    return next(_matcher_trees(spec, [leaf_budget]))


def _matcher_trees(spec: ProductSpec, budgets: Sequence[int]) -> Iterator[Tree]:
    """The matcher tree of each budget, in increasing order, from one growth.

    The greedy order does not depend on the budget, so a larger budget's
    expansion extends a smaller one's: the loop grows once toward the last
    budget and, at each budget's stop point, quantizes that frontier and
    builds its tree before growing on.  A budget that would add no leaf
    repeats the previous tree's leaf count and raises ParamsInvalid.

    Growth keeps the tree's own tables, those ``build_tree`` collects: each
    expanded node's (label, child) pairs and the parent edges.  The heap
    holds each leaf as (-K * M^(L - d), rank, node).  The rank of a path
    j_1 .. j_d of label positions is the sum of j_i * w^(L - i): its digits
    in base w, padded to L digits.  A child's rank is its parent's plus j
    times the parent's step w^(L - 1 - d), kept per node.  Two leaves never
    share a rank, and as no leaf's path is a prefix of another's, ranks
    order as the paths do: ties on the key go to the smaller path, and the
    node is never compared.  A successor list keeps the preorder:
    expanding v splices v -> c_0 .. c_(w-1) -> v's old successor, so each
    budget's preorder is one walk of the list.  Children follow
    ``spec.alphabet``, so that walk lists the leaves in label path order,
    the order in which the quantizer breaks ties, and needs no sort.  A
    matcher tree is valid by construction, so it goes straight to
    ``tree._tree_from_tables`` without ``build_tree``'s checks.  The leaf
    levels k give the table n = 2^(E - k) over D = 2^E, E the largest k,
    with one Fraction per distinct level.  Each tree gets its own copy of
    the parent edges, since growth goes on after the yield; its other maps
    are built fresh.
    """
    if not spec.exact:
        raise ParamsInvalid("matcher requires an exact (rational) target")
    labels = spec.alphabet
    width = len(labels)
    if width < 2:
        # an expansion must add leaves, or the growth never reaches the budget
        raise ParamsInvalid(f"matcher needs at least two labels, got {width}")
    if budgets[0] < width:
        raise ParamsInvalid(
            f"leaf budget {budgets[0]} is below the alphabet size {width}"
        )
    if budgets[-1] > MAX_LEAF_BUDGET:
        raise ParamsInvalid(
            f"leaf budget {budgets[-1]} is above the limit {MAX_LEAF_BUDGET}"
        )
    table = spec.base.integer_mass
    weights = [table[a] for a in labels]
    m = sum(weights)
    # scale = M^L and place = w^(L - 1) for the first L with k_max^L * B < M^L
    k_max = max(weights)
    power, scale, place = k_max, m, 1
    while power * budgets[-1] >= scale:
        power *= k_max
        scale *= m
        place *= width
    # the growth's own tables: each expanded node's (label, child) pairs,
    # and the parent edges in the order the nodes were made
    children: dict[int, list[tuple[Label, int]]] = {}
    parent_edge: dict[int, tuple[int, Label]] = {}
    # places[v] = w^(L - 1 - d) for v at depth d, the rank step of its
    # children; following[v] is the node after v in preorder, 0 for none
    places = [place]
    following = [0]
    # heap of current leaves keyed by (-K * M^(L - d), rank), unique
    heap: list[tuple[int, int, int]] = [(-scale, 0, 0)]
    for budget in budgets:
        # the first budget always grows, since it is at least the width
        if len(heap) + (width - 1) > budget:
            raise ParamsInvalid(
                f"budget {budget} repeats the previous leaf count {len(heap)};"
                f" spread the budgets further apart"
            )
        while len(heap) + (width - 1) <= budget:
            neg_key, rank, node = heapq.heappop(heap)
            # d < L for an expanded leaf, so its key is a multiple of M
            neg_key //= m
            step = places[node]
            pairs = children[node] = []
            # splice node -> its children -> node's old successor; each id
            # is one int object in the successor list and the tables alike,
            # which the tables' dict lookups then match by identity
            after = following[node]
            following[node] = child = len(places)
            for j, (label, k) in enumerate(zip(labels, weights)):
                pairs.append((label, child))
                parent_edge[child] = (node, label)
                places.append(step // width)
                heapq.heappush(heap, (neg_key * k, rank + j * step, child))
                child += 1
                following.append(child)
            following[-1] = after
        order = [0]
        v = following[0]
        while v:
            order.append(v)
            v = following[v]
        key = {node: -neg_key for neg_key, _, node in heap}
        leaves = [v for v in order if v in key]
        levels = _dyadic_levels([key[v] for v in leaves], scale)
        top = max(levels)
        unit = {level: Fraction(1, 1 << level) for level in set(levels)}
        masses = {v: unit[level] for v, level in zip(leaves, levels)}
        below = {v: 1 << (top - level) for v, level in zip(leaves, levels)}
        yield _tree_from_tables(0, children, dict(parent_edge), order, masses, below, 1 << top)


@dataclass(frozen=True)
class SweepRow:
    """One matcher budget's metrics, all in float for reporting.

    The field order is the sweep CSV's column order (``SWEEP_CSV_COLUMNS``).
    """

    leaf_count: int
    mean_length: float
    normalized_divergence: float
    entropy_rate: float
    entropy_rate_gap: float
    max_tail: float


def convergence_sweep(
    spec: ProductSpec, budgets: Sequence[int], epsilon: float
) -> list[SweepRow]:
    """Report the per-branch metrics of the matcher tree of each budget.

    Budgets must be strictly increasing and must produce strictly
    increasing leaf counts, so the sweep is a genuine tree sequence.  The
    matcher is grown once, up to the last budget; each budget's tree is the
    one ``grow_matcher_tree`` gives for it, built and reported at that
    budget's stop point, so one frontier is held at a time.
    ``max_tail`` is the P_B probability of a branch distance of at least
    epsilon.  Each budget evaluates every branch sum once; the entropy
    rate gap is rounded once from the exact difference of the rate and
    H(spec), as ``entropy_rate_gap`` does.  The leaf count is the size of
    the tree's leaf-mass map, which holds every leaf of a matcher tree, so
    no row builds the tree's ``leaves`` tuple.
    """
    budgets = list(budgets)
    if not budgets:
        raise ParamsInvalid("no budgets given")
    if any(b >= a for b, a in zip(budgets, budgets[1:])):
        raise ParamsInvalid(f"budgets must be strictly increasing: {budgets}")
    require_epsilon(epsilon)
    target_entropy = spec.base.entropy()
    rows: list[SweepRow] = []
    for tree in _matcher_trees(spec, budgets):
        report = tree_pinsker_report(tree, spec, [epsilon])
        rate = leaf_entropy(tree) / tree.mean_length
        rows.append(
            SweepRow(
                leaf_count=len(tree.leaf_mass),
                mean_length=float(tree.mean_length),
                normalized_divergence=report.normalized_divergence,
                entropy_rate=float(rate),
                entropy_rate_gap=abs(float(rate - target_entropy)),
                max_tail=report.tail[epsilon],
            )
        )
    return rows


def write_sweep_csv(rows: Iterable[SweepRow], out: IO[str]) -> None:
    """Write sweep rows as CSV: a ``SWEEP_CSV_COLUMNS`` header, then each
    row's fields in ``SweepRow``'s field order.

    The csv writer renders a float with ``str``, Python's shortest
    round-trip decimal, so the same rows always produce byte-identical
    output.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(map(astuple, rows))
