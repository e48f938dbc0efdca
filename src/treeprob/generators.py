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

The matcher runs in integers.  A leaf's key is the integer K * M^(L - d)
for a spec s_a = k_a / M, a depth-d leaf with path product K and L a depth
no leaf can reach, which is bounded through the budget; the quantizer
works on those numerators over M^L and returns each leaf's level k, its
mass being 2^-k.  Equal keys go to the smaller label path, which the
matcher holds as an integer rank: the path's label positions as base-w
digits, w the alphabet size, padded to L digits.  The leaves form a
prefix-free set of paths, so their ranks order as their paths do.  Few
distinct keys occur, so growth and quantization work one key class at a
time: the growth heap holds each key once, with the class's leaves in a
list, and the quantizer's heap holds runs of leaves that share a target
and a level.  The greedy growth for a larger budget extends the one for a
smaller budget (as in Tunstall's parse trees), so a sweep grows its
matcher once, up to its largest budget, and only quantizes and builds a
tree at each budget on the way.  Growth keeps the preorder as a successor list, which each expansion
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

import bisect
import csv
import heapq
import math
import random
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import chain, groupby
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
    does) and put over their common denominator.  Equal targets form one
    group, whose positions are their indices in that order, and the groups
    are quantized in integers by ``_dyadic_levels``, the matcher's own
    quantizer, whose ties go to the earlier position.  The result is keyed
    in path order.  Raises
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
    # the indices by target, each target's ascending: its group's positions
    by_target = sorted(range(len(ranked)), key=numerators.__getitem__)
    groups = [(t, list(group)) for t, group in groupby(by_target, numerators.__getitem__)]
    level_of = dict(zip(by_target, _dyadic_levels(groups, denominator)))
    return {path: Fraction(1, 1 << level_of[i]) for i, (path, _) in enumerate(ranked)}


def _dyadic_levels(groups: Sequence[tuple[int, Sequence]], denominator: int) -> list[int]:
    """``dyadic_quantization`` of targets t / denominator in integers, one
    group of equal targets at a time: the level k of each final mass 2^-k,
    for each (t, positions) group in turn and, within it, in position
    order.  A group's positions ascend, and positions compare across
    groups: ties go to the smaller one.  ``dyadic_quantization`` passes
    indices, the matcher its leaves' (rank, node, step) triples.

    With E the largest starting level, the deficit counts units of 2^-E and
    each remainder units of 1 / (2^E * denominator), so the heap orders
    exactly as the rationals would.  Its entries are runs: contiguous
    stretches of a group's positions that share a level, so a remainder,
    keyed by (remainder, first position).  The greedy rule takes the
    leaves of the run on top in position order and doubles each while its
    step fits in the deficit.  The step is the same for the whole run and
    the deficit only shrinks, so it doubles the first
    min(count, deficit // step) leaves in one step, and the rest of the run
    is final; the doubled part goes back as one run, one level up.  When
    another run has the same remainder, the leaves of the two interleave by
    position: only the leaves before the other run's first position go,
    and the rest goes back as a run of its own.  Without such ties, the
    work on a run does not depend on its length.

    The caller passes at least one group, no group is empty, and the
    targets sum to at most 1.  Each 2^-k is at most its target, so the
    deficit starts at 0 or more.  The steps 2^(E - k) and the total 2^E are
    powers of two no smaller than the smallest step, so the deficit 2^E
    less the sum of the steps stays a multiple of it.  So while the deficit
    is positive, the leaf with the smallest step fits; it was never made
    final, since a leaf is made final only when its step exceeds the
    deficit, which only shrinks; and the heap cannot run empty.
    """
    # the smallest target has the largest starting level
    top = (-(-denominator // min(groups)[0]) - 1).bit_length()
    deficit = 1 << top
    out, heap = [], []
    for t, positions in groups:
        # largest k with 2^-k <= t / denominator, i.e. smallest 2^k >= den / t
        level = (-(-denominator // t) - 1).bit_length()
        deficit -= len(positions) << (top - level)
        out.append([level] * len(positions))
        neg_remainder = (denominator << (top - level)) - (t << top)
        heap.append((neg_remainder, positions[0], 0, len(positions), positions, out[-1]))
    heapq.heapify(heap)
    while deficit > 0:
        neg_remainder, _, start, stop, positions, levels = heapq.heappop(heap)
        # when another run ties on the remainder, only the leaves before its
        # first position go now, and the rest goes back
        tied = heap and heap[0][0] == neg_remainder
        cut = bisect.bisect(positions, heap[0][1], start, stop) if tied else stop
        if cut < stop:
            heapq.heappush(heap, (neg_remainder, positions[cut], cut, stop, positions, levels))
        level = levels[start]
        k = min(cut - start, deficit >> (top - level))
        if k:
            deficit -= k << (top - level)
            levels[start : start + k] = [level - 1] * k
            neg_remainder += denominator << (top - level)
            heapq.heappush(heap, (neg_remainder, positions[start], start, start + k, positions, levels))
    return list(chain.from_iterable(out))


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
    leaf whose path multiplies to K = prod k_a has Q+ = K / M^d, and its
    key is the integer K * M^(L - d), which orders as Q+ does; equal keys
    go in the order of the paths' integer ranks, which order as the paths
    do.  The leaves of one key, a class, are expanded together, in rank
    order.
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
    expanded node's (label, child) pairs and the parent edges.  Each key
    K * M^(L - d) of a current leaf, a class, is in a heap once, and the
    class keeps its leaves as (rank, node, step) triples.  The rank of a
    path j_1 .. j_d of label positions is the sum of j_i * w^(L - i): its
    digits in base w, padded to L digits, and the step w^(L - 1 - d) is
    what a child's position j adds to it.  Two leaves never share a rank,
    and as no leaf's path is a prefix of another's, ranks order as the
    paths do.  A child's key K * k_a / M is below its parent's, so when the
    largest key comes off the heap its class is complete: its leaves are
    sorted by rank once and expanded in that order, which is the order of
    a heap of (key, rank) pairs, one per leaf, so node ids come out the
    same.  The children of a class's leaves join the classes of its w child
    keys, and a key enters the heap when its class is made.  A budget that
    stops inside a class keeps the sorted rest of it for the next budget.

    A successor list keeps the preorder: expanding v splices
    v -> c_0 .. c_(w-1) -> v's old successor, so each budget's preorder is
    one walk of the list.  At each budget the current classes, each sorted
    by rank in place, are the quantizer's groups, with the triples as
    positions: ranks order the leaves as the preorder does, the order in
    which the quantizer breaks ties.  A matcher tree is valid by
    construction, so it goes straight to ``tree._tree_from_tables`` without
    ``build_tree``'s checks.  The leaf levels k give the table
    n = 2^(E - k) over D = 2^E, E the largest final level, and one pass
    over the preorder fills the leaf masses, with one Fraction per
    distinct level.  Each tree gets its own copy of the parent edges, since
    growth goes on after the yield; its other maps are built fresh.
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
    # following[v] is the node after v in preorder, 0 for none
    following = [0]
    # the leaves of each key K * M^(L - d) as (rank, node, step), step =
    # w^(L - 1 - d) the rank step of the leaf's children, and a heap of the
    # keys, negated, each once
    classes = {scale: [(0, 0, place)]}
    heap = [-scale]
    # the class being expanded: its key, its leaves sorted by rank, how many
    # of them are expanded, and the leaf lists of its children's keys
    key, rest, done, sinks = 0, [], 0, []
    count = 1
    for budget in budgets:
        # the first budget always grows, since it is at least the width
        if count + (width - 1) > budget:
            raise ParamsInvalid(
                f"budget {budget} repeats the previous leaf count {count};"
                f" spread the budgets further apart"
            )
        while count + (width - 1) <= budget:
            if done == len(rest):
                key = -heapq.heappop(heap)
                rest, done, sinks = sorted(classes.pop(key)), 0, []
                for k in weights:
                    # d < L for an expanded leaf, so its key is a multiple of M
                    child_key = key // m * k
                    if (sink := classes.get(child_key)) is None:
                        sink = classes[child_key] = []
                        heapq.heappush(heap, -child_key)
                    sinks.append(sink)
            rank, node, step = rest[done]
            done += 1
            count += width - 1
            pairs = children[node] = []
            # splice node -> its children -> node's old successor; each id
            # is one int object in the successor list and the tables alike,
            # which the tables' dict lookups then match by identity
            after = following[node]
            following[node] = child = len(following)
            for label, sink in zip(labels, sinks):
                pairs.append((label, child))
                parent_edge[child] = (node, label)
                sink.append((rank, child, step // width))
                rank += step
                child += 1
                following.append(child)
            following[-1] = after
        order, v = [0], 0
        while v := following[v]:
            order.append(v)
        groups = list(classes.items())
        if done < len(rest):
            groups.append((key, rest[done:]))
        for _, members in groups:
            members.sort()
        leaves = [v for _, members in groups for _, v, _ in members]
        level_of = dict(zip(leaves, _dyadic_levels(groups, scale)))
        unit = {level: Fraction(1, 1 << level) for level in set(level_of.values())}
        top = max(unit)
        masses = {v: unit[level_of[v]] for v in order if v in level_of}
        below = {v: 1 << (top - level) for v, level in level_of.items()}
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
