"""Distribution distance, Pinsker bounds, and product-distribution matching.

Covers three layers.  Plain finite distributions get variational (L1)
distance and the classical bound D >= d^2 / (2 ln 2).  A product
assignment places one branching distribution at every internal node of a
shape, giving product node probabilities and a divergence from a tree's
actual leaf distribution to that product.  The per-branch Pinsker bound
then relates a tree pair's normalized divergence to the P_B-average of
squared branch distances, with exactly enumerated tail probabilities and
the Markov bound E[d]/eps as a cross-check.

Divergence to a product follows its definition as a plain leaf sum.  On
shapes that are not complete the product leaf values sum to less than one
and no normalization is applied, so the reported "divergence" can exceed
what a normalized reference distribution would give.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import (
    AlphabetMismatch,
    MassNotNormalized,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    UnknownLabel,
)
from .identities import (
    align_by_paths,
    aligned_divergence,
    branch_sum,
    entropy_rate,
    log_increment_sum,
    mass_logs,
    normalizer,
)
from .numeric import entropy_of, kl_of, kl_term, log2_exponents
from .tree import MASS_SUM_TOLERANCE, Label, NodeId, Tree, label_order

__all__ = [
    "BoundedFunctional",
    "FiniteDistribution",
    "PinskerCheck",
    "PinskerTreeReport",
    "ProductSpec",
    "divergence_to_product",
    "entropy_functional",
    "entropy_rate_gap",
    "functional_convergence_gap",
    "pinsker_check",
    "product_branch_divergence",
    "product_node_probabilities",
    "tree_pinsker_report",
    "variational_distance",
]

PINSKER_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability mass function on a finite label set.

    Unlike tree leaves, zero masses are kept; distances and divergences
    between distributions with differing supports are meaningful.
    """

    mass: dict[Label, object]
    exact: bool = True

    def __post_init__(self):
        total = 0
        for label, m in self.mass.items():
            if isinstance(m, float) and not math.isfinite(m):
                raise NonFiniteMass(f"label {label!r} has non-finite mass {m}")
            if m < 0:
                raise NegativeMass(f"label {label!r} has negative mass {m}")
            total = total + m
        if self.exact:
            if any(isinstance(m, float) for m in self.mass.values()):
                raise ParamsInvalid("exact distribution built from float masses")
            if total != 1:
                raise MassNotNormalized(f"masses sum to {total}, expected 1")
            object.__setattr__(
                self, "mass", {k: Fraction(v) for k, v in self.mass.items()}
            )
        elif abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise MassNotNormalized(f"masses sum to {total!r}, expected 1")

    @classmethod
    def from_mass(cls, mass: Mapping[Label, object]) -> "FiniteDistribution":
        exact = not any(isinstance(m, float) for m in mass.values())
        return cls(dict(mass), exact=exact)

    @property
    def alphabet(self) -> tuple[Label, ...]:
        return tuple(sorted(self.mass, key=label_order))

    def __getitem__(self, label: Label):
        return self.mass[label]

    def entropy(self) -> object:
        """Shannon entropy in bits, exact when the masses are."""
        return entropy_of(
            (self.mass[a] for a in self.alphabet), self.exact
        )

    def with_alphabet(self, labels: Iterable[Label]) -> "FiniteDistribution":
        """Zero-extend onto a superset alphabet (for union comparisons)."""
        extended = {lab: self.mass.get(lab, Fraction(0) if self.exact else 0.0)
                    for lab in labels}
        missing = set(self.mass) - set(extended)
        if missing:
            raise AlphabetMismatch(
                f"target alphabet drops labels {sorted(map(repr, missing))}"
            )
        return FiniteDistribution(extended, exact=self.exact)


def variational_distance(p: FiniteDistribution, q: FiniteDistribution) -> object:
    """L1 distance between mass functions; 0 iff equal, 2 iff disjoint supports."""
    if set(p.mass) != set(q.mass):
        raise AlphabetMismatch(
            f"alphabets differ: {p.alphabet!r} vs {q.alphabet!r}"
        )
    total = 0
    for label in p.alphabet:
        total = total + abs(p.mass[label] - q.mass[label])
    return total


class PinskerCheck(NamedTuple):
    divergence: object
    distance: object
    bound: float
    holds: bool


def pinsker_check(p: FiniteDistribution, q: FiniteDistribution) -> PinskerCheck:
    """Divergence, distance, and the lower bound d^2/(2 ln 2) with verdict.

    The bound is a theorem, so holds is True for every valid input; a False
    verdict signals an arithmetic bug, not a property of the data.
    """
    if set(p.mass) != set(q.mass):
        raise AlphabetMismatch(
            f"alphabets differ: {p.alphabet!r} vs {q.alphabet!r}"
        )
    exact = p.exact and q.exact
    divergence = kl_of(((p.mass[lab], q.mass[lab]) for lab in p.alphabet), exact)
    distance = variational_distance(p, q)
    bound = float(distance) ** 2 / (2.0 * math.log(2.0))
    holds = float(divergence) >= bound - PINSKER_TOLERANCE
    return PinskerCheck(divergence, distance, bound, holds)


@dataclass(frozen=True)
class ProductSpec:
    """One branching distribution reused at every internal node of a shape."""

    base: FiniteDistribution

    def __post_init__(self):
        if any(m <= 0 for m in self.base.mass.values()):
            raise ParamsInvalid(
                "product assignment requires full support on its alphabet"
            )

    @classmethod
    def uniform(cls, labels: Iterable[Label]) -> "ProductSpec":
        labels = list(labels)
        mass = {lab: Fraction(1, len(labels)) for lab in labels}
        return cls(FiniteDistribution(mass, exact=True))

    @property
    def alphabet(self) -> tuple[Label, ...]:
        return self.base.alphabet

    @property
    def exact(self) -> bool:
        return self.base.exact


def _require_alphabet(tree: Tree, spec: ProductSpec) -> None:
    """Raise UnknownLabel unless every edge label of the tree is in the spec."""
    for node in tree.nodes:
        for label, _ in tree.children[node]:
            if label not in spec.base.mass:
                raise UnknownLabel(
                    f"edge label {label!r} not in product alphabet {spec.alphabet!r}"
                )


def product_node_probabilities(shape: Tree, spec: ProductSpec) -> dict[NodeId, object]:
    """Node probabilities when every internal node branches per the spec.

    The root gets 1 and each child multiplies by the spec mass of its edge
    label.  On complete shapes the leaf values form a distribution; on
    non-complete shapes they sum to less than one and are left as is.
    """
    _require_alphabet(shape, spec)
    one = Fraction(1) if spec.exact else 1.0
    qplus: dict[NodeId, object] = {shape.root: one}
    for node in shape.nodes:
        for label, child in shape.children[node]:
            qplus[child] = qplus[node] * spec.base.mass[label]
    return qplus


def divergence_to_product(tree: Tree, spec: ProductSpec) -> object:
    """D(P_L || P+) in bits, the definition's plain sum over leaves.

    P+ is not normalized on non-complete shapes.  Agrees with the
    branch-sum form ``product_branch_divergence``, and stays as its
    leaf-side oracle.  In float mode the product masses P+ of deep leaves
    underflow (to subnormals, then to 0.0), so this sum turns infinite or
    divides by zero where the branch-sum form, which never forms P+, stays
    accurate; the CLI reports the branch-sum form.
    """
    qplus = product_node_probabilities(tree, spec)
    exact = tree.exact and spec.exact
    total = Fraction(0) if exact else 0.0
    for leaf in tree.leaves:
        total = total + kl_term(tree.leaf_mass[leaf], qplus[leaf], exact)
    return total


def product_branch_divergence(tree: Tree, spec: ProductSpec) -> object:
    """Same divergence as a Q-weighted sum of per-node divergences to the spec.

    Exact mode sums the increments of f = log2(Q / Q+) in integers
    (``identities.log_increment_sum``): the increment at child c of j is
    log2(Q_c / Q_j) - log2 s_a for its edge label a, and the s_a terms
    gather into one weight per label.
    """
    _require_alphabet(tree, spec)
    base = spec.base.mass
    if tree.exact and spec.exact:
        # increments of f = log2(Q / Q+): log2(Q_c / Q_j) - log2 s_{label(c)}
        label_logs = {lab: log2_exponents(1 / m) for lab, m in base.items()}
        return log_increment_sum(tree, [(1, mass_logs(tree))], label_logs)
    return branch_sum(
        tree,
        lambda j, dist: kl_of(((m, base[lab]) for lab, m in dist.items()), False),
        False,
    )


@dataclass(frozen=True)
class PinskerTreeReport:
    """Per-branch Pinsker diagnostics for a tree against a reference.

    ``divergence`` is the branch-sum D, exact when both inputs are, and
    +inf when a reference tree lacks a branch of p; ``normalized_divergence``
    is D / E[w(L)] as a float.  ``tail`` maps each requested epsilon to the
    exact P_B mass of branching nodes whose branch distance reaches it.
    ``holds`` records the bound
    normalized_divergence >= mean_sq_distance / (2 ln 2).
    """

    divergence: object
    normalized_divergence: float
    mean_distance: float
    mean_sq_distance: float
    bound: float
    holds: bool
    tail: dict[float, float] = field(default_factory=dict)

    def markov_tail_bound(self, epsilon: float) -> float:
        """E[d]/epsilon, an upper bound on tail(epsilon) by Markov."""
        require_epsilon(epsilon)
        return self.mean_distance / epsilon


def require_epsilon(epsilon) -> None:
    """Raise ParamsInvalid unless epsilon is a finite, positive tail threshold.

    A NaN threshold would make every tail 0 and an infinite one every
    Markov bound 0, and no branch distance reaches a threshold above 2.
    """
    if not 0 < epsilon < math.inf:
        raise ParamsInvalid(f"epsilon must be finite and positive, got {epsilon}")


def _branch_distances(
    p: Tree, reference: "Tree | ProductSpec"
) -> tuple[dict[NodeId, object], object]:
    """Branch distance d(P_{S_j}, ref_j) per branching node, plus the divergence D.

    For a tree reference, nodes align by label paths; structure missing
    from the reference counts as zero mass there (distance then includes
    the uncovered p mass, and the divergence is +inf).  For a product
    reference, every node compares against the one spec distribution over
    the full spec alphabet.
    """
    if isinstance(reference, ProductSpec):
        divergence = product_branch_divergence(p, reference)
        refs = dict.fromkeys(p.branching_nodes, reference.base.mass)
    else:
        mapping, covered = align_by_paths(p, reference)
        divergence = aligned_divergence(p, reference, mapping, covered)
        ref_dists = reference.branching
        refs = {
            j: ref_dists.get(mapping[j], {}) if j in mapping else {}
            for j in p.branching_nodes
        }
    distances: dict[NodeId, object] = {}
    for j, own in p.branching.items():
        ref = refs[j]
        d = 0
        for lab, mass in own.items():
            d = d + abs(mass - ref.get(lab, 0))
        for lab, mass in ref.items():
            if lab not in own:
                d = d + abs(mass)
        distances[j] = d
    return distances, divergence


def tree_pinsker_report(
    p: Tree,
    q_or_spec: "Tree | ProductSpec",
    epsilons: Iterable[float] = (0.01, 0.1, 0.5, 1.0),
) -> PinskerTreeReport:
    """Check the per-branch Pinsker bound and enumerate distance tails.

    Tail probabilities are exact sums over the finite branching set, not
    estimates.  The Markov cross-check E[d]/eps is available from the
    report's ``markov_tail_bound``.
    """
    epsilons = list(epsilons)
    for eps in epsilons:
        require_epsilon(eps)
    ew = normalizer(p)
    distances, divergence = _branch_distances(p, q_or_spec)

    def average(h, exact):
        """The P_B-average of h(d_j)."""
        return branch_sum(p, lambda j, dist: h(distances[j]), exact) / ew

    # a float reference makes every distance a float, unless it is a bare
    # root and enters none; the tail indicators of an exact tree are exact
    exact = p.exact and not any(isinstance(d, float) for d in distances.values())
    mean_d = average(lambda d: d, exact)
    mean_sq = average(lambda d: d * d, exact)
    tail = {eps: float(average(lambda d: d >= eps, p.exact)) for eps in epsilons}
    bound = float(mean_sq) / (2.0 * math.log(2.0))
    nd_float = float(divergence / ew)
    return PinskerTreeReport(
        divergence=divergence,
        normalized_divergence=nd_float,
        mean_distance=float(mean_d),
        mean_sq_distance=float(mean_sq),
        bound=bound,
        holds=nd_float >= bound - PINSKER_TOLERANCE,
        tail=tail,
    )


@dataclass(frozen=True)
class BoundedFunctional:
    """A real feature of branching distributions with a declared range bound.

    ``bound`` must dominate |evaluate(P) - evaluate(reference)| over the
    alphabet's simplex; it is declared, not derived, and ``spot_check``
    samples random distributions to catch gross misdeclarations.
    """

    evaluate: Callable[[FiniteDistribution], object]
    bound: float

    def spot_check(
        self, spec: ProductSpec, samples: int = 200, seed: int = 0
    ) -> bool:
        rng = random.Random(seed)
        center = float(self.evaluate(spec.base))
        labels = spec.alphabet
        for _ in range(samples):
            raw = [rng.random() for _ in labels]
            total = sum(raw)
            mass = {lab: x / total for lab, x in zip(labels, raw)}
            dist = FiniteDistribution(mass, exact=False)
            if abs(float(self.evaluate(dist)) - center) > self.bound + 1e-9:
                return False
        return True


def entropy_functional(alphabet: Iterable[Label]) -> BoundedFunctional:
    """g = Shannon entropy with the built-in bound log2 of alphabet size."""
    size = len(list(alphabet))
    if size < 1:
        raise ParamsInvalid("entropy functional needs a nonempty alphabet")
    return BoundedFunctional(
        evaluate=lambda dist: dist.entropy(), bound=math.log2(size) if size > 1 else 0.0
    )


def _gap(value, target, exact: bool) -> float:
    """|value - target| as a float, rounded once from the exact difference
    in exact mode, so equal values give exactly 0.0."""
    diff = value - target if exact else float(value) - float(target)
    return abs(float(diff))


def functional_convergence_gap(
    tree: Tree, spec: ProductSpec, g: BoundedFunctional
) -> float:
    """|E_{P_B}[g(P_{S_B})] - g(P_{S*})|, the per-branch feature gap.

    Branching distributions are zero-extended to the spec alphabet before
    evaluation so g sees one fixed domain.  Computed in exact arithmetic
    when the tree and spec allow it, so a gap of zero is reported as an
    exact 0.0 rather than rounding noise; otherwise both terms are floats.
    """
    ew = normalizer(tree)
    _require_alphabet(tree, spec)
    exact = tree.exact and spec.exact
    zero = Fraction(0) if exact else 0.0

    def inner(j, dist):
        extended = {lab: dist.get(lab, zero) for lab in spec.alphabet}
        return g.evaluate(FiniteDistribution(extended, exact=exact))

    target = g.evaluate(spec.base)
    average = branch_sum(tree, inner, exact and not isinstance(target, float)) / ew
    return _gap(average, target, exact)


def entropy_rate_gap(tree: Tree, spec: ProductSpec) -> float:
    """|entropy rate - H(spec)|: the tree's bits/branch against the target's."""
    rate = entropy_rate(tree)
    _require_alphabet(tree, spec)
    return _gap(rate, spec.base.entropy(), tree.exact and spec.exact)

