"""Pinsker bounds on trees and product-distribution matching.

Covers two layers.  A product assignment places one branching
distribution at every internal node of a shape, and a tree's divergence to
that product is a Q-weighted sum of per-node divergences to the one
distribution.  The per-branch Pinsker bound then relates a tree pair's
normalized divergence to the P_B-average of squared branch distances,
with exactly enumerated tail probabilities.  The classical bound
D >= d^2 / (2 ln 2) is its one-branching-node case.

A product spec is a ``FiniteDistribution``; an exact one keeps the
integer table its check sums (``integer_mass``), from which the matcher,
the exact Pinsker report and the spec's exact entropy read their weights,
so no spec is put over the lcm of its denominators twice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import (
    MassNotNormalized,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    UnknownLabel,
)
from .identities import (
    branch_references,
    comparison_sums,
    entropy_rate,
    normalizer,
    one_mode,
    pair_divergence,
)
from .numeric import entropy_of, exact_text, log2_weighted_sum
from .tree import MASS_SUM_TOLERANCE, Label, Tree, align_by_paths, label_order

__all__ = [
    "FiniteDistribution",
    "PinskerTreeReport",
    "ProductSpec",
    "entropy_rate_gap",
    "product_branch_divergence",
    "tree_pinsker_report",
]

PINSKER_TOLERANCE = 1e-12

# tail thresholds that tree_pinsker_report enumerates unless given others
DEFAULT_EPSILONS = (0.01, 0.1, 0.5, 1.0)


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability mass function on a finite label set.

    Unlike tree leaves, zero masses are kept.  A mass is an int or a
    Fraction, or a float in a float distribution; any other value is a
    ParamsInvalid.  An exact distribution keeps the integer table its check
    sums, ``integer_mass``: label -> k_a with s_a = k_a / M, M the lcm of
    the mass denominators and the sum of the k_a.  It is set by the check,
    as ``Tree.mass_below`` is by the build, and is None on a float
    distribution.
    """

    mass: dict[Label, object]
    exact: bool = True
    integer_mass: dict[Label, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        masses = self.mass.values()
        if self.exact and all(isinstance(m, (int, Fraction)) for m in masses):
            # rational masses are checked and summed as integer ratios
            ratios = [m.as_integer_ratio() for m in masses]
            for label, (a, _) in zip(self.mass, ratios):
                if a < 0:
                    text = exact_text(self.mass[label])
                    raise NegativeMass(f"label {label!r} has negative mass {text}")
            d = math.lcm(*(b for _, b in ratios))
            table = {k: a * (d // b) for k, (a, b) in zip(self.mass, ratios)}
            total = sum(table.values())
            if total != d:
                text = exact_text(Fraction(total, d))
                raise MassNotNormalized(f"masses sum to {text}, expected 1")
            mass = {k: m if type(m) is Fraction else Fraction(m)
                    for k, m in self.mass.items()}
            object.__setattr__(self, "mass", mass)
            object.__setattr__(self, "integer_mass", table)
            return
        total = 0
        for label, m in self.mass.items():
            if not isinstance(m, (int, Fraction, float)):
                raise ParamsInvalid(f"label {label!r} has mass {m!r}, which is not a number")
            if isinstance(m, float) and not math.isfinite(m):
                raise NonFiniteMass(f"label {label!r} has non-finite mass {m}")
            if m < 0:
                raise NegativeMass(f"label {label!r} has negative mass {exact_text(m)}")
            total = total + m
        if self.exact:
            raise ParamsInvalid("exact distribution built from float masses")
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise MassNotNormalized(f"masses sum to {total!r}, expected 1")

    @property
    def alphabet(self) -> tuple[Label, ...]:
        return tuple(sorted(self.mass, key=label_order))

    def __getitem__(self, label: Label):
        return self.mass[label]

    def entropy(self) -> object:
        """Shannon entropy in bits, exact when the masses are.

        The exact entropy is one fold over the integer table: the sum of
        -k_a log2(a / b) over M, for each s_a = a / b in lowest terms that
        is not 0 (``numeric.log2_weighted_sum``), so only the numerators
        and denominators of the masses are factored, never M.  A float
        entropy chains the summands in alphabet order
        (``numeric.entropy_of``).
        """
        if self.exact:
            k = self.integer_mass
            return log2_weighted_sum(
                ((-k[a], *s.as_integer_ratio()) for a, s in self.mass.items() if s),
                sum(k.values()),
            )
        return entropy_of(self.mass[a] for a in self.alphabet)


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

    def as_float(self) -> "ProductSpec":
        """This exact spec in float mode, each mass rounded by ``float``
        once.  A mass whose float lies below the normal range stays its
        Fraction: against it, a branch mass in (0, 1] could have no finite
        quotient, and ``kl_term`` takes the exact ratio."""
        mass = {a: f if (f := float(s)) >= sys.float_info.min else s
                for a, s in self.base.mass.items()}
        return ProductSpec(FiniteDistribution(mass, exact=False))


def _require_alphabet(tree: Tree, spec: ProductSpec) -> None:
    """Raise UnknownLabel unless every edge label of the tree is in the spec.

    The tree's cached ``label_alphabet`` decides; only a tree that fails
    is walked, in preorder, so the message names its first unknown label.
    """
    known = spec.base.mass
    if not known.keys() >= set(tree.label_alphabet):
        label = next(a for v in tree.nodes for a, _ in tree.children[v] if a not in known)
        raise UnknownLabel(f"edge label {label!r} not in product alphabet {spec.alphabet!r}")


def product_branch_divergence(tree: Tree, spec: ProductSpec) -> object:
    """D(P_L || P+) in bits, as a Q-weighted sum of per-node divergences
    to the spec.

    P+ gives each leaf the product of the spec masses on its path; on
    shapes that are not complete it sums to less than one and is not
    normalized, so D can exceed what a normalized reference would give.
    The form never builds P+, whose float values underflow on deep leaves.
    The pair runs in one mode (``identities.one_mode``), its labels checked
    against the spec's alphabet, and D is ``identities.pair_divergence``
    with no mapping: the exact leaf fold, in which only leaf and spec
    masses are factored, or the D of the float comparison pass, the sum
    over j of Q_j KL(P_{S_j} || spec) chained in preorder.
    """
    tree, spec = one_mode(tree, spec)
    _require_alphabet(tree, spec)
    return pair_divergence(tree, spec, None, True)


@dataclass(frozen=True)
class PinskerTreeReport:
    """Per-branch Pinsker diagnostics for a tree against a reference.

    ``divergence`` is D (``identities.pair_divergence``): exact, the leaf
    fold, when both inputs are, the comparison pass's float sum otherwise,
    and +inf when a reference tree lacks a branch of p;
    ``normalized_divergence`` is D / E[w(L)] as a float.  ``mean_distance``
    and ``mean_sq_distance`` are the P_B averages of the branch distance
    d_j and of d_j^2, rounded once from the exact average when both inputs
    are exact, and otherwise the comparison pass's float sums over E[w(L)].
    ``tail`` maps each requested epsilon to the P_B mass of the
    branching nodes with d_j >= epsilon, compared at epsilon's exact value
    and summed exactly when both inputs are exact.  ``holds`` records the
    bound normalized_divergence >= mean_sq_distance / (2 ln 2).  A pair
    that is not both exact is reported as its float pair
    (``identities.one_mode``).
    """

    divergence: object
    normalized_divergence: float
    mean_distance: float
    mean_sq_distance: float
    bound: float
    holds: bool
    tail: dict[float, float] = field(default_factory=dict)


def require_epsilon(epsilon) -> None:
    """Raise ParamsInvalid unless epsilon is a finite, positive tail threshold.

    A NaN threshold would make every tail 0 and an infinite one every
    Markov bound 0, and no branch distance reaches a threshold above 2.
    """
    if not 0 < epsilon < math.inf:
        raise ParamsInvalid(f"epsilon must be finite and positive, got {epsilon}")


def _branch_distances(p: Tree, reference, mapping) -> list[tuple[int, int, int]]:
    """Branch distance d_j = d(P_{S_j}, ref_j) per branching node j of an
    exact p against ``reference``, a tree that ``mapping`` aligns or a spec
    with ``mapping`` None, in preorder; ref_j is the integer reference of
    the exact pair at j (``identities.branch_references``).

    Each j gives one integer triple (n_j, S_j, m_j), with d_j = S_j /
    (m_j n_j), from the tables alone: no P_{S_j} is built.  ref_j is a
    weight r_a per label a, summing to m_j; each reference is summed once,
    the default (a spec's weights) once for all the j that take it.  S_j
    is the sum of |m_j n_c - r_a n_j| over j's children c (label a, r_a = 0
    where ref_j lacks a) plus n_j r_a for each reference label a that j
    lacks.  As the n_c sum to n_j and the r_a to m_j, the positive and the
    negative parts of that sum are equal, so S_j is twice the sum of the
    positive parts of m_j n_c - r_a n_j, added in one plain loop over j's
    children.  A j with an empty ref_j has d_j = 1, the triple (n_j, n_j,
    1), and is settled before that loop.
    """
    refs, default = branch_references(p, reference, mapping)
    n = p.mass_below
    children = p.children
    default_m = sum(default.values())
    triples = []
    for j in p.branching_nodes:
        ref = refs.get(j, default)
        nj = n[j]
        if not ref:
            triples.append((nj, nj, 1))
            continue
        m = default_m if ref is default else sum(ref.values())
        s = 0
        for a, c in children[j]:
            x = m * n[c] - ref.get(a, 0) * nj
            if x > 0:
                s += x
        triples.append((nj, 2 * s, m))
    return triples


def _ratio_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of a / b over (a, b) integer pairs, as one unreduced integer
    pair (numerator, denominator).

    Numerators over one denominator are added first.  The groups are then
    added pairwise in a balanced tree, a/b + c/d = (a d + c b) / (b d),
    with no gcd, so each level multiplies operands of about equal size and
    the sum costs no more than a few products of its final size, where a
    running ``Fraction`` total takes a gcd on a growing lcm per group.  No
    pairs give (0, 1).
    """
    over: dict[int, int] = {}
    for a, b in pairs:
        over[b] = over.get(b, 0) + a
    terms = [(a, b) for b, a in over.items()] or [(0, 1)]
    while len(terms) > 1:
        odd = terms[len(terms) // 2 * 2:]
        terms = [(a * d + c * b, b * d)
                 for (a, b), (c, d) in zip(terms[::2], terms[1::2])] + odd
    return terms[0]


def tree_pinsker_report(
    p: Tree,
    q_or_spec: "Tree | ProductSpec",
    epsilons: Iterable[float] = DEFAULT_EPSILONS,
) -> PinskerTreeReport:
    """Check the per-branch Pinsker bound and enumerate distance tails.

    Tail probabilities are exact sums over the finite branching set, not
    estimates.  Their Markov bound E[d]/eps is the report's
    ``mean_distance`` over eps.

    The pair runs in one mode (``identities.one_mode``): exact only when
    the tree and the reference are both exact, and float otherwise.  It is
    set up once: p's labels are checked against a spec's alphabet, or p is
    aligned with a reference tree (``align_by_paths``).  Both per-branch
    kernels take that pair and read the reference at each branching node,
    the spec or the aligned node of the reference tree, from
    ``identities.branch_references``.  On an exact pair, D is
    ``identities.pair_divergence`` of the pair, the leaf fold, and every
    average is a ratio of integers over the triples
    (n_j, S_j, m_j) of ``_branch_distances``.  With N the sum of n_j over
    branching j, the mean is the sum of S_j / m_j over N, the mean square
    the sum of S_j^2 / (m_j^2 n_j) over N, and tail(eps) the sum of n_j
    over the j with S_j >= eps m_j n_j, over N, with eps at its exact value
    (a float at its binary value, as ``Fraction >= float`` compares).  Each
    is one integer quotient, the sums as the unreduced pairs (a, b) of
    ``_ratio_sum``: a / (b N) and reached / N, rounded once by the
    correctly rounded ``int / int``, so each float is ``float`` of the
    exact average.  On a float pair the one comparison pass
    (``identities.comparison_sums``) gives D and the Q_j-weighted sums of
    d_j, d_j^2 and the tails, each chained from 0.0 in preorder, and each
    average is its sum over E[w(L)].
    """
    epsilons = list(epsilons)
    for eps in epsilons:
        require_epsilon(eps)
    p, reference = one_mode(p, q_or_spec)
    ew = normalizer(p)
    if isinstance(reference, ProductSpec):
        _require_alphabet(p, reference)
        mapping, covered = None, True
    else:
        mapping, covered = align_by_paths(p, reference)
    if p.exact:
        divergence = pair_divergence(p, reference, mapping, covered)
        distances = _branch_distances(p, reference, mapping)
        total = sum(nj for nj, _, _ in distances)
        # each average is one integer quotient, which int / int rounds once
        a, b = _ratio_sum((s, m) for _, s, m in distances)
        mean_d = a / (b * total)
        a, b = _ratio_sum((s * s, m * m * nj) for nj, s, m in distances)
        mean_sq = a / (b * total)
        tail = {}
        for eps in epsilons:
            num, den = Fraction(eps).as_integer_ratio()
            reached = sum(nj for nj, s, m in distances if s * den >= num * m * nj)
            tail[eps] = reached / total
    else:
        divergence, sum_d, sum_sq, reached = comparison_sums(p, reference, mapping, epsilons)
        mean_d, mean_sq = sum_d / ew, sum_sq / ew
        tail = {eps: float(r / ew) for eps, r in reached.items()}
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


def entropy_rate_gap(tree: Tree, spec: ProductSpec) -> float:
    """|entropy rate - H(spec)|: the tree's bits/branch against the target's,
    for the pair in one mode (``identities.one_mode``), rounded once."""
    tree, spec = one_mode(tree, spec)
    rate = entropy_rate(tree)
    _require_alphabet(tree, spec)
    return abs(float(rate - spec.base.entropy()))

