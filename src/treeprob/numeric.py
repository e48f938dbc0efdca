"""Scalar arithmetic shared by all probability-tree modules.

Every computation in the package runs in one of two numeric modes:

* float mode: ordinary 64-bit floats and ``math.log2``, with identities
  checked against relative tolerances;
* exact mode: ``fractions.Fraction`` for probabilities and ``ExactLog2``
  (below) for logarithmic quantities, with identities checked by ``==``.

``ExactLog2`` stores numbers of the form

    x = sum over primes p of  c_p * log2(p),    c_p rational,

as the sparse coefficient map ``{p: c_p}``.  The family is closed under
addition and under scaling by rationals.  It contains every rational r
(as ``r * log2(2)``) and the base-2 logarithm of every positive rational,
so entropies and informational divergences of rational distributions never
leave it.  By unique factorization the values ``log2(p)`` are linearly
independent over the rationals, which makes the coefficient map a canonical
form: two expressions denote the same real number exactly when their maps
are equal.  No epsilon enters an exact-mode identity check.

Exact sums are folded, not chained: ``exact_weighted_sum`` adds every
term's coefficients into one ``{prime: coefficient}`` map, divides each
total by a common denominator once and builds a single ``ExactLog2`` at
the end, where ``total = total + term`` would copy the running map on each
addition.  A term's value may be a rational, an ``ExactLog2``, or the
integer exponent map of a rational (``log2_exponents``), which stands for
its log2 without building an ``ExactLog2``.  Integer weights on such maps
keep every coefficient a plain integer until the one division.  An exact
tree keeps integer node masses, Q_v = n_v / D (``Tree.mass_numerators``),
so the identities module weights its tree sums by n and passes D as the
denominator.  Since the map is canonical, the fold equals the chained sum
under ``==``.

The fold takes exact terms only.  A sum over a tree is exact when the tree
is exact and none of its values is a float (``identities``); any other sum
is the float sum, which keeps its left-to-right ``total + term`` order, so
float results do not depend on any of this.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "ExactLog2",
    "Scalar",
    "entropy_of",
    "entropy_term",
    "exact_weighted_sum",
    "kl_of",
    "kl_term",
    "log2_exponents",
    "log2_of",
    "parse_rational",
]

Rational = Union[int, Fraction]

_factor_cache: dict[int, dict[int, int]] = {}


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n <= 0:
        raise ValueError(f"cannot factorize non-positive integer {n}")
    cached = _factor_cache.get(n)
    if cached is not None:
        return cached
    factors: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    # remaining factors are of the form 6k +- 1
    d = 5
    step = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += step
        step = 6 - step
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    if n < (1 << 20):
        _factor_cache[n] = factors
    return factors


class ExactLog2:
    """An exact real number of the form sum of rational multiples of log2(p).

    Instances are immutable.  Supported arithmetic: addition and subtraction
    with other ExactLog2 values or rationals, negation, multiplication and
    division by rationals, equality, ordering, and conversion to float.
    Products of two logarithmic values are deliberately unsupported; nothing
    in the package needs them.

    Ordering is exact: a float comparison with a rigorous rounding-error
    bound decides well-separated values, and near-ties fall back to comparing
    the integer powers prod p^(c_p * lcm) directly.  Package code orders
    these values only to sign one past the float range (``cli``); ordering
    serves tests (nonnegativity asserts) and the benchmark's tracer, which
    wraps the comparisons and ``__abs__`` by name.
    """

    __slots__ = ("_coef",)

    def __init__(self, coef: Mapping[int, Fraction] | None = None):
        cleaned = {}
        if coef:
            for p, c in coef.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    cleaned[p] = c
        object.__setattr__(self, "_coef", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactLog2 is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational) -> "ExactLog2":
        """Embed a rational r as r * log2(2)."""
        value = Fraction(value)
        return cls({2: value} if value else {})

    @classmethod
    def log2(cls, ratio: Rational) -> "ExactLog2":
        """Exact log2 of a positive rational."""
        return cls(log2_exponents(ratio))

    # -- interrogation ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        """True when the value is a plain rational (only log2(2) appears)."""
        return all(p == 2 for p in self._coef)

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; raises ValueError if it is irrational."""
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self._coef.get(2, Fraction(0))

    def __float__(self) -> float:
        return math.fsum(float(c) * math.log2(p) for p, c in self._coef.items())

    def __bool__(self) -> bool:
        return bool(self._coef)

    def __repr__(self) -> str:
        return f"ExactLog2({float(self):.12g})"

    # -- arithmetic ---------------------------------------------------------

    def _merged(self, other: "ExactLog2", sign: int) -> "ExactLog2":
        coef = dict(self._coef)
        for p, c in other._coef.items():
            if sign < 0:
                c = -c
            coef[p] = coef[p] + c if p in coef else c
        return ExactLog2(coef)

    @staticmethod
    def _coerce(value) -> "ExactLog2 | None":
        if isinstance(value, ExactLog2):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactLog2.from_rational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._merged(other, +1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._merged(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._merged(self, -1)

    def __neg__(self):
        return ExactLog2({p: -c for p, c in self._coef.items()})

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = Fraction(other)
        if not other:
            return ExactLog2()
        return ExactLog2({p: c * other for p, c in self._coef.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(other))

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._coef == coerced._coef

    def __hash__(self):
        if self.is_rational:
            return hash(self._coef.get(2, Fraction(0)))
        return hash(frozenset(self._coef.items()))

    # -- ordering -----------------------------------------------------------

    def _sign_exact(self) -> int:
        """Sign by comparing the integer powers prod p^(c_p * lcm) to 1."""
        lcm = 1
        for c in self._coef.values():
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        bits = 0.0
        for p, c in self._coef.items():
            bits += abs(float(c * lcm)) * math.log2(p)
        if bits > 5e7:
            raise ValueError(
                "values too close to order by float and too large to order exactly"
            )
        num = den = 1
        for p, c in self._coef.items():
            e = int(c * lcm)
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        if num == den:
            return 0
        return 1 if num > den else -1

    def _sign(self) -> int:
        if not self._coef:
            return 0
        # scaled by the largest |c| so that no coefficient overflows a float
        scale = max(map(abs, self._coef.values()))
        terms = [float(c / scale) * math.log2(p) for p, c in self._coef.items()]
        approx = math.fsum(terms)
        # each term is correct to a few ulps, so this bound is conservative
        err = (len(terms) + 2) * 2.0**-50 * sum(abs(t) for t in terms)
        if abs(approx) > err:
            return 1 if approx > 0 else -1
        return self._sign_exact()

    def _compare(self, other, op) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return op(self._merged(coerced, -1)._sign())

    def __lt__(self, other):
        return self._compare(other, lambda s: s < 0)

    def __le__(self, other):
        return self._compare(other, lambda s: s <= 0)

    def __gt__(self, other):
        return self._compare(other, lambda s: s > 0)

    def __ge__(self, other):
        return self._compare(other, lambda s: s >= 0)

    def __abs__(self):
        return -self if self._sign() < 0 else self


Scalar = Union[int, float, Fraction, ExactLog2]


def parse_rational(text: str) -> Fraction:
    """Parse a rational string such as '3/4', '1', or '0.25' into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def log2_exponents(x: Rational) -> dict[int, int]:
    """The signed prime exponents {p: e_p} of a positive rational x, so that
    log2 x is the sum of e_p * log2(p); a new dict the caller may change."""
    if type(x) not in (int, Fraction):
        x = Fraction(x)
    num, den = x.as_integer_ratio()
    if num <= 0:
        raise ValueError(f"log2 of non-positive rational {x}")
    # numerator and denominator are coprime, so no prime is in both
    exponents = dict(_factorize(num))
    for p, e in _factorize(den).items():
        exponents[p] = -e
    return exponents


def log2_of(x, exact: bool) -> Scalar:
    """log2 of a positive value in the requested numeric mode."""
    if exact:
        return ExactLog2.log2(x)
    return math.log2(x)


def entropy_term(p, exact: bool) -> Scalar:
    """The summand -p*log2(p), with the convention that it vanishes at p = 0."""
    if not p:
        return Fraction(0) if exact else 0.0
    if exact:
        return ExactLog2.log2(p) * -Fraction(p)
    return -(p * math.log2(p))


def entropy_of(masses: Iterable, exact: bool) -> Scalar:
    """Shannon entropy in bits of an iterable of probability masses."""
    if exact:
        return exact_weighted_sum((-p, log2_exponents(p)) for p in masses if p)
    return sum(entropy_term(p, exact) for p in masses)


def kl_term(p, q, exact: bool) -> Scalar:
    """The summand p*log2(p/q); zero when p = 0, +inf when p > 0 and q = 0.

    A float quotient p/q past the float range (inf, 0.0, or a division by
    a Fraction q that rounds to 0.0) gives no logarithm.  The summand is
    then p * (log2 p - log2 q), taken from the exact integer ratios p = a/b
    and q = c/d as log2(a d) - log2(b c), which stays finite.
    """
    if not p:
        return Fraction(0) if exact else 0.0
    if not q:
        return math.inf
    if exact:
        return ExactLog2.log2(Fraction(p) / Fraction(q)) * Fraction(p)
    try:
        term = p * math.log2(p / q)
        if term != math.inf:
            return term
    except (ValueError, ZeroDivisionError):
        pass
    (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
    return p * (math.log2(a * d) - math.log2(b * c))


def kl_of(pairs: Iterable, exact: bool) -> Scalar:
    """Informational divergence in bits from (p, q) mass pairs.

    Returns +inf as soon as some p > 0 faces q = 0; otherwise the exact or
    float sum of the individual terms.
    """
    if exact:
        terms = []
        for p, q in pairs:
            if not p:
                continue
            if not q:
                return math.inf
            terms.append((p, log2_exponents(Fraction(p) / q)))
        return exact_weighted_sum(terms)
    total = 0.0
    for p, q in pairs:
        term = kl_term(p, q, exact)
        if term == math.inf:
            return math.inf
        total = total + term
    return total


def exact_weighted_sum(pairs: Iterable, denominator: int = 1) -> Fraction | ExactLog2:
    """The sum of w * v over (w, v) pairs, divided by ``denominator``, for
    rational w and v a rational, an ExactLog2, or the exponent map of a
    rational (``log2_exponents``), which stands for its log2.

    The terms are folded into one coefficient map, and each prime's total
    is divided by ``denominator`` once; integer weights on exponent maps
    stay plain integers until then.  Returns a Fraction when no v is a
    logarithm (Fraction(0) for no pairs) and an ExactLog2 otherwise, equal
    under ``==`` to the chained sum ``(Fraction(0) + w1 * v1 + w2 * v2 +
    ...) / denominator``.  The inputs are read, never changed or shared.
    Every term must be exact: a sum with a float value is a float sum.
    """
    rational = 0
    coef: dict[int, Rational] = {}
    has_log = False
    for w, v in pairs:
        if isinstance(v, ExactLog2):
            v = v._coef
        if type(v) is dict:
            has_log = True
            for p, c in v.items():
                c = w * c
                coef[p] = coef[p] + c if p in coef else c
        else:
            rational += w * v
    if not has_log:
        return Fraction(rational, denominator)
    coef[2] = coef.get(2, 0) + rational
    return ExactLog2({p: Fraction(c, denominator) for p, c in coef.items()})
