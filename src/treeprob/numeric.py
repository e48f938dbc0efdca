"""Scalar arithmetic shared by all probability-tree modules.

Every computation in the package runs in one of two numeric modes:

* float mode: ordinary 64-bit floats and ``math.log2``, with identities
  checked against relative tolerances;
* exact mode: ``fractions.Fraction`` for probabilities and ``ExactLog2``
  (below) for logarithmic quantities, with identities checked by ``==``.

``ExactLog2`` stores numbers of the form

    x = sum over primes p of  c_p * log2(p),    c_p rational,

as the sparse coefficient map ``{p: c_p}``.  A coefficient is stored as
an ``int`` when it is an integer and as a ``Fraction`` only when it is
not, whichever type it was given in: logarithms of rationals, and folds
over denominator 1 with integer weights, hold plain integers, and equal
values have equal maps, types included.  The family is closed under
addition and under scaling by rationals.  It contains every rational r
(as ``r * log2(2)``) and the base-2 logarithm of every positive rational,
so entropies and informational divergences of rational distributions never
leave it.  By unique factorization the values ``log2(p)`` are linearly
independent over the rationals, which makes the coefficient map a canonical
form: two expressions denote the same real number exactly when their maps
are equal.  No epsilon enters an exact-mode identity check.

Ordering is exact too, and refuses no value.  ``ExactLog2._sign`` takes
the sum of c_p * ln(p) in ``decimal`` at 20, 40, 80, ... digits and
returns the sign of the first sum that lies outside its rounding bound.
Two distinct integer powers differ by at least 1, so a precision that
grows with the coefficients' bit lengths decides every value that is not
0.  The argument needs only pairwise-coprime keys, not primes.

Exact sums are folded, not chained: ``exact_weighted_sum`` adds every
term's coefficients into one ``{prime: coefficient}`` map, divides each
total by a common denominator once and builds a single ``ExactLog2`` at
the end, where ``total = total + term`` would copy the running map on each
addition.  A term's value may be a rational, an ``ExactLog2``, or the
integer exponent map of a rational (``log2_exponents``), which stands for
its log2 without building an ``ExactLog2``.  The fold first gathers the
terms by value (the same object), summing their weights, and expands each
distinct value's coefficients once; a value whose weights cancel is never
expanded.  So a caller that gives one shared value to many terms, as the
exact surprisal functional does to the nodes of one mass, pays for the
value once.  Integer weights on exponent maps keep every coefficient a
plain integer until the one division, which a denominator of 1 skips.
A sum of weighted logarithms of ratios (``log2_weighted_sum``, behind the
leaf folds of exact entropies and divergences and the exact entropy of a
``FiniteDistribution``) first gathers the weights by the integers in the
ratios, so each distinct integer is factored once.
An exact tree keeps integer node masses, Q_v = n_v / D
(``Tree.mass_below``), so the identities module weights its tree sums by
n and passes D as the denominator.  Since the map is canonical, the fold
equals the chained sum under ``==``, in whatever order its terms come.

The fold takes exact terms only.  A pair, two trees or a tree and a
product spec, is exact only when both sides are; otherwise its exact side
is converted once to float, so no sum mixes the two (``identities.one_mode``).
A tree and a caller's node functional are such a pair: an exact tree with
a float value runs as its float tree (``identities.functional_mode``).  A
sum over a tree then runs in the tree's mode: the fold on an exact tree,
and on a float tree the float sum, which keeps its left-to-right ``total +
term`` order, so float results do not depend on any of this.  The mode is
decided there, once per tree or pair, so no scalar helper takes a mode:
``entropy_term`` and ``kl_term`` are float summands, ``entropy_of`` their
float sum, and every exact entropy is a fold (``log2_weighted_sum``).
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "ExactLog2",
    "Scalar",
    "entropy_of",
    "entropy_term",
    "exact_text",
    "exact_weighted_sum",
    "kl_term",
    "log2_exponents",
    "log2_weighted_sum",
    "parse_rational",
]

Rational = Union[int, Fraction]

_factor_cache: dict[int, dict[int, int]] = {}


def _strip_power(m: int, p: int) -> tuple[int, int]:
    """(e, m / p^e) for the largest e with p^e dividing m, in O(log e)
    divisions: the squares p, p^2, p^4, ... that divide m are found, then
    divided out from the largest down, one for each bit of e."""
    squares = [p]
    while m % (squares[-1] * squares[-1]) == 0:
        squares.append(squares[-1] * squares[-1])
    e = 0
    for i in reversed(range(len(squares))):
        quotient, remainder = divmod(m, squares[i])
        if not remainder:
            m, e = quotient, e + (1 << i)
    return e, m


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n <= 0:
        raise ValueError(f"cannot factorize non-positive integer {n}")
    cached = _factor_cache.get(n)
    if cached is not None:
        return cached
    twos = (n & -n).bit_length() - 1  # the trailing zero bits
    factors = {2: twos} if twos else {}
    m = n >> twos
    if m % 3 == 0:
        factors[3], m = _strip_power(m, 3)
    # remaining factors are of the form 6k +- 1
    d = 5
    step = 2
    while d * d <= m:
        if m % d == 0:
            factors[d], m = _strip_power(m, d)
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

    Each coefficient of ``_coef`` is an ``int`` when it is integral and a
    ``Fraction`` with a denominator above 1 otherwise; the constructor
    reduces an integral ``Fraction`` to its numerator and converts any
    other rational once.  A rational value hashes as its ``Fraction``, and
    ``as_fraction`` always returns a ``Fraction``.

    Ordering is exact: ``_sign`` sums the terms in ``decimal`` at rising
    precision until the sum lies outside its rounding bound, which
    decides every value over pairwise-coprime keys.  Package code orders
    these values only to sign one past the float range (``cli``); ordering
    serves tests (nonnegativity asserts) and the benchmark's tracer, which
    wraps the comparisons and ``__abs__`` by name.
    """

    __slots__ = ("_coef",)

    def __init__(self, coef: Mapping[int, Rational] | None = None):
        cleaned = {}
        if coef:
            for p, c in coef.items():
                if type(c) is not int:
                    if type(c) is not Fraction:
                        c = Fraction(c)
                    if c.denominator != 1:
                        cleaned[p] = c  # not integral, so not zero
                        continue
                    c = c.numerator
                if c:
                    cleaned[p] = c
        object.__setattr__(self, "_coef", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactLog2 is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rational) -> "ExactLog2":
        """Embed a rational r as r * log2(2)."""
        return cls({2: value})

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
        return Fraction(self._coef.get(2, 0))

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
            return hash(self._coef.get(2, 0))  # an int hashes as its Fraction
        return hash(frozenset(self._coef.items()))

    # -- ordering -----------------------------------------------------------

    def _sign(self) -> int:
        """The sign of the value: -1, 0 or 1.

        The sum of c_p * ln(p) is taken in ``decimal`` at 20, 40, 80, ...
        significant digits, with the exponent range at its extremes, so no
        coefficient overflows.  ``Decimal.ln`` is correctly rounded, a term
        takes two more roundings and each addition one, so a sum of k terms
        is off by less than (k + 3) * 10^(1 - digits) times the sum of the
        |terms|: the first sum outside that bound has the value's sign.
        With L the lcm of the coefficients' denominators, L times the value
        is the log of a ratio of two integer powers of B bits in all,
        B = sum of |c_p * L| * bitlen(p); two distinct integers differ by at
        least 1, so a value that is not 0 is at least 2^-(B + 1) / B times
        the sum of the |terms|, and once 3 * digits exceeds B + 64 a sum
        inside its bound can only be 0.  Over pairwise-coprime keys, such as
        primes, a non-empty map is never 0, so the loop always returns a
        sign before that; only keys that share a factor can reach the 0.
        """
        coef = self._coef
        lcm = math.lcm(*(c.denominator for c in coef.values()))
        bits = sum(
            abs(c.numerator) * (lcm // c.denominator) * p.bit_length() for p, c in coef.items()
        )
        digits = 20
        while True:
            with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
                terms = [c.numerator * Decimal(p).ln() / c.denominator for p, c in coef.items()]
                total = sum(terms)
                bound = Decimal(len(terms) + 3).scaleb(1 - digits) * sum(map(abs, terms))
                if abs(total) > bound:
                    return 1 if total > 0 else -1
            if 3 * digits > bits + 64:
                return 0
            digits *= 2

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


# 10**4299 has 4300 digits, the interpreter's default limit on int-string
# conversion: a value with a larger power of ten could not be printed back
MAX_DECIMAL_EXPONENT = 4299


def parse_rational(text: str) -> Fraction:
    """Parse a rational string such as '3/4', '1', '0.25' or '1e-3' into a
    Fraction; ValueError for any other text, and for a decimal exponent
    beyond MAX_DECIMAL_EXPONENT in size, which is refused before the power
    of ten is computed.

    The grammar is ``Fraction``'s on Python 3.10 on every version: an
    underscore or whitespace inside the text, which ``Fraction`` accepts
    from 3.11 or 3.12 on, is refused."""
    stripped = text.strip()
    num, _, den = stripped.partition("/")
    try:
        if num.isdigit() and den.isdigit() and stripped.isascii() and int(den):
            return Fraction(int(num), int(den))  # Fraction(text) at half the cost
        if "_" in stripped or len(stripped.split()) > 1:
            raise ValueError("underscore or inner whitespace")
        if abs(int(stripped.lower().partition("e")[2] or 0)) > MAX_DECIMAL_EXPONENT:
            raise ValueError("decimal exponent out of range")
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def exact_text(value) -> str:
    """str(value), or, for a rational with a numerator or denominator too
    long to print under the interpreter's int-string limit (4300 digits by
    default; interpreters without the limit print any int), its value
    rounded to a float and the bit lengths of both parts."""
    try:
        return str(value)
    except ValueError:
        pass
    num, den = value.as_integer_ratio()
    try:
        approx = repr(num / den)
    except OverflowError:
        approx = "-inf" if num < 0 else "inf"
    bits = num.bit_length(), den.bit_length()
    return f"about {approx} ({bits[0]}-bit numerator, {bits[1]}-bit denominator)"


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


def entropy_term(p) -> float:
    """The float summand -p*log2(p), with the convention that it vanishes
    at p = 0.

    The summand of a positive Fraction p whose float is 0.0, a mass that a
    float spec keeps exact, is 0.0: the float of the true summand.
    """
    if not p:
        return 0.0
    try:
        return -(p * math.log2(p))
    except ValueError:  # math.log2 of a Fraction reads its float, 0.0
        return 0.0


def _chained(terms: Iterable[float]) -> float:
    """The float sum of ``terms`` added left to right from 0.0, as
    ``total = total + term``; builtin ``sum`` compensates float sums from
    Python 3.12, so its bits depend on the Python version."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def entropy_of(masses: Iterable) -> float:
    """Shannon entropy in bits of an iterable of probability masses, as the
    float ``entropy_term`` summands chained left to right."""
    return _chained(map(entropy_term, masses))


def kl_term(p, q) -> float:
    """The float summand p*log2(p/q); zero when p = 0, +inf when p > 0 and
    q = 0.

    A float quotient p/q past the float range (inf, 0.0, or a division by
    a Fraction q that rounds to 0.0) gives no logarithm.  The summand is
    then p * (log2 p - log2 q), taken from the exact integer ratios p = a/b
    and q = c/d as log2(a d) - log2(b c), which stays finite.
    """
    if not p:
        return 0.0
    if not q:
        return math.inf
    try:
        term = p * math.log2(p / q)
        if term != math.inf:
            return term
    except (ValueError, ZeroDivisionError):
        pass
    (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
    return p * (math.log2(a * d) - math.log2(b * c))


def log2_weighted_sum(
    terms: Iterable[tuple[int, int, int]], denominator: int = 1
) -> Fraction | ExactLog2:
    """The sum of w * log2(a / b) over (w, a, b) triples of integers, with
    a and b positive, divided by ``denominator``.

    log2(a / b) is log2 a - log2 b, so the weights gather in one map keyed
    by the integers a and b, and each distinct integer is factored once,
    however many terms share it.  The result is the ``exact_weighted_sum``
    of the terms' exponent maps.  An integer whose weights cancel keeps its
    term, so a sum that cancels is an empty ExactLog2; only no terms give
    Fraction(0).
    """
    weights: dict[int, int] = {}
    for w, a, b in terms:
        weights[a] = weights.get(a, 0) + w
        weights[b] = weights.get(b, 0) - w
    pairs = [(w, log2_exponents(k)) for k, w in weights.items()]
    return exact_weighted_sum(pairs, denominator)


def exact_weighted_sum(pairs: Iterable, denominator: int = 1) -> Fraction | ExactLog2:
    """The sum of w * v over (w, v) pairs, divided by ``denominator``, for
    rational w and v a rational, an ExactLog2, or the exponent map of a
    rational (``log2_exponents``), which stands for its log2.

    The weights are first summed per value, by object identity, so a value
    shared by many terms is expanded once, with its summed weight, and a
    value whose weights cancel is never expanded.  The expanded terms are
    folded into one coefficient map, and each prime's total is divided by
    ``denominator`` once; integer weights on exponent maps stay plain
    integers until then, and over denominator 1 they are the result's
    coefficients.  Returns a Fraction when no v is a logarithm
    (Fraction(0) for no pairs) and an ExactLog2 otherwise, also when every
    logarithm's weights cancel, equal under ``==`` to the chained sum
    ``(Fraction(0) + w1 * v1 + w2 * v2 + ...) / denominator``.  The inputs
    are read, never changed or shared.  Every term must be exact: a sum
    with a float value is a float sum.
    """
    # id(v): [summed weight, v]; holding each v keeps the ids unique
    gathered: dict[int, list] = {}
    for w, v in pairs:
        gathered.setdefault(id(v), [0, v])[0] += w
    rational = 0
    coef: dict[int, Rational] = {}
    has_log = False
    for w, v in gathered.values():
        if isinstance(v, ExactLog2):
            v = v._coef
        if type(v) is dict:
            has_log = True
            if w:
                w = w.numerator if w.denominator == 1 else w
                for p, c in v.items():
                    c = w * c
                    coef[p] = coef[p] + c if p in coef else c
        else:
            rational += w * v
    if not has_log:
        return Fraction(rational, denominator)
    coef[2] = coef.get(2, 0) + rational
    if denominator != 1:
        coef = {p: Fraction(c, denominator) for p, c in coef.items()}
    return ExactLog2(coef)
