import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GRAMMAR_EXTENSIONS
from corpus import (
    corpus_tree,
    exact_entropy_of,
    exact_entropy_term,
    exact_kl_term,
    exact_signature,
    float_functional,
    float_mirror,
    informative_tree,
    kl_of,
    power_sign,
    random_distribution,
    remass,
    star_report,
)
from treeprob import (
    FiniteDistribution,
    ProductSpec,
    build_tree,
    grow_matcher_tree,
    lansit_check,
    path_lengths,
    tree_divergence,
    tree_pinsker_report,
)
from treeprob import cli
from treeprob.approximation import product_branch_divergence
from treeprob.generators import convergence_sweep
from treeprob.identities import leaf_entropy, surprisal_functional
from treeprob.numeric import (
    ExactLog2,
    _factorize,
    entropy_of,
    entropy_term,
    exact_text,
    exact_weighted_sum,
    kl_term,
    log2_exponents,
    log2_weighted_sum,
    parse_rational,
)

# bounded values keep trial-division factorization fast
positive_rationals = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000
)
rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)
# small enough that the integer powers of power_sign stay cheap
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])
small_coefficients = st.fractions(min_value=-12, max_value=12, max_denominator=6)
# log2(3) to 40 significant digits
LOG2_3 = Fraction("1.584962500721156181453738943947816508760")


class TestExactLog2:
    def test_log_of_power_of_two_is_rational(self):
        assert ExactLog2.log2(Fraction(4)) == 2
        assert ExactLog2.log2(Fraction(1, 8)) == -3
        assert ExactLog2.log2(Fraction(1)) == 0

    def test_multiplicativity_canonical(self):
        # log2(6) has one canonical form regardless of how it is assembled
        direct = ExactLog2.log2(Fraction(6))
        assembled = ExactLog2.log2(Fraction(2)) + ExactLog2.log2(Fraction(3))
        assert direct == assembled

    def test_irrational_never_equals_rational(self):
        # 2^(19/12) is close to 3 but not equal; exact form must notice
        assert ExactLog2.log2(Fraction(3)) != Fraction(19, 12)

    @settings(deadline=None)
    @given(positive_rationals, positive_rationals)
    def test_log_of_product(self, a, b):
        assert ExactLog2.log2(a * b) == ExactLog2.log2(a) + ExactLog2.log2(b)

    @settings(deadline=None)
    @given(positive_rationals, positive_rationals)
    def test_log_of_quotient(self, a, b):
        assert ExactLog2.log2(a / b) == ExactLog2.log2(a) - ExactLog2.log2(b)

    @given(rationals)
    def test_rational_embedding_round_trip(self, r):
        x = ExactLog2.from_rational(r)
        assert x.is_rational
        assert x.as_fraction() == r
        assert x == r

    @given(positive_rationals)
    def test_float_matches_math_log2(self, a):
        assert float(ExactLog2.log2(a)) == pytest.approx(math.log2(a), rel=1e-12)

    def test_scaling_and_negation(self):
        x = ExactLog2.log2(Fraction(3))
        assert x * 2 - x == x
        assert -x + x == 0
        assert x / 3 * 3 == x
        assert (x * Fraction(2, 5)) * Fraction(5, 2) == x

    def test_mixed_arithmetic_with_rationals(self):
        x = ExactLog2.log2(Fraction(3, 4))
        assert x + 2 == ExactLog2.log2(Fraction(3))
        assert 2 + x == x + 2
        assert 2 - x == -(x - 2)

    def test_float_multiplication_unsupported(self):
        with pytest.raises(TypeError):
            ExactLog2.log2(Fraction(3)) * 0.5

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x + 0.5,
            lambda x: 0.5 + x,
            lambda x: x - 0.5,
            lambda x: 0.5 - x,
            lambda x: x / 0.5,
        ],
        ids=["add", "radd", "sub", "rsub", "truediv"],
    )
    def test_float_operand_unsupported(self, op):
        with pytest.raises(TypeError):
            op(ExactLog2.log2(Fraction(3)))

    def test_never_equals_a_float(self):
        assert ExactLog2.from_rational(Fraction(1, 2)) != 0.5
        assert not ExactLog2.from_rational(Fraction(1, 2)) == 0.5

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExactLog2.log2(Fraction(0))
        with pytest.raises(ValueError):
            ExactLog2.log2(Fraction(-2))

    def test_as_fraction_rejects_irrational(self):
        with pytest.raises(ValueError):
            ExactLog2.log2(Fraction(3)).as_fraction()

    def test_truthiness(self):
        assert not ExactLog2()
        assert ExactLog2.log2(Fraction(5))

    def test_hash_agrees_with_rational_equality(self):
        assert hash(ExactLog2.from_rational(Fraction(7, 2))) == hash(Fraction(7, 2))

    def test_hash_agrees_with_irrational_equality(self):
        direct = ExactLog2.log2(Fraction(6))
        assembled = ExactLog2.log2(Fraction(2)) + ExactLog2.log2(Fraction(3))
        assert not direct.is_rational
        assert hash(direct) == hash(assembled)
        assert len({direct, assembled}) == 1

    def test_immutable(self):
        x = ExactLog2.log2(Fraction(3))
        with pytest.raises(AttributeError):
            x._coef = {}


class TestIntegerCoefficients:
    """An integral coefficient is stored as an ``int`` and a non-integral
    one as a ``Fraction``, whichever type it was given in, so values built
    either way compare, hash, convert and print alike."""

    @staticmethod
    def types(value):
        return {p: type(c) for p, c in value._coef.items()}

    def test_log2_holds_ints(self):
        assert self.types(ExactLog2.log2(Fraction(3, 8))) == {2: int, 3: int}
        assert self.types(ExactLog2.log2(Fraction(5, 9)) * -2) == {5: int, 3: int}

    def test_integer_fold_over_denominator_one_holds_ints(self):
        log3 = ExactLog2.log2(3)
        folded = exact_weighted_sum([(3, {2: 2, 3: 1}), (Fraction(-2), log3), (1, Fraction(4))])
        assert folded._coef == {2: 10, 3: 1}
        assert self.types(folded) == {2: int, 3: int}

    def test_fold_over_a_denominator_holds_ints_where_integral(self):
        folded = exact_weighted_sum([(6, {3: 1, 5: 1}), (1, {5: 1})], 3)
        assert folded._coef == {3: 2, 5: Fraction(7, 3)}
        assert self.types(folded) == {3: int, 5: Fraction}

    def test_integral_fraction_is_stored_as_int(self):
        from_fraction, from_int = ExactLog2({2: Fraction(6, 2)}), ExactLog2({2: 3})
        assert from_fraction == from_int
        assert hash(from_fraction) == hash(from_int)
        assert self.types(from_fraction) == {2: int}
        irrational = ExactLog2({3: Fraction(4, 2), 5: Fraction(1, 2)})
        assert irrational == ExactLog2({3: 2, 5: Fraction(1, 2)})
        assert hash(irrational) == hash(ExactLog2({3: 2, 5: Fraction(1, 2)}))
        assert self.types(irrational) == {3: int, 5: Fraction}

    def test_sums_and_products_stay_canonical(self):
        half = ExactLog2({3: Fraction(1, 2)})
        assert self.types(half + half) == {3: int}
        assert self.types(half * 4) == {3: int}
        assert self.types(ExactLog2.log2(3) / 2) == {3: Fraction}
        assert self.types(ExactLog2.log2(3) * Fraction(4, 2)) == {3: int}

    def test_rational_hash_is_the_fraction_hash(self):
        assert hash(ExactLog2.from_rational(3)) == hash(Fraction(3))
        assert hash(ExactLog2.from_rational(Fraction(-8, 2))) == hash(Fraction(-4))
        assert hash(ExactLog2()) == hash(Fraction(0))

    @pytest.mark.parametrize(
        "value",
        [ExactLog2(), ExactLog2.from_rational(3), ExactLog2.log2(8),
         ExactLog2.from_rational(Fraction(1, 2)), ExactLog2({2: Fraction(-6, 3)})],
    )
    def test_as_fraction_is_always_a_fraction(self, value):
        assert type(value.as_fraction()) is Fraction
        assert value.as_fraction() == value

    def test_exact_string_of_an_integral_result(self):
        for value, text in ((ExactLog2.log2(8), "3"), (ExactLog2.log2(Fraction(1, 4)), "-2"),
                            (ExactLog2.from_rational(Fraction(6, 2)), "3"), (ExactLog2(), "0")):
            assert cli._exact_string(value) == text == str(Fraction(value.as_fraction()))

    def test_float_and_sign_read_both_types(self):
        mixed = ExactLog2({3: 10**20 + 1, 5: Fraction(-7, 3)})
        expected = math.fsum(float(Fraction(c)) * math.log2(p) for p, c in mixed._coef.items())
        assert float(mixed).hex() == expected.hex()
        # 3^12 = 531441 > 524288 = 2^19, with integer coefficients
        diff = ExactLog2.log2(3) * 12 - 19
        assert self.types(diff) == {2: int, 3: int}
        assert diff._sign() == 1 and diff > 0 and -diff < 0


class TestOrdering:
    def test_against_rationals(self):
        log2_3 = ExactLog2.log2(3)
        assert log2_3 > Fraction(3, 2)
        assert log2_3 < Fraction(8, 5)
        assert Fraction(19, 12) < log2_3
        assert log2_3 >= log2_3
        assert not log2_3 > log2_3

    def test_near_tie_falls_back_to_exact(self):
        # 3^12 = 531441 > 524288 = 2^19, so log2(3) exceeds 19/12
        diff = ExactLog2.log2(3) - Fraction(19, 12)
        assert diff._sign() == 1 == power_sign(diff)
        assert (-diff)._sign() == -1 == power_sign(-diff)
        assert ExactLog2()._sign() == 0

    def test_near_tie_too_large_to_order_exactly(self):
        # the float of log2(3) lies within float error of it, and its
        # denominator 2^49 makes the integer powers far too large to build
        below = Fraction(math.log2(3))
        assert below < LOG2_3 - Fraction(1, 10**39)
        assert ExactLog2.log2(3) > below
        assert not ExactLog2.log2(3) <= below
        assert (below - ExactLog2.log2(3))._sign() == -1

    @pytest.mark.parametrize("offset, sign", [(0, 1), (1, -1)])
    def test_gap_below_twenty_digits(self, offset, sign):
        # log2(3) - r for r a 30-decimal rounding of it: a gap of about
        # 5e-31 that a 20-digit sum cannot resolve
        r = Fraction(math.floor(LOG2_3 * 10**30) + offset, 10**30)
        assert 0 < abs(LOG2_3 - r) < Fraction(1, 10**30)
        assert (LOG2_3 - r > 0) == (sign > 0)
        diff = ExactLog2.log2(3) - r
        assert diff._sign() == sign
        assert (-diff)._sign() == -sign
        assert (ExactLog2.log2(3) > r) == (sign > 0)

    def test_denominator_two_to_the_sixty(self):
        c = Fraction(round(LOG2_3 * 2**60), 2**60)
        assert abs(LOG2_3 - c) > Fraction(1, 10**30)
        start = time.perf_counter()
        diff = ExactLog2({3: 1, 2: -c})
        assert diff._sign() == (1 if LOG2_3 > c else -1)
        assert (ExactLog2.log2(3) < c) == (LOG2_3 < c)
        assert time.perf_counter() - start < 1.0

    def test_coprime_composite_base(self):
        # 6 < 35, and 6^2 = 36 > 35
        for coef, sign in (({6: 1, 35: -1}, -1), ({6: 2, 35: -1}, 1),
                           ({6: Fraction(1, 2), 35: Fraction(-1, 4)}, 1)):
            value = ExactLog2(coef)
            assert value._sign() == sign == power_sign(value)
            assert (-value)._sign() == -sign

    def test_shared_factors_can_sum_to_zero(self):
        # log2 6 - log2 2 - log2 3 is 0, though the map is not empty
        assert ExactLog2({6: 1, 2: -1, 3: -1})._sign() == 0
        assert ExactLog2({4: Fraction(3, 2), 2: -3})._sign() == 0
        assert ExactLog2({6: 1, 2: -1, 3: -1}) >= 0

    @given(st.dictionaries(small_primes, small_coefficients, max_size=4))
    def test_sign_matches_integer_powers(self, coef):
        value = ExactLog2(coef)
        assert value._sign() == power_sign(value)

    @given(small_primes, small_coefficients, st.integers(1, 200))
    def test_sign_matches_integer_powers_near_ties(self, p, c, den):
        # c log2(p) - r for r the closest fraction of denominator at most
        # den, and the closest of denominator den
        x = c * math.log2(p)
        for r in (Fraction(x).limit_denominator(den), Fraction(round(x * den), den)):
            value = ExactLog2.log2(p) * c - r
            assert value._sign() == power_sign(value)

    def test_coefficient_past_the_float_range(self):
        big = ExactLog2({3: Fraction(10**400)})
        assert big > 0
        assert -big < 0
        assert cli._json_value(big) == "inf"
        assert cli._json_value(-big) == "-inf"

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            ExactLog2.log2(3) < "x"

    def test_abs(self):
        x = ExactLog2.log2(Fraction(2, 3))
        assert abs(x) == -x
        assert abs(-x) == -x
        assert abs(ExactLog2()) == ExactLog2()

    @given(
        st.fractions(min_value=Fraction(1, 500), max_value=500, max_denominator=500),
        st.fractions(min_value=Fraction(1, 500), max_value=500, max_denominator=500),
    )
    def test_order_matches_fraction_order(self, a, b):
        assert (ExactLog2.from_rational(a) < ExactLog2.from_rational(b)) == (a < b)
        assert (ExactLog2.log2(a) <= ExactLog2.log2(b)) == (a <= b)


class TestModeHelpers:
    def test_surprisal_in_both_modes(self):
        # -log2 Q: exactly log2(D / n), with integer coefficients, and in
        # float the bits of -1 * log2(Q), -0.0 at the root included
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: Fraction(1, 4), 2: Fraction(3, 4)})
        f = surprisal_functional(tree)
        assert f == {0: 0, 1: 2, 2: 2 - ExactLog2.log2(3)}
        assert {v: exact_signature(x) for v, x in f.items()} == {
            0: (ExactLog2, {}),
            1: (ExactLog2, {2: (int, 2)}),
            2: (ExactLog2, {2: (int, 2), 3: (int, -1)}),
        }
        g = surprisal_functional(tree.as_float())
        assert [g[v].hex() for v in (0, 1, 2)] == [
            (-1 * math.log2(q)).hex() for q in (1.0, 0.25, 0.75)
        ]
        assert g[0].hex() == "-0x0.0p+0"

    def test_log2_exponents_of_a_float(self):
        assert log2_exponents(0.25) == {2: -2}

    def test_entropy_term_zero_convention(self):
        assert exact_entropy_term(Fraction(0)) == 0
        assert entropy_term(0.0) == 0.0

    def test_entropy_of_uniform(self):
        assert exact_entropy_of([Fraction(1, 4)] * 4) == 2
        assert FiniteDistribution(dict.fromkeys(range(4), Fraction(1, 4))).entropy() == 2
        assert entropy_of([0.25] * 4) == pytest.approx(2.0)

    def test_kl_term_conventions(self):
        assert exact_kl_term(Fraction(0), Fraction(0)) == 0
        assert exact_kl_term(Fraction(1, 2), Fraction(0)) == math.inf
        assert kl_term(0.0, 0.5) == 0.0

    @pytest.mark.parametrize(
        "p, q",
        [
            (0.5, 1e-320),  # p / q overflows to inf
            (5e-324, 4.0),  # p / q underflows to 0.0
            (0.5, Fraction(1, 10**400)),  # float(q) is 0.0
        ],
    )
    def test_kl_term_past_the_float_range(self, p, q):
        log_q = math.log2(q) if isinstance(q, float) else -400 * math.log2(10)
        assert kl_term(p, q) == pytest.approx(
            p * (math.log2(p) - log_q), rel=1e-12
        )

    def test_kl_of_short_circuits_on_infinity(self):
        pairs = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))]
        assert kl_of(pairs, exact=True) == math.inf
        # the package: the star of p against a reference that lacks its
        # second label (the pair's q does not sum to 1, so a q of the same
        # zero stands in)
        p = FiniteDistribution({0: Fraction(1, 2), 1: Fraction(1, 2)})
        q = FiniteDistribution({0: Fraction(1), 1: Fraction(0)})
        assert kl_of(zip(p.mass.values(), q.mass.values()), exact=True) == math.inf
        assert star_report(p, q).divergence == math.inf

    def test_kl_of_identical_is_zero(self):
        pairs = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(2, 3))]
        assert kl_of(pairs, exact=True) == 0
        assert star_kl_signature(pairs) == exact_signature(kl_of(pairs, exact=True))

    def test_kl_of_skips_zero_p(self):
        pairs = [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]
        assert kl_of(pairs, exact=True) == 1
        assert star_kl_signature(pairs) == exact_signature(kl_of(pairs, exact=True))

    def test_float_kl_of_is_infinite_at_zero_q(self):
        pairs = [(0.5, 1.0), (0.5, 0.0)]
        assert kl_of(pairs, exact=False) == math.inf
        assert star_kl_signature(pairs) == (float, math.inf)


def star_kl_signature(pairs):
    """The ``exact_signature`` of the package's D(p || q) for (p, q) mass
    pairs that form two distributions: the D of the tree Pinsker report on
    p's star tree (``corpus.star_report``), or None when the package has no
    form of the pair."""
    exact = all(isinstance(m, Fraction) for pair in pairs for m in pair)
    p, q = (FiniteDistribution(dict(enumerate(side)), exact=exact) for side in zip(*pairs))
    report = star_report(p, q)
    return None if report is None else exact_signature(report.divergence)


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", Fraction(3, 4)), (" 1 ", Fraction(1)), ("0.25", Fraction(1, 4)),
     ("-2/6", Fraction(-1, 3))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1/0", "1/2/3", *GRAMMAR_EXTENSIONS])
def test_parse_rational_rejects_garbage(text):
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == f"not a rational number: {text!r}"


@pytest.mark.parametrize(
    "text",
    ["1e-300", "0.25", "3/4", "03/4", "3/04", "0/7", " 12/18 ", "-1/3", "+3/6",
     "2.5e3", "1E-4299", "\u0663/\u0664"],
)
def test_parse_rational_is_the_fraction_of_the_text(text):
    value = parse_rational(text)
    assert type(value) is Fraction
    assert value == Fraction(text.strip())


@pytest.mark.parametrize("text", ["1e-10000000", "1e10000000", "1e-4300", "1E+4300"])
def test_parse_rational_rejects_unbounded_exponents(text):
    # 10**|e| past the default 4300-digit int-string limit could not be
    # printed back, and 10**10000000 alone takes seconds to compute
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a rational number"):
        parse_rational(text)
    assert time.perf_counter() - start < 1.0


# a summand value: a rational or the exact log2 of a positive rational
log_values = st.one_of(
    rationals, positive_rationals.map(ExactLog2.log2), rationals.map(ExactLog2.from_rational)
)


class TestExactWeightedSum:
    @settings(deadline=None)
    @given(st.lists(st.tuples(rationals, log_values), max_size=12))
    def test_equals_the_chained_sum(self, pairs):
        snapshots = [dict(v._coef) for _, v in pairs if isinstance(v, ExactLog2)]
        chained = Fraction(0)
        for w, v in pairs:
            chained = chained + w * v
        folded = exact_weighted_sum(pairs)
        assert folded == chained
        assert type(folded) is type(chained)
        all_rational = all(isinstance(v, Fraction) for _, v in pairs)
        assert isinstance(folded, Fraction) == all_rational
        # the inputs' coefficient maps are neither changed nor shared
        logs = [v for _, v in pairs if isinstance(v, ExactLog2)]
        assert [dict(v._coef) for v in logs] == snapshots
        if isinstance(folded, ExactLog2):
            assert all(folded._coef is not v._coef for v in logs)

    def test_empty_is_a_fraction_zero(self):
        assert type(exact_weighted_sum([])) is Fraction
        assert exact_weighted_sum([]) == 0
        assert exact_signature(exact_weighted_sum([], 7)) == (Fraction, 0)

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-1000, 1000), rationals),
                st.one_of(log_values, positive_rationals.map(log2_exponents)),
            ),
            max_size=12,
        ),
        st.integers(1, 10**6),
    )
    def test_exponent_maps_over_a_denominator(self, pairs, denominator):
        # an exponent map stands for the log2 of its rational
        snapshots = [dict(v) for _, v in pairs if isinstance(v, dict)]
        chained = Fraction(0)
        for w, v in pairs:
            chained = chained + w * (ExactLog2(v) if isinstance(v, dict) else v)
        folded = exact_weighted_sum(pairs, denominator)
        assert exact_signature(folded) == exact_signature(chained / denominator)
        assert [dict(v) for _, v in pairs if isinstance(v, dict)] == snapshots

    def test_integer_exponents_over_a_denominator(self):
        # 3 log2(12) - 2 log2(3), over 6: (6 + 3 log2 3 - 2 log2 3) / 6
        folded = exact_weighted_sum([(3, {2: 2, 3: 1}), (-2, {3: 1})], 6)
        assert exact_signature(folded) == exact_signature(
            ExactLog2({2: Fraction(1), 3: Fraction(1, 6)})
        )

    @staticmethod
    def chained(pairs, denominator=1):
        total = Fraction(0)
        for w, v in pairs:
            total = total + w * (ExactLog2(v) if isinstance(v, dict) else v)
        return total / denominator

    @settings(deadline=None)
    @given(
        st.lists(st.one_of(log_values, positive_rationals.map(log2_exponents)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 3)), max_size=30),
        st.integers(1, 1000),
    )
    def test_values_shared_by_many_terms(self, pool, picks, denominator):
        # the terms reuse a few value objects, which the fold gathers by identity
        pairs = [(w, pool[i % len(pool)]) for w, i in picks]
        folded = exact_weighted_sum(pairs, denominator)
        assert exact_signature(folded) == exact_signature(self.chained(pairs, denominator))

    def test_one_value_repeated(self):
        v = ExactLog2.log2(Fraction(3, 10))
        pairs = [(w, v) for w in range(-5, 40)] + [(2, Fraction(1, 3))] * 3
        folded = exact_weighted_sum(pairs, 7)
        assert exact_signature(folded) == exact_signature(self.chained(pairs, 7))
        assert folded == v * Fraction(765, 7) + Fraction(2, 7)

    def test_weights_that_cancel(self):
        v, u = ExactLog2.log2(Fraction(5, 6)), log2_exponents(Fraction(7, 3))
        for pairs in (
            [(3, v), (-1, v), (-2, v)],
            [(1, u), (Fraction(1, 2), v), (-1, u), (Fraction(-1, 2), v)],
            [(1, v), (2, Fraction(1, 3)), (-1, v)],
            [(4, v), (1, u), (-4, v)],
        ):
            folded = exact_weighted_sum(pairs)
            assert type(folded) is ExactLog2
            assert folded == self.chained(pairs)
            assert exact_signature(folded) == exact_signature(self.chained(pairs))
        assert exact_signature(exact_weighted_sum([(3, v), (-3, v)], 5)) == (ExactLog2, {})

    def test_fraction_weights(self):
        v, u = ExactLog2.log2(Fraction(9, 20)), log2_exponents(Fraction(11, 4))
        pairs = [(Fraction(1, 3), v), (Fraction(2, 3), u), (Fraction(5, 6), v), (Fraction(-7, 2), u)]
        pairs.append((Fraction(4, 5), Fraction(3, 7)))
        folded = exact_weighted_sum(pairs, 12)
        assert exact_signature(folded) == exact_signature(self.chained(pairs, 12))

    def test_inputs_are_left_unchanged(self):
        v, u = ExactLog2.log2(Fraction(15, 4)), log2_exponents(Fraction(14, 9))
        pairs = [(2, v), (3, u), (-2, v), (1, u), (1, v), (Fraction(1, 2), Fraction(1, 3))]
        before = [(w, dict(x._coef) if isinstance(x, ExactLog2) else x) for w, x in pairs]
        snapshot = list(pairs)
        folded = exact_weighted_sum(iter(pairs), 3)
        assert pairs == snapshot
        assert [(w, dict(x._coef) if isinstance(x, ExactLog2) else x) for w, x in pairs] == before
        assert all(x is y for (_, x), (_, y) in zip(pairs, snapshot))
        assert folded._coef is not v._coef and folded._coef is not u
        assert exact_weighted_sum([(1, v)])._coef is not v._coef



class TestExactKlOf:
    """Exact ``kl_of`` passes each pair's logarithms log2(a/b) and log2(d/c),
    for p = a/b and q = c/d, as two terms of one fold.  The oracle is the
    former form, which reduced the ratio (a*d)/(b*c) by its gcd first.
    Where the pairs form two distributions that the package can take, its
    D on p's star tree (``star_kl_signature``) must equal both, coefficient
    types included; the pinned pairs that do not form two distributions
    (no pairs, and p = 0) are oracle self-checks."""

    @staticmethod
    def reduced_ratio_kl_of(pairs):
        ratios = []
        for p, q in pairs:
            if not p:
                continue
            if not q:
                return math.inf
            (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
            g = math.gcd(a * d, b * c)
            ratios.append((a, b, a * d // g, b * c // g))
        lcm = math.lcm(*(b for _, b, _, _ in ratios))
        return log2_weighted_sum(((a * (lcm // b), x, y) for a, b, x, y in ratios), lcm)

    @staticmethod
    def masses(rng, k):
        """k masses summing to 1, some of them 0."""
        weights = [rng.randint(0, 12) for _ in range(k)]
        weights[rng.randrange(k)] += 1
        return [Fraction(w, sum(weights)) for w in weights]

    def test_equals_the_reduced_ratio_form(self):
        rng = random.Random(2024)
        kinds, compared = set(), set()
        for case in range(3000):
            k = rng.randint(1, 5)
            p = self.masses(rng, k)
            q = p if case % 5 == 0 else self.masses(rng, k)
            pairs = list(zip(p, q))
            folded = kl_of(iter(pairs), exact=True)
            assert exact_signature(folded) == exact_signature(
                self.reduced_ratio_kl_of(pairs)
            ), pairs
            kind = "inf" if folded == math.inf else "zero" if folded == 0 else "positive"
            kinds.add(kind)
            package = star_kl_signature(pairs)
            if package is not None:
                assert package == exact_signature(folded), pairs
                compared.add(kind)
        assert kinds == compared == {"inf", "zero", "positive"}

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(Fraction(0), Fraction(1))],
            [(Fraction(1), Fraction(1))],
            [(Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2))],
            [(Fraction(3, 4), Fraction(3, 8)), (Fraction(1, 4), Fraction(5, 8))],
        ],
        ids=["empty", "zero-p", "one-label", "thirds", "non-dyadic"],
    )
    def test_pinned_pairs(self, pairs):
        assert exact_signature(kl_of(pairs, exact=True)) == exact_signature(
            self.reduced_ratio_kl_of(pairs)
        )
        if pairs and sum(p for p, _ in pairs) == 1:
            assert star_kl_signature(pairs) == exact_signature(kl_of(pairs, exact=True))


class TestFactorize:
    def test_exponents_and_key_order(self):
        n = 2**5 * 3**4 * 5**3 * 7**2 * 10007**9 * 1000003
        assert list(_factorize(n).items()) == [
            (2, 5), (3, 4), (5, 3), (7, 2), (10007, 9), (1000003, 1)
        ]
        assert list(_factorize(3**7 * 2).items()) == [(2, 1), (3, 7)]
        assert _factorize(1) == {}
        with pytest.raises(ValueError, match="non-positive"):
            _factorize(0)

    def test_full_power_in_logarithmically_many_divisions(self):
        # one division per prime factor would take seconds here: the cost
        # grows with the exponent squared
        start = time.perf_counter()
        factors = _factorize(2**40000 * 3**40001 * 5**3000)
        assert time.perf_counter() - start < 0.5
        assert list(factors.items()) == [(2, 40000), (3, 40001), (5, 3000)]


class TestMixedModeSums:
    """Library calls that mix an exact tree with a float tree, a float spec
    or a float functional, pinned as float hex, so a change of summation
    mode or order shows.  A pair that is not both exact runs as its float
    pair, converted once, and an exact tree with a float functional as its
    float tree, so each such call (marked mixed) gives, bit for bit, the
    same call with P's float tree in place of P; where ``TestFloatSums``
    makes that call, these are its pins."""

    P = corpus_tree(9)
    P_FLOAT = float_mirror(P)
    Q = float_mirror(remass(P, 9))
    LABELS = P.label_alphabet
    FLOAT_SPEC = ProductSpec(
        FiniteDistribution(random_distribution(LABELS, 11, exact=False), exact=False)
    )
    BARE = build_tree([], {0: 1.0}, exact=False)

    @staticmethod
    def pinsker(p, reference):
        report = tree_pinsker_report(p, reference)
        return [report.divergence, report.mean_distance, report.mean_sq_distance,
                *report.tail.values()]

    @pytest.mark.parametrize(
        "compute, pinned, mixed",
        [
            (lambda c, p: tree_divergence(p, c.Q), ["0x1.fa3db4e604dabp-2"], True),
            (lambda c, p: tree_divergence(c.Q, p), ["0x1.5fb5e30a500a8p-2"], True),
            (
                lambda c, p: c.pinsker(p, c.Q),
                ["0x1.fa3db4e604dabp-2", "0x1.4a21ef9bc29f9p-2", "0x1.74005256c1088p-3",
                 "0x1.5e0d30fffa284p-1", "0x1.5e0d30fffa284p-1", "0x1.a391a160be9d0p-4",
                 "0x0.0p+0"],
                True,
            ),
            # every distance to a bare root is 1.0, although p's float branch
            # masses need not sum to exactly 1
            (
                lambda c, p: c.pinsker(p, c.BARE),
                ["inf"] + ["0x1.0000000000000p+0"] * 6,
                True,
            ),
            (
                lambda c, p: product_branch_divergence(p, c.FLOAT_SPEC),
                ["0x1.9681ff861c279p+1"],
                True,
            ),
            (
                lambda c, p: c.pinsker(p, c.FLOAT_SPEC),
                ["0x1.9681ff861c279p+1", "0x1.d4fe37ee6694ep-1", "0x1.f404fb44f4b3cp-1",
                 "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.d04d0c7be16afp-1",
                 "0x1.43e59e000baf6p-2"],
                True,
            ),
            # a float functional runs an exact tree as its float tree
            (
                lambda c, p: lansit_check(p, float_functional(p, 6)).node_side,
                ["-0x1.e818e5148955cp-2"],
                True,
            ),
        ],
        ids=[
            "divergence-exact-float",
            "divergence-float-exact",
            "pinsker-float-tree",
            "pinsker-float-bare-root",
            "product-divergence-float-spec",
            "pinsker-float-spec",
            "lansit-float-functional",
        ],
    )
    def test_float_bits_are_pinned(self, compute, pinned, mixed):
        for p in (self.P, self.P_FLOAT) if mixed else (self.P,):
            value = compute(TestMixedModeSums, p)
            values = value if isinstance(value, list) else [value]
            assert all(type(v) is float for v in values)
            assert [v.hex() for v in values] == pinned


class TestFloatSums:
    """Float trees against float references, pinned as float hex: the float
    sums keep their order and operations, so their bits never move."""

    T = float_mirror(corpus_tree(9))
    Q = float_mirror(remass(corpus_tree(9), 9))
    FLOAT_SPEC = TestMixedModeSums.FLOAT_SPEC

    @staticmethod
    def sides(f):
        report = lansit_check(TestFloatSums.T, f)
        return [report.leaf_side, report.node_side]

    @staticmethod
    def pinsker(reference):
        report = tree_pinsker_report(TestFloatSums.T, reference)
        return [report.divergence, report.mean_distance, report.mean_sq_distance,
                *report.tail.values()]

    @pytest.mark.parametrize(
        "compute, pinned",
        [
            (
                lambda c: c.sides(float_functional(c.T, 6)),
                ["-0x1.e818e5148955bp-2", "-0x1.e818e5148955cp-2"],
            ),
            (
                lambda c: c.sides(path_lengths(c.T)),
                ["0x1.b86c0dd223cf0p+1", "0x1.b86c0dd223cf0p+1"],
            ),
            (lambda c: leaf_entropy(c.T), ["0x1.4cf54e646485fp+1"]),
            (lambda c: tree_divergence(c.T, c.Q), ["0x1.fa3db4e604dabp-2"]),
            (
                lambda c: c.pinsker(c.Q),
                ["0x1.fa3db4e604dabp-2", "0x1.4a21ef9bc29f9p-2", "0x1.74005256c1088p-3",
                 "0x1.5e0d30fffa284p-1", "0x1.5e0d30fffa284p-1", "0x1.a391a160be9d0p-4",
                 "0x0.0p+0"],
            ),
            (
                lambda c: c.pinsker(c.FLOAT_SPEC),
                ["0x1.9681ff861c279p+1", "0x1.d4fe37ee6694ep-1", "0x1.f404fb44f4b3cp-1",
                 "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.d04d0c7be16afp-1",
                 "0x1.43e59e000baf6p-2"],
            ),
        ],
        ids=[
            "lansit-float-functional",
            "lansit-path-length",
            "leaf-entropy",
            "divergence",
            "pinsker-tree",
            "pinsker-spec",
        ],
    )
    def test_float_bits_are_pinned(self, compute, pinned):
        value = compute(TestFloatSums)
        values = value if isinstance(value, list) else [value]
        assert all(type(v) is float for v in values)
        assert [v.hex() for v in values] == pinned

    def test_entropy_adds_left_to_right(self):
        # the chained sum of these terms is one ulp above the correctly
        # rounded sum, which the builtin sum returns from Python 3.12
        masses = [w / 343 for w in (80, 33, 95, 46, 89)]
        terms = [entropy_term(p) for p in masses]
        chained = 0.0
        for term in terms:
            chained = chained + term
        assert chained != math.fsum(terms)
        assert entropy_of(masses).hex() == chained.hex() == "0x1.1c5b745d234e0p+1"


class TestExactConstructionCount:
    """Exact leaf entropy and product divergence build a fixed number of
    ExactLog2 values, however large the tree.

    ``ExactLog2.__init__`` is wrapped to count constructions, as the
    benchmark's tracer counts them.  Both sums accumulate integer
    coefficients over one denominator, so the count on a 2187-leaf matcher
    for target 1/6, 1/2, 1/3 (B = 1093 branching nodes) is the count on the
    243-leaf one (B = 121).  The surprisal functional builds one value per
    distinct integer n_j of the mass table, -log2(n_j / D) from the negated
    exponents, with no negation pass, and shares it among the nodes with
    that n_j: 30 values for the 364 nodes of the 243-leaf matcher.
    """

    SPEC = ProductSpec(
        FiniteDistribution(
            {0: Fraction(1, 6), 1: Fraction(1, 2), 2: Fraction(1, 3)}
        )
    )

    @pytest.fixture(scope="class")
    def trees(self):
        return [grow_matcher_tree(self.SPEC, budget) for budget in (243, 2187)]

    @pytest.fixture
    def constructions(self, monkeypatch):
        """A one-element list counting ExactLog2 constructions; reset it to 0."""
        count = [0]
        original_init = ExactLog2.__init__

        def counted_init(obj, *args, **kwargs):
            count[0] += 1
            original_init(obj, *args, **kwargs)

        monkeypatch.setattr(ExactLog2, "__init__", counted_init)
        return count

    @pytest.mark.parametrize(
        "compute",
        [leaf_entropy, lambda tree: product_branch_divergence(tree, TestExactConstructionCount.SPEC)],
        ids=["leaf_entropy", "product_branch_divergence"],
    )
    def test_constructions_per_branch_sum(self, constructions, trees, compute):
        assert [len(tree.branching_nodes) for tree in trees] == [121, 1093]
        counts = []
        for tree in trees:
            tree.branching  # Q and P_{S_j} are cached before counting
            constructions[0] = 0
            compute(tree)
            counts.append(constructions[0])
        assert counts[0] == counts[1]

    def test_surprisal_functional_builds_one_value_per_distinct_mass(self, constructions, trees):
        counts = []
        for tree in trees:
            constructions[0] = 0
            f = surprisal_functional(tree)
            assert len(f) == len(tree.nodes)
            assert constructions[0] == len(set(tree.mass_below.values()))
            counts.append((constructions[0], len(f)))
        assert counts[0] == (30, 364)


class TestSharedSurprisalValues:
    """``surprisal_functional`` shares one value among the nodes of one
    mass, and the folds gather terms by value.  Every side of the Lansit
    report equals the report for one value per node, the oracle below,
    under ``==`` and with the coefficient types of ``exact_signature``."""

    @staticmethod
    def per_node_surprisal(tree):
        return {v: ExactLog2.log2(tree.node_mass[v]) * -1 for v in tree.nodes}

    def check(self, tree):
        shared = lansit_check(tree, surprisal_functional(tree))
        oracle = lansit_check(tree, self.per_node_surprisal(tree))
        assert shared == oracle
        for side in ("leaf_side", "node_side", "residual"):
            assert exact_signature(getattr(shared, side)) == exact_signature(getattr(oracle, side))

    def test_corpus(self):
        for family in (corpus_tree, informative_tree):
            for i in range(200):
                self.check(family(i))

    @pytest.mark.parametrize("budget", [243, 2187])
    def test_matchers(self, budget):
        self.check(grow_matcher_tree(TestExactConstructionCount.SPEC, budget))


class TestFactorizationCount:
    """Exact leaf folds factor each distinct integer of the leaf and spec
    ratios once, so a matcher's count does not grow with its leaves.

    ``log2_exponents`` is wrapped in ``numeric``, where every exact fold
    calls it.  Dyadic matcher leaves have a handful of distinct masses, so the
    2187-leaf matcher (1093 branching nodes) costs what the 243-leaf one
    does, and three sweep ladders of the benchmark's sizes stay at a few
    hundred calls, where one call per leaf and fold made about 12,000.
    """

    SPEC = TestExactConstructionCount.SPEC
    LADDERS = [
        ({0: Fraction(2, 3), 1: Fraction(1, 3)}, [4**k for k in range(1, 6)]),
        (SPEC.base.mass, [3**k for k in range(1, 8)]),
        ({a: Fraction(a + 1, 10) for a in range(4)}, [4**k for k in range(1, 6)]),
    ]

    @pytest.fixture
    def factorizations(self, monkeypatch):
        """A one-element list counting log2_exponents calls; reset it to 0."""
        count = [0]

        def counted(x):
            count[0] += 1
            return log2_exponents(x)

        monkeypatch.setattr("treeprob.numeric.log2_exponents", counted)
        return count

    @pytest.mark.parametrize(
        "compute",
        [leaf_entropy, lambda tree: product_branch_divergence(tree, TestFactorizationCount.SPEC)],
        ids=["leaf_entropy", "product_branch_divergence"],
    )
    def test_calls_per_leaf_fold(self, factorizations, compute):
        counts = []
        for budget in (243, 2187):
            tree = grow_matcher_tree(self.SPEC, budget)
            factorizations[0] = 0
            compute(tree)
            counts.append(factorizations[0])
        assert counts[0] == counts[1] < 20

    def test_sweep_ladders(self, factorizations):
        for target, budgets in self.LADDERS:
            convergence_sweep(ProductSpec(FiniteDistribution(target)), budgets, 0.1)
        assert factorizations[0] < 400


class TestExactText:
    """Messages print exact values with ``exact_text``, which never fails
    on a part past the int-string limit."""

    def test_printable_values_are_their_str(self):
        for value in (Fraction(-3, 7), Fraction(10**4299), 0.25, 7, Fraction(1, 10**4299)):
            assert exact_text(value) == str(value)

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(1, 2**20000), "about 0.0 (1-bit numerator, 20001-bit denominator)"),
            (Fraction(-(2**15000)), "about -inf (15001-bit numerator, 1-bit denominator)"),
            (Fraction(2**15000 + 1, 3 * 2**15000),
             "about 0.3333333333333333 (15001-bit numerator, 15002-bit denominator)"),
        ],
    )
    def test_values_past_the_limit_are_summarized(self, value, text):
        assert exact_text(value) == text

    @pytest.mark.parametrize(
        "value, fraction",
        [
            (Fraction(10**5000, 3), Fraction(10**5000, 3)),
            (ExactLog2.from_rational(Fraction(10**5000, 3)), Fraction(10**5000, 3)),
            (ExactLog2.from_rational(Fraction(-1, 3**10000)), Fraction(-1, 3**10000)),
        ],
    )
    def test_cli_results_print_long_values(self, value, fraction):
        # the "exact" field of a result past the int-string limit is its
        # summary, as in messages
        entry = cli._result(value, "bits")
        assert entry["exact"] == exact_text(fraction)
        assert entry["exact"].startswith("about ")
        assert entry["value"] == ("inf" if fraction > 1 else 0.0)
