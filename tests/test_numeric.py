import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    corpus_tree,
    exact_signature,
    float_functional,
    float_mirror,
    random_distribution,
    remass,
)
from treeprob import (
    BoundedFunctional,
    FiniteDistribution,
    ProductSpec,
    build_tree,
    entropy_functional,
    functional_convergence_gap,
    grow_matcher_tree,
    lansit_check,
    path_lengths,
    tree_divergence,
    tree_pinsker_report,
)
from treeprob import cli
from treeprob.approximation import product_branch_divergence
from treeprob.identities import leaf_entropy
from treeprob.numeric import (
    ExactLog2,
    entropy_of,
    entropy_term,
    exact_weighted_sum,
    kl_of,
    kl_term,
    log2_exponents,
    log2_of,
    parse_rational,
)

# bounded values keep trial-division factorization fast
positive_rationals = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000
)
rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


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

    def test_immutable(self):
        x = ExactLog2.log2(Fraction(3))
        with pytest.raises(AttributeError):
            x._coef = {}


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
        assert diff._sign_exact() == 1
        assert (-diff)._sign_exact() == -1
        assert ExactLog2()._sign() == 0

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
    def test_log2_of_modes(self):
        assert log2_of(Fraction(1, 2), exact=True) == -1
        assert log2_of(0.5, exact=False) == -1.0

    def test_entropy_term_zero_convention(self):
        assert entropy_term(Fraction(0), exact=True) == 0
        assert entropy_term(0.0, exact=False) == 0.0

    def test_entropy_of_uniform(self):
        assert entropy_of([Fraction(1, 4)] * 4, exact=True) == 2
        assert entropy_of([0.25] * 4, exact=False) == pytest.approx(2.0)

    def test_kl_term_conventions(self):
        assert kl_term(Fraction(0), Fraction(0), exact=True) == 0
        assert kl_term(Fraction(1, 2), Fraction(0), exact=True) == math.inf
        assert kl_term(0.0, 0.5, exact=False) == 0.0

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
        assert kl_term(p, q, exact=False) == pytest.approx(
            p * (math.log2(p) - log_q), rel=1e-12
        )

    def test_kl_of_short_circuits_on_infinity(self):
        pairs = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))]
        assert kl_of(pairs, exact=True) == math.inf

    def test_kl_of_identical_is_zero(self):
        pairs = [(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(2, 3))]
        assert kl_of(pairs, exact=True) == 0


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", Fraction(3, 4)), (" 1 ", Fraction(1)), ("0.25", Fraction(1, 4)),
     ("-2/6", Fraction(-1, 3))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1/0", "1/2/3"])
def test_parse_rational_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_rational(text)


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



class TestMixedModeSums:
    """Library calls that mix an exact tree with a float tree, a float spec,
    a float functional or a float-valued g.  Each caller decides once
    whether its sum is exact; the results are pinned as float hex, so a
    change of summation mode or order shows."""

    P = corpus_tree(9)
    Q = float_mirror(remass(P, 9))
    LABELS = P.label_alphabet
    SPEC = ProductSpec(FiniteDistribution(random_distribution(LABELS, 11)))
    FLOAT_SPEC = ProductSpec(
        FiniteDistribution(random_distribution(LABELS, 11, exact=False), exact=False)
    )

    @staticmethod
    def pinsker(reference):
        report = tree_pinsker_report(TestMixedModeSums.P, reference)
        return [report.divergence, report.mean_distance, report.mean_sq_distance,
                *report.tail.values()]

    @pytest.mark.parametrize(
        "compute, pinned",
        [
            (lambda c: tree_divergence(c.P, c.Q), ["0x1.fa3db4e604da7p-2"]),
            (lambda c: tree_divergence(c.Q, c.P), ["0x1.5fb5e30a500a7p-2"]),
            (
                lambda c: c.pinsker(c.Q),
                ["0x1.fa3db4e604da7p-2", "0x1.4a21ef9bc29fap-2", "0x1.74005256c1087p-3",
                 "0x1.5e0d30fffa285p-1", "0x1.5e0d30fffa285p-1", "0x1.a391a160be9d1p-4",
                 "0x0.0p+0"],
            ),
            # a bare float root enters no distance, so the averages stay exact
            (
                lambda c: c.pinsker(build_tree([], {0: 1.0}, exact=False)),
                ["inf"] + ["0x1.0000000000000p+0"] * 6,
            ),
            (
                lambda c: product_branch_divergence(c.P, c.FLOAT_SPEC),
                ["0x1.9681ff861c276p+1"],
            ),
            (
                lambda c: c.pinsker(c.FLOAT_SPEC),
                ["0x1.9681ff861c276p+1", "0x1.d4fe37ee6694fp-1", "0x1.f404fb44f4b3cp-1",
                 "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.d04d0c7be16b0p-1",
                 "0x1.43e59e000baf6p-2"],
            ),
            (
                lambda c: functional_convergence_gap(
                    c.P, c.SPEC, BoundedFunctional(lambda d: float(d.entropy()), 2.0)
                ),
                ["0x1.8c7e9617f3fc5p-1"],
            ),
            (
                lambda c: functional_convergence_gap(
                    c.P, c.FLOAT_SPEC, entropy_functional(c.LABELS)
                ),
                ["0x1.8c7e9617f3fc7p-1"],
            ),
            (
                lambda c: lansit_check(c.P, float_functional(c.P, 6)).node_side,
                ["-0x1.e818e5148955ap-2"],
            ),
        ],
        ids=[
            "divergence-exact-float",
            "divergence-float-exact",
            "pinsker-float-tree",
            "pinsker-float-bare-root",
            "product-divergence-float-spec",
            "pinsker-float-spec",
            "gap-float-g",
            "gap-float-spec",
            "lansit-float-functional",
        ],
    )
    def test_float_bits_are_pinned(self, compute, pinned):
        value = compute(TestMixedModeSums)
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


class TestExactConstructionCount:
    """Exact leaf entropy and product divergence build a fixed number of
    ExactLog2 values, however large the tree.

    ``ExactLog2.__init__`` is wrapped to count constructions, as the
    benchmark's tracer counts them.  Both sums accumulate integer
    coefficients over one denominator, so the count on a 2187-leaf matcher
    for target 1/6, 1/2, 1/3 (B = 1093 branching nodes) is the count on the
    243-leaf one (B = 121).
    """

    SPEC = ProductSpec(
        FiniteDistribution(
            {0: Fraction(1, 6), 1: Fraction(1, 2), 2: Fraction(1, 3)}
        )
    )

    @pytest.fixture(scope="class")
    def trees(self):
        return [grow_matcher_tree(self.SPEC, budget) for budget in (243, 2187)]

    @pytest.mark.parametrize(
        "compute",
        [leaf_entropy, lambda tree: product_branch_divergence(tree, TestExactConstructionCount.SPEC)],
        ids=["leaf_entropy", "product_branch_divergence"],
    )
    def test_constructions_per_branch_sum(self, monkeypatch, trees, compute):
        assert [len(tree.branching_nodes) for tree in trees] == [121, 1093]
        count = 0
        original_init = ExactLog2.__init__

        def counted_init(obj, *args, **kwargs):
            nonlocal count
            count += 1
            original_init(obj, *args, **kwargs)

        monkeypatch.setattr(ExactLog2, "__init__", counted_init)
        counts = []
        for tree in trees:
            tree.branching  # Q and P_{S_j} are cached before counting
            count = 0
            compute(tree)
            counts.append(count)
        assert counts[0] == counts[1]
