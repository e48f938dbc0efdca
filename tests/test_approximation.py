import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corpus import (
    aligned_references,
    branch_distances,
    caterpillar,
    complete_tree,
    corpus_tree,
    divergence_to_product,
    exact_entropy_of,
    exact_signature,
    float_mirror,
    informative_tree,
    path_alignment,
    pinsker_check,
    pinsker_reference,
    product_node_probabilities,
    random_distribution,
    reference_branches,
    remass,
    star_report,
    star_tree,
    variational_distance,
)
from treeprob import (
    AlphabetMismatch,
    DegenerateTree,
    FiniteDistribution,
    MassNotNormalized,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    ProductSpec,
    ShapeMismatch,
    UnknownLabel,
    build_tree,
    convergence_sweep,
    entropy_rate,
    entropy_rate_gap,
    generators,
    grow_matcher_tree,
    parse_tree,
    product_branch_divergence,
    serialize_tree,
    tree_divergence,
    tree_pinsker_report,
)
from treeprob import approximation, identities, numeric
from treeprob.approximation import DEFAULT_EPSILONS
from treeprob.identities import one_mode
from treeprob.numeric import ExactLog2
from treeprob.tree import align_by_paths

LN2 = math.log(2.0)


def simplex(labels, seed):
    return FiniteDistribution(random_distribution(labels, seed, exact=True))


class TestFiniteDistribution:
    def test_exact_accepts_fractions(self):
        d = FiniteDistribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert d.exact
        assert d["a"] == Fraction(1, 3)
        assert d.alphabet == ("a", "b")

    def test_mixed_label_types_sort_like_tree_labels(self):
        labels = ["b", 1, "a", 0]
        tree = build_tree(
            [("r", lab, i) for i, lab in enumerate(labels)],
            {i: Fraction(1, 4) for i in range(4)},
        )
        d = FiniteDistribution({lab: Fraction(1, 4) for lab in labels})
        assert tree.label_alphabet == d.alphabet == (0, 1, "a", "b")

    def test_exact_rejects_floats(self):
        with pytest.raises(ParamsInvalid):
            FiniteDistribution({"a": 0.5, "b": 0.5}, exact=True)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("mass", ["1/2", None, [1, 2]], ids=["str", "none", "list"])
    def test_rejects_a_mass_that_is_not_a_number(self, exact, mass):
        # a mass is an int or a Fraction, or in a float distribution a
        # float; anything else is named with its label, not met by an
        # AttributeError or a TypeError
        with pytest.raises(ParamsInvalid, match="label 'b'"):
            FiniteDistribution({"a": Fraction(1, 2), "b": mass}, exact=exact)

    def test_float_mode_tolerance(self):
        FiniteDistribution({"a": 0.5, "b": 0.5 + 4e-10}, exact=False)
        with pytest.raises(MassNotNormalized):
            FiniteDistribution({"a": 0.5, "b": 0.6}, exact=False)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            FiniteDistribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})
        with pytest.raises(NegativeMass, match="label 'a' has negative mass"):
            FiniteDistribution({"a": -0.5, "b": 1.5}, exact=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass(self, bad):
        with pytest.raises(NonFiniteMass):
            FiniteDistribution({"a": bad, "b": 0.3}, exact=False)

    def test_zero_mass_kept(self):
        d = FiniteDistribution({"a": Fraction(1), "b": Fraction(0)})
        assert d["b"] == 0
        assert d.alphabet == ("a", "b")

    def test_entropy_exact(self):
        d = FiniteDistribution({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert d.entropy() == 1
        skewed = FiniteDistribution({"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert skewed.entropy() == ExactLog2.log2(3) - Fraction(2, 3)

    def test_entropy_float(self):
        d = FiniteDistribution({"a": 2 / 3, "b": 1 / 3}, exact=False)
        assert float(d.entropy()) == pytest.approx(0.9182958340544896, rel=1e-12)

    @staticmethod
    def random_masses(rng):
        """Rational masses over 1 to 6 labels, some of them 0, with
        denominators that share factors and some that do not."""
        weights = [rng.choice([0, 0, 1, 2, 3, 7, 10, 97]) for _ in range(rng.randint(1, 6))]
        weights[rng.randrange(len(weights))] += 1
        raw = [Fraction(w, rng.choice([1, 2, 3, 5, 12, 1024, 999983])) for w in weights]
        total = sum(raw)
        return {a: m / total for a, m in enumerate(raw)}

    def test_integer_table_over_the_lcm(self):
        # the table the check sums: k_a = M s_a over the lcm M of the
        # denominators, the weights the matcher and the exact Pinsker
        # report formerly computed from the masses themselves
        rng = random.Random(31)
        for _ in range(400):
            masses = self.random_masses(rng)
            d = FiniteDistribution(masses)
            lcm = math.lcm(*(m.denominator for m in masses.values()))
            assert d.integer_mass == {a: m.numerator * (lcm // m.denominator)
                                      for a, m in masses.items()}
            assert sum(d.integer_mass.values()) == lcm
            assert all(type(k) is int for k in d.integer_mass.values())
            if all(masses.values()):
                refs = identities.branch_references(star_tree(masses), ProductSpec(d), None)
                assert refs == ({}, d.integer_mass)
        ints = FiniteDistribution({"a": 1, "b": 0})
        assert ints.integer_mass == {"a": 1, "b": 0}
        assert FiniteDistribution({"a": 0.5, "b": 0.5}, exact=False).integer_mass is None
        with pytest.raises(TypeError):
            FiniteDistribution({"a": Fraction(1)}, integer_mass={"a": 1})

    def test_exact_entropy_is_the_per_mass_fold(self):
        rng = random.Random(32)
        for _ in range(400):
            masses = self.random_masses(rng)
            value = FiniteDistribution(masses).entropy()
            assert exact_signature(value) == exact_signature(exact_entropy_of(masses.values()))

    def test_exact_entropy_never_factors_the_lcm(self, monkeypatch):
        # M = 2pq for primes p and q near 10^9: trial division of M would
        # take minutes, while each reduced mass holds p or q alone
        p, q = 1000000007, 998244353
        masses = [Fraction(1, 2 * p), Fraction(p - 1, 2 * p),
                  Fraction(1, 2 * q), Fraction(q - 1, 2 * q)]
        d = FiniteDistribution(dict(enumerate(masses)))
        assert sum(d.integer_mass.values()) == 2 * p * q
        factorize = numeric._factorize

        def guarded(n):
            assert n % (p * q), f"factoring {n}, a multiple of pq"
            return factorize(n)

        monkeypatch.setattr(numeric, "_factorize", guarded)
        start = time.perf_counter()
        value = d.entropy()
        assert time.perf_counter() - start < 5.0
        assert exact_signature(value) == exact_signature(exact_entropy_of(masses))


class TestVariationalDistance:
    """The oracle ``variational_distance`` against the package: the mean
    distance of the tree Pinsker report on p's star tree
    (``corpus.star_report``), whose one branch distance is the L1 distance."""

    def test_identical(self):
        d = simplex(["a", "b", "c"], seed=1)
        assert variational_distance(d, d) == 0
        assert star_report(d, d).mean_distance == 0.0

    def test_disjoint_supports(self):
        """An oracle self-check: the package takes no reference tree with a
        branch that p lacks, and no product spec with a mass of 0, so it has
        no form of this pair (``corpus.star_report`` gives None)."""
        p = FiniteDistribution({"a": Fraction(1), "b": Fraction(0)})
        q = FiniteDistribution({"a": Fraction(0), "b": Fraction(1)})
        assert variational_distance(p, q) == 2
        assert star_report(p, q) is None

    def test_known_value(self):
        p = FiniteDistribution({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        q = FiniteDistribution({"a": Fraction(1, 4), "b": Fraction(3, 4)})
        assert variational_distance(p, q) == Fraction(1, 2)
        assert star_report(p, q).mean_distance == 0.5
        assert star_report(q, p).mean_distance == 0.5

    def test_alphabet_mismatch(self):
        p = FiniteDistribution({"a": Fraction(1)})
        q = FiniteDistribution({"b": Fraction(1)})
        with pytest.raises(AlphabetMismatch):
            variational_distance(p, q)
        # the package's form: p's label is not in q's alphabet
        with pytest.raises(UnknownLabel):
            star_report(p, q)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_bounds_and_symmetry(self, i, j):
        labels = ["a", "b", "c", "d"]
        p = simplex(labels, seed=i)
        q = simplex(labels, seed=j)
        d = variational_distance(p, q)
        assert 0 <= d <= 2
        assert d == variational_distance(q, p)
        assert star_report(p, q).mean_distance == star_report(q, p).mean_distance == float(d)


class TestPinskerCheck:
    """The oracle ``pinsker_check`` against the package: the tree Pinsker
    report on p's star tree (``corpus.star_report``), whose D, mean
    distance and bound are the classical check's."""

    def test_equal_distributions(self):
        d = simplex(["a", "b"], seed=7)
        check = pinsker_check(d, d)
        assert check.divergence == 0
        assert check.distance == 0
        assert check.bound == 0.0
        assert check.holds
        report = star_report(d, d)
        assert exact_signature(report.divergence) == exact_signature(check.divergence)
        assert (report.mean_distance, report.bound, report.holds) == (0.0, 0.0, True)

    def test_known_pair(self):
        p = FiniteDistribution({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        q = FiniteDistribution({"a": Fraction(1, 4), "b": Fraction(3, 4)})
        check = pinsker_check(p, q)
        assert check.divergence == 1 - ExactLog2.log2(3) / 2
        assert float(check.divergence) == pytest.approx(
            0.2075187496394219, rel=1e-12
        )
        assert check.distance == Fraction(1, 2)
        assert check.bound == pytest.approx(0.18033688011112042, rel=1e-12)
        assert check.holds
        report = star_report(p, q)
        assert exact_signature(report.divergence) == exact_signature(check.divergence)
        assert report.mean_distance == float(check.distance)
        assert report.bound == check.bound
        assert report.holds

    def test_infinite_divergence_still_holds(self):
        """An oracle self-check on disjoint supports, which the package
        cannot take (``TestVariationalDistance.test_disjoint_supports``);
        the infinite D is compared on the star of p = (1/2, 1/2) against
        q = (1, 0), which it can."""
        p = FiniteDistribution({"a": Fraction(1), "b": Fraction(0)})
        q = FiniteDistribution({"a": Fraction(0), "b": Fraction(1)})
        check = pinsker_check(p, q)
        assert check.divergence == math.inf
        assert check.distance == 2
        assert check.holds
        assert star_report(p, q) is None
        p = FiniteDistribution({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        q = FiniteDistribution({"a": Fraction(1), "b": Fraction(0)})
        check, report = pinsker_check(p, q), star_report(p, q)
        assert check.divergence == report.divergence == math.inf
        assert report.mean_distance == float(check.distance) == 1.0
        assert check.holds and report.holds

    def test_float_mass_ratio_past_the_float_range(self):
        p = FiniteDistribution({"a": 0.5, "b": 0.5}, exact=False)
        big = 10**400
        for q in (
            FiniteDistribution({"a": 1.0, "b": 1e-320}, exact=False),
            FiniteDistribution({"a": Fraction(1, big), "b": Fraction(big - 1, big)}),
        ):
            check = pinsker_check(p, q)
            assert math.isfinite(check.divergence)
            assert check.holds
            report = star_report(p, q)
            assert report.divergence == check.divergence
            assert report.mean_distance == float(check.distance)
            assert report.holds

    def test_random_suite_never_violates(self):
        # the classical bound is the tree report's one-branching-node case:
        # on the star tree whose root's children carry p, against q as a
        # product spec, the report gives the oracle's values
        for i in range(200):
            labels = list(range(2 + i % 5))
            p = simplex(labels, seed=40_000 + i)
            q = simplex(labels, seed=41_000 + i)
            check = pinsker_check(p, q)
            assert check.holds
            report = tree_pinsker_report(star_tree(p.mass), ProductSpec(q))
            assert report.divergence == check.divergence
            assert report.mean_distance == float(check.distance)
            assert report.mean_sq_distance == float(check.distance ** 2)
            assert report.bound == pytest.approx(check.bound, rel=1e-15, abs=0)

    def test_alphabet_mismatch(self):
        p = FiniteDistribution({"a": Fraction(1)})
        q = FiniteDistribution({"b": Fraction(1)})
        with pytest.raises(AlphabetMismatch):
            pinsker_check(p, q)
        with pytest.raises(UnknownLabel):
            star_report(p, q)


class TestProductSpec:
    def test_uniform(self):
        spec = ProductSpec.uniform(["a", "b", "c"])
        assert spec.alphabet == ("a", "b", "c")
        assert spec.base["b"] == Fraction(1, 3)
        assert spec.exact

    def test_requires_full_support(self):
        with pytest.raises(ParamsInvalid):
            ProductSpec(FiniteDistribution({"a": Fraction(1), "b": Fraction(0)}))


class TestProductNodeProbabilities:
    def test_demo_values(self, demo_tree):
        spec = ProductSpec.uniform(["a", "b"])
        qplus = product_node_probabilities(demo_tree, spec)
        assert qplus[demo_tree.root] == 1
        assert qplus[2] == Fraction(1, 2)
        assert qplus[5] == Fraction(1, 8)
        assert qplus[6] == Fraction(1, 8)
        assert sum(qplus[leaf] for leaf in demo_tree.leaves) == Fraction(3, 4)

    def test_complete_shape_leaves_form_distribution(self):
        tree = complete_tree(alphabet=2, depth=3, seed=5)
        spec = ProductSpec.uniform(tree.label_alphabet)
        qplus = product_node_probabilities(tree, spec)
        leaf_masses = [qplus[leaf] for leaf in tree.leaves]
        assert all(m == Fraction(1, 8) for m in leaf_masses)
        assert sum(leaf_masses) == 1

    def test_unknown_label(self, demo_tree):
        spec = ProductSpec.uniform(["a", "x"])
        with pytest.raises(UnknownLabel):
            product_node_probabilities(demo_tree, spec)

    @pytest.mark.parametrize("exact", [True, False])
    def test_names_the_first_unknown_label_in_preorder(self, exact):
        # "z" comes first in preorder, "y" first in the sorted label_alphabet
        one = Fraction(1, 4) if exact else 0.25
        tree = build_tree(
            [("r", "a", "u"), ("r", "b", "v"), ("u", "z", "w"), ("u", "a", "x"),
             ("v", "y", "s"), ("v", "b", "t")],
            {leaf: one for leaf in "wxst"}, exact=exact,
        )
        assert tree.label_alphabet == ("a", "b", "y", "z")
        spec = ProductSpec.uniform(["a", "b"])
        message = "edge label 'z' not in product alphabet ('a', 'b')"
        for compute in (product_node_probabilities, product_branch_divergence,
                        divergence_to_product, tree_pinsker_report,
                        entropy_rate_gap):
            with pytest.raises(UnknownLabel) as error:
                compute(tree, spec)
            assert str(error.value) == message


class TestDivergenceToProduct:
    def test_demo_is_one_bit(self, demo_tree):
        spec = ProductSpec.uniform(["a", "b"])
        assert divergence_to_product(demo_tree, spec) == 1

    def test_matched_tree_is_zero(self):
        # complete binary shape carrying the product masses themselves
        spec = ProductSpec(
            FiniteDistribution({0: Fraction(2, 3), 1: Fraction(1, 3)})
        )
        tree = complete_tree(alphabet=2, depth=3, seed=9)
        qplus = product_node_probabilities(tree, spec)
        edges = [
            (node, label, child)
            for node in tree.nodes
            for label, child in tree.children[node]
        ]
        matched = build_tree(
            edges, {leaf: qplus[leaf] for leaf in tree.leaves}, exact=True
        )
        assert divergence_to_product(matched, spec) == 0
        assert product_branch_divergence(matched, spec) == 0

    def test_float_mass_ratio_past_the_float_range(self):
        # P+ of leaf 1 is 1e-320, and 0.5 / 1e-320 overflows the float range
        tree = build_tree([(0, 0, 1), (0, 1, 2)], {1: 0.5, 2: 0.5})
        spec = ProductSpec(FiniteDistribution({0: 1e-320, 1: 1.0}, exact=False))
        expected = 530.5085032126528
        assert divergence_to_product(tree, spec) == pytest.approx(expected, rel=1e-12)
        assert product_branch_divergence(tree, spec) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        trees = [corpus_tree(i) for i in range(30)] + [informative_tree(i) for i in range(200)]
        for tree in trees:
            spec = ProductSpec.uniform(tree.label_alphabet)
            assert divergence_to_product(tree, spec) >= 0

    def test_branch_form_agrees_exact(self):
        for family in (corpus_tree, informative_tree):
            for i in range(30):
                tree = family(i)
                spec = ProductSpec.uniform(tree.label_alphabet)
                assert divergence_to_product(tree, spec) == product_branch_divergence(
                    tree, spec
                )

    def test_branch_form_agrees_float(self):
        for family in (corpus_tree, informative_tree):
            for i in range(30):
                tree = family(i, exact=False)
                spec = ProductSpec.uniform(tree.label_alphabet)
                plain = divergence_to_product(tree, spec)
                branched = product_branch_divergence(tree, spec)
                assert float(branched) == pytest.approx(float(plain), rel=1e-9)

    def test_unknown_label(self, demo_tree):
        spec = ProductSpec.uniform(["a", "c"])
        with pytest.raises(UnknownLabel):
            divergence_to_product(demo_tree, spec)
        with pytest.raises(UnknownLabel):
            product_branch_divergence(demo_tree, spec)


class TestTreePinskerReport:
    def test_self_comparison_is_all_zero(self):
        for tree in [corpus_tree(3)] + [informative_tree(i) for i in range(200)]:
            report = tree_pinsker_report(tree, tree)
            assert report.normalized_divergence == 0.0
            assert report.mean_distance == 0.0
            assert report.mean_sq_distance == 0.0
            assert report.holds
            assert all(t == 0.0 for t in report.tail.values())

    def test_demo_against_uniform_spec(self, demo_tree):
        spec = ProductSpec.uniform(["a", "b"])
        report = tree_pinsker_report(demo_tree, spec)
        assert report.normalized_divergence == pytest.approx(0.4, rel=1e-12)
        # branch distances are 1/2, 1, 1/3 with P_B weights 2/5, 3/10, 3/10
        assert report.mean_distance == pytest.approx(0.6, rel=1e-12)
        assert report.mean_sq_distance == pytest.approx(13 / 30, rel=1e-12)
        assert report.bound == pytest.approx(13 / 30 / (2 * LN2), rel=1e-12)
        assert report.holds
        assert report.tail == {0.01: 1.0, 0.1: 1.0, 0.5: 0.7, 1.0: 0.3}

    def test_holds_on_same_shape_pairs(self):
        for family, seed in ((corpus_tree, 50_000), (informative_tree, 51_000)):
            for i in range(60):
                p = family(i)
                q = remass(p, seed=seed + i)
                report = tree_pinsker_report(p, q)
                assert report.holds
                assert report.normalized_divergence >= report.mean_sq_distance / (
                    2 * LN2
                ) - 1e-12

    def test_holds_against_specs(self):
        for family in (corpus_tree, informative_tree):
            for i in range(60):
                p = family(i)
                spec = ProductSpec.uniform(p.label_alphabet)
                assert tree_pinsker_report(p, spec).holds

    def test_markov_dominates_tail(self):
        for family in (corpus_tree, informative_tree):
            for i in range(40):
                p = family(i)
                spec = ProductSpec.uniform(p.label_alphabet)
                report = tree_pinsker_report(p, spec)
                for eps, mass in report.tail.items():
                    assert mass <= report.mean_distance / eps + 1e-12

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, Fraction(-1, 2), math.nan, math.inf])
    def test_tails_reject_bad_epsilon(self, demo_tree, epsilon):
        spec = ProductSpec.uniform(["a", "b"])
        with pytest.raises(ParamsInvalid):
            tree_pinsker_report(demo_tree, spec, epsilons=(0.5, epsilon))

    def test_custom_epsilons(self, demo_tree):
        spec = ProductSpec.uniform(["a", "b"])
        report = tree_pinsker_report(demo_tree, spec, epsilons=(0.75,))
        assert report.tail == {0.75: 0.3}

    def test_degenerate_tree(self):
        single = build_tree([], {"r": Fraction(1)})
        with pytest.raises(DegenerateTree):
            tree_pinsker_report(single, ProductSpec.uniform(["a", "b"]))


EPSILONS = (0.01, 0.1, 0.5, 1.0, 1 / 3, 0.7, Fraction(1, 3), 2)


def report_bits(report):
    """Every field of a Pinsker report: the divergence with its type, each
    float field as hex, and the tails with their thresholds' types."""
    floats = (report.normalized_divergence, report.mean_distance,
              report.mean_sq_distance, report.bound)
    return (
        exact_signature(report.divergence),
        [x.hex() for x in floats],
        report.holds,
        [(type(eps), eps, t.hex()) for eps, t in report.tail.items()],
    )


def pinsker_references(i, family=corpus_tree):
    """Tree i of ``family`` and each reference it is reported against, by
    name."""
    p, trees = aligned_references(family, i)
    spec = random_distribution(p.label_alphabet, 70_000 + i)
    refs = {
        "exact-spec": ProductSpec(FiniteDistribution(spec)),
        "float-spec": ProductSpec(FiniteDistribution(
            {a: float(m) for a, m in spec.items()}, exact=False)),
        **trees,
        "float-mirror": float_mirror(p),
        "bare-root": build_tree([], {0: Fraction(1)}),
        "float-bare-root": build_tree([], {0: 1.0}, exact=False),
    }
    if "subtree-removed" in refs:
        refs["float-subtree-removed"] = float_mirror(refs["subtree-removed"])
    return p, refs


class TestPinskerReference:
    """tree_pinsker_report against the per-node distances and
    ``corpus.branch_sum`` averages of ``corpus.pinsker_reference``, field by field and bit for bit.
    A pair that is not both exact is reported as its float pair, so the
    reference gets the pair converted (``one_mode``)."""

    @staticmethod
    def assert_family_agrees(family, start):
        for i in range(start, start + 50):
            exact_p, refs = pinsker_references(i, family)
            for p in (exact_p, float_mirror(exact_p)):
                for name, ref in refs.items():
                    got = report_bits(tree_pinsker_report(p, ref, EPSILONS))
                    want = report_bits(pinsker_reference(*one_mode(p, ref), EPSILONS))
                    assert got == want, (i, p.exact, name)

    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_corpus_agrees_bitwise(self, start):
        self.assert_family_agrees(corpus_tree, start)

    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_informative_agrees_bitwise(self, start):
        self.assert_family_agrees(informative_tree, start)

    @pytest.mark.parametrize("shape", ["caterpillar-spec", "caterpillar-remass", "matcher-remass"])
    def test_many_distinct_denominators(self, shape):
        # n_j, and against a remass m_j, differ at nearly every branching
        # node, so the exact averages add hundreds of distinct denominators
        if shape.startswith("caterpillar"):
            p = caterpillar(400, seed=1)
        else:
            weights = {a: Fraction(a + 1, 10) for a in range(4)}
            p = grow_matcher_tree(ProductSpec(FiniteDistribution(weights)), 1024)
            assert len(p.leaves) == 1024
        if shape.endswith("spec"):
            reference = ProductSpec(FiniteDistribution({0: Fraction(1, 3), 1: Fraction(2, 3)}))
        else:
            reference = remass(p, seed=400)
        got = tree_pinsker_report(p, reference, EPSILONS)
        assert report_bits(got) == report_bits(pinsker_reference(p, reference, EPSILONS))

    def test_deep_exact_report_is_not_quadratic(self):
        # a running Fraction sum of the averages, a gcd on a growing lcm per
        # distinct denominator, took 1.8-2.2 s on this pair (Python 3.11.7,
        # 2 idle vCPUs); the balanced integer sum takes about 0.15 s
        p = caterpillar(8000, seed=1)
        reference = remass(p, seed=2)
        start = time.perf_counter()
        report = tree_pinsker_report(p, reference)
        assert time.perf_counter() - start < 1.5
        assert 0 < report.mean_sq_distance < report.mean_distance < 1

    def test_subtree_removed_is_infinite_with_unit_distances(self):
        p, refs = pinsker_references(0)
        report = tree_pinsker_report(p, refs["subtree-removed"], EPSILONS)
        assert report.divergence == math.inf
        assert report.tail[1.0] > 0.0

    @pytest.mark.parametrize(
        "reference",
        [
            ProductSpec.uniform(["a", "b"]),
            build_tree([("s", "a", "x"), ("s", "b", "y")],
                       {"x": Fraction(1, 2), "y": Fraction(1, 2)}),
        ],
        ids=["spec", "tree"],
    )
    def test_distance_of_exactly_one_tenth(self, reference):
        # d = |11/20 - 1/2| + |9/20 - 1/2| = 1/10 exactly; the float 0.1 is
        # slightly above 1/10, so the node is not in that tail
        p = build_tree([("r", "a", "u"), ("r", "b", "v")],
                       {"u": Fraction(11, 20), "v": Fraction(9, 20)})
        epsilons = (0.1, Fraction(1, 10), 0.09999999999999999)
        report = tree_pinsker_report(p, reference, epsilons)
        assert report.tail == {
            0.1: 0.0, Fraction(1, 10): 1.0, 0.09999999999999999: 1.0
        }
        want = pinsker_reference(p, reference, epsilons)
        assert report_bits(report) == report_bits(want)

    @pytest.mark.parametrize(
        "tree, reference, epsilons, error",
        [
            ("single", "bad-spec", (math.nan,), ParamsInvalid),
            ("single", "bad-spec", (0.5,), DegenerateTree),
            ("demo", "bad-spec", (0.5,), UnknownLabel),
            ("demo", "bad-spec", (0.5, -1.0), ParamsInvalid),
            ("demo", "wider", (0.5,), ShapeMismatch),
            ("single", "wider", (0.5,), DegenerateTree),
            ("demo", "wider", (0.0,), ParamsInvalid),
        ],
    )
    def test_errors_and_their_order(self, demo_tree, tree, reference, epsilons, error):
        trees = {"single": build_tree([], {"r": Fraction(1)}), "demo": demo_tree}
        references = {
            "bad-spec": ProductSpec.uniform(["x", "y"]),
            "wider": complete_tree(3, 2, seed=5),
        }
        for report in (tree_pinsker_report, pinsker_reference):
            with pytest.raises(error):
                report(trees[tree], references[reference], epsilons)


class TestBranchDistances:
    """``approximation._branch_distances``, the exact kernel of the Pinsker
    report, against the per-branch Fraction oracle
    ``corpus.branch_distances``: each triple (n_j, S_j, m_j) gives n_j, the
    entry of j in p's table, and d_j = S_j / (m_j n_j) exactly."""

    @staticmethod
    def kernel_agrees(p, reference):
        """Assert the kernel equals the oracle on the exact pair (p,
        reference); return the oracle's ref_j per branching node j."""
        if isinstance(reference, ProductSpec):
            mapping = oracle_mapping = None
        else:
            mapping = align_by_paths(p, reference)[0]
            oracle_mapping = path_alignment(p, reference)[0]
        triples = approximation._branch_distances(p, reference, mapping)
        refs = reference_branches(p, reference, oracle_mapping)
        want = branch_distances(p, refs)
        assert [nj for nj, _, _ in triples] == [p.mass_below[j] for j in want]
        assert [Fraction(s, m * nj) for nj, s, m in triples] == list(want.values())
        return refs

    @pytest.mark.parametrize("family", [corpus_tree, informative_tree])
    def test_families(self, family):
        seen = set()
        for i in range(100):
            p, trees = aligned_references(family, i)
            spec = ProductSpec(FiniteDistribution(
                random_distribution(p.label_alphabet, 70_000 + i)))
            for reference in (spec, *trees.values()):
                refs = self.kernel_agrees(p, reference)
                for j, own in p.branching.items():
                    ref = refs[j]
                    if not ref:
                        seen.add("empty reference")
                    elif ref.keys() - own.keys():
                        seen.add("label missing in p")
                    if ref and own.keys() - ref.keys():
                        seen.add("label missing in the reference")
                    if any(m == ref.get(a) for a, m in own.items()):
                        seen.add("child at difference 0")
        assert seen == {"empty reference", "label missing in p",
                        "label missing in the reference", "child at difference 0"}

    def test_some_children_at_difference_zero(self):
        # against the spec, child a is at difference 0 and b and c are not;
        # against q, the root's children all are, and under v child x is at
        # 1/2 against 1 and label y is missing from q
        p = build_tree(
            [("r", "a", "u"), ("r", "b", "v"), ("r", "c", "w"),
             ("v", "x", "vx"), ("v", "y", "vy")],
            {"u": Fraction(1, 2), "vx": Fraction(1, 8), "vy": Fraction(1, 8),
             "w": Fraction(1, 4)},
        )
        spec = ProductSpec(FiniteDistribution(
            {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 12),
             "x": Fraction(1, 24), "y": Fraction(1, 24)}))
        q = build_tree(
            [("r", "a", "u"), ("r", "b", "v"), ("r", "c", "w"), ("v", "x", "vx")],
            {"u": Fraction(1, 2), "vx": Fraction(1, 4), "w": Fraction(1, 4)},
        )
        for reference, want in ((spec, [Fraction(1, 3), Fraction(11, 6)]), (q, [0, 1])):
            self.kernel_agrees(p, reference)
            mapping = None if reference is spec else align_by_paths(p, q)[0]
            triples = approximation._branch_distances(p, reference, mapping)
            assert [Fraction(s, m * nj) for nj, s, m in triples] == want

    def test_deep_and_matcher_trees(self):
        p = caterpillar(300, seed=5)
        for reference in (remass(p, seed=6), ProductSpec.uniform([0, 1])):
            self.kernel_agrees(p, reference)
        weights = {a: Fraction(a + 1, 10) for a in range(4)}
        spec = ProductSpec(FiniteDistribution(weights))
        p = grow_matcher_tree(spec, 256)
        for reference in (spec, remass(p, seed=7), ProductSpec.uniform(range(4))):
            self.kernel_agrees(p, reference)


FAMILIES = (corpus_tree, informative_tree)


def float_trees(i, family=corpus_tree):
    """The float trees reported against the references of tree i of
    ``family``: the float tree and the ``--float`` mirror of the exact one
    (the serialized tree parsed back with ``force_float``), both of tree
    i's shape."""
    exact_p = family(i)
    mirror = parse_tree(serialize_tree(exact_p), force_float=True)
    return [family(i, exact=False), mirror]


def reference_divergence(p, reference):
    """D as the library computes it outside the Pinsker report."""
    if isinstance(reference, ProductSpec):
        return product_branch_divergence(p, reference)
    return tree_divergence(p, reference)


class TestFloatFold:
    """The float Pinsker report, one comparison pass over ``Tree.branching``
    (``identities.comparison_sums``), against the multi-pass
    ``corpus.pinsker_reference``, field by field and bit for bit: its D
    against a separate ``corpus.branch_sum`` of per-node ``kl_of``, and against
    ``product_branch_divergence`` and ``tree_divergence``, which read the
    same pass."""

    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_float_corpus_agrees_bitwise(self, start):
        # an exact p against these references is TestPinskerReference's
        for family in FAMILIES:
            for i in range(start, start + 50):
                _, refs = pinsker_references(i, family)
                for p in float_trees(i, family):
                    assert not p.exact and p.branching_nodes
                    for name, ref in refs.items():
                        report = tree_pinsker_report(p, ref, EPSILONS)
                        want = pinsker_reference(*one_mode(p, ref), EPSILONS)
                        assert report_bits(report) == report_bits(want), (family, i, name)
                        assert report.divergence == reference_divergence(p, ref), (family, i, name)

    def test_uncovered_and_leaf_aligned_references(self):
        # tree 0 of each family has a branching node with a sibling to cut
        for family in FAMILIES:
            _, refs = pinsker_references(0, family)
            assert "subtree-to-leaf" in refs, family
            for p in float_trees(0, family):
                removed = tree_pinsker_report(p, refs["float-subtree-removed"], EPSILONS)
                assert removed.divergence == math.inf
                to_leaf = tree_pinsker_report(p, refs["subtree-to-leaf"], (1 - 1e-9,))
                assert to_leaf.divergence == math.inf
                # the cut node faces a leaf, so its d_j is 1
                assert to_leaf.tail[1 - 1e-9] > 0.0
                bare = tree_pinsker_report(p, refs["float-bare-root"], EPSILONS)
                assert bare.divergence == math.inf
                assert bare.mean_distance == 1.0

    def test_distance_to_an_empty_reference_is_exactly_one(self):
        # a float d_j against no aligned branching node is 1.0, as on the
        # exact path, not the chained sum of p's branch masses: on corpus 9
        # that sum is 1 - 2^-53 at some nodes, which tail(1.0) dropped
        bare = build_tree([], {0: 1.0}, exact=False)
        for family in FAMILIES:
            for i in (9, *range(0, 200, 7)):
                for p in float_trees(i, family):
                    if not p.branching_nodes:
                        continue
                    report = tree_pinsker_report(p, bare, (0.5, 1.0))
                    assert (report.mean_distance, report.mean_sq_distance) == (1.0, 1.0), (family, i)
                    assert report.tail == {0.5: 1.0, 1.0: 1.0}, (family, i)

    def test_exact_p_against_a_float_bare_root_runs_as_float(self):
        # the pair is not both exact, so p runs as its float tree: the report
        # is the converted pair's, bit for bit; against no aligned branching
        # node every float d_j is 1.0
        bare = build_tree([], {0: 1.0}, exact=False)
        for family in (corpus_tree, informative_tree):
            p = family(4)
            report = tree_pinsker_report(p, bare)
            assert report_bits(report) == report_bits(tree_pinsker_report(p.as_float(), bare))
            assert (report.mean_distance, report.mean_sq_distance) == (1.0, 1.0)
            assert set(report.tail.values()) == {1.0}

    @pytest.mark.parametrize("exponent", [400, 320])
    def test_spec_mass_below_the_float_range(self, exponent):
        # float(1/10^400) is 0.0, and float(1/10^320) is a subnormal with
        # about 11 significant bits, past which 0.5 / float(1/10^320)
        # overflows: both terms come from the exact spec mass, so D stays
        # finite and exact to rounding
        tiny = Fraction(1, 10**exponent)
        spec = ProductSpec(FiniteDistribution({"a": 1 - tiny, "b": tiny}))
        p = build_tree([("r", "a", "u"), ("r", "b", "v"), ("v", "a", "x"), ("v", "b", "y")],
                       {"u": 0.5, "x": 0.25, "y": 0.25}, exact=False)
        report = tree_pinsker_report(p, spec)
        assert report_bits(report) == report_bits(pinsker_reference(p, spec, DEFAULT_EPSILONS))
        # each node's KL is log2(0.5^2 / (1 - tiny) / tiny) / 2, with Q 1 and 1/2
        kl = (exponent * math.log2(10) - 2) / 2
        assert report.divergence == pytest.approx(1.5 * kl, rel=1e-14)
        assert report.divergence == product_branch_divergence(p, spec)

    def test_float_report_does_no_fraction_arithmetic(self, monkeypatch):
        # the spec's masses are Fractions; the fold reads them as floats
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__abs__"):
            original = getattr(Fraction, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        p = float_mirror(grow_matcher_tree(TestNoBranchingTable.SPEC, 243))
        tree_pinsker_report(p, TestNoBranchingTable.SPEC)
        assert calls == []

    def test_float_report_against_an_exact_tree_does_no_fraction_arithmetic(
        self, monkeypatch
    ):
        # the exact reference runs as its float tree, built from its leaf
        # masses' floats: its Fraction distributions are never built
        exact = grow_matcher_tree(TestNoBranchingTable.SPEC, 243)
        reference = remass(exact, seed=243)
        p = float_mirror(exact)
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__abs__"):
            original = getattr(Fraction, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        tree_pinsker_report(p, reference)
        assert calls == []
        assert "branching" not in vars(reference)

    def test_float_reports_take_no_entropy(self, monkeypatch):
        # the one comparison pass makes no separate per-branch entropy pass
        def refuse(*args):
            raise AssertionError("entropy taken")

        for module, name in ((identities, "leaf_entropy"), (identities, "entropy_of"),
                             (approximation, "entropy_of")):
            monkeypatch.setattr(module, name, refuse)
        for family in FAMILIES:
            p = float_trees(11, family)[0]
            _, refs = pinsker_references(11, family)
            for ref in refs.values():
                tree_pinsker_report(p, ref)


class TestNoBranchingTable:
    """An exact tree against an exact reference never builds the branching
    distributions P_{S_j} (``Tree.branching``): the Pinsker report reads the
    integer table n alone, for single reports and for every sweep budget."""

    SPEC = ProductSpec(
        FiniteDistribution({0: Fraction(1, 6), 1: Fraction(1, 2), 2: Fraction(1, 3)})
    )

    @pytest.mark.parametrize("budget", [243, 2187])
    def test_single_reports(self, budget):
        tree = grow_matcher_tree(self.SPEC, budget)
        reference = remass(grow_matcher_tree(self.SPEC, budget), seed=budget)
        tree_pinsker_report(tree, self.SPEC)
        tree_pinsker_report(tree, reference)
        tree_pinsker_report(tree, tree)
        assert "branching" not in vars(tree)
        assert "branching" not in vars(reference)

    def test_sweep(self, monkeypatch):
        # every sweep tree comes from the matcher's table builder
        built = []
        original_builder = generators._tree_from_tables

        def recording_builder(*args):
            built.append(original_builder(*args))
            return built[-1]

        monkeypatch.setattr(generators, "_tree_from_tables", recording_builder)
        rows = convergence_sweep(self.SPEC, [27, 243, 2187], 0.1)
        assert [len(tree.leaves) for tree in built] == [row.leaf_count for row in rows]
        assert all("branching" not in vars(tree) for tree in built)


class TestEntropyRateGap:
    def test_demo_entropy_gap(self, demo_tree):
        spec = ProductSpec(
            FiniteDistribution({"a": Fraction(2, 3), "b": Fraction(1, 3)})
        )
        gap = entropy_rate_gap(demo_tree, spec)
        expected = abs(0.6 - 0.9182958340544896)
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_float_tree_with_rational_spec(self, demo_tree_float):
        spec = ProductSpec(
            FiniteDistribution({"a": Fraction(2, 3), "b": Fraction(1, 3)})
        )
        expected = abs(0.6 - 0.9182958340544896)
        assert entropy_rate_gap(demo_tree_float, spec) == pytest.approx(
            expected, rel=1e-12
        )

    def test_matched_tree_gap_is_exact_zero(self):
        spec = ProductSpec(
            FiniteDistribution({0: Fraction(2, 3), 1: Fraction(1, 3)})
        )
        tree = complete_tree(alphabet=2, depth=3, seed=9)
        qplus = product_node_probabilities(tree, spec)
        edges = [
            (node, label, child)
            for node in tree.nodes
            for label, child in tree.children[node]
        ]
        matched = build_tree(
            edges, {leaf: qplus[leaf] for leaf in tree.leaves}, exact=True
        )
        assert entropy_rate_gap(matched, spec) == 0.0

    def test_matches_entropy_rate_difference(self):
        trees = [corpus_tree(i) for i in range(30)] + [informative_tree(i) for i in range(200)]
        for tree in trees:
            spec = ProductSpec.uniform(tree.label_alphabet)
            gap = entropy_rate_gap(tree, spec)
            oracle = abs(
                float(entropy_rate(tree)) - float(spec.base.entropy())
            )
            assert gap == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_bounded_by_log2_alphabet_size(self):
        # a branching node has at most k children, so the rate lies in
        # [0, log2 k], as does H of the uniform spec
        for family in (corpus_tree, informative_tree):
            for i in range(30):
                tree = family(i)
                spec = ProductSpec.uniform(tree.label_alphabet)
                bound = math.log2(len(spec.alphabet))
                assert entropy_rate_gap(tree, spec) <= bound + 1e-12, (family, i)

    def test_unknown_label(self, demo_tree):
        spec = ProductSpec.uniform(["a", "z"])
        with pytest.raises(UnknownLabel):
            entropy_rate_gap(demo_tree, spec)

    def test_exact_tree_float_spec_runs_as_float_pair(self):
        # the pair is not both exact, so the tree runs as its float tree
        spec = ProductSpec(FiniteDistribution({0: 0.5, 1: 0.5}, exact=False))
        for family in (corpus_tree, informative_tree):
            tree = family(48)
            float_tree = tree.as_float()
            gap = entropy_rate_gap(tree, spec)
            assert gap.hex() == entropy_rate_gap(float_tree, spec).hex()
            assert gap == abs(entropy_rate(float_tree) - spec.base.entropy())

    def test_float_tree_against_a_spec_mass_below_the_float_range(self):
        # the exact spec runs as a float spec that keeps the mass 1/10^400,
        # whose float is 0.0, exact; its float entropy term is 0.0, the
        # float of the true term, about 1e-397
        tiny = Fraction(1, 10**400)
        spec = ProductSpec(FiniteDistribution({"a": 1 - tiny, "b": tiny}))
        p = build_tree([("r", "a", "u"), ("r", "b", "v")], {"u": 0.5, "v": 0.5},
                       exact=False)
        assert entropy_rate_gap(p, spec) == 1.0

    def test_degenerate_tree(self):
        single = build_tree([], {"r": Fraction(1)})
        with pytest.raises(DegenerateTree):
            entropy_rate_gap(single, ProductSpec.uniform(["a", "b"]))
