import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    complete_tree,
    corpus_tree,
    edges_of,
    float_functional,
    float_mirror,
    rational_functional,
    remass,
)
from treeprob import (
    DegenerateTree,
    FiniteDistribution,
    FunctionalIncomplete,
    GeneratorParams,
    ProductSpec,
    ShapeMismatch,
    branching_node_distribution,
    build_tree,
    differential_lansit_check,
    divergence_to_product,
    entropy_rate,
    expected_path_length,
    generate_random_tree,
    grow_matcher_tree,
    lansit_check,
    leaf_entropy,
    log_ratio_functional,
    merged_increment_sum,
    node_increment_sum,
    normalized_divergence,
    path_lengths,
    product_branch_divergence,
    surprisal_functional,
    tree_divergence,
)
from treeprob.identities import align_by_paths, branch_sum
from treeprob.numeric import ExactLog2, entropy_of, entropy_term, kl_of, kl_term


def leaf_entropy_oracle(tree):
    return sum(entropy_term(m, tree.exact) for m in
               (tree.leaf_mass[leaf] for leaf in tree.leaves))


def divergence_oracle(p, q):
    exact = p.exact and q.exact
    return sum(
        kl_term(p.leaf_mass[leaf], q.leaf_mass[leaf], exact) for leaf in p.leaves
    )


class TestLansitCheck:
    def test_demo_with_path_length(self, demo_tree):
        report = lansit_check(demo_tree, path_lengths(demo_tree))
        assert report.leaf_side == Fraction(5, 2)
        assert report.node_side == Fraction(5, 2)
        assert report.residual == 0
        assert report.exact and report.holds()

    def test_constant_functional_gives_zero(self, demo_tree):
        f = dict.fromkeys(demo_tree.nodes, Fraction(7, 3))
        report = lansit_check(demo_tree, f)
        assert report.leaf_side == 0 and report.node_side == 0

    def test_incomplete_functional_rejected(self, demo_tree):
        f = {n: 0 for n in demo_tree.nodes if n != 3}
        with pytest.raises(FunctionalIncomplete):
            lansit_check(demo_tree, f)

    def test_random_functionals_exact(self):
        for i in range(100):
            t = corpus_tree(i)
            report = lansit_check(t, rational_functional(t, seed=50_000 + i))
            assert report.exact
            assert report.residual == 0

    def test_random_functionals_float(self):
        for i in range(100):
            t = float_mirror(corpus_tree(i))
            report = lansit_check(t, float_functional(t, seed=60_000 + i))
            assert not report.exact
            assert report.holds()

    def test_float_functional_on_exact_tree_downgrades(self, demo_tree):
        report = lansit_check(demo_tree, {n: float(n) for n in demo_tree.nodes})
        assert not report.exact
        assert report.holds()

    def test_merged_equals_direct_bitwise(self):
        # same elementary operations in the same order, both modes
        for i in range(60):
            t = corpus_tree(i)
            f = rational_functional(t, seed=70_000 + i)
            assert merged_increment_sum(t, f) == node_increment_sum(t, f)
            ft = float_mirror(t)
            g = float_functional(ft, seed=80_000 + i)
            merged = merged_increment_sum(ft, g)
            direct = node_increment_sum(ft, g)
            assert merged == direct  # bit-identical floats, not approx


class TestExpectedPathLength:
    def test_demo(self, demo_tree):
        assert expected_path_length(demo_tree) == Fraction(5, 2)

    def test_equals_leaf_average(self):
        for i in range(40):
            t = corpus_tree(i)
            w = path_lengths(t)
            leaf_avg = sum(t.leaf_mass[leaf] * w[leaf] for leaf in t.leaves)
            assert expected_path_length(t) == leaf_avg

    def test_complete_tree_is_depth(self):
        t = complete_tree(2, 3, seed=1)
        assert expected_path_length(t) == 3

    def test_single_node_is_zero(self):
        t = build_tree([], {0: Fraction(1)})
        assert expected_path_length(t) == 0


class TestLeafEntropy:
    def test_demo_is_three_halves(self, demo_tree):
        assert leaf_entropy(demo_tree) == Fraction(3, 2)

    def test_equals_leaf_side_exact(self):
        for i in range(40):
            t = corpus_tree(i)
            assert leaf_entropy(t) == leaf_entropy_oracle(t)

    def test_equals_leaf_side_float(self):
        for i in range(40):
            t = float_mirror(corpus_tree(i))
            branch = leaf_entropy(t)
            oracle = leaf_entropy_oracle(t)
            assert abs(branch - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_deterministic_path_has_zero_entropy(self):
        t = build_tree([(0, "a", 1), (1, "a", 2)], {2: Fraction(1)})
        assert leaf_entropy(t) == 0

    def test_uniform_depth_two_binary_is_two_bits(self):
        edges = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 0, 5), (2, 1, 6)]
        mass = {n: Fraction(1, 4) for n in (3, 4, 5, 6)}
        assert leaf_entropy(build_tree(edges, mass)) == 2


class TestTreeDivergence:
    def test_self_divergence_is_zero(self, demo_tree):
        assert tree_divergence(demo_tree, demo_tree) == 0

    def test_demo_pair_value(self, demo_tree, demo_q_tree):
        d = tree_divergence(demo_tree, demo_q_tree)
        assert d == Fraction(1, 4)
        assert d == divergence_oracle(demo_tree, demo_q_tree)

    def test_branch_form_equals_leaf_form_exact(self):
        for i in range(40):
            p = corpus_tree(i)
            q = remass(p, seed=90_000 + i)
            assert tree_divergence(p, q) == divergence_oracle(p, q)

    def test_branch_form_equals_leaf_form_float(self):
        for i in range(40):
            p0 = corpus_tree(i)
            p = float_mirror(p0)
            q = float_mirror(remass(p0, seed=91_000 + i))
            branch = tree_divergence(p, q)
            oracle = divergence_oracle(p, q)
            assert abs(branch - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_missing_branch_in_reference_is_infinite(self, demo_tree):
        # reference lacks the whole subtree under label path a, a
        slim = build_tree(
            [(0, "a", 1), (0, "b", 2), (1, "a", 3)],
            {2: Fraction(1, 4), 3: Fraction(3, 4)},
        )
        assert tree_divergence(demo_tree, slim) == math.inf

    def test_extra_branch_in_reference_is_shape_mismatch(self, demo_tree):
        wide = build_tree(
            [(0, "a", 1), (0, "b", 2), (0, "c", 7), (1, "a", 3),
             (3, "a", 5), (3, "b", 6)],
            {2: Fraction(1, 4), 5: Fraction(1, 4), 6: Fraction(1, 4),
             7: Fraction(1, 4)},
        )
        with pytest.raises(ShapeMismatch):
            tree_divergence(demo_tree, wide)

    def test_nonnegative_on_random_pairs(self):
        for i in range(40):
            p = corpus_tree(i)
            q = remass(p, seed=92_000 + i)
            assert tree_divergence(p, q) >= 0


class TestBranchingNodeDistribution:
    def test_demo(self, demo_tree):
        dist = branching_node_distribution(demo_tree)
        assert dist.mass == {0: Fraction(2, 5), 1: Fraction(3, 10),
                             3: Fraction(3, 10)}
        assert dist.mean_length == Fraction(5, 2)

    def test_star_tree(self):
        t = build_tree([(0, "a", 1), (0, "b", 2)],
                       {1: Fraction(1, 3), 2: Fraction(2, 3)})
        assert branching_node_distribution(t).mass == {0: Fraction(1)}

    def test_uniform_depth_two(self):
        edges = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 0, 5), (2, 1, 6)]
        mass = {n: Fraction(1, 4) for n in (3, 4, 5, 6)}
        dist = branching_node_distribution(build_tree(edges, mass))
        assert dist.mass == {0: Fraction(1, 2), 1: Fraction(1, 4),
                             2: Fraction(1, 4)}

    def test_sums_to_one_exactly(self):
        for i in range(40):
            dist = branching_node_distribution(corpus_tree(i))
            assert sum(dist.mass.values()) == 1

    def test_degenerate_tree_rejected(self):
        t = build_tree([], {0: Fraction(1)})
        with pytest.raises(DegenerateTree):
            branching_node_distribution(t)


class TestDifferentialLansit:
    def test_path_length_gives_one(self, demo_tree):
        report = differential_lansit_check(demo_tree, path_lengths(demo_tree))
        assert report.leaf_side == 1
        assert report.node_side == 1

    def test_constant_gives_zero(self, demo_tree):
        f = dict.fromkeys(demo_tree.nodes, Fraction(5))
        report = differential_lansit_check(demo_tree, f)
        assert report.leaf_side == 0 and report.node_side == 0

    def test_surprisal_gives_entropy_rate(self, demo_tree):
        report = differential_lansit_check(
            demo_tree, surprisal_functional(demo_tree)
        )
        assert report.leaf_side == Fraction(3, 5)
        assert report.residual == 0

    def test_residual_zero_on_corpus(self):
        for i in range(60):
            t = corpus_tree(i)
            report = differential_lansit_check(
                t, rational_functional(t, seed=95_000 + i)
            )
            assert report.residual == 0

    def test_degenerate_tree_rejected(self):
        t = build_tree([], {0: Fraction(1)})
        with pytest.raises(DegenerateTree):
            differential_lansit_check(t, {0: Fraction(1)})


class TestEntropyRate:
    def test_demo(self, demo_tree):
        rate = entropy_rate(demo_tree)
        assert rate == Fraction(3, 5)
        assert float(rate) == 0.6

    def test_equals_entropy_over_length(self):
        for i in range(40):
            t = corpus_tree(i)
            assert entropy_rate(t) == leaf_entropy(t) / expected_path_length(t)

    def test_iid_uniform_bits_rate_one(self):
        edges = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 0, 5), (2, 1, 6)]
        mass = {n: Fraction(1, 4) for n in (3, 4, 5, 6)}
        assert entropy_rate(build_tree(edges, mass)) == 1

    def test_deterministic_path_rate_zero(self):
        t = build_tree([(0, "a", 1), (1, "a", 2)], {2: Fraction(1)})
        assert entropy_rate(t) == 0


class TestNormalizedDivergence:
    def test_self_is_zero(self, demo_tree):
        assert normalized_divergence(demo_tree, demo_tree) == 0

    def test_equals_divergence_over_length(self, demo_tree, demo_q_tree):
        nd = normalized_divergence(demo_tree, demo_q_tree)
        assert nd == tree_divergence(demo_tree, demo_q_tree) / Fraction(5, 2)
        assert nd == Fraction(1, 10)

    def test_equality_on_corpus(self):
        for i in range(40):
            p = corpus_tree(i)
            q = remass(p, seed=96_000 + i)
            assert normalized_divergence(p, q) == (
                tree_divergence(p, q) / expected_path_length(p)
            )

    def test_zero_iff_branching_dists_match(self):
        for i in range(20):
            p = corpus_tree(i)
            assert normalized_divergence(p, p) == 0
            q = remass(p, seed=97_000 + i)
            if any(q.leaf_mass[leaf] != p.leaf_mass[leaf] for leaf in p.leaves):
                assert normalized_divergence(p, q) > 0

    def test_infinite_when_uncovered(self, demo_tree):
        slim = build_tree(
            [(0, "a", 1), (0, "b", 2), (1, "a", 3)],
            {2: Fraction(1, 4), 3: Fraction(3, 4)},
        )
        assert normalized_divergence(demo_tree, slim) == math.inf

    def test_degenerate_tree_rejected(self):
        t = build_tree([], {0: Fraction(1)})
        with pytest.raises(DegenerateTree):
            normalized_divergence(t, t)


class TestFunctionalBuilders:
    def test_surprisal_leaf_side_is_entropy(self, demo_tree):
        report = lansit_check(demo_tree, surprisal_functional(demo_tree))
        assert report.leaf_side == leaf_entropy(demo_tree)
        assert report.residual == 0

    def test_log_ratio_leaf_side_is_divergence(self, demo_tree, demo_q_tree):
        f = log_ratio_functional(demo_tree, demo_q_tree)
        report = lansit_check(demo_tree, f)
        assert report.leaf_side == tree_divergence(demo_tree, demo_q_tree)
        assert report.residual == 0

    def test_log_ratio_requires_identical_shape(self, demo_tree):
        slim = build_tree(
            [(0, "a", 1), (0, "b", 2), (1, "a", 3)],
            {2: Fraction(1, 4), 3: Fraction(3, 4)},
        )
        with pytest.raises(ShapeMismatch):
            log_ratio_functional(demo_tree, slim)

    def test_surprisal_float_mode(self, demo_tree_float):
        report = lansit_check(demo_tree_float, surprisal_functional(demo_tree_float))
        assert not report.exact
        assert report.holds()
        assert report.leaf_side == pytest.approx(1.5)


def exact_signature(value):
    """The value with its type and, for an ExactLog2, its coefficient types."""
    if isinstance(value, ExactLog2):
        return ExactLog2, {p: (type(c), c) for p, c in value._coef.items()}
    return type(value), value


def mixed_masses(leaves, weights, denominators):
    """Positive rational masses over ``leaves`` with mixed denominators."""
    raw = [Fraction(w, d) for w, d in zip(weights, denominators)]
    total = sum(raw)
    return {leaf: m / total for leaf, m in zip(leaves, raw)}


@st.composite
def exact_tree_triples(draw):
    """(p, q, spec): p a random exact tree (unary branching nodes included)
    or a bare root, q the same shape with other masses, and a full-support
    product spec on p's labels, all with mixed denominators."""
    if draw(st.integers(0, 9)) == 0:
        p = q = build_tree([], {"r": Fraction(1)})
        labels = [0, 1]
    else:
        params = GeneratorParams(
            alphabet_size=draw(st.integers(2, 4)),
            max_depth=draw(st.integers(1, 4)),
            branching_probability=draw(st.floats(0.2, 0.8)),
            seed=draw(st.integers(0, 10_000)),
        )
        shape = generate_random_tree(params)
        edges, leaves = edges_of(shape), shape.leaves
        trees = []
        for _ in range(2):
            n = len(leaves)
            weights = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
            dens = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
            trees.append(build_tree(edges, mixed_masses(leaves, weights, dens)))
        p, q = trees
        labels = p.label_alphabet
    weights = draw(st.lists(st.integers(1, 30), min_size=len(labels), max_size=len(labels)))
    dens = draw(st.lists(st.integers(1, 9), min_size=len(labels), max_size=len(labels)))
    spec = ProductSpec(FiniteDistribution(mixed_masses(labels, weights, dens)))
    return p, q, spec


class TestMassTable:
    @settings(deadline=None, max_examples=60)
    @given(exact_tree_triples())
    def test_integer_table_gives_the_node_masses(self, triple):
        for tree in triple[:2]:
            n = tree.mass_numerators
            d = n[tree.root]
            assert d == math.lcm(*(m.denominator for m in tree.leaf_mass.values()))
            for v in tree.nodes:
                assert type(n[v]) is int
                assert tree.node_mass[v] == Fraction(n[v], d)
                if tree.children[v]:
                    assert n[v] == sum(n[c] for _, c in tree.children[v])


MATCHER_SPECS = [
    {0: Fraction(2, 3), 1: Fraction(1, 3)},
    {0: Fraction(1, 6), 1: Fraction(1, 2), 2: Fraction(1, 3)},
    {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 4)},
]


class TestLogIncrementSum:
    """Exact leaf entropy and both divergences, summed as integer increments
    over one denominator, are the per-branch sums of entropy_of and kl_of,
    value and type alike, and equal their leaf-side oracles."""

    @staticmethod
    def check(p, q, spec):
        base = spec.base.mass
        mapping, covered = align_by_paths(p, q)
        assert covered
        ref = q.branching
        references = [
            (
                leaf_entropy(p),
                branch_sum(p, lambda j, dist: entropy_of(dist.values(), True), True),
                leaf_entropy_oracle(p),
            ),
            (
                tree_divergence(p, q),
                branch_sum(
                    p,
                    lambda j, dist: kl_of(
                        ((m, ref[mapping[j]][lab]) for lab, m in dist.items()), True
                    ),
                    True,
                ),
                divergence_oracle(p, q),
            ),
            (
                product_branch_divergence(p, spec),
                branch_sum(
                    p,
                    lambda j, dist: kl_of(((m, base[lab]) for lab, m in dist.items()), True),
                    True,
                ),
                divergence_to_product(p, spec),
            ),
        ]
        for value, per_branch, leaf_side in references:
            assert exact_signature(value) == exact_signature(per_branch)
            assert value == leaf_side

    @settings(deadline=None, max_examples=60)
    @given(exact_tree_triples())
    def test_random_trees(self, triple):
        self.check(*triple)

    def test_bare_root_gives_a_fraction_zero(self):
        bare = build_tree([], {"r": Fraction(1)})
        spec = ProductSpec.uniform([0, 1])
        for value in (
            leaf_entropy(bare),
            tree_divergence(bare, bare),
            product_branch_divergence(bare, spec),
        ):
            assert exact_signature(value) == (Fraction, Fraction(0))

    @pytest.mark.parametrize("budget", [16, 64, 256])
    @pytest.mark.parametrize("target", MATCHER_SPECS, ids=["2", "3", "4"])
    def test_matchers(self, target, budget):
        spec = ProductSpec(FiniteDistribution(target))
        p = grow_matcher_tree(spec, budget)
        self.check(p, remass(p, seed=budget), spec)
