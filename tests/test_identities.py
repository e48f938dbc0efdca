import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    branch_sum,
    complete_tree,
    corpus_tree,
    differential_lansit_check,
    divergence_to_product,
    edges_of,
    exact_entropy_of,
    exact_entropy_term,
    exact_kl_term,
    exact_signature,
    float_functional,
    float_mirror,
    informative_tree,
    kl_of,
    leaf_log_sum_reference,
    log_ratio_functional,
    merged_increment_sum,
    rational_functional,
    remass,
)
from treeprob import (
    DegenerateTree,
    FiniteDistribution,
    FunctionalIncomplete,
    GeneratorParams,
    LansitReport,
    ProductSpec,
    ShapeMismatch,
    branching_node_distribution,
    build_tree,
    entropy_rate,
    expected_path_length,
    generate_random_tree,
    grow_matcher_tree,
    lansit_check,
    leaf_entropy,
    parse_tree,
    path_lengths,
    product_branch_divergence,
    serialize_tree,
    surprisal_functional,
    tree_divergence,
    tree_pinsker_report,
)
from treeprob import identities
from treeprob.numeric import ExactLog2, entropy_of, entropy_term, kl_term, log2_weighted_sum
from treeprob.tree import align_by_paths


def leaf_entropy_oracle(tree):
    term = exact_entropy_term if tree.exact else entropy_term
    return sum(term(m) for m in (tree.leaf_mass[leaf] for leaf in tree.leaves))


def divergence_oracle(p, q):
    term = exact_kl_term if p.exact and q.exact else kl_term
    return sum(term(p.leaf_mass[leaf], q.leaf_mass[leaf]) for leaf in p.leaves)


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
        tree = build_tree([(0, "a", 1), (0, "b", 2)], {1: Fraction(1, 2), 2: Fraction(1, 2)})
        for t in (tree, tree.as_float()):
            with pytest.raises(FunctionalIncomplete):
                lansit_check(t, {0: 0, 1: 1})

    def test_exact_node_side_takes_no_merge_order(self, monkeypatch):
        # an exact fold is order-free; only the float chain sorts its nodes
        def no_sort(tree):
            raise AssertionError("exact node side sorted its branching nodes")

        monkeypatch.setattr(identities, "_merge_order", no_sort)
        for i in range(20):
            t = informative_tree(i)
            f = rational_functional(t, seed=53_000 + i)
            report = lansit_check(t, f)
            assert report.residual == 0
            assert report.node_side == merged_increment_sum(t, f)
            g = {v: float(x) for v, x in f.items()}
            with pytest.raises(AssertionError, match="sorted"):
                lansit_check(t, g)

    def test_merge_order_is_deepest_first_then_preorder(self):
        # the stable sort of the preorder branching nodes by depth alone
        # gives the order of the (-depth, preorder index) key
        for family in (corpus_tree, informative_tree):
            for i in range(100):
                exact = family(i)
                for t in (exact, exact.as_float()):
                    index = {v: k for k, v in enumerate(t.nodes)}
                    want = sorted(t.branching_nodes, key=lambda j: (-t.depths[j], index[j]))
                    assert identities._merge_order(t) == want

    def test_random_functionals_exact(self):
        for family, seed in ((corpus_tree, 50_000), (informative_tree, 52_000)):
            for i in range(100):
                t = family(i)
                report = lansit_check(t, rational_functional(t, seed=seed + i))
                assert report.exact
                assert report.residual == 0

    def test_random_functionals_float(self):
        for family, seed in ((corpus_tree, 60_000), (informative_tree, 62_000)):
            for i in range(100):
                t = float_mirror(family(i))
                report = lansit_check(t, float_functional(t, seed=seed + i))
                assert not report.exact
                assert report.holds()

    def test_float_functional_on_exact_tree_downgrades(self, demo_tree):
        report = lansit_check(demo_tree, {n: float(n) for n in demo_tree.nodes})
        assert not report.exact
        assert report.holds()
        # an exact tree with a float functional runs as its float tree, bit
        # for bit, also when only one value is a float
        def bits(report):
            fields = (report.leaf_side, report.node_side, report.residual, report.scale)
            return report.exact, [(type(x), float(x).hex()) for x in fields]

        for family, seed in ((corpus_tree, 54_000), (informative_tree, 55_000)):
            for i in range(100):
                t = family(i)
                floats = float_functional(t, seed=seed + i)
                one_float = {**rational_functional(t, seed=seed + i), t.root: 0.5}
                for f in (floats, one_float):
                    float_tree = t.as_float()
                    assert bits(lansit_check(t, f)) == bits(lansit_check(float_tree, f))

    def test_functional_mode(self, demo_tree):
        # a float value anywhere in f gives the exact tree's float tree
        rational = {n: Fraction(n, 3) for n in demo_tree.nodes}
        assert identities.functional_mode(demo_tree, rational) is demo_tree
        float_tree = identities.functional_mode(demo_tree, {**rational, 6: 0.5})
        assert not float_tree.exact
        assert float_tree.leaf_mass == demo_tree.as_float().leaf_mass
        assert identities.functional_mode(float_tree, rational) is float_tree

    def test_float_functional_with_root_value_on_exact_tree(self, demo_tree):
        # the float tree's Q_root is the float sum of its leaf masses, here 1.0
        f = {n: float(n) + 5.0 for n in demo_tree.nodes}
        report = lansit_check(demo_tree, f)
        assert not report.exact
        assert report.leaf_side == report.node_side == 4.5
        assert report.residual == 0.0 and report.holds()

    def test_float_functionals_with_a_large_offset(self):
        # a shift of f by c changes neither side; the verdict scales with
        # the summed terms, of size c, not with the sides, of size 1
        for family, seed in ((corpus_tree, 60_000), (informative_tree, 64_000)):
            for i in range(100):
                t = float_mirror(family(i))
                f = {n: v + 1e12 for n, v in float_functional(t, seed=seed + i).items()}
                report = lansit_check(t, f)
                assert not report.exact
                assert report.holds(), (family, i, report)

    def test_float_masses_off_one_within_the_tolerance(self):
        for family, seed in ((corpus_tree, 61_000), (informative_tree, 65_000)):
            for i in range(100):
                t = family(i)
                mass = {leaf: float(m) * (1 + 5e-10) for leaf, m in t.leaf_mass.items()}
                ft = build_tree(edges_of(t), mass, exact=False)
                f = {n: v + 1e6 for n, v in float_functional(ft, seed=seed + i).items()}
                report = lansit_check(ft, f)
                assert report.holds(), (family, i, report)

    def test_float_node_side_is_within_rounding_of_the_exact_one(self):
        # a 60-deep caterpillar whose spine keeps 1/3 of the mass at each
        # level, so Q_j = 3^-depth(j), with f = path length: the float node
        # side lies within n u scale (2.0e-14 here) of the exact one, where
        # a node side that skipped the increments with Q_j < 1e-10 would be
        # off by 1.43e-10 and still pass the verdict's 1e-9 tolerance
        depth = 60
        edges, mass = [], {2 * depth: Fraction(1, 3**depth)}
        for d in range(depth):
            edges += [(2 * d, 0, 2 * d + 1), (2 * d, 1, 2 * d + 2)]
            mass[2 * d + 1] = Fraction(2, 3 ** (d + 1))
        tree = build_tree(edges, mass)
        assert len(tree.nodes) == 121
        exact = lansit_check(tree, path_lengths(tree))
        float_tree = tree.as_float()
        report = lansit_check(float_tree, path_lengths(float_tree))
        bound = len(tree.nodes) * 2.0**-53 * report.scale
        assert abs(report.node_side - float(exact.node_side)) <= bound
        assert report.holds()

    def test_float_sides_of_a_bare_root_are_floats(self):
        # a tree without branching nodes: both float sides are 0.0, in the
        # tree's mode, and the exact sides are exact zeros
        report = lansit_check(build_tree([], {0: 1.0}, exact=False), {0: 0.5})
        sides = (report.leaf_side, report.node_side, report.residual)
        assert [(type(x), x) for x in sides] == [(float, 0.0)] * 3
        assert report.holds()
        report = lansit_check(build_tree([], {0: Fraction(1)}), {0: Fraction(1, 2)})
        assert report.leaf_side == report.node_side == report.residual == 0
        assert report.exact and report.holds()

    def test_float_verdict_scales_its_tolerance_from_one(self):
        # |residual| <= 1e-9 * max(1, scale): at scale 1.0 the tolerance is
        # 1e-9, at scale 1e3 it is 1e-6; each is probed just above and below
        def holds(residual, scale):
            return LansitReport(1.0 + residual, 1.0, residual, False, scale).holds()

        assert not holds(2e-9, 1.0)
        assert holds(5e-10, 1.0)
        assert not holds(2e-6, 1e3)
        assert holds(5e-7, 1e3)

    def test_infinite_residual_fails_whatever_the_scale(self):
        # terms past the float range must not excuse sides that differ
        assert not LansitReport(math.inf, 1.0, math.inf, False, math.inf).holds()
        assert LansitReport(2.0, 2.0 + 1e-7, -1e-7, False, 1e3).holds()

    def test_merged_equals_direct_bitwise(self):
        # float: the same elementary operations in the same order; exact:
        # the same terms in another grouping, so the same canonical value
        # with the same coefficient types
        families = ((corpus_tree, 70_000, 80_000), (informative_tree, 72_000, 82_000))
        for family, exact_seed, float_seed in families:
            for i in range(60):
                t = family(i)
                for f in (rational_functional(t, seed=exact_seed + i), surprisal_functional(t)):
                    merged, direct = merged_increment_sum(t, f), lansit_check(t, f).node_side
                    assert merged == direct
                    assert exact_signature(merged) == exact_signature(direct)
                ft = float_mirror(t)
                g = float_functional(ft, seed=float_seed + i)
                merged = merged_increment_sum(ft, g)
                direct = lansit_check(ft, g).node_side
                assert merged == direct  # bit-identical floats, not approx


class TestExpectedPathLength:
    def test_demo(self, demo_tree):
        assert expected_path_length(demo_tree) == Fraction(5, 2)

    def test_equals_leaf_average(self):
        for family in (corpus_tree, informative_tree):
            for i in range(40):
                t = family(i)
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
        for family in (corpus_tree, informative_tree):
            for i in range(40):
                t = family(i)
                assert leaf_entropy(t) == leaf_entropy_oracle(t)

    def test_equals_leaf_side_float(self):
        for family in (corpus_tree, informative_tree):
            for i in range(40):
                t = float_mirror(family(i))
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
        for family, seed in ((corpus_tree, 90_000), (informative_tree, 93_000)):
            for i in range(40):
                p = family(i)
                q = remass(p, seed=seed + i)
                assert tree_divergence(p, q) == divergence_oracle(p, q)

    def test_branch_form_equals_leaf_form_float(self):
        for family, seed in ((corpus_tree, 91_000), (informative_tree, 94_000)):
            for i in range(40):
                p0 = family(i)
                p = float_mirror(p0)
                q = float_mirror(remass(p0, seed=seed + i))
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
        for family, seed in ((corpus_tree, 92_000), (informative_tree, 57_000)):
            for i in range(40):
                p = family(i)
                q = remass(p, seed=seed + i)
                assert tree_divergence(p, q) >= 0


class TestBranchingNodeDistribution:
    def test_demo(self, demo_tree):
        dist = branching_node_distribution(demo_tree)
        assert dist == {0: Fraction(2, 5), 1: Fraction(3, 10), 3: Fraction(3, 10)}
        assert demo_tree.mean_length == Fraction(5, 2)

    def test_star_tree(self):
        t = build_tree([(0, "a", 1), (0, "b", 2)],
                       {1: Fraction(1, 3), 2: Fraction(2, 3)})
        assert branching_node_distribution(t) == {0: Fraction(1)}

    def test_uniform_depth_two(self):
        edges = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 0, 5), (2, 1, 6)]
        mass = {n: Fraction(1, 4) for n in (3, 4, 5, 6)}
        dist = branching_node_distribution(build_tree(edges, mass))
        assert dist == {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}

    def test_sums_to_one_exactly(self):
        for family in (corpus_tree, informative_tree):
            for i in range(40):
                dist = branching_node_distribution(family(i))
                assert sum(dist.values()) == 1

    def test_exact_mass_from_the_integer_table(self):
        # P_B(j) = n_j / N builds no Q: the tree's node_mass is never made
        for family in (corpus_tree, informative_tree):
            for i in range(200):
                t = family(i)
                if not t.branching_nodes:
                    continue
                mass = branching_node_distribution(t)
                assert "node_mass" not in vars(t), i
                assert {type(m) for m in mass.values()} == {Fraction}, i
                assert mass == {j: t.node_mass[j] / t.mean_length for j in t.branching_nodes}, i

    def test_float_mass_is_q_over_mean_length(self):
        for family in (corpus_tree, informative_tree):
            for i in range(0, 200, 10):
                t = float_mirror(family(i))
                if t.branching_nodes:
                    got = branching_node_distribution(t)
                    want = {j: t.node_mass[j] / t.mean_length for j in t.branching_nodes}
                    assert [m.hex() for m in got.values()] == [m.hex() for m in want.values()]

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
        for family in (corpus_tree, informative_tree):
            for i in range(60):
                t = family(i)
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
        for family in (corpus_tree, informative_tree):
            for i in range(40):
                t = family(i)
                assert entropy_rate(t) == leaf_entropy(t) / expected_path_length(t)

    def test_iid_uniform_bits_rate_one(self):
        edges = [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 0, 5), (2, 1, 6)]
        mass = {n: Fraction(1, 4) for n in (3, 4, 5, 6)}
        assert entropy_rate(build_tree(edges, mass)) == 1

    def test_deterministic_path_rate_zero(self):
        t = build_tree([(0, "a", 1), (1, "a", 2)], {2: Fraction(1)})
        assert entropy_rate(t) == 0


class TestNormalizedDivergence:
    """Bits per branch: D(P_L || P_L') over p's E[w(L)], the P_B-average of
    per-node divergences.  Its exact value is ``tree_divergence(p, q) /
    p.mean_length``; the Pinsker report carries it as a float."""

    def test_self_is_zero(self, demo_tree):
        assert tree_divergence(demo_tree, demo_tree) / demo_tree.mean_length == 0
        assert tree_pinsker_report(demo_tree, demo_tree).normalized_divergence == 0

    def test_equals_divergence_over_length(self, demo_tree, demo_q_tree):
        nd = tree_divergence(demo_tree, demo_q_tree) / demo_tree.mean_length
        assert nd == tree_divergence(demo_tree, demo_q_tree) / Fraction(5, 2)
        assert nd == Fraction(1, 10)
        assert tree_pinsker_report(demo_tree, demo_q_tree).normalized_divergence == 0.1

    def test_equality_on_corpus(self):
        for family, seed in ((corpus_tree, 96_000), (informative_tree, 98_000)):
            for i in range(40):
                p = family(i)
                q = remass(p, seed=seed + i)
                assert tree_pinsker_report(p, q).normalized_divergence == float(
                    tree_divergence(p, q) / expected_path_length(p)
                )

    def test_zero_iff_branching_dists_match(self):
        for family, seed in ((corpus_tree, 97_000), (informative_tree, 99_000)):
            for i in range(20):
                p = family(i)
                assert tree_divergence(p, p) / p.mean_length == 0
                q = remass(p, seed=seed + i)
                if any(q.leaf_mass[leaf] != p.leaf_mass[leaf] for leaf in p.leaves):
                    assert tree_divergence(p, q) / p.mean_length > 0

    def test_infinite_when_uncovered(self, demo_tree):
        slim = build_tree(
            [(0, "a", 1), (0, "b", 2), (1, "a", 3)],
            {2: Fraction(1, 4), 3: Fraction(3, 4)},
        )
        assert tree_pinsker_report(demo_tree, slim).normalized_divergence == math.inf

    def test_degenerate_tree_rejected(self):
        t = build_tree([], {0: Fraction(1)})
        with pytest.raises(DegenerateTree):
            tree_pinsker_report(t, t)


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


class TestBranchSumMode:
    """Sums over the branching nodes run in the tree's mode: the exact fold
    on an exact tree, and the float sum from 0.0, left to right, on a float
    one.  The per-branch form is the oracle ``corpus.branch_sum``; the
    tree's mean length (inner value 1) and the leaf entropy (inner value
    H(P_{S_j})) must equal it, type and float bits included."""

    @staticmethod
    def chained(tree, values):
        q = tree.node_mass
        total = 0.0
        for j, v in zip(tree.branching, values):
            total = total + q[j] * v
        return total

    def test_exact_tree_with_rational_values_is_a_fraction(self, demo_tree):
        value = branch_sum(demo_tree, lambda j, dist: Fraction(1))
        assert exact_signature(value) == (Fraction, Fraction(5, 2))
        assert exact_signature(demo_tree.mean_length) == exact_signature(value)

    def test_float_tree_gives_a_float(self):
        for family in (corpus_tree, informative_tree):
            tree = float_mirror(family(9))
            values = [Fraction(1, 3)] * len(tree.branching)
            value = branch_sum(tree, lambda j, dist: Fraction(1, 3))
            assert type(value) is float
            assert value.hex() == self.chained(tree, values).hex()

    def test_float_chains_are_the_branch_sums(self):
        for family in (corpus_tree, informative_tree):
            for i in range(100):
                tree = float_mirror(family(i))
                for value, inner in (
                    (tree.mean_length, lambda j, dist: 1.0),
                    (leaf_entropy(tree), lambda j, dist: entropy_of(dist.values())),
                ):
                    assert type(value) is float
                    assert value.hex() == branch_sum(tree, inner).hex()

    def test_bare_exact_root_gives_a_fraction_zero(self):
        bare = build_tree([], {"r": Fraction(1)})
        bare_float = build_tree([], {"r": 1.0}, exact=False)
        spec = ProductSpec(FiniteDistribution({0: 0.5, 1: 0.5}, exact=False))
        value = branch_sum(bare, lambda j, dist: 0.5)
        assert exact_signature(value) == (Fraction, Fraction(0))
        assert exact_signature(branch_sum(bare_float, lambda j, dist: 1)) == (float, 0.0)
        for value in (leaf_entropy(bare_float), bare_float.mean_length):
            assert exact_signature(value) == (float, 0.0)
        # against a float reference the exact root runs as its float tree,
        # as the converted pair does
        for p in (bare, bare.as_float()):
            for value in (tree_divergence(p, bare_float), product_branch_divergence(p, spec)):
                assert exact_signature(value) == (float, 0.0)


class TestMassTable:
    @settings(deadline=None, max_examples=60)
    @given(exact_tree_triples())
    def test_integer_table_gives_the_node_masses(self, triple):
        for tree in triple[:2]:
            n = tree.mass_below
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
    """Exact leaf entropy and both divergences, folded over the leaves in
    integers over one denominator (the telescoped increment sums), are the
    per-branch sums (``corpus.branch_sum``) of exact_entropy_of and kl_of,
    value and type alike, and equal
    their leaf-side oracles."""

    @staticmethod
    def check(p, q, spec):
        base = spec.base.mass
        mapping, covered = align_by_paths(p, q)
        assert covered
        ref = q.branching
        references = [
            (
                leaf_entropy(p),
                branch_sum(p, lambda j, dist: exact_entropy_of(dist.values())),
                leaf_entropy_oracle(p),
            ),
            (
                tree_divergence(p, q),
                branch_sum(
                    p,
                    lambda j, dist: kl_of(
                        ((m, ref[mapping[j]][lab]) for lab, m in dist.items()), True
                    ),
                ),
                divergence_oracle(p, q),
            ),
            (
                product_branch_divergence(p, spec),
                branch_sum(
                    p,
                    lambda j, dist: kl_of(((m, base[lab]) for lab, m in dist.items()), True),
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


class TestGroupedLeafFold:
    """``leaf_log_sum`` groups leaves by their ratio objects, passes one
    triple per group, and factors each integer of those ratios once; every
    value equals the per-leaf fold (``corpus.leaf_log_sum_reference``),
    coefficient types included."""

    @staticmethod
    def check(p, q, spec):
        mapping, covered = align_by_paths(p, q)
        assert covered
        ref = {v: q.leaf_mass[mapping[v]] for v in p.leaf_mass}
        inverse = {lab: 1 / m for lab, m in spec.base.mass.items()}
        pairs = [
            (leaf_entropy(p), leaf_log_sum_reference(p, [(-1, p.leaf_mass)])),
            (
                tree_divergence(p, q),
                leaf_log_sum_reference(p, [(1, p.leaf_mass), (-1, ref)]),
            ),
            (
                product_branch_divergence(p, spec),
                leaf_log_sum_reference(p, [(1, p.leaf_mass)], inverse),
            ),
        ]
        for value, reference in pairs:
            assert exact_signature(value) == exact_signature(reference)

    def test_corpus_against_itself_and_remassed(self):
        families = ((corpus_tree, 70_000, 80_000), (informative_tree, 74_000, 84_000))
        for family, seed, other_seed in families:
            for i in range(200):
                p = family(i)
                spec = ProductSpec.uniform(p.label_alphabet or [0])
                self.check(p, p, spec)
                self.check(p, remass(p, seed=seed + i), spec)
                self.check(remass(p, seed=other_seed + i), p, spec)

    @pytest.mark.parametrize("budget", [243, 2187])
    def test_large_matchers(self, budget):
        spec = ProductSpec(FiniteDistribution(MATCHER_SPECS[1]))
        p = grow_matcher_tree(spec, budget)
        self.check(p, p, spec)
        self.check(p, remass(p, seed=budget), spec)

    @pytest.fixture
    def triple_counts(self, monkeypatch):
        """The number of triples each ``log2_weighted_sum`` call receives
        from the leaf fold."""
        counts = []

        def counted(terms, denominator=1):
            terms = list(terms)
            counts.append(len(terms))
            return log2_weighted_sum(terms, denominator)

        monkeypatch.setattr(identities, "log2_weighted_sum", counted)
        return counts

    def test_one_triple_per_mass_object(self, triple_counts):
        # the matcher shares one Fraction per level among its leaves, and
        # parsing shares one per distinct mass string
        spec = ProductSpec(FiniteDistribution(MATCHER_SPECS[1]))
        matcher = grow_matcher_tree(spec, 2187)
        parsed = parse_tree(serialize_tree(matcher))
        for tree in (matcher, parsed):
            objects = len({id(m) for m in tree.leaf_mass.values()})
            assert objects < 20 < len(tree.leaf_mass)
            triple_counts.clear()
            leaf_entropy(tree)
            product_branch_divergence(tree, spec)
            assert len(triple_counts) == 2
            assert max(triple_counts) <= objects + len(spec.alphabet)

    def test_fresh_mass_objects_fold_alike(self):
        # one Fraction per leaf: equal values, no shared objects, so every
        # leaf is its own group and only the integer map merges them
        spec = ProductSpec(FiniteDistribution(MATCHER_SPECS[1]))
        matcher = grow_matcher_tree(spec, 2187)
        copies = {v: Fraction(m.numerator, m.denominator) for v, m in matcher.leaf_mass.items()}
        fresh = build_tree(edges_of(matcher), copies)
        assert len({id(m) for m in fresh.leaf_mass.values()}) == len(fresh.leaf_mass)
        for value, reference in (
            (leaf_entropy(fresh), leaf_entropy(matcher)),
            (product_branch_divergence(fresh, spec), product_branch_divergence(matcher, spec)),
            (tree_divergence(fresh, matcher), tree_divergence(matcher, matcher)),
            (tree_divergence(matcher, fresh), tree_divergence(matcher, matcher)),
        ):
            assert exact_signature(value) == exact_signature(reference)

    def test_folds_that_cancel_keep_an_empty_log(self):
        chain = build_tree([("r", "a", "x"), ("x", "b", "y")], {"y": Fraction(1)})
        uniform = complete_tree(2, 2, seed=0)
        uniform = build_tree(edges_of(uniform), dict.fromkeys(uniform.leaves, Fraction(1, 4)))
        spec = ProductSpec.uniform([0, 1])
        for value in (
            leaf_entropy(chain),
            tree_divergence(uniform, uniform),
            product_branch_divergence(uniform, spec),
        ):
            assert exact_signature(value) == (ExactLog2, {})
        self.check(chain, chain, ProductSpec.uniform(["a", "b"]))
        self.check(uniform, uniform, spec)
