import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import corpus_tree, edges_of, float_mirror
from treeprob import (
    CycleDetected,
    DuplicateSiblingLabel,
    LeafMassMismatch,
    MassNotNormalized,
    MultipleParents,
    MultipleRoots,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    branching_distributions,
    build_tree,
    expected_path_length,
    node_probabilities,
    path_lengths,
    structurally_equal,
)
from conftest import DEMO_EDGES, DEMO_MASS

half = Fraction(1, 2)


class TestBuildTree:
    def test_demo_roles(self, demo_tree):
        assert set(demo_tree.leaves) == {2, 5, 6}
        assert set(demo_tree.branching_nodes) == {0, 1, 3}
        assert demo_tree.root == 0
        assert demo_tree.exact

    def test_demo_paths(self, demo_tree):
        assert demo_tree.path_of(6) == ("a", "a", "b")
        assert demo_tree.path_of(0) == ()
        assert demo_tree.depth_of(5) == 3
        assert demo_tree.label_alphabet == ("a", "b")

    def test_preorder_starts_at_root_and_counts_all(self, demo_tree):
        assert demo_tree.nodes[0] == 0
        assert len(demo_tree.nodes) == 6

    def test_mode_inference(self):
        t = build_tree([(0, "x", 1), (0, "y", 2)], {1: 0.5, 2: 0.5})
        assert not t.exact
        t = build_tree([(0, "x", 1), (0, "y", 2)], {1: half, 2: half})
        assert t.exact

    def test_exact_mode_refuses_floats(self):
        with pytest.raises(ParamsInvalid):
            build_tree([(0, "x", 1), (0, "y", 2)], {1: 0.5, 2: 0.5}, exact=True)

    def test_forced_float_converts(self):
        t = build_tree([(0, "x", 1), (0, "y", 2)], {1: half, 2: half}, exact=False)
        assert not t.exact
        assert t.leaf_mass[1] == 0.5

    def test_single_node_tree(self):
        t = build_tree([], {7: Fraction(1)})
        assert t.root == 7
        assert t.leaves == (7,)
        assert t.branching_nodes == ()

    def test_wide_star_is_linear(self):
        width = 16_000
        edges = [(0, i, i + 1) for i in range(width)]
        start = time.perf_counter()
        tree = build_tree(edges, {i + 1: Fraction(1, width) for i in range(width)})
        assert len(tree.children[0]) == width
        # a sibling-label check that scans the child list takes several seconds here
        assert time.perf_counter() - start < 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ParamsInvalid):
            build_tree([], {})


class TestValidationErrors:
    def test_two_parents(self):
        edges = [(0, "a", 1), (0, "b", 2), (2, "a", 1)]
        with pytest.raises(MultipleParents):
            build_tree(edges, {1: half, 2: half})

    def test_duplicate_sibling_label(self):
        edges = [(0, "a", 1), (0, "a", 2)]
        with pytest.raises(DuplicateSiblingLabel, match="node 0 has two children labeled 'a'"):
            build_tree(edges, {1: half, 2: half})

    def test_two_roots(self):
        edges = [(0, "a", 1), (9, "a", 2)]
        with pytest.raises(MultipleRoots):
            build_tree(edges, {1: half, 2: half})

    def test_pure_cycle_has_no_root(self):
        edges = [(0, "a", 1), (1, "a", 0)]
        with pytest.raises(CycleDetected):
            build_tree(edges, {0: Fraction(1)})

    def test_cycle_beside_the_root(self):
        edges = [(0, "a", 1), (2, "a", 3), (3, "a", 2)]
        with pytest.raises(CycleDetected):
            build_tree(edges, {1: Fraction(1)})

    def test_mass_on_internal_node(self):
        edges = [(0, "a", 1), (1, "a", 2), (1, "b", 3)]
        with pytest.raises(LeafMassMismatch):
            build_tree(edges, {1: half, 2: Fraction(1, 4), 3: Fraction(1, 4)})

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            build_tree([(0, "a", 1), (0, "b", 2)], {1: Fraction(3, 2), 2: -half})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass(self, bad):
        with pytest.raises(NonFiniteMass):
            build_tree([(0, "a", 1), (0, "b", 2)], {1: bad, 2: 0.3})

    def test_mass_past_the_float_range_in_float_mode(self):
        with pytest.raises(NonFiniteMass):
            build_tree(
                [(0, "a", 1), (0, "b", 2)], {1: Fraction(10**400), 2: half}, exact=False
            )

    def test_unnormalized_exact(self):
        with pytest.raises(MassNotNormalized):
            build_tree([(0, "a", 1), (0, "b", 2)], {1: half, 2: Fraction(1, 3)})

    def test_unnormalized_float(self):
        with pytest.raises(MassNotNormalized):
            build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.5, 2: 0.4})

    def test_float_tolerance_accepts_tiny_drift(self):
        t = build_tree([(0, "a", 1), (0, "b", 2)], {1: 0.5, 2: 0.5 + 4e-10})
        assert not t.exact


class TestPruning:
    def test_zero_mass_leaf_removed(self):
        edges = [(0, "a", 1), (0, "b", 2), (0, "c", 3)]
        t = build_tree(edges, {1: half, 2: half, 3: Fraction(0)})
        assert set(t.leaves) == {1, 2}
        assert all(c != 3 for _, c in t.children[0])

    def test_branch_with_only_zero_mass_removed(self):
        edges = [(0, "a", 1), (0, "b", 2), (2, "a", 3), (2, "b", 4)]
        t = build_tree(edges, {1: Fraction(1), 3: Fraction(0), 4: Fraction(0)})
        assert set(t.nodes) == {0, 1}
        assert t.branching_nodes == (0,)

    def test_implicit_zero_for_unlisted_childless_node(self):
        edges = [(0, "a", 1), (0, "b", 2)]
        t = build_tree(edges, {1: Fraction(1)})
        assert set(t.nodes) == {0, 1}

    @staticmethod
    def padded(at, exact):
        """Root r over branch b (leaves b0, b1, b2) and leaf c, all positive,
        with a zero-mass leaf and an all-zero branch inserted at index ``at``
        among the children of r and of b; labels are the child ids."""
        edges = []
        for parent, kids in (("r", ["b", "c"]), ("b", ["b0", "b1", "b2"])):
            kids[at:at] = [parent + "z", parent + "w"]
            edges += [(parent, kid, kid) for kid in kids]
            edges += [(parent + "w", parent + "w" + x, parent + "w" + x) for x in "01"]
        positive = {"b0": Fraction(1, 10), "b1": Fraction(1, 5), "b2": Fraction(3, 10),
                    "c": Fraction(2, 5)}
        zero = dict.fromkeys(["rz", "rw0", "rw1", "bz", "bw0"], Fraction(0))
        mass = {**positive, **zero}
        if not exact:
            mass = {v: float(m) for v, m in mass.items()}
            mass["bw1"] = -0.0
        else:
            mass["bw1"] = Fraction(0)
        return build_tree(edges, mass, exact=exact), positive

    @pytest.mark.parametrize("at", [0, 1, 9], ids=["first", "between", "last"])
    def test_sums_are_those_of_the_pruned_tree(self, at):
        for exact in (True, False):
            t, positive = self.padded(at, exact)
            assert set(t.nodes) == {"r", "b", "c", *positive}
            # recomputed over the pruned children in stored order, as the
            # old prune-then-sum did
            expected = {}
            for v in reversed(t.nodes):
                kids = [c for _, c in t.children[v]]
                if not kids:
                    expected[v] = positive[v] * 10 if exact else float(positive[v])
                    continue
                total = expected[kids[0]]
                for c in kids[1:]:
                    total = total + expected[c]
                expected[v] = total
            if exact:
                assert t.mass_numerators[t.root] == 10
                assert {v: (type(n), n) for v, n in t.mass_numerators.items()} == {
                    v: (int, n) for v, n in expected.items()
                }
            else:
                assert {v: q.hex() for v, q in t.node_mass.items()} == {
                    v: q.hex() for v, q in expected.items()
                }

    def test_pruning_idempotent(self):
        edges = [(0, "a", 1), (0, "b", 2), (2, "a", 3)]
        t = build_tree(edges, {1: Fraction(1), 3: Fraction(0)})
        again = build_tree(edges_of(t), dict(t.leaf_mass))
        assert structurally_equal(t, again)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_rebuild_of_generated_tree_is_identity(self, i):
        t = corpus_tree(i % 64)
        again = build_tree(edges_of(t), dict(t.leaf_mass))
        assert structurally_equal(t, again)


class TestNodeProbabilities:
    def test_demo_values(self, demo_tree):
        q = node_probabilities(demo_tree)
        assert q[0] == 1
        assert q[1] == Fraction(3, 4)
        assert q[3] == Fraction(3, 4)
        assert q[2] == Fraction(1, 4)

    def test_derived_maps_are_cached_on_the_tree(self, demo_tree):
        for derive in (
            node_probabilities,
            branching_distributions,
            path_lengths,
            expected_path_length,
        ):
            assert derive(demo_tree) is derive(demo_tree)
        for name in ("leaves", "branching_nodes", "label_alphabet"):
            assert getattr(demo_tree, name) is getattr(demo_tree, name)

    def test_mean_length_does_not_build_branching_distributions(self, demo_tree, demo_tree_float):
        for tree in (demo_tree, demo_tree_float):
            assert tree.mean_length == Fraction(5, 2)
            assert "branching" not in vars(tree)

    def test_child_sums_exact(self):
        for i in range(20):
            t = corpus_tree(i)
            q = node_probabilities(t)
            for j in t.branching_nodes:
                assert sum(q[c] for _, c in t.children[j]) == q[j]

    def test_child_sums_float(self):
        for i in range(20):
            t = float_mirror(corpus_tree(i))
            q = node_probabilities(t)
            for j in t.branching_nodes:
                total = 0.0
                for _, c in t.children[j]:
                    total += q[c]
                assert abs(total - q[j]) <= 1e-12 * max(1.0, abs(q[j]))

    def test_monotone_along_edges(self):
        for i in range(20):
            t = corpus_tree(i)
            q = node_probabilities(t)
            for node in t.nodes:
                for _, child in t.children[node]:
                    assert q[child] <= q[node]

    def test_reconstruction_from_branching_distributions(self):
        # products of branching masses along each root-to-leaf path
        for i in range(20):
            t = corpus_tree(i)
            dists = branching_distributions(t)
            for leaf in t.leaves:
                prob = Fraction(1)
                node = leaf
                chain = []
                while node != t.root:
                    parent, label = t.parent_edge[node]
                    chain.append((parent, label))
                    node = parent
                for parent, label in chain:
                    prob *= dists[parent][label]
                assert prob == t.leaf_mass[leaf]

    def test_shuffled_edge_order_same_quantities_exact(self, demo_tree):
        rng = random.Random(5)
        edges = edges_of(demo_tree)
        for _ in range(5):
            rng.shuffle(edges)
            t = build_tree(edges, dict(demo_tree.leaf_mass))
            assert node_probabilities(t) == node_probabilities(demo_tree)

    def test_shuffled_edge_order_same_quantities_float(self):
        base = corpus_tree(3)
        t = float_mirror(base)
        rng = random.Random(7)
        edges = edges_of(t)
        q_ref = node_probabilities(t)
        for _ in range(5):
            rng.shuffle(edges)
            shuffled = build_tree(edges, dict(t.leaf_mass), exact=False)
            q = node_probabilities(shuffled)
            for node, value in q_ref.items():
                assert abs(q[node] - value) <= 1e-12 * max(1.0, abs(value))


class TestBranchingDistributions:
    def test_demo_values(self, demo_tree):
        dists = branching_distributions(demo_tree)
        assert dists[3] == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
        assert dists[1] == {"a": Fraction(1)}
        assert dists[0] == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
        assert set(dists) == {0, 1, 3}

    def test_each_sums_to_one(self):
        for i in range(20):
            t = corpus_tree(i)
            for dist in branching_distributions(t).values():
                assert sum(dist.values()) == 1
                assert all(m > 0 for m in dist.values())


class TestPathLengths:
    def test_demo_values(self, demo_tree):
        w = path_lengths(demo_tree)
        assert w[0] == 0
        assert w[2] == 1
        assert w[5] == 3 and w[6] == 3

    def test_increment_is_one_per_edge(self):
        t = corpus_tree(11)
        w = path_lengths(t)
        for node in t.nodes:
            for _, child in t.children[node]:
                assert w[child] - w[node] == 1


class TestStructuralEquality:
    def test_ignores_node_ids(self):
        a = build_tree(DEMO_EDGES, DEMO_MASS)
        renamed = [(p * 10, lab, c * 10) for p, lab, c in DEMO_EDGES]
        b = build_tree(renamed, {k * 10: v for k, v in DEMO_MASS.items()})
        assert structurally_equal(a, b)

    def test_detects_mass_change(self, demo_tree, demo_q_tree):
        assert not structurally_equal(demo_tree, demo_q_tree)

    def test_detects_shape_change(self, demo_tree):
        other = build_tree(
            [(0, "a", 1), (0, "b", 2)], {1: Fraction(3, 4), 2: Fraction(1, 4)}
        )
        assert not structurally_equal(demo_tree, other)

    def test_deep_chain_is_linear(self):
        depth = 5000
        edges = [(i, "a", i + 1) for i in range(depth)]
        a = build_tree(edges, {depth: Fraction(1)})
        b = build_tree([(-p, lab, -c) for p, lab, c in edges], {-depth: Fraction(1)})
        start = time.perf_counter()
        assert structurally_equal(a, b)
        assert [a.depth_of(n) for n in a.nodes] == list(range(depth + 1))
        # a comparison costing nodes times depth takes several seconds here
        assert time.perf_counter() - start < 1.0
