import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    aligned_references,
    build_tree_reference,
    corpus_tree,
    edges_of,
    float_mirror,
    informative_tree,
    path_alignment,
    tree_tables,
)
from treeprob import (
    CycleDetected,
    DuplicateSiblingLabel,
    FiniteDistribution,
    LeafMassMismatch,
    MassNotNormalized,
    MultipleParents,
    MultipleRoots,
    NegativeMass,
    NonFiniteMass,
    ParamsInvalid,
    ProductSpec,
    ShapeMismatch,
    TreeProbError,
    build_tree,
    expected_path_length,
    grow_matcher_tree,
    node_probabilities,
    path_lengths,
    structurally_equal,
)
from treeprob.tree import align_by_paths
from conftest import DEMO_EDGES, DEMO_MASS

half = Fraction(1, 2)

# each error case runs on the edge containers callers pass
EDGE_SHAPES = {"list": list, "tuple": tuple, "generator": lambda edges: (e for e in edges)}
edge_shapes = pytest.mark.parametrize("shape", EDGE_SHAPES.values(), ids=EDGE_SHAPES.keys())


def raised(build, edges, mass) -> tuple[type, str]:
    """The type and message of the TreeProbError that ``build`` raises."""
    with pytest.raises(TreeProbError) as info:
        build(edges, mass)
    return type(info.value), str(info.value)


class TestBuildTree:
    def test_demo_roles(self, demo_tree):
        assert set(demo_tree.leaves) == {2, 5, 6}
        assert set(demo_tree.branching_nodes) == {0, 1, 3}
        assert demo_tree.root == 0
        assert demo_tree.exact

    def test_demo_paths(self, demo_tree):
        assert demo_tree.path_of(6) == ("a", "a", "b")
        assert demo_tree.path_of(0) == ()
        assert demo_tree.depths[5] == 3
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

    def test_exact_leaf_fractions_are_kept(self):
        for t in (family(i) for family in (corpus_tree, informative_tree) for i in range(20)):
            # fresh objects, equal to the corpus tree's masses
            masses = {
                v: Fraction(m.numerator, m.denominator)
                for v, m in t.leaf_mass.items()
            }
            rebuilt = build_tree(edges_of(t), masses)
            assert rebuilt == t
            for v, m in masses.items():
                assert rebuilt.leaf_mass[v] is m
        # other rationals still become Fractions
        t = build_tree([(0, "x", 1), (0, "y", 2)], {1: 1, 2: 0})
        assert type(t.leaf_mass[1]) is Fraction
        assert t.leaf_mass == {1: Fraction(1)}

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_nothing_pruned(self, exact):
        # edges out of preorder and masses in neither order: the fields keep
        # preorder keys, edge-order children and the callers' mass order
        edges = [(1, "x", 3), (0, "a", 1), (0, "b", 2), (1, "y", 4)]
        masses = {4: Fraction(1, 4), 2: half, 3: Fraction(1, 4)}
        if not exact:
            masses = {v: float(m) for v, m in masses.items()}
        tree = build_tree(edges, masses)
        assert tree.exact is exact
        assert tree.root == 0
        assert tree.nodes == (0, 1, 3, 4, 2)
        assert list(tree.children.items()) == [
            (0, (("a", 1), ("b", 2))),
            (1, (("x", 3), ("y", 4))),
            (3, ()),
            (4, ()),
            (2, ()),
        ]
        assert list(tree.leaf_mass.items()) == list(masses.items())
        assert tree.parent_edge == {1: (0, "a"), 2: (0, "b"), 3: (1, "x"), 4: (1, "y")}
        below = [4, 2, 1, 1, 2] if exact else [1.0, 0.5, 0.25, 0.25, 0.5]
        assert list(tree.mass_below.items()) == list(zip(tree.nodes, below))
        fields = (dict(tree.children), dict(tree.leaf_mass), dict(tree.parent_edge))
        edges.append((2, "z", 5))
        masses[5] = masses.pop(4)
        masses[2] = masses[3]
        assert (tree.children, tree.leaf_mass, tree.parent_edge) == fields
        assert tree.nodes == (0, 1, 3, 4, 2)


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

    # Each case below runs on the given edges as a list, a tuple and a
    # generator, and the builder must raise what the per-edge reference
    # builder raises, with the same message.
    CASES = {
        "repeated-label-first": (
            [(0, "a", 1), (0, "b", 2), (0, "a", 3), (2, "x", 1)],
            {1: half, 3: half},
            DuplicateSiblingLabel, "node 0 has two children labeled 'a'",
        ),
        "second-parent-first": (
            [(0, "a", 1), (0, "b", 2), (2, "x", 1), (0, "a", 3)],
            {1: half, 3: half},
            MultipleParents, "node 1 has more than one parent",
        ),
        "repeated-edge": (
            [(0, "a", 1), (0, "b", 2), (0, "a", 1)],
            {1: half, 2: half},
            MultipleParents, "node 1 has more than one parent",
        ),
        "repeated-label-same-child-elsewhere": (
            [(0, "a", 1), (1, "a", 2), (0, "a", 2)],
            {2: Fraction(1)},
            MultipleParents, "node 2 has more than one parent",
        ),
        "two-roots": (
            [(9, "a", 2), (0, "a", 1)],
            {1: half, 2: half},
            MultipleRoots, "multiple roots: ['0', '9']",
        ),
        "leaf-mass-root": (
            [(0, "a", 1)],
            {1: Fraction(1), "x": Fraction(0)},
            MultipleRoots, "multiple roots: [\"'x'\", '0']",
        ),
        "no-root": (
            [(0, "a", 1), (1, "a", 0)],
            {0: Fraction(1)},
            CycleDetected, "no root: every node has a parent",
        ),
        "unreachable": (
            [(0, "a", 1), (2, "a", 3), (3, "a", 2), (3, "b", 4)],
            {1: Fraction(1), 4: Fraction(0)},
            CycleDetected, "3 node(s) unreachable from root 0",
        ),
        "mass-on-internal-nodes": (
            [(0, "a", 1), (1, "a", 2), (0, "b", 3), (3, "a", 4)],
            {4: half, 3: Fraction(0), 1: half},
            LeafMassMismatch, "mass assigned to internal node 3",
        ),
        "empty": ([], {}, ParamsInvalid, "empty tree: no edges and no leaf masses"),
    }

    @edge_shapes
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_error_and_message(self, case, shape):
        edges, mass, error, message = case
        assert raised(build_tree, shape(edges), mass) == (error, message)
        assert raised(build_tree_reference, shape(edges), mass) == (error, message)

    @pytest.mark.parametrize("exact", [True, None, False])
    @pytest.mark.parametrize("bad", [-half, -0.5, math.nan, math.inf, Fraction(10**400)])
    def test_a_shared_bad_mass_names_its_first_leaf(self, bad, exact):
        # the leaves 3 and 2 share the bad mass object; the first leaf in
        # the mass map's order is named
        edges = [(0, "a", 1), (0, "b", 2), (0, "c", 3)]
        mass = {1: half, 3: bad, 2: bad}
        want = raised(partial(build_tree_reference, exact=exact), edges, mass)
        assert raised(partial(build_tree, exact=exact), edges, mass) == want
        # a float in exact mode, or a valid huge Fraction, fails elsewhere
        assert "leaf 3 " in want[1] or want[0] in (ParamsInvalid, MassNotNormalized)

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
                assert t.mass_below[t.root] == 10
                assert {v: (type(n), n) for v, n in t.mass_below.items()} == {
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
        for t in (corpus_tree(i % 64), informative_tree(i % 64)):
            again = build_tree(edges_of(t), dict(t.leaf_mass))
            assert structurally_equal(t, again)


def caterpillar_input(depth: int, exact: bool):
    """A spine 0, 1, ..., depth with a leaf on label 0 at every spine node
    and the spine going on under label 1; leaf masses 2^-(k+1) and 2^-depth
    for the last spine node."""
    edges, mass = [], {}
    for k in range(depth):
        edges += [(k, 0, f"leaf{k}"), (k, 1, k + 1)]
        mass[f"leaf{k}"] = Fraction(1, 2 ** (k + 1))
    mass[depth] = Fraction(1, 2**depth)
    if not exact:
        mass = {v: float(m) for v, m in mass.items()}
    return edges, mass


def padded_input(tree):
    """The tree's edges, shuffled, plus a zero-mass leaf and an all-zero
    branch under every branching node, for the builder to prune."""
    edges = edges_of(tree)
    mass = dict(tree.leaf_mass)
    zero = 0.0 if not tree.exact else Fraction(0)
    for j in tree.branching_nodes:
        edges += [(j, "z", ("z", j)), (j, "w", ("w", j)), (("w", j), "x", ("x", j))]
        mass[("z", j)] = mass[("x", j)] = zero
    random.Random(len(edges)).shuffle(edges)
    return edges, mass


class TestReferenceBuilder:
    """``build_tree`` and the matcher's builder against
    ``corpus.build_tree_reference``, the per-edge builder: every field in
    value, type and key order."""

    @staticmethod
    def assert_same(edges, mass, exact=None):
        want = tree_tables(build_tree_reference(edges, mass, exact))
        for shape in EDGE_SHAPES.values():
            assert tree_tables(build_tree(shape(edges), mass, exact)) == want

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_corpus(self, exact):
        for family in (corpus_tree, informative_tree):
            for i in range(200):
                tree = family(i, exact=exact)
                edges = edges_of(tree)
                self.assert_same(edges, dict(tree.leaf_mass))
                random.Random(i).shuffle(edges)
                self.assert_same(edges, dict(tree.leaf_mass))
                if exact:
                    self.assert_same(edges, dict(tree.leaf_mass), exact=False)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_pruned(self, exact):
        for family in (corpus_tree, informative_tree):
            for i in range(0, 200, 4):
                edges, mass = padded_input(family(i, exact=exact))
                self.assert_same(edges, mass)

    @pytest.mark.parametrize("target", ["1/3,2/3", "1/6,1/3,1/2", "1/10,1/5,3/10,2/5"])
    def test_matcher(self, target):
        masses = [Fraction(part) for part in target.split(",")]
        spec = ProductSpec(FiniteDistribution(dict(enumerate(masses))))
        for budget in (len(masses), 64, 1024):
            tree = grow_matcher_tree(spec, budget)
            # growth numbers the nodes as it makes them, and makes their
            # parent edges in that order
            made = sorted(edges_of(tree), key=lambda edge: edge[2])
            mass = dict(tree.leaf_mass)
            assert tree_tables(tree) == tree_tables(build_tree_reference(made, mass))
            edges = edges_of(tree)
            self.assert_same(edges, mass)
            self.assert_same(edges, {v: float(m) for v, m in mass.items()})

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_caterpillar(self, exact):
        edges, mass = caterpillar_input(1000, exact)
        self.assert_same(edges, mass)
        self.assert_same(edges[::-1], mass)


class TestNodeProbabilities:
    def test_demo_values(self, demo_tree):
        q = node_probabilities(demo_tree)
        assert q[0] == 1
        assert q[1] == Fraction(3, 4)
        assert q[3] == Fraction(3, 4)
        assert q[2] == Fraction(1, 4)

    def test_derived_maps_are_cached_on_the_tree(self, demo_tree):
        for derive in (node_probabilities, path_lengths, expected_path_length):
            assert derive(demo_tree) is derive(demo_tree)
        for name in ("leaves", "branching_nodes", "label_alphabet", "branching"):
            assert getattr(demo_tree, name) is getattr(demo_tree, name)

    def test_mean_length_does_not_build_branching_distributions(self, demo_tree, demo_tree_float):
        for tree in (demo_tree, demo_tree_float):
            assert tree.mean_length == Fraction(5, 2)
            assert "branching" not in vars(tree)

    def test_mean_length_is_the_preorder_sum_of_branching_masses(self):
        for t in (f(i) for f in (corpus_tree, informative_tree) for i in range(120)):
            for t in (t, float_mirror(t)):
                expected = Fraction(0) if t.exact else 0.0
                for j in t.branching_nodes:
                    expected = expected + t.node_mass[j]
                got = t.mean_length
                assert (type(got), got) == (type(expected), expected)

    def test_bare_root_mean_length(self):
        for mass in (Fraction(1), 1.0):
            got = build_tree([], {0: mass}).mean_length
            assert (type(got), got) == (type(mass), 0)

    def test_child_sums_exact(self):
        for t in (f(i) for f in (corpus_tree, informative_tree) for i in range(20)):
            q = node_probabilities(t)
            for j in t.branching_nodes:
                assert sum(q[c] for _, c in t.children[j]) == q[j]

    def test_child_sums_float(self):
        for t in (float_mirror(f(i)) for f in (corpus_tree, informative_tree) for i in range(20)):
            q = node_probabilities(t)
            for j in t.branching_nodes:
                total = 0.0
                for _, c in t.children[j]:
                    total += q[c]
                assert abs(total - q[j]) <= 1e-12 * max(1.0, abs(q[j]))

    def test_monotone_along_edges(self):
        for t in (f(i) for f in (corpus_tree, informative_tree) for i in range(20)):
            q = node_probabilities(t)
            for node in t.nodes:
                for _, child in t.children[node]:
                    assert q[child] <= q[node]

    def test_reconstruction_from_branching_distributions(self):
        # products of branching masses along each root-to-leaf path
        for family in (corpus_tree, informative_tree):
            for i in range(20):
                t = family(i)
                dists = t.branching
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
        for base in (corpus_tree(3), informative_tree(3)):
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
        dists = demo_tree.branching
        assert dists[3] == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
        assert dists[1] == {"a": Fraction(1)}
        assert dists[0] == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
        assert set(dists) == {0, 1, 3}

    def test_each_sums_to_one(self):
        for family in (corpus_tree, informative_tree):
            for i in range(20):
                for dist in family(i).branching.values():
                    assert sum(dist.values()) == 1
                    assert all(m > 0 for m in dist.values())


class TestPathLengths:
    def test_demo_values(self, demo_tree):
        w = path_lengths(demo_tree)
        assert w[0] == 0
        assert w[2] == 1
        assert w[5] == 3 and w[6] == 3

    def test_increment_is_one_per_edge(self):
        for t in (corpus_tree(11), informative_tree(11)):
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
        # the demo tree has structure under "a" that the other lacks
        assert not structurally_equal(other, demo_tree)

    def test_leaf_against_internal_node(self):
        # "a" is a leaf in one tree and branches in the other, and "b" the
        # reverse, so each order meets both a missing and an extra branch
        a = build_tree([(0, "a", 1), (0, "b", 2), (2, "a", 3)], {1: half, 3: half})
        b = build_tree([(0, "a", 1), (1, "a", 3), (0, "b", 2)], {3: half, 2: half})
        assert not structurally_equal(a, b)
        assert not structurally_equal(b, a)

    def test_bare_root(self):
        root = build_tree([], {"r": Fraction(1)})
        assert structurally_equal(root, root)
        assert structurally_equal(root, build_tree([], {0: 1.0}, exact=False))
        assert not structurally_equal(root, build_tree(DEMO_EDGES, DEMO_MASS))

    @pytest.mark.parametrize("index, expected", [(None, True), (0, False)])
    def test_exact_against_float_mirror(self, index, expected):
        # equal exactly when every exact mass is the float's value: the
        # demo's dyadic masses are, corpus and informative tree 0's are not
        if index is None:
            trees = [build_tree(DEMO_EDGES, DEMO_MASS)]
        else:
            trees = [corpus_tree(index), informative_tree(index)]
        for t in trees:
            mirror = float_mirror(t)
            assert structurally_equal(t, mirror) is expected
            assert structurally_equal(mirror, t) is expected

    def test_deep_chain_is_linear(self):
        depth = 5000
        edges = [(i, "a", i + 1) for i in range(depth)]
        a = build_tree(edges, {depth: Fraction(1)})
        b = build_tree([(-p, lab, -c) for p, lab, c in edges], {-depth: Fraction(1)})
        start = time.perf_counter()
        assert structurally_equal(a, b)
        assert [a.depths[n] for n in a.nodes] == list(range(depth + 1))
        # a comparison costing nodes times depth takes several seconds here
        assert time.perf_counter() - start < 1.0


def edge_orders(edges):
    """The edges as given and with every node's children reversed."""
    return [edges, list(reversed(edges))]


class TestAlignByPaths:
    @pytest.mark.parametrize("extra, first", [
        ((9, 10), "10"),
        ((10, 9), "10"),
        (("z", 9, 10), "'z'"),
        ((10, "z"), "'z'"),
    ])
    def test_extra_branch_message(self, extra, first):
        # the extra branches hang two levels down, under the path a, b; the
        # message names the first extra label in sorted-repr order
        edges = [("r", "a", "x"), ("r", "e", "z"), ("x", "b", "y"),
                 ("y", "c", "l1"), ("y", "d", "l2")]
        mass = {"z": Fraction(1, 2), "l1": Fraction(1, 4), "l2": Fraction(1, 4)}
        p = build_tree(edges, mass)
        wide_edges = edges + [("y", label, f"extra{label}") for label in extra]
        wide_mass = {**mass, "l2": Fraction(1, 8)}
        wide_mass.update((f"extra{label}", Fraction(1, 8 * len(extra))) for label in extra)
        for order in edge_orders(wide_edges):
            q = build_tree(order, wide_mass)
            with pytest.raises(ShapeMismatch) as info:
                align_by_paths(p, q)
            assert str(info.value) == (
                f"second tree has extra branch {first} under path ('a', 'b')"
            )

    @pytest.mark.parametrize("p_edges, p_leaves, path", [
        # q has a leaf where p branches under a
        ([("r", "a", "x"), ("x", "b", "y"), ("x", "c", "w"), ("r", "d", "z")],
         ("y", "w"), ("a",)),
        # q lacks p's label b under the root
        ([("r", "a", "x"), ("r", "b", "y"), ("r", "d", "z")], ("x", "y"), ()),
    ], ids=["leaf-of-q-under-a-branch-of-p", "missing-label"])
    def test_uncovered(self, p_edges, p_leaves, path):
        p_mass = {**dict.fromkeys(p_leaves, Fraction(1, 4)), "z": Fraction(1, 2)}
        q_edges = [("R", "a", "X"), ("R", "d", "Z")]
        q_mass = {"X": Fraction(1, 2), "Z": Fraction(1, 2)}
        for p_order in edge_orders(p_edges):
            for q_order in edge_orders(q_edges):
                p, q = build_tree(p_order, p_mass), build_tree(q_order, q_mass)
                assert align_by_paths(p, q) == ({"r": "R", "x": "X", "z": "Z"}, False)
                with pytest.raises(ShapeMismatch) as info:
                    align_by_paths(q, p)
                assert str(info.value) == f"second tree has extra branch 'b' under path {path!r}"

    @pytest.mark.parametrize("family", [corpus_tree, informative_tree])
    @pytest.mark.parametrize("start", range(0, 200, 50))
    def test_mapping_is_the_path_dictionary(self, family, start):
        for i in range(start, start + 50):
            p, refs = aligned_references(family, i)
            for name, q in refs.items():
                assert align_by_paths(p, q) == path_alignment(p, q), (i, name)
                try:
                    want = path_alignment(q, p)
                except ShapeMismatch:
                    with pytest.raises(ShapeMismatch):
                        align_by_paths(q, p)
                else:
                    assert align_by_paths(q, p) == want, (i, name)
