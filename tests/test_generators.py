import hashlib
import heapq
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import treeprob.generators as generators
from treeprob import (
    FiniteDistribution,
    GeneratorParams,
    ParamsInvalid,
    ProductSpec,
    SWEEP_CSV_COLUMNS,
    SweepRow,
    convergence_sweep,
    dyadic_quantization,
    entropy_rate,
    expected_path_length,
    generate_random_tree,
    grow_matcher_tree,
    node_probabilities,
    structurally_equal,
    tree_pinsker_report,
    write_sweep_csv,
)
from treeprob.tree import build_tree, label_order

LN2 = math.log(2.0)

TWO_THIRDS_SPEC = ProductSpec(
    FiniteDistribution({"a": Fraction(2, 3), "b": Fraction(1, 3)})
)


# The matcher and quantizer written in plain Fraction arithmetic, as the
# definition the integer versions in treeprob.generators must reproduce.


def reference_dyadic_quantization(targets):
    masses = {}
    heap = []
    total = Fraction(0)
    for path, p in targets:
        level = (-((-p.denominator) // p.numerator) - 1).bit_length()
        m = Fraction(1, 1 << level)
        masses[path] = m
        total += m
        heap.append((m - p, path))
    deficit = 1 - total
    heapq.heapify(heap)
    while deficit > 0:
        neg_remainder, path = heapq.heappop(heap)
        m = masses[path]
        if m > deficit:
            continue
        masses[path] = m * 2
        deficit -= m
        heapq.heappush(heap, (masses[path] - (m - neg_remainder), path))
    return masses


def reference_matcher_tree(spec, leaf_budget):
    labels = spec.alphabet
    width = len(labels)
    edges = []
    next_id = 1
    heap = [(Fraction(-1), (), 0)]
    count = 1
    while count + (width - 1) <= leaf_budget:
        neg_q, path, node = heapq.heappop(heap)
        for label in labels:
            edges.append((node, label, next_id))
            # paths compare as label_order does, so mixed labels never
            # compare a str with an int
            heapq.heappush(
                heap,
                (neg_q * spec.base.mass[label], path + (label_order(label),), next_id),
            )
            next_id += 1
        count += width - 1
    rows = sorted((path, -neg_q, node) for neg_q, path, node in heap)
    quantized = reference_dyadic_quantization([(path, q) for path, q, _ in rows])
    return build_tree(
        edges, {node: quantized[path] for path, _, node in rows}, exact=True
    )


@st.composite
def rational_specs(draw):
    """Product specs on 2-4 labels whose masses have denominators <= 12."""
    width = draw(st.integers(2, 4))
    denominator = draw(st.integers(width, 12))
    cuts = sorted(
        draw(st.sets(st.integers(1, denominator - 1), min_size=width - 1,
                     max_size=width - 1))
    )
    bounds = [0, *cuts, denominator]
    mass = {
        "abcd"[i]: Fraction(hi - lo, denominator)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    }
    return ProductSpec(FiniteDistribution(mass))


def is_power_of_two(fraction):
    f = Fraction(fraction)
    return f.numerator == 1 and f.denominator & (f.denominator - 1) == 0


class TestGeneratorParams:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ParamsInvalid):
            GeneratorParams(1, 3, 0.5, seed=0)
        with pytest.raises(ParamsInvalid):
            GeneratorParams(2, 0, 0.5, seed=0)
        with pytest.raises(ParamsInvalid):
            GeneratorParams(2, 3, 1.5, seed=0)
        with pytest.raises(ParamsInvalid):
            GeneratorParams(2, 3, -0.1, seed=0)


class TestGenerateRandomTree:
    def test_deterministic(self):
        params = GeneratorParams(3, 5, 0.7, seed=123)
        a = generate_random_tree(params)
        b = generate_random_tree(params)
        assert a.children == b.children
        assert a.leaf_mass == b.leaf_mass

    def test_seed_changes_tree(self):
        base = GeneratorParams(3, 5, 0.7, seed=1)
        other = GeneratorParams(3, 5, 0.7, seed=2)
        assert not structurally_equal(
            generate_random_tree(base), generate_random_tree(other)
        )

    def test_root_always_branches(self):
        for seed in range(20):
            tree = generate_random_tree(GeneratorParams(2, 1, 0.0, seed=seed))
            assert tree.root in tree.branching_nodes
            assert all(
                child in tree.leaves for _, child in tree.children[tree.root]
            )

    def test_depth_cap(self):
        for seed in range(10):
            tree = generate_random_tree(GeneratorParams(4, 3, 1.0, seed=seed))
            assert max(tree.depths[leaf] for leaf in tree.leaves) <= 3

    def test_exact_masses_sum_to_one(self):
        tree = generate_random_tree(GeneratorParams(4, 5, 0.6, seed=77))
        assert tree.exact
        assert sum(tree.leaf_mass.values()) == 1
        assert all(m > 0 for m in tree.leaf_mass.values())

    def test_float_mode(self):
        tree = generate_random_tree(
            GeneratorParams(4, 5, 0.6, seed=77), exact=False
        )
        assert not tree.exact
        assert sum(tree.leaf_mass.values()) == pytest.approx(1.0, abs=1e-12)

    def test_float_masses_are_the_same_on_every_python(self):
        # the draws are normalized by a left-to-right sum; builtin sum
        # compensates float sums from Python 3.12, and gave another hash there
        lines = []
        for i in range(50):
            tree = generate_random_tree(GeneratorParams(3, 4, 0.6, seed=i), exact=False)
            lines.append(" ".join(m.hex() for m in sorted(tree.leaf_mass.values())))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "c095cabcdb5312ca7be031b2e3186b9f35523255141c521845738cb0bac2d3d8"

    def test_labels_within_alphabet(self):
        tree = generate_random_tree(GeneratorParams(3, 6, 0.8, seed=5))
        assert set(tree.label_alphabet) <= {0, 1, 2}


class TestDyadicQuantization:
    def test_two_thirds_one_third(self):
        out = dyadic_quantization(
            [(("a",), Fraction(2, 3)), (("b",), Fraction(1, 3))]
        )
        assert out == {("a",): Fraction(1, 2), ("b",): Fraction(1, 2)}

    def test_already_dyadic_unchanged(self):
        targets = [
            (("a",), Fraction(1, 2)),
            (("b",), Fraction(1, 4)),
            (("c",), Fraction(1, 4)),
        ]
        assert dyadic_quantization(targets) == dict(targets)

    def test_promotion_tie_breaks_by_path(self):
        targets = [
            (("a",), Fraction(3, 8)),
            (("b",), Fraction(3, 8)),
            (("c",), Fraction(1, 4)),
        ]
        out = dyadic_quantization(targets)
        # equal remainders: the earlier path is doubled
        assert out[("a",)] == Fraction(1, 2)
        assert out[("b",)] == Fraction(1, 4)
        assert out[("c",)] == Fraction(1, 4)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ParamsInvalid):
            dyadic_quantization([(("a",), Fraction(0))])

    def test_rejects_oversized_targets(self):
        with pytest.raises(ParamsInvalid):
            dyadic_quantization(
                [(("a",), Fraction(1, 2)), (("b",), Fraction(1, 2)),
                 (("c",), Fraction(1, 2))]
            )

    def test_rejects_no_targets(self):
        with pytest.raises(ParamsInvalid, match="at least one target"):
            dyadic_quantization([])

    @pytest.mark.parametrize("mass", [0.5, "1/2", None], ids=["float", "str", "none"])
    def test_rejects_a_target_that_is_not_rational(self, mass):
        # a target is an int or a Fraction; anything else is named with
        # its path, not met by an AttributeError on its denominator
        targets = [(("a",), Fraction(1, 2)), (("b",), mass)]
        with pytest.raises(ParamsInvalid, match=re.escape("at ('b',)")):
            dyadic_quantization(targets)

    @pytest.mark.parametrize(
        "targets",
        [
            [(("a",), Fraction(1, 2)), (("a",), Fraction(1, 2))],
            [(("b", 0), Fraction(1, 4)), (("a",), Fraction(1, 2)), (("b", 0), Fraction(1, 8))],
        ],
        ids=["same-mass", "other-mass"],
    )
    def test_rejects_repeated_path(self, targets):
        # the result has one entry per path, so a repeated path would merge
        # two targets and the masses would sum to less than 1
        repeated = targets[-1][0]
        with pytest.raises(ParamsInvalid, match=re.escape(f"{repeated!r} is repeated")):
            dyadic_quantization(targets)

    @pytest.mark.parametrize(
        "masses",
        [
            [Fraction(3, 4), Fraction(3, 4)],
            [Fraction(1, 2), Fraction(1, 2), Fraction(1, 10**9)],
            [Fraction(2, 3), Fraction(2, 3)],
        ],
        ids=["powers-fit", "just-past-one", "thirds"],
    )
    def test_rejects_targets_summing_past_one(self, masses):
        # 3/4, 3/4 and 2/3, 2/3 floor to powers of two that sum to 1, which
        # the quantizer alone accepts
        targets = [((i,), m) for i, m in enumerate(masses)]
        with pytest.raises(ParamsInvalid, match="more than 1"):
            dyadic_quantization(targets)

    def test_accepts_targets_summing_below_one(self):
        out = dyadic_quantization([(("a",), Fraction(1, 3)), (("b",), Fraction(1, 3))])
        assert out == {("a",): Fraction(1, 2), ("b",): Fraction(1, 2)}

    def test_tied_remainders_of_two_groups_settle_by_path(self):
        # c is doubled first; then a (target 1/32) and b, d (1/16) all have
        # remainder 0 and are doubled in path order, a, b, d; a is doubled
        # again, and b and c, tied at remainder -1/16, take the last 1/4 of
        # the deficit in path order, before d.  Settling each group's run
        # on its own ends with 1/4 on every leaf.
        targets = [
            (("a",), Fraction(1, 32)),
            (("b",), Fraction(1, 16)),
            (("c",), Fraction(3, 16)),
            (("d",), Fraction(1, 16)),
        ]
        out = dyadic_quantization(targets)
        assert out == {
            ("a",): Fraction(1, 8),
            ("b",): Fraction(1, 4),
            ("c",): Fraction(1, 2),
            ("d",): Fraction(1, 8),
        }
        assert out == reference_dyadic_quantization(targets)

    @given(
        st.lists(
            st.builds(Fraction, st.integers(1, 15), st.sampled_from([3, 4, 8, 16, 32])),
            min_size=1, max_size=4, unique=True,
        ),
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_repeated_targets_equal_reference(self, pool, picks, rng):
        # targets from a pool of 1-4 values form few groups of equal
        # targets; mostly dyadic values, halved until they sum to at most
        # 1, make the remainders of different groups tie often
        values = [pool[i % len(pool)] for i in picks]
        scale = 1
        while sum(values) > scale:
            scale *= 2
        targets = [((i % 3, i), v / scale) for i, v in enumerate(values)]
        rng.shuffle(targets)
        assert dyadic_quantization(targets) == reference_dyadic_quantization(targets)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=12))
    def test_masses_are_dyadic_and_normalized(self, weights):
        total = sum(weights)
        targets = [((i,), Fraction(w, total)) for i, w in enumerate(weights)]
        out = dyadic_quantization(targets)
        assert sum(out.values()) == 1
        assert all(is_power_of_two(m) for m in out.values())
        assert set(out) == {path for path, _ in targets}


class TestGrowMatcherTree:
    def test_budget_at_alphabet_size_gives_star(self):
        tree = grow_matcher_tree(TWO_THIRDS_SPEC, 2)
        assert len(tree.leaves) == 2
        assert tree.branching_nodes == (tree.root,)
        assert sorted(tree.leaf_mass.values()) == [Fraction(1, 2), Fraction(1, 2)]

    def test_uniform_budget_power_gives_complete_tree(self):
        spec = ProductSpec.uniform(["a", "b"])
        tree = grow_matcher_tree(spec, 8)
        assert len(tree.leaves) == 8
        assert all(tree.depths[leaf] == 3 for leaf in tree.leaves)
        assert all(m == Fraction(1, 8) for m in tree.leaf_mass.values())
        report = tree_pinsker_report(tree, spec, [0.1])
        assert report.normalized_divergence == 0.0
        assert report.tail[0.1] == 0.0

    def test_leaf_count_fills_budget(self):
        width = len(TWO_THIRDS_SPEC.alphabet)
        for budget in (2, 3, 5, 9, 20, 33):
            tree = grow_matcher_tree(TWO_THIRDS_SPEC, budget)
            count = len(tree.leaves)
            assert count <= budget
            assert count + (width - 1) > budget

    def test_deterministic(self):
        a = grow_matcher_tree(TWO_THIRDS_SPEC, 17)
        b = grow_matcher_tree(TWO_THIRDS_SPEC, 17)
        assert a.children == b.children
        assert a.leaf_mass == b.leaf_mass

    def test_expands_most_probable_leaf_first(self):
        # with target (2/3, 1/3) the 'aa' subtree outweighs 'b'
        tree = grow_matcher_tree(TWO_THIRDS_SPEC, 4)
        depths = sorted(tree.depths[leaf] for leaf in tree.leaves)
        assert depths == [1, 2, 3, 3]

    def test_rejects_float_spec(self):
        spec = ProductSpec(FiniteDistribution({"a": 0.5, "b": 0.5}, exact=False))
        with pytest.raises(ParamsInvalid):
            grow_matcher_tree(spec, 8)

    def test_rejects_small_budget(self):
        with pytest.raises(ParamsInvalid):
            grow_matcher_tree(ProductSpec.uniform(["a", "b", "c"]), 2)

    def test_rejects_budget_above_the_limit(self, monkeypatch):
        # no matcher tree may be built: the limit is checked before growth
        def no_tree(*args, **kwargs):
            raise AssertionError("matcher grown past the budget limit")

        # sweeps build their trees with the table builder, not build_tree
        monkeypatch.setattr(generators, "build_tree", no_tree)
        monkeypatch.setattr(generators, "_tree_from_tables", no_tree)
        assert generators.MAX_LEAF_BUDGET == 2**16
        with pytest.raises(ParamsInvalid, match="above the limit"):
            grow_matcher_tree(TWO_THIRDS_SPEC, 2**16 + 1)
        with pytest.raises(ParamsInvalid, match="above the limit"):
            convergence_sweep(TWO_THIRDS_SPEC, [4, 2**16 + 1], 0.1)

    def test_rejects_one_label_spec(self):
        # with one label an expansion adds no leaf, so the growth never ends
        spec = ProductSpec(FiniteDistribution({"a": Fraction(1)}))
        with pytest.raises(ParamsInvalid):
            grow_matcher_tree(spec, 4)

    @pytest.mark.parametrize(
        "masses", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]
    )
    def test_mixed_label_types_grow_the_integer_shape(self, masses):
        # ties between paths must not compare a str label with an int one;
        # "a" sorts after 0 as 1 does, so the growth is the same
        mixed = ProductSpec(FiniteDistribution(dict(zip((0, "a"), masses))))
        ints = ProductSpec(FiniteDistribution(dict(zip((0, 1), masses))))
        relabel = {0: 0, "a": 1}
        for budget in (2, 5, 8, 33):
            got, want = grow_matcher_tree(mixed, budget), grow_matcher_tree(ints, budget)
            assert {v: [(relabel[a], c) for a, c in pairs] for v, pairs in got.children.items()} == {
                v: list(pairs) for v, pairs in want.children.items()
            }
            assert got.leaf_mass == want.leaf_mass
        budgets = [2, 5, 8, 33]
        assert convergence_sweep(mixed, budgets, 0.1) == convergence_sweep(ints, budgets, 0.1)

    def test_masses_consistent_with_probabilities(self):
        tree = grow_matcher_tree(TWO_THIRDS_SPEC, 25)
        q = node_probabilities(tree)
        assert q[tree.root] == 1
        assert sum(tree.leaf_mass.values()) == 1
        assert all(is_power_of_two(m) for m in tree.leaf_mass.values())


class TestReferenceMatcher:
    """The matcher and quantizer equal their Fraction definitions above."""

    @given(rational_specs(), st.integers(0, 300))
    def test_matcher_equals_reference(self, spec, extra):
        budget = len(spec.alphabet) + extra
        tree = grow_matcher_tree(spec, budget)
        reference = reference_matcher_tree(spec, budget)
        assert tree == reference
        # leaves keep the reference's (label path) order too
        assert list(tree.leaf_mass) == list(reference.leaf_mass)

    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 1000), max_value=1,
                         max_denominator=1000),
            min_size=1, max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_quantization_equals_reference(self, values, rng):
        total = sum(values)
        targets = [((i,), v / max(total, 1)) for i, v in enumerate(values)]
        # the quantizer sorts by path itself, whatever the order given
        rng.shuffle(targets)
        out = dyadic_quantization(targets)
        assert out == reference_dyadic_quantization(targets)
        assert list(out) == sorted(path for path, _ in targets)

    @given(rational_specs(), st.lists(st.integers(0, 300), min_size=1,
                                      max_size=4, unique=True))
    def test_sweep_trees_equal_standalone_trees(self, spec, extras):
        width = len(spec.alphabet)
        # budgets that each add leaves: count = 1 + (width - 1) * expansions
        budgets = sorted(1 + (width - 1) * (1 + e) for e in extras)
        seen = []
        report = generators.tree_pinsker_report

        def record(tree, *args):
            seen.append(tree)
            return report(tree, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "tree_pinsker_report", record)
            convergence_sweep(spec, budgets, 0.1)
        assert seen == [grow_matcher_tree(spec, b) for b in budgets]

    def test_uniform_labels_tie_break_by_path(self):
        # every leaf of one depth ties on Q+, so only the path order decides
        spec = ProductSpec.uniform(["a", "b", "c"])
        for budget in (5, 7, 15, 23):
            tree = grow_matcher_tree(spec, budget)
            assert tree == reference_matcher_tree(spec, budget)
        paths = sorted(tree.path_of(leaf) for leaf in tree.leaves)
        assert paths[:3] == [("a", "a", "a"), ("a", "a", "b"), ("a", "a", "c")]

    @pytest.mark.parametrize("spec", [
        *(ProductSpec.uniform("abcde"[:width]) for width in range(2, 6)),
        ProductSpec(FiniteDistribution(
            {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)}
        )),
        ProductSpec.uniform([0, 1, "a", "b"]),
    ], ids=["uniform-2", "uniform-3", "uniform-4", "uniform-5", "half-quarters", "mixed-4"])
    def test_tie_heavy_specs_equal_reference(self, spec):
        # whole depths tie on Q+, so the path order decides most expansions;
        # Tree == compares node ids too, which record the expansion order
        width = len(spec.alphabet)
        counts = list(range(width, 251, width - 1))
        for budget in counts[::7] + counts[-1:]:
            assert grow_matcher_tree(spec, budget) == reference_matcher_tree(spec, budget)
        # every tree of a ladder through all leaf counts, compared once the
        # growth has ended
        trees = list(generators._matcher_trees(spec, counts))
        for budget, tree in zip(counts, trees):
            reference = reference_matcher_tree(spec, budget)
            assert tree == reference
            assert list(tree.leaf_mass) == list(reference.leaf_mass)

    @given(rational_specs(), st.lists(st.integers(0, 300), min_size=1,
                                      max_size=4, unique=True))
    def test_ladder_trees_equal_reference(self, spec, extras):
        width = len(spec.alphabet)
        budgets = sorted(1 + (width - 1) * (1 + e) for e in extras)
        trees = list(generators._matcher_trees(spec, budgets))
        assert trees == [reference_matcher_tree(spec, b) for b in budgets]

    def test_skewed_spec_stays_within_its_depth_bound(self):
        spec = ProductSpec(
            FiniteDistribution({"a": Fraction(1, 7), "b": Fraction(6, 7)})
        )
        for budget in (2, 3, 40, 300):
            tree = grow_matcher_tree(spec, budget)
            assert tree == reference_matcher_tree(spec, budget)
        # an expanded node has Q+ > 1/300, and (6/7)^d >= 1/300 holds up
        # to d = 37, so no leaf lies deeper than 38; the greedy order stops
        # the all-b path at 32
        assert max(tree.depths.values()) == 32

    def test_quantization_of_targets_summing_below_one(self):
        targets = [(("a",), Fraction(1, 3)), (("b",), Fraction(1, 5))]
        out = dyadic_quantization(targets)
        assert out == reference_dyadic_quantization(targets)
        assert out == {("a",): Fraction(1, 2), ("b",): Fraction(1, 2)}


class TestMatcherHeapCost:
    """The matcher's heaps hold each key class once and each quantizer run
    once, not each leaf: a deterministic count of ``heappush`` calls over
    the 3-label ladder to 2187 leaves, which one heap entry per leaf would
    take to 4351 (1/6, 1/3, 1/2) and 5556 (uniform)."""

    @pytest.mark.parametrize(
        "spec",
        [
            ProductSpec(FiniteDistribution(
                {"a": Fraction(1, 6), "b": Fraction(1, 3), "c": Fraction(1, 2)}
            )),
            ProductSpec.uniform(["a", "b", "c"]),
        ],
        ids=["sixth-third-half", "uniform"],
    )
    def test_heap_pushes_of_a_ladder(self, spec, monkeypatch):
        pushes = []
        push = heapq.heappush

        def counted(heap, item):
            pushes.append(item)
            push(heap, item)

        monkeypatch.setattr(generators.heapq, "heappush", counted)
        trees = list(generators._matcher_trees(spec, [3**k for k in range(1, 8)]))
        assert len(trees[-1].leaf_mass) == 2187
        assert len(pushes) <= 200


def golden_ladders():
    """pytest params (target, budgets) of every sweep case in
    tests/golden/cases.json, named by the golden file."""
    cases = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text("utf-8"))
    ladders = []
    for name, argv in sorted(cases.items()):
        if argv[0] == "sweep":
            target = argv[argv.index("--target") + 1].split(",")
            budgets = argv[argv.index("--budgets") + 1].split(",")
            ladders.append(pytest.param(
                list(map(Fraction, target)), list(map(int, budgets)), id=name
            ))
    return ladders


class TestTableBuilder:
    """Each matcher tree of a sweep, built from the growth's own tables, is
    the tree ``build_tree`` validates from its own edges and leaf masses,
    down to the key order of every map.  The trees are compared only once
    the sweep has ended, so a map shared with the growth would show."""

    @staticmethod
    def assert_built_alike(trees):
        for tree in trees:
            edges = [(parent, label, child) for child, (parent, label) in tree.parent_edge.items()]
            built = build_tree(edges, tree.leaf_mass, exact=True)
            assert tree == built
            assert tree.nodes == built.nodes
            for name in ("children", "leaf_mass", "parent_edge", "mass_below"):
                assert list(getattr(tree, name)) == list(getattr(built, name)), name

    @given(rational_specs(), st.lists(st.integers(0, 300), min_size=1,
                                      max_size=4, unique=True))
    def test_random_specs(self, spec, extras):
        width = len(spec.alphabet)
        budgets = sorted(1 + (width - 1) * (1 + e) for e in extras)
        self.assert_built_alike(list(generators._matcher_trees(spec, budgets)))

    @pytest.mark.parametrize("target, budgets", golden_ladders())
    def test_golden_ladders(self, target, budgets):
        spec = ProductSpec(FiniteDistribution(dict(enumerate(target))))
        trees = list(generators._matcher_trees(spec, budgets))
        assert [len(tree.leaves) for tree in trees] == budgets
        self.assert_built_alike(trees)

    def test_skewed_spec_to_300_leaves(self):
        spec = ProductSpec(
            FiniteDistribution({"a": Fraction(1, 7), "b": Fraction(6, 7)})
        )
        trees = list(generators._matcher_trees(spec, range(2, 301)))
        assert [len(tree.leaves) for tree in trees] == list(range(2, 301))
        self.assert_built_alike(trees)


class TestConvergenceSweep:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ParamsInvalid):
            convergence_sweep(TWO_THIRDS_SPEC, [], 0.1)
        with pytest.raises(ParamsInvalid):
            convergence_sweep(TWO_THIRDS_SPEC, [4, 4], 0.1)
        with pytest.raises(ParamsInvalid):
            convergence_sweep(TWO_THIRDS_SPEC, [16, 4], 0.1)
        for epsilon in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ParamsInvalid):
                convergence_sweep(TWO_THIRDS_SPEC, [4, 16], epsilon)

    def test_rejects_budgets_with_equal_leaf_counts(self):
        # a ternary matcher cannot use budget 4: counts go 1, 3, 5, ...
        spec = ProductSpec.uniform(["a", "b", "c"])
        with pytest.raises(ParamsInvalid):
            convergence_sweep(spec, [3, 4], 0.1)

    def test_uniform_target_rows_are_exactly_zero(self):
        spec = ProductSpec.uniform(["a", "b"])
        rows = convergence_sweep(spec, [2, 4, 8, 16], 0.1)
        for row in rows:
            assert row.normalized_divergence == 0.0
            assert row.entropy_rate == 1.0
            assert row.entropy_rate_gap == 0.0
            assert row.max_tail == 0.0

    def test_regression_rows_for_skewed_target(self):
        rows = convergence_sweep(TWO_THIRDS_SPEC, [4, 16, 64], 0.1)
        assert [r.leaf_count for r in rows] == [4, 16, 64]
        first, mid, last = rows
        assert first.mean_length == pytest.approx(2.25, rel=1e-12)
        assert first.normalized_divergence == pytest.approx(
            0.029406945165600495, rel=1e-12
        )
        assert first.entropy_rate == pytest.approx(8 / 9, rel=1e-12)
        assert first.max_tail == pytest.approx(2 / 3, rel=1e-12)
        assert mid.normalized_divergence == pytest.approx(
            0.00942293237583236, rel=1e-12
        )
        assert last.mean_length == pytest.approx(6.3671875, rel=1e-12)
        assert last.normalized_divergence == pytest.approx(
            0.008275384156738896, rel=1e-12
        )
        assert last.entropy_rate_gap == pytest.approx(
            0.005412398471667412, rel=1e-12
        )

    def test_rows_internally_consistent(self):
        rows = convergence_sweep(TWO_THIRDS_SPEC, [4, 16, 64], 0.1)
        target_entropy = float(TWO_THIRDS_SPEC.base.entropy())
        for row, budget in zip(rows, [4, 16, 64]):
            tree = grow_matcher_tree(TWO_THIRDS_SPEC, budget)
            assert row.leaf_count == len(tree.leaves)
            assert row.mean_length == float(expected_path_length(tree))
            assert row.entropy_rate == float(entropy_rate(tree))
            assert row.entropy_rate_gap == pytest.approx(
                abs(row.entropy_rate - target_entropy), abs=1e-12
            )

    def test_true_tail_bounds_hold_per_row(self):
        # tail(eps) <= E[d]/eps by Markov and <= 2 ln 2 * nd / eps^2 via
        # the per-branch Pinsker bound; both chains follow from the lemmas
        eps = 0.1
        rows = convergence_sweep(TWO_THIRDS_SPEC, [4, 16, 64, 256], eps)
        for row, budget in zip(rows, [4, 16, 64, 256]):
            tree = grow_matcher_tree(TWO_THIRDS_SPEC, budget)
            report = tree_pinsker_report(tree, TWO_THIRDS_SPEC, [eps])
            assert row.max_tail == report.tail[eps]
            assert row.max_tail <= report.mean_distance / eps + 1e-12
            assert (
                row.max_tail
                <= 2 * LN2 * row.normalized_divergence / eps**2 + 1e-12
            )
            assert report.holds


class TestWriteSweepCsv:
    def test_golden_output(self):
        rows = [
            SweepRow(
                leaf_count=4,
                mean_length=2.25,
                normalized_divergence=0.029406945165600495,
                entropy_rate=0.8888888888888888,
                entropy_rate_gap=0.029406945165600495,
                max_tail=0.6666666666666666,
            )
        ]
        out = io.StringIO()
        write_sweep_csv(rows, out)
        assert out.getvalue() == (
            "leaf_count,mean_length,normalized_divergence_bits_per_branch,"
            "entropy_rate_bits_per_branch,entropy_rate_gap,tail_probability\n"
            "4,2.25,0.029406945165600495,0.8888888888888888,"
            "0.029406945165600495,0.6666666666666666\n"
        )

    def test_byte_determinism(self):
        rows = convergence_sweep(TWO_THIRDS_SPEC, [4, 16], 0.1)
        a, b = io.StringIO(), io.StringIO()
        write_sweep_csv(rows, a)
        write_sweep_csv(rows, b)
        assert a.getvalue() == b.getvalue()

    def test_round_trips_through_csv_reader(self):
        import csv

        rows = convergence_sweep(TWO_THIRDS_SPEC, [4, 16], 0.1)
        out = io.StringIO()
        write_sweep_csv(rows, out)
        parsed = list(csv.reader(io.StringIO(out.getvalue())))
        assert parsed[0] == list(SWEEP_CSV_COLUMNS)
        for raw, row in zip(parsed[1:], rows):
            assert int(raw[0]) == row.leaf_count
            assert float(raw[1]) == row.mean_length
            assert float(raw[2]) == row.normalized_divergence
            assert float(raw[3]) == row.entropy_rate
            assert float(raw[4]) == row.entropy_rate_gap
            assert float(raw[5]) == row.max_tail
