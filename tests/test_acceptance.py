"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion exercises the library end to end on fixed corpora and prints
"PASS criterion N: ..." (or FAIL) outside pytest's capture so the verdict
lines always reach the terminal.
"""

import io
import random
import time
from fractions import Fraction

import pytest

from corpus import (
    complete_tree,
    corpus_tree,
    differential_lansit_check,
    divergence_to_product,
    exact_entropy_of,
    exact_entropy_term,
    exact_kl_term,
    float_functional,
    float_mirror,
    merged_increment_sum,
    pinsker_check,
    product_node_probabilities,
    random_distribution,
    rational_functional,
    remass,
    star_report,
)
from treeprob import (
    FiniteDistribution,
    ProductSpec,
    branching_node_distribution,
    build_tree,
    convergence_sweep,
    entropy_rate,
    expected_path_length,
    lansit_check,
    leaf_entropy,
    node_probabilities,
    parse_tree,
    path_lengths,
    run_cli,
    serialize_tree,
    structurally_equal,
    tree_divergence,
    tree_pinsker_report,
)
from treeprob.numeric import entropy_of, kl_term

CORPUS_SIZE = 1000
RESIDUAL_REL_TOL = 1e-9

DEMO_EDGES = [(0, "a", 1), (0, "b", 2), (1, "a", 3), (3, "a", 5), (3, "b", 6)]
DEMO_MASS = {2: Fraction(1, 4), 5: Fraction(1, 2), 6: Fraction(1, 4)}

CYCLIC_DOCUMENT = """\
{
  "version": "1",
  "root": 0,
  "edges": [[0, "a", 1], [1, "a", 0]],
  "leaf_mass": [[0, "1"]],
  "metadata": {}
}
"""


@pytest.fixture(scope="module")
def corpus_exact():
    return [corpus_tree(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus_float(corpus_exact):
    return [float_mirror(tree) for tree in corpus_exact]


@pytest.fixture
def demo_tree():
    return build_tree(DEMO_EDGES, DEMO_MASS)


def conclude(capsys, number: int, description: str, failures: list):
    verdict = "PASS" if not failures else "FAIL"
    suffix = f" [{len(failures)} failures]" if failures else ""
    with capsys.disabled():
        print(f"{verdict} criterion {number}: {description}{suffix}")
    assert not failures, failures[:5]


def within_rel(value, reference, rel=RESIDUAL_REL_TOL) -> bool:
    return abs(float(value) - float(reference)) <= rel * max(
        1.0, abs(float(reference))
    )


def test_criterion_1_worked_example(capsys, demo_tree):
    failures = []
    q = node_probabilities(demo_tree)
    if q[1] != Fraction(3, 4):
        failures.append(f"Q_1 = {q[1]}")
    if q[3] != Fraction(3, 4):
        failures.append(f"Q_3 = {q[3]}")
    if expected_path_length(demo_tree) != Fraction(5, 2):
        failures.append(f"E[w] = {expected_path_length(demo_tree)}")
    if leaf_entropy(demo_tree) != Fraction(3, 2):
        failures.append(f"H(P_L) = {leaf_entropy(demo_tree)!r}")
    if entropy_rate(demo_tree) != Fraction(3, 5):
        failures.append(f"rate = {entropy_rate(demo_tree)!r}")
    pb = branching_node_distribution(demo_tree)
    expected_pb = {0: Fraction(2, 5), 1: Fraction(3, 10), 3: Fraction(3, 10)}
    if pb != expected_pb:
        failures.append(f"P_B = {pb}")
    conclude(
        capsys,
        1,
        "worked example: node masses 3/4, mean length 5/2, entropy 3/2,"
        " rate 3/5, P_B (2/5, 3/10, 3/10), all exact",
        failures,
    )


def test_criterion_2_interchange_identity_corpus(
    capsys, corpus_exact, corpus_float
):
    failures = []
    for i, tree in enumerate(corpus_exact):
        for k in range(3):
            f = rational_functional(tree, seed=10_000 * k + i)
            report = lansit_check(tree, f)
            if report.residual != 0:
                failures.append(f"exact tree {i} functional {k}: {report}")
    for i, tree in enumerate(corpus_float):
        for k in range(3):
            f = float_functional(tree, seed=10_000 * k + i)
            report = lansit_check(tree, f)
            if not report.holds():
                failures.append(f"float tree {i} functional {k}: {report}")
    conclude(
        capsys,
        2,
        f"interchange identity on {CORPUS_SIZE} trees x 3 functionals,"
        " residual 0 exact / <=1e-9 rel float",
        failures,
    )


def test_criterion_3_lemma_equivalences(capsys, corpus_exact, corpus_float):
    failures = []
    for i, tree in enumerate(corpus_exact):
        w_leaf = sum(
            tree.leaf_mass[leaf] * tree.depths[leaf] for leaf in tree.leaves
        )
        if expected_path_length(tree) != w_leaf:
            failures.append(f"exact tree {i}: path length branch != leaf")
        h_leaf = sum(
            exact_entropy_term(tree.leaf_mass[leaf]) for leaf in tree.leaves
        )
        if leaf_entropy(tree) != h_leaf:
            failures.append(f"exact tree {i}: entropy branch != leaf")
        other = remass(tree, seed=30_000 + i)
        d_leaf = sum(
            exact_kl_term(tree.leaf_mass[leaf], other.leaf_mass[leaf])
            for leaf in tree.leaves
        )
        if tree_divergence(tree, other) != d_leaf:
            failures.append(f"exact tree {i}: divergence branch != leaf")
        f = rational_functional(tree, seed=31_000 + i)
        if merged_increment_sum(tree, f) != lansit_check(tree, f).node_side:
            failures.append(f"exact tree {i}: merge order != direct order")
    for i, tree in enumerate(corpus_float):
        w_leaf = sum(
            tree.leaf_mass[leaf] * tree.depths[leaf] for leaf in tree.leaves
        )
        if not within_rel(expected_path_length(tree), w_leaf):
            failures.append(f"float tree {i}: path length branch != leaf")
        h_leaf = sum(
            entropy_of([tree.leaf_mass[leaf]]) for leaf in tree.leaves
        )
        if not within_rel(leaf_entropy(tree), h_leaf):
            failures.append(f"float tree {i}: entropy branch != leaf")
        other = float_mirror(remass(tree, seed=30_000 + i))
        d_leaf = sum(
            kl_term(tree.leaf_mass[leaf], other.leaf_mass[leaf])
            for leaf in tree.leaves
        )
        if not within_rel(tree_divergence(tree, other), d_leaf):
            failures.append(f"float tree {i}: divergence branch != leaf")
        f = float_functional(tree, seed=31_000 + i)
        if merged_increment_sum(tree, f) != lansit_check(tree, f).node_side:
            failures.append(f"float tree {i}: merge order != direct order")
    conclude(
        capsys,
        3,
        "branch-sum forms match leaf oracles (exact / 1e-9 rel) and the"
        " merge-order evaluation equals the direct node sum exactly",
        failures,
    )


def test_criterion_4_normalized_length_is_one(
    capsys, corpus_exact, corpus_float
):
    failures = []
    for i, tree in enumerate(corpus_exact):
        if not tree.branching_nodes:
            continue
        report = differential_lansit_check(tree, path_lengths(tree))
        if report.node_side != 1 or report.residual != 0:
            failures.append(f"exact tree {i}: E[dw(S_B)] = {report.node_side}")
    for i, tree in enumerate(corpus_float):
        if not tree.branching_nodes:
            continue
        report = differential_lansit_check(tree, path_lengths(tree))
        if not within_rel(report.node_side, 1.0):
            failures.append(f"float tree {i}: E[dw(S_B)] = {report.node_side}")
    conclude(
        capsys,
        4,
        "mean per-branch length increment is exactly 1 on every"
        " non-degenerate corpus tree",
        failures,
    )


def chain_rule_entropy(tree, depth: int):
    """Entropy from prefix marginals: sum over k of E[H(symbol k | prefix)]."""
    entropy = exact_entropy_of if tree.exact else entropy_of
    joint = {tree.path_of(leaf): tree.leaf_mass[leaf] for leaf in tree.leaves}
    total = 0
    for k in range(depth):
        by_prefix: dict = {}
        for path, m in joint.items():
            symbols = by_prefix.setdefault(path[:k], {})
            symbols[path[k]] = symbols.get(path[k], 0) + m
        for symbols in by_prefix.values():
            prefix_mass = sum(symbols.values())
            conditional = [
                symbols[a] / prefix_mass for a in sorted(symbols)
            ]
            total = total + prefix_mass * entropy(conditional)
    return total


def test_criterion_5_chain_rule_specialization(capsys):
    failures = []
    for i in range(100):
        tree = complete_tree(alphabet=2, depth=4, seed=500_000 + i)
        oracle = chain_rule_entropy(tree, depth=4)
        if leaf_entropy(tree) != oracle:
            failures.append(f"tree {i}: exact chain rule mismatch")
        if abs(float(leaf_entropy(tree)) - float(oracle)) > 1e-9:
            failures.append(f"tree {i}: chain rule exceeds 1e-9")
    conclude(
        capsys,
        5,
        "leaf entropy equals the chain-rule oracle on 100 complete depth-4"
        " binary trees (exact and within 1e-9)",
        failures,
    )


def test_criterion_6_pinsker_suites(capsys, corpus_exact):
    failures = []
    for i in range(10_000):
        labels = list(range(2 + i % 7))
        p = FiniteDistribution(random_distribution(labels, seed=2 * i))
        q = FiniteDistribution(random_distribution(labels, seed=2 * i + 1))
        holds = pinsker_check(p, q).holds
        if not holds:
            failures.append(f"classical pair {i}")
        # the package's report on p's star tree against q must agree
        report = star_report(p, q)
        if report.holds != holds:
            failures.append(f"classical pair {i}: star report verdict differs")
        for eps in (0.01, 0.1, 0.5, 1.0):
            if report.tail[eps] > report.mean_distance / eps + 1e-12:
                failures.append(f"classical pair {i}: tail({eps}) above Markov")
    reports = []
    for i in range(500):
        tree = corpus_exact[i]
        reports.append(tree_pinsker_report(tree, remass(tree, seed=60_000 + i)))
    for i in range(500):
        tree = corpus_exact[500 + i]
        spec = ProductSpec.uniform(tree.label_alphabet)
        reports.append(tree_pinsker_report(tree, spec))
    for i, report in enumerate(reports):
        if not report.holds:
            failures.append(f"tree report {i}: part i violated")
        for eps in (0.01, 0.1, 0.5, 1.0):
            if report.tail[eps] > report.mean_distance / eps + 1e-12:
                failures.append(f"tree report {i}: tail({eps}) above Markov")
    conclude(
        capsys,
        6,
        "classical Pinsker on 10^4 pairs, with the package's star-tree report"
        " on each, per-branch bound on 500 tree pairs"
        " and 500 product references, Markov tail bound at four epsilons,"
        " zero violations",
        failures,
    )


def test_criterion_7_matcher_convergence(capsys):
    failures = []
    budgets = [4, 16, 64, 256, 1024, 4096]
    started = time.monotonic()
    skewed = ProductSpec(
        FiniteDistribution({"a": Fraction(2, 3), "b": Fraction(1, 3)})
    )
    rows = convergence_sweep(skewed, budgets, 0.1)
    if not (rows[-1].normalized_divergence < 0.05):
        failures.append(f"final divergence {rows[-1].normalized_divergence}")
    if not (rows[-1].normalized_divergence < rows[0].normalized_divergence):
        failures.append("divergence did not decrease first to last")
    if not (rows[-1].entropy_rate_gap < 0.05):
        failures.append(f"final rate gap {rows[-1].entropy_rate_gap}")
    if not (rows[-1].entropy_rate_gap < rows[0].entropy_rate_gap):
        failures.append("rate gap did not decrease first to last")
    uniform_rows = convergence_sweep(
        ProductSpec.uniform(["a", "b"]), budgets, 0.1
    )
    for row in uniform_rows:
        if row.normalized_divergence != 0.0 or row.entropy_rate_gap != 0.0:
            failures.append(f"uniform target row {row} not exactly zero")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"sweeps took {elapsed:.1f}s")
    conclude(
        capsys,
        7,
        "matcher sweep at budgets 4..4096: divergence and rate gap end below"
        " 0.05 and below their first-budget values; uniform target exactly"
        f" zero throughout; {elapsed:.1f}s",
        failures,
    )


def test_criterion_8_product_distributions(capsys, demo_tree):
    failures = []
    for i in range(100):
        knobs = random.Random(800_000 + i)
        alphabet = knobs.randint(2, 4)
        depth = knobs.randint(1, {2: 6, 3: 5, 4: 4}[alphabet])
        tree = complete_tree(alphabet, depth, seed=810_000 + i)
        spec = ProductSpec(
            FiniteDistribution(
                random_distribution(range(alphabet), seed=820_000 + i)
            )
        )
        qplus = product_node_probabilities(tree, spec)
        total = sum(qplus[leaf] for leaf in tree.leaves)
        if total != 1:
            failures.append(f"complete shape {i}: leaf sum {total}")
    uniform = ProductSpec.uniform(["a", "b"])
    qplus = product_node_probabilities(demo_tree, uniform)
    total = sum(qplus[leaf] for leaf in demo_tree.leaves)
    if total != Fraction(3, 4):
        failures.append(f"demo shape leaf sum {total}")
    if divergence_to_product(demo_tree, uniform) != 1:
        failures.append(
            f"demo divergence {divergence_to_product(demo_tree, uniform)!r}"
        )
    conclude(
        capsys,
        8,
        "product leaf masses sum to exactly 1 on 100 complete shapes;"
        " demo shape sums to 3/4 with divergence exactly 1 bit",
        failures,
    )


def test_criterion_9_cli_contract(
    capsys, tmp_path, corpus_exact, corpus_float
):
    failures = []
    demo_path = tmp_path / "example.tree"
    demo_path.write_text(
        serialize_tree(build_tree(DEMO_EDGES, DEMO_MASS)), "utf-8"
    )
    cyclic_path = tmp_path / "cyclic.tree"
    cyclic_path.write_text(CYCLIC_DOCUMENT, "utf-8")

    out, err = io.StringIO(), io.StringIO()
    code, report = run_cli(["analyze", str(demo_path)], out=out, err=err)
    if code != 0:
        failures.append(f"analyze exit {code}: {err.getvalue()}")
    else:
        got = {
            name: report.results[name]["value"]
            for name in ("mean_length", "leaf_entropy", "entropy_rate")
        }
        if got != {"mean_length": 2.5, "leaf_entropy": 1.5, "entropy_rate": 0.6}:
            failures.append(f"analyze metrics {got}")

    out, err = io.StringIO(), io.StringIO()
    code, report = run_cli(
        ["divergence", str(demo_path), "--product", "1/2,1/2"],
        out=out,
        err=err,
    )
    if code != 0:
        failures.append(f"divergence exit {code}: {err.getvalue()}")
    else:
        if report.results["divergence"]["value"] != 1.0:
            failures.append(f"divergence {report.results['divergence']}")
        if report.results["normalized_divergence"]["value"] != 0.4:
            failures.append(
                f"normalized {report.results['normalized_divergence']}"
            )
        if not (report.checks and report.checks[0]["passed"]):
            failures.append("per-branch bound check did not pass")

    out, err = io.StringIO(), io.StringIO()
    code, report = run_cli(["validate", str(cyclic_path)], out=out, err=err)
    if code != 2 or "CycleDetected" not in err.getvalue():
        failures.append(
            f"cyclic validate: exit {code}, stderr {err.getvalue()!r}"
        )

    for i, tree in enumerate(corpus_exact):
        back = parse_tree(serialize_tree(tree))
        if not (
            back.exact
            and structurally_equal(tree, back)
            and back.leaf_mass == tree.leaf_mass
        ):
            failures.append(f"exact round trip {i}")
    for i, tree in enumerate(corpus_float):
        back = parse_tree(serialize_tree(tree))
        if not (
            not back.exact
            and structurally_equal(tree, back)
            and back.leaf_mass == tree.leaf_mass
        ):
            failures.append(f"float round trip {i}")
    conclude(
        capsys,
        9,
        "CLI analyze/divergence/validate produce the stated metrics and exit"
        " codes; document round-trip holds on the full corpus in both modes",
        failures,
    )
