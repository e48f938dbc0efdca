import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DEMO_DOCUMENT
from corpus import corpus_tree, float_mirror, remass
from treeprob import (
    FiniteDistribution,
    ProductSpec,
    approximation,
    build_tree,
    cli,
    generators,
    identities,
    numeric,
    product_branch_divergence,
    run_cli,
    treefile,
)
from treeprob.treefile import parse_tree, serialize_tree

DEMO_Q_DOCUMENT = """\
{
  "version": "1",
  "root": 0,
  "edges": [[0, "a", 1], [0, "b", 2], [1, "a", 3], [3, "a", 5], [3, "b", 6]],
  "leaf_mass": [[2, "1/2"], [5, "1/4"], [6, "1/4"]],
  "metadata": {}
}
"""

CYCLIC_DOCUMENT = """\
{
  "version": "1",
  "root": 0,
  "edges": [[0, "a", 1], [1, "a", 0]],
  "leaf_mass": [[0, "1"]],
  "metadata": {}
}
"""


# branching nodes whose ids have no UTF-8 form (a lone surrogate, from a
# JSON \\u escape) and no ASCII form
UNENCODABLE_DOCUMENT = json.dumps(
    {"root": "\ud800", "edges": [["\ud800", "a", "é"], ["\ud800", "b", 2],
                                 ["é", "a", 3], ["é", "b", 4]],
     "leaf_mass": [[2, "1/2"], [3, "1/4"], [4, "1/4"]]}
)
UNENCODABLE_IDS = {"\ud800", "é"}


def caterpillar_document(depth):
    """Float caterpillar: each spine node has a leaf on label 0 and goes on
    along label 1; leaf masses are the weights 1..depth+1 over their sum."""
    edges = []
    for level in range(depth):
        spine = 2 * level
        edges += [[spine, 0, spine + 1], [spine, 1, spine + 2]]
    leaves = [2 * level + 1 for level in range(depth)] + [2 * depth]
    total = len(leaves) * (len(leaves) + 1) // 2
    masses = [[leaf, (i + 1) / total] for i, leaf in enumerate(leaves)]
    return json.dumps({"root": 0, "edges": edges, "leaf_mass": masses})


def float_star(masses):
    """A float document: root 0 with one leaf per mass, on labels 0, 1, ..."""
    edges = [[0, i, i + 1] for i in range(len(masses))]
    leaf_mass = [[i + 1, m] for i, m in enumerate(masses)]
    return json.dumps({"root": 0, "edges": edges, "leaf_mass": leaf_mass})


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code, report = run_cli(argv, out=out, err=err)
    return code, report, out.getvalue(), err.getvalue()


@pytest.fixture
def demo_q_file(tmp_path):
    path = tmp_path / "demo_q.tree"
    path.write_text(DEMO_Q_DOCUMENT, "utf-8")
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.tree"
    path.write_text(CYCLIC_DOCUMENT, "utf-8")
    return str(path)


class TestValidate:
    def test_valid_document(self, demo_file):
        code, report, out, err = invoke(["validate", demo_file])
        assert code == 0
        assert err == ""
        assert report.results["leaf_count"]["value"] == 3
        assert report.results["branching_count"]["value"] == 3
        assert report.results["mode"]["value"] == "exact"
        assert "leaf_count = 3" in out

    def test_float_flag(self, demo_file):
        code, report, _, _ = invoke(["validate", "--float", demo_file])
        assert code == 0
        assert report.results["mode"]["value"] == "float"

    def test_json_output(self, demo_file):
        code, report, out, _ = invoke(["validate", "--json", demo_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "validate"
        digest = payload["inputs"][demo_file]
        assert digest.startswith("sha256:") and len(digest) == 71

    def test_cyclic_document(self, cyclic_file):
        code, report, out, err = invoke(["validate", cyclic_file])
        assert code == 2
        assert report is None
        assert "CycleDetected" in err

    def test_missing_file(self, tmp_path):
        code, report, _, err = invoke(["validate", str(tmp_path / "nope.tree")])
        assert code == 2
        assert report is None
        assert "error:" in err

    def test_document_nested_too_deeply_is_an_input_error(self, tmp_path):
        path = tmp_path / "deep.tree"
        path.write_text("[" * 200_000 + "]" * 200_000, "utf-8")
        code, report, _, err = invoke(["validate", str(path)])
        assert code == 2
        assert report is None
        assert "ParseError" in err


    def test_integer_past_the_int_string_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long-id.tree"
        path.write_text(
            '{"root": 0, "edges": [[0, "a", %s]], "leaf_mass": [[1, "1"]]}' % ("9" * 5000),
            "utf-8",
        )
        code, report, out, err = invoke(["validate", str(path)])
        assert (code, report, out) == (2, None, "")
        assert err.startswith("error: ParseError: ")

    @pytest.mark.parametrize("mass", ["1e-10000000", "1e10000000"])
    def test_unbounded_decimal_exponent_is_an_input_error(self, tmp_path, mass):
        path = tmp_path / "exponent.tree"
        path.write_text(
            json.dumps({"root": 0, "edges": [[0, "a", 1]], "leaf_mass": [[1, mass]]}),
            "utf-8",
        )
        start = time.perf_counter()
        code, report, out, err = invoke(["validate", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, report, out) == (2, None, "")
        assert err == f"error: ParseError: leaf 1: not a rational number: {mass!r}\n"


    @pytest.mark.parametrize(
        "leaf_mass, error",
        [
            # a 4000-digit mantissa inside the exponent bound, 8300 digits below 1
            ({"1": "0." + "1" * 4000 + "e-4299"}, "MassNotNormalized"),
            ({"1": "-0." + "1" * 4000 + "e-4299", "2": "1"}, "NegativeMass"),
            # each denominator prints, their lcm 77 * 10^4299 does not
            ({"1": "1e-4299", "2": "1/77"}, "MassNotNormalized"),
        ],
        ids=["long-mantissa", "negative-long-mantissa", "lcm"],
    )
    def test_mass_past_the_int_string_limit_is_reported(self, tmp_path, leaf_mass, error):
        path = tmp_path / "long.tree"
        edges = [[0, lab, int(leaf)] for lab, leaf in zip("ab", leaf_mass)]
        path.write_text(
            json.dumps({"root": 0, "edges": edges, "leaf_mass": leaf_mass}), "utf-8"
        )
        code, report, out, err = invoke(["validate", str(path)])
        assert (code, report, out) == (2, None, "")
        assert err.startswith(f"error: {error}: ")
        assert "-bit numerator, " in err


class TestRationalOptions:
    """A rational option value that ``parse_rational`` refuses is a
    ParseError naming the option, like a bad leaf mass."""

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["sweep", "--target", "1/2,1/2", "--budgets", "4,16", "--epsilon=abc"], "--epsilon", "abc"),
            (["sweep", "--target", "1/2,abc", "--budgets", "4,16"], "--target", "abc"),
            (["divergence", "DEMO", "--product", "1/2,abc"], "--product", "abc"),
            (["divergence", "DEMO", "--product", "1/2,1/2", "--epsilons", "0.1,abc"], "--epsilons", "abc"),
            # Python 3.11 and 3.12 widened Fraction's text grammar; an
            # option value is valid or not on every version alike
            (["sweep", "--target", "1_0/20,1/2", "--budgets", "4,16"], "--target", "1_0/20"),
            (["sweep", "--target", "1/2,1/2", "--budgets", "4,16", "--epsilon=0.0_5"],
             "--epsilon", "0.0_5"),
            (["divergence", "DEMO", "--product", "1 / 2,1/2"], "--product", "1 / 2"),
        ],
        ids=["epsilon", "target", "product", "epsilons",
             "target-underscore", "epsilon-underscore", "product-spaces"],
    )
    def test_bad_value_is_a_parse_error(self, demo_file, argv, option, value):
        argv = [demo_file if a == "DEMO" else a for a in argv]
        code, report, out, err = invoke(argv)
        assert (code, report, out) == (2, None, "")
        assert err == f"error: ParseError: {option}: not a rational number: {value!r}\n"

    def test_product_masses_past_the_int_string_limit(self, demo_file):
        code, _, out, err = invoke(["divergence", demo_file, "--product", "1e-4299,1/77"])
        assert (code, out) == (2, "")
        assert err.startswith("error: MassNotNormalized: masses sum to about 0.0129")


class TestAnalyze:
    def test_demo_metrics(self, demo_file):
        code, report, out, _ = invoke(["analyze", demo_file])
        assert code == 0
        assert report.results["mean_length"] == {
            "value": 2.5,
            "unit": "branches",
            "exact": "5/2",
        }
        assert report.results["leaf_entropy"] == {
            "value": 1.5,
            "unit": "bits",
            "exact": "3/2",
        }
        assert report.results["entropy_rate"] == {
            "value": 0.6,
            "unit": "bits/branch",
            "exact": "3/5",
        }
        assert "mean_length = 2.5 branches (exact 5/2)" in out

    def test_branching_node_distribution_lines(self, demo_file):
        _, report, out, _ = invoke(["analyze", demo_file])
        dist = report.results["branching_node_distribution"]["value"]
        assert dist == {"0": 0.4, "1": 0.3, "3": 0.3}
        assert "branching_node_distribution[0] = 0.4" in out

    def test_node_ids_that_print_alike_are_an_input_error(self, tmp_path):
        # 0 and "0" would both be reported as branching node "0"
        path = tmp_path / "alike.tree"
        path.write_text(
            json.dumps(
                {
                    "root": "r",
                    "edges": [["r", "a", 0], ["r", "b", "0"], [0, "a", 1],
                              [0, "b", 2], ["0", "a", 3], ["0", "b", 4]],
                    "leaf_mass": [[leaf, "1/4"] for leaf in (1, 2, 3, 4)],
                }
            ),
            "utf-8",
        )
        code, report, _, err = invoke(["analyze", "--json", str(path)])
        assert (code, report) == (2, None)
        assert "ParseError" in err

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_lone_surrogate_id_is_written_as_its_escape(self, tmp_path, as_json):
        path = tmp_path / "surrogate.tree"
        path.write_text(UNENCODABLE_DOCUMENT, "utf-8")
        code, report, out, err = invoke(["analyze", str(path)] + ["--json"] * as_json)
        assert (code, err) == (0, "")
        out.encode("utf-8")
        if as_json:
            assert set(json.loads(out)["results"]["branching_node_distribution"]["value"]) == UNENCODABLE_IDS
        else:
            assert "branching_node_distribution[\\ud800] = 0.6666666666666666\n" in out
            assert "branching_node_distribution[é] = 0.3333333333333333\n" in out

    def test_single_node_tree_omits_rate(self, tmp_path):
        path = tmp_path / "point.tree"
        path.write_text(
            '{"root": "r", "edges": [], "leaf_mass": [["r", "1"]]}', "utf-8"
        )
        code, report, _, _ = invoke(["analyze", str(path)])
        assert code == 0
        assert report.results["mean_length"]["value"] == 0.0
        assert "entropy_rate" not in report.results

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_mass_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.tree"
        path.write_text(
            '{"root": 0, "edges": [[0, "a", 1], [0, "b", 2]],'
            f' "leaf_mass": [[1, {bad}], [2, 0.3]]}}',
            "utf-8",
        )
        code, report, _, err = invoke(["analyze", "--json", str(path)])
        assert code == 2
        assert report is None
        assert "NonFiniteMass" in err


class TestDivergence:
    def test_tree_reference(self, demo_file, demo_q_file):
        code, report, _, _ = invoke(["divergence", demo_file, demo_q_file])
        assert code == 0
        assert report.results["divergence"] == {
            "value": 0.25,
            "unit": "bits",
            "exact": "1/4",
        }
        assert report.results["normalized_divergence"]["value"] == pytest.approx(
            0.1, rel=1e-12
        )
        assert len(report.inputs) == 2
        assert report.all_checks_pass()

    def test_product_reference(self, demo_file):
        code, report, _, _ = invoke(
            ["divergence", demo_file, "--product", "1/2,1/2"]
        )
        assert code == 0
        assert report.results["divergence"] == {
            "value": 1.0,
            "unit": "bits",
            "exact": "1",
        }
        assert report.results["normalized_divergence"]["value"] == pytest.approx(
            0.4, rel=1e-12
        )
        check = report.checks[0]
        assert check["name"] == "pinsker-tree"
        assert check["passed"]

    def test_tail_epsilons(self, demo_file):
        _, report, _, _ = invoke(
            ["divergence", demo_file, "--product", "1/2,1/2",
             "--epsilons", "1/2,1"]
        )
        tails = report.results["tail_probability"]["value"]
        assert tails == {"0.5": 0.7, "1.0": 0.3}

    def test_infinite_divergence_reported(self, demo_file, tmp_path):
        # reference lacking a branch the tree uses has infinite divergence
        path = tmp_path / "narrow.tree"
        path.write_text(
            '{"root": 0, "edges": [[0, "a", 1], [0, "b", 2]],'
            ' "leaf_mass": [[1, "1/2"], [2, "1/2"]]}',
            "utf-8",
        )
        code, report, _, _ = invoke(["divergence", demo_file, str(path)])
        assert report.results["divergence"]["value"] == "inf"
        assert report.results["normalized_divergence"]["value"] == "inf"
        assert code == 0
        assert report.all_checks_pass()

    @pytest.fixture
    def halves_file(self, tmp_path):
        path = tmp_path / "halves.tree"
        path.write_text(float_star([0.5, 0.5]), "utf-8")
        return str(path)

    def test_float_mass_ratio_past_the_float_range(self, halves_file, tmp_path):
        # 0.5 / 1e-320 overflows to inf, while its logarithm is about 1064
        path = tmp_path / "tiny.tree"
        path.write_text(float_star([1.0, 1e-320]), "utf-8")
        code, report, _, err = invoke(["divergence", halves_file, str(path)])
        assert (code, err) == (0, "")
        value = report.results["divergence"]["value"]
        assert value == pytest.approx(530.5085032126528, rel=1e-12)

    def test_product_mass_below_the_float_range(self, halves_file):
        # float(1/10^400) is 0.0, so the float quotient p / q divides by zero
        big = 10**400
        code, report, _, err = invoke(
            ["divergence", halves_file, "--product", f"1/{big},{big - 1}/{big}"]
        )
        assert (code, err) == (0, "")
        value = report.results["divergence"]["value"]
        assert value == pytest.approx(663.3856189774724, rel=1e-12)

    def test_a_mixed_pair_reports_as_float(self, tmp_path):
        # random.tree against its remass: an exact tree against a JSON-number
        # one, either way round, runs as the float pair that --float loads
        golden = Path(__file__).parent / "golden" / "random.tree"
        p = parse_tree(golden.read_text("utf-8"))
        paths = {}
        for name, tree in (("p", p), ("q", remass(p, 7))):
            for suffix, text in (("", serialize_tree(tree)),
                                 ("_float", serialize_tree(float_mirror(tree)))):
                paths[name + suffix] = tmp_path / f"{name}{suffix}.tree"
                paths[name + suffix].write_text(text, "utf-8")
        runs = [
            ["divergence", "--json", str(paths["p"]), str(paths["q_float"])],
            ["divergence", "--json", str(paths["p_float"]), str(paths["q"])],
            ["divergence", "--json", "--float", str(paths["p"]), str(paths["q"])],
        ]
        reports = []
        for argv in runs:
            code, _, out, err = invoke(argv)
            assert (code, err) == (0, "")
            reports.append(json.loads(out))
        sides = [(r["results"], r["checks"]) for r in reports]
        assert sides[0] == sides[1] == sides[2]
        assert sides[0][0]["divergence"] == {"value": 0.6111769526960777, "unit": "bits"}

    def test_reference_leaf_below_the_float_range(self, halves_file, tmp_path):
        # the exact reference leaf of mass 1/10^400 meets a float p, so the
        # reference runs as its float tree, as with --float: the leaf's
        # float is 0.0 and is pruned, which leaves p's branch to it
        # uncovered.  As a --product spec mass it stays exact.
        big = 10**400
        path = tmp_path / "tiny.tree"
        path.write_text(json.dumps({
            "root": 0, "edges": [[0, 0, 1], [0, 1, 2]],
            "leaf_mass": [[1, f"1/{big}"], [2, f"{big - 1}/{big}"]],
        }), "utf-8")
        for flags in ([], ["--float"]):
            code, report, _, err = invoke(["divergence", halves_file, str(path), *flags])
            assert (code, err) == (0, "")
            assert report.results["divergence"]["value"] == "inf"
        code, report, _, err = invoke(
            ["divergence", halves_file, "--product", f"1/{big},{big - 1}/{big}"]
        )
        assert (code, err) == (0, "")
        assert report.results["divergence"]["value"] == 663.3856189774725

    def test_requires_exactly_one_reference(self, demo_file, demo_q_file):
        code, _, _, err = invoke(["divergence", demo_file])
        assert code == 2
        assert "exactly one reference" in err
        code, _, _, err = invoke(
            ["divergence", demo_file, demo_q_file, "--product", "1/2,1/2"]
        )
        assert code == 2

    @pytest.mark.parametrize("depth", [660, 1000])
    def test_product_reference_on_deep_float_tree(self, tmp_path, depth):
        # The product masses of the deepest leaves, 3**-depth, are subnormal
        # at depth 660 and 0.0 at depth 1000 in float; the branch-sum form
        # never forms them.
        text = caterpillar_document(depth)
        path = tmp_path / "caterpillar.tree"
        path.write_text(text, "utf-8")
        code, report, _, err = invoke(
            ["divergence", str(path), "--product", "2/3,1/3", "--json"]
        )
        assert (code, err) == (0, "")
        spec = ProductSpec(
            FiniteDistribution({0: Fraction(2, 3), 1: Fraction(1, 3)})
        )
        expected = float(product_branch_divergence(parse_tree(text), spec))
        value = report.results["divergence"]["value"]
        assert value == pytest.approx(expected, rel=1e-9)

    def test_mixed_label_types(self, tmp_path):
        path = tmp_path / "mixed.tree"
        path.write_text(
            '{"root": 0, "edges": [[0, "a", 1], [0, 1, 2]],'
            ' "leaf_mass": [[1, "1/4"], [2, "3/4"]]}',
            "utf-8",
        )
        code, report, _, err = invoke(
            ["divergence", str(path), "--product", "1/2,1/2"]
        )
        assert (code, err) == (0, "")
        assert report.all_checks_pass()

    @pytest.mark.parametrize("epsilon", ["-1", "0", "1e-400", "1e400"])
    def test_non_positive_or_non_finite_epsilon_is_an_input_error(
        self, demo_file, epsilon
    ):
        code, _, _, err = invoke(
            ["divergence", demo_file, "--product", "1/2,1/2", "--epsilons", epsilon]
        )
        assert code == 2
        assert "ParamsInvalid" in err

    def test_wrong_product_arity(self, demo_file):
        code, _, _, err = invoke(
            ["divergence", demo_file, "--product", "1/2,1/4,1/4"]
        )
        assert code == 2
        assert "AlphabetMismatch" in err


class TestCheck:
    def test_default_functionals(self, demo_file):
        code, report, out, _ = invoke(["check", demo_file])
        assert code == 0
        names = [check["name"] for check in report.checks]
        assert names == [
            "lansit[path-length]",
            "differential-lansit[path-length]",
            "lansit[surprisal]",
            "differential-lansit[surprisal]",
        ]
        assert all(check["passed"] for check in report.checks)
        assert all(check["tolerance"] == 0.0 for check in report.checks)
        assert out.count(": PASS") == 4

    def test_path_length_sides(self, demo_file):
        _, report, _, _ = invoke(["check", demo_file])
        lansit = report.checks[0]
        assert lansit["leaf_side"] == 2.5
        assert lansit["node_side"] == 2.5
        assert lansit["residual"] == 0.0
        differential = report.checks[1]
        assert differential["leaf_side"] == 1.0
        assert differential["node_side"] == 1.0

    def test_functional_file(self, demo_file, tmp_path):
        path = tmp_path / "f.json"
        values = {str(n): str(n * n) for n in (0, 1, 2, 3, 5, 6)}
        path.write_text(json.dumps(values), "utf-8")
        code, report, _, _ = invoke(
            ["check", demo_file, "--functional", str(path)]
        )
        assert code == 0
        assert [c["name"] for c in report.checks] == [
            "lansit[file]",
            "differential-lansit[file]",
        ]
        assert report.all_checks_pass()

    def test_functional_file_missing_nodes(self, demo_file, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"0": "1"}', "utf-8")
        code, _, _, err = invoke(
            ["check", demo_file, "--functional", str(path)]
        )
        assert code == 2
        assert "FunctionalIncomplete" in err

    @pytest.mark.parametrize(
        "value",
        [None, [1], {"a": 1}, 10**400, math.inf, math.nan, True],
        ids=["null", "list", "object", "huge", "inf", "nan", "true"],
    )
    def test_functional_file_value_that_is_no_finite_number_is_rejected(
        self, demo_file, tmp_path, value
    ):
        path = tmp_path / "f.json"
        values = {str(n): "0" for n in (0, 1, 2, 3, 5, 6)}
        path.write_text(json.dumps({**values, "3": value}), "utf-8")
        code, _, _, err = invoke(["check", demo_file, "--functional", str(path)])
        assert code == 2
        assert "error:" in err

    def test_functional_file_value_that_is_no_rational_is_a_parse_error(
        self, demo_file, tmp_path
    ):
        path = tmp_path / "f.json"
        path.write_text('{"0": "abc"}', "utf-8")
        code, report, out, err = invoke(["check", demo_file, "--functional", str(path)])
        assert (code, report, out) == (2, None, "")
        assert err == "error: ParseError: functional value of node 0: not a rational number: 'abc'\n"

    def test_functional_file_that_is_no_object_is_rejected(self, demo_file, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('["0", "1"]', "utf-8")
        code, _, _, err = invoke(["check", demo_file, "--functional", str(path)])
        assert code == 2
        assert "functional file must be a JSON object" in err

    def test_functional_file_key_of_a_pruned_node_is_skipped(self, tmp_path):
        # leaf 3 carries zero mass, so the tree drops it; its value is unused
        doc = tmp_path / "pruned.tree"
        doc.write_text(
            json.dumps(
                {
                    "root": 0,
                    "edges": [[0, "a", 1], [0, "b", 2], [0, "c", 3]],
                    "leaf_mass": [[1, "1/2"], [2, "1/2"], [3, "0"]],
                }
            ),
            "utf-8",
        )
        path = tmp_path / "f.json"
        path.write_text('{"0": "0", "1": "1", "2": "3", "3": "100"}', "utf-8")
        code, report, _, err = invoke(["check", str(doc), "--functional", str(path)])
        assert (code, err) == (0, "")
        assert report.checks[0]["leaf_side"] == 2.0

    def test_functional_file_nested_too_deeply_is_an_input_error(
        self, demo_file, tmp_path
    ):
        path = tmp_path / "f.json"
        path.write_text('{"0": ' + "[" * 200_000 + "]" * 200_000 + "}", "utf-8")
        code, _, _, err = invoke(["check", demo_file, "--functional", str(path)])
        assert code == 2
        assert "ParseError" in err

    def test_functional_file_keys_name_string_and_integer_ids(self, tmp_path):
        # node ids 1 (integer) and "x" (string) are both named by JSON keys
        doc = tmp_path / "mixed.tree"
        doc.write_text(
            json.dumps(
                {
                    "root": 0,
                    "edges": [[0, "a", 1], [0, "b", "x"]],
                    "leaf_mass": [[1, "1/2"], ["x", "1/2"]],
                }
            ),
            "utf-8",
        )
        path = tmp_path / "f.json"
        path.write_text('{"0": "0", "1": "1", "x": "3"}', "utf-8")
        code, report, _, _ = invoke(["check", str(doc), "--functional", str(path)])
        assert code == 0
        assert report.checks[0]["leaf_side"] == 2.0

    def test_functional_file_key_naming_two_ids_is_rejected(self, tmp_path):
        # node ids 0 and "0" both print as "0", so key "0" is ambiguous
        doc = tmp_path / "clash.tree"
        doc.write_text(
            json.dumps(
                {
                    "root": "r",
                    "edges": [["r", "a", 0], ["r", "b", "0"]],
                    "leaf_mass": [[0, "1/2"], ["0", "1/2"]],
                }
            ),
            "utf-8",
        )
        path = tmp_path / "f.json"
        path.write_text('{"r": "0", "0": "1"}', "utf-8")
        code, _, _, err = invoke(["check", str(doc), "--functional", str(path)])
        assert code == 2
        assert "ParseError" in err

    @pytest.fixture
    def halves(self, tmp_path):
        """An exact and a float 1/2,1/2 star, and a writer of functional files."""
        exact, floats = tmp_path / "exact.tree", tmp_path / "float.tree"
        exact.write_text(
            json.dumps({"root": 0, "edges": [[0, 0, 1], [0, 1, 2]],
                        "leaf_mass": [[1, "1/2"], [2, "1/2"]]}),
            "utf-8",
        )
        floats.write_text(float_star([0.5, 0.5]), "utf-8")

        def functional(text):
            path = tmp_path / "f.json"
            path.write_text(text, "utf-8")
            return str(path)

        return str(exact), str(floats), functional

    @staticmethod
    def strict_json(text):
        """json.loads that rejects the bare constants NaN and Infinity."""

        def reject(name):
            raise ValueError(f"bare JSON constant {name}")

        return json.loads(text, parse_constant=reject)

    def test_non_finite_sides_print_as_json_strings(self, halves):
        _, floats, functional = halves
        path = functional('{"0": 1e308, "1": -1e308, "2": -1e308}')
        code, _, out, err = invoke(["check", "--json", floats, "--functional", path])
        assert (code, err) == (0, "")
        tree = parse_tree(Path(floats).read_text("utf-8"))
        lansit = identities.lansit_check(tree, {0: 1e308, 1: -1e308, 2: -1e308})
        assert lansit.leaf_side == lansit.node_side == -math.inf
        for check in self.strict_json(out)["checks"]:
            assert [check[k] for k in ("leaf_side", "node_side", "residual")] == [
                "-inf", "-inf", "nan"
            ]

    def test_exact_side_past_the_float_range(self, halves):
        exact, _, functional = halves
        path = functional('{"0": "1e400", "1": "0", "2": "0"}')
        code, _, out, err = invoke(["check", "--json", exact, "--functional", path])
        assert (code, err) == (0, "")
        for check in self.strict_json(out)["checks"]:
            assert [check[k] for k in ("leaf_side", "node_side", "residual")] == [
                "-inf", "-inf", 0.0
            ]
        code, _, out, err = invoke(["check", exact, "--functional", path])
        assert (code, err) == (0, "")
        assert "leaf_side=-inf node_side=-inf residual=0.0" in out

    @pytest.mark.parametrize("force_float", [False, True], ids=["float-tree", "--float"])
    def test_rational_value_past_the_float_range_on_a_float_tree(
        self, halves, force_float
    ):
        exact, floats, functional = halves
        path = functional('{"0": "1e400", "1": "0", "2": "0"}')
        argv = ["check", "--float", exact] if force_float else ["check", floats]
        code, _, _, err = invoke(argv + ["--functional", path])
        assert code == 2
        assert "ParseError" in err

    def test_rational_value_past_the_float_range_in_a_float_sum(self, halves):
        # one JSON number makes the sums on an exact tree float sums
        exact, _, functional = halves
        path = functional('{"0": "1e400", "1": 0.5, "2": 0}')
        code, _, _, err = invoke(["check", exact, "--functional", path])
        assert code == 2
        assert "ParseError" in err

    def test_one_json_number_reports_as_float(self, tmp_path):
        # rational texts with one JSON number on an exact document print what
        # --float prints: the sums and E[w(L)] are the float tree's
        golden = Path(__file__).parent / "golden"
        doc = str(golden / "random.tree")
        values = {str(v): f"{v}/7" for v in range(22)}
        path = tmp_path / "f.json"
        path.write_text(json.dumps({**values, "3": 0.35}), "utf-8")
        runs = [invoke(["check", "--json", *force, doc, "--functional", str(path)])
                for force in ([], ["--float"])]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][2] == runs[1][2]
        assert [c["tolerance"] for c in runs[0][1].checks] == [1e-9, 1e-9]

    @pytest.mark.parametrize(
        "masses, functional",
        [
            # a common offset of 1e12 cancels between the two sides
            (
                [0.1, 0.2, 0.7],
                '{"0": 1000000000000, "1": 1000000000000.3,'
                ' "2": 1000000000000.7, "3": 1000000000001.1}',
            ),
            # leaf masses that sum to 1 only within the accepted tolerance
            ([0.5, 0.5000000005], '{"0": 1000000, "1": 1000001, "2": 1000002}'),
        ],
        ids=["large-offset", "mass-sum-off-one"],
    )
    def test_float_identity_holds_on_large_functional_values(
        self, tmp_path, masses, functional
    ):
        doc = tmp_path / "star.tree"
        doc.write_text(float_star(masses), "utf-8")
        path = tmp_path / "f.json"
        path.write_text(functional, "utf-8")
        code, report, _, err = invoke(["check", str(doc), "--functional", str(path)])
        assert (code, err) == (0, "")
        assert [c["passed"] for c in report.checks] == [True, True]

    def test_float_mode_uses_tolerance(self, demo_file):
        code, report, _, _ = invoke(["check", "--float", demo_file])
        assert code == 0
        assert all(check["tolerance"] == 1e-9 for check in report.checks)
        assert report.all_checks_pass()


class TestSweep:
    def test_csv_to_stdout(self):
        code, _, out, _ = invoke(
            ["sweep", "--target", "2/3,1/3", "--budgets", "4,16"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("leaf_count,mean_length,")
        assert lines[1].startswith("4,2.25,")
        assert lines[2].startswith("16,")

    def test_csv_to_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code, report, out, _ = invoke(
            ["sweep", "--target", "2/3,1/3", "--budgets", "4,16",
             "--out", str(target)]
        )
        assert code == 0
        assert report.results["csv_path"]["value"] == str(target)
        text = target.read_text("utf-8")
        assert text.startswith("leaf_count,")
        assert "rows = 2" in out

    def test_one_label_target_is_an_input_error(self):
        code, _, _, err = invoke(["sweep", "--target", "1", "--budgets", "4"])
        assert code == 2
        assert "ParamsInvalid" in err

    def test_json_embeds_csv(self):
        code, _, out, _ = invoke(
            ["sweep", "--target", "1/2,1/2", "--budgets", "2,4", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sweep"
        assert "generator_algorithm" not in payload["results"]
        assert payload["results"]["csv"]["value"].startswith("leaf_count,")
        assert payload["results"]["final_normalized_divergence"]["value"] == 0.0

    def test_rational_epsilon(self):
        argv = ["sweep", "--target", "2/3,1/3", "--budgets", "4,16,64"]
        code, _, out, err = invoke(argv + ["--epsilon", "1/10"])
        assert (code, err) == (0, "")
        assert out == invoke(argv + ["--epsilon", "0.1"])[2]

    @pytest.mark.parametrize(
        "epsilon, error",
        [
            ("nan", "ParseError"),
            ("inf", "ParseError"),
            ("1e400", "ParamsInvalid"),
            ("0", "ParamsInvalid"),
            ("-1/10", "ParamsInvalid"),
        ],
    )
    def test_non_positive_or_non_finite_epsilon_is_an_input_error(
        self, epsilon, error
    ):
        code, _, out, err = invoke(
            ["sweep", "--target", "2/3,1/3", "--budgets", "4,16", f"--epsilon={epsilon}"]
        )
        assert (code, out) == (2, "")
        assert error in err

    def test_invalid_budgets(self):
        code, _, _, err = invoke(
            ["sweep", "--target", "2/3,1/3", "--budgets", "16,4"]
        )
        assert code == 2
        assert "ParamsInvalid" in err

    @pytest.mark.parametrize(
        "budget", ["x", "4.0", "", "9" * 5000], ids=["letter", "decimal", "empty", "too-long"]
    )
    def test_budget_that_is_no_integer_is_a_parse_error(self, budget):
        code, report, out, err = invoke(
            ["sweep", "--target", "1/2,1/2", "--budgets", f"4,{budget}"]
        )
        assert (code, report, out) == (2, None, "")
        assert err == f"error: ParseError: --budgets: not an integer: {budget!r}\n"

    def test_invalid_target(self):
        code, _, _, err = invoke(
            ["sweep", "--target", "2/3,1/2", "--budgets", "4,16"]
        )
        assert code == 2

    def test_budget_above_the_limit_is_an_input_error(self):
        # unbounded, this budget grows the matcher until memory runs out
        start = time.perf_counter()
        code, _, out, err = invoke(
            ["sweep", "--target", "1/2,1/2", "--budgets", "2,1000000000000"]
        )
        assert time.perf_counter() - start < 10.0
        assert (code, out) == (2, "")
        assert "ParamsInvalid" in err


class TestParsing:
    def test_help_exits_zero(self):
        code, report, _, _ = invoke(["--help"])
        assert code == 0
        assert report is None

    def test_unknown_command(self):
        code, report, _, _ = invoke(["frobnicate"])
        assert code == 2
        assert report is None

    def test_missing_required_argument(self):
        code, _, _, _ = invoke(["sweep", "--target", "1/2,1/2"])
        assert code == 2


class TestParserReuse:
    """``run_cli`` builds its parser once per process; a call through the
    shared parser prints and returns what a call through a fresh one does."""

    ARGVS = [
        ["validate", "demo.tree"],
        ["analyze", "--json", "demo.tree"],
        ["divergence", "demo.tree", "demo_q.tree"],
        ["check", "--json", "demo.tree"],
        ["sweep", "--target", "1/2,1/2", "--budgets", "4,16"],
        ["check"],
        ["sweep", "--target", "1/2,1/2", "--budgets", "4", "--bogus"],
        ["--help"],
        ["divergence", "--help"],
        [],
    ]

    def run(self, argv, capsys):
        code, _, out, err = invoke(argv)
        printed = capsys.readouterr()  # anything that bypassed out and err
        return code, out, err, printed.out, printed.err

    def test_repeated_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert [result[0] for result in fresh] == [0, 0, 0, 0, 0, 2, 2, 0, 0, 2]
        assert "usage: treeprob" in fresh[7][1] and "usage: treeprob" in fresh[5][2]
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert [self.run(argv, capsys) for argv in self.ARGVS] == fresh
        assert cli._build_parser.cache_info().misses == 1


class TestGivenStreams:
    """argparse's help and usage errors go to the ``out`` and ``err`` that
    ``run_cli`` was given, and nothing reaches the process's own streams;
    without given streams they go to sys.stdout and sys.stderr."""

    @pytest.mark.parametrize(
        "argv, code, stream",
        [
            (["--help"], 0, "out"),
            (["divergence", "--help"], 0, "out"),
            (["check"], 2, "err"),
            ([], 2, "err"),
            (["bogus"], 2, "err"),
            (["sweep", "--target", "1/2,1/2", "--budgets", "4", "--bogus"], 2, "err"),
        ],
    )
    def test_given_streams(self, capsys, argv, code, stream):
        result, report, out, err = invoke(argv)
        printed = capsys.readouterr()
        assert (printed.out, printed.err) == ("", "")
        assert (result, report) == (code, None)
        written = {"out": out, "err": err}
        assert written.pop(stream).startswith("usage: treeprob")
        assert list(written.values()) == [""]

    def test_process_streams_by_default(self, capsys):
        assert run_cli(["--help"]) == (0, None)
        assert run_cli(["check"]) == (2, None)
        printed = capsys.readouterr()
        assert printed.out.startswith("usage: treeprob")
        assert printed.err.startswith("usage: treeprob")


class TestExitCodes:
    """The exit code follows the report's checks: a failing verdict exits 1
    and still prints the whole report, a command without checks exits 0,
    and an input or usage error exits 2 with no report and nothing on
    stdout."""

    @staticmethod
    def fail_every_verdict(monkeypatch):
        """Make every Lansit side and every Pinsker report fail its verdict."""
        monkeypatch.setattr(identities.LansitReport, "holds", lambda self: False)
        pinsker_report = approximation.tree_pinsker_report
        monkeypatch.setattr(
            approximation,
            "tree_pinsker_report",
            lambda *args: dataclasses.replace(pinsker_report(*args), holds=False),
        )

    @pytest.fixture
    def failing(self, monkeypatch):
        self.fail_every_verdict(monkeypatch)

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize(
        "command, failed",
        [
            (["check"], 4),
            (["divergence", "--product", "1/2,1/2"], 1),
            (["divergence", "demo_q.tree"], 1),
        ],
        ids=["check", "divergence-product", "divergence-tree"],
    )
    def test_failing_verdict_exits_one(self, monkeypatch, command, failed, as_json):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        argv = command[:1] + ["demo.tree"] + command[1:] + ["--json"] * as_json
        code, passing, passing_out, err = invoke(argv)
        assert (code, err) == (0, "")
        self.fail_every_verdict(monkeypatch)
        code, report, out, err = invoke(argv)
        assert (code, err) == (1, "")
        assert (report.inputs, report.results) == (passing.inputs, passing.results)
        assert [check["passed"] for check in report.checks] == [False] * failed
        if as_json:
            payload = json.loads(out)
            assert payload == json.loads(report.to_json())
            assert [check["passed"] for check in payload["checks"]] == [False] * failed
            expected = json.loads(passing_out)
            for check in expected["checks"]:
                check["passed"] = False
            assert payload == expected
        else:
            assert out.count(": FAIL") == failed
            assert out == passing_out.replace(": PASS", ": FAIL")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "demo.tree"],
            ["validate", "--json", "demo.tree"],
            ["analyze", "demo.tree"],
            ["analyze", "--json", "demo.tree"],
            ["sweep", "--target", "1/2,1/2", "--budgets", "4,16"],
            ["sweep", "--target", "1/2,1/2", "--budgets", "4,16", "--json"],
            ["sweep", "--target", "1/2,1/2", "--budgets", "4,16", "--out", "{tmp}"],
        ],
        ids=["validate", "validate-json", "analyze", "analyze-json",
             "sweep-csv", "sweep-json", "sweep-out"],
    )
    def test_commands_without_checks_exit_zero(self, failing, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        argv = [arg.format(tmp=tmp_path / "sweep.csv") for arg in argv]
        code, report, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert report.checks == []
        assert out
        if "--out" in argv:
            assert (tmp_path / "sweep.csv").read_text("utf-8").startswith("leaf_count,")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "missing.tree"],
            ["validate", "{cyclic}"],
            ["analyze", "--json", "{cyclic}"],
            ["check", "demo.tree", "--functional", "{functional}"],
            ["check", "--json", "{cyclic}"],
            ["divergence", "demo.tree", "demo_q.tree", "--product", "1/2,1/2"],
            ["divergence", "--json", "demo.tree", "--product", "1/2,1/2", "--epsilons", "0"],
            ["sweep", "--target", "1/2,1/2", "--budgets", "4,x", "--json"],
            ["sweep", "--target", "1/2,1/2", "--budgets", "4", "--out", "{tmp}/no/sweep.csv"],
            ["check"],
            ["frobnicate"],
        ],
        ids=["missing-file", "cyclic", "analyze-cyclic", "functional", "check-cyclic",
             "two-references", "epsilon", "budget", "out-dir", "usage", "unknown-command"],
    )
    def test_input_errors_exit_two_with_nothing_on_stdout(
        self, failing, monkeypatch, tmp_path, cyclic_file, argv
    ):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        functional = tmp_path / "f.json"
        functional.write_text(json.dumps({"0": "abc"}), "utf-8")
        argv = [
            arg.format(cyclic=cyclic_file, functional=functional, tmp=tmp_path)
            for arg in argv
        ]
        code, report, out, _ = invoke(argv)
        assert (code, report, out) == (2, None, "")


class TestModuleEntryPoint:
    """``python -m treeprob`` exits with the code that run_cli returns."""

    def test_exit_codes(self, tmp_path):
        tests = Path(__file__).resolve().parent
        malformed = tmp_path / "malformed.tree"
        malformed.write_text('{"root": 0, "edges": [', "utf-8")
        path = [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for document, expected in ((tests / "golden" / "demo.tree", 0), (malformed, 2)):
            done = subprocess.run(
                [sys.executable, "-m", "treeprob", "validate", str(document)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == expected, done.stderr

    @pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_ids_the_stdout_cannot_encode(self, tmp_path, encoding, as_json):
        tests = Path(__file__).resolve().parent
        document = tmp_path / "unencodable.tree"
        document.write_text(UNENCODABLE_DOCUMENT, "utf-8")
        path = [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env["PYTHONIOENCODING"] = f"{encoding}:strict"
        done = subprocess.run(
            [sys.executable, "-m", "treeprob", "analyze", str(document)] + ["--json"] * as_json,
            capture_output=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        if as_json:
            distribution = json.loads(done.stdout)["results"]["branching_node_distribution"]
            assert set(distribution["value"]) == UNENCODABLE_IDS
        else:
            assert b"branching_node_distribution[\\ud800] = " in done.stdout


class TestComputeOnce:
    """Each request evaluates each branch sum once.

    Calls are counted by wrapping the name on every module that binds it,
    since callers look it up there at call time.
    """

    @pytest.mark.parametrize(
        "argv, names, calls",
        [
            (["check", "P"], ["lansit_check"], 2),
            (["analyze", "P"], ["leaf_entropy"], 1),
            (["divergence", "P", "Q"], ["tree_divergence", "pair_divergence"], 1),
            (["divergence", "P", "Q"], ["align_by_paths"], 1),
            (
                ["divergence", "P", "--product", "1/2,1/2"],
                ["product_branch_divergence", "pair_divergence"],
                1,
            ),
            (
                ["sweep", "--target", "2/3,1/3", "--budgets", "4,16,64"],
                ["leaf_entropy"],
                3,
            ),
            (["divergence", "P", "--float", "--product", "1/2,1/2"], ["comparison_sums"], 1),
            (
                ["divergence", "P", "--float", "--product", "1/2,1/2"],
                ["leaf_entropy", "entropy_of"],
                0,
            ),
            (["divergence", "P", "Q", "--float"], ["align_by_paths"], 1),
            (["divergence", "P", "Q", "--float"], ["comparison_sums"], 1),
        ],
        ids=[
            "check",
            "analyze",
            "divergence-tree",
            "divergence-align",
            "divergence-product",
            "sweep",
            "divergence-product-float",
            "divergence-product-float-no-entropy",
            "divergence-align-float",
            "divergence-tree-float",
        ],
    )
    def test_branch_sums_per_request(
        self, monkeypatch, demo_file, demo_q_file, argv, names, calls
    ):
        counted = []
        modules = (identities, approximation, generators)
        for name in names:
            original = next(getattr(m, name) for m in modules if hasattr(m, name))

            def wrapper(*args, _original=original, _name=name):
                counted.append(_name)
                return _original(*args)

            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        paths = {"P": demo_file, "Q": demo_q_file}
        code, _, _, _ = invoke([paths.get(arg, arg) for arg in argv])
        assert code == 0
        assert len(counted) == calls, counted

    @pytest.mark.parametrize(
        "argv, trees",
        [
            (["check", "P"], 1),
            (["analyze", "P"], 1),
            (["divergence", "P", "Q"], 2),
            (["divergence", "P", "--product", "1/2,1/2"], 1),
            (["sweep", "--target", "2/3,1/3", "--budgets", "4,16,64"], 3),
        ],
        ids=["check", "analyze", "divergence-tree", "divergence-product", "sweep"],
    )
    def test_mass_table_per_tree(self, monkeypatch, demo_file, demo_q_file, argv, trees):
        """build_tree, or the table builder for a sweep's matcher trees,
        sums one mass table per tree, ``mass_below``, which holds an
        integer for every node of the tree, in preorder."""
        built = []
        builders = {
            (treefile, "build_tree"): build_tree,
            (generators, "build_tree"): build_tree,
            (generators, "_tree_from_tables"): generators._tree_from_tables,
        }
        for (module, name), builder in builders.items():

            def counted(*args, _builder=builder, **kwargs):
                tree = _builder(*args, **kwargs)
                built.append(tree)
                return tree

            monkeypatch.setattr(module, name, counted)
        paths = {"P": demo_file, "Q": demo_q_file}
        code, _, _, _ = invoke([paths.get(arg, arg) for arg in argv])
        assert code == 0
        # the trees are kept alive in ``built``, so their ids are distinct
        assert len({id(tree) for tree in built}) == len(built) == trees
        for tree in built:
            assert tree.exact
            table = tree.mass_below
            assert tuple(table) == tree.nodes
            assert all(type(n) is int for n in table.values())


class TestLargePrimeMasses:
    """Exact requests factor reduced masses, never the common denominator D
    of the integer mass table.

    The leaves 1/2p, (p-1)/2p, 1/2q, (q-1)/2q with primes p, q near 10^9
    make D = 2pq.  Trial division finds p in about p/3 steps, minutes of
    work, while each reduced mass holds p or q alone and factors in
    milliseconds.
    """

    P, Q = 1000000007, 998244353

    def star(self, tmp_path, name, masses):
        labels = "abcd"
        document = {
            "version": "1",
            "root": 0,
            "edges": [[0, a, i + 1] for i, a in enumerate(labels)],
            "leaf_mass": [[i + 1, m] for i, m in enumerate(masses)],
            "metadata": {},
        }
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_requests_never_factor_d(self, monkeypatch, tmp_path):
        p, q = self.P, self.Q
        masses = [f"1/{2 * p}", f"{p - 1}/{2 * p}", f"1/{2 * q}", f"{q - 1}/{2 * q}"]
        tree_p = self.star(tmp_path, "p.tree", masses)
        tree_q = self.star(tmp_path, "q.tree", [masses[i] for i in (1, 0, 3, 2)])
        target = ",".join(masses)
        factorize = numeric._factorize
        factored = []

        def guarded(n):
            assert n % (p * q), f"factoring {n}, a multiple of pq"
            factored.append(n)
            return factorize(n)

        monkeypatch.setattr(numeric, "_factorize", guarded)
        start = time.perf_counter()
        for argv in (
            ["analyze", tree_p],
            ["check", tree_p],
            ["divergence", tree_p, tree_q],
            ["divergence", tree_p, "--product", target],
            ["sweep", "--target", target, "--budgets", "4,16"],
        ):
            code, _, _, err = invoke(argv)
            assert code == 0, (argv, err)
        assert time.perf_counter() - start < 5.0
        assert any(n % p == 0 for n in factored)
        assert any(n % q == 0 for n in factored)

    def test_internal_prime_is_never_factored(self, monkeypatch, tmp_path):
        """Every leaf mass is smooth, but the node above the leaves 3^30/2^140
        and 5^37/2^140 has the mass (3^30 + 5^37)/2^140, whose odd part is the
        26-digit prime 36379788071020075082648887.  The rest of 2^140 hangs
        as power-of-two leaves down a 0/1 spine.  Entropy and both
        divergences fold over leaves, so they factor leaf and spec masses
        only."""
        whole = 2**140
        rest = whole - 3**30 - 5**37
        edges, masses = [], []
        spine = 0
        for k in reversed(range(rest.bit_length())):
            if rest >> k & 1:
                edges += [[spine, 0, spine + 1], [spine, 1, spine + 2]]
                masses.append([spine + 1, f"{2**k}/{whole}"])
                spine += 2
        edges += [[spine, 0, spine + 1], [spine, 1, spine + 2]]
        masses += [[spine + 1, f"{3**30}/{whole}"], [spine + 2, f"{5**37}/{whole}"]]
        path = tmp_path / "spine.tree"
        path.write_text(json.dumps({"root": 0, "edges": edges, "leaf_mass": masses}))
        allowed = set()
        for m in [m for _, m in masses] + ["1/2", "2"]:
            allowed.update(Fraction(m).as_integer_ratio())
        factorize = numeric._factorize

        def guarded(n):
            assert n in allowed, f"factoring {n}, not a term of a leaf or spec mass"
            return factorize(n)

        monkeypatch.setattr(numeric, "_factorize", guarded)
        start = time.perf_counter()
        for argv in (
            ["analyze", str(path)],
            ["divergence", str(path), str(path)],
            ["divergence", str(path), "--product", "1/2,1/2"],
        ):
            code, _, _, err = invoke(argv)
            assert code == 0, (argv, err)
        assert time.perf_counter() - start < 5.0


class TestLargePrimePowers:
    def test_geometric_caterpillar(self, tmp_path):
        """Leaf masses 2^d / 3^(d+1) down a 2400-deep spine: each leaf mass
        holds a power of 3 with a large exponent, which factoring must strip
        in one go rather than one 3 at a time (the cost would grow with the
        depth cubed)."""
        depth = 2400
        edges, masses = [], []
        for d in range(depth):
            edges += [[2 * d, 0, 2 * d + 1], [2 * d, 1, 2 * d + 2]]
            masses.append([2 * d + 1, f"{2**d}/{3**(d + 1)}"])
        masses.append([2 * depth, f"{2**depth}/{3**depth}"])
        path = tmp_path / "geometric.tree"
        path.write_text(json.dumps({"root": 0, "edges": edges, "leaf_mass": masses}))
        start = time.perf_counter()
        code, report, _, err = invoke(["analyze", str(path), "--json"])
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        # E[w(L)] = sum of (2/3)^d over the spine, 3 (1 - (2/3)^depth)
        assert report.results["mean_length"]["value"] == pytest.approx(3.0)


# Documents the mutations start from: exact and float, with and without
# unary nodes; each is valid as it stands.
SEED_DOCUMENTS = [
    DEMO_DOCUMENT,
    DEMO_Q_DOCUMENT,
    caterpillar_document(3),
    serialize_tree(corpus_tree(1)),
    serialize_tree(float_mirror(corpus_tree(2))),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 10**400, 2**63])
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "0", "-1/4", "1e400", "1e-400", "nan", "1/0", "a"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw):
    """A seed document, as it is or with a few JSON-level or text-level
    mutations: values replaced, entries deleted or duplicated, characters
    deleted, inserted or replaced."""
    text = draw(st.sampled_from(SEED_DOCUMENTS))
    kind = draw(st.sampled_from(["valid", "mass", "json", "text"]))
    if kind == "mass":
        doc = json.loads(text)
        entry = draw(st.sampled_from(doc["leaf_mass"]))
        entry[1] = draw(st.sampled_from(["1e400", 10**400, "1e-400", 1e308, -0.0]) | json_values)
        text = json.dumps(doc)
    elif kind == "json":
        doc = json.loads(text)
        for _ in range(draw(st.integers(1, 3))):
            node = doc
            while node:
                key = (
                    draw(st.sampled_from(sorted(node)))
                    if isinstance(node, dict)
                    else draw(st.integers(0, len(node) - 1))
                )
                action = draw(st.sampled_from(["descend", "replace", "delete", "copy"]))
                child = node[key]
                if action == "descend" and isinstance(child, (dict, list)) and child:
                    node = child
                    continue
                if action == "delete":
                    del node[key]
                elif action == "copy" and isinstance(node, list):
                    node.insert(key, copy.deepcopy(child))
                else:
                    node[key] = draw(json_values)
                break
        text = json.dumps(doc)
    elif kind == "text":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(text)))
            piece = draw(st.sampled_from(["", "0", "-", "[", "]", '"', ",", "/", "9"]))
            cut = draw(st.integers(0, 2))
            text = text[:at] + piece + text[at + cut:]
    return text


class TestAnyDocument:
    """Every document, valid or not, gives exit code 0, 1 or 2."""

    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(documents(), st.booleans())
    def test_exit_code_contract(self, tmp_path_factory, text, as_float):
        path = tmp_path_factory.mktemp("doc") / "tree.json"
        path.write_text(text, "utf-8")
        ref = tmp_path_factory.mktemp("ref") / "ref.json"
        ref.write_text(DEMO_DOCUMENT, "utf-8")
        flags = ["--float"] if as_float else []
        for argv in (
            ["validate", str(path)],
            ["analyze", str(path)],
            ["check", str(path)],
            ["divergence", str(path), "--product", "1/2,1/2"],
            ["divergence", str(path), str(path)],
            ["divergence", str(ref), str(path)],
        ):
            code, _, _, _ = invoke(argv + flags + ["--json"])
            assert code in (0, 1, 2), argv


# strings with NUL, which the writer splits on, lone surrogates and
# non-ASCII text
report_text = st.text(
    st.characters() | st.sampled_from(["\x00", "\ud800", "\udfff", "é", "日"]), max_size=5
)
report_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-310])
    | report_text
)
report_values = st.recursive(
    report_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(report_text, inner, max_size=3),
    max_leaves=8,
)
reports = st.builds(
    cli.Report,
    command=report_text,
    inputs=st.dictionaries(report_text, report_text, max_size=2),
    results=st.dictionaries(
        report_text, st.dictionaries(report_text, report_values, max_size=3), max_size=3
    ),
    checks=st.lists(st.dictionaries(report_text, report_scalars, max_size=6), max_size=2),
)


class TestReportJson:
    """``Report.to_json`` lays a report out as the indented encoder does."""

    @given(reports)
    def test_layout_is_json_dumps_indent_2(self, report):
        for ensure_ascii in (False, True):
            want = json.dumps(vars(report), indent=2, ensure_ascii=ensure_ascii)
            assert report.to_json(ensure_ascii) == want

    def test_every_golden_report_is_its_own_layout(self, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent / "golden")
        cases = json.loads(Path("cases.json").read_text("utf-8"))
        for name, argv in cases.items():
            if "--json" in argv:
                _, report, out, _ = invoke(argv)
                for ensure_ascii in (False, True):
                    want = json.dumps(vars(report), indent=2, ensure_ascii=ensure_ascii)
                    assert report.to_json(ensure_ascii) == want, name
                assert out == report.to_json() + "\n", name
