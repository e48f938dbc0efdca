import copy
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
from corpus import corpus_tree, float_mirror
from treeprob import (
    FiniteDistribution,
    ProductSpec,
    approximation,
    build_tree,
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
            ("nan", "ValueError"),
            ("inf", "ValueError"),
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

    def test_invalid_target(self):
        code, _, _, err = invoke(
            ["sweep", "--target", "2/3,1/2", "--budgets", "4,16"]
        )
        assert code == 2


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
            (["divergence", "P", "Q"], ["tree_divergence", "aligned_divergence"], 1),
            (["divergence", "P", "Q"], ["align_by_paths"], 1),
            (
                ["divergence", "P", "--product", "1/2,1/2"],
                ["product_branch_divergence", "divergence_to_product"],
                1,
            ),
            (
                ["sweep", "--target", "2/3,1/3", "--budgets", "4,16,64"],
                ["leaf_entropy"],
                3,
            ),
        ],
        ids=[
            "check",
            "analyze",
            "divergence-tree",
            "divergence-align",
            "divergence-product",
            "sweep",
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
        """build_tree sums one mass table per input tree, and reading
        ``mass_numerators`` returns that table without summing again."""
        built = []

        def counted(*args, **kwargs):
            tree = build_tree(*args, **kwargs)
            built.append(tree)
            return tree

        for module in (treefile, generators):
            monkeypatch.setattr(module, "build_tree", counted)
        paths = {"P": demo_file, "Q": demo_q_file}
        code, _, _, _ = invoke([paths.get(arg, arg) for arg in argv])
        assert code == 0
        # the trees are kept alive in ``built``, so their ids are distinct
        assert len({id(tree) for tree in built}) == len(built) == trees
        for tree in built:
            assert tree.exact
            # the table is the field build_tree filled, not a recomputation
            assert tree.mass_numerators is vars(tree)["mass_below"]


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
