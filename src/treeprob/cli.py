"""Command-line surface: validate, analyze, divergence, check, sweep.

Every command reads tree documents (see treefile), runs library
operations, and emits either a human-readable listing or, with --json, a
structured report.  Reports carry the command name, a digest of each input
document, a map of named metrics with units, and a list of identity checks
with the tolerance each was judged by.

Exit codes: 0 on success with all checks passing, 1 when a reported check
fails, 2 on any input or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

from . import approximation, generators, identities, treefile
from .errors import AlphabetMismatch, ParseError, TreeProbError
from .numeric import ExactLog2, parse_rational
from .tree import Tree, path_lengths

__all__ = ["Report", "main", "run_cli"]

DEFAULT_EPSILONS = (0.01, 0.1, 0.5, 1.0)


@dataclass
class Report:
    """Structured command output; serialized verbatim by --json."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    results: dict[str, dict] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)

    def all_checks_pass(self) -> bool:
        return all(check["passed"] for check in self.checks)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, ensure_ascii=False)


def _json_value(value):
    x = float(value)
    if math.isinf(x):
        return "inf"
    return x


def _exact_string(value):
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    if isinstance(value, ExactLog2) and value.is_rational:
        return str(value.as_fraction())
    return None


def _result(value, unit: str) -> dict:
    entry = {"value": _json_value(value), "unit": unit}
    exact = _exact_string(value)
    if exact is not None:
        entry["exact"] = exact
    return entry


def _check_entry(name: str, report: identities.LansitReport) -> dict:
    tolerance = 0.0 if report.exact else identities.RESIDUAL_REL_TOL
    return {
        "name": name,
        "leaf_side": _json_value(report.leaf_side),
        "node_side": _json_value(report.node_side),
        "residual": _json_value(report.residual),
        "tolerance": tolerance,
        "passed": report.holds(),
    }


def _load_tree(path: str, force_float: bool) -> tuple[Tree, str]:
    data = Path(path).read_bytes()
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    tree = treefile.parse_tree(data.decode("utf-8"), force_float=force_float)
    return tree, digest


def _parse_mass_list(text: str) -> list[Fraction]:
    values = []
    for part in text.split(","):
        values.append(parse_rational(part))
    return values


def _float_or_inf(value) -> float:
    """float(value), or inf of its sign when value is past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_threshold(text: str) -> float:
    """A rational tail threshold as a float; the tail computations reject
    the non-finite and non-positive ones."""
    return _float_or_inf(parse_rational(text))


def _product_spec_for(tree: Tree, text: str) -> approximation.ProductSpec:
    values = _parse_mass_list(text)
    labels = tree.label_alphabet
    if len(values) != len(labels):
        raise AlphabetMismatch(
            f"{len(values)} product masses given for {len(labels)} branch"
            f" labels {labels!r}"
        )
    base = approximation.FiniteDistribution(dict(zip(labels, values)), exact=True)
    return approximation.ProductSpec(base)


def _print_report(report: Report, as_json: bool, out: io.TextIOBase) -> None:
    if as_json:
        print(report.to_json(), file=out)
        return
    for name, entry in report.results.items():
        value = entry["value"]
        if isinstance(value, dict):
            for key, sub in value.items():
                print(f"{name}[{key}] = {sub}", file=out)
            continue
        line = f"{name} = {value} {entry['unit']}"
        if "exact" in entry:
            line += f" (exact {entry['exact']})"
        print(line, file=out)
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(
            f"check {check['name']}: leaf_side={check['leaf_side']}"
            f" node_side={check['node_side']} residual={check['residual']}"
            f" tolerance={check['tolerance']}: {verdict}",
            file=out,
        )


def _cmd_validate(args, out) -> tuple[int, Report]:
    tree, digest = _load_tree(args.tree, args.float)
    report = Report(command="validate", inputs={args.tree: digest})
    report.results["leaf_count"] = {"value": len(tree.leaves), "unit": "leaves"}
    report.results["branching_count"] = {
        "value": len(tree.branching_nodes),
        "unit": "nodes",
    }
    report.results["mode"] = {
        "value": "exact" if tree.exact else "float",
        "unit": "numeric-mode",
    }
    _print_report(report, args.json, out)
    return 0, report


def _cmd_analyze(args, out) -> tuple[int, Report]:
    tree, digest = _load_tree(args.tree, args.float)
    report = Report(command="analyze", inputs={args.tree: digest})
    mean_length = identities.expected_path_length(tree)
    entropy = identities.leaf_entropy(tree)
    report.results["mean_length"] = _result(mean_length, "branches")
    report.results["leaf_entropy"] = _result(entropy, "bits")
    if tree.branching_nodes:
        report.results["entropy_rate"] = _result(entropy / mean_length, "bits/branch")
        dist = identities.branching_node_distribution(tree)
        report.results["branching_node_distribution"] = {
            "value": {str(node): float(mass) for node, mass in dist.mass.items()},
            "unit": "probability",
        }
    _print_report(report, args.json, out)
    return 0, report


def _cmd_divergence(args, out) -> tuple[int, Report]:
    if (args.treeq is None) == (args.product is None):
        raise AlphabetMismatch(
            "provide exactly one reference: a second tree or --product"
        )
    tree, digest = _load_tree(args.treep, args.float)
    report = Report(command="divergence", inputs={args.treep: digest})
    epsilons = (
        tuple(_parse_threshold(e) for e in args.epsilons.split(","))
        if args.epsilons
        else DEFAULT_EPSILONS
    )
    if args.treeq is not None:
        reference, q_digest = _load_tree(args.treeq, args.float)
        report.inputs[args.treeq] = q_digest
    else:
        reference = _product_spec_for(tree, args.product)
    pinsker = approximation.tree_pinsker_report(tree, reference, epsilons)
    report.results["divergence"] = _result(pinsker.divergence, "bits")
    report.results["normalized_divergence"] = {
        "value": _json_value(pinsker.normalized_divergence),
        "unit": "bits/branch",
    }
    report.results["mean_distance"] = {
        "value": pinsker.mean_distance,
        "unit": "L1",
    }
    report.results["mean_sq_distance"] = {
        "value": pinsker.mean_sq_distance,
        "unit": "L1^2",
    }
    report.results["pinsker_bound"] = {
        "value": pinsker.bound,
        "unit": "bits/branch",
    }
    report.results["tail_probability"] = {
        "value": {str(eps): tail for eps, tail in pinsker.tail.items()},
        "unit": "probability",
    }
    report.checks.append(
        {
            "name": "pinsker-tree",
            "leaf_side": _json_value(pinsker.normalized_divergence),
            "node_side": pinsker.bound,
            "residual": _json_value(pinsker.normalized_divergence - pinsker.bound),
            "tolerance": approximation.PINSKER_TOLERANCE,
            "passed": pinsker.holds,
        }
    )
    _print_report(report, args.json, out)
    return (0 if report.all_checks_pass() else 1), report


def _functional_from_file(tree: Tree, path: str) -> dict:
    raw = treefile.load_json(Path(path).read_text("utf-8"))
    if not isinstance(raw, dict):
        raise TreeProbError("functional file must be a JSON object of node: value")
    values = {}
    for node, v in treefile.resolve_node_keys(raw, tree.nodes).items():
        if node not in tree.children:
            continue
        if isinstance(v, str):
            values[node] = parse_rational(v)
            continue
        x = _float_or_inf(v) if type(v) in (int, float) else math.nan
        if not math.isfinite(x):
            raise ParseError(f"functional value of node {node!r} is not a finite number")
        values[node] = x
    return values


def _cmd_check(args, out) -> tuple[int, Report]:
    tree, digest = _load_tree(args.tree, args.float)
    report = Report(command="check", inputs={args.tree: digest})
    functionals: list[tuple[str, dict]] = []
    if args.functional:
        functionals.append(("file", _functional_from_file(tree, args.functional)))
    else:
        functionals.append(("path-length", path_lengths(tree)))
        functionals.append(("surprisal", identities.surprisal_functional(tree)))
    for name, f in functionals:
        lansit = identities.lansit_check(tree, f)
        report.checks.append(_check_entry(f"lansit[{name}]", lansit))
        if tree.branching_nodes:
            report.checks.append(
                _check_entry(
                    f"differential-lansit[{name}]",
                    lansit.per_branch(tree.mean_length),
                )
            )
    _print_report(report, args.json, out)
    return (0 if report.all_checks_pass() else 1), report


def _cmd_sweep(args, out) -> tuple[int, Report]:
    values = _parse_mass_list(args.target)
    base = approximation.FiniteDistribution(
        {i: v for i, v in enumerate(values)}, exact=True
    )
    spec = approximation.ProductSpec(base)
    budgets = [int(b) for b in args.budgets.split(",")]
    rows = generators.convergence_sweep(spec, budgets, _parse_threshold(args.epsilon))
    buffer = io.StringIO()
    generators.write_sweep_csv(rows, buffer)
    csv_text = buffer.getvalue()
    report = Report(command="sweep")
    report.results["rows"] = {"value": len(rows), "unit": "budgets"}
    last = rows[-1]
    report.results["final_normalized_divergence"] = {
        "value": last.normalized_divergence,
        "unit": "bits/branch",
    }
    report.results["final_entropy_rate_gap"] = {
        "value": last.entropy_rate_gap,
        "unit": "bits/branch",
    }
    if args.out:
        Path(args.out).write_text(csv_text, "utf-8")
        report.results["csv_path"] = {"value": args.out, "unit": "path"}
        _print_report(report, args.json, out)
    elif args.json:
        report.results["csv"] = {"value": csv_text, "unit": "text"}
        _print_report(report, True, out)
    else:
        out.write(csv_text)
    return 0, report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeprob",
        description="Identities, divergences, and matching experiments"
        " on probability trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tree_args):
        for name in tree_args:
            p.add_argument(name)
        p.add_argument("--float", action="store_true", help="force float mode")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("validate", help="parse and validate a tree document")
    add_common(p, ["tree"])

    p = sub.add_parser("analyze", help="mean length, entropy, entropy rate, P_B")
    add_common(p, ["tree"])

    p = sub.add_parser(
        "divergence", help="divergence and per-branch Pinsker diagnostics"
    )
    p.add_argument("treep")
    p.add_argument("treeq", nargs="?")
    p.add_argument("--product", help="reference product masses, e.g. 1/2,1/2")
    p.add_argument(
        "--epsilons", help="comma-separated tail thresholds (default 0.01,0.1,0.5,1)"
    )
    p.add_argument("--float", action="store_true", help="force float mode")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="run the interchange identity checks")
    add_common(p, ["tree"])
    p.add_argument(
        "--functional",
        help="JSON file of node value pairs; default checks path-length"
        " and surprisal functionals",
    )

    p = sub.add_parser("sweep", help="matcher convergence sweep to CSV")
    p.add_argument("--target", required=True, help="target masses, e.g. 2/3,1/3")
    p.add_argument(
        "--budgets", required=True, help="comma-separated increasing leaf budgets"
    )
    p.add_argument("--epsilon", default="0.1", help="tail threshold (default 0.1)")
    p.add_argument("--out", help="CSV output path (default: print to stdout)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "divergence": _cmd_divergence,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
}


def run_cli(argv, out=None, err=None) -> tuple[int, Report | None]:
    """Run one CLI invocation; returns (exit code, report when one was built)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help
        return (0 if exc.code in (0, None) else 2), None
    try:
        return _COMMANDS[args.command](args, out)
    except (TreeProbError, OSError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 2, None


def main() -> None:
    sys.exit(run_cli(sys.argv[1:])[0])
