"""Command-line surface: validate, analyze, divergence, check, sweep.

Every command reads tree documents (see treefile), runs library
operations, and emits either a human-readable listing or, with --json, a
structured report.  Reports carry the command name, a digest of each input
document, a map of named metrics with units, and a list of identity checks
with the tolerance each was judged by.  A --json report has the layout of
``json.dumps(report, indent=2)`` and is written as tree documents are
(``treefile.indented_json``): each column of scalars in one C-encoder call.

``run_cli`` is the one request path.  It builds the report, calls the
handler that the command's subparser names, prints the report and derives
the exit code from the report's checks; a handler only fills the report's
results and checks.

Exit codes: 0 when every check in the report passes (also when it has
none), 1 when a reported check fails, 2 on any input or usage error, which
prints no report.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import approximation, generators, identities, treefile
from .errors import AlphabetMismatch, ParseError, TreeProbError
from .numeric import ExactLog2, exact_text, parse_rational
from .tree import Tree, path_lengths

__all__ = ["Report", "main", "run_cli"]


@dataclass
class Report:
    """Structured command output; serialized verbatim by --json."""

    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    results: dict[str, dict] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)

    def all_checks_pass(self) -> bool:
        return all(check["passed"] for check in self.checks)

    def to_json(self, ensure_ascii: bool = False) -> str:
        """``json.dumps(vars(self), indent=2, ensure_ascii=ensure_ascii)``,
        byte for byte, written as tree documents are written: each column
        of scalars, such as P_B's map, in one C-encoder call
        (``treefile.indented_json``)."""
        return treefile.indented_json(vars(self), ensure_ascii)


def _json_value(value):
    """value as a JSON number, or as "inf", "-inf" or "nan" when it is none."""
    x = _float_or_inf(value)
    return x if math.isfinite(x) else str(x)


def _exact_string(value):
    """A rational result as ``numeric.exact_text`` prints it, else None."""
    if isinstance(value, ExactLog2) and value.is_rational:
        value = value.as_fraction()
    if isinstance(value, (int, Fraction)):
        return exact_text(Fraction(value))
    return None


def _entry(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _result(value, unit: str) -> dict:
    entry = _entry(_json_value(value), unit)
    exact = _exact_string(value)
    if exact is not None:
        entry["exact"] = exact
    return entry


def _check_entry(
    name: str, leaf, node, residual, tolerance: float, passed: bool
) -> dict:
    return {
        "name": name,
        "leaf_side": _json_value(leaf),
        "node_side": _json_value(node),
        "residual": _json_value(residual),
        "tolerance": tolerance,
        "passed": passed,
    }


def _load_tree(report: Report, path: str, force_float: bool) -> Tree:
    """The tree that the document at ``path`` holds; records the document's
    digest among the report's inputs."""
    data = Path(path).read_bytes()
    report.inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    return treefile.parse_tree(data.decode("utf-8"), force_float=force_float)


def _parse_option(option: str, text: str) -> Fraction:
    """The rational value of a command-line option; a ParseError naming the
    option for text that ``parse_rational`` refuses."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ParseError(f"{option}: {exc}") from None


def _parse_budget(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"--budgets: not an integer: {text!r}") from None


def _parse_mass_list(option: str, text: str) -> list[Fraction]:
    return [_parse_option(option, part) for part in text.split(",")]


def _float_or_inf(value) -> float:
    """float(value), or inf of its sign when value is past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_threshold(option: str, text: str) -> float:
    """A rational tail threshold as a float; the tail computations reject
    the non-finite and non-positive ones."""
    return _float_or_inf(_parse_option(option, text))


def _product_spec_for(tree: Tree, text: str) -> approximation.ProductSpec:
    values = _parse_mass_list("--product", text)
    labels = tree.label_alphabet
    if len(values) != len(labels):
        raise AlphabetMismatch(
            f"{len(values)} product masses given for {len(labels)} branch"
            f" labels {labels!r}"
        )
    base = approximation.FiniteDistribution(dict(zip(labels, values)), exact=True)
    return approximation.ProductSpec(base)


def _print_report(report: Report, as_json: bool, out: io.TextIOBase) -> None:
    """Write the report; a character that ``out``'s encoding cannot write,
    such as a lone surrogate from a JSON \\u escape or an undecodable path,
    is written as an escape: the report's JSON is then ASCII, and a text
    line gets a backslash escape."""
    encoding = getattr(out, "encoding", None) or "utf-8"
    if as_json:
        text = report.to_json()
        try:
            text.encode(encoding)
        except UnicodeEncodeError:
            text = report.to_json(ensure_ascii=True)
        print(text, file=out)
        return

    def write(line: str) -> None:
        print(line.encode(encoding, "backslashreplace").decode(encoding), file=out)

    for name, entry in report.results.items():
        value = entry["value"]
        if isinstance(value, dict):
            for key, sub in value.items():
                write(f"{name}[{key}] = {sub}")
            continue
        line = f"{name} = {value} {entry['unit']}"
        if "exact" in entry:
            line += f" (exact {entry['exact']})"
        write(line)
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        write(
            f"check {check['name']}: leaf_side={check['leaf_side']}"
            f" node_side={check['node_side']} residual={check['residual']}"
            f" tolerance={check['tolerance']}: {verdict}"
        )


def _cmd_validate(args, report: Report) -> None:
    tree = _load_tree(report, args.tree, args.float)
    report.results["leaf_count"] = _entry(len(tree.leaves), "leaves")
    report.results["branching_count"] = _entry(len(tree.branching_nodes), "nodes")
    report.results["mode"] = _entry("exact" if tree.exact else "float", "numeric-mode")


def _cmd_analyze(args, report: Report) -> None:
    tree = _load_tree(report, args.tree, args.float)
    mean_length = identities.expected_path_length(tree)
    entropy = identities.leaf_entropy(tree)
    report.results["mean_length"] = _result(mean_length, "branches")
    report.results["leaf_entropy"] = _result(entropy, "bits")
    if tree.branching_nodes:
        report.results["entropy_rate"] = _result(entropy / mean_length, "bits/branch")
        dist = identities.branching_node_distribution(tree)
        report.results["branching_node_distribution"] = _entry(
            {str(node): float(mass) for node, mass in dist.items()}, "probability"
        )


def _cmd_divergence(args, report: Report) -> None:
    if (args.treeq is None) == (args.product is None):
        raise AlphabetMismatch(
            "provide exactly one reference: a second tree or --product"
        )
    tree = _load_tree(report, args.treep, args.float)
    epsilons = (
        tuple(_parse_threshold("--epsilons", e) for e in args.epsilons.split(","))
        if args.epsilons
        else approximation.DEFAULT_EPSILONS
    )
    if args.treeq is not None:
        reference = _load_tree(report, args.treeq, args.float)
    else:
        reference = _product_spec_for(tree, args.product)
    pinsker = approximation.tree_pinsker_report(tree, reference, epsilons)
    report.results["divergence"] = _result(pinsker.divergence, "bits")
    report.results["normalized_divergence"] = _result(
        pinsker.normalized_divergence, "bits/branch"
    )
    report.results["mean_distance"] = _result(pinsker.mean_distance, "L1")
    report.results["mean_sq_distance"] = _result(pinsker.mean_sq_distance, "L1^2")
    report.results["pinsker_bound"] = _result(pinsker.bound, "bits/branch")
    report.results["tail_probability"] = _entry(
        {str(eps): tail for eps, tail in pinsker.tail.items()}, "probability"
    )
    report.checks.append(
        _check_entry(
            "pinsker-tree",
            pinsker.normalized_divergence,
            pinsker.bound,
            pinsker.normalized_divergence - pinsker.bound,
            approximation.PINSKER_TOLERANCE,
            pinsker.holds,
        )
    )


def _functional_from_file(tree: Tree, path: str) -> tuple[Tree, dict]:
    """The functional of the file at ``path`` on the nodes of ``tree``, and
    the tree its sums run on (``identities.functional_mode``)."""
    raw = treefile.load_json(Path(path).read_text("utf-8"))
    if not isinstance(raw, dict):
        raise TreeProbError("functional file must be a JSON object of node: value")
    values = {}
    for node, v in treefile.resolve_node_keys(raw, tree.nodes).items():
        if node not in tree.children:
            continue
        if isinstance(v, str):
            values[node] = _parse_option(f"functional value of node {node!r}", v)
        else:
            values[node] = _float_or_inf(v) if type(v) in (int, float) else math.nan
    # sums on a float tree convert every value to a float, so each must fit
    tree = identities.functional_mode(tree, values)
    for node, value in values.items():
        if not tree.exact and not math.isfinite(_float_or_inf(value)):
            raise ParseError(f"functional value of node {node!r} is not a finite number")
    return tree, values


def _cmd_check(args, report: Report) -> None:
    tree = _load_tree(report, args.tree, args.float)
    functionals: list[tuple[str, dict]] = []
    if args.functional:
        # the per-branch sides divide by E[w(L)] of the tree the sums ran on
        tree, f = _functional_from_file(tree, args.functional)
        functionals.append(("file", f))
    else:
        functionals.append(("path-length", path_lengths(tree)))
        functionals.append(("surprisal", identities.surprisal_functional(tree)))
    for name, f in functionals:
        lansit = identities.lansit_check(tree, f)
        sides = [(f"lansit[{name}]", lansit)]
        if tree.branching_nodes:
            per_branch = lansit.per_branch(tree.mean_length)
            sides.append((f"differential-lansit[{name}]", per_branch))
        for check, side in sides:
            tolerance = 0.0 if side.exact else identities.RESIDUAL_REL_TOL
            sums = (side.leaf_side, side.node_side, side.residual)
            report.checks.append(_check_entry(check, *sums, tolerance, side.holds()))


def _cmd_sweep(args, report: Report) -> str | None:
    """Fills the report; returns the CSV text itself when neither --out nor
    --json is given, which is then printed in place of the report."""
    values = _parse_mass_list("--target", args.target)
    base = approximation.FiniteDistribution(dict(enumerate(values)), exact=True)
    spec = approximation.ProductSpec(base)
    budgets = [_parse_budget(b) for b in args.budgets.split(",")]
    epsilon = _parse_threshold("--epsilon", args.epsilon)
    rows = generators.convergence_sweep(spec, budgets, epsilon)
    buffer = io.StringIO()
    generators.write_sweep_csv(rows, buffer)
    csv_text = buffer.getvalue()
    report.results["rows"] = _entry(len(rows), "budgets")
    last = rows[-1]
    report.results["final_normalized_divergence"] = _result(
        last.normalized_divergence, "bits/branch"
    )
    report.results["final_entropy_rate_gap"] = _result(
        last.entropy_rate_gap, "bits/branch"
    )
    if args.out:
        Path(args.out).write_text(csv_text, "utf-8")
        report.results["csv_path"] = _entry(args.out, "path")
    elif args.json:
        report.results["csv"] = _entry(csv_text, "text")
    else:
        return csv_text
    return None


@cache  # built on first use, then shared by every run_cli call in the process
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
    p.set_defaults(handler=_cmd_validate)
    add_common(p, ["tree"])

    p = sub.add_parser("analyze", help="mean length, entropy, entropy rate, P_B")
    p.set_defaults(handler=_cmd_analyze)
    add_common(p, ["tree"])

    p = sub.add_parser(
        "divergence", help="divergence and per-branch Pinsker diagnostics"
    )
    p.set_defaults(handler=_cmd_divergence)
    p.add_argument("treep")
    p.add_argument("treeq", nargs="?")
    p.add_argument("--product", help="reference product masses, e.g. 1/2,1/2")
    defaults = ",".join(f"{eps:g}" for eps in approximation.DEFAULT_EPSILONS)
    p.add_argument(
        "--epsilons", help=f"comma-separated tail thresholds (default {defaults})"
    )
    add_common(p, [])

    p = sub.add_parser("check", help="run the interchange identity checks")
    p.set_defaults(handler=_cmd_check)
    add_common(p, ["tree"])
    p.add_argument(
        "--functional",
        help="JSON file of node value pairs; default checks path-length"
        " and surprisal functionals",
    )

    p = sub.add_parser("sweep", help="matcher convergence sweep to CSV")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--target", required=True, help="target masses, e.g. 2/3,1/3")
    p.add_argument(
        "--budgets", required=True, help="comma-separated increasing leaf budgets"
    )
    p.add_argument("--epsilon", default="0.1", help="tail threshold (default 0.1)")
    p.add_argument("--out", help="CSV output path (default: print to stdout)")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def run_cli(argv, out=None, err=None) -> tuple[int, Report | None]:
    """Run one CLI invocation; returns (exit code, report when one was built).

    The one request path: the command's handler fills a fresh report, which
    is then printed (a plain sweep prints the CSV text its handler returns),
    and the exit code follows the report's checks.  Everything goes to
    ``out`` and ``err``, sys.stdout and sys.stderr by default, argparse's
    help and usage errors included.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        # argparse prints help and usage errors to the process's streams
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help
        return (0 if exc.code in (0, None) else 2), None
    report = Report(command=args.command)
    try:
        csv_text = args.handler(args, report)
        if csv_text is None:
            _print_report(report, args.json, out)
        else:
            out.write(csv_text)
    except (TreeProbError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return 2, None
    return (0 if report.all_checks_pass() else 1), report


def main() -> None:
    sys.exit(run_cli(sys.argv[1:])[0])
