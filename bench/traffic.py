"""Seeded inputs, request streams and output checks for the treeprob benchmark.

Everything the program sees is generated here from the seed: tree documents
written to a work directory, argv lists for the CLI, and document text for
the library calls.  A workload is one *cycle*, a fixed list of requests that
the client repeats back to back (closed loop, one client).  The shapes of
a cycle are fixed, and every set of masses is a fixed set of weights
(1, 2, ..., n over their sum) that the seed puts in order over the leaves
or labels.  Every seed then sends the same trees and specs up to the
arrangement of their masses, costs about the same, and keeps the figures
of different seeds comparable.

Workloads:

sweep-exact  CLI ``sweep`` over seeded rational targets on 2, 3 and 4
             labels, with ladders ending at 1024, 2187 and 1024 leaves.
             Each cycle also sends every document request kind to 16- and
             64-leaf matcher documents of those targets, so every per-type
             metric exists on every workload; those requests take about a
             tenth of the cycle.
docs-exact   Validate, analyze, check, divergence (product and same-shape
             tree), roundtrip and gap requests over exact documents:
             matcher trees of 256, 512 and 1024 leaves (dyadic masses),
             random trees of about 300 and 900 nodes (integer-weight
             masses) and a caterpillar of depth 400; plus three small
             sweeps (ladders ending at 16 or 27 leaves).
docs-float   The same matcher and random documents, a caterpillar of depth
             1000 instead of 400, and the same stream, with masses
             written as JSON numbers; a third of the non-roundtrip requests
             send the exact-string document with ``--float`` (or
             ``force_float``) instead.  Requests that run into a known
             defect (KNOWN_DEFECTS) are left out of the cycle; each run
             reproduces those defects once, untimed, with
             probe_known_defects.

Every request appears once in a cycle.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# treeprob comes from the checkout's src/ and from nowhere else.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "treeprob" / "__init__.py").is_file():
    raise ImportError(f"no treeprob sources under {SRC}")
sys.path.insert(0, str(SRC))

import treeprob  # noqa: E402
from treeprob import approximation, cli, generators, identities, tree, treefile  # noqa: E402

if Path(treeprob.__file__).resolve().parent != SRC / "treeprob":
    raise ImportError(f"treeprob was imported from {treeprob.__file__}")

WORKLOADS = ("sweep-exact", "docs-exact", "docs-float")
REQUEST_TYPES = (
    "validate",
    "analyze",
    "check",
    "divergence",
    "roundtrip",
    "gap",
    "sweep",
)
REL_TOL = 1e-9
# Absolute floor for comparing values that are themselves close to zero,
# such as the entropy-rate gap of a tree grown toward its own spec.
ABS_TOL = 1e-12
FORCED_FLOAT_SHARE = Fraction(1, 3)
# Float-mode defects of treeprob that the docs-float cycle leaves out, since
# the benchmark's workloads must be ones on which no request fails.
KNOWN_DEFECTS = (
    "entropy_rate_gap(float tree, rational spec) raises TypeError",
    "float divergence --product raises ZeroDivisionError on a deep tree",
    "float divergence --product gives inf on a slightly shallower tree",
)
# Caterpillar depths, with spine mass 1/3 in the product spec, at which the
# deepest product mass is 0.0 and subnormal.
DEFECT_DEPTHS = (1000, 660)
DEFECT_SPEC = "2/3,1/3"
CHECK_NAMES = (
    "lansit[path-length]",
    "differential-lansit[path-length]",
    "lansit[surprisal]",
    "differential-lansit[surprisal]",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one cycle; the benchmark runs FULL, its self-test TINY."""

    matchers: tuple[tuple[int, int], ...]  # (leaf budget, label count)
    random_nodes: tuple[int, ...]
    # Exact work on a caterpillar grows with the square of its depth, so
    # docs-exact keeps a shallower one than docs-float.
    exact_caterpillar: int  # depth
    float_caterpillar: int
    sweep_ends: tuple[tuple[int, int], ...]  # (label count, last budget)
    small_sweep_ends: tuple[tuple[int, int], ...]
    companion_budgets: tuple[int, ...]


FULL = Sizes(
    matchers=((256, 2), (512, 3), (1024, 4)),
    random_nodes=(300, 900),
    exact_caterpillar=400,
    float_caterpillar=1000,
    sweep_ends=((2, 1024), (3, 2187), (4, 1024)),
    small_sweep_ends=((2, 16), (3, 27), (4, 16)),
    companion_budgets=(16, 64),
)
TINY = Sizes(
    matchers=((16, 2), (27, 3)),
    random_nodes=(40,),
    exact_caterpillar=20,
    float_caterpillar=20,
    sweep_ends=((2, 64), (3, 27)),
    small_sweep_ends=((2, 16), (3, 9)),
    companion_budgets=(8,),
)


@dataclass
class Doc:
    """One generated tree with its same-shape partner, spec and oracles."""

    name: str
    paths: dict[str, str]  # exact, float, q_exact, q_float -> file path
    texts: dict[str, str]  # same keys -> document text
    spec: str  # rational product masses over the tree's sorted labels
    spec_obj: approximation.ProductSpec
    shape: dict
    oracle: dict[str, float]  # library values in the other numeric mode


@dataclass(frozen=True)
class Request:
    """One client request: a CLI argv or a library call on document text."""

    type: str
    key: str  # names the request; unique within a cycle
    mode: str  # numeric mode the program runs in
    argv: tuple[str, ...] = ()
    text: str = ""
    force_float: bool = False
    doc: Doc | None = field(default=None, compare=False)
    sweep_ref: dict | None = field(default=None, compare=False)


@dataclass
class Plan:
    cycle: list[Request]
    record: dict  # the traffic, as printed in a run's summary
    docs: list[Doc]


# -- inputs -------------------------------------------------------------


def _shuffled_masses(rng: random.Random, count: int) -> list[Fraction]:
    """The weights 1..count over their sum, in seeded order.

    Exact costs depend on the primes in the masses' denominators and
    numerators, so the seed permutes one weight vector per count instead of
    drawing weights.
    """
    weights = list(range(1, count + 1))
    rng.shuffle(weights)
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _rational_list(masses) -> str:
    return ",".join(str(m) for m in masses)


def _ladder(labels: int, end: int) -> list[int]:
    ratio = 3 if labels == 3 else 4
    budgets = []
    budget = ratio
    while budget <= end:
        budgets.append(budget)
        budget *= ratio
    return budgets


def _spec(rng: random.Random, labels) -> approximation.ProductSpec:
    """A product spec over ``labels`` with shuffled masses.

    As a matcher target it grows, for every seed, the same trees up to
    relabelling.
    """
    masses = dict(zip(labels, _shuffled_masses(rng, len(labels))))
    return approximation.ProductSpec(approximation.FiniteDistribution(masses, exact=True))


def _random_tree(rng: random.Random, nodes: int) -> tree.Tree:
    """A generate_random_tree shape within 5% of ``nodes``, with seeded masses.

    The shape comes from a fixed stream per size, so every seed parses and
    walks the same trees and only the order of the masses, which ``rng``
    draws, varies.
    A node branches with probability 0.85 into two children on average, so
    levels grow by about 1.7; capping the depth just below where the
    expected size reaches ``nodes`` keeps most draws near it.
    """
    shapes = random.Random(f"treeprob-bench-shape:{nodes}")
    slack = max(3, nodes // 20)
    depth = max(2, round(math.log(0.7 * nodes, 1.7)) - 1)
    for _ in range(100000):
        params = generators.GeneratorParams(3, depth, 0.85, shapes.getrandbits(32))
        draw = generators.generate_random_tree(params, exact=False)
        if abs(len(draw.nodes) - nodes) <= slack:
            return _remassed(rng, draw, dyadic=False)
    raise RuntimeError(f"no random tree near {nodes} nodes")


def _caterpillar(rng: random.Random, depth: int) -> tree.Tree:
    edges = []
    leaves = []
    spine = 0
    next_id = 1
    for level in range(depth):
        leaf, child = next_id, next_id + 1
        next_id += 2
        edges.append((spine, 0, leaf))
        edges.append((spine, 1, child))
        leaves.append(leaf)
        if level == depth - 1:
            leaves.append(child)
        spine = child
    masses = _shuffled_masses(rng, len(leaves))
    return tree.build_tree(edges, dict(zip(leaves, masses)), exact=True)


def _remassed(rng: random.Random, shape: tree.Tree, dyadic: bool) -> tree.Tree:
    """Same shape and node ids, new masses.

    A dyadic tree gets its own masses shuffled over the leaves, so the pair
    stays in the support-{2} class; any other tree gets shuffled integer
    weights.
    """
    edges = [
        (node, label, child)
        for node in shape.nodes
        for label, child in shape.children[node]
    ]
    if dyadic:
        masses = [shape.leaf_mass[leaf] for leaf in shape.leaves]
        rng.shuffle(masses)
    else:
        masses = _shuffled_masses(rng, len(shape.leaves))
    return tree.build_tree(edges, dict(zip(shape.leaves, masses)), exact=True)


def _float_text(text: str) -> str:
    return treefile.serialize_tree(treefile.parse_tree(text, force_float=True))


def _reference(
    p: tree.Tree, q: tree.Tree, spec: approximation.ProductSpec, entropy
) -> dict[str, float]:
    """Library values of one document in p's numeric mode.

    The product divergence comes from the branch-sum form, a different
    route from the leaf sum the CLI reports, and one that keeps no product
    mass that a deep tree could underflow in float mode.
    """
    rate = identities.entropy_rate(p)
    return {
        "mean_length": float(identities.expected_path_length(p)),
        "leaf_entropy": float(entropy),
        "entropy_rate": float(rate),
        "div_product": float(approximation.product_branch_divergence(p, spec)),
        "div_tree": float(identities.tree_divergence(p, q)),
        "gap": abs(float(rate) - float(spec.base.entropy())),
    }


def _make_doc(
    name: str,
    exact_tree: tree.Tree,
    rng: random.Random,
    workdir: Path,
    oracle_mode: str,
) -> Doc:
    """Write the document files of one tree and compute its oracle values.

    oracle_mode is the numeric mode the oracle runs in, the other one from
    the mode the requests on this document run in.
    """
    dyadic = name.startswith("matcher")
    texts = {"exact": treefile.serialize_tree(exact_tree)}
    texts["q_exact"] = treefile.serialize_tree(_remassed(rng, exact_tree, dyadic))
    texts["float"] = _float_text(texts["exact"])
    texts["q_float"] = _float_text(texts["q_exact"])
    paths = {}
    for variant, text in texts.items():
        path = workdir / f"{name}.{variant}.tree"
        path.write_text(text, "utf-8")
        paths[variant] = str(path)
    labels = exact_tree.label_alphabet
    spec_obj = _spec(rng, labels)
    p = treefile.parse_tree(texts[oracle_mode])
    entropy = identities.leaf_entropy(p)
    oracle = _reference(p, treefile.parse_tree(texts["q_" + oracle_mode]), spec_obj, entropy)
    if oracle_mode != "exact":
        entropy = identities.leaf_entropy(exact_tree)
    depth = tree.path_lengths(exact_tree)
    shape = {
        "name": name,
        "nodes": len(exact_tree.nodes),
        "leaves": len(exact_tree.leaves),
        "branching": len(exact_tree.branching_nodes),
        "max_depth": max(depth.values()),
        "labels": len(labels),
        # ExactLog2 keeps no public accessor for its prime support
        "leaf_entropy_support": len(entropy._coef),
        "bytes": len(texts["exact"].encode("utf-8")),
    }
    spec = _rational_list(spec_obj.base.mass[label] for label in labels)
    return Doc(name, paths, texts, spec, spec_obj, shape, oracle)


def _sweep_request(spec: approximation.ProductSpec, end: int) -> Request:
    labels = len(spec.alphabet)
    budgets = _ladder(labels, end)
    target = _rational_list(spec.base.mass[i] for i in spec.alphabet)
    last = treefile.parse_tree(
        treefile.serialize_tree(generators.grow_matcher_tree(spec, budgets[-1])),
        force_float=True,
    )
    pinsker = approximation.tree_pinsker_report(last, spec, [0.1])
    sweep_ref = {
        "rows": len(budgets),
        "budgets": budgets,
        "mean_length": float(identities.expected_path_length(last)),
        "normalized_divergence": pinsker.normalized_divergence,
        "entropy_rate": float(identities.entropy_rate(last)),
    }
    argv = ("sweep", "--target", target, "--budgets", ",".join(map(str, budgets)))
    return Request(
        "sweep", f"sweep:{target}:{budgets[-1]}", "exact", argv=argv,
        sweep_ref=sweep_ref,
    )


def _doc_requests(doc: Doc, route: str) -> list[Request]:
    """The six document request kinds (divergence twice) on one document.

    route is "exact", "float" (JSON-number document) or "forced" (the
    exact-string document with --float / force_float).
    """
    mode = "exact" if route == "exact" else "float"
    file_key = "float" if route == "float" else "exact"
    path, q_path = doc.paths[file_key], doc.paths["q_" + file_key]
    flags = ("--json", "--float") if route == "forced" else ("--json",)
    text = doc.texts[file_key]
    forced = route == "forced"

    def cli_request(kind, variant, *argv):
        return Request(
            kind, f"{kind}{variant}:{doc.name}:{route}", mode,
            argv=argv + flags, doc=doc,
        )

    requests = [
        cli_request("validate", "", "validate", path),
        cli_request("analyze", "", "analyze", path),
        cli_request("check", "", "check", path),
        cli_request("divergence", "-product", "divergence", path, "--product", doc.spec),
        cli_request("divergence", "-tree", "divergence", path, q_path),
        Request(
            "roundtrip", f"roundtrip:{doc.name}:{route}", mode,
            text=doc.texts["float" if mode == "float" else "exact"], doc=doc,
        ),
        Request(
            "gap", f"gap:{doc.name}:{route}", mode, text=text,
            force_float=forced, doc=doc,
        ),
    ]
    if mode == "exact":
        return requests
    return [request for request in requests if not _hits_known_defect(request)]


def _hits_known_defect(request: Request) -> bool:
    """Whether a float-mode request runs into one of KNOWN_DEFECTS.

    Every float ``gap`` request does.  ``divergence --product`` on the
    1000-deep caterpillar does when the seed gives the spine label mass
    1/3, so it is left out on every seed.
    """
    if request.type == "gap":
        return True
    return (
        request.type == "divergence"
        and "--product" in request.argv
        and request.doc.name.startswith("caterpillar")
    )


def build_plan(workload: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Plan:
    """Generate the inputs of one workload and the request list of a cycle.

    The order of a cycle is the same permutation for every seed, so runs of
    one length reach the same requests whatever the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"treeprob-bench:{seed}")
    oracle_mode = "exact" if workload == "docs-float" else "float"
    docs: list[Doc] = []
    cycle: list[Request] = []
    if workload == "sweep-exact":
        for labels, end in sizes.sweep_ends:
            spec = _spec(rng, range(labels))
            cycle.append(_sweep_request(spec, end))
            for budget in sizes.companion_budgets:
                matcher = generators.grow_matcher_tree(spec, budget)
                name = f"matcher-{labels}x{budget}"
                docs.append(_make_doc(name, matcher, rng, workdir, oracle_mode))
    else:
        for budget, labels in sizes.matchers:
            matcher = generators.grow_matcher_tree(_spec(rng, range(labels)), budget)
            name = f"matcher-{labels}x{budget}"
            docs.append(_make_doc(name, matcher, rng, workdir, oracle_mode))
        for nodes in sizes.random_nodes:
            random_tree = _random_tree(rng, nodes)
            docs.append(_make_doc(f"random-{nodes}", random_tree, rng, workdir, oracle_mode))
        if workload == "docs-float":
            depth = sizes.float_caterpillar
        else:
            depth = sizes.exact_caterpillar
        caterpillar = _caterpillar(rng, depth)
        docs.append(_make_doc(f"caterpillar-{depth}", caterpillar, rng, workdir, oracle_mode))
        for labels, end in sizes.small_sweep_ends:
            cycle.append(_sweep_request(_spec(rng, range(labels)), end))
    if workload == "docs-float":
        per_doc = _float_requests(docs)
    else:
        per_doc = [_doc_requests(doc, "exact") for doc in docs]
    for requests in per_doc:
        cycle.extend(requests)
    if len({request.key for request in cycle}) != len(cycle):
        raise AssertionError("two requests of a cycle share a key")
    random.Random("treeprob-bench-order").shuffle(cycle)
    record = {
        "workload": workload,
        "seed": seed,
        "inputs": [doc.shape for doc in docs],
        "sweeps": sorted(
            {(r.argv[2], r.argv[4]) for r in cycle if r.type == "sweep"}
        ),
        "mix_per_cycle": dict(sorted(Counter(r.type for r in cycle).items())),
        "routes_per_cycle": dict(
            sorted(Counter(_route_of(r) for r in cycle).items())
        ),
    }
    return Plan(cycle, record, docs)


def _float_requests(docs: list[Doc]) -> list[list[Request]]:
    """docs-float requests per document: JSON-number documents, a share
    sent as exact strings with --float.

    Roundtrip must return its input bytes, so it always reads the
    JSON-number document; the forced share is drawn from the other kinds,
    the same slots for every seed.
    """
    rng = random.Random("treeprob-bench-routes")
    plain = [_doc_requests(doc, "float") for doc in docs]
    forced = [_doc_requests(doc, "forced") for doc in docs]
    slots = [
        (d, k)
        for d, requests in enumerate(plain)
        for k, request in enumerate(requests)
        if request.type != "roundtrip"
    ]
    chosen = set(rng.sample(slots, int(len(slots) * FORCED_FLOAT_SHARE)))
    return [
        [(forced if (d, k) in chosen else plain)[d][k] for k in range(len(requests))]
        for d, requests in enumerate(plain)
    ]


def _route_of(request: Request) -> str:
    if request.mode == "exact":
        return "exact"
    return "forced-float" if request.force_float or "--float" in request.argv else "float"


# -- known defects ------------------------------------------------------


def probe_known_defects(docs: list[Doc], workdir: Path) -> list[tuple[str, bool, str]]:
    """Try each of KNOWN_DEFECTS once; returns (defect, reproduced, detail).

    The probes are not requests of the workload: they are untimed and
    count in neither ``attempted`` nor ``failed``.  Their inputs do not
    depend on the seed.
    """
    raised = Counter()
    for doc in docs:
        try:
            approximation.entropy_rate_gap(
                treefile.parse_tree(doc.texts["float"]), doc.spec_obj
            )
        except TypeError as exc:
            raised[f"TypeError: {exc}"] += 1
    gap_detail = "; ".join(f"{n} x {reason}" for reason, n in raised.items())
    probes = [
        (
            KNOWN_DEFECTS[0],
            sum(raised.values()) == len(docs),
            f"raised on {sum(raised.values())} of {len(docs)} documents ({gap_detail})",
        )
    ]
    rng = random.Random("treeprob-bench-defects")
    for defect, depth in zip(KNOWN_DEFECTS[1:], DEFECT_DEPTHS):
        text = _float_text(treefile.serialize_tree(_caterpillar(rng, depth)))
        path = workdir / f"defect-caterpillar-{depth}.tree"
        path.write_text(text, "utf-8")
        argv = ["divergence", str(path), "--product", DEFECT_SPEC, "--json"]
        spec = approximation.ProductSpec(
            approximation.FiniteDistribution(
                {0: Fraction(2, 3), 1: Fraction(1, 3)}, exact=True
            )
        )
        expected = float(
            approximation.product_branch_divergence(treefile.parse_tree(text), spec)
        )
        out = io.StringIO()
        try:
            code, _ = cli.run_cli(argv, out=out, err=io.StringIO())
        except ZeroDivisionError as exc:
            probes.append(
                (defect, depth == DEFECT_DEPTHS[0], f"depth {depth}: ZeroDivisionError: {exc}")
            )
            continue
        except Exception as exc:  # a different failure is reported, not raised
            probes.append((defect, False, f"depth {depth}: {type(exc).__name__}: {exc}"))
            continue
        if code != 0:
            probes.append((defect, False, f"depth {depth}: exit code {code}"))
            continue
        value = json.loads(out.getvalue())["results"]["divergence"]["value"]
        probes.append(
            (
                defect,
                depth == DEFECT_DEPTHS[1] and not _close(value, expected),
                f"depth {depth}: divergence {value}, branch-sum value {expected}",
            )
        )
    return probes


# -- execution ----------------------------------------------------------


def execute(request: Request):
    """Run one request; returns (seconds, output or None, exception or None).

    Only the call into treeprob is timed.  Functions are looked up on their
    modules at call time, so a tracer that patched them sees every call.
    """
    clock = time.perf_counter
    if request.argv:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            code, _ = cli.run_cli(list(request.argv), out=out, err=err)
        except Exception as exc:  # a raise is a failed request, not a crash
            return clock() - start, None, exc
        return clock() - start, (code, out.getvalue()), None
    start = clock()
    try:
        if request.type == "roundtrip":
            first = treefile.parse_tree(request.text)
            text = treefile.serialize_tree(first)
            same = tree.structurally_equal(first, treefile.parse_tree(text))
            output = (text, same)
        else:
            parsed = treefile.parse_tree(request.text, force_float=request.force_float)
            output = approximation.entropy_rate_gap(parsed, request.doc.spec_obj)
    except Exception as exc:  # a raise is a failed request, not a crash
        return clock() - start, None, exc
    return clock() - start, output, None


# -- checks -------------------------------------------------------------


def _close(value, expected) -> bool:
    return math.isclose(float(value), expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check(request: Request, output, seen: dict[str, str]) -> str | None:
    """Why the output is wrong, or None when it is right.

    ``seen`` maps a sweep key to its first CSV in this run; its sends in
    later cycles must match it byte for byte.
    """
    if request.type == "roundtrip":
        text, same = output
        if text != request.text:
            return "roundtrip changed the document bytes"
        return None if same is True else "structurally_equal is not True"
    if request.type == "gap":
        expected = request.doc.oracle["gap"]
        return None if _close(output, expected) else f"gap {output} != {expected}"
    code, text = output
    if code != 0:
        return f"exit code {code}, expected 0"
    if request.type == "sweep":
        return _check_sweep(request, text, seen)
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    results = report.get("results", {})
    checks = report.get("checks", [])
    shape = request.doc.shape
    if report.get("command") != request.type:
        return f"report command {report.get('command')!r}"
    if request.type == "validate":
        found = (
            results["leaf_count"]["value"],
            results["branching_count"]["value"],
            results["mode"]["value"],
        )
        wanted = (shape["leaves"], shape["branching"], request.mode)
        return None if found == wanted else f"validate gave {found}, expected {wanted}"
    if request.type == "analyze":
        oracle = request.doc.oracle
        for name in ("mean_length", "leaf_entropy", "entropy_rate"):
            if not _close(results[name]["value"], oracle[name]):
                return f"{name} {results[name]['value']} != {oracle[name]}"
        if len(results["branching_node_distribution"]["value"]) != shape["branching"]:
            return "branching_node_distribution has the wrong size"
        return None
    if request.type == "check":
        names = tuple(c["name"] for c in checks)
        if names != CHECK_NAMES:
            return f"checks {names}"
        failing = [c["name"] for c in checks if not c["passed"]]
        return f"failed checks {failing}" if failing else None
    # divergence
    oracle = request.doc.oracle
    expected = oracle["div_product" if "--product" in request.argv else "div_tree"]
    value = results["divergence"]["value"]
    if not _close(value, expected):
        return f"divergence {value} != {expected}"
    if [c["passed"] for c in checks] != [True]:
        return "pinsker-tree check did not pass"
    return None


def _check_sweep(request: Request, text: str, seen: dict[str, str]) -> str | None:
    first = seen.setdefault(request.key, text)
    if text != first:
        return "sweep CSV differs from an earlier send"
    lines = text.splitlines()
    ref = request.sweep_ref
    if lines[0] != ",".join(generators.SWEEP_CSV_COLUMNS):
        return "sweep CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != ref["rows"]:
        return f"sweep has {len(rows)} rows, expected {ref['rows']}"
    counts = [int(row[0]) for row in rows]
    if any(b <= a for a, b in zip(counts, counts[1:])) or any(
        c > b for c, b in zip(counts, ref["budgets"])
    ):
        return f"sweep leaf counts {counts}"
    last = rows[-1]
    for column, name in ((1, "mean_length"), (2, "normalized_divergence"), (3, "entropy_rate")):
        if not _close(last[column], ref[name]):
            return f"sweep {name} {last[column]} != {ref[name]}"
    return None
