"""Time the stages of loading and writing tree documents, in process.

Each shape is written once as exact-string text (rational mass strings)
and once as JSON-number text (float masses), and each text is loaded with
``parse_tree`` and written back with ``serialize_tree``.  The load stages
are timed by wrapping the functions ``parse_tree`` calls:

    json       ``load_json``, the JSON decoder
    parse      the rest of ``parse_tree``: the document checks, the masses
               and the declared-root check
    build      ``build_tree``
    serialize  ``serialize_tree`` of the loaded tree
    report     ``Report.to_json`` of the text's ``analyze --json`` report
    pinsker    ``tree_pinsker_report`` of the loaded tree against the
               shape's spec, as ``divergence --product`` runs it
    align      ``align_by_paths`` of the loaded tree against a second load
               of the same text, as ``divergence P Q`` and ``roundtrip``
               run it
    check      ``check``'s identity work on a fresh load of the text:
               ``surprisal_functional``, then ``lansit_check`` and
               ``per_branch`` for the path-length and surprisal
               functionals, as ``check`` runs them

The shapes are the benchmark's document shapes: matchers on 2, 3 and 4
labels (targets the weights 1..k over their sum) at 256, 512 and 1024
leaves, a random tree of about 900 nodes and a 1000-deep caterpillar.
Each shape's spec is the weights 1..k over its k labels: the matcher's
own target, and for the other two shapes the same weights over their
label alphabets.
Each stage prints its best time over the repeats, in milliseconds.  Only
the standard library and the checkout's ``src/`` are used; it prints
numbers and gates nothing.

    python3 tools/load_stages.py [repeats, default 15]
"""

from __future__ import annotations

import io
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treeprob import (  # noqa: E402
    FiniteDistribution,
    GeneratorParams,
    ProductSpec,
    build_tree,
    cli,
    generate_random_tree,
    grow_matcher_tree,
    identities,
    parse_tree,
    path_lengths,
    serialize_tree,
    tree_pinsker_report,
    treefile,
)
from treeprob.tree import align_by_paths  # noqa: E402

STAGES = ("json", "parse", "build", "serialize", "report", "pinsker", "align", "check")
RANDOM_NODES = 900
CATERPILLAR_DEPTH = 1000


def weights(count: int) -> list[Fraction]:
    """The weights 1..count over their sum."""
    total = count * (count + 1) // 2
    return [Fraction(w, total) for w in range(1, count + 1)]


def random_tree():
    """The first random tree of depth at most 11, branching probability
    0.85, within 5% of ``RANDOM_NODES`` nodes."""
    for seed in range(10_000):
        tree = generate_random_tree(GeneratorParams(3, 11, 0.85, seed))
        if abs(len(tree.nodes) - RANDOM_NODES) <= RANDOM_NODES // 20:
            return tree
    raise RuntimeError(f"no random tree near {RANDOM_NODES} nodes")


def caterpillar():
    """A spine of ``CATERPILLAR_DEPTH`` nodes, each with a leaf on label 0
    and the spine going on under label 1."""
    edges, leaves = [], []
    for level in range(CATERPILLAR_DEPTH):
        spine, leaf, child = 2 * level, 2 * level + 1, 2 * level + 2
        edges += [(spine, 0, leaf), (spine, 1, child)]
        leaves.append(leaf)
    leaves.append(2 * CATERPILLAR_DEPTH)
    return build_tree(edges, dict(zip(leaves, weights(len(leaves)))))


def spec_over(labels) -> ProductSpec:
    """The product spec of the weights 1..k over the k ``labels``."""
    labels = list(labels)
    return ProductSpec(FiniteDistribution(dict(zip(labels, weights(len(labels))))))


def shapes() -> dict[str, tuple[object, ProductSpec]]:
    """Each shape's tree and spec, by name."""
    trees = {}
    for labels, budget in ((2, 256), (3, 512), (4, 1024)):
        spec = spec_over(range(labels))
        trees[f"matcher-{labels}x{budget}"] = grow_matcher_tree(spec, budget), spec
    for name, tree in ((f"random-{RANDOM_NODES}", random_tree()),
                       (f"caterpillar-{CATERPILLAR_DEPTH}", caterpillar())):
        trees[name] = tree, spec_over(tree.label_alphabet)
    return trees


def timed(times: dict[str, float], stage: str, fn):
    """``fn`` with its wall time added to ``times[stage]``."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[stage] += time.perf_counter() - start

    return wrapper


def analyze_report(text: str) -> cli.Report:
    """The report of ``analyze --json`` on a document holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.json"
        path.write_text(text, "utf-8")
        _, report = cli.run_cli(["analyze", "--json", str(path)], out=io.StringIO())
    return report


def stage_times(text: str, report: cli.Report, spec: ProductSpec, twin) -> dict[str, float]:
    """Seconds per stage of one load and one write of ``text``, of one
    write of its ``report``, of one Pinsker report of the loaded tree
    against ``spec``, of one alignment of it with ``twin``, a tree of the
    same shape, and of one ``check`` of a second load of ``text``."""
    times = dict.fromkeys(STAGES, 0.0)
    names = ("load_json", "build_tree")
    originals = {name: getattr(treefile, name) for name in names}
    for name, stage in zip(names, ("json", "build")):
        setattr(treefile, name, timed(times, stage, originals[name]))
    try:
        tree = timed(times, "parse", treefile.parse_tree)(text)
    finally:
        for name, fn in originals.items():
            setattr(treefile, name, fn)
    times["parse"] -= times["json"] + times["build"]
    start = time.perf_counter()
    serialize_tree(tree)
    times["serialize"] = time.perf_counter() - start
    start = time.perf_counter()
    report.to_json()
    times["report"] = time.perf_counter() - start
    start = time.perf_counter()
    tree_pinsker_report(tree, spec)
    times["pinsker"] = time.perf_counter() - start
    start = time.perf_counter()
    align_by_paths(tree, twin)
    times["align"] = time.perf_counter() - start
    fresh = treefile.parse_tree(text)  # no cache of the stages above
    start = time.perf_counter()
    for f in (path_lengths(fresh), identities.surprisal_functional(fresh)):
        identities.lansit_check(fresh, f).per_branch(fresh.mean_length)
    times["check"] = time.perf_counter() - start
    return times


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 15
    print(f"best of {repeats}, ms         " + "".join(f"{stage:>10}" for stage in STAGES) + f"{'total':>10}")
    totals = dict.fromkeys(STAGES, 0.0)
    for name, (tree, spec) in shapes().items():
        exact_text = serialize_tree(tree)
        texts = {"exact": exact_text, "float": serialize_tree(parse_tree(exact_text, force_float=True))}
        for mode, text in texts.items():
            report, twin = analyze_report(text), parse_tree(text)
            runs = [stage_times(text, report, spec, twin) for _ in range(repeats)]
            best = {stage: min(run[stage] for run in runs) for stage in STAGES}
            for stage in STAGES:
                totals[stage] += best[stage]
            cells = "".join(f"{best[stage] * 1e3:10.3f}" for stage in STAGES)
            print(f"{name:>16} {mode:<5}  {cells}{sum(best.values()) * 1e3:10.3f}")
    cells = "".join(f"{totals[stage] * 1e3:10.3f}" for stage in STAGES)
    print(f"{'all documents':>22}  {cells}{sum(totals.values()) * 1e3:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
