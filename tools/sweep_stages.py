"""Time the stages of the three sweep-exact ladders, in process.

Each ladder is one ``convergence_sweep`` on the benchmark's sweep-exact
targets (weights 1..k over their sum on k = 2, 3 and 4 labels, ladders
ending at 1024, 2187 and 1024 leaves), then ``write_sweep_csv``.  The
stages are timed by wrapping the functions the sweep calls:

    grow        growth, one key class at a time, and each budget's
                preorder walk, sorted classes, leaf levels and maps: the
                rest of ``_matcher_trees``
    quantize    ``_dyadic_levels``, on the budget's classes as groups of
                equal targets, one heap entry per run of leaves
    tables      ``_tree_from_tables``
    pinsker     the rest of ``tree_pinsker_report``: the branch distances,
                tails and averages
    divergence  ``pair_divergence``, the exact leaf fold of D that
                ``tree_pinsker_report`` calls
    entropy     ``leaf_entropy``
    rows        the rest of ``convergence_sweep`` (row assembly)
    csv         ``write_sweep_csv``

Each stage prints its best time over the repeats, in milliseconds, and
the last line sums the ladders.  Only the standard library and the
checkout's ``src/`` are used; it prints numbers and gates nothing.

    python3 tools/sweep_stages.py [repeats, default 15]
"""

from __future__ import annotations

import io
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treeprob import FiniteDistribution, ProductSpec, approximation, generators  # noqa: E402

LADDERS = {
    "1/3,2/3": [4, 16, 64, 256, 1024],
    "1/6,1/3,1/2": [3, 9, 27, 81, 243, 729, 2187],
    "1/10,1/5,3/10,2/5": [4, 16, 64, 256, 1024],
}
STAGES = ("grow", "quantize", "tables", "pinsker", "divergence", "entropy", "rows", "csv")
# the functions timed by wrapping them in their callers' namespaces, by stage
WRAPPED = {
    "quantize": (generators, "_dyadic_levels"),
    "tables": (generators, "_tree_from_tables"),
    "pinsker": (generators, "tree_pinsker_report"),
    "divergence": (approximation, "pair_divergence"),
    "entropy": (generators, "leaf_entropy"),
}
EPSILON = 0.1


def timed(times: dict[str, float], stage: str, fn):
    """``fn`` with its wall time added to ``times[stage]``."""

    def wrapper(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            times[stage] += time.perf_counter() - start

    return wrapper


def timed_trees(times: dict[str, float], trees_of):
    """``_matcher_trees`` with the time spent producing each tree added to
    ``times["grow"]``; the quantize and tables stages, timed inside it, are
    taken out again."""

    def wrapper(*args):
        trees = trees_of(*args)
        while True:
            start = time.perf_counter()
            tree = next(trees, None)
            times["grow"] += time.perf_counter() - start
            if tree is None:
                return
            yield tree

    return wrapper


def stage_times(spec: ProductSpec, budgets: list[int]) -> dict[str, float]:
    """Seconds per stage of one sweep of ``spec`` over ``budgets``."""
    times = dict.fromkeys(STAGES, 0.0)
    targets = [(generators, "_matcher_trees"), *WRAPPED.values()]
    originals = {target: getattr(*target) for target in targets}
    generators._matcher_trees = timed_trees(times, originals[generators, "_matcher_trees"])
    for stage, target in WRAPPED.items():
        setattr(*target, timed(times, stage, originals[target]))
    try:
        start = time.perf_counter()
        rows = generators.convergence_sweep(spec, budgets, EPSILON)
        times["rows"] = time.perf_counter() - start - times["grow"] - times["pinsker"] - times["entropy"]
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    # the nested stages, timed inside their callers, are taken out of them
    times["grow"] -= times["quantize"] + times["tables"]
    times["pinsker"] -= times["divergence"]
    start = time.perf_counter()
    generators.write_sweep_csv(rows, io.StringIO())
    times["csv"] = time.perf_counter() - start
    return times


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 15
    print(f"{f'best of {repeats}, ms':>17}  " + "".join(f"{stage:>11}" for stage in STAGES) + f"{'total':>11}")
    totals = dict.fromkeys(STAGES, 0.0)
    for target, budgets in LADDERS.items():
        masses = [Fraction(part) for part in target.split(",")]
        spec = ProductSpec(FiniteDistribution(dict(enumerate(masses))))
        runs = [stage_times(spec, budgets) for _ in range(repeats)]
        best = {stage: min(run[stage] for run in runs) for stage in STAGES}
        for stage in STAGES:
            totals[stage] += best[stage]
        cells = "".join(f"{best[stage] * 1e3:11.2f}" for stage in STAGES)
        print(f"{target:>17}  {cells}{sum(best.values()) * 1e3:11.2f}")
    cells = "".join(f"{totals[stage] * 1e3:11.2f}" for stage in STAGES)
    print(f"{'all ladders':>17}  {cells}{sum(totals.values()) * 1e3:11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
