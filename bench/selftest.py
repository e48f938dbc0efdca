#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; run from the repository root:

    python3 bench/selftest.py

Checks that every declared metric is emitted with its unit and that no
request fails, that docs-float leaves out the requests of known defects
and probes each of them, that a corrupted output of each request kind
counts as a failure, and that one seed always produces the same inputs.
Exits 0 and prints "selftest: ok" when every check holds.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run
import traffic


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _workdir():
    run.WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK)


def check_metrics() -> None:
    spec = run.load_spec()
    for workload in traffic.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run_workload(workload, 1, 0, trace, traffic.TINY)
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"result keys {sorted(result)}",
            )
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared, f"{workload} {section}: {emitted} != {declared}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                expect(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    f"{workload} {name} = {value!r}",
                )
            expect(result["correct"], f"{workload}: a wrong output")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            expect(result["failed"] == 0, f"{workload}: {result['failed']} failed")


def check_known_defects() -> None:
    """The docs-float cycle holds no request of a known defect, and the
    probe reports on each defect; whether one still reproduces is printed,
    not checked, so that fixing it breaks nothing here."""
    with _workdir() as workdir:
        plan = traffic.build_plan("docs-float", 3, Path(workdir), traffic.TINY)
        expect(
            not any(traffic._hits_known_defect(r) for r in plan.cycle),
            "docs-float sends a request of a known defect",
        )
        probes = traffic.probe_known_defects(plan.docs, Path(workdir))
    expect(
        [defect for defect, _, _ in probes] == list(traffic.KNOWN_DEFECTS),
        f"probes {probes}",
    )
    for defect, reproduced, detail in probes:
        print(f"known defect: {defect}: reproduced={reproduced}: {detail}")


def _corrupt(request, output):
    """The output with one value changed so that its check must fail."""
    if request.type == "roundtrip":
        text, same = output
        return text + "\n", same
    if request.type == "gap":
        return output * (1 + 1e-6) + 1e-6
    code, text = output
    if request.type == "sweep":
        lines = text.splitlines()
        cells = lines[-1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6) + 1e-9)
        return code, "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    report = json.loads(text)
    results = report["results"]
    if request.type == "validate":
        results["leaf_count"]["value"] += 1
    elif request.type == "analyze":
        results["leaf_entropy"]["value"] *= 1 + 1e-6
    elif request.type == "check":
        report["checks"][0]["passed"] = False
    else:
        results["divergence"]["value"] = results["divergence"]["value"] * (1 + 1e-6) + 1e-9
    return code, json.dumps(report)


def check_corruption() -> None:
    with _workdir() as workdir:
        plan = traffic.build_plan("docs-exact", 2, Path(workdir), traffic.TINY)
        seen: dict[str, str] = {}
        kinds = set()
        for request in plan.cycle:
            _, output, error = traffic.execute(request)
            expect(error is None, f"{request.key} raised {error!r}")
            expect(traffic.check(request, output, seen) is None, f"{request.key} failed")
            corrupted = _corrupt(request, output)
            expect(
                traffic.check(request, corrupted, {}) is not None,
                f"corrupted {request.key} passed its check",
            )
            if request.argv:
                expect(
                    traffic.check(request, (1, output[1]), dict(seen)) is not None,
                    f"{request.key} with exit code 1 passed its check",
                )
            kinds.add(request.type)
        expect(kinds == set(traffic.REQUEST_TYPES), f"kinds {sorted(kinds)}")
        tally = run.Tally()
        broken = traffic.Request(
            "validate", "missing", "exact", argv=("validate", str(Path(workdir) / "none"))
        )
        tally.run(broken)
        expect(tally.failed == 1 and tally.wrong == 1, "a failing exit code was not counted")


def _inputs(workload: str, seed: int) -> list:
    with _workdir() as workdir:
        plan = traffic.build_plan(workload, seed, Path(workdir), traffic.TINY)
        files = sorted(
            (path.name, path.read_text("utf-8")) for path in Path(workdir).iterdir()
        )
        stream = [
            (r.type, r.key, [a.replace(workdir, "") for a in r.argv], r.text)
            for r in plan.cycle
        ]
        return [files, stream, plan.record]


def check_determinism() -> None:
    for workload in traffic.WORKLOADS:
        first = _inputs(workload, 7)
        expect(first == _inputs(workload, 7), f"{workload}: seed 7 changed its inputs")
        expect(first != _inputs(workload, 8), f"{workload}: seeds 7 and 8 agree")


def main() -> int:
    check_metrics()
    check_known_defects()
    check_corruption()
    check_determinism()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
