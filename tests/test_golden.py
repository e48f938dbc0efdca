"""Byte-exact CLI outputs pinned against files in tests/golden/.

Each case of tests/golden/cases.json maps a stored file to the arguments
of one command, in exact mode or with ``--float``; CI's standard-library
runtime step reads the same list, on every Python version it tests.  The
command runs from inside tests/golden, so input paths (and hence report
keys) are the bare file names, and its stdout is compared with the
stored file byte for byte.  The stored outputs were written by
running the same arguments with ``python3 -m treeprob`` in that directory.
Any change to an exact result, a float result's bits, a float rendering or
the report layout shows up here as a diff.
"""

import json
from pathlib import Path

import pytest

from test_cli import invoke

GOLDEN = Path(__file__).parent / "golden"

CASES = json.loads((GOLDEN / "cases.json").read_text("utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, _, out, err = invoke(CASES[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text("utf-8")


@pytest.mark.parametrize("name", ["random-divergence-mixed.json", "random-check-functional.json"])
def test_mixed_documents_report_as_float(name, monkeypatch):
    # an exact tree against a JSON-number tree runs as the float pair that
    # --float loads, and an exact tree with a JSON-number functional as the
    # float tree, so each golden holds --float's results and checks
    monkeypatch.chdir(GOLDEN)
    command, *argv = CASES[name]
    code, _, out, err = invoke([command, "--float", *argv])
    assert (code, err) == (0, "")
    stored = json.loads((GOLDEN / name).read_text("utf-8"))
    forced = json.loads(out)
    assert (stored["results"], stored["checks"]) == (forced["results"], forced["checks"])
