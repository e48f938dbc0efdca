"""Byte-exact CLI outputs pinned against files in tests/golden/.

Each case runs one exact-mode command from inside tests/golden, so input
paths (and hence report keys) are the bare file names, and compares stdout
with the stored file byte for byte.  The stored outputs were written by
running the same arguments with ``python3 -m treeprob`` in that directory.
Any change to an exact result, a float rendering or the report layout
shows up here as a diff.
"""

from pathlib import Path

import pytest

from test_cli import invoke

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep.csv": ["sweep", "--target", "2/3,1/3", "--budgets", "4,16,64,256,1024"],
    "sweep-3.csv": [
        "sweep", "--target", "1/2,1/3,1/6", "--budgets", "3,9,27,81,243,729,2187"
    ],
    "sweep-4.csv": [
        "sweep", "--target", "1/4,1/4,1/4,1/4", "--budgets", "4,16,64,256,1024"
    ],
    "sweep-4096.csv": [
        "sweep", "--target", "2/3,1/3", "--budgets", "4,16,64,256,1024,4096"
    ],
    "demo-analyze.json": ["analyze", "--json", "demo.tree"],
    "demo-check.json": ["check", "--json", "demo.tree"],
    "demo-divergence.json": ["divergence", "--json", "demo.tree", "demo_q.tree"],
    "matcher-analyze.json": ["analyze", "--json", "matcher.tree"],
    "matcher-check.json": ["check", "--json", "matcher.tree"],
    "matcher-divergence.json": [
        "divergence", "--json", "--product", "1/2,1/3,1/6", "matcher.tree"
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, _, out, err = invoke(CASES[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text("utf-8")
