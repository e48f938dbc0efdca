from fractions import Fraction

import pytest

from treeprob import build_tree

# small worked tree used across suites: three leaves, one unary node
DEMO_EDGES = [(0, "a", 1), (0, "b", 2), (1, "a", 3), (3, "a", 5), (3, "b", 6)]
DEMO_MASS = {2: Fraction(1, 4), 5: Fraction(1, 2), 6: Fraction(1, 4)}
DEMO_Q_MASS = {2: Fraction(1, 2), 5: Fraction(1, 4), 6: Fraction(1, 4)}

DEMO_DOCUMENT = """\
{
  "version": "1",
  "root": 0,
  "edges": [[0, "a", 1], [0, "b", 2], [1, "a", 3], [3, "a", 5], [3, "b", 6]],
  "leaf_mass": [[2, "1/4"], [5, "1/2"], [6, "1/4"]],
  "metadata": {}
}
"""

# Fraction(str) accepts underscores from Python 3.11 on and spaces around
# "/" from 3.12 on; parse_rational keeps 3.10's grammar on every version
GRAMMAR_EXTENSIONS = ["1_000/3000", "0.2_5", "1/2_0", "1e1_0", "1_0/20", "1 / 2", "1/ 2", "1 /2", "-1\t/2"]


@pytest.fixture
def demo_tree():
    return build_tree(DEMO_EDGES, DEMO_MASS)


@pytest.fixture
def demo_tree_float():
    return build_tree(
        DEMO_EDGES, {k: float(v) for k, v in DEMO_MASS.items()}, exact=False
    )


@pytest.fixture
def demo_q_tree():
    return build_tree(DEMO_EDGES, DEMO_Q_MASS)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.tree"
    path.write_text(DEMO_DOCUMENT, "utf-8")
    return str(path)
