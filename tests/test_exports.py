"""Every public name of the package and of its traced modules resolves.

The benchmark's tracer (``bench/tracing.py``) calls ``getattr`` on each
entry of the ``__all__`` of the modules it traces, so an entry that names
nothing would fail every traced run, and one listed twice would be wrapped
twice.
"""

import importlib

import pytest

# the modules that bench/tracing.py traces (its LAYERS)
TRACED = ("cli", "treefile", "tree", "identities", "approximation", "generators", "numeric")


@pytest.mark.parametrize("module", ["treeprob", *(f"treeprob.{name}" for name in TRACED)])
def test_every_export_resolves_once(module):
    namespace = importlib.import_module(module)
    names = namespace.__all__
    assert [name for name in names if not hasattr(namespace, name)] == []
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
