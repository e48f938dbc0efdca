"""Every public name of the package and of its traced modules resolves.

The benchmark's tracer (``bench/tracing.py``) calls ``getattr`` on each
entry of the ``__all__`` of the modules it traces, so an entry that names
nothing would fail every traced run, and one listed twice would be wrapped
twice.  The benchmark and the tools also read names from the package by
import or as module attributes, and each of those must resolve too, as
must the functions that the benchmark's per-layer metrics and the
tracer's ``ExactLog2`` method list name.  Each function and class that a
traced module exports is defined in that module.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

# the modules that bench/tracing.py traces (its LAYERS)
TRACED = ("cli", "treefile", "tree", "identities", "approximation", "generators", "numeric")


@pytest.mark.parametrize("module", ["treeprob", *(f"treeprob.{name}" for name in TRACED)])
def test_every_export_resolves_once(module):
    namespace = importlib.import_module(module)
    names = namespace.__all__
    assert [name for name in names if not hasattr(namespace, name)] == []
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


@pytest.mark.parametrize("module", TRACED)
def test_traced_exports_are_defined_in_their_module(module):
    # each function and class has one public home: a traced module lists
    # only its own, so the tracer books every call to the module that
    # defines the function
    namespace = importlib.import_module(f"treeprob.{module}")
    objects = [getattr(namespace, name) for name in namespace.__all__]
    homes = {obj.__qualname__: obj.__module__ for obj in objects
             if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert homes
    assert {name: home for name, home in homes.items() if home != namespace.__name__} == {}


ROOT = Path(__file__).resolve().parent.parent


def _bound_names(tree: ast.AST) -> list[str]:
    """Every name a parsed file binds: assignment, loop, ``with`` and
    ``except`` targets, parameters, definitions and imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.append(node.id)
        elif isinstance(node, ast.arg):
            names.append(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


def _package_references(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name a file imports from treeprob, and for
    each ``<alias>.<name>`` it reads on a treeprob module alias that the
    file binds once, by its import."""
    tree = ast.parse(path.read_text("utf-8"))
    refs, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treeprob":
            module = importlib.import_module(node.module)
            for alias in node.names:
                refs.append((node.module, alias.name))
                if inspect.ismodule(getattr(module, alias.name, None)):
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "treeprob":
                    aliases[alias.asname or alias.name] = alias.name if alias.asname else "treeprob"
    bound = _bound_names(tree)
    aliases = {name: module for name, module in aliases.items() if bound.count(name) == 1}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            refs.append((aliases[node.value.id], node.attr))
    return refs


def test_bench_and_tools_references_resolve():
    # a name that bench/ or tools/ reads and the package lacks would fail
    # every benchmark run, or the tool, at its first use
    paths = sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("tools/*.py")])
    refs = {(path.relative_to(ROOT).as_posix(), *ref)
            for path in paths for ref in _package_references(path)}
    assert refs, "no treeprob references found"
    missing = [
        (path, module, name) for path, module, name in sorted(refs)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


# per-layer metrics that name a function the package no longer has; they
# read 0 until the benchmark drops them
DEAD_METRIC_FUNCTIONS = {
    "numeric.log2_of",
    "identities.differential_lansit_check",
    "identities.normalized_divergence",
    "approximation.divergence_to_product",
    "treefile.parse_document",
    "treefile.document_to_tree",
}


@pytest.mark.parametrize("qualname", sorted(DEAD_METRIC_FUNCTIONS))
def test_dead_metric_functions_are_gone(qualname):
    # an entry whose function still exists would hide a live metric that
    # the tracer does not time
    layer, name = qualname.split(".")
    assert not hasattr(importlib.import_module(f"treeprob.{layer}"), name)


def _tracing_constant(name: str):
    """The literal value of a module-level constant of bench/tracing.py,
    read with ``ast`` without importing the file."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py binds no {name}")


def test_per_layer_metrics_name_traced_functions():
    # the tracer times a function only when its module's __all__ lists it,
    # so a <layer>.<function>.{s,calls,self_s} metric of any other name
    # reads 0 whatever the function costs
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["per_layer"]
    layers = _tracing_constant("LAYERS")
    named = []
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("s", "calls", "self_s"):
            named.append((parts[0], parts[1]))
    assert named, "no per-function metrics found"
    untraced = [
        f"{layer}.{name}" for layer, name in named
        if layer not in layers
        or name not in importlib.import_module(f"treeprob.{layer}").__all__
    ]
    assert sorted(set(untraced) - DEAD_METRIC_FUNCTIONS) == []


def test_traced_exactlog2_methods_exist():
    # the tracer indexes vars(ExactLog2) by each name, so a missing one
    # would raise KeyError in every traced run
    from treeprob.numeric import ExactLog2

    methods = _tracing_constant("EXACTLOG2_METHODS")
    assert methods
    assert [name for name in methods if name not in vars(ExactLog2)] == []
