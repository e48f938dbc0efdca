"""Layer tracing of treeprob, installed from outside the package.

``Tracer.install`` wraps every public function of the package's modules and
replaces each reference to it in every module namespace, so calls between
modules (``identities`` calling ``tree.node_probabilities``, ``generators``
calling ``approximation.entropy_rate_gap``) pass through the wrapper too.
``ExactLog2``'s arithmetic, ordering and float conversion are wrapped as
``numeric.ExactLog2.<method>`` calls, so exact accumulation such as
``total = total + qj * inner`` counts as ``numeric`` time; its
``__init__`` is wrapped to count constructions.

Each call of a function outside ``numeric`` is kept in memory as a span
(request, span id, parent span id, name, start, end) and written out when the
run ends.  ``numeric`` functions and methods run once per tree node or per
term, so their calls are counted and timed but not kept as spans; their
time is still subtracted from the caller's self time.  Self time is a
call's duration minus the duration of the traced calls made inside it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "treefile", "tree", "identities", "approximation", "generators", "numeric")
UNSPANNED_LAYER = "numeric"
EXACTLOG2_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__eq__", "__lt__", "__le__", "__gt__",
    "__ge__", "__abs__", "__float__",
)
# Layers whose returned values are the exact results a user reads.
RESULT_LAYERS = ("identities", "approximation")
# Per-cycle counters kept outside the call table.
COUNTERS = (
    "cli.report_bytes",
    "numeric.exactlog2.constructed",
    "tree.nodes_built",
    "treefile.bytes_in",
)
MAXIMA = ("numeric.exact_support_max", "numeric.exact_den_bits_max")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [child seconds, span id]
        self._next_span = 0
        self._request = -1
        self._q_trees: dict[int, object] = {}
        self._restore: list[tuple] = []

    # -- requests -----------------------------------------------------------

    def begin_request(self) -> None:
        self._request += 1
        self._q_trees = {}

    def end_request(self, report_bytes: int) -> None:
        self.counters["q_trees"] += len(self._q_trees)
        self.counters["cli.report_bytes"] += report_bytes
        self._q_trees = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch treeprob in place; ``uninstall`` undoes every patch."""
        package = importlib.import_module("treeprob")
        modules = {name: importlib.import_module(f"treeprob.{name}") for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(layer, f"{layer}.{name}", fn)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, attr, wrapped)
                            self._restore.append((namespace, attr, fn))
        exact_log2 = modules["numeric"].ExactLog2
        for name in EXACTLOG2_METHODS:
            method = vars(exact_log2)[name]
            qualname = f"{UNSPANNED_LAYER}.ExactLog2.{name}"
            setattr(exact_log2, name, self._wrap(UNSPANNED_LAYER, qualname, method))
            self._restore.append((exact_log2, name, method))
        original_init = exact_log2.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["numeric.exactlog2.constructed"] += 1
            original_init(obj, *args, **kwargs)

        exact_log2.__init__ = counted_init
        self._restore.append((exact_log2, "__init__", original_init))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, qualname: str, fn):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = None if layer == UNSPANNED_LAYER else self.spans
        after = self._after_hook(layer, qualname)

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if spans is None:
                span_id = parent
            else:
                span_id = self._next_span
                self._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[qualname] += 1
                self_s[qualname] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if spans is not None:
                    spans.append((self._request, span_id, parent, qualname, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_hook(self, layer: str, qualname: str):
        counters = self.counters
        if qualname == "tree.build_tree":
            def after(args, result):
                counters["tree.nodes_built"] += len(result.nodes)
        elif qualname == "tree.node_probabilities":
            q_trees = self

            def after(args, result):
                # keep the tree alive so its id names one tree per request
                q_trees._q_trees[id(args[0])] = args[0]
        elif qualname == "treefile.parse_document":
            def after(args, result):
                counters["treefile.bytes_in"] += len(args[0].encode("utf-8"))
        elif layer in RESULT_LAYERS:
            after = self._record_exact
        else:
            after = None
        return after

    def _record_exact(self, args, result) -> None:
        values = [result]
        values.extend(
            getattr(result, name)
            for name in ("leaf_side", "node_side")
            if hasattr(result, name)
        )
        for value in values:
            coef = getattr(value, "_coef", None)  # ExactLog2's prime -> coefficient map
            if coef is not None:
                support = len(coef)
                bits = max((c.denominator.bit_length() for c in coef.values()), default=0)
            elif isinstance(value, Fraction):
                support, bits = 0, value.denominator.bit_length()
            else:
                continue
            counters = self.counters
            counters["numeric.exact_support_max"] = max(counters["numeric.exact_support_max"], support)
            counters["numeric.exact_den_bits_max"] = max(counters["numeric.exact_den_bits_max"], bits)

    # -- results ------------------------------------------------------------

    def metric(self, name: str, cycles: int) -> float:
        """Per-cycle value of one per-layer metric name from BENCHMARK.json.

        ``<layer>.calls`` and ``<layer>.self_s`` sum over the layer's
        functions; ``<layer>.<function>.s`` and ``.self_s`` are that
        function's self time, ``.calls`` its call count.  Maxima are not
        divided by the cycle count.
        """
        if name == "tree.node_probabilities.per_request":
            trees = self.counters["q_trees"]
            return self.calls["tree.node_probabilities"] / trees if trees else 0.0
        if name in MAXIMA:
            return float(self.counters[name])
        if name in COUNTERS:
            return self.counters[name] / cycles
        key, _, kind = name.rpartition(".")
        if kind not in ("calls", "s", "self_s") or not key:
            raise KeyError(name)
        table = self.calls if kind == "calls" else self.self_s
        if key in LAYERS:
            total = sum(v for k, v in table.items() if k.startswith(key + "."))
        else:
            if key.split(".")[0] not in LAYERS:
                raise KeyError(name)
            total = table.get(key, 0)
        return total / cycles

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for request, span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "request": request,
                            "span": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
