"""Spans at the layer boundaries of bigraphpoly, recorded from outside.

``Tracer.install`` replaces each public function of a layer module by a
recording wrapper at its call sites: the names other modules imported, the
package namespace, and the attributes of modules that callers reach through
the module object (``polyfactor`` calls ``kernel.kron_degree_search``,
``cli`` calls ``fileio.load_document``).  Calls inside one module stay
unwrapped, and helpers run once per term or candidate (``bits.tau``,
``from_bits``, ``poly_key``) are never wrapped, so their time counts toward
the caller's self time.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("poly", "polyfactor", "kernel", "graphfactor", "petri", "_match",
          "bigraph", "digraph", "graphops", "fileio", "cli")
# Modules whose functions callers reach as module attributes.
MODULE_ACCESS = ("kernel", "fileio", "cli")
PER_TERM = {"poly_key"}

# Span fields.
LAYER, NAME, PARENT, START, END, ERROR, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [layer, fn.__name__, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if isinstance(out, list):
                span[SIZE] = len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every layer that exists; returns the layers found missing."""
        modules, missing = {}, []
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ImportError:
                missing.append(layer)
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in PER_TERM):
                    wrappers[fn] = (layer, self._wrap(layer, fn))
        prefix = package.__name__ + "."
        sites = [package] + [m for n, m in sys.modules.items() if n.startswith(prefix)]
        for mod in sites:
            own = mod.__name__[len(prefix):]
            for name, val in list(vars(mod).items()):
                if not inspect.isfunction(val) or val not in wrappers:
                    continue
                layer, wrapper = wrappers[val]
                if layer != own or own in MODULE_ACCESS:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, val))
        return missing

    def uninstall(self):
        for mod, name, val in reversed(self._undo):
            setattr(mod, name, val)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["layer", "name", "parent", "start", "end", "error", "size"],
                       "spans": self.spans}, f)

    def summary(self):
        """Per-layer calls and self time, plus the derived counts."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for layer in LAYERS:
            out[layer] = {"calls": 0, "self_s": 0.0}
        undecided = guard_hits = 0
        verified = {"graphfactor": [0, 0], "petri": [0, 0]}
        for i, s in enumerate(self.spans):
            row = out[s[LAYER]]
            row["calls"] += 1
            row["self_s"] += (s[END] - s[START]) - child[i]
            parent = self.spans[s[PARENT]] if s[PARENT] >= 0 else None
            if (s[LAYER] == "polyfactor" and s[ERROR] == "BudgetExceededError"
                    and (parent is None or parent[LAYER] != "polyfactor")):
                undecided += 1
            if s[LAYER] == "_match" and s[ERROR] == "SizeGuardError":
                guard_hits += 1
            # Candidates come from the factor search span directly beneath.
            if parent is not None and s[SIZE] is not None:
                if parent[NAME] == "factor_graph" and s[NAME] == "factor_pairs":
                    _count(verified["graphfactor"], parent, s)
                if parent[NAME] == "decompose" and s[NAME] == "bit_disjoint_factor":
                    _count(verified["petri"], parent, s)
        out["extra"] = {
            "polyfactor.undecided": undecided,
            "_match.guard_hits": guard_hits,
            "graphfactor.verified_ratio": _ratio(*verified["graphfactor"]),
            "petri.verified_ratio": _ratio(*verified["petri"]),
        }
        return out


def _count(acc, parent, child):
    # Only calls that returned: a guard error leaves no verified count.
    if parent[SIZE] is not None:
        acc[0] += parent[SIZE]
        acc[1] += child[SIZE]


def _ratio(num, den):
    return num / den if den else 0.0
