"""Span tracing of bipack's public functions, installed from outside the program.

``Tracer.install`` replaces each function in ``TRACED`` at every attribute of
every loaded ``bipack`` module that refers to it, so a call is recorded
whichever module it is looked up through (``bipack.cli.parse_graph`` and
``bipack.graphs.parse_graph`` alike). A cached property is traced on the
first access of each instance, which is the call that computes it.

Spans stay in memory as ``[name, start, end, parent, instance]`` rows; the
parent is the index of the enclosing span (or -1) and the instance is shared
by every span under one root span. ``dump`` writes them at exit. Names the
program no longer has are recorded as absent, never raised.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# "module.function" or "module.Class.cached_property", relative to the bipack package.
TRACED = (
    "generators.gen_random_bipartite",
    "graphs.format_graph",
    "graphs.parse_graph",
    "graphs.BipartiteGraph.a_adj",
    "graphs.BipartiteGraph.b_adj",
    "graphs.verify_embedding",
    "embedder.embed",
    "embedder.partition_degree_classes",
    "embedder.greedy_embed_small",
    "embedder.assign_blocks_and_pairs",
    "embedder.embed_pair",
    "flow.fixed_order_embed",
    "flow.max_flow",
    "flow.lemma4_check_exhaustive",
    "sequences.is_bigraphic",
    "sequences.is_graphic",
    "sequences.realize_bigraphic",
    "oracle.brute_force_embed",
    "oracle.brute_force_pack",
    "conditions.compare_theorems",
    "experiments.run_trial",
    "experiments.run_experiment",
    "cli.main",
)


def _count_greedy(counters, args, result):
    """B-vertices the greedy phase used, and its eps*n/4 budget."""
    host, plan, used = args[0], args[2], result[2]
    counters["embedder.greedy_b_used"] = counters.get("embedder.greedy_b_used", 0) + len(used)
    budget = plan.eps * host.n / 4
    counters["embedder.greedy_b_budget"] = counters.get("embedder.greedy_b_budget", 0) + budget


def _count_network(counters, args, result):
    """Arcs of the flow network fixed_order_embed builds: source, edge and sink arcs."""
    host = args[0]
    arcs = host.m + host.n + len(host.edges)
    counters["flow.network_arcs"] = counters.get("flow.network_arcs", 0) + arcs


COUNTERS = {
    "embedder.greedy_embed_small": _count_greedy,
    "flow.fixed_order_embed": _count_network,
}


class Tracer:
    def __init__(self, instance_base: int = 0):
        self.spans = []
        self.counters = {}
        self.wrapped = []
        self.absent = []
        self.broken_counters = []
        self._stack = []
        self._next_instance = instance_base
        self._undo = []

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            instance = self._next_instance
            self._next_instance += 1
        else:
            instance = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, instance])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end
        hook = COUNTERS.get(name)
        if hook is not None and name not in self.broken_counters:
            try:
                hook(self.counters, args, result)
            except (AttributeError, IndexError, TypeError):
                self.broken_counters.append(name)
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self):
        """Wrap every name in TRACED that the program still has.

        All modules are imported first, so that the attributes through which
        one module refers to another's functions are all in place.
        """
        modules = {}
        for name in TRACED:
            module_name = name.partition(".")[0]
            if module_name not in modules:
                try:
                    modules[module_name] = importlib.import_module("bipack." + module_name)
                except ModuleNotFoundError:
                    modules[module_name] = None
        for name in TRACED:
            module_name, _, attr = name.partition(".")
            module = modules[module_name]
            if module is None:
                self.absent.append(name)
                continue
            if "." in attr:
                done = self._wrap_class_attr(name, module, *attr.split(".", 1))
            else:
                done = self._wrap_function(name, module, attr)
            (self.wrapped if done else self.absent).append(name)

    def _wrap_function(self, name, module, attr):
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        traced = self._wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bipack" or mod_name.startswith("bipack.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))
        return True

    def _wrap_class_attr(self, name, module, cls_name, attr):
        cls = getattr(module, cls_name, None)
        descriptor = vars(cls).get(attr) if isinstance(cls, type) else None
        if not isinstance(descriptor, functools.cached_property):
            return False
        original = descriptor.func
        descriptor.func = self._wrapper(name, original)
        self._undo.append((descriptor, "func", original))
        return True

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def as_dict(self):
        return {
            "spans": self.spans,
            "counters": self.counters,
            "wrapped": self.wrapped,
            "absent": self.absent,
            "brokenCounters": self.broken_counters,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh)


def self_times(spans):
    """Per span, its duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
