"""Spans around the library's public entry points, installed from outside.

``install`` replaces module functions and ``HyperReal``/``RatSeq`` methods
with wrappers that record one span per call (layer name, start, end and
parent span) in a flat in-memory array; nothing is written until the run
ends.  ``summary`` then turns the spans into calls, total and self time
(span time minus the time its child spans cover) per layer, plus a few
counters that are taken at the same boundaries.  Nothing in the library is
edited, so a span covers exactly one call of the named function.
"""

from __future__ import annotations

import time
from array import array

MODULES = ("core", "calculus", "ultrapower", "filters", "transfer", "hilbert", "cli")
# layer -> (module, class or None, attribute names)
LAYERS = {
    "core.mul": ("core", "HyperReal", ("__mul__", "__rmul__")),
    "core.add": ("core", "HyperReal", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    "core.inv": ("core", "HyperReal", ("inv",)),
    "core.root": ("core", "HyperReal", ("root",)),
    "core.pow": ("core", "HyperReal", ("__pow__",)),
    "core.order": ("core", "HyperReal", ("compare", "classify", "shadow", "is_infinitesimal", "is_limited")),
    "core.other": (
        "core",
        "HyperReal",
        ("__truediv__", "__rtruediv__", "__abs__", "truncate", "from_rational", "monomial", "sign"),
    ),
    "calculus.parse": ("calculus", None, ("parse_expr",)),
    "calculus.eval": ("calculus", None, ("eval_hyper",)),
    "calculus.query": ("calculus", None, ("derivative", "limit_fun", "continuity_at", "limit_seq")),
    "ultrapower.ratseq": (
        "ultrapower",
        "RatSeq",
        ("__init__", "parse", "compare", "agreement", "__add__", "__sub__", "__mul__", "__truediv__", "__neg__"),
    ),
    "ultrapower.embed": ("ultrapower", "RatSeq", ("embed",)),
    "filters.enumerate": ("filters", None, ("enumerate_ultrafilters",)),
    "filters.closure": ("filters", None, ("generate_filter", "classify_family")),
    "transfer.parse": ("transfer", None, ("parse_formula",)),
    "transfer.lint": ("transfer", None, ("classify_text", "check_statement", "check_transferable", "star_transform")),
    "hilbert.parse": ("hilbert", None, ("parse_hvector",)),
    "hilbert.vector": ("hilbert", None, ("inner", "norm_sq", "vec_classify", "standard_part_vec")),
    "cli.run": ("cli", None, ("run",)),
}
ROOT = "bench.op"
COUNTERS = (
    "core.new.calls",
    "core.terms_out",
    "calculus.eval_in_query",
    "calculus.parse_repeats",
    "filters.candidates_scanned",
    "filters.found",
)


class Tracer:
    def __init__(self):
        self.names = [ROOT, *LAYERS]
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.data = array("q")  # (name id, start ns, end ns, parent index) per span
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.seen_text = set()
        self.missing = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def wrap(self, fn, name, after=None):
        nid = self.ids[name]
        data, stack, clock = self.data, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(data) >> 2
            data.extend((nid, 0, 0, parent))
            stack.append(index)
            data[4 * index + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                data[4 * index + 2] = clock()
                stack.pop()
            if after is not None:
                after(args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn):
        """Run one benchmark op as the root span of its request."""
        return self.wrap(fn, ROOT)()

    def _parent_name(self, parent):
        return self.names[self.data[4 * parent]] if parent >= 0 else ""

    def _inside(self, parent, name):
        nid = self.ids[name]
        while parent >= 0:
            if self.data[4 * parent] == nid:
                return True
            parent = self.data[4 * parent + 3]
        return False

    # -- hooks taken at the same boundaries ---------------------------------

    def _terms_out(self, args, result, parent):
        # Terms returned to the layer above core; an exact rewrite of the
        # series kernel must leave this count unchanged.
        if not self._parent_name(parent).startswith("core."):
            self.counts["core.terms_out"] += len(result.terms)

    def _eval_seen(self, args, result, parent):
        if self._inside(parent, "calculus.query"):
            self.counts["calculus.eval_in_query"] += 1

    def _parse_seen(self, args, result, parent):
        text = args[0] if args else None
        if text in self.seen_text:
            self.counts["calculus.parse_repeats"] += 1
        else:
            self.seen_text.add(text)

    def _found(self, args, result, parent):
        self.counts["filters.found"] += len(result)

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self, package):
        """Wrap the entry points of every module of ``package`` (hyperreal)."""
        import importlib

        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        namespaces = [package, *modules.values()]
        hooks = {
            "core.inv": self._terms_out,
            "core.root": self._terms_out,
            "core.pow": self._terms_out,
            "calculus.eval": self._eval_seen,
            "calculus.parse": self._parse_seen,
            "filters.enumerate": self._found,
        }
        for layer, (mod_name, cls_name, attrs) in LAYERS.items():
            module = modules[mod_name]
            owner = getattr(module, cls_name) if cls_name else None
            for attr in attrs:
                self._patch(module, owner, attr, namespaces, lambda f, l=layer: self.wrap(f, l, hooks.get(l)))
        self._patch(modules["core"], modules["core"].HyperReal, "__init__", namespaces,
                    lambda f: self._counter(f, "core.new.calls"))
        self._patch(modules["filters"], None, "_closure_ok", namespaces,
                    lambda f: self._counter(f, "filters.candidates_scanned"))

    def _patch(self, module, owner, attr, namespaces, make):
        if owner is not None:
            raw = owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                return
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        new = make(fn)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, new)
                    self._undo.append((ns, key, fn))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def summary(self):
        """{layer: [calls, total_s, self_s]} and the counters."""
        data = self.data
        n = len(data) >> 2
        child = [0] * n
        for i in range(n):
            parent = data[4 * i + 3]
            if parent >= 0:
                child[parent] += data[4 * i + 2] - data[4 * i + 1]
        layers = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            total = data[4 * i + 2] - data[4 * i + 1]
            row = layers[self.names[data[4 * i]]]
            row[0] += 1
            row[1] += total / 1e9
            row[2] += (total - child[i]) / 1e9
        return {"layers": layers, "counts": dict(self.counts)}


def merge(summaries):
    """Sum several ``summary`` results (one per traced child process)."""
    layers, counts = {}, {}
    for s in summaries:
        for name, row in s["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"layers": layers, "counts": counts}
