"""Per-module tracing of uebkit from outside the program.

Tracer.install() replaces the public functions and methods of every
uebkit module with timing wrappers, so no line of the program changes.
Each wrapper keeps one frame on a shared stack, which gives every call
its inclusive time and its self time (inclusive minus wrapped callees);
self times are summed per module.  Module-level functions (except those
of cyclo and LEAF_FUNCTIONS) and the methods in SPAN_METHODS also record
a span (name, start, end, parent span).  The other methods, of the
scalar, group, matrix and factor-form classes, run up to millions of
times, so they only feed aggregated counters.

Generator methods (such as FiniteGroup.elements) return before their
body runs, so the time spent iterating them lands in the caller's self
time.  The wrappers themselves cost time; the traced run reports that
cost as trace_overhead_s against an untraced round.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("cyclo", "exactmat", "fastcyc", "combinat", "groups", "nice",
           "ueb", "induce", "counterexample165", "cli")

# methods that are function-level steps rather than leaves
SPAN_METHODS = frozenset({
    "counterexample165.FactorMap.__init__",
    "counterexample165.FactorMap.exact_matrix",
    "groups.SemidirectProduct.center_structural",
    "groups.SemidirectProduct.spot_check",
    "induce.InducedRep.block_structure_ok",
    "induce.InducedRep.character",
    "nice.Cocycle.validate",
    "ueb.UnitaryErrorBasis.monomiality",
})

# module-level functions called hundreds of thousands of times; every
# function of the scalar module cyclo is a leaf as well
LEAF_FUNCTIONS = frozenset({
    "nice.extract_cocycle",
})

# callees whose calls are also counted per calling function
EDGE_KEYS = frozenset({
    "fastcyc.to_exact",
    "fastcyc.CycMatrix.__matmul__",
    "nice.extract_cocycle",
})

# trivial leaves left unwrapped: a wrapper would cost several times their
# body, so their time stays in the caller's self time
UNWRAPPED = frozenset({
    "cyclo.Cyclotomic.is_zero", "cyclo.Cyclotomic.is_one",
    "cyclo.Cyclotomic.key", "cyclo.PhasedScalar.__init__",
    "cyclo.PhasedScalar.is_zero", "cyclo.PhasedScalar.is_one",
    "cyclo.PhasedScalar.key",
})

# leaves run tens of millions of times: counted, not timed, so their
# time stays in the caller's self time
COUNT_ONLY = frozenset({
    "groups.HeisenbergGroup.compose",
})

_DUNDERS = ("__init__", "__matmul__", "__mul__", "__add__", "__sub__",
            "__pow__", "__eq__")

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.root = [0.0, "<check>", -1]
        self.stack = [self.root]
        self.stats: dict = {}          # key -> [calls, inclusive_s, self_s]
        self.module_self = {m: 0.0 for m in MODULES}
        self.edges: Counter = Counter()  # (caller key, callee key) -> calls
        self.counters: Counter = Counter()
        self.spans: list = []          # (id, parent id, key, t0, t1)
        self.spans_dropped = 0
        self._next_span = 0
        self._originals: list = []
        self.started = self.stopped = None

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, key: str, module: str, fn, span: bool):
        stack, clock, selfs = self.stack, self.clock, self.module_self
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        edges = self.edges if key in EDGE_KEYS else None
        tracer = self

        if key in COUNT_ONLY:
            def wrapped(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
        elif span:
            def wrapped(*args, **kwargs):
                parent = stack[-1]
                sid = tracer._next_span
                tracer._next_span = sid + 1
                if edges is not None:
                    edges[(parent[1], key)] += 1
                frame = [0.0, key, sid]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    el = t1 - t0
                    stack.pop()
                    parent[0] += el
                    own = el - frame[0]
                    stat[0] += 1
                    stat[1] += el
                    stat[2] += own
                    selfs[module] += own
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((sid, parent[2], key, t0, t1))
                    else:
                        tracer.spans_dropped += 1
        else:
            def wrapped(*args, **kwargs):
                parent = stack[-1]
                if edges is not None:
                    edges[(parent[1], key)] += 1
                frame = [0.0, key, parent[2]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    el = clock() - t0
                    stack.pop()
                    parent[0] += el
                    own = el - frame[0]
                    stat[0] += 1
                    stat[1] += el
                    stat[2] += own
                    selfs[module] += own

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", key)
        wrapped.__qualname__ = getattr(fn, "__qualname__", key)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        return wrapped

    def install(self) -> None:
        """Wrap every public callable of the uebkit modules, once."""
        mods = {m: importlib.import_module(f"uebkit.{m}") for m in MODULES}
        replaced = {}
        for m, mod in mods.items():
            full = mod.__name__
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == full \
                        and not name.startswith("_"):
                    key = f"{m}.{name}"
                    leaf = m == "cyclo" or key in LEAF_FUNCTIONS
                    w = self._wrapper(key, m, obj, not leaf)
                    replaced[id(obj)] = (obj, w)
                elif inspect.isclass(obj) and obj.__module__ == full:
                    self._wrap_class(m, obj)
        self._probe_rep_cache(mods["nice"])
        # rebind names imported from one module into another
        import uebkit
        for mod in list(mods.values()) + [uebkit]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_class(self, m: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            key = f"{m}.{cls.__qualname__}.{name}"
            if key in UNWRAPPED:
                continue
            span = key in SPAN_METHODS
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(key, m, raw.__func__, span))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrapper(key, m, raw.fget, span),
                               raw.fset, raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrapper(key, m, raw, span)
            else:
                continue
            self._originals.append((cls, name, raw))
            setattr(cls, name, new)

    def _probe_rep_cache(self, nice) -> None:
        """Count ProjectiveRep.matrix calls served from the rep's cache."""
        inner = nice.ProjectiveRep.matrix
        counters = self.counters

        def matrix(rep, g):
            if g in rep._cache:
                counters["nice.rep_cache_hits"] += 1
            return inner(rep, g)

        self._originals.append((nice.ProjectiveRep, "matrix", inner))
        nice.ProjectiveRep.matrix = matrix

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._originals):
            setattr(owner, name, obj)
        self._originals.clear()

    # -- the check interval ---------------------------------------------

    def start(self) -> None:
        self.started = self.clock()

    def stop(self) -> None:
        self.stopped = self.clock()

    # -- results -----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def check_s(self) -> float:
        return self.stopped - self.started

    def unattributed_s(self) -> float:
        """Check time spent outside every wrapped call: benchmark glue
        and the interpreter between top-level calls."""
        return self.check_s() - self.root[0]

    def document(self) -> dict:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.started
        return {
            "check_s": self.check_s(),
            "unattributed_s": self.unattributed_s(),
            "module_self_s": dict(self.module_self),
            "functions": {k: {"calls": v[0], "inclusive_s": v[1],
                              "self_s": v[2]}
                          for k, v in sorted(self.stats.items()) if v[0]},
            "edges": [{"caller": a, "callee": b, "calls": n}
                      for (a, b), n in sorted(self.edges.items())],
            "counters": dict(self.counters),
            "span_names": names,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[s[0], s[1], index[s[2]], round(s[3] - base, 7),
                       round(s[4] - base, 7)] for s in self.spans],
            "spans_dropped": self.spans_dropped,
        }

    def write(self, path: str, extra: dict) -> None:
        doc = self.document()
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
