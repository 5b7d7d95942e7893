"""A tracer that wraps gptk's public functions from outside the package.

``Tracer.install`` replaces every public function of the listed gptk
modules, plus a few methods, with a wrapper that records a span: its name,
its parent span, the op it belongs to, and its start and end.  A function
re-exported by ``from .x import f`` is bound in several module namespaces,
so the replacement is made in every gptk namespace that holds it.

Leaf helpers of ``linalg``, ``testspace`` and ``modelfile`` (element-wise
vector arithmetic, sort keys, number parsing) are left alone: they run once
per entry, a span each would cost more than their work, and their time then
counts as self time of the layer that calls them.

Self time is a span's duration minus the time of its child spans.  Spans
stay in memory and are written out by ``dump``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

MODULES = ("lp", "linalg", "polyhedra", "ous", "testspace", "vweight", "modj", "logic",
           "channel", "composite", "dacey", "modelfile", "cli", "systems")

LEAVES = {
    "linalg": {"frac", "vec", "zeros", "basis_vec", "vadd", "vsub", "vneg", "vscale", "vdot",
               "vsum", "is_zero_vec", "tensor_vec", "mat_vec", "transpose", "primitive"},
    "testspace": {"canon_key", "sort_outcomes", "event_cap"},
    "modelfile": {"parse_rational", "format_rational", "parse_vector", "parse_matrix"},
}

METHODS = (("lp", "LinProb", "feasible"), ("lp", "LinProb", "maximize"),
           ("ous", "OrderUnitSpace", "__post_init__"),
           ("composite", "BilinearRule", "__post_init__"),
           ("modj", "Observable", "__post_init__"))


def _bits(values):
    return max((max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                for q in values), default=0)


def _measure_solve(counts, args, result):
    a_rows = args[0]
    counts["lp.solve.cells"] += len(a_rows) * (len(a_rows[0]) if a_rows else 0)
    status, x, _value, farkas = result
    counts["lp.solve.infeasible"] += status == "infeasible"
    bits = _bits(x if x is not None else farkas or ())
    counts["lp.solve.max_bits"] = max(counts["lp.solve.max_bits"], bits)


def _measure_rref(counts, args, result):
    rows = args[0]
    counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)


def _measure_rays(counts, args, result):
    counts["polyhedra.extreme_rays.rays_out"] += len(result)


MEASURES = {"lp.solve_standard": _measure_solve, "linalg.rref": _measure_rref,
            "polyhedra.extreme_rays": _measure_rays}

COUNTS = ("lp.solve.cells", "lp.solve.infeasible", "lp.solve.max_bits", "linalg.rref.cells",
          "polyhedra.extreme_rays.rays_out")


def lru_original(fn):
    """The lru_cache wrapper behind ``fn``, looking through tracer wrappers."""
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn


class Tracer:
    def __init__(self):
        self.spans = []             # (span id, parent id, op, name, start ns, end ns)
        self.stats = {}             # name -> [calls, self ns]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1                # -1 is set-up; ops count from 0
        self._stack = []            # [span id, child ns] per open span
        self._next = 0
        self._saved = []

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        stats = self.stats.setdefault(name, [0, 0])
        stack, spans, counts = self._stack, self.spans, self.counts
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                stats[0] += 1
                stats[1] += t1 - t0 - frame[1]
                spans.append((sid, parent, tracer.op, name, t0, t1))
            if measure:
                measure(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        importlib.import_module("gptk")
        mods = {m: importlib.import_module("gptk." + m) for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in LEAVES.get(short, ()):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in [m for n, m in sys.modules.items() if n == "gptk" or n.startswith("gptk.")]:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def self_s(self, *names, prefix=None):
        ns = sum(self.stats.get(n, (0, 0))[1] for n in names)
        if prefix:
            ns += sum(v[1] for k, v in self.stats.items() if k.startswith(prefix))
        return ns / 1e9

    def calls(self, *names):
        return sum(self.stats.get(n, (0, 0))[0] for n in names)

    def summary(self):
        return {"stats": self.stats, "counts": self.counts}

    def merge(self, summary, op):
        """Add a child process's summary, its spans re-tagged with ``op``."""
        for name, (calls, ns) in summary["stats"].items():
            st = self.stats.setdefault(name, [0, 0])
            st[0] += calls
            st[1] += ns
        for key, val in summary["counts"].items():
            if key == "lp.solve.max_bits":
                self.counts[key] = max(self.counts[key], val)
            else:
                self.counts[key] += val
        base = self._next
        for sid, parent, _, name, t0, t1 in summary["spans"]:
            self.spans.append((base + sid, None if parent is None else base + parent,
                               op, name, t0, t1))
            self._next = max(self._next, base + sid + 1)

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
