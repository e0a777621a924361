"""Span tracing of cadec's layers from outside the program.

The tracer replaces each traced public function with a wrapper in every
cadec module that binds it (where it is defined and where it is imported),
so a call is recorded whichever name it goes through.  The binding module
is kept per span, which tells who called: `cadec.realalg.resultant` is a
call from realalg code, `cadec.projection.resultant` one from projection.

Spans live in compact arrays in memory (name, start, end, parent, item) and
are written out once, at the end of the run.  A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (layer module, public function) pairs traced; the layers of the system.
TRACED_FUNCTIONS = [
    ("polynomial", "resultant"),
    ("polynomial", "discriminant"),
    ("polynomial", "poly_gcd"),
    ("polynomial", "squarefree_basis"),
    ("polynomial", "content_primitive"),
    ("realalg", "roots_above"),
    ("realalg", "sign_at"),
    ("realalg", "isolate_coeffs"),
    ("realalg", "merge_roots"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "s_polynomial"),
    ("formula", "decide"),
    ("projection", "plan_projection"),
    ("projection", "mccallum_project"),
    ("projection", "reduced_project"),
    ("projection", "propagate_ecs"),
    ("lifting", "build_cad"),
    ("lifting", "lift_stack"),
    ("lifting", "truth_assign"),
    ("lifting", "cell_sign"),
    ("lifting", "locate"),
]

# Formula nodes evaluate themselves recursively; each node is one
# formula.evaluate span.
TRACED_METHODS = [("formula", cls, "evaluate") for cls in ("Atom", "And", "Or", "Not")]


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.span_names = []      # name id -> (function, binding module)
        self.names = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.item = -1
        self.item_labels = []
        self.counters = {}
        self._last_spoly = None
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name[len("cadec."):] if name != "cadec" else "cadec": mod
                   for name, mod in list(sys.modules.items())
                   if name == "cadec" or name.startswith("cadec.")}
        for layer, fname in TRACED_FUNCTIONS:
            orig = getattr(modules[layer], fname)
            for binder, mod in modules.items():
                if vars(mod).get(fname) is orig:
                    wrapper = self._wrap(orig, "%s.%s" % (layer, fname), binder)
                    self._patched.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = vars(cls)[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, "%s.%s" % (layer, meth), layer))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched = []

    def _wrap(self, fn, name, binder):
        name_id = len(self.span_names)
        self.span_names.append((name, binder))
        hook = _RESULT_HOOKS.get(name)
        names, parents, items = self.names, self.parents, self.items
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def begin_item(self, label):
        """Spans recorded from now on belong to the item called label."""
        self.item = len(self.item_labels)
        self.item_labels.append(label)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """Per function: calls, self seconds, and calls per binding module;
        plus the boundary counters."""
        n = len(self.names)
        child = [0.0] * n
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        per_id_calls = [0] * len(self.span_names)
        per_id_self = [0.0] * len(self.span_names)
        for i in range(n):
            k = names[i]
            per_id_calls[k] += 1
            per_id_self[k] += ends[i] - starts[i] - child[i]
        funcs = {}
        for k, (name, binder) in enumerate(self.span_names):
            entry = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "by_binder": {}})
            entry["calls"] += per_id_calls[k]
            entry["self_s"] += per_id_self[k]
            by = entry["by_binder"]
            by[binder] = by.get(binder, 0) + per_id_calls[k]
        # a cell_sign span without a sign_at child answered from the memo
        sign_at_ids = {k for k, (nm, _) in enumerate(self.span_names) if nm == "realalg.sign_at"}
        cell_sign_ids = {k for k, (nm, _) in enumerate(self.span_names) if nm == "lifting.cell_sign"}
        misses = 0
        for i in range(n):
            if names[i] in sign_at_ids:
                p = parents[i]
                if p >= 0 and names[p] in cell_sign_ids:
                    misses += 1
        counters = dict(self.counters)
        counters["cell_sign_misses"] = misses
        return funcs, counters

    def write(self, path):
        """All spans as gzip'd TSV: id, name, binding, start, end, parent, item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tbinding\tstart\tend\tparent\titem\n")
            labels = ["%s\t%s" % pair for pair in self.span_names]
            items = self.item_labels + ["-"]  # index -1: outside any item
            for i in range(len(self.names)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % (
                    i, labels[self.names[i]], self.starts[i], self.ends[i],
                    self.parents[i], items[self.items[i]]))


# -- boundary counters, recorded where the work happens ----------------------


def _roots_above(tracer, args, result):
    p, s, v = args[0], args[1], args[2]
    if any(not s.coordinate(n).is_rational for n in p.variables() if n != v):
        tracer.count("roots_above_algebraic_base")
    if isinstance(result, list):
        tracer.count("roots_above_roots", len(result))


def _sign_at(tracer, args, result):
    if result == 0:
        tracer.count("sign_at_zero")


def _lift_stack(tracer, args, result):
    if len(result) == 1 and result[0].cylinder:
        tracer.count("lift_stack_cylinder")


def _s_polynomial(tracer, args, result):
    tracer._last_spoly = result


def _normal_form(tracer, args, result):
    # buchberger reduces each S-polynomial right after forming it
    if args[0] is tracer._last_spoly:
        tracer._last_spoly = None
        tracer.count("spairs_reduced")
        if result.is_zero():
            tracer.count("spairs_zero")


def _buchberger(tracer, args, result):
    tracer.count("basis_size", len(result))


def _plan_projection(tracer, args, result):
    tracer.count("projection_polys_total",
                 sum(len(lv.projection_polys) for lv in result.levels))
    tracer.count("projection_level1_polys", len(result.level(1).projection_polys))
    tracer.count("projection_ell", result.ell)


_RESULT_HOOKS = {
    "realalg.roots_above": _roots_above,
    "realalg.sign_at": _sign_at,
    "lifting.lift_stack": _lift_stack,
    "groebner.s_polynomial": _s_polynomial,
    "groebner.normal_form": _normal_form,
    "groebner.buchberger": _buchberger,
    "projection.plan_projection": _plan_projection,
}
