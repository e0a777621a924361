"""The benchmark's workloads: inputs, items, passes and output checks.

An item is one request a user waits for: a decision, a projection plan, a
CAD, a Groebner basis, or a point-location query.  Every item runs under a
wall-clock budget (SIGALRM, single thread) and ends with a status:

  ok        finished
  refused   raised WellOrientednessError (the program declines the input)
  timeout   ran past its budget
  error     raised any other exception

An item passes when its status and output equal the record made at the
seed commit (expected.json).  Stall probes are known defects: they time out
at the seed and are reported apart from the measured items.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
from fractions import Fraction
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent

# (ec_policy, ec_mode) for the three experiment modes of the paper
MODES = {
    "si": ("none", "resultant"),
    "ec-res": ("auto", "resultant"),
    "ec-gb": ("auto", "groebner"),
}

# Per-item wall-clock budgets.  Measured items get a budget that only keeps
# a run under its time limit.  A stall probe's budget decides when it counts
# as stalled: far above what the same request takes when it completes (a
# depth-1 plan 0.1 s; the slowest corpus CAD 0.8-1.4 s).
ITEM_BUDGET_S = {"dh1-decide": 150.0, "plan-dh": 60.0, "gb-elim": 60.0, "ec-corpus": 60.0}
PROBE_BUDGET_S = {"plan-dh": 5.0, "ec-corpus": 5.0}

QUERIES_PER_CAD = 25     # 42 CADs -> 1,050 queries, so 10 lie beyond p99
QUERY_BOX = 3            # query coordinates are rationals in [-3, 3]
QUERY_DENOMINATOR = 1000


class ItemTimeout(BaseException):
    """Raised by the alarm when an item exceeds its budget.  A BaseException,
    so no handler inside the program can swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


class Outcome:
    """What one item did.  `ok` is set by the checks."""

    __slots__ = ("id", "status", "seconds", "value", "detail", "point", "ok", "slowdown")

    def __init__(self, item_id, status, seconds, value=None, detail=""):
        self.id = item_id
        self.status = status
        self.seconds = seconds
        self.value = value
        self.detail = detail
        self.point = None
        self.ok = None
        self.slowdown = None  # host slowdown sampled while it ran


def run_budgeted(item_id, fn, budget_s):
    """fn() under a wall-clock budget; the time covers fn alone, without the
    host-speed samples taken while it ran."""
    from cadec.lifting import WellOrientednessError

    previous = signal.signal(signal.SIGALRM, _alarm)
    status, value, detail = "ok", None, ""
    timer = hostspeed.Timer()
    try:
        with timer:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                value = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        status = "timeout"
    except WellOrientednessError as exc:
        status, detail = "refused", str(exc)
    except Exception as exc:  # any other failure of the program is a failed item
        status, detail = "error", repr(exc)
    finally:
        signal.signal(signal.SIGALRM, previous)
    out = Outcome(item_id, status, timer.seconds, value, detail)
    out.slowdown = timer.slowdown
    return out


def load_inputs():
    with open(HERE / "inputs.json") as fh:
        return json.load(fh)


def load_expected():
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# item kinds: prepare (parse, untimed) and call (timed)


class Item:
    """A parsed request.  call() is the timed work; summary() turns its
    value into the comparable record kept in expected.json."""

    def __init__(self, spec):
        from cadec import VarOrder, parse_formula, parse_poly

        self.spec = spec
        self.id = spec["id"]
        self.kind = spec["kind"]
        self.order = VarOrder(spec["order"])
        if self.kind == "groebner":
            self.gens = [parse_poly(t, self.order) for t in spec["gens"]]
        else:
            self.formula = parse_formula(spec["formula"], self.order)

    def call(self):
        from cadec import formula, groebner, lifting, projection

        kind = self.kind
        if kind == "decide":
            with _CaptureTrees() as trees:
                truth = formula.decide(self.formula)
            return truth, trees
        if kind in ("plan", "cad"):
            policy, ec_mode = MODES[self.spec["mode"]]
            plan = projection.plan_projection(self.formula, self.order, policy,
                                              ec_mode=ec_mode)
            if kind == "plan":
                return plan
            tree = lifting.build_cad(plan)
            lifting.truth_assign(tree, self.formula)
            return tree
        if kind == "groebner":
            morder = groebner.MonomialOrder(self.spec["monomial_order"], self.order)
            basis = groebner.buchberger(self.gens, morder)
            dim = groebner.dimension(basis)
            keep = self.spec.get("keep")
            elim = (groebner.elimination_ideal(basis, set(self.order.names[:keep]))
                    if keep else None)
            return basis, dim, elim
        raise ValueError("unknown item kind %r" % kind)

    def summary(self, value):
        from cadec.lifting import cell_count

        kind = self.kind
        if kind == "decide":
            truth, trees = value
            return {"truth": truth,
                    "per_level": [cell_count(t)["per_level"] for t in trees]}
        if kind == "plan":
            return {"levels": [len(lv.projection_polys) for lv in value.levels],
                    "ell": value.ell,
                    "sha256": hashlib.sha256(value.to_json().encode()).hexdigest()}
        if kind == "cad":
            return {"per_level": cell_count(value)["per_level"], "ell": value.plan.ell}
        if kind == "groebner":
            basis, dim, elim = value
            return {"basis": [str(g) for g in basis],
                    "dimension": dim,
                    "elimination": None if elim is None else sorted(str(g) for g in elim)}
        raise ValueError("unknown item kind %r" % kind)

    def generators_reduce(self, value):
        """Every input generator has normal form 0 modulo a computed basis."""
        if self.kind != "groebner":
            return True
        from cadec.groebner import normal_form

        basis = value[0]
        return all(normal_form(g, basis).is_zero() for g in self.gens)


class _CaptureTrees:
    """Keeps the trees that build_cad returns inside decide(), which returns
    only the truth value, so their cells can be counted afterwards."""

    def __enter__(self):
        from cadec import lifting

        self.trees = []
        self._orig = lifting.build_cad
        orig, trees = self._orig, self.trees

        def build_cad(*args, **kwargs):
            tree = orig(*args, **kwargs)
            trees.append(tree)
            return tree

        lifting.build_cad = build_cad
        return self.trees

    def __exit__(self, *exc):
        from cadec import lifting

        lifting.build_cad = self._orig
        return False


def cells_total(summary):
    """Top-level cells of an item's CAD(s), or 0 if it built none."""
    levels = summary.get("per_level")
    if not levels:
        return 0
    if isinstance(levels[0], list):
        return sum(pl[-1] for pl in levels)
    return levels[-1]


# ---------------------------------------------------------------------------
# a workload instance: set-up, passes, checks


class Workload:
    def __init__(self, name, seed, inputs, expected):
        self.name = name
        self.seed = seed
        spec = inputs[name]
        self.expected = expected[name]
        self.budget = ITEM_BUDGET_S[name]
        self.probe_budget = PROBE_BUDGET_S.get(name)
        rng = random.Random(seed)
        self.items = [Item(s) for s in spec["items"]]
        rng.shuffle(self.items)
        self.probes = [Item(s) for s in spec.get("probes", [])]
        self.warmup_items = [Item(s) for s in spec.get("warmup", [])]
        self.queries = self._make_queries(rng) if name == "ec-corpus" else []

    def _make_queries(self, rng):
        """Seeded rational points, QUERIES_PER_CAD for each CAD expected to
        build, in seeded order."""
        out = []
        for item in self.items:
            if item.kind != "cad" or self.expected[item.id]["status"] != "ok":
                continue
            n = len(item.order)
            for _ in range(QUERIES_PER_CAD):
                point = tuple(Fraction(rng.randint(-QUERY_BOX * QUERY_DENOMINATOR,
                                                   QUERY_BOX * QUERY_DENOMINATOR),
                                       QUERY_DENOMINATOR) for _ in range(n))
                out.append((item.id, point))
        rng.shuffle(out)
        return out

    def warm_up(self):
        """Run the small warm-up items and a few queries on their CADs."""
        from cadec import lifting

        for item in self.warmup_items:
            value = item.call()
            if item.kind == "cad":
                n = len(item.order)
                for k in range(5):
                    lifting.locate(value, [Fraction(k - 2, 3)] * n)

    def run_pass(self, tracer=None, read=True):
        """One pass of the fixed work: every item in seeded order, then (in
        ec-corpus, if `read`) every query against the CADs this pass built.
        Returns a PassResult; nothing in it has been checked yet."""
        from cadec import lifting

        result = PassResult()
        trees = {}
        for item in self.items:
            if tracer is not None:
                tracer.begin_item(item.id)
            out = run_budgeted(item.id, item.call, self.budget)
            result.items.append(out)
            if out.status == "ok" and item.kind == "cad":
                trees[item.id] = out.value
        for k, (item_id, point) in enumerate(self.queries if read else ()):
            tree = trees.get(item_id)
            if tree is None:
                out = Outcome(item_id, "error", 0.0, detail="no CAD")
            else:
                if tracer is not None:
                    tracer.begin_item("query-%d" % k)
                out = run_budgeted(item_id, lambda: lifting.locate(tree, point),
                                   self.budget)
            out.point = point
            result.queries.append(out)
        return result

    def run_probes(self):
        return [run_budgeted(p.id, p.call, self.probe_budget) for p in self.probes]

    # -- checks (outside every timed region) --------------------------------

    def check_pass(self, result):
        """Compare every output with expected.json and every query answer
        with exact evaluation of the formula at the query point.  Marks
        each Outcome's .ok and returns the number that failed."""
        from cadec.formula import evaluate_at_rationals

        by_id = {item.id: item for item in self.items}
        failed = 0
        summaries = {}
        for out in result.items:
            want = self.expected[out.id]
            got = {"status": out.status}
            if out.status == "ok":
                got.update(by_id[out.id].summary(out.value))
                summaries[out.id] = got
            out.ok = got == want and (out.status != "ok"
                                      or by_id[out.id].generators_reduce(out.value))
            if not out.ok:
                failed += 1
                out.detail = out.detail or "expected %s, got %s" % (want, got)
        for out in result.queries:
            if out.status == "ok":
                item = by_id[out.id]
                point = dict(zip(item.order.names, out.point))
                want = evaluate_at_rationals(item.formula, point, item.order)
                out.ok = out.value.truth == want
            else:
                out.ok = False
            if not out.ok:
                failed += 1
                out.detail = "%s at point %s" % (out.detail or "wrong cell", out.point)
        for out in result.items + result.queries:
            out.value = None  # release trees and bases before the next pass
        result.summaries = summaries
        return failed

    def check_probes(self, outcomes):
        """A probe passes once it completes without error; at the seed each
        one times out."""
        failed = 0
        for out in outcomes:
            out.ok = out.status == "ok"
            failed += not out.ok
        return failed


class PassResult:
    __slots__ = ("items", "queries", "summaries")

    def __init__(self):
        self.items = []
        self.queries = []
        self.summaries = {}

    @property
    def work_s(self):
        """Time of the fixed work, excluding the read phase."""
        return sum(o.seconds for o in self.items)

    @property
    def work_ref_s(self):
        """work_s, each item rescaled to the reference host speed."""
        return sum(o.seconds / o.slowdown for o in self.items)

    @property
    def query_s(self):
        return [o.seconds for o in self.queries if o.status == "ok"]

    def cells_total(self):
        return sum(cells_total(s) for s in self.summaries.values())
