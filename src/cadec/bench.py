"""Benchmark harness: the nested quantifier-alternation formula family,
dominant-term bound evaluation, and sign-invariant vs EC-reduced experiments.
"""

from __future__ import annotations

import csv
import time

from .polynomial import Polynomial, VarOrder, _dense, integer_normalized, content_primitive
from .formula import And, Atom, Formula, Not, Or, flatten_conjuncts
from .projection import CapExceededError, plan_projection
from .lifting import WellOrientednessError, build_cad, cell_count, truth_assign

DEFAULT_CELL_CAP = 1_000_000
DEFAULT_PROJECTION_CAP = 10_000

DH_FORMS = ("nested", "prenex", "negated", "cnf_L", "product_L")


# ---------------------------------------------------------------------------
# the doubly-exponential family


def dh_order(depth):
    """Variable ordering for the depth-k instance: free x0, y0 lowest, then
    one z, x, y triple per nesting level (innermost highest); n = 2 + 3k."""
    names = ["x0", "y0"]
    for i in range(1, depth + 1):
        names += ["z%d" % i, "x%d" % i, "y%d" % i]
    return VarOrder(names)


def _default_base_map():
    t = VarOrder(["t"])
    return Polynomial.variable(t, "t") ** 2


def _iterate_map(f, g, times):
    """f(f(...f(g)...)), the univariate f applied times times to the
    polynomial g; f's coefficients are read once, as numbers."""
    tvar = next(iter(f.variables()))
    coeffs = [c if type(c) is int else c.constant_value() for c in _dense(f, tvar)]
    for _ in range(times):
        value = Polynomial.zero(g.order)
        for i, c in enumerate(coeffs):
            if c:
                value = value + g ** i * c
        g = value
    return g


def _eq(p):
    return Atom(p, "=")


def l_block(i, order, form="disjunctive"):
    """The linking block between levels i-1 and i, in one of three forms:
    disjunctive (two conjunctions), cnf (four binary disjunctions), or
    product (four product-equalities, which are imprimitive)."""
    v = lambda name: Polynomial.variable(order, name)
    lo = "" if i == 1 else str(i - 1)
    y_prev, x_prev = v("y%s" % (lo or "0")), v("x%s" % (lo or "0"))
    y_i, x_i, z_i = v("y%d" % i), v("x%d" % i), v("z%d" % i)
    a = y_prev - y_i
    b = y_i - z_i
    c = x_i - z_i
    d = x_prev - x_i
    if form == "disjunctive":
        return Or([And([_eq(a), _eq(c)]), And([_eq(b), _eq(d)])])
    if form == "cnf":
        return And([
            Or([_eq(a), _eq(b)]),
            Or([_eq(a), _eq(d)]),
            Or([_eq(c), _eq(b)]),
            Or([_eq(c), _eq(d)]),
        ])
    if form == "product":
        return And([_eq(a * b), _eq(a * d), _eq(c * b), _eq(c * d)])
    raise ValueError("unknown L form %r" % form)


def generate_dh(depth, f=None, form="prenex"):
    """The depth-k member of the doubly-exponential family.

    Free variables are exactly x0, y0; each level contributes a quantifier
    block (exists z, forall x, forall y).  The depth-k instance is
    equivalent to x0 = f^(2^k)(y0).

    forms: 'nested' (chained implications), 'prenex' (single disjunction),
    'negated' (interchanged quantifiers, conjunction of the blocks with the
    negated final equation), 'cnf_L'/'product_L' (negated form with the
    linking blocks rewritten as binary disjunctions / product-equalities).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if form not in DH_FORMS:
        raise ValueError("unknown form %r (choose from %s)" % (form, ", ".join(DH_FORMS)))
    if f is None:
        f = _default_base_map()
    if f.is_constant() or len(f.variables()) != 1:
        raise ValueError("base map must be a non-constant univariate polynomial")
    order = dh_order(depth)
    prefix = []
    for i in range(1, depth + 1):
        prefix += [("exists", "z%d" % i), ("forall", "x%d" % i), ("forall", "y%d" % i)]
    prefix = tuple(prefix)

    x_k = Polynomial.variable(order, "x%d" % depth)
    final = _eq(x_k - _iterate_map(f, Polynomial.variable(order, "y%d" % depth), 1))

    if form == "nested":
        matrix = final
        for i in range(depth, 0, -1):
            matrix = Or([Not(l_block(i, order)), matrix])
        return Formula(matrix, order, prefix)
    if form == "prenex":
        matrix = Or([Not(l_block(i, order)) for i in range(1, depth + 1)] + [final])
        return Formula(matrix, order, prefix)

    flip = {"exists": "forall", "forall": "exists"}
    neg_prefix = tuple((flip[q], vname) for q, vname in prefix)
    l_form = {"negated": "disjunctive", "cnf_L": "cnf", "product_L": "product"}[form]
    matrix = And([l_block(i, order, l_form) for i in range(1, depth + 1)]
                 + [final.negated()])
    return Formula(matrix, order, neg_prefix)


def dh_target(depth, f=None):
    """x0 - f^(2^depth)(y0), the equation the depth-k instance defines."""
    if f is None:
        f = _default_base_map()
    order = dh_order(depth)
    return (Polynomial.variable(order, "x0")
            - _iterate_map(f, Polynomial.variable(order, "y0"), 2 ** depth))


def dh_equivalence_sentences(depth, f=None):
    """Two closed sentences whose joint truth states that the depth-k
    instance is equivalent to x0 = f^(2^k)(y0):

      S1: forall x0, y0: instance implies the target equation,
      S2: forall x0, y0: the target equation implies the instance.
    """
    inst = generate_dh(depth, f, form="prenex")
    target = _eq(dh_target(depth, f))
    outer = (("forall", "x0"), ("forall", "y0"))
    neg = inst.negated()
    s1 = Formula(Or([neg.matrix, target]), inst.order, outer + neg.prefix)
    s2 = Formula(Or([target.negated(), inst.matrix]), inst.order, outer + inst.prefix)
    return s1, s2


# ---------------------------------------------------------------------------
# bounds


def bound_eq1(n, m, d):
    """Dominant term of the sign-invariant cell-count bound:
    (2d)^(2^n - 1) * m^(2^n - 1) * 2^(2^(n-1) - 1), exactly."""
    if n < 1 or m < 1 or d < 1:
        raise ValueError("n, m, d must all be >= 1")
    e = 2 ** n - 1
    return (2 * d) ** e * m ** e * 2 ** (2 ** (n - 1) - 1)


def ec_bound_note(n, m, d, ell):
    """Indicative EC-reduced dominant-term forms with the unspecified
    exponent constants set to 1 (not certified bounds)."""
    if ell < 1:
        return "no designated ECs; sign-invariant bound applies"
    v1 = (2 * d) ** (2 ** n) * (2 * m) ** (2 ** (n - ell))
    v2 = (ell * d) ** (2 ** (n - ell)) * (2 * m) ** (2 ** (n - ell))
    return ("(2d)^(2^n)*(2m)^(2^(n-ell)) = %d; "
            "(ell*d)^(2^(n-ell))*(2m)^(2^(n-ell)) = %d "
            "(indicative, not certified)" % (v1, v2))


# ---------------------------------------------------------------------------
# experiments


MODES = ("sign-invariant", "ec-reduced-resultant", "ec-reduced-gb")
_MODE_SHORT = {"sign-invariant": "si",
               "ec-reduced-resultant": "ec-res",
               "ec-reduced-gb": "ec-gb"}
# (ec_policy, ec_mode) of plan_projection for each mode, by its short name
MODE_POLICY = {"si": ("none", "resultant"),
               "ec-res": ("auto", "resultant"),
               "ec-gb": ("auto", "groebner")}
_MODE_FROM_SHORT = {v: k for k, v in _MODE_SHORT.items()}


class BoundReport:
    """Observed counts and bound terms for one formula under one mode."""

    __slots__ = ("id", "mode", "n", "m", "d", "ell", "eq1_value",
                 "ec_note", "observed", "D_obs", "M_obs", "time_ms",
                 "status", "within_eq1")

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw.get(slot))

    def csv_row(self):
        obs = self.observed or {}
        per_level = ";".join(str(c) for c in obs.get("per_level", []))
        return [self.id, _MODE_SHORT.get(self.mode, self.mode), self.n, self.m,
                self.d, self.ell if self.ell is not None else "",
                obs.get("total", ""), per_level,
                self.D_obs if self.D_obs is not None else "",
                self.M_obs if self.M_obs is not None else "",
                self.time_ms, self.status]


CSV_COLUMNS = ["id", "mode", "n", "m", "d", "ell", "cells_total",
               "cells_per_level", "D_obs", "M_obs", "time_ms", "status"]


def formula_stats(f):
    polys = {integer_normalized(p) for p in f.polynomials()
             if not p.is_zero() and not p.is_constant()}
    m = len(polys)
    d = max((max(p.degree_in(v) for v in p.variables()) for p in polys), default=1)
    return max(m, 1), max(d, 1)


def run_one(fid, f, mode, cell_cap=DEFAULT_CELL_CAP,
            projection_cap=DEFAULT_PROJECTION_CAP):
    """One experiment row; failures are reported in status, never raised.

    mode is a long name (MODES) or its short name (MODE_POLICY); the row
    carries the long name."""
    mode = _MODE_FROM_SHORT.get(mode, mode)
    if mode not in _MODE_SHORT:
        raise ValueError("unknown mode %r" % mode)
    order = f.order
    n = len(order)
    m, d = formula_stats(f)
    report = BoundReport(id=fid, mode=mode, n=n, m=m, d=d,
                         eq1_value=bound_eq1(n, m, d), status="ok")
    policy, ec_mode = MODE_POLICY[_MODE_SHORT[mode]]
    start = time.perf_counter()
    try:
        plan = plan_projection(f, order, policy, ec_mode=ec_mode,
                               projection_cap=projection_cap)
        report.ell = plan.ell
        level1 = plan.level(1).projection_polys
        report.M_obs = len(level1)
        report.D_obs = max((p.degree_in(order.names[0]) for p in level1), default=0)
        tree = build_cad(plan, cell_cap=cell_cap)
        truth_assign(tree, f)
        report.observed = cell_count(tree)
        report.within_eq1 = (plan.ell == 0
                             and report.observed["total"] <= report.eq1_value)
    except WellOrientednessError:
        report.status = "well-orientedness-error"
    except CapExceededError:
        report.status = "cap-exceeded"
    report.time_ms = round((time.perf_counter() - start) * 1000, 2)
    report.ec_note = ec_bound_note(n, m, d, report.ell or 0)
    return report


def run_experiment(corpus, modes=MODES, cell_cap=DEFAULT_CELL_CAP,
                   projection_cap=DEFAULT_PROJECTION_CAP):
    """Run every corpus formula under every mode.

    corpus: iterable of (id, Formula); returns a list of BoundReport in
    deterministic (corpus, mode) order."""
    reports = []
    for fid, f in corpus:
        for mode in modes:
            reports.append(run_one(fid, f, mode, cell_cap, projection_cap))
    return reports


def write_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(r.csv_row())


# ---------------------------------------------------------------------------
# primitivity reporting


def primitivity_report(f):
    """Per EC candidate: polynomial, main variable, primitivity, content.

    Scans the equality atoms among the top-level conjuncts of the matrix
    (the product-equality family members are the interesting imprimitive
    cases)."""
    matrix = f.matrix if isinstance(f, Formula) else f
    records = []
    for conj in flatten_conjuncts(matrix):
        if not (isinstance(conj, Atom) and conj.rel == "="):
            continue
        p = conj.poly
        if p.is_constant():
            continue
        v = p.main_variable()
        cont, _ = content_primitive(p, v)
        records.append({
            "poly": integer_normalized(p),
            "main_var": v,
            "primitive": cont.is_constant(),
            "content": cont,
        })
    return records
