"""Projection phase: McCallum's operator, the reduced operator under an
equational constraint, EC propagation, and per-level projection plans."""

from __future__ import annotations

import json

from .polynomial import (
    DegenerateResultantError,
    PolynomialError,
    VarOrder,
    _dense,
    content_primitive,
    discriminant,
    integer_normalized,
    is_primitive,
    resultant,
    squarefree_basis,
    squarefree_part,
)
from .groebner import MonomialOrder, buchberger, elimination_ideal
from .formula import identify_ecs


class PrimitivityError(PolynomialError):
    """An imprimitive polynomial was designated as an equational constraint.

    The reduced-projection theory is developed only for primitive ECs; we
    detect and refuse rather than attempt the unsupported case."""


class CapExceededError(Exception):
    """A size cap was hit: lifting.CELL_CAP cells in a CAD tree, or
    PROJECTION_CAP polynomials in a projection set."""


# The most polynomials one level's projection set may hold.
PROJECTION_CAP = 10_000


def _split(ps, v, order):
    """Partition by main variable: (main var == v, main var strictly lower)."""
    idx = order.index(v)
    mains, lower = set(), set()
    for p in ps:
        if p.is_zero() or p.is_constant():
            continue
        mv = p.main_variable()
        if p.order.index(mv) == idx:
            mains.add(p)
        elif p.order.index(mv) < idx:
            lower.add(p)
        else:
            raise PolynomialError(
                "%s has main variable above %s" % (p, v))
    return mains, lower


def _add_coeffs_and_discriminant(out, p, v):
    """Add to out p's non-constant coefficients in v and, if p has degree 2
    or more in v, its discriminant unless that is constant."""
    for c in _dense(p, v):
        if type(c) is not int and not c.is_constant():  # int entries are constants
            out.add(integer_normalized(c))
    if p.degree_in(v) >= 2:
        d = discriminant(p, v)
        if not d.is_constant():
            out.add(integer_normalized(d))


def mccallum_project(ps, v):
    """McCallum's full projection of ps with respect to v.

    Contents, all non-constant coefficients, discriminants, and pairwise
    resultants of the squarefree basis of primitive parts; polynomials with
    lower main variable pass through.  Constants are dropped and everything
    is canonically normalized.
    """
    ps = set(ps)
    if not ps:
        raise PolynomialError("mccallum_project needs a non-empty set")
    order = next(iter(ps)).order
    mains, lower = _split(ps, v, order)
    out = {integer_normalized(p) for p in lower}
    prims = []
    for p in mains:
        cont, prim = content_primitive(p, v)
        if not cont.is_constant():
            out.add(cont)  # normalized by content_primitive
        prims.append(prim)
    basis = sorted(squarefree_basis(prims, v), key=str)
    for b in basis:
        _add_coeffs_and_discriminant(out, b, v)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            try:
                r = resultant(basis[i], basis[j], v)
            except DegenerateResultantError:
                continue
            if not r.is_constant():
                out.add(integer_normalized(r))
    return out


def reduced_project(ec, others, v):
    """Reduced projection under the designated EC: coefficients of the EC,
    its discriminant, and its resultants against the other polynomials at
    this level.  Discriminants and cross-resultants among the others are
    excluded; that is the reduction."""
    if ec.is_zero() or ec.degree_in(v) < 1:
        raise DegenerateResultantError("EC must have main variable %s" % v)
    if not is_primitive(ec, v):
        cont, _ = content_primitive(ec, v)
        raise PrimitivityError(
            "imprimitive equational constraint %s (content %s in %s); "
            "reduced projection is only valid for primitive ECs" % (ec, cont, v))
    order = ec.order
    mains, lower = _split(set(others), v, order)
    out = {integer_normalized(p) for p in lower}
    ec = squarefree_part(ec, v)  # normalized
    _add_coeffs_and_discriminant(out, ec, v)
    for g in sorted(mains, key=str):
        if integer_normalized(g) == ec:
            continue
        r = resultant(ec, g, v)
        if not r.is_constant():
            out.add(integer_normalized(r))
    return out


def propagate_ecs(ecs, v, mode):
    """Candidate ECs in lower variables derived from the ECs at level v.

    mode 'resultant': pairwise resultants with respect to v.
    mode 'groebner': lex Groebner basis with v highest, then the elimination
    ideal onto the remaining variables.
    A singleton input yields no candidates (nothing to propagate).
    """
    ecs = sorted(set(ecs), key=str)
    for p in ecs:
        if p.degree_in(v) < 1:
            raise PolynomialError("EC %s does not have main variable %s" % (p, v))
    if len(ecs) < 2:
        return set()
    order = ecs[0].order
    out = set()
    if mode == "resultant":
        for i in range(len(ecs)):
            for j in range(i + 1, len(ecs)):
                r = resultant(ecs[i], ecs[j], v)
                if r.is_constant():
                    continue
                out.add(squarefree_part(r, r.main_variable()))
    elif mode == "groebner":
        idx = order.index(v)
        sub = VarOrder(order.names[:idx + 1])
        gens = [p.restricted(sub) for p in ecs]
        gb = buchberger(gens, MonomialOrder("lex", sub))
        elim = elimination_ideal(gb, set(sub.names[:-1]))
        for g in elim:
            g = g.restricted(order)
            if g.is_constant():
                continue
            out.add(squarefree_part(g, g.main_variable()))
    else:
        raise PolynomialError("unknown propagation mode %r" % mode)
    return out


class ECDesignation:
    """A designated equational constraint at a projection level."""

    __slots__ = ("level", "poly", "origin")

    def __init__(self, level, poly, origin):
        if origin not in ("input", "resultant-derived", "gb-derived"):
            raise PolynomialError("unknown EC origin %r" % origin)
        self.level = level
        self.poly = poly
        self.origin = origin

    def __repr__(self):
        return "ECDesignation(level=%d, %s, %s)" % (self.level, self.poly, self.origin)


class PlanLevel:
    __slots__ = ("level", "var", "projection_polys", "lifting_polys", "ec", "fallback")

    def __init__(self, level, var, projection_polys, lifting_polys, ec, fallback):
        self.level = level
        self.var = var
        self.projection_polys = frozenset(projection_polys)
        self.lifting_polys = frozenset(lifting_polys)
        self.ec = ec
        self.fallback = fallback


class ProjectionPlan:
    """Per-level projection/lifting polynomial sets with EC designations.

    levels[k-1] describes level k (variable order.names[k-1]); ell is the
    number of levels carrying a designated EC."""

    __slots__ = ("order", "levels")

    def __init__(self, order, levels):
        self.order = order
        self.levels = levels

    def level(self, k):
        return self.levels[k - 1]

    @property
    def ell(self):
        return sum(1 for lv in self.levels if lv.ec is not None)

    def to_json(self):
        data = {
            "order": list(self.order.names),
            "ell": self.ell,
            "levels": [],
        }
        for lv in self.levels:
            entry = {
                "level": lv.level,
                "variable": lv.var,
                "projection": sorted(str(p) for p in lv.projection_polys),
                "lifting": sorted(str(p) for p in lv.lifting_polys),
                "fallback": lv.fallback,
            }
            if lv.ec is not None:
                entry["ec"] = {"poly": str(lv.ec.poly), "origin": lv.ec.origin}
            data["levels"].append(entry)
        return json.dumps(data, indent=2)


def plan_projection(f, order, ec_policy="auto", ec_mode="groebner"):
    """Build the per-level projection plan for a formula's polynomials.

    ec_policy: 'none' for a pure sign-invariant plan; 'auto' to designate
    syntactically identified ECs and propagate them downward; or an explicit
    list of polynomials to designate (imprimitive entries are a hard error).
    A projection set of more than PROJECTION_CAP polynomials raises
    CapExceededError.
    """
    inputs = {integer_normalized(p) for p in f.polynomials()
              if not p.is_zero() and not p.is_constant()}
    n = len(order)

    pool = {k: [] for k in range(1, n + 1)}          # primitive candidates
    rejected = {k: [] for k in range(1, n + 1)}      # imprimitive candidates
    if ec_policy == "none":
        pass
    elif ec_policy == "auto":
        for p in identify_ecs(f):
            v = p.main_variable()
            k = order.level(v)
            if is_primitive(p, v):
                pool[k].append(ECDesignation(k, squarefree_part(p, v), "input"))
            else:
                rejected[k].append(p)
    elif isinstance(ec_policy, (list, tuple, set)):
        for p in ec_policy:
            p = integer_normalized(p)
            v = p.main_variable()
            k = order.level(v)
            if not is_primitive(p, v):
                cont, _ = content_primitive(p, v)
                raise PrimitivityError(
                    "designated EC %s is imprimitive (content %s in %s)"
                    % (p, cont, v))
            pool[k].append(ECDesignation(k, squarefree_part(p, v), "input"))
    else:
        raise PolynomialError("unknown ec_policy %r" % (ec_policy,))

    levels = [None] * n
    current = set(inputs)
    origin_for_mode = {"resultant": "resultant-derived", "groebner": "gb-derived"}
    for k in range(n, 0, -1):
        v = order.names[k - 1]
        mains, lower = _split(current, v, order)
        candidates = pool[k]
        fallback = bool(rejected[k]) and not candidates
        ec = None
        if candidates:
            ec = min(candidates, key=lambda c: (
                c.poly.degree_in(v), c.poly.total_degree(), str(c.poly)))
            mains = set(mains) | {ec.poly}
        # propagate from all primitive ECs known at this level
        if ec_policy == "auto" and len(candidates) >= 2:
            derived = propagate_ecs({c.poly for c in candidates}, v, ec_mode)
            for cand in derived:
                mv = cand.main_variable()
                j = order.level(mv)
                if any(c.poly == cand for c in pool[j]):
                    continue
                if is_primitive(cand, mv):
                    pool[j].append(ECDesignation(j, cand, origin_for_mode[ec_mode]))
                else:
                    rejected[j].append(cand)

        # members of current and ec.poly are normalized where they are made
        if ec is not None:
            lifting = {ec.poly}
            out = reduced_project(ec.poly, (mains - {ec.poly}) | lower, v) \
                if k > 1 else set()
        else:
            lifting = set(mains)
            out = mccallum_project(mains | lower, v) if k > 1 and (mains or lower) \
                else set()
        if len(out) > PROJECTION_CAP:
            raise CapExceededError(
                "projection set at level %d has %d polynomials (cap %d)"
                % (k - 1, len(out), PROJECTION_CAP))
        levels[k - 1] = PlanLevel(k, v, mains, lifting, ec, fallback)
        current = out

    return ProjectionPlan(order, levels)
