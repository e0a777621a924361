import os
import subprocess
import sys
from pathlib import Path

import pytest

from cadec.bench import generate_dh
from cadec.polynomial import (
    VarOrder, content_primitive, integer_normalized, parse_poly, squarefree_basis,
)
from cadec.formula import parse_formula
from cadec.projection import (
    CapExceededError, PrimitivityError, mccallum_project, plan_projection,
    propagate_ecs, reduced_project,
)
from oracles import sylvester_resultant

O2 = VarOrder(["y", "x"])


def P(text, order=O2):
    return parse_poly(text, order)


def N(text, order=O2):
    return integer_normalized(parse_poly(text, order))


def test_mccallum_circle():
    assert mccallum_project({P("x^2 + y^2 - 1")}, "x") == {N("y^2 - 1")}


def test_mccallum_circle_and_line():
    got = mccallum_project({P("x^2 + y^2 - 1"), P("x - y")}, "x")
    assert got == {N("y^2 - 1"), N("2*y^2 - 1"), N("y")}


def test_mccallum_passthrough_and_content():
    got = mccallum_project({P("(y - 1)*x + (y - 1)"), P("y + 2")}, "x")
    assert N("y - 1") in got and N("y + 2") in got


def test_reduced_project_example():
    got = reduced_project(P("x^2 + y^2 - 1"), {P("x - y")}, "x")
    assert got == {N("y^2 - 1"), N("2*y^2 - 1")}


def test_reduced_project_vacuous():
    assert (reduced_project(P("x^2 + y^2 - 1"), set(), "x")
            == mccallum_project({P("x^2 + y^2 - 1")}, "x"))


def test_reduced_project_is_subset_of_mccallum():
    ec = P("x^2 + y^2 - 1")
    others = {P("x - y"), P("x*y - 1")}
    red = reduced_project(ec, others, "x")
    full = mccallum_project({ec} | others, "x")
    assert red <= full


def test_reduced_project_imprimitive_rejected():
    with pytest.raises(PrimitivityError):
        reduced_project(P("(y - 1)*x + (y - 1)"), set(), "x")


def test_propagate_resultant():
    o = VarOrder(["y", "x", "z"])
    got = propagate_ecs({parse_poly("z - x*y", o), parse_poly("z - x - y", o)},
                        "z", "resultant")
    assert got == {integer_normalized(parse_poly("x*y - x - y", o))}


def test_propagate_groebner_degree_collapse():
    o = VarOrder(["y", "x", "z"])
    ecs = {parse_poly("z^2 - x", o), parse_poly("z^2 - y", o)}
    gb = propagate_ecs(ecs, "z", "groebner")
    res = propagate_ecs(ecs, "z", "resultant")
    assert integer_normalized(parse_poly("x - y", o)) in gb
    assert max(p.degree_in("x") for p in gb) == 1
    # resultant route only sees the squared polynomial before normalization
    assert all(p.degree_in("x") <= 1 for p in res)  # post-normalization
    assert propagate_ecs({parse_poly("z - x", o)}, "z", "resultant") == set()


def test_plan_auto_circle_line():
    f = parse_formula("x^2 + y^2 - 1 = 0 and x - y = 0", O2)
    plan = plan_projection(f, O2, "auto")
    assert plan.ell == 2
    assert plan.level(2).ec is not None
    assert plan.level(1).ec is not None
    assert plan.level(1).ec.origin in ("resultant-derived", "gb-derived")


def test_plan_no_ecs():
    f = parse_formula("x^2 + y^2 - 1 > 0", O2)
    plan = plan_projection(f, O2, "auto")
    assert plan.ell == 0
    assert all(lvl.ec is None for lvl in plan.levels)


def test_plan_designated_imprimitive_hard_error():
    f = parse_formula("(y - 1)*x + (y - 1) = 0", O2)
    with pytest.raises(PrimitivityError):
        plan_projection(f, O2, [P("(y - 1)*x + (y - 1)")])


def test_plan_designated_list_matches_auto():
    # an explicit primitive EC list designates what "auto" identifies
    f = parse_formula("x^2 + y^2 - 1 = 0 and x - y > 0", O2)
    plan = plan_projection(f, O2, [P("x^2 + y^2 - 1")])
    assert plan.ell == 1 and plan.level(2).ec.origin == "input"
    assert plan.to_json() == plan_projection(f, O2, "auto").to_json()


def test_plan_auto_imprimitive_fallback():
    f = parse_formula("(y - 1)*x + (y - 1) = 0", O2)
    plan = plan_projection(f, O2, "auto")
    assert plan.level(2).ec is None
    assert plan.level(2).fallback


def test_projection_cap():
    f = parse_formula("x^2 + y^2 - 1 = 0 and x - y = 0", O2)
    with pytest.raises(CapExceededError):
        plan_projection(f, O2, "auto", projection_cap=1)


def test_plan_json_roundtrippable():
    f = parse_formula("x^2 + y^2 - 1 = 0 and x > 0", O2)
    plan = plan_projection(f, O2, "auto")
    import json
    js = json.loads(plan.to_json())
    assert js["ell"] == 1
    assert len(js["levels"]) == 2
    assert all("projection" in lvl for lvl in js["levels"])


@pytest.mark.parametrize("ec_mode", ["resultant", "groebner"])
def test_plan_product_form_depth1_completes(time_budget, ec_mode):
    # The squarefree bases of these plans hold large, mostly coprime pairs;
    # the time budget bounds the gcds that prove them coprime.
    f = generate_dh(1, form="product_L")
    plan = plan_projection(f, f.order, "auto", ec_mode=ec_mode)
    assert plan.ell == 2
    for lv in plan.levels:
        v = lv.var
        basis = sorted(squarefree_basis(
            [content_primitive(p, v)[1] for p in lv.projection_polys], v), key=str)
        assert basis
        for i, a in enumerate(basis):
            for b in basis[i + 1:]:
                assert not sylvester_resultant(a, b, v).is_zero(), (a, b)


_COUNT_GCDS = """
import cadec.polynomial as polynomial
from cadec import generate_dh, plan_projection

calls = 0
gcd = polynomial.poly_gcd

def counted(p, q):
    global calls
    calls += 1
    return gcd(p, q)

polynomial.poly_gcd = counted
f = generate_dh(1, form="prenex")
plan_projection(f, f.order, "none", ec_mode="resultant")
print(calls)
"""


def test_plan_work_independent_of_hash_seed(time_budget):
    src = str(Path(__file__).resolve().parent.parent / "src")
    counts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _COUNT_GCDS], env=env,
                             capture_output=True, text=True, check=True)
        counts.append(int(out.stdout))
    assert counts[0] == counts[1] > 0


def test_projection_images_each_polynomial_at_most_twice(monkeypatch):
    # work guard: poly_gcd's coprimality test takes two integer images per
    # polynomial and keeps them, so the pairwise gcds of a squarefree basis
    # do not image the same polynomial once per partner; every counted
    # object is kept alive, since ids are reused
    import cadec.polynomial as polynomial

    counted = {}
    real = polynomial.integer_image

    def counting(p, point, vi=None):
        counted.setdefault(id(p), [p, 0])[1] += 1
        return real(p, point, vi)

    monkeypatch.setattr(polynomial, "integer_image", counting)
    f = generate_dh(1)
    plan_projection(f, f.order, "none")
    assert counted
    assert max(n for _, n in counted.values()) <= 2
