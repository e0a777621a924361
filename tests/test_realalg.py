import random
from fractions import Fraction
from math import lcm

import pytest

from cadec.polynomial import Polynomial, VarOrder, parse_poly
from cadec.realalg import (
    IDENTICALLY_ZERO, AlgebraicNumber, RealAlgebraError, SamplePoint, algebraic_is_root,
    compare, compare_rational, isolate_coeffs, isolate_real_roots, roots_above, sign_at,
)
from oracles import _eval as value_at, sturm_count_all, sturm_count_between

O1 = VarOrder(["x"])
O2 = VarOrder(["y", "x"])


def test_isolation_matches_sturm_random():
    rng = random.Random(5)
    for _ in range(200):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(rng.randint(1, 9))]
        roots = isolate_coeffs(tuple(coeffs))
        assert len(roots) == sturm_count_all(coeffs)
        for r in roots:
            assert sturm_count_between(r.coeffs, r.lo, r.hi) == 1


def test_known_roots():
    roots = isolate_real_roots(parse_poly("x^2 - 2", O1))
    assert len(roots) == 2
    assert roots[0].approx() < 0 < roots[1].approx()
    a = roots[1]
    assert abs(a.approx(Fraction(1, 10 ** 12)) ** 2 - 2) < Fraction(1, 10 ** 9)


def test_rational_roots_found_exactly():
    roots = isolate_real_roots(parse_poly("(x - 3)*(2*x + 1)*(x^2 - 3)", O1))
    values = sorted(r.approx() for r in roots)
    assert len(roots) == 4
    rationals = [r for r in roots if r.is_rational]
    assert sorted(r.rational_value() for r in rationals) == [Fraction(-1, 2), 3]


def test_compare_and_refine():
    r2, r3 = (isolate_real_roots(parse_poly(t, O1))[-1]
              for t in ("x^2 - 2", "x^2 - 3"))
    assert compare(r2, r3) < 0
    assert compare(r2, r2) == 0
    assert compare_rational(r2, Fraction(3, 2)) < 0
    assert compare_rational(r2, Fraction(7, 5)) > 0
    r2.refine()
    assert r2.hi - r2.lo < 1


def test_compare_takes_the_gcd_only_on_overlap(monkeypatch):
    # disjoint isolating intervals order two roots without a gcd of their
    # defining polynomials; overlapping ones take it once, and it is what
    # finds sqrt 2 equal as a root of both x^2 - 2 and x^4 - 4
    import cadec.realalg as realalg
    r2, r3, r22, s2 = (isolate_real_roots(parse_poly(t, O1))[-1]
                       for t in ("x^2 - 2", "x^2 - 3", "5*x^2 - 11", "x^4 - 4"))
    real = realalg.ugcd
    calls = []
    monkeypatch.setattr(realalg, "ugcd", lambda f, g: calls.append((f, g)) or real(f, g))
    assert r2.hi <= r3.lo
    assert compare(r2, r3) < 0 and compare(r3, r2) > 0
    assert calls == []
    assert r22.lo < r2.hi
    assert compare(r2, r22) < 0
    assert len(calls) == 1
    assert compare(r2, s2) == 0 and compare(s2, r2) == 0
    assert len(calls) == 3


def test_printing_format():
    rt = isolate_real_roots(parse_poly("x^2 - 2", O1))[1]
    assert str(rt) == "root(t^2 - 2, %s, %s)" % (rt.lo, rt.hi)
    assert str(AlgebraicNumber.from_rational(Fraction(5, 3))) == "5/3"
    alpha = AlgebraicNumber((3, -10, 0, -1, 7), 1, 2, 1)
    assert str(alpha).startswith("root(7*t^4 - t^3 - 10*t + 3, ")


def test_algebraic_is_root_branches():
    sqrt2 = isolate_real_roots(parse_poly("x^2 - 2", O1))[1]
    # the zero polynomial has every root
    assert algebraic_is_root(sqrt2, (0, 0))
    # a rational alpha: one evaluation
    half = AlgebraicNumber.from_rational(Fraction(1, 2))
    assert algebraic_is_root(half, (-1, 2))
    assert not algebraic_is_root(half, (1, 1))
    # coprime with the defining polynomial, and a multiple of it
    assert not algebraic_is_root(sqrt2, (-3, 0, 1))
    assert algebraic_is_root(sqrt2, (-2, -2, 1, 1))
    # a proper factor of the defining polynomial (x^2 - 2)(x^2 - 3): a sign
    # change of the gcd in alpha's interval, or none
    alpha = AlgebraicNumber((6, 0, -5, 0, 1), 1, 3, 2)
    assert algebraic_is_root(alpha, (-2, 0, 1))
    assert not algebraic_is_root(alpha, (-3, 0, 1))
    # (2x - 1)(x - 1)(x^2 - 3) on (0, 1): the gcd vanishes at the end 1, so
    # alpha is refined, and the first bisection point finds it is 1/2
    for coeffs, expected in (((-5, 4, 1), False), ((5, -14, 7, 2), True)):
        alpha = AlgebraicNumber((-3, 9, -5, -3, 2), 0, 1, 1)
        assert algebraic_is_root(alpha, coeffs) is expected
        assert alpha.is_rational and alpha.rational_value() == Fraction(1, 2)


def test_sign_at_rational_point():
    p = parse_poly("x*y - 1", O2)
    s = SamplePoint(O2, (Fraction(2), Fraction(3)))  # y=2, x=3
    assert sign_at(p, s) == 1
    assert sign_at(parse_poly("x - y - 1", O2), s) == 0


def test_sign_at_algebraic_point():
    # at y = sqrt(2): y^2 - 2 is zero, y - 1 positive, y^3 - 3 negative
    rt = isolate_real_roots(parse_poly("x^2 - 2", O1))[1]
    o = VarOrder(["y"])
    s = SamplePoint(o, (rt,))
    assert sign_at(parse_poly("y^2 - 2", o), s) == 0
    assert sign_at(parse_poly("y - 1", o), s) == 1
    assert sign_at(parse_poly("y^3 - 3", o), s) == -1


def test_roots_above_rational_base():
    p = parse_poly("x^2 + y^2 - 1", O2)
    s = SamplePoint(O2, (Fraction(0),))
    roots = roots_above(p, s, "x")
    assert [r.approx() for r in roots] == [-1, 1]
    assert roots_above(p, SamplePoint(O2, (Fraction(2),)), "x") == []


def test_roots_above_algebraic_base():
    # over y = sqrt(1/2), the circle has sections at x = ±sqrt(1/2)
    half = isolate_real_roots(parse_poly("2*x^2 - 1", O1))[1]
    s = SamplePoint(O2, (half,))
    roots = roots_above(parse_poly("x^2 + y^2 - 1", O2), s, "x")
    assert len(roots) == 2
    assert compare(roots[0], roots[1]) < 0
    assert compare(roots[1], half) == 0  # x = y there


def test_roots_above_nullification():
    # y * x + y vanishes identically over y = 0
    p = parse_poly("y*x + y", O2)
    assert roots_above(p, SamplePoint(O2, (Fraction(0),)), "x") is IDENTICALLY_ZERO


def test_sample_point_extension():
    s = SamplePoint(O2, (Fraction(1),))
    s2 = s.extended(Fraction(2))
    assert s2.coordinate("y").rational_value() == 1
    assert s2.coordinate("x").rational_value() == 2


# ---------------------------------------------------------------------------
# integer univariate core: regressions and properties against the oracles


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _check_isolation(coeffs, roots):
    """Oracle checks of one isolation of coeffs."""
    assert len(roots) == sturm_count_all(coeffs)
    for r in roots:
        assert all(type(c) is int for c in r.coeffs) and r.coeffs[-1] > 0
        assert sturm_count_between(coeffs, r.lo, r.hi) == 1
        assert value_at(coeffs, r.lo) != 0 and value_at(coeffs, r.hi) != 0
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_root_at_bisection_point_keeps_pending_intervals():
    p = parse_poly("(x-2)*(x+5)*(x+52)*(4*x-7)*(2*x+9)", O1)
    roots = isolate_real_roots(p)
    coeffs = [c.constant_value() for c in p.coeffs_in("x")]
    _check_isolation(coeffs, roots)
    assert len(roots) == 5
    assert [r.rational_value() for r in roots] == [-52, -5, Fraction(-9, 2), Fraction(7, 4), 2]


def test_quartic_with_large_constant_loses_no_root():
    coeffs = (-2280, -553, 2416, -1092, 144)
    roots = isolate_coeffs(coeffs)
    assert len(roots) == sturm_count_all(coeffs) == 4
    _check_isolation(coeffs, roots)


def test_planted_rational_roots_property():
    rng = random.Random(17)
    for _ in range(60):
        planted, count = set(), rng.randint(1, 3)
        while len(planted) < count:
            planted.add(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        coeffs = [1]
        for q in planted:
            coeffs = _poly_mul(coeffs, [-q.numerator, q.denominator])
        # a cofactor whose constant term puts the whole constant term above
        # 4096^2, where a divisor sieve over it would give up
        cofactor = ([rng.choice((-1, 1)) * rng.randint(4097 ** 2, 10 ** 9)]
                    + [rng.randint(-50, 50) for _ in range(rng.randint(0, 3))]
                    + [rng.randint(1, 30)])
        coeffs = _poly_mul(coeffs, cofactor)
        if abs(coeffs[0]) <= 4096 ** 2:
            continue  # a planted root at 0
        roots = isolate_coeffs(tuple(Fraction(c, 3) for c in coeffs))
        _check_isolation(coeffs, roots)
        found = {r.rational_value() for r in roots if r.is_rational}
        assert planted <= found


def test_low_degree_closed_forms():
    rng = random.Random(23)
    cases = [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(20)]
    for c0, c1 in cases:
        roots = isolate_coeffs((c0, c1))
        _check_isolation((c0, c1), roots)
        assert roots[0].rational_value() == Fraction(-c0, c1)
    # a > 0: negative, zero, square and non-square discriminants
    for c, b, a, count, rational in [(1, 0, 1, 0, 0), (5, 1, 3, 0, 0),
                                     (9, 6, 1, 1, 1), (-3, 1, 2, 2, 2),
                                     (-6, 1, 12, 2, 2), (-2, 0, 1, 2, 0),
                                     (-7, 3, 5, 2, 0), (-10 ** 9 - 7, 12345, 4097, 2, 0)]:
        roots = isolate_coeffs((Fraction(c), Fraction(b), Fraction(a)))
        _check_isolation((c, b, a), roots)
        assert len(roots) == count
        assert sum(r.is_rational for r in roots) == rational
        for r in roots:
            if r.is_rational:
                assert value_at((c, b, a), r.rational_value()) == 0
    for _ in range(100):
        coeffs = (rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 99))
        _check_isolation(coeffs, isolate_coeffs(coeffs))


# ---------------------------------------------------------------------------
# the resultant memo shared by the sample points of one tree


def _sturm_sign(u, w, lo, hi):
    """Oracle sign of w at the one root of u in (lo, hi], by Sturm counts:
    bisect until w has no root left in the interval, or its only root there
    is the root of u (then u*w has one distinct root there, not two)."""
    while True:
        if sturm_count_between(w, lo, hi) == 0:
            v = value_at(w, (lo + hi) / 2)
            return (v > 0) - (v < 0)
        if sturm_count_between(_poly_mul(u, w), lo, hi) == 1:
            return 0
        mid = (lo + hi) / 2
        if sturm_count_between(u, lo, mid) == 1:
            hi = mid
        else:
            lo = mid


def test_shared_memo_matches_fresh_points(time_budget):
    # The roots -sqrt 3, -sqrt 2, sqrt 2, sqrt 3 all carry the squarefree,
    # reducible defining polynomial (y^2 - 2)(y^2 - 3), so their resultant
    # chains share memo keys.  Each q is even in y, so at y = alpha it is the
    # rational u(x) with y^2 -> alpha^2, which the oracles check against.
    # (y^2 - 3)(x^2 - y^2) and (y^2 - 2)(x - 1) share a factor with the
    # defining polynomial: at the roots of the other factor the chain divides
    # it out before its resultant, and at their own roots q vanishes.
    d = (6, 0, -5, 0, 1)
    base = SamplePoint(O2, ())
    shared = [base.extended(r) for r in isolate_coeffs(d)]
    lifted = ["x^2 - y^2", "x*y^2 - 2*x - 1", "(y^2 - 3)*(x^2 - y^2)",
              "(y^2 - 2)*(x - 1)", "x^3 - y^2*x + 1"]
    signed = ["x^2 - y^2", "2*x^2 - y^2 - 1", "x^3 + y^2*x - 5", "x*y^2 - 3*x"]

    def image(text, a):
        poly = parse_poly(text.replace("y^2", "(%d)" % a), O2)
        return [int(c.constant_value()) for c in poly.coeffs_in("x")]

    checked_zero = 0
    for i, s in enumerate(shared):
        a = 2 if abs(float(s.coords[0])) < 1.6 else 3  # alpha^2
        alpha = isolate_coeffs(d)[i]  # the same root, with no shared memo
        for text in lifted:
            q = parse_poly(text, O2)
            u = image(text, a)
            got = roots_above(q, s, "x")
            fresh = roots_above(q, SamplePoint(O2, (alpha,)), "x")
            if not any(u):
                assert got is IDENTICALLY_ZERO and fresh is IDENTICALLY_ZERO
                continue
            _check_isolation(u, got)
            assert len(fresh) == len(got)
            assert all(compare(g, f) == 0 for g, f in zip(got, fresh))
            for j, rho in enumerate(got):
                point = s.extended(rho)
                fresh_point = SamplePoint(O2, (alpha, fresh[j]))
                for w_text in signed:
                    w = parse_poly(w_text, O2)
                    expected = _sturm_sign(u, image(w_text, a), rho.lo, rho.hi)
                    assert sign_at(w, point) == sign_at(w, fresh_point) == expected
                    checked_zero += expected == 0
    assert checked_zero >= 4
    assert base.memo and all(s.memo is base.memo for s in shared)


# ---------------------------------------------------------------------------
# integer arithmetic at rational points


def _random_poly(order, rng, terms=6, max_deg=4):
    names = order.names
    out = Polynomial.zero(order)
    for _ in range(terms):
        mono = Polynomial.constant(order, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        for name in names:
            e = rng.randint(0, max_deg)
            if e:
                mono = mono * Polynomial.variable(order, name) ** e
        out = out + mono
    return out


def _box(rng):
    """A box endpoint pair below, above, straddling or touching 0."""
    a = Fraction(rng.randint(1, 50), rng.randint(1, 12))
    b = a + Fraction(rng.randint(1, 50), rng.randint(1, 12))
    kind = rng.choice(("below", "above", "straddle", "to0", "from0"))
    if kind == "below":
        return -b, -a
    if kind == "above":
        return a, b
    if kind == "straddle":
        return -a, b
    return (-a, Fraction(0)) if kind == "to0" else (Fraction(0), a)


def test_interval_eval_matches_reference():
    from cadec.realalg import interval_eval
    from oracles import reference_interval_eval

    rng = random.Random(41)
    for nvars in (2, 3, 4):
        order = VarOrder(["v%d" % i for i in range(nvars)])
        for _ in range(60):
            p = _random_poly(order, rng, terms=rng.randint(1, 6), max_deg=5)
            boxes = {name: _box(rng) for name in order.names}
            assert interval_eval(p, boxes) == reference_interval_eval(p, boxes)
    order = VarOrder(["y", "x"])
    zero = Polynomial.zero(order)
    assert interval_eval(zero, {}) == reference_interval_eval(zero, {}) == (0, 0)
    # even and odd powers of one straddling variable, with a constant term
    p = parse_poly("x^4 - 3/2*x^3 + 2/7*x^2*y - y^2 + 5", order)
    boxes = {"x": (Fraction(-3, 2), Fraction(2, 3)), "y": (Fraction(-1, 5), Fraction(7, 3))}
    assert interval_eval(p, boxes) == reference_interval_eval(p, boxes)


def _isolation_key(roots):
    if roots is IDENTICALLY_ZERO:
        return roots
    return [(r.coeffs, r.lo, r.hi) for r in roots]


def _fraction_route(p, prefix, v):
    """roots_above at an all-rational prefix, by Fraction specialisation."""
    q = p.evaluate(prefix)
    if q.is_zero():
        return IDENTICALLY_ZERO
    if v not in q.variables():
        return []
    return isolate_real_roots(q)


def test_rational_prefix_matches_fraction_route():
    order = VarOrder(["z", "y", "x"])
    rng = random.Random(43)
    big = 10 ** 12
    for trial in range(150):
        p = _random_poly(order, rng, terms=rng.randint(1, 5), max_deg=4)
        if trial % 5 == 0:  # a prefix variable absent from p
            p = p.evaluate({"z": Fraction(1)})
        den = big + rng.randint(0, 999) if trial % 3 == 0 else rng.randint(1, 12)
        prefix = {"z": Fraction(rng.randint(-5 * den, 5 * den), den),
                  "y": Fraction(rng.randint(-40, 40), rng.randint(1, 12))}
        s = SamplePoint(order, (prefix["z"], prefix["y"]))
        got = roots_above(p, s, "x")
        assert _isolation_key(got) == _isolation_key(_fraction_route(p, prefix, "x"))
        point = dict(prefix, x=Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        value = p.eval_rational(point)
        full = s.extended(point["x"])
        assert sign_at(p, full) == (value > 0) - (value < 0)
    # specialisations that vanish identically, or leave a non-zero constant
    s = SamplePoint(order, (Fraction(7, 5), Fraction(1, 3)))
    vanishing = parse_poly("(3*y - 1)*(x^2 - 2) + (5*z - 7)*x", order)
    constant = parse_poly("(3*y - 1)*x + 5*z", order)
    assert roots_above(vanishing, s, "x") is IDENTICALLY_ZERO
    assert _fraction_route(vanishing, {"z": Fraction(7, 5), "y": Fraction(1, 3)}, "x") \
        is IDENTICALLY_ZERO
    assert roots_above(constant, s, "x") == []
    assert sign_at(vanishing, s.extended(Fraction(2))) == 0
    assert sign_at(constant, s.extended(Fraction(-9))) == 1


# ---------------------------------------------------------------------------
# defining polynomials of values, and the exits of the sign refinement loop


def test_value_defining_matches_reference():
    from cadec.realalg import _value_defining
    from oracles import reference_value_defining

    rng = random.Random(47)
    names = ("z", "y", "x")
    for trial in range(36):
        k = trial % 3 + 1
        order = VarOrder(names[:k])
        coords = []
        for name in names[:k]:
            roots = []
            while not roots:
                deg = rng.choice((2, 2, 3))
                coeffs = tuple(rng.randint(-6, 6) for _ in range(deg))
                coeffs += (rng.randint(1, 3),)
                roots = [r for r in isolate_coeffs(coeffs) if not r.is_rational]
            coords.append((name, rng.choice(roots)))
        q = _random_poly(order, rng, terms=rng.randint(0, 2), max_deg=2)
        for name in names[:k]:
            q = q + rng.choice((-2, -1, 1, 3)) * Polynomial.variable(order, name)
        got = _value_defining(q, coords, {})
        # the integer image of the reference's Fraction tuple: scaled by the
        # lcm of its denominators, a positive factor
        ref = reference_value_defining(q, coords, {})
        den = lcm(*(c.denominator for c in ref))
        assert got == tuple(c * den for c in ref)
        assert all(type(c) is int for c in got)
        assert len(got) > 1


def test_sign_at_two_algebraic_coordinates(monkeypatch, time_budget):
    import cadec.realalg as realalg

    calls = []  # the defining polynomials sign_at_map asked for
    real = realalg._value_defining

    def spy(q, alg_coords, memo):
        calls.append(real(q, alg_coords, memo))
        return calls[-1]

    monkeypatch.setattr(realalg, "_value_defining", spy)

    big = 10 ** 12
    sqrt2 = ((-2, 0, 1), 1)
    neg_sqrt2 = ((-2, 0, 1), 0)
    near = ((-(2 * big + 1), 0, big), 1)     # sqrt(2 + 10^-12)
    quartic = ((-4, 0, 0, 0, 1), 1)          # sqrt 2, as a root of x^4 - 4
    # the near root again, as a root of (x^2 - 2)(big x^2 - 2 big - 1)
    shared = ((4 * big + 2, 0, -(4 * big + 1), 0, big), 3)
    cases = [
        # the value is -3.5e-13: the interval clears 0 only after the
        # defining polynomial, whose constant term is not 0
        ("y - x", (sqrt2, near), -1, True),
        # the value is 0: the zero case
        ("x*y - 2", (sqrt2, sqrt2), 0, False),
        ("x + y", (neg_sqrt2, sqrt2), 0, False),
        ("y - x", (sqrt2, quartic), 0, False),
        # 0 is a root of the defining polynomial (at x = sqrt 2) but the value
        # is 7e-13: the zero case refines until the interval clears 0
        ("x*y - 2", (sqrt2, shared), 1, False),
    ]
    for text, coords, sign, constant_nonzero in cases:
        calls.clear()
        s = SamplePoint(O2, ())
        for coeffs, i in coords:
            s = s.extended(isolate_coeffs(coeffs)[i])
        assert sign_at(parse_poly(text, O2), s) == sign, text
        assert len(calls) == 1, text
        assert (calls[0][0] != 0) == constant_nonzero, text


# ---------------------------------------------------------------------------
# the roots memo: one isolation per polynomial and the coordinates it reads


def _same_roots(got, fresh):
    if got is IDENTICALLY_ZERO or fresh is IDENTICALLY_ZERO:
        return got is fresh
    return len(got) == len(fresh) and all(compare(g, f) == 0 for g, f in zip(got, fresh))


def test_roots_memo_matches_fresh_isolation(time_budget):
    # Points over a pool of rational and irrational coordinates share one
    # memo; each answer must be the roots a fresh point (own memo, own copy
    # of every coordinate) isolates.  Polynomials that do not read z reuse
    # the answer of another z: the same list object.
    order = VarOrder(["z", "y", "x"])
    pool = [Fraction(0), Fraction(1, 2), Fraction(-3)]
    irrational = [((-2, 0, 1), 1), ((-2, 0, 1), 0), ((-1, -1, 1), 1)]

    def coordinate(c):
        return AlgebraicNumber.from_rational(c) if isinstance(c, Fraction) \
            else isolate_coeffs(c[0])[c[1]]

    choices = pool + irrational
    base = SamplePoint(order, ())
    zs = {i: coordinate(c) for i, c in enumerate(choices)}
    ys = {i: coordinate(c) for i, c in enumerate(choices)}
    rng = random.Random(83)
    polys = []
    while len(polys) < 12:
        p = _random_poly(order, rng, terms=4, max_deg=2)
        if len(polys) % 2:  # every other polynomial reads no z
            p = p.evaluate({"z": Fraction(rng.randint(-2, 2))})
        if p.degree_in("x"):
            polys.append(p)
    assert any("z" not in p.variables() and "y" in p.variables() for p in polys)
    reused = 0
    for p in polys:
        seen = {}
        for zi, yi in [(rng.randrange(len(choices)), rng.randrange(len(choices)))
                       for _ in range(8)]:
            s = base.extended(zs[zi]).extended(ys[yi])
            got = roots_above(p, s, "x")
            fresh_point = SamplePoint(order, (coordinate(choices[zi]), coordinate(choices[yi])))
            assert _same_roots(got, roots_above(p, fresh_point, "x")), (str(p), zi, yi)
            read = tuple(i for name, i in (("z", zi), ("y", yi)) if name in p.variables())
            if read in seen:
                assert got is seen[read]
                reused += 1
            seen[read] = got
    assert reused


def test_roots_memo_keys_rationals_by_value(monkeypatch):
    import cadec.realalg as realalg
    calls = []
    real = realalg.isolate_coeffs

    def spy(coeffs):
        calls.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(realalg, "isolate_coeffs", spy)
    p = parse_poly("x^2 + y^2 - 1", O2)
    base = SamplePoint(O2, ())
    first = base.extended(AlgebraicNumber.from_rational(Fraction(1, 2)))
    second = base.extended(AlgebraicNumber.from_rational(Fraction(2, 4)))
    assert first.coords[0] is not second.coords[0]
    roots = roots_above(p, first, "x")
    assert len(roots) == 2 and len(calls) == 1
    assert roots_above(p, second, "x") is roots
    assert len(calls) == 1


def test_roots_memo_keys_irrationals_by_identity(monkeypatch):
    import cadec.realalg as realalg
    calls = []
    real = realalg.isolate_coeffs

    def spy(coeffs):
        calls.append(coeffs)
        return real(coeffs)

    p = parse_poly("x^2 + y^2 - 1", O2)
    base = SamplePoint(O2, ())
    half = [isolate_coeffs((-1, 0, 2))[1] for _ in range(2)]  # sqrt(1/2) twice
    monkeypatch.setattr(realalg, "isolate_coeffs", spy)
    first = roots_above(p, base.extended(half[0]), "x")
    done = len(calls)
    assert done
    assert roots_above(p, base.extended(half[0]), "x") is first
    assert len(calls) == done
    second = roots_above(p, base.extended(half[1]), "x")
    assert len(calls) > done
    assert second is not first and _same_roots(first, second)


# ---------------------------------------------------------------------------
# one elimination order: the chain divides out the factor it vanishes through


def test_chain_divides_out_the_vanishing_factor(time_budget):
    # At x = sqrt 2, y = -sqrt 2, both roots of t^2 - 2, the resultant of
    # (x - y)*f in x carries the factor y^2 - 2, and in y the factor x^2 - 2:
    # the chain vanishes under either elimination order until it divides
    # that factor out of P.  f's coefficients in z are combinations of 1,
    # x^2, y^2, x*y and x^2*y^2, so at the point f is the rational u(z).
    order = VarOrder(["x", "y", "z"])
    x, y, z = (Polynomial.variable(order, n) for n in order.names)
    monomials = [(Polynomial.constant(order, 1), 1), (x ** 2, 2), (y ** 2, 2),
                 (x * y, -2), (x ** 2 * y ** 2, 4)]
    sqrt2 = isolate_coeffs((-2, 0, 1))
    s = SamplePoint(order, (sqrt2[1], sqrt2[0]))
    signed = [(z - x * y, [2, 1]), (x ** 2 * z ** 2 - 5, [-5, 0, 2])]
    rng = random.Random(97)
    checked = 0
    for _ in range(40):
        f, u = Polynomial.zero(order), []
        for k in range(rng.randint(2, 3)):
            c = Polynomial.zero(order)
            value = 0
            for m, image in monomials:
                r = rng.randint(-3, 3)
                c = c + r * m
                value += r * image
            f = f + c * z ** k
            u.append(value)
        while u and u[-1] == 0:
            u.pop()
        roots = roots_above((x - y) * f, s, "z")
        if not u:
            assert roots is IDENTICALLY_ZERO
            continue
        _check_isolation(u, roots)
        checked += len(u) > 1
        for rho in roots:
            point = s.extended(rho)
            assert sign_at(f, point) == 0
            for w, image in signed:
                assert sign_at(w, point) == _sturm_sign(u, image, rho.lo, rho.hi)
    assert checked >= 30


def test_chain_over_reducible_defining_polynomial(time_budget):
    # Every coordinate is a root of the squarefree, reducible
    # (t^2 - 2)(t^2 - 3), and y = -x, so x^2 = y^2 = a and x*y = -a.  Over
    # (x - y)*f the chain divides P by the gcd; the last f makes the same
    # chain then divide d by y^2 - 3 (a = 2), or vanish identically (a = 3).
    order = VarOrder(["x", "y", "z"])
    d = isolate_coeffs((6, 0, -5, 0, 1))  # -sqrt 3, -sqrt 2, sqrt 2, sqrt 3
    cases = ["z + 1", "z^2 - x*y - 3", "z^2 - x^2", "(y^2 - 3)*(z + 1)"]
    signed = ["z - x*y", "z^2 - y^2 - 1"]

    def image(text, a):
        text = text.replace("x*y", "(%d)" % -a)
        text = text.replace("x^2", "(%d)" % a).replace("y^2", "(%d)" % a)
        poly = parse_poly(text, order)
        return [int(c.constant_value()) for c in poly.coeffs_in("z")]

    for i in range(4):
        s = SamplePoint(order, (d[i], d[3 - i]))
        a = 2 if i in (1, 2) else 3
        for text in cases:
            u = image(text, a)
            roots = roots_above(parse_poly("(x - y)*(%s)" % text, order), s, "z")
            if not any(u):
                assert roots is IDENTICALLY_ZERO
                continue
            _check_isolation(u, roots)
            assert roots
            for rho in roots:
                point = s.extended(rho)
                for w in signed:
                    expected = _sturm_sign(u, image(w, a), rho.lo, rho.hi)
                    assert sign_at(parse_poly(w, order), point) == expected


# ---------------------------------------------------------------------------
# integer isolating intervals against a Fraction-endpoint reference


# factors shared between polynomials, so equal roots meet across groups;
# x^2 - 2 and x^2 - 3 isolate in closed form to (1, 3/2) and (3/2, 2), so
# the rationals 1, 3/2 and 2 sit on irrational neighbours' endpoints
_FACTORS = [(-2, 0, 1), (-3, 0, 1), (-11, 0, 5), (-1, 1), (-3, 2), (-2, 1),
            (-1, -1, 0, 1), (-7, 0, 3), (1, 1), (3, 2)]


def _random_coeffs(rng):
    """A random integer polynomial: a product of shared factors, a closed-form
    quadratic with rational roots, or random coefficients of degree 1-6."""
    kind = rng.randrange(3)
    if kind == 0:
        coeffs = [1]
        for _ in range(rng.randint(1, 3)):
            coeffs = _poly_mul(coeffs, rng.choice(_FACTORS))
        return tuple(coeffs)
    if kind == 1:
        p1, q1, p2, q2 = (rng.randint(-6, 6), rng.randint(1, 4),
                          rng.randint(-6, 6), rng.randint(1, 4))
        return tuple(_poly_mul([-p1, q1], [-p2, q2]))
    deg = rng.randint(1, 6)
    return tuple([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)])


def _same_state(alpha, ref):
    return (alpha.coeffs, alpha.lo, alpha.hi) == (ref.coeffs, ref.lo, ref.hi)


def _root_pool(rng, polys=40):
    pool = []
    while len(pool) < polys:
        roots = isolate_coeffs(_random_coeffs(rng))
        if roots:
            pool.append(roots)
    return pool


def test_compare_matches_fraction_reference():
    from oracles import ReferenceNumber, reference_compare, reference_compare_rational

    rng = random.Random(1201)
    roots = [r for group in _root_pool(rng) for r in group]
    assert sum(r.is_rational for r in roots) and sum(not r.is_rational for r in roots)
    equal = 0
    for _ in range(600):
        a, b = rng.choice(roots), rng.choice(roots)
        ra = ReferenceNumber(a)
        rb = ra if b is a else ReferenceNumber(b)
        got = compare(a, b)
        assert got == reference_compare(ra, rb)
        assert _same_state(a, ra) and _same_state(b, rb)
        equal += got == 0 and a is not b
    assert equal  # shared factors give equal roots of different polynomials
    for _ in range(600):
        a = rng.choice(roots)
        ref = ReferenceNumber(a)
        q = rng.choice([ref.lo, ref.hi, (ref.lo + ref.hi) / 2,
                        Fraction(rng.randint(-30, 30), rng.randint(1, 8)),
                        rng.randint(-3, 3), Fraction(3, 2)])
        assert compare_rational(a, q) == reference_compare_rational(ref, q)
        assert _same_state(a, ref)


def test_refine_matches_fraction_reference():
    from oracles import ReferenceNumber

    rng = random.Random(1202)
    for group in _root_pool(rng):
        for a in group:
            ref = ReferenceNumber(a)
            for _ in range(rng.randint(1, 14)):
                a.refine()
                ref.refine()
                assert _same_state(a, ref) and a.is_rational == ref.is_rational


def test_refine_discovers_rationals_as_the_reference_does():
    # f = (q x - p) g with an interval around p/q whose ends are dyadic
    # offsets from it, so some bisection point is p/q itself
    from oracles import ReferenceNumber

    rng = random.Random(1203)
    found = 0
    for _ in range(300):
        p, q = rng.randint(-20, 20), rng.randint(1, 6)
        g = rng.choice(_FACTORS + [(5, 0, 1), (1, 0, 2)])
        if len(g) == 2:
            g = _poly_mul(g, (1, 0, 1))
        if value_at(g, Fraction(p, q)) == 0:
            continue  # f would not be squarefree
        f = tuple(_poly_mul([-p, q], g))
        j = rng.randint(0, 5)
        lo = Fraction(p, q) - Fraction(rng.randint(1, 7), 2 ** j)
        hi = Fraction(p, q) + Fraction(rng.randint(1, 7), 2 ** j)
        if value_at(f, lo) == 0 or value_at(f, hi) == 0 or sturm_count_between(f, lo, hi) != 1:
            continue
        den = lo.denominator * hi.denominator
        alpha = AlgebraicNumber(f, lo.numerator * hi.denominator,
                                hi.numerator * lo.denominator, den)
        ref = ReferenceNumber(alpha)
        assert _same_state(alpha, ref)
        for _ in range(12):
            was_rational = alpha.is_rational
            alpha.refine()
            ref.refine()
            assert _same_state(alpha, ref)
            if alpha.is_rational and not was_rational:
                found += 1
                assert alpha.rational_value() == Fraction(p, q)
    assert found > 20


def test_merge_roots_matches_fraction_reference():
    from cadec.realalg import merge_roots
    from oracles import ReferenceNumber, reference_merge_roots

    rng = random.Random(1204)
    for _ in range(80):
        groups = [isolate_coeffs(_random_coeffs(rng)) for _ in range(rng.randint(1, 5))]
        twins = {id(r): ReferenceNumber(r) for group in groups for r in group}
        ref_groups = [[twins[id(r)] for r in group] for group in groups]
        merged, contributors = merge_roots(groups)
        ref_merged, ref_contributors = reference_merge_roots(ref_groups)
        assert [twins[id(r)] for r in merged] == ref_merged
        assert contributors == ref_contributors
        for group in groups:
            assert all(_same_state(r, twins[id(r)]) for r in group)
