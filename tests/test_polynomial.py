import random
from fractions import Fraction
from math import lcm, prod

import pytest

from cadec.polynomial import (
    ExactDivisionError, OrderingMismatchError, ParseError, Polynomial, VarOrder,
    ZeroPolynomialError, _coprime_image, _dense, _exquo, _prem, _subresultant_prs,
    content_primitive, discriminant, exact_div, from_coeffs, integer_image,
    integer_normalized, is_primitive, parse_poly, poly_gcd, poly_to_str, primitive, resultant,
    squarefree_basis, squarefree_part, ugcd,
)
from oracles import reference_gcd, sylvester_discriminant, sylvester_resultant

O2 = VarOrder(["y", "x"])
O3 = VarOrder(["z", "y", "x"])


def P(text, order=O2):
    return parse_poly(text, order)


def random_poly(order, rng, max_deg=3, terms=4, coeff=9, den=1):
    """A sum of random terms; with den > 1 each coefficient is c/d, d drawn
    from 1..den."""
    n = len(order)
    p = Polynomial.zero(order)
    for _ in range(terms):
        expt = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.randint(-coeff, coeff)
        if c:
            c = Fraction(c, rng.randint(1, den)) if den > 1 else Fraction(c)
            p = p + Polynomial.monomial(order, expt, c)
    return p


def test_parse_roundtrip():
    p = P("3*x^2*y - 1/2*y + 7")
    assert parse_poly(poly_to_str(p), O2) == p


def test_is_constant():
    for text, constant in (("0", True), ("-3/2", True), ("x*y - y*x + 2", True),
                           ("y", False), ("x + 1", False), ("x^2*y", False)):
        assert P(text).is_constant() is constant


def test_parse_rejects_garbage():
    for bad in ("x +", "2 ** x", "(x", "x^", "and"):
        with pytest.raises(ParseError):
            parse_poly(bad, O2)


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        p, q, r = (random_poly(O2, rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        p, q = random_poly(O2, rng), random_poly(O2, rng)
        if p.is_zero() or q.is_zero():
            continue
        for v in ("x", "y"):
            assert (p * q).degree_in(v) == p.degree_in(v) + q.degree_in(v)


def test_exact_div():
    p, q = P("x^2 - y^2"), P("x - y")
    assert exact_div(p, q) == P("x + y")
    with pytest.raises(ExactDivisionError):
        exact_div(P("x^2 + 1"), P("x - y"))
    # // is the same exact division, and takes a coefficient too
    assert p // q == P("x + y")
    assert P("6*x - 4*y") // -2 == P("2*y - 3*x")
    assert P("x + y") // 2 == P("1/2*x + 1/2*y")
    with pytest.raises(ExactDivisionError):
        P("x^2 + 1") // P("x - y")


def test_exquo_int_lists():
    assert _exquo((2, 3, 1), (1, 1)) == (2, 1)
    assert _exquo([-2, 0, 2], (2,)) == (-1, 0, 1)
    assert _exquo((0,), (1, 1)) == ()
    # a remainder in the top entry: 3 is not a multiple of lc = 2
    with pytest.raises(ExactDivisionError):
        _exquo((2, 3), (1, 2))
    # a remainder in a low entry: x^2 + 1 = (x - 1)(x + 1) + 2
    with pytest.raises(ExactDivisionError):
        _exquo((1, 0, 1), (1, 1))
    # a dividend of lower degree than the divisor
    with pytest.raises(ExactDivisionError):
        _exquo((1, 1), (1, 0, 1))


def test_exquo_polynomial_lists():
    # the divisor's main variable y is below the dividend's x, so the
    # entries of the dividend's list in y carry x
    q = parse_poly("y*z - 1", O3)
    s = parse_poly("x^2*y + z", O3)
    quotient = _exquo((s * q).coeffs_in("y"), q.coeffs_in("y"))
    assert from_coeffs(quotient, "y", O3) == s
    assert exact_div(s * q, q) == s and (s * q) // q == s
    # a zero dividend
    zero = Polynomial.zero(O3)
    assert _exquo(zero.coeffs_in("y"), q.coeffs_in("y")) == ()
    assert exact_div(zero, q) == zero
    # a Fraction quotient, read off constant entries
    one, two = Polynomial.constant(O2, 1), Polynomial.constant(O2, 2)
    assert _exquo((one, one), (two, two)) == (P("1/2"),)
    assert exact_div(P("x + y"), P("2*x + 2*y")) == P("1/2")
    # a remainder
    with pytest.raises(ExactDivisionError):
        _exquo(P("x^2 + 1").coeffs_in("x"), P("x - y").coeffs_in("x"))
    # the same on lists that mix ints and Polynomials (_dense), and an int
    # entry divided by a constant Polynomial
    quotient = _exquo(_dense(s * q, "y"), _dense(q, "y"))
    assert from_coeffs(quotient, "y", O3) == s
    quotient = _exquo((4, P("2*y"), 0), (Polynomial.constant(O2, 2),))
    assert from_coeffs(quotient, "x", O2) == P("y*x + 2")
    with pytest.raises(ExactDivisionError):
        _exquo(_dense(P("x^2 + 1"), "x"), _dense(P("x - y"), "x"))
    with pytest.raises(ExactDivisionError):
        _exquo((1, P("y")), (P("y"),))


def test_exact_div_errors():
    # x*y over (y, x) by y over (z, y, x): the orderings differ
    with pytest.raises(OrderingMismatchError):
        exact_div(P("x*y"), parse_poly("y", O3))
    with pytest.raises(OrderingMismatchError):
        P("x*y") // parse_poly("y", O3)
    with pytest.raises(ZeroPolynomialError):
        exact_div(P("x*y"), Polynomial.zero(O2))
    with pytest.raises(ZeroPolynomialError):
        P("x*y") // 0
    with pytest.raises(ExactDivisionError):
        P("x*y + 1") // P("y")


def test_exact_div_random_fraction_coefficients():
    rng = random.Random(53)
    checked = 0
    while checked < 150:
        p = random_poly(O3, rng) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        q = random_poly(O3, rng, terms=3) + random_poly(O3, rng, terms=2) * Fraction(1, 3)
        if p.is_zero() or q.is_zero():
            continue
        assert exact_div(p * q, q) == p
        assert (p * q) // p == q
        checked += 1


def test_gcd():
    g = P("x + y")
    a, b = g * P("x - 1"), g * P("y^2 + 2")
    got = poly_gcd(a, b)
    assert integer_normalized(got) == integer_normalized(g)


def _assert_gcd(p, q, planted=None):
    g = poly_gcd(p, q)
    assert g == integer_normalized(g)
    if planted is not None:
        exact_div(g, planted)  # raises unless planted divides g
    a, b = exact_div(p, g), exact_div(q, g)
    # the cofactors share no factor: their resultant in every variable
    # they both contain, the main variable among them, is non-zero
    for v in a.variables() & b.variables():
        assert not sylvester_resultant(a, b, v).is_zero(), (p, q, v)
    return g


def test_gcd_planted_factor_random():
    rng = random.Random(17)
    checked = 0
    while checked < 120:
        order = O2 if checked % 2 else O3
        a = random_poly(order, rng, max_deg=2, terms=3)
        b = random_poly(order, rng, max_deg=2, terms=3)
        h = random_poly(order, rng, max_deg=2, terms=2) if checked % 3 else None
        if a.is_constant() or b.is_constant() or (h is not None and h.is_constant()):
            continue
        p, q = (a, b) if h is None else (a * h, b * h)
        _assert_gcd(p * Fraction(rng.randint(1, 5), rng.randint(1, 5)), q, h)
        checked += 1


def test_gcd_prs_stays_small(time_budget):
    # a pair whose remainders carry large integer contents: a PRS that
    # divides each remainder only by its normalised gcd of coefficients does
    # not finish within the time budget; the subresultant PRS takes well
    # under a second
    a = parse_poly("42*x^3*y^3*z^2 + 63*x^3*y^2*z + 63*x^2*y^3*z^2 + 36*x^2*y^3*z"
                   " - 30*x^2*y^2*z^2 + 54*x^2*y^2 - 45*x^2*y*z + 19*x*y^3*z"
                   " - 45*x*y^2*z^2 - 30*y^3 + 25*y^2*z", O3)
    b = parse_poly("-56*x^3*y^3*z + 7/3*x^3*y^2*z - 48*x^2*y^3 + 40*x^2*y^2*z"
                   " + 2*x^2*y^2 - 194/3*x^2*y*z - 63*x*y^2*z^2 - 54*x*y + 45*x*z"
                   " - 54*y^2*z + 45*y*z^2", O3)
    g = parse_poly("7*x*y*z + 6*y - 5*z", O3)
    assert poly_gcd(a, b) == g
    assert poly_gcd(exact_div(a, g), exact_div(b, g)) == parse_poly("1", O3)


def _in_x(rng, deg):
    """A random polynomial in O2 of degree deg in x, each coefficient of
    degree at most 2 in y."""
    terms = {(ey, k): rng.randint(-4, 4) for k in range(deg + 1) for ey in range(3)}
    terms[(rng.randrange(3), deg)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return Polynomial(O2, terms)


def _drops_then_divides(a, b):
    """True when the first remainder of a and b drops two or more degrees
    and the two remainders after it are non-zero: the step after the drop
    sets h with delta > 1, and the one after that divides by it."""
    if len(a) < len(b):
        a, b = b, a
    r = _prem(a, b)
    if len(r) > len(b) - 2:
        return False
    r2 = _prem(b, r)
    return bool(r2) and bool(_prem(r, r2))


def test_gcd_planted_factor_degree_drop():
    # cofactors a = s*b + r with deg_x r = deg_x b - 2 >= 2: the first
    # remainder drops two degrees, so the subresultant PRS sets h with
    # delta > 1 and divides by it, on polynomial entries; the cofactors'
    # own resultant reads that h at its last member
    rng = random.Random(43)
    drops = 0
    for _ in range(8):
        h = _in_x(rng, 1)
        b = _in_x(rng, 4)
        a = _in_x(rng, 1) * b + _in_x(rng, 2)
        g = _assert_gcd(h * a, h * b, h)
        assert g == integer_normalized(h * poly_gcd(a, b))
        assert resultant(a, b, "x") == sylvester_resultant(a, b, "x")
        drops += _drops_then_divides((h * a).coeffs_in("x"), (h * b).coeffs_in("x"))
    assert drops == 8


def test_gcd_image_fallbacks():
    # The image test sets y to 2, then to -3.  Here lc(p) = y - 2 vanishes
    # at the first point and the images agree at the second, so it proves
    # nothing and the PRS finds the pair coprime.
    p, q = P("(y - 2)*x + 1"), P("(2*y + 1)*x + 1")
    assert not _coprime_image(p, q)
    assert poly_gcd(p, q) == Polynomial.constant(O2, 1)
    # a common factor whose leading coefficient vanishes at the first point
    h = P("(y - 2)*x + 1")
    assert poly_gcd(h * P("x + 1"), h * P("x - 1")) == h
    # at y = 2 both images are x + 2; at y = -3 they are coprime
    assert _coprime_image(P("x + y"), P("x + 2*y - 2"))
    # a common factor is never ruled out; its content part is kept
    g = P("(y + 1)*(x - y)")
    assert not _coprime_image(g * P("x + 1"), g * P("x*y - 3"))
    assert poly_gcd(g * P("x + 1"), g * P("x*y - 3")) == integer_normalized(g)
    # coprime in x, with a common content
    assert _coprime_image(P("(y + 1)*x"), P("(y + 1)*(x + 1)"))
    assert poly_gcd(P("(y + 1)*x"), P("(y + 1)*(x + 1)")) == P("y + 1")


def test_integer_image_is_the_scaled_specialisation():
    # integer_image(p, point, vi) equals den(p) * prod d_i^deg_i(p) times the
    # Fraction specialisation p.evaluate(...), over the coordinates other
    # than vi, exactly: int and Fraction coefficients, integer and
    # non-integer coordinates, vi None and every position
    rng = random.Random(29)
    names = O3.names
    for trial in range(150):
        p = random_poly(O3, rng)
        if trial % 2:
            p = p + random_poly(O3, rng, terms=2) * Fraction(1, rng.randint(2, 7))
        point = [(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4))) for _ in names]
        den = lcm(*(c.denominator for c in p.terms.values()))
        degs = p.degrees()
        for vi in (None, 0, 1, 2):
            others = [i for i in range(len(names)) if i != vi]
            spec = p.evaluate({names[i]: Fraction(*point[i]) for i in others})
            scale = den * prod(point[i][1] ** degs[i] for i in others)
            if vi is None:
                expected = [spec.constant_value() * scale]
            else:
                expected = [0] * (degs[vi] + 1)
                for e, c in enumerate(spec.coeffs_in(names[vi])):
                    expected[e] = c.constant_value() * scale
            got = integer_image(p, point, vi)
            assert got == expected
            assert all(type(c) is int for c in got)
            # the point is read only where p reads a variable
            assert integer_image(p, {i: point[i] for i in others if degs[i]}, vi) == got
    # a univariate polynomial reads its coefficients with an empty point
    assert integer_image(P("1/2*x^2 - 3/4"), (), 1) == [-3, 0, 2]


def test_content_primitive_examples():
    cont, prim = content_primitive(P("(y^2 - 1)*x^2 + (y^2 - 1)"), "x")
    assert cont == P("y^2 - 1") and prim == P("x^2 + 1")
    cont, prim = content_primitive(P("x + y"), "x")
    assert cont.is_constant() and prim == P("x + y")


def test_content_primitive_reconstruction_random():
    rng = random.Random(3)
    for _ in range(1000):
        p = random_poly(O2, rng)
        if p.is_zero():
            continue
        v = p.main_variable()
        if v is None:
            continue
        cont, prim = content_primitive(p, v)
        assert cont * prim == p


def _fresh(p):
    """A copy of p with nothing computed on it yet."""
    return Polynomial(p.order, dict(p.terms))


def test_kept_content_and_images_change_no_answer():
    # content_primitive keeps p's content in the variable last asked for and
    # _coprime_image keeps p's two images; a polynomial read through both
    # answers as a fresh copy does, and stays equal to it with the same hash
    rng = random.Random(53)
    for trial in range(60):
        p = random_poly(O3, rng)
        if p.degree_in("x") == 0:
            continue
        if trial % 2:  # a content in x of degree > 0
            c = random_poly(O3, rng, max_deg=2, terms=2)
            c = Polynomial(O3, {e: k for e, k in c.terms.items() if not e[2]})
            if not c.is_zero():
                p = p * c
        for v in ("x", "x", "y", "x"):
            assert content_primitive(p, v) == content_primitive(_fresh(p), v)
        q = random_poly(O3, rng)
        if q.degree_in("x"):
            assert _coprime_image(p, q) == _coprime_image(_fresh(p), _fresh(q))
            assert _coprime_image(q, p) == _coprime_image(_fresh(q), _fresh(p))
        assert p == _fresh(p) and hash(p) == hash(_fresh(p))
    # lc(p) = y - 2 vanishes at the first point: p's images were kept from
    # an earlier pair, and the fallback pair still proves nothing
    p, q = P("(y - 2)*x + 1"), P("(2*y + 1)*x + 1")
    assert _coprime_image(p, P("x + y"))
    assert not _coprime_image(p, q) and not _coprime_image(_fresh(p), _fresh(q))
    assert poly_gcd(p, q) == Polynomial.constant(O2, 1)


def test_content_is_taken_once_per_polynomial(monkeypatch):
    # work guard: a second content_primitive on the same object in the same
    # variable reads the kept content and takes no gcd of coefficients
    import cadec.polynomial as polynomial

    calls = []
    real = polynomial._gcd_many
    monkeypatch.setattr(polynomial, "_gcd_many", lambda ps: calls.append(ps) or real(ps))
    p = P("(y^2 - 1)*x^2 + (y^2 - 1)")
    first = content_primitive(p, "x")
    assert calls
    calls.clear()
    assert content_primitive(p, "x") == first
    assert not calls


def test_is_primitive():
    assert is_primitive(P("x^2 + y^2 - 1"), "x")
    assert not is_primitive(P("(y - 1)*x + (y - 1)"), "x")


def test_product_equality_factor_contents():
    # the linking-block product equalities seen as polynomials in a chosen
    # variable: content = the factor not containing it
    o = VarOrder(["y0", "x0", "z", "x", "y"])
    a = parse_poly("(y0 - y)*(y - z)", o)
    cont, _ = content_primitive(a, "z")
    assert integer_normalized(cont) == integer_normalized(parse_poly("y0 - y", o))


def _assert_pseudo_rem(p, q, v):
    """R = prem(p, q), taken by _prem on the coefficient lists in v, has
    deg_v R < deg_v q, and q divides lc_v(q)^(dp - dq + 1) * p - R exactly."""
    r = from_coeffs(_prem(p.coeffs_in(v), q.coeffs_in(v)), v, p.order)
    # the same remainder on lists that mix ints and Polynomials
    assert from_coeffs(_prem(_dense(p, v), _dense(q, v)), v, p.order) == r
    assert r.is_zero() or r.degree_in(v) < q.degree_in(v)
    scale = q.leading_coeff_in(v) ** (p.degree_in(v) - q.degree_in(v) + 1)
    exact_div(scale * p - r, q)
    return r


def test_pseudo_rem_random():
    rng = random.Random(29)
    checked = 0
    while checked < 120:
        order = O2 if checked % 2 else O3
        v = order.names[rng.randrange(len(order))]
        p = random_poly(order, rng, max_deg=4, terms=5)
        q = random_poly(order, rng, max_deg=3, terms=3)
        if q.degree_in(v) < 1 or p.degree_in(v) < q.degree_in(v):
            continue
        _assert_pseudo_rem(p, q, v)
        checked += 1


def test_pseudo_rem_degree_drop_pads():
    # x^3 by y*x^2 + 1: the first step leaves -x, a drop of two degrees, so
    # the remainder is padded by one more factor lc = y
    assert _assert_pseudo_rem(P("x^3"), P("y*x^2 + 1"), "x") == P("-y*x")
    o = O3
    assert (_assert_pseudo_rem(parse_poly("x^3 + z", o), parse_poly("y*z*x^2 + y", o), "x")
            == parse_poly("y^2*z*(z^2 - x)", o))


def _fraction_rem(a, b):
    """a mod b over the rationals, by long division on coefficient lists."""
    a = [Fraction(x) for x in a]
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def test_prem_int_lists_is_scaled_remainder():
    # x^3 by 2x^2 + 1: the first step leaves -x, a drop of two degrees, and
    # the padding makes the scale 2^2, not 2
    assert _prem((0, 0, 0, 1), (1, 0, 2)) == (0, -2)
    assert _prem((5, 1), (1, 0, 2)) == (5, 1)
    assert _prem((2, 3, 1), (1, 1)) == ()
    rng = random.Random(31)
    for _ in range(300):
        b = [rng.randint(-5, 5) for _ in range(rng.randint(2, 4))]
        a = [rng.randint(-5, 5) for _ in range(rng.randint(len(b), 7))]
        if rng.random() < 0.3:
            a[-2] = b[-2] = 0  # the first step drops the degree by two or more
        if not a[-1] or not b[-1]:
            continue
        scale = b[-1] ** (len(a) - len(b) + 1)
        r = _prem(a, b)
        assert all(type(x) is int for x in r)
        assert r == _fraction_rem([scale * x for x in a], b)


def test_prem_polynomial_lists_is_scaled_remainder():
    # the same identity with v-free Polynomial entries, and the drop of two
    # degrees above on polynomial lists
    y = P("y")
    one, zero = P("1"), P("0")
    assert _prem([zero, zero, zero, one], [one, zero, y]) == (zero, -y)
    rng = random.Random(37)
    checked = 0
    while checked < 60:
        p = random_poly(O2, rng, max_deg=4, terms=5)
        q = random_poly(O2, rng, max_deg=3, terms=3)
        dp, dq = p.degree_in("x"), q.degree_in("x")
        if dq < 1 or dp < dq:
            continue
        r = _prem(p.coeffs_in("x"), q.coeffs_in("x"))
        assert len(r) <= dq and (not r or r[-1])
        assert all(not c or c.degree_in("x") == 0 for c in r)
        scale = q.leading_coeff_in("x") ** (dp - dq + 1)
        exact_div(scale * p - from_coeffs(r, "x", O2), q)
        checked += 1


def _int_poly(rng, deg):
    return [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_ugcd_matches_reference_gcd():
    # planted common factors h; in every other pair the cofactors are
    # a = s*b + r with 2 <= deg r <= deg b - 2, so the first remainder drops
    # two or more degrees and the PRS sets h with delta > 1 and divides by
    # it, on ints
    rng = random.Random(41)
    drops = 0
    for i in range(400):
        h = _int_poly(rng, rng.randint(0, 3))
        b = _int_poly(rng, rng.randint(4, 6))
        drop = i % 2 == 1
        if drop:
            r = _int_poly(rng, rng.randint(2, len(b) - 3))
            a = [x + (r[k] if k < len(r) else 0)
                 for k, x in enumerate(_int_mul(_int_poly(rng, rng.randint(0, 2)), b))]
        else:
            a = _int_poly(rng, rng.randint(0, 7))
        a, b = tuple(_int_mul(h, a)), tuple(_int_mul(h, b))
        ref = reference_gcd(a, b)
        ref = primitive(tuple(int(x * lcm(*(y.denominator for y in ref))) for x in ref))
        assert ugcd(a, b) == ugcd(b, a) == ref, (a, b)
        drops += drop and _drops_then_divides(a, b)
    assert drops >= 190


def test_polynomial_truth_is_non_zero():
    assert not Polynomial.zero(O2)
    assert not P("x*y - y*x")
    assert P("x - y")
    assert P("-1/2")


def test_from_coeffs_inverts_coeffs_in():
    p = parse_poly("3*x^2*y - z*x + y*z^2 - 7", O3)
    for v in O3.names:
        assert from_coeffs(p.coeffs_in(v), v, O3) == p
    assert from_coeffs([], "x", O3).is_zero()


def _assert_no_constant_polynomial(p, q, v):
    a, b = _dense(p, v), _dense(q, v)
    if len(a) < len(b):
        a, b = b, a
    prev, last, h, odd = _subresultant_prs(a, b)
    for member in (prev, last):
        assert all(type(c) is int or not c.is_constant() for c in member), (p, q)


def test_dense_split_keeps_integers_as_ints():
    # _dense(p, v) rebuilds p, gives every integral constant coefficient as
    # an int and every other one as a Polynomial free of v
    rng = random.Random(71)
    for trial in range(120):
        p = random_poly(O3, rng, max_deg=3, terms=5, den=1 if trial % 3 else 4)
        for v in O3.names:
            split = _dense(p, v)
            assert from_coeffs(split, v, O3) == p
            assert len(split) == p.degree_in(v) + 1
            for c in split:
                if type(c) is not int:
                    assert c and c.degree_in(v) == 0
                    assert not (c.is_constant() and type(c.constant_value()) is int)
    assert _dense(P("x^2*y + 3*x - 1/2"), "x") == [P("-1/2"), 3, P("y")]
    assert _dense(P("x^3 - 2"), "x") == [-2, 0, 0, 1]
    assert _dense(Polynomial.zero(O2), "x") == [0]
    # nor do the members the subresultant PRS returns on such lists hold a
    # constant Polynomial, where sums of Polynomial entries cancel to an
    # integer: entries of degree 1 in y with coefficients in -2..2 cancel
    # often enough, and the first pair is one where they do
    _assert_no_constant_polynomial(P("-x^2 - x"), P("2*x^2*y + x^2 + 2*x*y - 1"), "x")
    for _ in range(400):
        p, q = (Polynomial(O2, {(rng.randint(0, 1), i): rng.randint(-2, 2)
                                for i in range(d + 1) for _ in range(2)}) for d in (3, 2))
        if p.degree_in("x") >= 1 and q.degree_in("x") >= 1:
            _assert_no_constant_polynomial(p, q, "x")


def test_subresultant_prs_mixed_lists_match_polynomial_lists():
    # the PRS on _dense lists (ints and Polynomials) against the PRS on
    # coeffs_in lists (Polynomials only): the same members, scale and sign
    def poly(c):
        return c if isinstance(c, Polynomial) else Polynomial.constant(O3, c)

    rng = random.Random(73)
    checked = 0
    while checked < 80:
        p = random_poly(O3, rng, max_deg=3, terms=5)
        q = random_poly(O3, rng, max_deg=3, terms=4)
        v = O3.names[checked % 3]
        if p.degree_in(v) < q.degree_in(v):
            p, q = q, p
        if q.degree_in(v) < 1:
            continue
        mixed = _subresultant_prs(_dense(p, v), _dense(q, v))
        plain = _subresultant_prs(p.coeffs_in(v), q.coeffs_in(v))
        for got, want in zip(mixed[:2], plain[:2]):
            assert from_coeffs(got, v, O3) == from_coeffs(want, v, O3)
        assert poly(mixed[2]) == poly(plain[2]) and mixed[3] == plain[3]
        checked += 1


@pytest.mark.parametrize("den", [1, 6], ids=["int", "fraction"])
def test_projection_kernels_match_oracles(den):
    # resultant, discriminant and poly_gcd on random 3-variable inputs, with
    # int and with Fraction coefficients: the resultants against the
    # Sylvester determinants, and the gcd of a pair with a planted factor
    # divides both inputs exactly and is divided by the factor
    rng = random.Random(79 + den)
    for k in range(150):
        p = random_poly(O3, rng, max_deg=2, terms=4, den=den)
        q = random_poly(O3, rng, max_deg=2, terms=4, den=den)
        h = random_poly(O3, rng, max_deg=2, terms=2, den=den)
        v = O3.names[k % 3]
        if p.degree_in(v) >= 1 and q.degree_in(v) >= 1:
            assert resultant(p, q, v) == sylvester_resultant(p, q, v)
        if p.degree_in(v) >= 2:
            assert discriminant(p, v) * p.leading_coeff_in(v) == sylvester_discriminant(p, v)
        if p.is_zero() or q.is_zero() or h.is_zero():
            continue
        g = poly_gcd(p * h, q * h)
        exact_div(p * h, g), exact_div(q * h, g)
        if not h.is_constant():
            exact_div(g, h)
    if den > 1:
        # rational inputs whose remainder sequences, unscaled, meet an
        # integer entry over an integer divisor that does not divide it in
        # the integers
        assert poly_gcd(P("(x - 2)*(x^2 + x + 3/2)"),
                        P("(x - 2)*(2*x^2 + x - 1)")) == P("x - 2")
        p, q = P("2*x^3 - 2/3"), P("3*x^3 + x^2 + 1")
        assert resultant(p, q, "x") == sylvester_resultant(p, q, "x")


def test_resultant_examples():
    assert resultant(P("x^2 + y^2 - 1"), P("x - y"), "x") == P("2*y^2 - 1")
    # common factor => zero resultant
    assert resultant(P("(x - y)*(x + 1)"), P("(x - y)*(x - 2)"), "x").is_zero()


def test_resultant_sylvester_oracle_random():
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        p = random_poly(O3, rng, max_deg=3, terms=4)
        q = random_poly(O3, rng, max_deg=3, terms=4)
        v = "z"
        if p.degree_in(v) < 1 or q.degree_in(v) < 1:
            continue
        assert resultant(p, q, v) == sylvester_resultant(p, q, v)
        checked += 1


def test_discriminant():
    assert discriminant(P("x^2 - 2"), "x") == Polynomial.constant(O2, Fraction(8))
    assert discriminant(P("(x - 1)*(x - 1)"), "x").is_zero()


def test_discriminant_sylvester_oracle_random():
    # discriminant(p, v) * lc_v(p) is the signed Sylvester resultant of p
    # and dp/dv; the oracle divides nothing
    rng = random.Random(59)
    checked = 0
    while checked < 80:
        p = random_poly(O3, rng, max_deg=3, terms=4)
        if checked % 3 == 0:
            p = p * Fraction(1, rng.randint(2, 5))
        v = O3.names[checked % 3]
        if p.degree_in(v) < 2:
            continue
        assert discriminant(p, v) * p.leading_coeff_in(v) == sylvester_discriminant(p, v)
        checked += 1


def test_squarefree():
    p = P("(x - y)*(x - y)*(x + 1)")
    sf = squarefree_part(p, "x")
    assert integer_normalized(sf) == integer_normalized(P("(x - y)*(x + 1)"))


def test_squarefree_basis_invariants():
    basis = squarefree_basis({P("(x-1)*(x-2)"), P("(x-2)*(x-3)"), P("x^2-1")}, "x")
    for b in basis:
        if b.degree_in("x") >= 2:
            assert not discriminant(b, "x").is_zero()
    bs = sorted(basis, key=poly_to_str)
    for i, a in enumerate(bs):
        for b in bs[i + 1:]:
            assert not resultant(a, b, "x").is_zero()


# ---------------------------------------------------------------------------
# coefficient types: an int when integral, a Fraction otherwise


def _all_int(p):
    return all(type(c) is int for c in p.terms.values())


def test_integral_inputs_keep_int_coefficients():
    p, q = P("3*x^2*y - 2*y + 7"), P("(x - y)*(2*x + 3)")
    assert _all_int(p) and _all_int(q)
    assert _all_int(P("(1/2)*x*2 + 4/2"))
    assert _all_int(integer_normalized(P("(2/3)*x^2 - (4/9)*y")))
    assert _all_int(resultant(p, q, "x")) and _all_int(resultant(p, q, "y"))
    assert _all_int(discriminant(q, "x")) and _all_int(discriminant(p * q, "x"))
    g = P("x + y")
    assert _all_int(poly_gcd(g * P("x - 1"), g * P("y^2 + 2")))
    assert _all_int(poly_gcd(p * g, q * g))
    basis = squarefree_basis({P("(x-1)*(x-2)"), P("(x-2)*(x-3)"), P("x^2-1"), p}, "x")
    assert basis and all(_all_int(b) for b in basis)
    assert type(Polynomial.zero(O2).constant_value()) is int


def test_exact_div_non_integral_quotient():
    p, q = P("x^2 + x*y + 1"), P("3")
    quotient = exact_div(p, q)
    assert quotient.terms[(0, 2)] == Fraction(1, 3)
    assert type(quotient.terms[(0, 2)]) is Fraction
    assert quotient * q == p
    p, q = P("x^2 - y^2"), P("2*x - 2*y")
    quotient = exact_div(p, q)
    assert quotient == P("(1/2)*x + (1/2)*y") and quotient * q == p
    assert all(type(c) is Fraction for c in quotient.terms.values())


def test_float_coefficient_refused():
    with pytest.raises(TypeError):
        Polynomial.constant(O2, 0.5)
    with pytest.raises(TypeError):
        Polynomial.monomial(O2, (1, 0), 1.5)
    with pytest.raises(TypeError):
        P("x + 1") * 2.0


def test_int_and_fraction_coefficients_equal_and_hash_alike():
    a = Polynomial.monomial(O2, (1, 2), 3) + Polynomial.constant(O2, -1)
    b = Polynomial(O2, {(1, 2): Fraction(3), (0, 0): Fraction(-1)}, _clean=True)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert Polynomial.constant(O2, 3) == Polynomial.constant(O2, Fraction(3))
    assert hash(Polynomial.constant(O2, 3)) == hash(Polynomial.constant(O2, Fraction(3)))
    assert str(a) == str(b)


def test_resultant_sylvester_oracle_mixed_coefficients():
    rng = random.Random(43)
    checked = 0
    while checked < 60:
        p = random_poly(O3, rng, max_deg=3, terms=4)
        q = random_poly(O3, rng, max_deg=3, terms=4) * Fraction(1, rng.randint(2, 5))
        p = p + Polynomial.monomial(O3, (1, 0, 0), Fraction(rng.randint(1, 7), 2))
        if p.degree_in("z") < 1 or q.degree_in("z") < 1:
            continue
        assert not _all_int(q)
        assert resultant(p, q, "z") == sylvester_resultant(p, q, "z")
        checked += 1


def _degrees_from_terms(p):
    return tuple(max((e[i] for e in p.terms), default=0) for i in range(len(p.order)))


def _assert_degree_cache(p):
    # read twice: the cached vector and the set derived from it
    for _ in range(2):
        degrees = _degrees_from_terms(p)
        assert p.degrees() == degrees
        assert p.variables() == {n for n, d in zip(p.order.names, degrees) if d}
        assert all(p.degree_in(n) == d for n, d in zip(p.order.names, degrees))
    assert isinstance(p.variables(), frozenset)


def test_degree_vector_matches_terms():
    rng = random.Random(1205)
    _assert_degree_cache(Polynomial.zero(O3))
    _assert_degree_cache(Polynomial.constant(O3, 5))
    _assert_degree_cache(Polynomial.constant(O3, Fraction(2, 3)))
    assert Polynomial.zero(O3).main_variable() is None
    for _ in range(40):
        p, q = random_poly(O3, rng), random_poly(O3, rng)
        for r in (p + q, p - q, p * q, p ** 2, p ** 0, p - p, -p, p * Fraction(1, 2),
                  exact_div(p * q, q) if not q.is_zero() else q,
                  p.evaluate({"y": Fraction(rng.randint(-3, 3), rng.randint(1, 3))}),
                  p.evaluate({"z": 0, "y": 1, "x": 2})):
            _assert_degree_cache(r)
            main = r.main_variable()
            assert main == (max(r.variables(), key=O3.index) if r.variables() else None)
