import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cadec.polynomial import Polynomial, VarOrder, parse_poly, resultant
from cadec.groebner import (
    GroebnerError, IdealBasis, MonomialOrder, buchberger, dimension,
    elimination_ideal, is_trivial, normal_form, s_polynomial,
)
from oracles import reference_groebner, reference_normal_form, reference_s_polynomial

OZ = VarOrder(["y", "x", "z"])  # z highest


def P(text, order=OZ):
    return parse_poly(text, order)


def lex(order=OZ):
    return MonomialOrder("lex", order)


O4 = VarOrder(["w", "y", "x", "z"])


def random_poly(order, rng, terms=3, top=2, den=1):
    """terms random terms, with coefficients n/d for -5 <= n <= 5 and
    1 <= d <= den."""
    p = Polynomial.zero(order)
    for _ in range(terms):
        expt = tuple(rng.randint(0, top) for _ in range(len(order)))
        coeff = Fraction(rng.randint(-5, 5))
        if den > 1:
            coeff /= rng.randint(1, den)
        p = p + Polynomial.monomial(order, expt, coeff)
    return p


def test_spolys_reduce_to_zero_random():
    rng = random.Random(13)
    bases = 0
    while bases < 30:
        gens = [random_poly(OZ, rng) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = buchberger(gens, lex())
        for i, f in enumerate(basis.gens):
            for g in basis.gens[i + 1:]:
                assert normal_form(s_polynomial(f, g, basis.morder), basis).is_zero()
        bases += 1


def test_membership():
    basis = buchberger([P("z^2 - x"), P("z^2 - y")], lex())
    assert normal_form(P("x - y"), basis).is_zero()
    assert not normal_form(P("x + y"), basis).is_zero()


def test_normal_form_idempotent():
    basis = buchberger([P("z^2 - x"), P("x*y - 1")], lex())
    r = normal_form(P("z^4*y + x"), basis)
    assert normal_form(r, basis) == r


def test_dimension_examples():
    o = VarOrder(["y", "x"])
    m = MonomialOrder("lex", o)
    b = buchberger([parse_poly("x - y^2", o), parse_poly("y^4 - y", o)], m)
    assert dimension(b) == 0
    assert dimension(buchberger([P("z - x*y")], lex())) == 2
    assert dimension(buchberger([], lex())) == 3
    assert dimension(buchberger([P("2")], lex())) == -1


def test_trivial_ideal():
    basis = buchberger([P("x"), P("x + 1")], lex())
    assert is_trivial(basis)


def test_elimination_degree_collapse():
    # resultant-based propagation squares the common factor; the lex
    # Groebner route recovers the degree-1 generator
    basis = buchberger([P("z^2 - x"), P("z^2 - y")], lex())
    elim = elimination_ideal(basis, ("y", "x"))
    assert elim == {P("x - y")}
    res = resultant(P("z^2 - x"), P("z^2 - y"), "z")
    assert res == P("(x - y)^2") or res == P("-(x - y)^2")


def test_elimination_requires_prefix():
    basis = buchberger([P("z^2 - x")], lex())
    with pytest.raises(GroebnerError):
        elimination_ideal(basis, ("z",))


def test_dimension_requires_groebner():
    raw = IdealBasis([P("z^2 - x"), P("z^2 - y")], lex())
    with pytest.raises(GroebnerError):
        dimension(raw)


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
@pytest.mark.parametrize("order", [OZ, O4], ids=["3vars", "4vars"])
def test_normal_form_matches_reference_division(kind, order):
    # random generator lists are not Groebner bases, so the remainder
    # depends on which generator divides each term: the first that can.
    # From trial 40 on, dividends and generators have non-integral
    # coefficients, and a generator with leading coefficient -2, -3 or -4
    # goes first, so that the integer division rescales the dividend.
    rng = random.Random(7)
    morder = MonomialOrder(kind, order)
    for trial in range(80):
        den = 1 if trial < 40 else 6
        gens = [random_poly(order, rng, den=den) for _ in range(rng.randint(1, 4))]
        if trial % 3 == 1:
            gens.insert(rng.randrange(len(gens) + 1), Polynomial.zero(order))
        g = gens[-1]
        if trial % 3 == 2 and not g.is_constant():
            # a repeated leading monomial with a different tail, ahead of g
            expt, coeff = morder.leading(g)
            twin = Polynomial.monomial(order, expt, coeff) + rng.randint(1, 5)
            gens.insert(rng.randrange(len(gens)), twin)
        if trial >= 40:
            lead = random_poly(order, rng, terms=2, top=1, den=den)
            if not lead.is_zero():
                expt, coeff = morder.leading(lead)
                gens.insert(0, lead * Fraction(-rng.randint(2, 4) * coeff.denominator,
                                               coeff.numerator))
        p = random_poly(order, rng, terms=6, top=3, den=den)
        assert (normal_form(p, IdealBasis(gens, morder))
                == reference_normal_form(p, gens, morder))


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
def test_divisors_hold_integers_of_content_one(kind):
    # each entry is its generator times a rational, with int coefficients of
    # content 1; the monic basis has Fraction tails
    morder = MonomialOrder(kind, OZ)
    raw = IdealBasis([P("2/3*z^2 - 4/9*x + 2"), P("-6*x*y + 4*y - 10"), P("x")], morder)
    monic = buchberger([P("3*z^2 - x"), P("2*z*x - 5*y + 1"), P("7*y^2 - 3")], morder)
    assert any(type(c) is Fraction for g in monic for c in g.terms.values())
    for basis in (raw, monic):
        assert len(basis.divisors()) == len(basis.gens)
        for g, (lead, lc, tail) in zip(basis.gens, basis.divisors()):
            glead, gcoeff = morder.leading(g)
            assert lead == glead
            coeffs = [lc] + [c for _, c in tail]
            assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1
            scaled = Polynomial(OZ, {lead: lc, **dict(tail)})
            assert scaled * gcoeff == g * lc


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
def test_s_polynomial_is_a_rational_multiple_of_the_reference(kind):
    # s_polynomial scales the S-polynomial by a non-zero rational, and on
    # integral input builds ints only; from trial 60 on, coefficients are
    # rational
    rng = random.Random(37)
    morder = MonomialOrder(kind, O4)
    for trial in range(120):
        den = 1 if trial < 60 else 6
        f, g = (random_poly(O4, rng, terms=4, den=den) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        s = s_polynomial(f, g, morder)
        ref = reference_s_polynomial(f, g, morder)
        if ref.is_zero():
            assert s.is_zero()
        else:
            expt, coeff = morder.leading(ref)
            factor = Fraction(s.terms.get(expt, 0)) / coeff
            assert factor != 0 and s == ref * factor
        lcm = tuple(map(max, morder.leading(f)[0], morder.leading(g)[0]))
        assert lcm not in s.terms
        if all(type(c) is int for p in (f, g) for c in p.terms.values()):
            assert all(type(c) is int for c in s.terms.values())


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
def test_buchberger_matches_reference(kind):
    rng = random.Random(29)
    morder = MonomialOrder(kind, OZ)
    ideals = [[random_poly(OZ, rng) for _ in range(rng.randint(1, 3))]
              for _ in range(12)]
    # rational coefficients; two terms each keep the plain reference fast
    ideals += [[random_poly(OZ, rng, terms=2, den=6) for _ in range(3)]
               for _ in range(4)]
    ideals += [
        [],
        [Polynomial.zero(OZ)],
        [P("x"), P("x + 1")],
        # LM(x*y - 1) divides the lcm x^2*y^2 of the first two generators'
        # pair and raises neither part of it: criterion B drops that pair
        [P("x^2*y - x"), P("x*y^2 - y"), P("x*y - 1")],
    ]
    for gens in ideals:
        basis = buchberger(gens, morder)
        assert list(basis.gens) == reference_groebner(gens, morder)
        assert all(morder.leading(g)[1] == 1 for g in basis)
        for f, g in combinations(basis.gens, 2):
            assert normal_form(s_polynomial(f, g, morder), basis).is_zero()
        for g in gens:
            assert normal_form(g, basis).is_zero()
    assert buchberger(ideals[-4], morder).gens == ()
    assert buchberger(ideals[-2], morder).gens == (P("1"),)
    assert buchberger(ideals[-1], morder).gens == (P("x*y - 1"),)
