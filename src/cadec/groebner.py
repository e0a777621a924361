"""Buchberger's algorithm, ideal dimension, and elimination ideals.

normal_form divides by a heap, fraction-free: on integers, by the
pseudo-division of Geddes, Czapor and Labahn (Algorithms for Computer
Algebra, 1992, ch. 10).  Each generator is taken once as a divisor: its
leading monomial, and the generator scaled to integers of content 1, split
into its leading coefficient a and its tail.  The dividend is scaled to
integers by the lcm of its denominators and lives in one mutable
{exponent: int} map, beside one integer scale: the map is scale times the
part of the dividend still to divide.  A heap of order keys yields its next
largest monomial, and a term that cancelled is dropped when it surfaces.
A step on the term c*m, with g = gcd(c, a), multiplies the map and the
scale by a/g (when it is not 1) and subtracts (c/g) * shift * tail term by
term, so no Polynomial and no Fraction is built per step.  A term that no
generator reduces goes to the remainder divided by the scale in force at
that moment, so the remainder is the exact one over Q.  The divisor of a
term is still the first generator, in basis.gens order, whose leading
monomial divides it, so the remainder is that of plain multivariate
division for every basis, Groebner or not.

buchberger keeps a pair set under the Gebauer-Moeller update (1988).  A new
generator h pairs with each live generator g.  Of these pairs, criterion F
keeps one per lcm, criterion M drops one whose lcm another new lcm properly
divides, and the coprime criterion drops those whose leading monomials share
no variable (after they have served M and F).  Criterion B drops an old pair
(f, g) whose lcm LM(h) divides, unless lcm(LM(f), LM(h)) or
lcm(LM(g), LM(h)) equals it.  A generator is live until a later one's
leading monomial divides its own, and S-polynomials are reduced by the live
generators only; an input generator is reduced by them before it joins.
The next pair is the one with the smallest lcm under the monomial order
(the normal strategy).  Each generator is held once, as integers of
content 1 (integer_normalized), and its divisor entry is read off that same
polynomial.  s_polynomial gives the S-polynomial up to a non-zero rational
factor, on ints.

The live generators form a Groebner basis with pairwise non-dividing
leading monomials, so reducing each by the others and dividing it by its
leading coefficient gives the reduced monic basis.  That basis is unique
for the ideal and the order, so neither the pair order nor the criteria
change any output.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import itemgetter, le

from .polynomial import (
    Polynomial, PolynomialError, coeff_quotient, integer_normalized, integer_terms,
)


class GroebnerError(PolynomialError):
    pass


class MonomialOrder:
    """A monomial order (lex or degrevlex) tied to a variable ordering.

    lex compares the highest variable of the VarOrder first, so a lex
    Groebner basis eliminates variables from the top down.
    """

    __slots__ = ("kind", "order")

    def __init__(self, kind, order):
        if kind not in ("lex", "degrevlex"):
            raise GroebnerError("unknown monomial order %r" % kind)
        self.kind = kind
        self.order = order

    def key(self, expt):
        if self.kind == "lex":
            return tuple(reversed(expt))
        return (sum(expt), tuple(-e for e in expt))

    def heap_key(self, expt):
        """The negation of key(expt): the largest monomial sorts first."""
        if self.kind == "lex":
            return tuple(-e for e in reversed(expt))
        return (-sum(expt), expt)

    def leading(self, p):
        if p.is_zero():
            raise GroebnerError("leading term of zero polynomial")
        expt = max(p.terms, key=self.key)
        return expt, p.terms[expt]

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.order == other.order)

    def __hash__(self):
        return hash((self.kind, self.order))

    def __repr__(self):
        return "MonomialOrder(%s, %r)" % (self.kind, self.order.names)


class IdealBasis:
    """A generating set of an ideal under a monomial order."""

    __slots__ = ("gens", "morder", "is_groebner", "_divisors")

    def __init__(self, gens, morder, is_groebner=False, _divisors=None):
        self.gens = tuple(gens)
        self.morder = morder
        self.is_groebner = is_groebner
        self._divisors = _divisors

    @property
    def order(self):
        return self.morder.order

    def divisors(self):
        """(leading monomial, leading coefficient, tail) of each non-zero
        generator scaled to integers of content 1, in gens order; computed
        once.  The tail is a list of (exponent, int) pairs."""
        if self._divisors is None:
            self._divisors = [_divisor(integer_normalized(g), self.morder)
                              for g in self.gens if not g.is_zero()]
        return self._divisors

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return "IdealBasis([%s], %s)" % (
            "; ".join(str(g) for g in self.gens), self.morder.kind)


def _divides_mono(a, b):
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _divisor(h, morder):
    # h has int coefficients of content 1
    lead, lc = morder.leading(h)
    return lead, lc, [(e, c) for e, c in h.terms.items() if e != lead]


def normal_form(p, basis):
    """Remainder of multivariate division of p by the basis generators.

    Each term is divided by the first generator, in basis.gens order, whose
    leading monomial divides it.  The division runs on integers (see the
    module docstring); the remainder is exact over Q."""
    morder = basis.morder
    order = morder.order
    if p.order != order:
        raise GroebnerError("mixed variable orderings")
    divisors = basis.divisors()
    heap_key = morder.heap_key
    scale, work = integer_terms(p)
    work = dict(work)
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    remainder = {}
    while heap:
        expt = heappop(heap)[1]
        coeff = work.pop(expt, None)
        if coeff is None:
            continue  # the term cancelled, or was taken from an earlier entry
        for lead, lc, tail in divisors:
            if all(map(le, lead, expt)):
                g = gcd(coeff, lc)
                mult = lc // g
                if mult != 1:
                    work = {e: c * mult for e, c in work.items()}
                    scale *= mult
                coeff //= g
                shift = [a - b for a, b in zip(expt, lead)]
                for texpt, tcoeff in tail:
                    m = tuple(map(int.__add__, shift, texpt))
                    c = work.get(m)
                    if c is None:
                        work[m] = -coeff * tcoeff
                        heappush(heap, (heap_key(m), m))
                    else:
                        c -= coeff * tcoeff
                        if c:
                            work[m] = c
                        else:
                            del work[m]
                break
        else:
            remainder[expt] = coeff_quotient(coeff, scale)
    return Polynomial(order, remainder, _clean=True)


def s_polynomial(f, g, morder):
    """(b/h)*m_f*f - (a/h)*m_g*g: the S-polynomial up to a non-zero rational
    factor, which does not change whether a normal form is zero.  a and b
    are the leading coefficients, m_f and m_g the cofactors of the leading
    monomials in their lcm, and h = gcd(a, b) on ints (else 1), so integral
    input gives ints and no Fraction."""
    (ef, a) = morder.leading(f)
    (eg, b) = morder.leading(g)
    if type(a) is int and type(b) is int:
        h = gcd(a, b)
        a, b = a // h, b // h
    lcm = _lcm(ef, eg)
    order = morder.order
    mf = Polynomial.monomial(order, [x - y for x, y in zip(lcm, ef)], b)
    mg = Polynomial.monomial(order, [x - y for x, y in zip(lcm, eg)], a)
    return mf * f - mg * g


def buchberger(gens, morder):
    """Reduced Groebner basis of the ideal generated by gens."""
    found = []  # every generator inserted, as integers of content 1
    divs = []   # their divisor entries, as IdealBasis.divisors() lists them
    leads = []  # their leading monomials
    live = []   # indices of the live generators, in insertion order
    pairs = {}  # (i, j) with i < j -> (order key of the lcm, lcm)
    live_basis = IdealBasis((), morder)

    def insert(r):
        nonlocal live, live_basis
        found.append(integer_normalized(r))
        divs.append(_divisor(found[-1], morder))
        leads.append(divs[-1][0])
        live = _update(len(found) - 1, leads, live, pairs, morder)
        live_basis = IdealBasis([found[k] for k in live], morder,
                                _divisors=[divs[k] for k in live])

    for g in gens:
        if not g.is_zero():
            # reduced first, so that no live leading monomial divides another
            r = normal_form(g, live_basis)
            if not r.is_zero():
                insert(r)
    while pairs:
        i, j = min(pairs, key=pairs.get)  # the normal strategy
        del pairs[i, j]
        r = normal_form(s_polynomial(found[i], found[j], morder), live_basis)
        if not r.is_zero():
            insert(r)
    return IdealBasis(_autoreduce(live_basis), morder, is_groebner=True)


def _update(ih, leads, live, pairs, morder):
    """Gebauer-Moeller update of the pair set for the new generator ih;
    returns the new live list."""
    lh = leads[ih]
    # criterion B: LM(h) divides the lcm m of (i, j), and neither
    # lcm(LM(i), LM(h)) nor lcm(LM(j), LM(h)) is m
    for (i, j), (_, m) in list(pairs.items()):
        if (_divides_mono(lh, m) and _lcm(leads[i], lh) != m
                and _lcm(leads[j], lh) != m):
            del pairs[i, j]
    # criterion F: one pair per lcm, a coprime one where there is one
    new = {}
    for ig in live:
        lg = leads[ig]
        m = _lcm(lg, lh)
        coprime = not any(a and b for a, b in zip(lg, lh))
        if coprime or m not in new:
            new[m] = (ig, coprime)
    for m, (ig, coprime) in new.items():
        # the coprime criterion, then criterion M
        if not coprime and not any(n != m and _divides_mono(n, m) for n in new):
            pairs[ig, ih] = (morder.key(m), m)
    return [ig for ig in live if not _divides_mono(lh, leads[ig])] + [ih]


def _autoreduce(basis):
    # no leading monomial divides another, so every leading term survives
    # the reduction of its generator by the others, which is then made monic
    gens, divs, morder = basis.gens, basis.divisors(), basis.morder
    result = []
    for i, g in enumerate(gens):
        others = IdealBasis(gens[:i] + gens[i + 1:], morder,
                            _divisors=divs[:i] + divs[i + 1:])
        lead, lc, _ = divs[i]
        result.append((morder.key(lead), normal_form(g, others) // lc))
    result.sort(key=itemgetter(0))
    return [g for _, g in result]


def is_trivial(basis):
    """Does the basis generate the unit ideal?"""
    return any(g.is_constant() and not g.is_zero() for g in basis.gens)


def dimension(basis):
    """Krull dimension: the largest set S of variables such that no leading
    monomial involves only variables of S.  Dimension of <0> is n, of <1>
    is reported as -1 by convention."""
    if not basis.is_groebner:
        raise GroebnerError("dimension needs a Groebner basis")
    names = basis.order.names
    n = len(names)
    gens = [g for g in basis.gens if not g.is_zero()]
    if not gens:
        return n
    if is_trivial(basis):
        return -1
    supports = []
    for g in gens:
        expt, _ = basis.morder.leading(g)
        supports.append(frozenset(i for i, e in enumerate(expt) if e))
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            sset = set(subset)
            if all(not supp <= sset for supp in supports):
                return size
    return 0


def elimination_ideal(basis, keep):
    """Generators of the elimination ideal onto the keep variables.

    Requires a lex Groebner basis; keep must be a downward-closed prefix of
    the variable ordering (the lowest variables)."""
    if basis.morder.kind != "lex":
        raise GroebnerError("elimination requires a lex Groebner basis")
    if not basis.is_groebner:
        raise GroebnerError("elimination requires a Groebner basis")
    names = basis.order.names
    keep = set(keep)
    prefix = set(names[:len(keep)])
    if keep != prefix:
        raise GroebnerError(
            "keep set %r is not a prefix of the ordering %r" % (sorted(keep), names))
    return {g for g in basis.gens if g.variables() <= keep}
