"""Independent oracle implementations used only by the tests.

Deliberately written with different algorithms from the package: dense
Sylvester-matrix determinants (vs subresultant PRS), textbook Sturm
sequences on Fraction lists (vs Descartes bisection), so agreement is
meaningful.
"""

import math
from fractions import Fraction

from cadec.polynomial import Polynomial, VarOrder
from cadec.realalg import _TVAR, _defining_poly, _memo_resultant, trim


# ---------------------------------------------------------------------------
# dense Sylvester determinant


def _det(matrix):
    """Exact determinant by cofactor expansion with memoization on the
    surviving-column mask (entries are Polynomials or Fractions)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    zero = None
    for row in matrix:
        for e in row:
            if isinstance(e, Polynomial):
                zero = Polynomial.zero(e.order)
                one = Polynomial.constant(e.order, Fraction(1))
                break
        if zero is not None:
            break
    if zero is None:
        zero, one = Fraction(0), Fraction(1)

    cache = {}

    def is_zero(e):
        return e.is_zero() if isinstance(e, Polynomial) else e == 0

    def rec(row, mask):
        if row == n:
            return one
        key = mask
        if key in cache:
            return cache[key]
        total = zero
        sign = 1
        for col in range(n):
            bit = 1 << col
            if not mask & bit:
                continue
            e = matrix[row][col]
            if not is_zero(e):
                sub = rec(row + 1, mask & ~bit)
                term = e * sub
                total = total + term if sign > 0 else total - term
            sign = -sign
        cache[key] = total
        return total

    return rec(0, (1 << n) - 1)


def sylvester_resultant(p, q, v):
    """res_v(p, q) from the dense Sylvester matrix."""
    dp, dq = p.degree_in(v), q.degree_in(v)
    if dp < 1 or dq < 1:
        raise ValueError("both inputs need positive degree in v")
    pc = list(p.coeffs_in(v))  # ascending
    qc = list(q.coeffs_in(v))
    n = dp + dq
    zero = Polynomial.zero(p.order)
    rows = []
    for i in range(dq):
        row = [zero] * n
        for j, c in enumerate(reversed(pc)):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [zero] * n
        for j, c in enumerate(reversed(qc)):
            row[i + j] = c
        rows.append(row)
    return _det(rows)


def sylvester_discriminant(p, v):
    """(-1)^(d(d-1)/2) res_v(p, dp/dv) from the dense Sylvester matrix, d
    the degree of p in v: the discriminant times lc_v(p), with no
    division."""
    d = p.degree_in(v)
    res = sylvester_resultant(p, p.derivative(v), v)
    return -res if (d * (d - 1) // 2) % 2 else res


# ---------------------------------------------------------------------------
# textbook Sturm machinery on ascending Fraction coefficient lists


def _deg(c):
    return len(c) - 1


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _neg(c):
    return [-x for x in c]


def _rem(a, b):
    a = _strip(a)
    b = _strip(b)
    while _deg(a) >= _deg(b) and a:
        k = _deg(a) - _deg(b)
        factor = a[-1] / b[-1]
        for i, x in enumerate(b):
            a[i + k] -= factor * x
        a = _strip(a)
    return a


def reference_gcd(a, b):
    """Monic gcd of two non-zero coefficient lists over Q: Euclid's algorithm
    on _rem."""
    a, b = _strip(map(Fraction, a)), _strip(map(Fraction, b))
    while b:
        a, b = b, _rem(a, b)
    return [x / a[-1] for x in a]


def _eval(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def sturm_chain(c):
    c = _strip(c)
    d = [i * x for i, x in enumerate(c)][1:]
    chain = [c, _strip(d)]
    while chain[-1] and _deg(chain[-1]) > 0:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_neg(r))
    return [s for s in chain if s]


def _variations(chain, x):
    signs = []
    for s in chain:
        v = _eval(s, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_between(coeffs, a, b):
    """Number of distinct real roots in (a, b] of the squarefree part."""
    c = _strip([Fraction(x) for x in coeffs])
    g = c
    # squarefree via gcd with derivative (monic Euclid)
    d = _strip([i * x for i, x in enumerate(c)][1:])
    while d:
        g, d = d, _rem(g, d)
    if _deg(g) > 0:
        q = [Fraction(0)] * (_deg(c) - _deg(g) + 1)
        rest = list(c)
        while rest and _deg(rest) >= _deg(g):
            k = _deg(rest) - _deg(g)
            f = rest[-1] / g[-1]
            q[k] = f
            for i, x in enumerate(g):
                rest[i + k] -= f * x
            rest = _strip(rest)
        c = _strip(q)
    chain = sturm_chain(c)
    return _variations(chain, a) - _variations(chain, b)


def sturm_count_all(coeffs):
    c = _strip([Fraction(x) for x in coeffs])
    if _deg(c) < 1:
        return 0
    bound = 1 + max(abs(x / c[-1]) for x in c[:-1])
    return sturm_count_between(coeffs, -bound, bound)


# ---------------------------------------------------------------------------
# Groebner references: plain division and Buchberger without criteria


def _lead(p, morder):
    expt = max(p.terms, key=morder.key)
    return expt, p.terms[expt]


def reference_normal_form(p, gens, morder):
    """Remainder of p divided by gens, one Polynomial step at a time: the
    largest remaining term is divided by the first generator whose leading
    monomial divides it, or else moved to the remainder."""
    order = p.order
    leads = [(_lead(g, morder), g) for g in gens if not g.is_zero()]
    remainder = Polynomial.zero(order)
    work = p
    while not work.is_zero():
        expt, coeff = _lead(work, morder)
        for (lexpt, lcoeff), g in leads:
            if all(a <= b for a, b in zip(lexpt, expt)):
                shift = tuple(a - b for a, b in zip(expt, lexpt))
                work = work - Polynomial.monomial(order, shift, Fraction(coeff) / lcoeff) * g
                break
        else:
            mono = Polynomial.monomial(order, expt, coeff)
            remainder = remainder + mono
            work = work - mono
    return remainder


def reference_s_polynomial(f, g, morder):
    (ef, cf), (eg, cg) = _lead(f, morder), _lead(g, morder)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    order = f.order
    return (Polynomial.monomial(order, [a - b for a, b in zip(lcm, ef)], Fraction(1) / cf) * f
            - Polynomial.monomial(order, [a - b for a, b in zip(lcm, eg)], Fraction(1) / cg) * g)


def reference_groebner(gens, morder):
    """Reduced monic Groebner basis, sorted by leading monomial, by plain
    Buchberger: the S-polynomial of every pair is reduced, with no
    criterion; then generators whose leading monomial another one divides
    are dropped, and each tail is reduced by the others."""
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        r = reference_normal_form(
            reference_s_polynomial(basis[i], basis[j], morder), basis, morder)
        if not r.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    # ascending leading monomials: a divisor of a leading monomial comes first
    basis.sort(key=lambda g: morder.key(_lead(g, morder)[0]))
    minimal = []
    for g in basis:
        eg = _lead(g, morder)[0]
        if not any(all(a <= b for a, b in zip(_lead(h, morder)[0], eg))
                   for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        r = reference_normal_form(g, minimal[:i] + minimal[i + 1:], morder)
        reduced.append(r * (Fraction(1) / _lead(r, morder)[1]))
    return reduced


# ---------------------------------------------------------------------------
# interval evaluation on Fraction boxes, one term and one factor at a time


def _interval_pow(lo, hi, e):
    if e == 1:
        return lo, hi
    plo, phi = lo ** e, hi ** e
    if e % 2 == 1:
        return plo, phi
    if lo >= 0:
        return plo, phi
    if hi <= 0:
        return phi, plo
    return Fraction(0), max(plo, phi)


def _interval_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def reference_interval_eval(p, boxes):
    """Enclosing interval of p over a box (var -> (lo, hi)); exact rational."""
    total = (Fraction(0), Fraction(0))
    names = p.order.names
    for expt, coeff in p.terms.items():
        term = (coeff, coeff)
        for i, e in enumerate(expt):
            if e:
                term = _interval_mul(term, _interval_pow(*boxes[names[i]], e))
        total = (total[0] + term[0], total[1] + term[1])
    return total


# ---------------------------------------------------------------------------
# the defining polynomial of a value: the resultant chain that
# realalg._value_defining runs through _candidate_defining, written out alone


def reference_value_defining(q, alg_coords, memo):
    """Defining polynomial (coefficient tuple in a fresh variable) of the
    value q(alpha_1, ..., alpha_k), by iterated resultants.

    The chain never degenerates: the leading coefficient in the fresh
    variable stays a non-zero rational throughout.
    """
    order2 = VarOrder(q.order.names + (_TVAR,))
    t = Polynomial.variable(order2, _TVAR)
    P = t - q.restricted(order2)
    for var, alpha in alg_coords:
        if P.degree_in(var) == 0:
            continue
        d = _defining_poly(alpha, var, order2)
        P = _memo_resultant(memo, d, P, var)
    coeffs = [c.constant_value() for c in P.coeffs_in(_TVAR)]
    return trim(coeffs)


# ---------------------------------------------------------------------------
# truth assignment with every sign from sign_at: lifting.truth_assign
# without the lookup of recorded canonical forms


def reference_truth_assign(tree, f):
    """Assign the truth of f to every top cell of tree.  Each sign is
    sign_at at the sample of the ancestor cell at the polynomial's level,
    memoised under the polynomial in that cell's signs."""
    from cadec.realalg import sign_at

    def sign_of(cell, poly):
        if poly.is_constant():
            c = poly.constant_value()
            return (c > 0) - (c < 0)
        target = cell
        while target.level > tree.order.level(poly.main_variable()):
            target = target.parent
        if poly not in target.signs:
            target.signs[poly] = sign_at(poly, target.sample)
        return target.signs[poly]

    matrix = f.matrix if hasattr(f, "matrix") else f
    for leaf in tree.leaves():
        leaf.truth = matrix.evaluate(lambda p, c=leaf: sign_of(c, p))
    return tree


# ---------------------------------------------------------------------------
# isolating intervals on Fraction endpoints: realalg's refinement,
# comparison, merge and lifting's sector samples in plain Fraction
# arithmetic, with signs from Fraction Horner evaluation


def _sign(x):
    return (x > 0) - (x < 0)


class ReferenceNumber:
    """A copy of an AlgebraicNumber's state (defining tuple, interval as two
    Fractions) that refines by Fraction midpoints.  Equal answers and equal
    endpoints after every step show that integer endpoints change no
    value."""

    def __init__(self, alpha):
        self.coeffs = tuple(alpha.coeffs)
        self.lo, self.hi = Fraction(alpha.lo), Fraction(alpha.hi)
        # a defining polynomial d x - n is negative below its root
        self.sign_lo = -1 if self.is_rational else _sign(_eval(self.coeffs, self.lo))

    @property
    def is_rational(self):
        return len(self.coeffs) == 2

    def value(self):
        return Fraction(-self.coeffs[0], self.coeffs[1])

    def refine(self):
        if self.is_rational:
            v, width = self.value(), (self.hi - self.lo) / 4
            self.lo, self.hi = v - width, v + width
            return
        m = (self.lo + self.hi) / 2
        s = _sign(_eval(self.coeffs, m))
        if s == 0:
            width = (self.hi - self.lo) / 4
            self.coeffs = (-m.numerator, m.denominator)
            self.lo, self.hi = m - width, m + width
            self.sign_lo = -1
        elif s == self.sign_lo:
            self.lo = m
        else:
            self.hi = m


def reference_compare_rational(a, q):
    """Sign of a - q for a ReferenceNumber a and a rational q."""
    q = Fraction(q)
    if a.is_rational:
        return _sign(a.value() - q)
    if a.hi <= q:
        return -1
    if a.lo >= q:
        return 1
    s = _sign(_eval(a.coeffs, q))
    return 0 if s == 0 else (1 if s == a.sign_lo else -1)


def reference_compare(a, b):
    """Sign of a - b for ReferenceNumbers, refining both as realalg.compare
    does."""
    if a is b:
        return 0
    if a.is_rational and b.is_rational:
        return _sign(a.value() - b.value())
    if a.is_rational:
        return -reference_compare_rational(b, a.value())
    if b.is_rational:
        return reference_compare_rational(a, b.value())
    g = reference_gcd(a.coeffs, b.coeffs)
    while True:
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        if len(g) > 1:
            s_c = _sign(_eval(g, max(a.lo, b.lo)))
            s_d = _sign(_eval(g, min(a.hi, b.hi)))
            if s_c and s_d and s_c != s_d:
                return 0
        a.refine()
        b.refine()
        if a.is_rational or b.is_rational:
            return reference_compare(a, b)


def reference_merge_roots(groups):
    """realalg.merge_roots on ReferenceNumbers: (sorted roots, contributors)."""
    merged, contributors = [], []
    for gi, group in enumerate(groups):
        for r in group:
            for i, m in enumerate(merged):
                c = reference_compare(r, m)
                if c == 0:
                    contributors[i].add(gi)
                    break
                if c < 0:
                    merged.insert(i, r)
                    contributors.insert(i, {gi})
                    break
            else:
                merged.append(r)
                contributors.append({gi})
    return merged, contributors


def reference_sector_samples(roots):
    """lifting._sector_samples on sorted ReferenceNumbers, in Fractions."""
    def lower(r):
        return r.value() if r.is_rational else r.lo

    def upper(r):
        return r.value() if r.is_rational else r.hi

    if not roots:
        return [Fraction(0)]
    samples = [Fraction(math.floor(lower(roots[0]))) - 1]
    for a, b in zip(roots, roots[1:]):
        while True:
            hi, lo = upper(a), lower(b)
            if hi < lo or (hi == lo and not a.is_rational and not b.is_rational):
                break
            for r in (a, b):
                if not r.is_rational:
                    r.refine()
        samples.append((hi + lo) / 2)
    samples.append(Fraction(math.ceil(upper(roots[-1]))) + 1)
    return samples
