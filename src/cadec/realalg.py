"""Exact real algebraic numbers: root isolation, comparison, sign evaluation.

A real algebraic number is a squarefree defining polynomial together with an
open rational isolating interval.  Univariate polynomials are tuples of
Python integers, lowest degree first; a defining polynomial is primitive
with a positive leading coefficient, and a rational n/d is the tuple
(-n, d).  The sign of such a polynomial at a rational p/q is one integer
homogeneous Horner evaluation (usign); no Fraction arithmetic is involved.

The isolating interval is three ints too: (lo_num/den, hi_num/den), den > 0,
not necessarily in lowest terms.  Bisection takes the midpoint (lo_num +
hi_num)/(2 den), halving the sum instead when it is even; comparisons
cross-multiply; a rational root compares through its tuple (-n, d).  So
refine, compare, compare_rational, merge_roots and lifting's sector
samples build no Fraction.  Fractions remain where a reader wants one: the
read-only lo and hi properties, rational_value, a sector sample between two
roots, and the rational roots isolation finds (at a bisection point, or by
limit_denominator).  Every endpoint has the value the Fraction arithmetic
of exact midpoints gives, so refinement, printed intervals, samples, signs
and truth do not depend on the representation.

isolate_coeffs takes the squarefree part of its input, then:

- degree 1: the closed-form root;
- degree 2: math.isqrt of the discriminant.  A perfect square gives two
  exact rationals; otherwise, with s = isqrt(D), the intervals with
  endpoints (-b +- s)/2a and (-b +- (s+1))/2a isolate the two roots;
- degree 3 and up: Descartes bisection (Collins-Akritas) on integer
  coefficients over a power-of-two bound on the positive and on the negative
  roots, subdividing by x -> x/2 and integer Taylor shifts, so the interval
  endpoints are dyadic (Rouillier-Zimmermann).  A bisection point that is a
  root is recorded exactly and deflated out; if at most a quadratic is left,
  the closed form finishes.  Every other rational root p/q (lowest terms)
  has q dividing the leading coefficient lc, so once its interval is
  narrower than 1/lc^2 it is the fraction with denominator at most lc
  nearest the midpoint; one Horner evaluation confirms it.

At a rational point no Fraction arithmetic is needed either.  Where every
coordinate of p other than the lifting variable is a rational n_i/d_i,
roots_above builds the integer tuple in that variable straight from p's terms
with polynomial.integer_image: each term is scaled by the lcm of p's
coefficient denominators times prod d_i^deg_i(p).  The factor is positive,
so the primitive part, and with it every defining polynomial and isolating
interval, equals that of the Fraction specialisation; sign_at at an
all-rational point is the sign of one such integer sum.  sign_at_map and
roots_above split a point the same way (_split_point): the rational
coordinates as (n, d) pairs by position, and the algebraic ones p still
reads once the rational ones are put in, in the variable order.  They are
put in on integers too (_put_in), term by term as integer_image scales
them: a positive multiple of the Fraction substitution, which is all its
readers need, since they take only signs and roots.  Every
univariate Polynomial (the input of isolate_real_roots, a chain's last
polynomial, the gcd whose roots the chain tests) is read as integers by the
same kernel with an empty point, a positive multiple of its coefficients.
interval_eval scales each box to one denominator per variable and
homogenises each term to p's degree in it, so the sums are on integers and
the one division at the end gives the same exact interval.

Roots are separated from their neighbours only.  isolate_coeffs sorts its
roots by exact comparison and refines adjacent intervals until they are
disjoint, which makes every pair disjoint; merge_roots sorts exactly and
leaves intervals as they are; lifting separates adjacent roots when it
picks a sector sample between them.  Only how far intervals are refined
changes, and with it which rational a sector sample is; no root, sign,
cell count or truth value does.

Roots over an algebraic sample point go through one chain of resultants,
_candidate_defining: the candidate polynomial C in v whose roots include
those of p above the point.  It eliminates the algebraic coordinates once,
in the variable order; where a step's resultant vanishes, it divides out
the shared factor and repeats the step.  Each step resultant(d, P, var) is
memoised, keyed on exactly those arguments: d, the coordinate's defining
polynomial in var (after any factor the chain divided out of it), and the
chain polynomial P.  The entry is exact because a resultant depends on its
arguments alone, not on which root of d the coordinate is or on its
interval, so roots that share a defining polynomial share entries.  The
memo is a dict on SamplePoint that extended() passes on: it lives as long
as one tree of sample points (a CAD build and its truth assignment), and a
SamplePoint made anew starts an empty one.

Each root list carries p's sign on each of its gaps: with roots
r_1 < ... < r_k, the sign (+-1) of p with v in (r_i, r_i+1), r_0 = -inf
and r_k+1 = +inf (sign_by_position reads it):

- at an all-rational point the list keeps the integer tuple in v, and a
  gap's sign is taken when it is read: the top gap's is the leading
  coefficient's, and the gap below a root takes the tuple's sign at the
  lower end of the root's interval, one integer Horner evaluation.  A
  caller that reads only the roots (roots_above, so locate) takes none;
- at an algebraic point they are found with the roots (_isolate_above):
  q's sign is taken once on each gap between the candidates
  rho_1 < ... < rho_k, the roots of C, the outer gaps by the sign of the
  first non-zero leading coefficient (which the coefficient test already
  evaluates) and the parity of its degree, an inner one at the rational
  end hi(rho_i), which is not a root of C and so not one of q; those
  signs settle by intervals alone.  Every root of q there is a
  root of C, so rho_i is a root of q iff the signs on its two sides
  differ.  Where they agree, only a root of even multiplicity is possible
  (x = 0 on the sphere over a point of the circle): only then does the
  sign at rho_i decide, and if 4 interval rounds leave it open, the
  value's defining polynomial (_zero_by_chain).  That is the only chain
  over the coordinate it tests: the candidate polynomial of t - q in a
  fresh variable t (_value_defining), a chain over every coordinate, so
  its degree is the product of theirs, 324 at the top points of x*y - z
  = 0 and x^2 - y = 0 and x + y + z - 1 = 0, whose CAD has 11 cells.

Since a CAD is sign-invariant, a lifting polynomial's sign on a cell of a
stack is the sign on the gap holding the cell's coordinate, so lifting
reads it off the list (lifting.cell_sign) instead of evaluating it.

The same memo holds the root lists of roots_above(p, s, v), keyed on p, v
and the coordinates of p's other variables, read from s.coords at the
positions where p's degree vector (computed once per polynomial) is
non-zero: a rational one by its value, as its defining tuple (-n, d) (equal
tuples are equal values, and a tuple of ints hashes far faster than a
Fraction), an irrational one as the AlgebraicNumber object itself, which
hashes by identity (the key holds a reference, so its id is not reused).
roots_above reads nothing else of s, so an equal key means an equal answer:
a lifting polynomial y1 - y0 is isolated once per distinct y0, not once per
cell above it.  An entry is the roots with their gaps, the signs or the
integer tuple (roots_and_signs); roots_above hands back the roots alone.
The zero test of sign_at_map keeps its entries under the same keys
(_roots_key).  A roots key's second entry is a variable name and a
resultant key's a polynomial, so the two kinds never collide.  The roots
handed back are shared, and whoever refines one refines it for all; that
only shrinks its interval, so at most a sector sample's rational depends on
it (see above).

sign_at_map has one refinement loop.  Each round evaluates p's interval
over the coordinates' boxes (_interval_sums), returns a sign once the
interval clears 0, and otherwise bisects every coordinate.  If 4 rounds
leave the sign open, the root-position test reads it (_zero_by_roots).
With alpha_w the top coordinate q reads, the value is 0 iff q vanishes
identically in w over the lower coordinates, or alpha_w is, by compare,
one of q's roots in w there; those roots are the lists above.  Otherwise
the sign is that of the list's gap holding alpha_w, and no further round
runs.

Interval refinement mutates the cached interval but is monotone (intervals
only shrink), so concurrent readers are safe; the memo only gains entries
that any reader would compute alike; everything else is pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import count
from math import gcd, isqrt, lcm

from .polynomial import (
    Polynomial,
    VarOrder,
    ZeroPolynomialError,
    PolynomialError,
    _dense,
    _exquo,
    exact_div,
    integer_image,
    integer_terms,
    poly_gcd,
    primitive,
    resultant,
    ugcd,
)


class RealAlgebraError(PolynomialError):
    pass


class _IdenticallyZero:
    """Distinguished outcome of roots_above when the polynomial vanishes
    everywhere over the sample (nullification)."""

    def __repr__(self):
        return "IDENTICALLY_ZERO"

    def __bool__(self):
        return False


IDENTICALLY_ZERO = _IdenticallyZero()


# ---------------------------------------------------------------------------
# dense univariate helpers (integer coefficient tuples, low degree first)


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _fraction(x):
    return x if type(x) is Fraction else Fraction(x)


def usign(coeffs, p, d):
    """Sign of coeffs at p/d (d > 0, not necessarily in lowest terms): the
    sign of sum c_i p^i d^(n-i), by one integer Horner evaluation."""
    acc = 0
    if d == 1:
        for c in reversed(coeffs):
            acc = acc * p + c
    else:
        dk = 1
        for c in reversed(coeffs):
            acc = acc * p + c * dk
            dk *= d
    return (acc > 0) - (acc < 0)


def normalize_int(coeffs):
    """The primitive integer tuple of a tuple of ints or Fractions."""
    coeffs = trim(coeffs)
    if not coeffs:
        return coeffs
    den = lcm(*(c.denominator for c in coeffs))
    return primitive(tuple(c.numerator * (den // c.denominator) for c in coeffs))


def usquarefree(f):
    """Squarefree part of a primitive integer tuple."""
    if len(f) <= 2:
        return f
    g = ugcd(f, tuple(c * i for i, c in enumerate(f))[1:])
    return f if len(g) == 1 else _exquo(f, g)


def _variations(values):
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _shift1(coeffs):
    """coeffs(x + 1), by an integer Taylor shift."""
    c = list(coeffs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _var01(coeffs):
    """Descartes' bound on the roots in (0, 1): the sign variations of
    (1+x)^n coeffs(1/(1+x)); exact when it is 0 or 1."""
    return _variations(_shift1(coeffs[::-1]))


def _positive_root_bits(h):
    """k >= 0 with every positive root of h below 2^k (h[-1] > 0).

    Kioustelidis: positive roots are at most 2 max (|h[n-i]| / h[n])^(1/i)
    over the negative h[n-i]; each ratio is below a power of two read off
    the bit lengths."""
    n = len(h) - 1
    lead_bits = h[-1].bit_length()
    e = -1
    for i in range(1, n + 1):
        c = h[n - i]
        if c < 0:
            e = max(e, -((lead_bits - 1 - (-c).bit_length()) // i))
    return e + 1


def _bisect01(g):
    """Descartes bisection of g on (0, 1).

    Returns (intervals, roots): isolating intervals as pairs (c, j) standing
    for (c/2^j, (c+1)/2^j), and the roots met exactly at bisection points as
    pairs (c, j) standing for c/2^j.  Each pending interval carries its own
    polynomial, g((c + x)/2^j) scaled to integer coefficients, so a root met
    at a bisection point is divided out of the two halves it bounds and
    every other pending interval is kept."""
    intervals, roots = [], []
    stack = [(0, 0, g)]
    while stack:
        c, j, p = stack.pop()
        k = _var01(p)
        if k == 0:
            continue
        if k == 1:
            intervals.append((c, j))
            continue
        n = len(p) - 1
        left = [a << (n - i) for i, a in enumerate(p)]
        right = _shift1(left)
        if right[0] == 0:
            roots.append((2 * c + 1, j + 1))
            right = right[1:]
            left = _exquo(left, (-1, 1))
        stack.append((2 * c, j + 1, left))
        stack.append((2 * c + 1, j + 1, right))
    return intervals, roots


def _isolate_small(f):
    """The real roots of a primitive f of degree at most 2, in closed form:
    the quadratic formula with math.isqrt of the discriminant."""
    if len(f) == 1:
        return []
    if len(f) == 2:
        # f is primitive with f[1] > 0: -f[0]/f[1] is in lowest terms
        return [AlgebraicNumber(f, -f[0] - f[1], -f[0] + f[1], f[1], _sign_lo=-1)]
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    a2 = 2 * a
    if disc == 0:
        return [AlgebraicNumber.from_rational(Fraction(-b, a2))]
    if s * s == disc:
        # each rational root q with the interval (q - s/2a, q + s/2a)
        roots = []
        for n, lo, hi in ((-b - s, -b - 2 * s, -b), (-b + s, -b, -b + 2 * s)):
            g = gcd(n, a2)
            roots.append(AlgebraicNumber((-n // g, a2 // g), lo, hi, a2, _sign_lo=-1))
        return roots
    return [AlgebraicNumber(f, -b - s - 1, -b - s, a2, _sign_lo=1),
            AlgebraicNumber(f, -b + s, -b + s + 1, a2, _sign_lo=-1)]


def _rational_root_in(f, lo, hi, den):
    """The root of f in the isolating interval (lo/den, hi/den) if it is
    rational, else None.  A rational root p/q of f in lowest terms has
    q | lc(f), so within 1/(2 lc^2) of it no other fraction has a
    denominator <= lc."""
    lc = f[-1]
    alpha = AlgebraicNumber(f, lo, hi, den)
    alpha.refine_below(Fraction(1, lc * lc))
    if alpha.is_rational:
        return alpha.rational_value()
    lo, hi, den = alpha.lo_num, alpha.hi_num, alpha.den
    r = Fraction(lo + hi, 2 * den).limit_denominator(lc)
    n, d = r.numerator, r.denominator
    if lo * d < n * den < hi * d and usign(f, n, d) == 0:
        return r
    return None


def _isolate_bisect(f):
    """The real roots of a squarefree primitive f of degree >= 3."""
    zero = []
    if f[0] == 0:
        zero.append(Fraction(0))
        f = f[1:]
    rationals, intervals = [], []
    for side in (1, -1):
        h = f if side == 1 else tuple(-c if i % 2 else c for i, c in enumerate(f))
        if h[-1] < 0:
            h = tuple(-c for c in h)
        var = _variations(h)
        if var == 0:
            continue
        k = _positive_root_bits(h)
        if var == 1:
            cells, exact = [(0, 0)], []
        else:
            cells, exact = _bisect01([c << (k * i) for i, c in enumerate(h)])
        for c, j in exact:
            rationals.append(side * Fraction(c << k, 1 << j))
        for c, j in cells:
            lo, hi = c << k, (c + 1) << k
            intervals.append((lo, hi, 1 << j) if side == 1 else (-hi, -lo, 1 << j))
    rest = _deflate(f, rationals)
    if len(rest) <= 3:
        return [AlgebraicNumber.from_rational(r) for r in zero + rationals] + _isolate_small(rest)
    irrational, found = [], []
    for box in intervals:
        r = _rational_root_in(rest, *box)
        if r is None:
            irrational.append(box)
        else:
            found.append(r)
    rest = _deflate(rest, found)
    return ([AlgebraicNumber.from_rational(r) for r in zero + rationals + found]
            + [AlgebraicNumber(rest, *box) for box in irrational])


def _deflate(f, rationals):
    """f divided by (q x - p) for every root p/q in rationals."""
    for r in rationals:
        f = _exquo(f, (-r.numerator, r.denominator))
    return f


# ---------------------------------------------------------------------------
# AlgebraicNumber

# the order in which a defining polynomial prints, as a Polynomial in t
_PRINT_ORDER = VarOrder(("t",))


class AlgebraicNumber:
    """A real algebraic number: squarefree defining polynomial (a primitive
    integer tuple) plus an open interval containing exactly one of its real
    roots.

    The interval is three ints, (lo_num/den, hi_num/den) with den > 0, not
    necessarily in lowest terms: bisection, comparison and sector samples
    cross-multiply integers and build no Fraction.  lo and hi read the
    endpoints as Fractions; their values are those the Fraction arithmetic
    of exact midpoints gives, so printed intervals do not depend on the
    representation.

    Rational numbers are the degenerate case (defining d x - n, d > 0), and
    compare through that tuple; their Fraction value is made on first read
    and kept.  Refinement shrinks the interval in place and is monotone.
    """

    __slots__ = ("coeffs", "lo_num", "hi_num", "den", "_sign_lo", "_value")

    def __init__(self, coeffs, lo_num, hi_num, den, _sign_lo=None):
        self.coeffs = tuple(coeffs)
        self.lo_num, self.hi_num, self.den = lo_num, hi_num, den
        if _sign_lo is None and len(self.coeffs) > 2:
            _sign_lo = usign(self.coeffs, lo_num, den)
            if _sign_lo == 0:
                raise RealAlgebraError("isolating interval endpoint is a root")
        self._sign_lo = _sign_lo
        self._value = None

    @classmethod
    def from_rational(cls, q):
        """q (a Fraction or an int) with the interval (q - 1, q + 1)."""
        if type(q) is int:
            return cls((-q, 1), q - 1, q + 1, 1, _sign_lo=-1)
        q = _fraction(q)
        n, d = q.numerator, q.denominator
        alpha = cls((-n, d), n - d, n + d, d, _sign_lo=-1)
        alpha._value = q
        return alpha

    @property
    def is_rational(self):
        return len(self.coeffs) == 2

    @property
    def lo(self):
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self):
        return Fraction(self.hi_num, self.den)

    def rational_value(self):
        if self._value is None:
            if not self.is_rational:
                raise RealAlgebraError("not a known-rational algebraic number")
            self._value = Fraction(-self.coeffs[0], self.coeffs[1])
        return self._value

    def refine(self):
        """One bisection step; may discover the value is rational.  A
        rational keeps its value as the midpoint and halves its width."""
        lo, hi, den = self.lo_num, self.hi_num, self.den
        coeffs = self.coeffs
        if len(coeffs) == 2:
            # n/d -+ (hi - lo) / (4 den), over the denominator 4 den d
            n, d = -coeffs[0], coeffs[1]
            mid, half = 4 * den * n, d * (hi - lo)
            lo, hi, den = mid - half, mid + half, 4 * den * d
            g = gcd(lo, hi, den)
            self.lo_num, self.hi_num, self.den = lo // g, hi // g, den // g
            return
        m = lo + hi
        if m & 1:
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
        else:
            m >>= 1
        s = usign(coeffs, m, den)
        if s == 0:
            g = gcd(m, den)
            self.coeffs = (-(m // g), den // g)
            # the root m/den -+ (hi - lo) / (4 den)
            self.lo_num, self.hi_num, self.den = 4 * m - hi + lo, 4 * m + hi - lo, 4 * den
            self._sign_lo = -1
        elif s == self._sign_lo:
            self.lo_num, self.hi_num, self.den = m, hi, den
        else:
            self.lo_num, self.hi_num, self.den = lo, m, den

    def refine_below(self, width):
        """Refine until the interval is at most width (a Fraction or an
        int) wide."""
        wn, wd = width.numerator, width.denominator
        while (self.hi_num - self.lo_num) * wd > wn * self.den:
            self.refine()

    def approx(self, width=Fraction(1, 1 << 20)):
        self.refine_below(width)
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)

    def __float__(self):
        if self.is_rational:
            return float(self.rational_value())
        return float(self.approx())

    def __repr__(self):
        return "<%s>" % self

    def __str__(self):
        if self.is_rational:
            return str(self.rational_value())
        defining = Polynomial(_PRINT_ORDER, {(i,): c for i, c in enumerate(self.coeffs)})
        return "root(%s, %s, %s)" % (defining, self.lo, self.hi)


def algebraic_is_root(alpha, coeffs):
    """Is alpha a root of the univariate polynomial coeffs?"""
    f = normalize_int(coeffs)
    if not f:
        return True
    if alpha.is_rational:
        return usign(f, -alpha.coeffs[0], alpha.coeffs[1]) == 0
    g = ugcd(alpha.coeffs, f)
    if len(g) == 1:
        return False
    if len(g) == len(alpha.coeffs):
        return True
    # g divides alpha's squarefree defining polynomial, so its only possible
    # root in alpha's interval is alpha itself, a simple root: a sign change
    while True:
        s_lo = usign(g, alpha.lo_num, alpha.den)
        s_hi = usign(g, alpha.hi_num, alpha.den)
        if s_lo and s_hi:
            return s_lo != s_hi
        alpha.refine()
        if alpha.is_rational:
            return usign(f, -alpha.coeffs[0], alpha.coeffs[1]) == 0


def compare(a, b):
    """Total order on real algebraic numbers: -1, 0, +1, decided exactly."""
    if a is b:
        return 0
    ac, bc = a.coeffs, b.coeffs
    if len(ac) == 2:
        if len(bc) == 2:
            x, y = -ac[0] * bc[1], -bc[0] * ac[1]
            return (x > y) - (x < y)
        return -_compare_ratio(b, -ac[0], ac[1])
    if len(bc) == 2:
        return _compare_ratio(a, -bc[0], bc[1])
    g = None  # the defining polynomials' gcd, taken once the intervals overlap
    while True:
        alo, ahi, ad = a.lo_num, a.hi_num, a.den
        blo, bhi, bd = b.lo_num, b.hi_num, b.den
        if ahi * bd <= blo * ad:
            return -1
        if bhi * ad <= alo * bd:
            return 1
        if g is None:
            g = ugcd(ac, bc)
        if len(g) > 1:
            # g has at most one root in the overlap, a simple one, and if it
            # has one that root is a and b at once
            s_c = usign(g, alo, ad) if alo * bd >= blo * ad else usign(g, blo, bd)
            s_d = usign(g, ahi, ad) if ahi * bd <= bhi * ad else usign(g, bhi, bd)
            if s_c and s_d and s_c != s_d:
                return 0
        a.refine()
        b.refine()
        if a.is_rational or b.is_rational:
            return compare(a, b)


def compare_rational(a, q):
    """Sign of a - q for rational q (a Fraction or an int).

    Inside the isolating interval, one sign evaluation at q decides: the
    defining polynomial changes sign only at a."""
    return _compare_ratio(a, q.numerator, q.denominator)


def _compare_ratio(a, n, d):
    """Sign of a - n/d (d > 0), on integers."""
    coeffs = a.coeffs
    if len(coeffs) == 2:
        x, y = -coeffs[0] * d, n * coeffs[1]
        return (x > y) - (x < y)
    if a.hi_num * d <= n * a.den:
        return -1
    if a.lo_num * d >= n * a.den:
        return 1  # the root lies strictly above lo
    s = usign(coeffs, n, d)
    if s == 0:
        return 0
    return 1 if s == a._sign_lo else -1


# ---------------------------------------------------------------------------
# root isolation


def isolate_coeffs(coeffs):
    """Isolate the distinct real roots of a univariate coefficient tuple
    (ints or Fractions), in increasing order."""
    f = normalize_int(coeffs)
    if not f:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if len(f) > 3:
        f = usquarefree(f)
    if len(f) <= 3:
        return _isolate_small(f)
    roots = _isolate_bisect(f)
    roots.sort(key=cmp_to_key(compare))
    # the list is sorted, so disjoint neighbours make every pair disjoint
    for a, b in zip(roots, roots[1:]):
        while a.hi_num * b.den > b.lo_num * a.den:
            a.refine()
            b.refine()
    return roots


def merge_roots(groups):
    """Merge lists of already-isolated roots into one strictly sorted list,
    removing duplicates across groups (exact comparison).  Intervals of
    neighbours may still overlap; lifting separates adjacent roots when it
    picks the sector samples between them.

    Returns (sorted_roots, contributors) where contributors[i] is the set of
    group indices whose polynomial vanishes at sorted_roots[i].
    """
    merged = []
    contributors = []
    for gi, group in enumerate(groups):
        for r in group:
            placed = False
            for i, m in enumerate(merged):
                c = compare(r, m)
                if c == 0:
                    contributors[i].add(gi)
                    placed = True
                    break
                if c < 0:
                    merged.insert(i, r)
                    contributors.insert(i, {gi})
                    placed = True
                    break
            if not placed:
                merged.append(r)
                contributors.append({gi})
    return merged, contributors


def isolate_real_roots(p):
    """Distinct real roots of a univariate Polynomial, strictly ordered."""
    if p.is_zero():
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    vs = p.variables()
    if len(vs) > 1:
        raise RealAlgebraError("isolate_real_roots needs a univariate polynomial")
    if not vs:
        return []
    return isolate_coeffs(integer_image(p, (), p.order.index(next(iter(vs)))))


# ---------------------------------------------------------------------------
# sample points and sign evaluation


class SamplePoint:
    """Ordered coordinates (one AlgebraicNumber per variable) up to a level.

    memo maps (d, P, var) to resultant(d, P, var) for the resultant chains
    of sign_at and roots_above, and (p, v, coordinates p reads) to the
    roots of p in v there with p's sign on each gap between them, for
    roots_and_signs and sign_at's zero test; both are exact (module
    docstring).  A new
    SamplePoint starts an empty memo and extended() passes it on, so every
    point lifted from one root shares it.
    """

    __slots__ = ("order", "coords", "memo")

    def __init__(self, order, coords):
        self.order = order
        self.coords = tuple(
            c if isinstance(c, AlgebraicNumber) else AlgebraicNumber.from_rational(c)
            for c in coords)
        if len(self.coords) > len(order):
            raise RealAlgebraError("more coordinates than variables")
        self.memo = {}

    @property
    def level(self):
        return len(self.coords)

    def coordinate(self, name):
        i = self.order.index(name)
        if i >= len(self.coords):
            raise RealAlgebraError("sample point does not cover %r" % name)
        return self.coords[i]

    def extended(self, alpha):
        if not isinstance(alpha, AlgebraicNumber):
            alpha = AlgebraicNumber.from_rational(alpha)
        if len(self.coords) >= len(self.order):
            raise RealAlgebraError("more coordinates than variables")
        point = SamplePoint.__new__(SamplePoint)
        point.order = self.order
        point.coords = self.coords + (alpha,)
        point.memo = self.memo
        return point

    def __repr__(self):
        return "SamplePoint(%s)" % ", ".join(
            "%s=%s" % (n, c) for n, c in zip(self.order.names, self.coords))


def _int_pow_range(lo, hi, e):
    """The range of x^e over the integer interval [lo, hi]."""
    plo, phi = lo ** e, hi ** e
    if e % 2 or lo >= 0:
        return plo, phi
    if hi <= 0:
        return phi, plo
    return 0, max(plo, phi)


def interval_eval(p, boxes):
    """Enclosing interval of p over a box (var -> (lo, hi)); exact rational.

    Each term's interval is the exact range of the term over the box, and
    the sum of the terms' lower (upper) ends is returned."""
    triples = {}
    for v, (lo, hi) in boxes.items():
        D = lcm(lo.denominator, hi.denominator)
        triples[v] = (lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator), D)
    lo, hi, scale = _interval_sums(p, triples)
    return Fraction(lo, scale), Fraction(hi, scale)


def _interval_sums(p, boxes):
    """interval_eval(p, boxes) on integers, with each box given as
    (a, b, D) for (a/D, b/D), D > 0: (lo, hi, scale) with the interval
    (lo/scale, hi/scale), scale > 0.

    The coefficients are scaled to one denominator, and each term is
    homogenised by D_i^(deg_i - e_i), so every sum is on integers and scale
    is the lcm of the coefficient denominators times prod D_i^deg_i."""
    terms = p.terms
    if not terms:
        return 0, 0, 1
    names = p.order.names
    den = lcm(*(c.denominator for c in terms.values()))
    scale = den
    powers = []  # per variable of p: (position, [range of D^(deg-e) x^e])
    for i, deg in enumerate(p.degrees()):
        if not deg:
            continue
        a, b, D = boxes[names[i]]
        table = [(D ** deg, D ** deg)]
        for e in range(1, deg + 1):
            f = D ** (deg - e)
            r0, r1 = _int_pow_range(a, b, e)
            table.append((r0 * f, r1 * f))
        powers.append((i, table))
        scale *= D ** deg
    total_lo = total_hi = 0
    for expt, c in terms.items():
        c = c.numerator * (den // c.denominator)
        t0 = t1 = c
        for i, table in powers:
            r0, r1 = table[expt[i]]
            if t0 >= 0 and r0 >= 0:
                t0, t1 = t0 * r0, t1 * r1
            else:
                products = (t0 * r0, t0 * r1, t1 * r0, t1 * r1)
                t0, t1 = min(products), max(products)
        total_lo += t0
        total_hi += t1
    return total_lo, total_hi, scale


_TVAR = "t_"


def _memo_resultant(memo, d, P, var):
    """resultant(d, P, var), computed once per memo (see the module
    docstring for why the entry is exact)."""
    key = (d, P, var)
    R = memo.get(key)
    if R is None:
        R = memo[key] = resultant(d, P, var)
    return R


@cache
def _t_order(order):
    """order with the fresh variable t appended.  One object per distinct
    order, since the resultant memo keeps polynomials in it alive."""
    return VarOrder(order.names + (_TVAR,))


def _value_defining(q, alg_coords, memo):
    """Defining polynomial (coefficient tuple in a fresh variable t) of the
    value q(alpha_1, ..., alpha_k): the candidate polynomial in t of t - q.

    t - q is monic in t, so the leading coefficient in t stays a non-zero
    rational along the chain: no resultant vanishes, and the chain divides
    nothing out.
    """
    order2 = _t_order(q.order)
    t = Polynomial.variable(order2, _TVAR)
    return _candidate_defining(t - q.restricted(order2), _TVAR, alg_coords, memo)


def _defining_poly(alpha, var, order):
    terms = {}
    i = order.index(var)
    width = len(order)
    for power, c in enumerate(alpha.coeffs):
        if c == 0:
            continue
        e = [0] * width
        e[i] = power
        terms[tuple(e)] = c
    return Polynomial(order, terms)


def _put_in(p, point):
    """A positive multiple of p with the variable at each position i of
    point set to point[i] = (n, d), d > 0, on integers.

    Term by term as integer_image: each term c x^e is scaled by den(p)
    prod n_i^e_i d_i^(deg_i - e_i), so the result is the Fraction
    substitution times den(p) prod d_i^deg_i, with the same signs and
    roots."""
    _, terms = integer_terms(p)
    degs = p.degrees()
    subs = [(i, n, d, degs[i]) for i, (n, d) in point.items()]
    out = {}
    for expt, c in terms.items():
        e = list(expt)
        for i, n, d, deg in subs:
            k = expt[i]
            if k:
                c *= n ** k
                e[i] = 0
            if d != 1 and k != deg:
                c *= d ** (deg - k)
        e = tuple(e)
        out[e] = out.get(e, 0) + c
    return Polynomial(p.order, {e: c for e, c in out.items() if c}, _clean=True)


def _split_point(p, coord_map, vi=None):
    """p's coordinates in coord_map (var -> AlgebraicNumber), at the
    variables p reads other than the one at position vi, as (point, q,
    algebraic).  point holds the rational coordinates as (n, d) pairs by
    position.  When every coordinate is rational, q is None and
    integer_image(p, point, vi) is p at the point.  Otherwise q is a
    positive multiple of p with the rational coordinates put in (_put_in),
    and algebraic lists (var, alpha) for the coordinates q still reads, by
    position."""
    names = p.order.names
    point, algebraic = {}, []
    for i, e in enumerate(p.degrees()):
        if e and i != vi:
            alpha = coord_map[names[i]]
            c = alpha.coeffs
            if len(c) == 2:
                point[i] = (-c[0], c[1])
            else:
                algebraic.append((i, alpha))
    if not algebraic:
        return point, None, algebraic
    q = _put_in(p, point) if point else p
    degs = q.degrees()
    return point, q, [(names[i], alpha) for i, alpha in algebraic if degs[i]]


def sign_at_map(p, coord_map, memo):
    """Exact sign of p at the point given by coord_map (var -> AlgebraicNumber);
    memo is the memo of the coordinates' SamplePoint.  At an all-rational
    point this is the sign of one integer sum (integer_image); otherwise
    interval rounds, settled by the top coordinate's place among p's roots
    (_zero_by_roots)."""
    return _sign_at(p, coord_map, memo, _zero_by_roots)


def _sign_at(p, coord_map, memo, settle):
    """sign_at_map with the fallback settle(q, algebraic, memo), which
    returns q's sign at the algebraic coordinates.  It runs once 4 interval
    rounds leave the sign open.  settle is None for a value known not to
    be 0, whose rounds run on until they clear 0."""
    point, q, algebraic = _split_point(p, coord_map)
    if q is None:
        value = integer_image(p, point)[0]
        return (value > 0) - (value < 0)
    if q.is_constant():
        c = q.constant_value()
        return (c > 0) - (c < 0)
    for rounds in count():
        if rounds == 4 and settle is not None:
            return settle(q, algebraic, memo)
        lo, hi, _ = _interval_sums(
            q, {v: (a.lo_num, a.hi_num, a.den) for v, a in algebraic})
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        for _, a in algebraic:
            a.refine()


def _zero_by_roots(q, algebraic, memo):
    """q's sign at the algebraic coordinates (var, alpha), in the variable
    order.  With w the top one, it is 0 iff q vanishes identically in w over
    the lower coordinates, or alpha_w is one of q's roots in w there, and
    otherwise the sign of q on the gap between those roots that holds
    alpha_w.  The roots and gap signs are those of roots_and_signs, under its
    memo key, so no chain reads alpha_w."""
    w, alpha = algebraic[-1]
    lower = algebraic[:-1]
    key = _roots_key(q, w, [a for _, a in lower])
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = _isolate_above(q, dict(lower), w, memo)
    return 0 if entry is IDENTICALLY_ZERO else sign_by_position(*entry, alpha)


def _zero_by_chain(q, algebraic, memo):
    """q's sign at the algebraic coordinates, by the value's defining
    polynomial (_value_defining), a chain over every coordinate: refine the
    coordinates, and the polynomial's other roots that overlap the value's
    interval, until the interval clears 0 (a sign) or no other root
    overlaps it (0).  0 is always a root: the one caller passes a candidate
    root of q in the top coordinate, which is a root of q over some choice
    of roots of the lower coordinates' defining polynomials."""
    defining = _value_defining(q, algebraic, memo)
    others = [r for r in isolate_coeffs(defining)
              if not (r.is_rational and r.coeffs[0] == 0)]
    while True:
        lo, hi, scale = _interval_sums(
            q, {v: (a.lo_num, a.hi_num, a.den) for v, a in algebraic})
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        overlapping = [r for r in others
                       if r.hi_num * scale > lo * r.den and r.lo_num * scale < hi * r.den]
        if not overlapping:
            return 0
        for r in overlapping:
            r.refine()
        for _, a in algebraic:
            a.refine()


def sign_at(p, s):
    """Exact sign {-1, 0, +1} of p at the sample point s."""
    cmap = {}
    for v in p.variables():
        cmap[v] = s.coordinate(v)
    return sign_at_map(p, cmap, s.memo)


# ---------------------------------------------------------------------------
# roots over a sample point


def roots_above(p, s, v):
    """Distinct real roots in v of p specialized at the sample point s.

    Returns a sorted list of AlgebraicNumber, or IDENTICALLY_ZERO when the
    specialization vanishes identically (nullification).  The result is
    kept in s.memo and handed back whenever p, v and the coordinates p reads
    recur in the same tree (see the module docstring); callers must not
    mutate the list.
    """
    entry = roots_and_signs(p, s, v)
    return entry if entry is IDENTICALLY_ZERO else entry[0]


def roots_and_signs(p, s, v):
    """roots_above(p, s, v) with p's signs on the gaps between its roots:
    (roots, gaps), or IDENTICALLY_ZERO.  gaps is a list, gaps[i] the sign
    (+-1) of p at the sample point with v between roots[i - 1] and
    roots[i]; or, at an all-rational point, the integer tuple of p in v,
    whose signs are taken as they are read (the module docstring).
    sign_by_position reads either.
    It reads and fills the same memo entry as roots_above, which hands back
    its roots alone."""
    if p.is_zero():
        return IDENTICALLY_ZERO
    order = p.order
    vi = order.index(v)
    read = [i for i, e in enumerate(p.degrees()) if e and i != vi]
    at = read if order == s.order else [s.order.index(order.names[i]) for i in read]
    try:
        values = [s.coords[j] for j in at]
    except IndexError:
        raise RealAlgebraError("sample point does not cover the variables of %s" % p) from None
    key = _roots_key(p, v, values)
    entry = s.memo.get(key)
    if entry is None:
        cmap = {order.names[i]: a for i, a in zip(read, values)}
        entry = s.memo[key] = _isolate_above(p, cmap, v, s.memo)
    return entry


def sign_by_position(roots, gaps, x):
    """The sign at x (an AlgebraicNumber, or a rational as an int or a
    Fraction) of the polynomial in one variable whose roots and gaps are
    roots and gaps (roots_and_signs): 0 at a root, otherwise the sign of
    the gap holding x."""
    cmp = compare if isinstance(x, AlgebraicNumber) else compare_rational
    i = 0
    for r in roots:
        c = cmp(r, x)
        if c == 0:
            return 0
        if c > 0:
            break
        i += 1
    if type(gaps) is list:
        return gaps[i]
    # the integer tuple of an all-rational point: the top gap takes its
    # leading coefficient's sign, the gap below a root its sign at the lower
    # end of the root's interval.  That end lies in the gap however far the
    # root has been refined: isolate_coeffs's intervals are sorted and
    # disjoint, each holds one root of the tuple, and they only shrink.
    if i == len(roots):
        return 1 if gaps[-1] > 0 else -1
    r = roots[i]
    return usign(gaps, r.lo_num, r.den)


def _roots_key(p, v, values):
    """The memo key of p's roots in v over the coordinates values, those of
    p's other variables in the variable order: a rational one by its
    defining tuple, an irrational one by identity."""
    return (p, v, tuple([a.coeffs if len(a.coeffs) == 2 else a for a in values]))


def _coeff_sign(c, cmap, memo):
    """The sign of c, a coefficient from _dense, at the point cmap."""
    if type(c) is int:
        return (c > 0) - (c < 0)
    if c.is_constant():
        c = c.constant_value()
        return (c > 0) - (c < 0)
    return sign_at_map(c, cmap, memo)


def _isolate_above(p, cmap, v, memo):
    """roots_and_signs(p, s, v) computed afresh; cmap maps p's variables
    other than v to s's coordinates, memo is s.memo."""
    vi = p.order.index(v)
    point, q, algebraic = _split_point(p, cmap, vi)
    if not algebraic:
        # an all-rational prefix: the integer tuple in v straight from p's
        # terms (q's, where putting in the rational coordinates left no
        # algebraic one), a positive multiple of the Fraction specialisation
        univ = trim(integer_image(p, point, vi) if q is None else integer_image(q, (), vi))
        if not univ:
            return IDENTICALLY_ZERO
        # the gap signs are taken when read (sign_by_position), so that
        # roots_above, which reads none, pays nothing for them
        return (isolate_coeffs(univ) if len(univ) > 1 else []), univ

    # the first coefficient of positive degree, from the leading one down,
    # that is non-zero at the point; if there is none, q at the point is
    # its constant term
    coeffs = _dense(q, v)
    for degree in range(len(coeffs) - 1, 0, -1):
        lead = _coeff_sign(coeffs[degree], cmap, memo)
        if lead:
            break
    else:
        sign = _coeff_sign(coeffs[0], cmap, memo)
        return ([], [sign]) if sign else IDENTICALLY_ZERO

    # q's sign on each gap between the candidates: the outer ones by the
    # leading sign and the degree, an inner one at the upper end of the
    # candidate below it, which is not a root of the candidate polynomial
    # and so not one of q
    candidates = isolate_coeffs(_candidate_defining(q, v, algebraic, memo))
    coords = dict(algebraic)
    signs = [-lead if degree % 2 else lead]
    for rho in candidates[:-1]:
        end = AlgebraicNumber.from_rational(Fraction(rho.hi_num, rho.den))
        signs.append(_sign_at(q, {**coords, v: end}, memo, None))
    signs.append(lead)
    # every root of q is a candidate, so a candidate where the sign changes
    # is a root; where it does not, only a root of even multiplicity is
    # possible, and the sign at it decides
    roots, gaps = [], [signs[0]]
    for rho, below, above in zip(candidates, signs, signs[1:]):
        if below != above or _sign_at(q, {**coords, v: rho}, memo, _zero_by_chain) == 0:
            roots.append(rho)
            gaps.append(above)
    return roots, gaps


def _candidate_defining(q, v, algebraic, memo):
    """Univariate candidate polynomial in v whose roots include those of q at
    the point: one chain of resultants over the algebraic coordinates
    (var, alpha), in the given order.

    A step takes P to resultant(d, P, var), d alpha's defining polynomial in
    var.  If that resultant is 0, d and P share the factor g = gcd(d, P) in
    var.  If alpha is not a root of g, d becomes d / g, which keeps alpha
    as a root.  If alpha is a root of g, P becomes P / g, and the step
    repeats.  Why P / g is exact: let F be q with the coordinates before
    var put in (its other variables kept).  P times some polynomial in var
    that does not vanish at alpha is F times a polynomial, because:

    - q is F for the first coordinate.  A resultant that is not 0 is, up to
      a constant, the product of P over the roots of d; alpha is one of
      them, so the resultant passes the property on to the next coordinate.
    - F is not divisible by (var - alpha): otherwise q would vanish
      identically at the point, and _isolate_above returns IDENTICALLY_ZERO
      before the chain runs (in _value_defining, t - q is monic in t).
    - So when alpha is a root of g, (var - alpha) divides the other factor.
      g is squarefree, as d is, so g / (var - alpha) does not vanish at
      alpha, and P / g keeps the property.  If P / g still vanishes
      identically at alpha, the next round divides again.
    - Each division lowers the degree of d or of P in var, so the loop ends.

    At the end F is q at the point, of degree at least 1 in v, so the
    candidate has q's roots and is not constant.
    """
    P = q
    for var, alpha in algebraic:
        if P.degree_in(var) == 0:
            continue
        d = _defining_poly(alpha, var, q.order)
        while P.degree_in(var):
            R = _memo_resultant(memo, d, P, var)
            if not R.is_zero():
                P = R
                break
            g = poly_gcd(d, P)
            if algebraic_is_root(alpha, integer_image(g, (), g.order.index(var))):
                P = exact_div(P, g)
            else:
                d = exact_div(d, g)
    coeffs = trim(integer_image(P, (), P.order.index(v)))
    if len(coeffs) < 2:
        raise RealAlgebraError(
            "could not build a candidate defining polynomial: the chain ended in a constant")
    return coeffs
