"""Sparse exact-rational multivariate polynomials.

Polynomials are immutable values: a map from exponent vectors to non-zero
rational coefficients, under a fixed variable ordering.  A coefficient is
an int when it is integral and a Fraction only when it is not, so the
integral polynomials of projection (resultants, discriminants, gcds) do
integer arithmetic throughout; every coefficient division goes through one
exact quotient that leaves ints as ints when the division is exact.  The
type plays no part in equality or hashing (3 == Fraction(3) and both hash
alike).  Everything else in the package (root isolation, Groebner bases,
projection, lifting) is built on the operations here.

integer_image is the one reading of a polynomial as integers at a rational
point: p's coefficients in one variable (or p's value), with every other
variable it reads set to n_i/d_i, scaled by the positive factor den(p) prod
d_i^deg_i(p), den(p) the lcm of p's coefficient denominators.  So it has
the signs, roots and primitive part of the Fraction specialisation.  The
gcd's coprimality test takes its images at integer points; realalg takes
them at the rational coordinates of a sample point, and with an empty point
it reads a univariate polynomial's coefficients as integers.

poly_gcd first tries to prove a pair coprime in its main variable v on an
integer image: every other variable is set to a small integer, at a point
where neither leading coefficient in v vanishes, and the univariate gcd of
the two images is taken.  Such a point keeps the degree in v of the gcd g
(its leading coefficient divides theirs), and g's image divides both
images, so an image gcd of degree 0 proves that g is free of v; g is then
the gcd of the contents in v.  The test is exact, not heuristic.  Otherwise
(both points lost a leading coefficient, or gave a non-constant image gcd)
the subresultant PRS computes the gcd.  Most pairs of a squarefree basis are
coprime and never reach the PRS.  A squarefree basis and the resultants of
projection pair each polynomial with many partners, so a polynomial keeps
its two images in its main variable and its content in the variable last
asked for (content_primitive), both taken on first read: each is computed
once per polynomial, not once per pair.

Two kernels work on dense coefficient lists in a main variable, lowest
degree first, whose entries are ints or Polynomials free of that variable:
the pseudo-remainder _prem and the exact division _exquo.  _exquo divides
each quotient entry by the divisor's leading entry, with divmod when both
are ints and with // (exact_div, one variable further down) otherwise, and
raises ExactDivisionError on any remainder.  realalg's squarefree parts,
bisection and deflation divide integer tuples with the same kernel.

One remainder sequence, the subresultant PRS (Collins 1967; Brown 1971) of
_subresultant_prs, serves resultant, poly_gcd and ugcd on integer tuples
(the image gcd here, the defining polynomials of realalg), on the two
kernels.  Each remainder is divided by the subresultant divisor that keeps
its coefficients small, never by its content: only the inputs and the last
non-zero member are split into content and primitive part.

resultant, poly_gcd and content_primitive split a polynomial with _dense:
an integer constant coefficient is the int itself, so the PRS multiplies
and divides integers as ints, and each remainder's integral constants are
made ints again (_ints).  A non-zero int entry proves a content 1 without a
gcd.  resultant and poly_gcd first scale a rational input to integer
coefficients (_integral): over Q a subresultant divisor need not divide an
integer entry in the integers, which _exquo's divmod requires.  exact_div
splits with coeffs_in, all Polynomials, for the same reason: its quotient
may be rational (x + y over 2x + 2y is 1/2).  The callers rebuild a
Polynomial with from_coeffs only where one is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm


class PolynomialError(Exception):
    pass


class OrderingMismatchError(PolynomialError):
    """A variable is not part of the polynomial's variable ordering."""


class ZeroPolynomialError(PolynomialError):
    """Operation undefined on the zero polynomial."""


class DegenerateResultantError(PolynomialError):
    """Resultant/discriminant asked for with too-low degree in the variable."""


class ExactDivisionError(PolynomialError):
    """Division that was expected to be exact left a remainder."""


class ParseError(PolynomialError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class VarOrder:
    """A fixed total ordering of variable names.

    Position 0 is the lowest variable (projected to last); the last position
    is the highest.  Level k (1-based) refers to names[k-1].
    """

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise OrderingMismatchError("variable ordering must be non-empty")
        if len(set(names)) != len(names):
            raise OrderingMismatchError("duplicate variable in ordering: %r" % (names,))
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise OrderingMismatchError("unknown variable %r (ordering %r)" % (name, self.names))

    def level(self, name):
        return self.index(name) + 1

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarOrder) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VarOrder(%s)" % ",".join(self.names)


def _coeff(x):
    """x as a coefficient: an int when integral, else a Fraction.  Floats
    and other types are refused."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def coeff_quotient(a, b):
    """The exact quotient a / b of two coefficients: an int when b divides
    a in the integers, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(a / b)


def int_coeffs(terms):
    """terms (modified in place) with each integral Fraction made an int."""
    if {int}.issuperset(map(type, terms.values())):
        return terms
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


class Polynomial:
    """Sparse multivariate polynomial with rational coefficients.

    terms maps exponent tuples (one entry per variable of the order) to
    non-zero coefficients: an int when integral, a Fraction otherwise.
    Instances are immutable and hashable; equal term maps mean equal
    polynomials (canonical form), whatever the coefficient types.  The hash,
    the degree vector, the content in the variable last asked for
    (content_primitive) and the two integer images of the coprimality test
    (_coprime_image) are computed on first read and kept; none of them
    takes part in equality or hashing.
    """

    __slots__ = ("order", "terms", "_hash", "_degrees", "_content", "_images")

    def __init__(self, order, terms, _clean=False):
        self.order = order
        if _clean:
            self.terms = terms
        else:
            clean = {}
            width = len(order)
            for expt, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff == 0:
                    continue
                expt = tuple(expt)
                if len(expt) != width or any(e < 0 for e in expt):
                    raise PolynomialError("bad exponent vector %r" % (expt,))
                clean[expt] = clean.get(expt, 0) + coeff
            self.terms = int_coeffs({e: c for e, c in clean.items() if c != 0})
        self._hash = None
        self._degrees = None
        self._content = None  # (v, content in v), None standing for content 1
        self._images = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls(order, {}, _clean=True)

    @classmethod
    def constant(cls, order, value):
        value = _coeff(value)
        if value == 0:
            return cls.zero(order)
        return cls(order, {(0,) * len(order): value}, _clean=True)

    @classmethod
    def variable(cls, order, name):
        i = order.index(name)
        expt = tuple(1 if j == i else 0 for j in range(len(order)))
        return cls(order, {expt: 1}, _clean=True)

    @classmethod
    def monomial(cls, order, expt, coeff):
        return cls(order, {tuple(expt): coeff})

    # -- basic predicates --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        # the term map is canonical: a non-zero constant is one term at 0
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self):
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise PolynomialError("not a constant: %s" % self)
        return next(iter(self.terms.values()))

    def degrees(self):
        """The degree in each variable of the order, as a tuple by position."""
        degrees = self._degrees
        if degrees is None:
            terms = self.terms
            degrees = self._degrees = (tuple(map(max, zip(*terms))) if terms
                                       else (0,) * len(self.order))
        return degrees

    def variables(self):
        names = self.order.names
        return frozenset(names[i] for i, e in enumerate(self.degrees()) if e)

    def main_variable(self):
        """Highest-ordered variable actually present, or None for constants."""
        degrees = self.degrees()
        for i in range(len(degrees) - 1, -1, -1):
            if degrees[i]:
                return self.order.names[i]
        return None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.order != other.order:
            raise OrderingMismatchError("mixed variable orderings")

    def _sum(self, other, negate):
        """self + other, or self - other when negate."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.order, other)
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for expt, coeff in other.terms.items():
            s = get(expt, 0) - coeff if negate else get(expt, 0) + coeff
            if s:
                terms[expt] = s
            elif expt in terms:
                del terms[expt]
        return Polynomial(self.order, int_coeffs(terms), _clean=True)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.order, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = _coeff(other)
            if other == 0:
                return Polynomial.zero(self.order)
            terms = {e: c * other for e, c in self.terms.items()}
            return Polynomial(self.order, int_coeffs(terms), _clean=True)
        self._check(other)
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        terms = {}
        get = terms.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(int.__add__, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return Polynomial(self.order, int_coeffs(terms), _clean=True)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient self / other (exact_div); other may be a
        coefficient.  Raises ExactDivisionError on a remainder."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.order, other)
        return exact_div(self, other)

    def __rfloordiv__(self, other):
        """The exact quotient of a coefficient by self (a list entry of the
        remainder kernels divided by a Polynomial one)."""
        return exact_div(Polynomial.constant(self.order, other), self)

    def __pow__(self, n):
        if n < 0:
            raise PolynomialError("negative power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.constant(self.order, 1) if result is None else result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, frozenset(self.terms.items())))
        return self._hash

    # -- structure ---------------------------------------------------------

    def degree_in(self, v):
        return self.degrees()[self.order.index(v)]

    def total_degree(self):
        return max((sum(expt) for expt in self.terms), default=0)

    def coeffs_in(self, v):
        """Coefficients as polynomials in the other variables, index = power of v."""
        order = self.order
        return [c if type(c) is Polynomial else Polynomial.constant(order, c)
                for c in _dense(self, v)]

    def leading_coeff_in(self, v):
        i = self.order.index(v)
        d = self.degree_in(v)
        return Polynomial(self.order, {e[:i] + (0,) + e[i + 1:]: c
                                       for e, c in self.terms.items() if e[i] == d},
                          _clean=True)

    def derivative(self, v):
        i = self.order.index(v)
        terms = {}
        for expt, coeff in self.terms.items():
            if expt[i] == 0:
                continue
            e = expt[:i] + (expt[i] - 1,) + expt[i + 1:]
            terms[e] = coeff * expt[i]
        return Polynomial(self.order, terms)

    def evaluate(self, assignment):
        """Partially substitute rational values; returns a Polynomial."""
        idx = {self.order.index(v): _coeff(q) for v, q in assignment.items()}
        terms = {}
        for expt, coeff in self.terms.items():
            c = coeff
            e = list(expt)
            for i, q in idx.items():
                if expt[i]:
                    c *= q ** expt[i]
                    e[i] = 0
            if c == 0:
                continue
            e = tuple(e)
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return Polynomial(self.order, int_coeffs(terms), _clean=True)

    def eval_rational(self, assignment):
        value = self.evaluate(assignment)
        return value.constant_value()

    def restricted(self, order):
        """Re-express under another ordering covering this one's variables."""
        if order == self.order:
            return self
        mapping = [order.index(name) for name in self.order.names]
        width = len(order)
        terms = {}
        for expt, coeff in self.terms.items():
            e = [0] * width
            for src, dst in enumerate(mapping):
                e[dst] = expt[src]
            terms[tuple(e)] = coeff
        return Polynomial(order, terms, _clean=True)

    # -- term ordering (lex, highest variable most significant) -------------

    def _lex_key(self, expt):
        return tuple(reversed(expt))

    def leading_term(self):
        """(exponent, coeff) of the lex-leading term (highest variable first)."""
        if self.is_zero():
            raise ZeroPolynomialError("leading term of zero")
        expt = max(self.terms, key=self._lex_key)
        return expt, self.terms[expt]

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return "Polynomial(%s)" % poly_to_str(self)


# ---------------------------------------------------------------------------
# printing / parsing


def _monomial_str(order, expt):
    parts = []
    for name, e in reversed(tuple(zip(order.names, expt))):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def poly_to_str(p):
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda item: p._lex_key(item[0]), reverse=True)
    chunks = []
    for expt, coeff in items:
        mono = _monomial_str(p.order, expt)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


# Tokenizer shared with the formula grammar.

_SYMBOLS = ("<=", ">=", "!=", "(", ")", "+", "-", "*", "^", "=", "<", ">", ",", ".")


def tokenize(text):
    """Yield (kind, value, position) tokens; kind in {num, name, sym, end}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            # rational literal p/q
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                tokens.append(("num", Fraction(int(text[i:j]), int(text[j + 1:k])), i))
                i = k
            else:
                tokens.append(("num", int(text[i:j]), i))
                i = j
            continue
        if ch.isalpha() and ch.islower():
            j = i
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, i))
                i += len(sym)
                break
        else:
            raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, where = self.next()
        if kind != "sym" or value != sym:
            raise ParseError("expected %r" % sym, where)


KEYWORDS = frozenset({"and", "or", "not", "implies", "exists", "forall"})


def parse_poly_tokens(ts, order):
    """Parse a polynomial expression from a token stream.

    Grammar: usual precedence for + - * ^, unary minus, parentheses,
    integer/rational literals, variables from the ordering.
    """

    def parse_sum():
        kind, value, _ = ts.peek()
        negate = False
        if kind == "sym" and value in ("+", "-"):
            ts.next()
            negate = value == "-"
        acc = parse_product()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = ts.peek()
            if kind == "sym" and value in ("+", "-"):
                ts.next()
                term = parse_product()
                acc = acc + term if value == "+" else acc - term
            else:
                return acc

    def parse_product():
        acc = parse_power()
        while True:
            kind, value, _ = ts.peek()
            if kind == "sym" and value == "*":
                ts.next()
                acc = acc * parse_power()
            else:
                return acc

    def parse_power():
        base = parse_atom()
        kind, value, _ = ts.peek()
        if kind == "sym" and value == "^":
            ts.next()
            kind, expo, where = ts.next()
            if kind != "num" or expo.denominator != 1 or expo < 0:
                raise ParseError("exponent must be a non-negative integer", where)
            return base ** int(expo)
        return base

    def parse_atom():
        kind, value, where = ts.next()
        if kind == "num":
            return Polynomial.constant(order, value)
        if kind == "name":
            if value in KEYWORDS:
                raise ParseError("keyword %r not allowed in polynomial" % value, where)
            if value not in order:
                raise ParseError("variable %r not in ordering %r" % (value, order.names), where)
            return Polynomial.variable(order, value)
        if kind == "sym" and value == "(":
            inner = parse_sum()
            ts.expect_sym(")")
            return inner
        if kind == "sym" and value == "-":
            return -parse_atom()
        raise ParseError("unexpected token %r" % (value,), where)

    return parse_sum()


def parse_poly(text, order):
    ts = TokenStream(tokenize(text))
    p = parse_poly_tokens(ts, order)
    kind, value, where = ts.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % (value,), where)
    return p


# ---------------------------------------------------------------------------
# normalization


def integer_terms(p):
    """(den, terms): den the lcm of p's coefficient denominators and terms
    p's term map times den, all ints (p.terms itself when den is 1)."""
    if {int}.issuperset(map(type, p.terms.values())):
        return 1, p.terms
    den = lcm(*(c.denominator for c in p.terms.values()))
    if den == 1:
        return 1, p.terms
    return den, {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def integer_normalized(p):
    """Scale to integer coefficients with content 1 and positive leading
    coefficient (lex leading term, highest variable most significant)."""
    if p.is_zero():
        return p
    den, terms = integer_terms(p)
    g = _int_gcd(*terms.values())
    if terms[p.leading_term()[0]] < 0:
        g = -g
    if g == 1:
        return p if den == 1 else Polynomial(p.order, terms, _clean=True)
    return Polynomial(p.order, {e: c // g for e, c in terms.items()}, _clean=True)


# ---------------------------------------------------------------------------
# division / gcd machinery


def exact_div(p, q):
    """Exact polynomial division; raises ExactDivisionError on remainder.
    A non-constant q divides on coefficient lists in its main variable
    (_exquo)."""
    p._check(q)
    if q.is_zero():
        raise ZeroPolynomialError("division by zero polynomial")
    if q.is_constant():
        k = q.constant_value()
        if k == 1:
            return p
        return Polynomial(p.order, {e: coeff_quotient(c, k) for e, c in p.terms.items()},
                          _clean=True)
    v = q.main_variable()
    return from_coeffs(_exquo(p.coeffs_in(v), q.coeffs_in(v)), v, p.order)


def _dense(p, v):
    """p's coefficient list in v, lowest degree first, as the kernels below
    take it: 0 for an absent power, the int itself for a coefficient that is
    one integer constant, and otherwise a Polynomial free of v.  So the
    subresultant PRS multiplies integer coefficients as ints."""
    order = p.order
    i = order.index(v)
    buckets = [{} for _ in range(p.degree_in(v) + 1)]
    for expt, coeff in p.terms.items():
        buckets[expt[i]][expt[:i] + (0,) + expt[i + 1:]] = coeff
    zero = (0,) * len(order)
    out = []
    for b in buckets:
        c = b.get(zero) if len(b) == 1 else None
        if type(c) is not int:
            c = Polynomial(order, b, _clean=True) if b else 0
        out.append(c)
    return out


def _integral(p):
    """(den, den * p), den the lcm of p's coefficient denominators (p itself
    when den is 1).  The subresultant PRS of resultant and poly_gcd runs on
    integral inputs, so that each of its divisions is exact in the integers
    and an int entry divides an int by divmod (_exquo)."""
    den, terms = integer_terms(p)
    return den, p if den == 1 else Polynomial(p.order, terms, _clean=True)


def _ints(coeffs):
    """coeffs as a tuple, each constant Polynomial entry with an integer
    value made that int, as _dense gives it."""
    out = []
    for c in coeffs:
        if type(c) is not int and c.is_constant():
            k = c.constant_value()
            if type(k) is int:
                c = k
        out.append(c)
    return tuple(out)


def from_coeffs(coeffs, v, order):
    """The polynomial sum of coeffs[k] v^k, each coeffs[k] an int or a
    Polynomial free of v."""
    i = order.index(v)
    zero = (0,) * len(order)
    terms = {}
    for k, c in enumerate(coeffs):
        if type(c) is int:
            if c:
                terms[zero[:i] + (k,) + zero[i + 1:]] = c
        else:
            for e, x in c.terms.items():
                terms[e[:i] + (k,) + e[i + 1:]] = x
    return Polynomial(order, terms, _clean=True)


def _prem(a, b):
    """Pseudo-remainder lc(b)^(da - db + 1) * a modulo b, da and db the
    degrees of a and b, on coefficient lists (lowest degree first) whose
    entries are ints or Polynomials free of the variable; b's last entry is
    non-zero.  Every step scales by lc(b), also where a leading entry is
    zero, so a degree drop of more than one is padded.  Returns a tuple
    without trailing zeros: a's entries when da < db."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    tail = [(i, y) for i, y in enumerate(b[:-1]) if y]
    for shift in range(len(a) - db - 1, -1, -1):
        c = a.pop()
        a = [lb * x if x else x for x in a]
        if c:
            for i, y in tail:
                a[shift + i] -= c * y
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def _exquo(a, b):
    """The exact quotient a / b on coefficient lists as for _prem.  Each
    quotient entry is the top remaining entry of a divided by lc(b): by
    divmod when both are ints, since int // does not check, and by //
    (exact_div) when either is a Polynomial.  Raises ExactDivisionError on
    any remainder."""
    if b == (1,):  # every first step of the subresultant PRS
        return tuple(a)
    rem = list(a)
    lb, db = b[-1], len(b) - 1
    tail = [(i, y) for i, y in enumerate(b[:-1]) if y]
    quotient = [0] * (len(rem) - db)
    for shift in range(len(quotient) - 1, -1, -1):
        c = rem.pop()
        if c:
            if type(c) is int and type(lb) is int:
                c, r = divmod(c, lb)
                if r:
                    raise ExactDivisionError("%s does not divide %s" % (b, a))
            else:
                c = c // lb
            for i, y in tail:
                rem[shift + i] -= c * y
        quotient[shift] = c
    if any(rem):
        raise ExactDivisionError("%s does not divide %s" % (b, a))
    return tuple(quotient)


def _subresultant_prs(a, b):
    """The subresultant PRS of coefficient lists a and b (as for _prem,
    len(a) >= len(b) >= 1, both leading entries non-zero).

    Returns (prev, last, h, odd): last is the last non-zero member, prev
    the member before it, h the subresultant scale reached at prev, and odd
    whether the sign flips (one per step between two odd degrees) are odd
    in number.  last is a multiple of the gcd of a and b, of the same
    degree; when it is a constant, the resultant is +-last[0]^d / h^(d - 1),
    d the degree of prev.  Each remainder's integral constant entries are
    ints (_ints), as in a _dense split, whatever cancelled to give them."""
    g = h = 1
    odd = False
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        odd ^= da & db & 1 == 1
        r = _prem(a, b)
        if not r:
            break
        a, b = b, _ints(_exquo(r, (g * h ** delta,)))
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g ** delta // h ** (delta - 1)
    return a, b, h, odd


def _list_content(coeffs):
    """The normalized gcd of the non-zero entries of a coefficient list as
    _dense gives it, None when that is 1.  A non-zero int entry proves it 1
    without a gcd."""
    if any(c for c in coeffs if type(c) is int):
        return None
    cont = _gcd_many([c for c in coeffs if c])
    return None if cont.is_constant() else cont


def _gcd_many(polys):
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p if g is None else poly_gcd(g, p)
        if g.is_constant():
            break
    if g is None:
        return Polynomial.zero(polys[0].order) if polys else None
    return integer_normalized(g)


# Dense univariate helpers on integer coefficient tuples (lowest degree
# first): the image gcd of poly_gcd, and the defining polynomials of realalg.


def primitive(coeffs):
    """coeffs divided by its content, with a positive leading coefficient."""
    g = _int_gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return coeffs if g == 1 else tuple(c // g for c in coeffs)


def ugcd(a, b):
    """Primitive gcd of two non-zero integer tuples: the primitive part of
    the last non-zero member of their subresultant PRS."""
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    last = _subresultant_prs(a, b)[1]
    return primitive(last) if len(last) > 1 else (1,)


def integer_image(p, point, vi=None):
    """p's integer coefficients in the variable at position vi (one entry
    when vi is None), with every other variable p reads set to the rational
    point[i] = (n, d), d > 0, by position.

    Each term c x^e contributes c den(p) prod n_i^e_i d_i^(deg_i - e_i),
    den(p) the lcm of p's coefficient denominators and deg_i p's degree in
    the variable at position i.  So the image is the Fraction specialisation
    times the positive factor den(p) prod d_i^deg_i: it has the same signs,
    roots and primitive part.  Only the coordinates p reads are looked up,
    so point may be a list or a dict, and is empty when p reads no variable
    but the one at vi."""
    terms = p.terms
    den = 1 if {int}.issuperset(map(type, terms.values())) else \
        lcm(*[c.denominator for c in terms.values()])
    degs = p.degrees()
    ints, fracs = [], []  # (i, n) at integer coordinates, (i, n, d, deg_i) at others
    for i, deg in enumerate(degs):
        if deg and i != vi:
            n, d = point[i]
            if d == 1:
                ints.append((i, n))
            else:
                fracs.append((i, n, d, deg))
    out = [0] * (1 if vi is None else degs[vi] + 1)
    for expt, c in terms.items():
        if den != 1:
            c = c.numerator * (den // c.denominator)
        for i, n in ints:
            e = expt[i]
            if e:
                c *= n ** e
        for i, n, d, deg in fracs:
            e = expt[i]
            c *= n ** e * d ** (deg - e)
        out[0 if vi is None else expt[vi]] += c
    return out


def _main_images(p):
    """p's integer images in its main variable at the two points of
    _coprime_image, taken on first read and kept on p."""
    images = p._images
    if images is None:
        order = p.order
        vi = order.index(p.main_variable())
        n = len(order)
        images = p._images = (integer_image(p, [(i + 2, 1) for i in range(n)], vi),
                              integer_image(p, [(-(i + 3), 1) for i in range(n)], vi))
    return images


def _coprime_image(p, q):
    """True when an image gcd of degree 0, at a point where neither
    leading coefficient in v vanishes, proves gcd(p, q) free of v, the main
    variable of both.  False proves nothing: both points lost a leading
    coefficient or gave a non-constant image gcd.  The points are small
    distinct integers by position: 2, 3, 4, ... and then -3, -4, -5, ...
    Each side's images are taken once per polynomial (_main_images)."""
    for a, b in zip(_main_images(p), _main_images(q)):
        if a[-1] and b[-1] and len(ugcd(a, b)) == 1:
            return True
    return False


def poly_gcd(p, q):
    """GCD over Q[vars], normalized (integer content 1, positive lead).

    v is the higher main variable of p and q.  Let a be a point of the
    other variables where neither leading coefficient in v vanishes.  The
    gcd g keeps its degree in v at a (lc(g) divides lc(p)), and g(a) divides
    p(a) and q(a), so deg_v g <= deg gcd(p(a), q(a)).  When that image gcd
    is constant, g is free of v and equals gcd(cont_v p, cont_v q).
    Otherwise g is the primitive part of the last non-zero member of the
    subresultant PRS of p's and q's primitive parts in v, times
    gcd(cont_v p, cont_v q).  Every content in v is read through
    content_primitive, so it is computed once per polynomial, and the
    images of the test once per polynomial (_coprime_image).
    """
    if p.is_zero():
        return integer_normalized(q) if not q.is_zero() else q
    if q.is_zero():
        return integer_normalized(p)
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(p.order, 1)
    vp = p.main_variable()
    vq = q.main_variable()
    v = vp if p.order.index(vp) >= p.order.index(vq) else vq
    if p.degree_in(v) == 0:
        # One side is free of the top variable: gcd divides its content.
        return poly_gcd(p, content_primitive(q, v)[0])
    if q.degree_in(v) == 0:
        return poly_gcd(q, content_primitive(p, v)[0])
    cont_p, prim_p = content_primitive(p, v)
    cont_q, prim_q = content_primitive(q, v)
    cont_g = cont_p if cont_p.is_constant() else cont_q if cont_q.is_constant() \
        else poly_gcd(cont_p, cont_q)  # a constant content is 1, the gcd
    if _coprime_image(p, q):
        return cont_g
    cp, cq = _dense(_integral(prim_p)[1], v), _dense(_integral(prim_q)[1], v)
    if len(cp) < len(cq):
        cp, cq = cq, cp
    last = _subresultant_prs(cp, cq)[1]
    if len(last) == 1:
        return cont_g
    cont = _list_content(last)
    g = from_coeffs(last if cont is None else _exquo(last, (cont,)), v, p.order)
    return integer_normalized(g if cont_g.is_constant() else g * cont_g)


# ---------------------------------------------------------------------------
# content / primitive part


def content_primitive(p, v):
    """Content (gcd of coefficients w.r.t. v, normalized) and primitive part.

    The content is computed on first read and kept on p for the variable
    last asked for, so the pairwise gcds and resultants of projection take
    each polynomial's content once; the primitive part is p itself when the
    content is 1 and is divided out afresh otherwise.  The content is read
    off p's _dense split, so an integer coefficient proves it 1."""
    if p.is_zero():
        raise ZeroPolynomialError("content of zero polynomial")
    kept = p._content
    if kept is not None and kept[0] == v:
        cont = kept[1]
    else:
        cont = _list_content(_dense(p, v))
        p._content = (v, cont)
    if cont is None:
        return Polynomial.constant(p.order, 1), p
    return cont, exact_div(p, cont)


def is_primitive(p, v):
    if p.is_zero():
        raise ZeroPolynomialError("primitivity of zero polynomial")
    if p.degree_in(v) < 1:
        raise PolynomialError("primitivity needs degree >= 1 in %s" % v)
    cont, _ = content_primitive(p, v)
    return cont.is_constant()


# ---------------------------------------------------------------------------
# resultants


def resultant(p, q, v):
    """Sylvester resultant of p and q with respect to v, exact sign.

    Computed by the subresultant polynomial remainder sequence; tests check
    it against a dense Sylvester determinant.
    """
    dp = p.degree_in(v)
    dq = q.degree_in(v)
    if dp < 1 or dq < 1:
        raise DegenerateResultantError(
            "resultant needs degree >= 1 in %s on both sides" % v)
    swap_odd = dp < dq and dp & dq & 1 == 1
    if dp < dq:
        p, q = q, p
        dp, dq = dq, dp
    cont_a, a = content_primitive(p, v)
    cont_b, b = content_primitive(q, v)
    den_a, a = _integral(a)
    den_b, b = _integral(b)
    a, b, h, odd = _subresultant_prs(_dense(a, v), _dense(b, v))
    if len(b) > 1:
        return Polynomial.zero(p.order)
    da = len(a) - 1
    r = b[0] if da == 1 else b[0] ** da // h ** (da - 1)
    result = r if type(r) is Polynomial else Polynomial.constant(p.order, r)
    den = den_a ** dq * den_b ** dp  # res(c*a, b) = c^deg(b) * res(a, b)
    if den != 1:
        result = result // den
    # a constant content is 1
    if not cont_a.is_constant():
        result = result * cont_a ** dq
    if not cont_b.is_constant():
        result = result * cont_b ** dp
    return -result if odd ^ swap_odd else result


def discriminant(p, v):
    """(-1)^(d(d-1)/2) * res(p, dp/dv, v) / lc(p, v)."""
    d = p.degree_in(v)
    if d < 2:
        raise DegenerateResultantError("discriminant needs degree >= 2 in %s" % v)
    res = resultant(p, p.derivative(v), v)
    lc = p.leading_coeff_in(v)
    disc = exact_div(res, lc)
    if (d * (d - 1) // 2) % 2 == 1:
        disc = -disc
    return disc


# ---------------------------------------------------------------------------
# squarefree machinery


def squarefree_part(p, v):
    """p with repeated factors (in v) collapsed, normalized."""
    if p.is_zero():
        raise ZeroPolynomialError("squarefree part of zero polynomial")
    if p.degree_in(v) == 0:
        return integer_normalized(p)
    g = poly_gcd(p, p.derivative(v))
    return integer_normalized(exact_div(p, g))


def squarefree_basis(ps, v):
    """Pairwise-coprime squarefree set with the same root set (in v) as ps.

    Constants are dropped and every element is integer-normalized.  Not an
    irreducible factorization: coprime + squarefree is all the projection
    operator needs.  The input is taken in a canonical order (smallest term
    list popped first), so the work done does not depend on the iteration
    order of a set, and with it on the hash seed.
    """
    queue = []
    for p in sorted(ps, key=lambda p: sorted(p.terms.items()), reverse=True):
        if p.is_zero():
            raise ZeroPolynomialError("zero polynomial in squarefree basis input")
        if p.is_constant():
            continue
        queue.append(squarefree_part(p, v))
    basis = []
    while queue:
        p = queue.pop()
        if p.is_constant():
            continue
        split = False
        for i, b in enumerate(basis):
            if p == b:
                split = True
                break
            g = poly_gcd(p, b)
            if not g.is_constant():
                del basis[i]
                queue.append(g)
                queue.append(integer_normalized(exact_div(b, g)))
                queue.append(integer_normalized(exact_div(p, g)))
                split = True
                break
        if not split:
            basis.append(p)
    return set(basis)
