"""Quantifier-free and prenex formulas over polynomial sign conditions.

Grammar: atoms `<poly> (=|!=|<|<=|>|>=) <poly>`; connectives `and`, `or`,
`not`, `implies` (eliminated at parse), parentheses; quantifier prefix
`exists v.` / `forall v.` only.  Atoms are normalized to `p ~ 0` form.
"""

from __future__ import annotations

from .polynomial import (
    ParseError,
    TokenStream,
    integer_normalized,
    parse_poly_tokens,
    tokenize,
)
from .realalg import AlgebraicNumber, SamplePoint, sign_at

RELATIONS = ("=", "!=", "<", "<=", ">", ">=")

_REL_TEST = {
    "=": lambda s: s == 0,
    "!=": lambda s: s != 0,
    "<": lambda s: s < 0,
    "<=": lambda s: s <= 0,
    ">": lambda s: s > 0,
    ">=": lambda s: s >= 0,
}

_REL_NEG = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class FormulaError(Exception):
    pass


class Atom:
    """A polynomial sign condition p ~ 0."""

    __slots__ = ("poly", "rel")

    def __init__(self, poly, rel):
        if rel not in RELATIONS:
            raise FormulaError("unknown relation %r" % rel)
        self.poly = poly
        self.rel = rel

    def evaluate(self, sign_of):
        return _REL_TEST[self.rel](sign_of(self.poly))

    def negated(self):
        return Atom(self.poly, _REL_NEG[self.rel])

    def polynomials(self):
        return {self.poly}

    def variables(self):
        return self.poly.variables()

    def __eq__(self, other):
        return isinstance(other, Atom) and self.poly == other.poly and self.rel == other.rel

    def __hash__(self):
        return hash((self.poly, self.rel))

    def __str__(self):
        return "%s %s 0" % (self.poly, self.rel)


class And:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def evaluate(self, sign_of):
        return all(c.evaluate(sign_of) for c in self.children)

    def negated(self):
        return Or([c.negated() for c in self.children])

    def polynomials(self):
        out = set()
        for c in self.children:
            out |= c.polynomials()
        return out

    def variables(self):
        out = set()
        for c in self.children:
            out |= c.variables()
        return out

    def __str__(self):
        return " and ".join(_paren(c) for c in self.children)


class Or:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def evaluate(self, sign_of):
        return any(c.evaluate(sign_of) for c in self.children)

    def negated(self):
        return And([c.negated() for c in self.children])

    def polynomials(self):
        out = set()
        for c in self.children:
            out |= c.polynomials()
        return out

    def variables(self):
        out = set()
        for c in self.children:
            out |= c.variables()
        return out

    def __str__(self):
        return " or ".join(_paren(c) for c in self.children)


class Not:
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def evaluate(self, sign_of):
        return not self.child.evaluate(sign_of)

    def negated(self):
        return self.child

    def polynomials(self):
        return self.child.polynomials()

    def variables(self):
        return self.child.variables()

    def __str__(self):
        return "not (%s)" % self.child


def _paren(node):
    if isinstance(node, Atom):
        return str(node)
    return "(%s)" % node


class Formula:
    """A boolean combination of atoms under an optional prenex prefix.

    prefix is a tuple of (quantifier, variable) pairs, outermost first;
    the matrix is quantifier-free.
    """

    __slots__ = ("prefix", "matrix", "order")

    def __init__(self, matrix, order, prefix=()):
        prefix = tuple(prefix)
        seen = set()
        for quant, var in prefix:
            if quant not in ("exists", "forall"):
                raise FormulaError("unknown quantifier %r" % quant)
            if var in seen:
                raise FormulaError("repeated quantified variable %r" % var)
            if var not in order:
                raise FormulaError("quantified variable %r not in ordering" % var)
            seen.add(var)
        self.prefix = prefix
        self.matrix = matrix
        self.order = order

    def bound_variables(self):
        return {v for _, v in self.prefix}

    def free_variables(self):
        return self.matrix.variables() - self.bound_variables()

    def is_closed(self):
        return not self.free_variables()

    def polynomials(self):
        return self.matrix.polynomials()

    def negated(self):
        """Logical negation: interchange quantifiers, negate the matrix."""
        flip = {"exists": "forall", "forall": "exists"}
        prefix = tuple((flip[q], v) for q, v in self.prefix)
        return Formula(self.matrix.negated(), self.order, prefix)

    def __str__(self):
        head = "".join("%s %s. " % (q, v) for q, v in self.prefix)
        return head + str(self.matrix)


# ---------------------------------------------------------------------------
# parsing


def parse_formula(text, order):
    """Parse a formula; all variables must belong to the ordering."""
    ts = TokenStream(tokenize(text))
    prefix = []
    while True:
        kind, value, _ = ts.peek()
        if kind == "name" and value in ("exists", "forall"):
            ts.next()
            vkind, var, where = ts.next()
            if vkind != "name" or var in ("exists", "forall"):
                raise ParseError("expected variable after quantifier", where)
            if var not in order:
                raise ParseError("variable %r not in ordering %r" % (var, order.names), where)
            ts.expect_sym(".")
            prefix.append(("exists" if value == "exists" else "forall", var))
        else:
            break
    matrix = _parse_implies(ts, order)
    kind, value, where = ts.peek()
    if kind != "end":
        raise ParseError("trailing input %r" % (value,), where)
    return Formula(matrix, order, prefix)


def _parse_implies(ts, order):
    left = _parse_or(ts, order)
    kind, value, _ = ts.peek()
    if kind == "name" and value == "implies":
        ts.next()
        right = _parse_implies(ts, order)
        return Or([Not(left), right])
    return left


def _parse_or(ts, order):
    children = [_parse_and(ts, order)]
    while True:
        kind, value, _ = ts.peek()
        if kind == "name" and value == "or":
            ts.next()
            children.append(_parse_and(ts, order))
        else:
            break
    return children[0] if len(children) == 1 else Or(children)


def _parse_and(ts, order):
    children = [_parse_unary(ts, order)]
    while True:
        kind, value, _ = ts.peek()
        if kind == "name" and value == "and":
            ts.next()
            children.append(_parse_unary(ts, order))
        else:
            break
    return children[0] if len(children) == 1 else And(children)


def _parse_unary(ts, order):
    kind, value, _ = ts.peek()
    if kind == "name" and value == "not":
        ts.next()
        return Not(_parse_unary(ts, order))
    return _parse_primary(ts, order)


def _parse_primary(ts, order):
    # Try an atom first (its left side may itself start with parentheses);
    # fall back to a parenthesized formula.
    start = ts.pos
    try:
        return _parse_atom(ts, order)
    except ParseError:
        ts.pos = start
    kind, value, where = ts.next()
    if kind == "sym" and value == "(":
        inner = _parse_implies(ts, order)
        ts.expect_sym(")")
        return inner
    raise ParseError("expected an atom or parenthesized formula", where)


def _parse_atom(ts, order):
    lhs = parse_poly_tokens(ts, order)
    kind, value, where = ts.next()
    if kind != "sym" or value not in RELATIONS:
        raise ParseError("expected a relation", where)
    rhs = parse_poly_tokens(ts, order)
    return Atom(lhs - rhs, value)


# ---------------------------------------------------------------------------
# operations


def flatten_conjuncts(node):
    """Top-level conjuncts after flattening nested conjunctions."""
    if isinstance(node, And):
        out = []
        for c in node.children:
            out.extend(flatten_conjuncts(c))
        return out
    return [node]


def identify_ecs(f):
    """Syntactic equational constraints: equality atoms appearing as
    top-level conjuncts.  No semantic implication checking."""
    matrix = f.matrix if isinstance(f, Formula) else f
    ecs = []
    seen = set()
    for conjunct in flatten_conjuncts(matrix):
        if isinstance(conjunct, Atom) and conjunct.rel == "=":
            if conjunct.poly.is_constant():
                continue
            canon = integer_normalized(conjunct.poly)
            if canon not in seen:
                seen.add(canon)
                ecs.append(canon)
    return ecs


def evaluate_at_point(f, s):
    """Truth of a quantifier-free formula at a sample point, by exact signs."""
    matrix = f.matrix if isinstance(f, Formula) else f
    if isinstance(f, Formula) and f.prefix:
        raise FormulaError("evaluate_at_point needs a quantifier-free formula")
    cache = {}

    def sign_of(poly):
        if poly not in cache:
            cache[poly] = sign_at(poly, s)
        return cache[poly]

    return matrix.evaluate(sign_of)


def evaluate_at_rationals(f, assignment, order):
    """Truth of a quantifier-free formula at an all-rational point."""
    coords = [AlgebraicNumber.from_rational(assignment[name]) for name in order.names
              if name in assignment]
    missing = [n for n in (f.matrix if isinstance(f, Formula) else f).variables()
               if n not in assignment]
    if missing:
        raise FormulaError("point does not cover variables %r" % missing)
    return evaluate_at_point(f, SamplePoint(order, coords))


def decide(f, ec_policy="auto", ec_mode="groebner"):
    """Decide a closed prenex sentence by truth-invariant CAD.

    The variable ordering must list the quantified variables in
    quantification order (outermost = lowest, innermost = highest).  The
    quantifier fold stops at the first child that settles a stack (a true
    one under exists, a false one under forall), so only the top cells it
    reaches get a truth value; the others keep truth None, and a cell's
    sample point is built only when a sign there needs it.
    """
    from .projection import plan_projection
    from .lifting import build_cad, leaf_truth

    if not isinstance(f, Formula):
        raise FormulaError("decide needs a Formula")
    if not f.is_closed():
        raise FormulaError("decide needs a closed sentence; free: %r"
                           % sorted(f.free_variables()))
    names = tuple(v for _, v in f.prefix)
    if names != f.order.names:
        raise FormulaError(
            "ordering %r must match the quantifier prefix %r (innermost highest)"
            % (f.order.names, names))

    matrix_formula = Formula(f.matrix, f.order)
    plan = plan_projection(matrix_formula, f.order, ec_policy, ec_mode=ec_mode)
    tree = build_cad(plan)
    forms = {}
    return _fold_truth(tree.root, f.prefix,
                       lambda leaf: leaf_truth(leaf, f.matrix, tree.order, forms))


def _fold_truth(cell, prefix, truth_of):
    if cell.level == len(prefix):
        return truth_of(cell)
    quant = prefix[cell.level][0]
    results = (_fold_truth(child, prefix, truth_of) for child in cell.children)
    return any(results) if quant == "exists" else all(results)
