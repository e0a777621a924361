"""Lifting phase: build the CAD tree from a projection plan.

Stacks are built over base cells by isolating the real roots of the lifting
polynomials at the base sample point.  Two refinements apply when a level
has a designated equational constraint: only the EC is lifted (the plan
already reduced the lifting set), and stacks over sectors of an EC level
collapse to a single cylinder cell.

A cell stores only its own coordinate: a sector's rational sample, a
section's root (the object the stack's roots share), or a cylinder's 0.
Its sample point is built on first read, as its parent's sample extended
by that coordinate, and kept; so it shares the tree's memo, and cells whose
sample nothing reads never build one.

A cell's stack is lifted the first time its children are read (_Lifter,
one per tree: the level's lifting polynomials, EC flag and variable, and
the count against CELL_CAP).  build_cad lifts nothing, so nullification
and the cap raise when the tree is first read: cell_count, leaves(),
to_json, truth_assign and locate lift what they read (leaves() level by
level, in index order).  decide's quantifier fold lifts only the stacks it
descends into, and it stops at a cell whose signs settle the matrix
(partial CAD, Collins and Hong 1991).  A lifted stack is a Stack: its
length is known from its roots, and its cells are made when one of them is
first read, so cell_count reads the top level off stack lengths.  decide
on S2 of the depth-1 family lifts 135 of the 10,997 stacks of its tree;
a later read lifts the rest, so the tree still counts as the full CAD.

A stack is sign-invariant for its lifting polynomials: each one's sign on
a cell is fixed by where the cell's coordinate sits among that
polynomial's roots over the base sample.  The root lists realalg keeps
carry the sign on each gap between the roots (realalg.roots_and_signs), so
cell_sign reads a lifting polynomial's sign off its list by position and
evaluates only other polynomials.  A Stack keeps nothing for this beyond a
reference to its level's tuple of lifting polynomials.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .polynomial import integer_normalized
from .projection import CapExceededError
from .realalg import (
    IDENTICALLY_ZERO,
    SamplePoint,
    compare_rational,
    merge_roots,
    roots_above,
    roots_and_signs,
    sign_at,
    sign_by_position,
)


class RealLocateError(Exception):
    """A query point's stack did not line up with the stored stack."""


class WellOrientednessError(Exception):
    """A lifting polynomial vanished identically over a cell sample
    (nullification); McCallum's operator is not valid for this input."""


class Cell:
    """A cylindrical cell: index vector, sample point, per-level kind.

    The root is given its sample point.  Any other cell is given its own
    coordinate, and its sample is parent.sample.extended(coord), built on
    first read.  Most cells of a tree record no sign, so a cell starts with
    no signs dict.  A top cell has the empty tuple of children; any other
    cell is given its tree's _Lifter, which lifts the stack (a Stack, or a
    one-cell list for a cylinder) when children is first read."""

    __slots__ = ("index", "_sample", "coord", "kind", "cylinder", "truth", "_signs",
                 "_stack", "parent")

    def __init__(self, index, sample, kind, cylinder=False, parent=None, coord=None,
                 lifter=None):
        self.index = tuple(index)
        self._sample = sample
        self.coord = coord
        self.kind = kind          # 'sector' or 'section' at this cell's level
        self.cylinder = cylinder  # sector spanning the whole line (EC refinement)
        self.truth = None
        self._signs = None
        self._stack = () if lifter is None else lifter
        self.parent = parent

    @property
    def signs(self):
        """Exact signs recorded at this cell's sample, by polynomial; the
        dict is made on first read."""
        signs = self._signs
        if signs is None:
            signs = self._signs = {}
        return signs

    @property
    def children(self):
        """The stack over this cell, lifted on first read."""
        stack = self._stack
        if type(stack) is _Lifter:
            stack = self._stack = stack.lift(self)
        return stack

    @property
    def sample(self):
        sample = self._sample
        if sample is None:
            sample = self._sample = self.parent.sample.extended(self.coord)
        return sample

    @property
    def level(self):
        return len(self.index)

    def is_section(self):
        return self.kind == "section"

    def __repr__(self):
        return "Cell(index=%r, kind=%s)" % (self.index, self.kind)


class CADTree:
    """Tree of stacks: the root is the level-0 cell (all of R^0)."""

    __slots__ = ("order", "plan", "root", "provenance")

    def __init__(self, order, plan, root, provenance):
        self.order = order
        self.plan = plan
        self.root = root
        self.provenance = provenance  # level -> lifting polynomials sorted by str

    def cells_at_level(self, k):
        frontier = [self.root]
        for _ in range(k):
            # lift every stack of the level before making any of its cells;
            # making each stack's cells right after its lift left the
            # ec-corpus CADs' build and truth assignment about 1.5% slower
            stacks = [cell.children for cell in frontier]
            frontier = [c for stack in stacks for c in stack]
        return frontier

    def leaves(self):
        return self.cells_at_level(len(self.order))

    def to_json(self):
        def dump(cell):
            entry = {
                "index": list(cell.index),
                "kind": cell.kind,
                "cylinder": cell.cylinder,
                "sample": [str(a) for a in cell.sample.coords],
            }
            if cell.truth is not None:
                entry["truth"] = cell.truth
            if cell._signs:
                entry["signs"] = {str(p): s for p, s in cell._signs.items()}
            if cell.children:
                entry["stack"] = [dump(c) for c in cell.children]
            return entry

        return json.dumps({
            "order": list(self.order.names),
            "provenance": {str(k): [str(p) for p in ps]
                           for k, ps in self.provenance.items()},
            "root": dump(self.root),
        }, indent=2)


# ---------------------------------------------------------------------------
# stack construction


def _lower(alpha):
    """alpha's exact value if rational, else its interval's lower end, as
    an integer pair (numerator, denominator > 0)."""
    coeffs = alpha.coeffs
    return (-coeffs[0], coeffs[1]) if len(coeffs) == 2 else (alpha.lo_num, alpha.den)


def _upper(alpha):
    coeffs = alpha.coeffs
    return (-coeffs[0], coeffs[1]) if len(coeffs) == 2 else (alpha.hi_num, alpha.den)


def _sector_samples(roots):
    """Rational sector samples strictly interleaving the given sorted roots:
    the two outer ones as ints, each one between two roots as an integer
    pair (numerator, denominator > 1).

    A rational root counts as its exact value, so two rationals take their
    midpoint.  Irrational roots are refined until the gap clears: strictly
    when one neighbour is a rational q (a shared endpoint would make the
    sample q, the root itself); two irrational intervals may share an
    endpoint, which is a root of neither.  Endpoints are compared as
    integer pairs (the roots' integer intervals), and _build_stack makes
    the Fraction of a pair only when it makes the cell.  The values are
    those of the same rules in Fraction arithmetic."""
    if not roots:
        return [0]
    n, d = _lower(roots[0])
    samples = [n // d - 1]
    for a, b in zip(roots, roots[1:]):
        while True:
            (hn, hd), (ln, ld) = _upper(a), _lower(b)
            x, y = hn * ld, ln * hd
            if x < y or (x == y and not a.is_rational and not b.is_rational):
                break
            for r in (a, b):
                if not r.is_rational:
                    r.refine()
        samples.append((x + y, 2 * hd * ld))
    n, d = _upper(roots[-1])
    samples.append(-(-n // d) + 1)
    return samples


def _build_stack(base, roots, contributors, polys_in_order, sectors, lifter):
    """The 2r+1 alternating cells over `base` for the given section roots
    and the r+1 sector samples between them (_sector_samples: an int, or
    an integer pair made a Fraction here).  lifter lifts the cells' own
    stacks, None at the top level."""
    cells = []
    for i, sample in enumerate(sectors):
        cells.append(Cell(base.index + (2 * i + 1,), None, "sector", parent=base,
                          coord=sample if type(sample) is int else Fraction(*sample),
                          lifter=lifter))
        if i < len(roots):
            section = Cell(base.index + (2 * i + 2,), None, "section", parent=base,
                           coord=roots[i], lifter=lifter)
            for gi in contributors[i]:
                section.signs[polys_in_order[gi]] = 0
            cells.append(section)
    return cells


class Stack:
    """The 2r+1 cells over a base cell, made on first read.

    Its length comes from its r roots.  Its sector samples are computed
    when the stack is lifted, since they refine root intervals the roots
    share with other stacks; reading an item or iterating makes the cells
    (_build_stack) and drops the pending arguments.  polys is the level's
    tuple of lifting polynomials, shared by every stack of the level; their
    signs on the cells are read off their root lists (_stack_sign)."""

    __slots__ = ("_cells", "_pending", "_len", "polys")

    def __init__(self, base, roots, contributors, polys_in_order, lifter):
        self._cells = None
        self._pending = (base, roots, contributors, polys_in_order,
                         _sector_samples(roots), lifter)
        self._len = 2 * len(roots) + 1
        self.polys = polys_in_order

    def _made(self):
        cells = self._cells
        if cells is None:
            cells = self._cells = _build_stack(*self._pending)
            self._pending = None
        return cells

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        return self._made()[i]

    def __iter__(self):
        return iter(self._made())


def _stack_roots(polys, sample, v, where):
    """The merged roots in v of polys over sample, with each root's
    contributing polynomial indices (merge_roots).  Nullification of a
    polynomial raises WellOrientednessError, naming it and `where`."""
    groups = []
    for p in polys:
        rts = roots_above(p, sample, v)
        if rts is IDENTICALLY_ZERO:
            raise WellOrientednessError(
                "lifting polynomial %s vanishes identically %s" % (p, where))
        groups.append(rts)
    return merge_roots(groups)


def lift_stack(cell, level_polys, ec_at_base_level, v, lifter=None):
    """Stack over `cell` in variable v for level_polys, the level's lifting
    polynomials in a fixed order (build_cad sorts them by str once per level).
    The stack's cells are given lifter for their own stacks (None makes
    them top cells).

    If the base level carries an EC and the base cell is a sector, the stack
    is the single cylinder cell (real root isolation is skipped there, and
    the base's sample is not read).
    Nullification of a lifting polynomial raises WellOrientednessError.
    """
    if ec_at_base_level and cell.kind == "sector":
        return [Cell(cell.index + (1,), None, "sector", cylinder=True, parent=cell,
                     coord=Fraction(0), lifter=lifter)]
    roots, contributors = _stack_roots(level_polys, cell.sample, v,
                                       "over cell %r" % (cell.index,))
    return Stack(cell, roots, contributors, level_polys, lifter)


# The most cells one tree may make, the root included: every cell of every
# stack lifted, whether by a full read (truth_assign, cell_count, to_json,
# leaves, locate) or by decide's fold, counting the cells of subtrees the
# fold has already settled.  A stack that takes the count past it raises
# CapExceededError, naming the stack's level.
CELL_CAP = 1_000_000


class _Lifter:
    """Lifts the stacks of one tree on demand: the stack over a cell of
    level k-1 is lift_stack of level k's sorted lifting polynomials, its
    EC-below flag and its variable, and its cells count against CELL_CAP
    (the root counts as one)."""

    __slots__ = ("levels", "total")

    def __init__(self, plan, provenance):
        self.levels = [(provenance[k], k > 1 and plan.level(k - 1).ec is not None,
                        plan.level(k).var) for k in range(1, len(plan.order) + 1)]
        self.total = 1

    def lift(self, cell):
        k = cell.level + 1
        polys, ec_below, v = self.levels[k - 1]
        stack = lift_stack(cell, polys, ec_below, v,
                           self if k < len(self.levels) else None)
        self.total += len(stack)
        if self.total > CELL_CAP:
            raise CapExceededError(
                "cell count exceeded cap %d at level %d" % (CELL_CAP, k))
        return stack


def build_cad(plan):
    """The CAD tree of R^n that a projection plan lifts to, with no stack
    lifted yet.

    Signs of lifting polynomials are recorded on section cells where they
    vanish; other signs are found on demand (see cell_sign), a lifting
    polynomial's read off its root list by the cell's position, and
    memoized.
    Every sample point of the tree shares the root's memo, so roots_above
    isolates each lifting polynomial once per distinct value of the
    coordinates it reads, and cells over equal values share their roots.
    A stack is lifted, and counted against CELL_CAP, when its base cell's
    children are first read, so nullification (WellOrientednessError) and
    the cap (CapExceededError) raise from the read that reaches them.
    """
    order = plan.order
    provenance = {k: tuple(sorted(plan.level(k).lifting_polys, key=str))
                  for k in range(1, len(order) + 1)}
    root = Cell((), SamplePoint(order, ()), None, lifter=_Lifter(plan, provenance))
    return CADTree(order, plan, root, provenance)


# ---------------------------------------------------------------------------
# signs and truth


def cell_sign(cell, poly, order, forms):
    """Exact sign of poly at the cell's sample, memoized in the signs of the
    ancestor cell at the polynomial's own level (shared by the whole
    subtree).

    Before sign_at runs, the ancestor's signs are searched for poly's
    integer_normalized form, which a section records as 0 for each lifting
    polynomial vanishing there.  If the form is not recorded but is one of
    the lifting polynomials of the ancestor's stack, its sign is read by
    the ancestor's position among the form's roots over the base sample
    (_stack_sign), with no evaluation.  poly is that form times a rational
    with the sign of poly's leading coefficient, so its sign is the form's
    times that sign.  forms maps each poly already seen to (its level, its
    form, the sign of its leading coefficient); leaf_truth's callers
    (truth_assign, decide) pass one dict per request, so each is computed
    once per request.  Either way the sign is stored under poly itself, so
    a cell's signs have the same keys whichever way a sign was found.
    Reading the ancestor's sample builds it if no sign has needed it yet.
    """
    if poly.is_constant():
        c = poly.constant_value()
        return 0 if c == 0 else (1 if c > 0 else -1)
    level, canonical, lead = _form(poly, order, forms)
    target = cell
    while target.level > level:
        target = target.parent
    signs = target.signs
    sign = signs.get(poly)
    if sign is None:
        sign = signs.get(canonical)
        if sign is None:
            sign = _stack_sign(target, canonical, order)
        sign = sign_at(poly, target.sample) if sign is None else sign * lead
        signs[poly] = sign
    return sign


def _stack_sign(cell, poly, order):
    """poly's sign at cell, read off poly's root list over the base sample,
    if poly is one of the lifting polynomials of cell's stack; else None.
    The list is the one the stack was lifted from (the tree's memo keeps
    it): the sign is 0 at one of its roots, and otherwise that of the gap
    holding cell's coordinate, a sector's rational or a section's root
    (compared by identity first)."""
    base = cell.parent
    stack = base._stack
    if type(stack) is not Stack or poly not in stack.polys:
        return None
    roots, gaps = roots_and_signs(poly, base.sample, order.names[base.level])
    return sign_by_position(roots, gaps, cell.coord)


def _form(poly, order, forms):
    """(level, integer_normalized form, sign of the leading coefficient) of
    a non-constant poly, kept in forms."""
    form = forms.get(poly)
    if form is None:
        form = forms[poly] = (order.level(poly.main_variable()), integer_normalized(poly),
                              1 if poly.leading_term()[1] > 0 else -1)
    return form


def leaf_truth(cell, matrix, order, forms):
    """Evaluate the quantifier-free matrix at a cell by cell_sign (forms as
    there), store it as the cell's truth and return it.

    At a top cell the value is a bool.  Below the top level, an atom whose
    polynomial's level is above the cell's has no sign there (None, and no
    cell_sign call), and the matrix is evaluated in three-valued logic.
    Every other atom is read at the ancestor each top cell above would read
    it from, so True or False is the matrix's value on every top cell over
    this one; None leaves it open."""
    level = cell.level
    top = level == len(order)

    def sign_of(p):
        if top or p.is_constant() or _form(p, order, forms)[0] <= level:
            return cell_sign(cell, p, order, forms)
        return None

    cell.truth = matrix.evaluate(sign_of)
    return cell.truth


def truth_assign(tree, f):
    """Assign the truth of a quantifier-free formula to every top cell."""
    matrix = f.matrix if hasattr(f, "matrix") else f
    forms = {}
    for leaf in tree.leaves():
        leaf_truth(leaf, matrix, tree.order, forms)
    return tree


def cell_count(tree):
    """Exact cell counts.

    total is the number of cells of the decomposition of R^n (the top-level
    cells); per_level[k-1] counts the cells of the induced CAD of R^k;
    sections/sectors classify the top-level cells by their level-n kind.
    A top stack of 2r+1 cells has r sections (a cylinder's has none), so
    the count reads the top level off stack lengths and makes no top cell.
    It lifts every stack not yet lifted, so a decided tree counts as the
    full CAD.
    """
    n = len(tree.order)
    per_level = [0] * n
    sections = sectors = 0
    stack = [tree.root] if n else []
    while stack:
        c = stack.pop()
        size = len(c.children)
        per_level[c.level] += size
        if c.level == n - 1:
            sections += size // 2
            sectors += size - size // 2
        else:
            stack.extend(c.children)
    return {
        "total": per_level[-1] if n else 0,
        "per_level": per_level,
        "sections": sections,
        "sectors": sectors,
    }


def locate(tree, point):
    """The top-level cell containing an all-rational point.

    The stack boundaries stored in the tree sit over each base cell's
    sample, so the point's own stack boundaries are recomputed by isolating
    roots over the point's prefix; delineability makes the two stacks agree
    position by position."""
    point = [Fraction(q) for q in point]
    if len(point) != len(tree.order):
        raise ValueError("point dimension %d != %d" % (len(point), len(tree.order)))
    cell = tree.root
    prefix = SamplePoint(tree.order, ())
    for k, q in enumerate(point, start=1):
        stack = cell.children
        if len(stack) == 1 and stack[0].cylinder:
            cell = stack[0]
            prefix = prefix.extended(q)
            continue
        merged, _ = _stack_roots(tree.provenance[k], prefix, tree.order.names[k - 1],
                                 "at the query prefix")
        if 2 * len(merged) + 1 != len(stack):
            raise RealLocateError(
                "query stack has %d sections but the cell stack has %d"
                % (len(merged), (len(stack) - 1) // 2))
        chosen = None
        for i, root in enumerate(merged):
            c = compare_rational(root, q)
            if c == 0:
                chosen = stack[2 * i + 1]
                break
            if c > 0:  # first boundary above the point: previous sector
                chosen = stack[2 * i]
                break
        if chosen is None:
            chosen = stack[-1]
        cell = chosen
        prefix = prefix.extended(q)
    return cell
