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

A stack is a Stack: its length is known from its roots when it is lifted,
and its cells are made when one of them is first read.  build_cad reads
every stack below the top level to lift the next one, so only top stacks
can stay unmade; cell_count reads the top level off their lengths.  A
decision reads few top stacks: decide on S2 of the depth-1 family makes
17,764 of the 83,150 cells of its tree.
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
    sign_at,
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
    first read.  Most cells of a tree record no sign and the top cells have
    no stack, so a cell starts with no signs dict and an empty tuple of
    children; build_cad assigns the stack (a Stack, or a one-cell list for
    a cylinder)."""

    __slots__ = ("index", "_sample", "coord", "kind", "cylinder", "truth", "_signs",
                 "children", "parent")

    def __init__(self, index, sample, kind, cylinder=False, parent=None, coord=None):
        self.index = tuple(index)
        self._sample = sample
        self.coord = coord
        self.kind = kind          # 'sector' or 'section' at this cell's level
        self.cylinder = cylinder  # sector spanning the whole line (EC refinement)
        self.truth = None
        self._signs = None
        self.children = ()
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
            frontier = [c for cell in frontier for c in cell.children]
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
    """Rational sector samples strictly interleaving the given sorted roots.

    A rational root counts as its exact value, so two rationals take their
    midpoint.  Irrational roots are refined until the gap clears: strictly
    when one neighbour is a rational q (a shared endpoint would make the
    sample q, the root itself); two irrational intervals may share an
    endpoint, which is a root of neither.  Endpoints are compared as
    integer pairs (the roots' integer intervals); the sample between two
    roots is the one Fraction made here, and the outer samples are ints.
    The values are those of the same rules in Fraction arithmetic."""
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
        samples.append(Fraction(x + y, 2 * hd * ld))
    n, d = _upper(roots[-1])
    samples.append(-(-n // d) + 1)
    return samples


def _build_stack(base, roots, contributors, polys_in_order, sectors):
    """The 2r+1 alternating cells over `base` for the given section roots
    and the r+1 sector samples between them."""
    cells = []
    for i, rational in enumerate(sectors):
        cells.append(Cell(base.index + (2 * i + 1,), None, "sector", parent=base,
                          coord=rational))
        if i < len(roots):
            section = Cell(base.index + (2 * i + 2,), None, "section", parent=base,
                           coord=roots[i])
            for gi in contributors[i]:
                section.signs[polys_in_order[gi]] = 0
            cells.append(section)
    return cells


class Stack:
    """The 2r+1 cells over a base cell, made on first read.

    Its length comes from its r roots.  Its sector samples are computed
    when the stack is lifted, since they refine root intervals the roots
    share with other stacks; reading an item or iterating makes the cells
    (_build_stack) and drops the pending arguments."""

    __slots__ = ("_cells", "_pending", "_len")

    def __init__(self, base, roots, contributors, polys_in_order):
        self._cells = None
        self._pending = (base, roots, contributors, polys_in_order,
                         _sector_samples(roots))
        self._len = 2 * len(roots) + 1

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


def lift_stack(cell, level_polys, ec_at_base_level, v):
    """Stack over `cell` in variable v for level_polys, the level's lifting
    polynomials in a fixed order (build_cad sorts them by str once per level).

    If the base level carries an EC and the base cell is a sector, the stack
    is the single cylinder cell (real root isolation is skipped there, and
    the base's sample is not read).
    Nullification of a lifting polynomial raises WellOrientednessError.
    """
    if ec_at_base_level and cell.kind == "sector":
        return [Cell(cell.index + (1,), None, "sector", cylinder=True, parent=cell,
                     coord=Fraction(0))]
    roots, contributors = _stack_roots(level_polys, cell.sample, v,
                                       "over cell %r" % (cell.index,))
    return Stack(cell, roots, contributors, level_polys)


def build_cad(plan, cell_cap=1_000_000):
    """Lift a projection plan into a full CAD tree of R^n.

    Signs of lifting polynomials are recorded on section cells where they
    vanish; other signs are computed on demand (see cell_sign) and memoized.
    Every sample point of the tree shares the root's memo, so roots_above
    isolates each lifting polynomial once per distinct value of the
    coordinates it reads, and cells over equal values share their roots.
    Every stack is lifted, and counted against cell_cap, but the top
    stacks' cells are left to be made when read.
    """
    order = plan.order
    n = len(order)
    root = Cell((), SamplePoint(order, ()), None)
    frontier = [root]
    total = 1
    provenance = {}
    for k in range(1, n + 1):
        level = plan.level(k)
        polys = provenance[k] = tuple(sorted(level.lifting_polys, key=str))
        v = level.var
        ec_below = k > 1 and plan.level(k - 1).ec is not None
        next_frontier = []
        for cell in frontier:
            stack = lift_stack(cell, polys, ec_below, v)
            cell.children = stack
            total += len(stack)
            if total > cell_cap:
                raise CapExceededError(
                    "cell count exceeded cap %d at level %d" % (cell_cap, k))
            if k < n:
                next_frontier.extend(stack)
        frontier = next_frontier
    return CADTree(order, plan, root, provenance)


# ---------------------------------------------------------------------------
# signs and truth


def cell_sign(cell, poly, order, forms):
    """Exact sign of poly at the cell's sample, memoized in the signs of the
    ancestor cell at the polynomial's own level (shared by the whole
    subtree).

    Before sign_at runs, the ancestor's signs are searched for poly's
    integer_normalized form, which a section records as 0 for each lifting
    polynomial vanishing there.  poly is that form times a rational with
    the sign of poly's leading coefficient, so its sign is the recorded one
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
    form = forms.get(poly)
    if form is None:
        form = forms[poly] = (order.level(poly.main_variable()), integer_normalized(poly),
                              1 if poly.leading_term()[1] > 0 else -1)
    level, canonical, lead = form
    target = cell
    while target.level > level:
        target = target.parent
    signs = target.signs
    sign = signs.get(poly)
    if sign is None:
        sign = signs.get(canonical)
        sign = sign_at(poly, target.sample) if sign is None else sign * lead
        signs[poly] = sign
    return sign


def leaf_truth(leaf, matrix, order, forms):
    """Evaluate the quantifier-free matrix at a top cell by cell_sign (forms
    as there), store it as the cell's truth and return it."""
    leaf.truth = matrix.evaluate(lambda p: cell_sign(leaf, p, order, forms))
    return leaf.truth


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
