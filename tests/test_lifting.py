import random
import re
from fractions import Fraction

import pytest

from cadec.polynomial import VarOrder, parse_poly
from cadec.formula import evaluate_at_rationals, parse_formula
from cadec.projection import plan_projection
from cadec.lifting import (
    RealLocateError, Stack, WellOrientednessError, build_cad, cell_count, cell_sign,
    locate, truth_assign,
)
from cadec.projection import CapExceededError

O2 = VarOrder(["y", "x"])


def _tree(text, policy="none", order=O2, ec_mode="groebner"):
    f = parse_formula(text, order)
    plan = plan_projection(f, order, policy, ec_mode=ec_mode)
    tree = build_cad(plan)
    truth_assign(tree, f)
    return f, plan, tree


def test_circle_counts():
    _, _, tree = _tree("x^2 + y^2 - 1 = 0")
    counts = cell_count(tree)
    assert counts["total"] == 13
    assert counts["per_level"] == [5, 13]


def test_circle_and_x_counts():
    _, _, tree = _tree("x^2 + y^2 - 1 = 0 and x > 0")
    assert cell_count(tree)["total"] == 19


def test_circle_ec_reduced_counts():
    _, plan, tree = _tree("x^2 + y^2 - 1 = 0 and x > 0", policy="auto")
    assert plan.ell == 1
    assert cell_count(tree)["total"] == 13


def test_circle_line_ec_counts():
    for mode in ("resultant", "groebner"):
        _, plan, tree = _tree("x^2 + y^2 - 1 = 0 and x - y = 0",
                              policy="auto", ec_mode=mode)
        assert plan.ell == 2
        assert cell_count(tree)["total"] == 9
        assert cell_count(tree)["per_level"] == [5, 9]


def test_truth_cells_circle():
    f, _, tree = _tree("x^2 + y^2 - 1 = 0")
    true_leaves = [c for c in tree.leaves() if c.truth]
    # the circle decomposes into 2 section points and 2 arcs
    assert len(true_leaves) == 4
    assert all(c.is_section for c in true_leaves)


def test_locate_and_sampling_oracle():
    rng = random.Random(23)
    for policy in ("none", "auto"):
        f, _, tree = _tree("x^2 + y^2 - 1 = 0 and x - y = 0", policy=policy)
        for _ in range(150):
            pt = {"x": Fraction(rng.randint(-30, 30), rng.randint(1, 8)),
                  "y": Fraction(rng.randint(-30, 30), rng.randint(1, 8))}
            cell = locate(tree, (pt["y"], pt["x"]))
            assert cell.truth == evaluate_at_rationals(f, pt, O2)


def test_locate_on_section():
    _, _, tree = _tree("x^2 + y^2 - 1 = 0")
    cell = locate(tree, (Fraction(0), Fraction(1)))  # y=0, x=1
    assert cell.truth and cell.is_section


def test_well_orientedness_error():
    # y*x + y is nullified over y = 0, which the lifting must reject
    with pytest.raises(WellOrientednessError):
        _tree("y*x + y = 0", policy="none")


def test_cell_cap():
    f = parse_formula("x^2 + y^2 - 1 = 0", O2)
    plan = plan_projection(f, O2, "none")
    with pytest.raises(CapExceededError):
        build_cad(plan, cell_cap=4)


def test_json_dump():
    import json
    _, _, tree = _tree("x^2 + y^2 - 1 = 0")
    js = json.loads(tree.to_json())
    assert js["order"] == ["y", "x"]
    assert len(js["root"]["stack"]) == 5


def test_cylinder_cells_over_ec_sectors():
    # with an EC at level 1, sectors of the base line lift to single
    # cylinder cells instead of full stacks
    _, plan, tree = _tree("x^2 + y^2 - 1 = 0 and x - y = 0", policy="auto")
    base = tree.cells_at_level(1)
    sectors = [c for c in base if c.kind == "sector"]
    assert all(len(c.children) == 1 and c.children[0].cylinder for c in sectors)


def test_resultant_memo_per_tree(monkeypatch):
    # Each argument triple reaches realalg's resultant once per CAD tree,
    # and a second request does the same work again: no memo outlives its tree.
    import cadec.realalg as realalg
    real = realalg.resultant
    calls = []

    def counting(p, q, v):
        calls.append((p, q, v))
        return real(p, q, v)

    monkeypatch.setattr(realalg, "resultant", counting)
    order = VarOrder(["z", "y", "x"])
    counts = []
    for _ in range(2):
        calls.clear()
        _, _, tree = _tree("x^2 + y^2 + z^2 - 1 = 0 and x + y + z = 0", order=order)
        assert cell_count(tree)["per_level"] == [15, 117, 547]
        assert calls
        assert len(set(calls)) == len(calls)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_sector_samples_clear_rational_neighbours():
    # x^2 - 2 and x^2 - 3 isolate in closed form to (1, 3/2) and (3/2, 2)
    # for their positive roots, so the rationals 1, 3/2 and 2 sit on the
    # endpoints of their irrational neighbours' intervals; 5x^2 - 11 adds an
    # irrational root at (7/5, 3/2), next to sqrt 2.
    from cadec.lifting import Cell, lift_stack
    from cadec.realalg import SamplePoint, compare_rational

    o = VarOrder(["x"])
    polys = tuple(parse_poly(t, o) for t in
                  ("x^2 - 2", "x^2 - 3", "5*x^2 - 11", "x - 1", "2*x - 3", "x - 2",
                   "x + 1", "2*x + 3"))
    root = Cell((), SamplePoint(o, ()), None)
    stack = lift_stack(root, polys, False, "x")
    sections = [c.sample.coords[0] for c in stack if c.is_section()]
    assert len(sections) == 11 and len(stack) == 23
    for i, cell in enumerate(stack):
        if cell.is_section():
            continue
        q = cell.sample.coords[0].rational_value()
        if i > 0:
            assert compare_rational(stack[i - 1].sample.coords[0], q) < 0
        if i + 1 < len(stack):
            assert compare_rational(stack[i + 1].sample.coords[0], q) > 0


def test_locate_refuses_a_mismatched_stack():
    # with no level-2 polynomials the query stack over y = 0 has no section,
    # while the stored stack there has the circle's two
    _, _, tree = _tree("x^2 + y^2 - 1 = 0")
    tree.provenance[2] = ()
    with pytest.raises(RealLocateError):
        locate(tree, (Fraction(0), Fraction(0)))


def test_locate_refuses_nullification():
    _, _, tree = _tree("x^2 + y^2 - 1 = 0")
    nullified = parse_poly("y*x + y", O2)
    tree.provenance[2] = (nullified,)
    with pytest.raises(WellOrientednessError, match=re.escape(str(nullified))):
        locate(tree, (Fraction(0), Fraction(1, 2)))


# ---------------------------------------------------------------------------
# truth signs from the zeros recorded under canonical forms


def test_cell_sign_reads_recorded_canonical_zero(monkeypatch):
    # build_cad records x - y as 0 on the level-2 sections above every y,
    # among them y = +-sqrt(1/2), where it meets the circle; there the atoms
    # below are 0 without a sign_at call
    import cadec.lifting as lifting
    f = parse_formula("x - y = 0 and x^2 + y^2 - 1 < 0", O2)
    tree = build_cad(plan_projection(f, O2, "none"))
    canonical = parse_poly("x - y", O2)
    sections = [c for c in tree.leaves() if c.signs.get(canonical) == 0]
    assert all(c.is_section() for c in sections)
    assert any(not c.sample.coords[0].is_rational for c in sections)

    def refuse(p, s):
        raise AssertionError("sign_at(%s) called" % p)

    monkeypatch.setattr(lifting, "sign_at", refuse)
    atoms = [parse_poly(t, O2) for t in ("-x + y", "2*x - 2*y", "-(1/3)*x + (1/3)*y")]
    forms = {}
    for cell in sections:
        for atom in atoms:
            assert cell_sign(cell, atom, O2, forms) == 0
            assert cell.signs[atom] == 0
    assert set(forms) == set(atoms)


def test_cell_sign_at_sectors_matches_rational_evaluation(monkeypatch):
    # at a sector nothing is recorded: each canonical form calls sign_at, and
    # its multiples read the sign stored under it
    import cadec.lifting as lifting
    f = parse_formula("x - y = 0 and x^2 + y^2 - 1 < 0", O2)
    tree = build_cad(plan_projection(f, O2, "none"))
    real = lifting.sign_at
    calls = []

    def counting(p, s):
        calls.append(p)
        return real(p, s)

    monkeypatch.setattr(lifting, "sign_at", counting)
    texts = ("x - y", "-x + y", "2*x - 2*y", "-(1/3)*x + (1/3)*y", "x^2 + y^2 - 1",
             "-x^2 - y^2 + 1")
    atoms = [parse_poly(t, O2) for t in texts]
    forms = {}
    sectors = [c for c in tree.leaves() if not c.is_section()
               and all(a.is_rational for a in c.sample.coords)]
    assert len(sectors) > 10
    for cell in sectors:
        point = {"y": cell.sample.coords[0].rational_value(),
                 "x": cell.sample.coords[1].rational_value()}
        before = len(calls)
        for text, atom in zip(texts, atoms):
            expected = 0
            for rel, sign in ((">", 1), ("<", -1)):
                if evaluate_at_rationals(parse_formula("%s %s 0" % (text, rel), O2), point, O2):
                    expected = sign
            assert cell_sign(cell, atom, O2, forms) == expected, (text, point)
        assert calls[before:] == [atoms[0], atoms[4]]


def _signs_and_truths(tree):
    import json
    out = {}
    stack = [json.loads(tree.to_json())["root"]]
    while stack:
        entry = stack.pop()
        out[tuple(entry["index"])] = (entry.get("signs"), entry.get("truth"))
        stack.extend(entry.get("stack", ()))
    return out


def test_truth_assign_keeps_json_signs():
    # the lookup stores each sign under the atom, as sign_at alone did
    from oracles import reference_truth_assign
    order = VarOrder(["z", "y", "x"])
    f = parse_formula("-x + y <= 0 and x^2 + y^2 + z^2 - 1 < 0 or 2*z - 2*x > 0 "
                      "and -(1/2)*x^2 - (1/2)*y^2 - (1/2)*z^2 + 1/2 >= 0", order)
    plan = plan_projection(f, order, "none")
    got, expected = build_cad(plan), build_cad(plan)
    truth_assign(got, f)
    reference_truth_assign(expected, f)
    assert _signs_and_truths(got) == _signs_and_truths(expected)


def _walk(cell):
    yield cell
    for child in cell.children:
        yield from _walk(child)


@pytest.mark.parametrize("policy", ["none", "auto"])
def test_samples_are_built_on_first_read(policy):
    order = VarOrder(["z", "y", "x"])
    f = parse_formula("x^2 + y^2 + z^2 - 1 = 0 and x + y + z = 0", order)
    plan = plan_projection(f, order, policy)
    tree = build_cad(plan)
    assert all(leaf._sample is None for leaf in tree.leaves())
    for cell in _walk(tree.root):
        if cell.parent is None:
            continue
        coords, base = cell.sample.coords, cell.parent.sample.coords
        assert coords[:-1] == base and cell.sample.memo is tree.root.sample.memo
        if cell.is_section():
            assert coords[-1] is cell.coord
        else:
            assert coords[-1].rational_value() == cell.coord
    # forcing every sample before truth assignment changes no output
    lazy, forced = build_cad(plan), build_cad(plan)
    for cell in _walk(forced.root):
        cell.sample
    truth_assign(lazy, f)
    truth_assign(forced, f)
    assert lazy.to_json() == forced.to_json()
    rng = random.Random(29)
    for _ in range(40):
        pt = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3)]
        a, b = locate(lazy, pt), locate(forced, pt)
        assert (a.index, a.truth) == (b.index, b.truth)


def test_cells_make_signs_and_children_on_demand():
    # sectors record no sign and top cells have no stack, so neither gets a
    # container of its own until something is stored there; the top stacks'
    # cells themselves are made when the walk first reads them
    import json
    order = VarOrder(["z", "y", "x"])
    f = parse_formula("x^2 + y^2 + z^2 - 1 = 0 and x + y + z > 0", order)
    tree = build_cad(plan_projection(f, order, "none"))
    assert all(c.children._cells is None for c in tree.cells_at_level(2))
    cells = list(_walk(tree.root))
    assert all(leaf.children == () for leaf in tree.leaves())
    assert all(c._signs is None for c in cells if not c.is_section())
    assert all(c._signs for c in cells if c.is_section())
    assert "signs" not in json.loads(tree.to_json())["root"]["stack"][0]
    truth_assign(tree, f)
    sector = next(leaf for leaf in tree.leaves() if not leaf.is_section())
    assert sector._signs and all(s in (-1, 1) for s in sector.signs.values())


def _counts_by_walk(tree):
    n = len(tree.order)
    leaves = tree.leaves()
    sections = sum(c.is_section() for c in leaves)
    return {"total": len(leaves),
            "per_level": [len(tree.cells_at_level(k)) for k in range(1, n + 1)],
            "sections": sections, "sectors": len(leaves) - sections}


@pytest.mark.parametrize("names, text, policy, cylinders", [
    (["x"], "x^3 - 2*x > 0", "none", False),
    (["y", "x"], "x^2 + y^2 - 1 = 0 and x > 0", "none", False),
    (["y", "x"], "x^2 + y^2 - 1 = 0 and x - y = 0", "auto", True),
    (["z", "y", "x"], "x^2 + y^2 + z^2 - 1 = 0 and x + y + z = 0", "none", False),
    (["z", "y", "x"], "x^2 + y^2 + z^2 - 1 = 0 and x + y + z = 0", "auto", True),
])
def test_cell_count_matches_a_walk_over_the_leaves(names, text, policy, cylinders):
    # cell_count reads the top level off stack lengths and makes no top
    # cell; a walk that makes every cell gives the same counts
    order = VarOrder(names)
    tree = build_cad(plan_projection(parse_formula(text, order), order, policy))
    top_stacks = [c.children for c in tree.cells_at_level(len(names) - 1)]
    counts = cell_count(tree)
    assert all(s._cells is None for s in top_stacks if isinstance(s, Stack))
    assert counts == _counts_by_walk(tree)
    assert counts["sections"] > 0
    assert any(c.cylinder for c in tree.leaves()) == cylinders


@pytest.mark.parametrize("mode", ["si", "ec-res"])
def test_sector_samples_match_fraction_reference(monkeypatch, mode):
    # every stack of every corpus CAD: the samples, and the roots' intervals
    # after separation, equal those of Fraction arithmetic on the same roots
    from cadec import lifting
    from cadec.bench import MODE_POLICY
    from corpus import load_corpus
    from oracles import ReferenceNumber, reference_sector_samples

    real = lifting._sector_samples
    stacks = []

    def checked(roots):
        refs = [ReferenceNumber(r) for r in roots]
        samples = real(roots)
        assert samples == reference_sector_samples(refs)
        assert all((r.coeffs, r.lo, r.hi) == (ref.coeffs, ref.lo, ref.hi)
                   for r, ref in zip(roots, refs))
        stacks.append(len(roots))
        return samples

    monkeypatch.setattr(lifting, "_sector_samples", checked)
    policy, ec_mode = MODE_POLICY[mode]
    for _, f, _ in load_corpus():
        build_cad(plan_projection(f, f.order, policy, ec_mode=ec_mode))
    assert len(stacks) > 100 and max(stacks) >= 4
