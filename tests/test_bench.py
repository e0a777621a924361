import random
from fractions import Fraction

import pytest

from cadec.polynomial import Polynomial, VarOrder, parse_poly
from cadec.formula import Atom, Formula, Or, decide, evaluate_at_rationals, parse_formula
from cadec.bench import (
    bound_eq1, dh_equivalence_sentences, dh_order, dh_target, ec_bound_note,
    formula_stats, generate_dh, l_block, primitivity_report, run_experiment,
    run_one, write_csv, CSV_COLUMNS,
)


def test_dh_order():
    assert dh_order(1).names == ("x0", "y0", "z1", "x1", "y1")
    assert len(dh_order(3)) == 11


def test_generate_dh_shapes():
    for form in ("nested", "prenex"):
        f = generate_dh(1, form=form)
        assert f.prefix == (("exists", "z1"), ("forall", "x1"), ("forall", "y1"))
        assert f.free_variables() == {"x0", "y0"}
    for form in ("negated", "cnf_L", "product_L"):
        f = generate_dh(1, form=form)
        assert f.prefix == (("forall", "z1"), ("exists", "x1"), ("exists", "y1"))


def test_generate_dh_depth2_prefix():
    f = generate_dh(2, form="prenex")
    assert len(f.prefix) == 6
    assert f.free_variables() == {"x0", "y0"}


def test_dh_target():
    o1 = dh_order(1)
    assert dh_target(1) == parse_poly("x0 - y0^4", o1)
    assert dh_target(2) == parse_poly("x0 - y0^16", dh_order(2))
    cube = parse_poly("t^3", VarOrder(["t"]))
    assert dh_target(1, cube) == parse_poly("x0 - y0^9", o1)
    # a rational coefficient of the base map is read as a number
    half = parse_poly("t^2 - 1/2", VarOrder(["t"]))
    assert dh_target(1, half) == parse_poly("x0 - ((y0^2 - 1/2)^2 - 1/2)", o1)


def test_nested_prenex_negated_pointwise_consistent():
    rng = random.Random(31)
    ordr = dh_order(1)
    forms = {form: generate_dh(1, form=form)
             for form in ("nested", "prenex", "negated", "cnf_L", "product_L")}
    for _ in range(300):
        pt = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
              for v in ordr.names}
        base = evaluate_at_rationals(Formula(forms["prenex"].matrix, ordr, ()), pt, ordr)
        assert evaluate_at_rationals(Formula(forms["nested"].matrix, ordr, ()), pt, ordr) == base
        for neg_form in ("negated", "cnf_L", "product_L"):
            got = evaluate_at_rationals(Formula(forms[neg_form].matrix, ordr, ()), pt, ordr)
            assert got == (not base)


def test_l_block_three_forms_equivalent():
    rng = random.Random(37)
    ordr = dh_order(1)
    blocks = {form: l_block(1, ordr, form)
              for form in ("disjunctive", "cnf", "product")}
    for _ in range(300):
        pt = {v: Fraction(rng.randint(-5, 5)) for v in ordr.names}
        vals = {form: evaluate_at_rationals(Formula(b, ordr, ()), pt, ordr)
                for form, b in blocks.items()}
        assert len(set(vals.values())) == 1


def test_bound_eq1_values_and_monotonicity():
    assert bound_eq1(1, 1, 1) == 2
    assert bound_eq1(2, 2, 2) == 1024
    assert bound_eq1(3, 1, 3) == 2239488
    for (n, m, d) in ((1, 1, 1), (2, 2, 2), (2, 3, 1), (3, 1, 3)):
        assert bound_eq1(n + 1, m, d) >= bound_eq1(n, m, d) ** 2 // 2
        assert bound_eq1(n, m + 1, d) >= bound_eq1(n, m, d)
        assert bound_eq1(n, m, d + 1) >= bound_eq1(n, m, d)


def test_ec_bound_note():
    note = ec_bound_note(2, 2, 2, 1)
    assert "not certified" in note
    assert "no designated ECs" in ec_bound_note(2, 2, 2, 0)


def test_formula_stats():
    o = VarOrder(["y", "x"])
    f = parse_formula("x^2 + y^2 - 1 = 0 and x - y = 0", o)
    assert formula_stats(f) == (2, 2)


def test_run_experiment_and_csv(tmp_path):
    o = VarOrder(["y", "x"])
    corpus = [("circle-x", parse_formula("x^2 + y^2 - 1 = 0 and x > 0", o))]
    reports = run_experiment(corpus, modes=("si", "ec-gb"))
    assert [r.mode for r in reports] == ["sign-invariant", "ec-reduced-gb"]
    si, gb = reports
    assert si.observed["total"] == 19 and gb.observed["total"] == 13
    assert si.within_eq1
    assert gb.ell == 1
    path = tmp_path / "rep.csv"
    write_csv(reports, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_run_experiment_failure_rows(monkeypatch):
    from cadec import lifting
    o = VarOrder(["y", "x"])
    corpus = [("nullified", parse_formula("y*x + y = 0", o))]
    reports = run_experiment(corpus, modes=("si",))
    assert reports[0].status == "well-orientedness-error"
    corpusb = [("capped", parse_formula("x^2 + y^2 - 1 = 0", o))]
    monkeypatch.setattr(lifting, "CELL_CAP", 3)
    reports = run_experiment(corpusb, modes=("si",))
    assert reports[0].status == "cap-exceeded"


# The lifting polynomial (x + y)*(z + 1) has content x + y.  Under si it
# vanishes identically over the sector cell x < -sqrt 2, y = -x.  Under the
# EC modes only the sections x = y = +-sqrt 2 are lifted; there the
# resultant chain of (x + y)*(z + 1) vanishes under both elimination orders
# until it divides out the factor y^2 - 2.
EC_CONTENT = "y - x = 0 and x^2 - 2 = 0 and (x + y)*(z + 1) > 0"


def test_run_one_ec_modes_lift_through_vanishing_chain(time_budget):
    f = parse_formula(EC_CONTENT, VarOrder(["x", "y", "z"]))
    assert run_one("ec-content", f, "si").status == "well-orientedness-error"
    for mode in ("ec-res", "ec-gb"):
        report = run_one("ec-content", f, mode)
        assert report.status == "ok", mode
        assert report.observed["per_level"] == [5, 9, 13]


def test_decide_ec_content_closures(time_budget):
    order = VarOrder(["x", "y", "z"])
    assert decide(parse_formula("exists x. exists y. exists z. " + EC_CONTENT, order))
    assert not decide(parse_formula("exists x. exists y. forall z. " + EC_CONTENT, order))


def test_primitivity_report_product_form():
    rep = primitivity_report(generate_dh(1, form="product_L"))
    assert len(rep) == 4
    flagged = [r for r in rep if not r["primitive"]]
    # exactly the two products with a factor free of their main variable
    assert len(flagged) == 2
    for r in rep:
        free_factor = not r["content"].is_constant()
        assert r["primitive"] == (not free_factor)


def test_primitivity_report_depth2_eight_equalities():
    rep = primitivity_report(generate_dh(2, form="product_L"))
    assert len(rep) == 8


def test_primitivity_report_primitive_case():
    o = VarOrder(["y", "x"])
    rep = primitivity_report(parse_formula("x^2 + y^2 - 1 = 0", o))
    assert len(rep) == 1 and rep[0]["primitive"]


def test_dh_equivalence_sentences_closed():
    s1, s2 = dh_equivalence_sentences(1)
    assert s1.is_closed() and s2.is_closed()
    assert s1.prefix[0] == ("forall", "x0")
    assert s1.prefix[2:] == (("forall", "z1"), ("exists", "x1"), ("exists", "y1"))
    assert s2.prefix[2:] == (("exists", "z1"), ("forall", "x1"), ("forall", "y1"))


def _s2_with_target(depth, target):
    """S2 of dh_equivalence_sentences(depth) with the equation target = 0 in
    place of the one the instance defines."""
    s2 = dh_equivalence_sentences(depth)[1]
    return Formula(Or([Atom(parse_poly(target, s2.order), "!=")]
                      + list(s2.matrix.children[1:])), s2.order, s2.prefix)


@pytest.mark.parametrize("depth, target", [(1, "x0 - y0^2"), (2, "x0 - y0^8")])
def test_decide_false_member_of_the_family(time_budget, depth, target):
    # the depth-k instance defines x0 = y0^(2^(2^k)), which x0 = y0^2 (depth
    # 1) and x0 = y0^8 (depth 2) do not imply: y0 = 2 is a counterexample.
    # A fold that swapped exists and forall would read both true.
    assert decide(_s2_with_target(depth, target)) is False


def test_run_one_accepts_short_mode_names():
    o = VarOrder(["y", "x"])
    f = parse_formula("x^2 + y^2 - 1 = 0 and x > 0", o)
    for short, long in (("si", "sign-invariant"), ("ec-res", "ec-reduced-resultant"),
                        ("ec-gb", "ec-reduced-gb")):
        rows = [run_one("circle-x", f, mode).csv_row() for mode in (short, long)]
        time_ms = CSV_COLUMNS.index("time_ms")
        for row in rows:
            del row[time_ms]
        assert rows[0] == rows[1]
        assert run_one("circle-x", f, short).mode == long
    with pytest.raises(ValueError):
        run_one("circle-x", f, "ec")
