import random
from fractions import Fraction
from itertools import product

import pytest

from cadec import lifting
from cadec.bench import MODE_POLICY
from cadec.lifting import WellOrientednessError
from cadec.polynomial import ParseError, VarOrder, integer_normalized, parse_poly
from cadec.projection import plan_projection
from cadec.formula import (
    And, Atom, Formula, Not, Or, decide, evaluate_at_rationals, identify_ecs,
    parse_formula,
)
from corpus import load_corpus

O2 = VarOrder(["y", "x"])


def test_parse_and_str():
    f = parse_formula("x^2 + y^2 - 1 = 0 and x > 0", O2)
    assert isinstance(f.matrix, And)
    assert f.prefix == ()
    assert f.free_variables() == {"x", "y"}


def test_parse_prefix():
    f = parse_formula("forall y. exists x. x^2 + y^2 - 1 = 0", O2)
    assert f.prefix == (("forall", "y"), ("exists", "x"))
    assert f.is_closed()


def test_parse_implies_eliminated():
    f = parse_formula("x > 0 implies y = 0", O2)
    assert isinstance(f.matrix, Or)


def test_parse_errors():
    for bad in ("x >", "exists. x = 0", "x = 0 and", "(x = 0"):
        with pytest.raises(ParseError):
            parse_formula(bad, O2)


def test_evaluate_at_rationals():
    f = parse_formula("x^2 + y^2 - 1 = 0 or x - y > 0", O2)
    assert evaluate_at_rationals(f, {"x": Fraction(1), "y": Fraction(0)}, O2)
    assert evaluate_at_rationals(f, {"x": Fraction(1), "y": Fraction(-2)}, O2)
    assert not evaluate_at_rationals(f, {"x": Fraction(0), "y": Fraction(2)}, O2)


def test_negation_involution_random():
    rng = random.Random(17)
    f = parse_formula(
        "(x^2 + y^2 - 1 = 0 and x > 0) or not (x - y <= 1)", O2)
    g = Formula(f.matrix.negated().negated(), O2, ())
    for _ in range(200):
        pt = {"x": Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
              "y": Fraction(rng.randint(-40, 40), rng.randint(1, 9))}
        assert (evaluate_at_rationals(f, pt, O2)
                == evaluate_at_rationals(g, pt, O2))


def test_negated_interchanges_quantifiers():
    f = parse_formula("forall y. exists x. x*y - 1 = 0", O2)
    g = f.negated()
    assert g.prefix == (("exists", "y"), ("forall", "x"))


def test_identify_ecs():
    f = parse_formula("x^2 + y^2 - 1 = 0 and x - y = 0 and x > 0", O2)
    ecs = identify_ecs(f)
    texts = {integer_normalized(p) for p in ecs}
    assert integer_normalized(parse_poly("x^2 + y^2 - 1", O2)) in texts
    assert integer_normalized(parse_poly("x - y", O2)) in texts
    assert len(ecs) == 2
    # disjunctions contribute nothing
    assert identify_ecs(parse_formula("x = 0 or y = 0", O2)) == []


def test_decide_small_sentences():
    assert decide(parse_formula("exists y. exists x. x^2 + y^2 - 1 = 0 and x > 0", O2))
    assert not decide(parse_formula("exists y. exists x. x^2 + y^2 + 1 = 0", O2))
    assert not decide(parse_formula("forall y. exists x. x^2 + y^2 - 1 = 0", O2))
    assert decide(parse_formula("forall y. exists x. x - y = 0", O2))


def test_decide_negation_duality():
    f = parse_formula("forall y. exists x. x^2 + y^2 - 1 = 0", O2)
    assert decide(f.negated()) == (not decide(f))


def test_decide_rejects_open_formula():
    f = parse_formula("exists x. x - y = 0", O2)
    with pytest.raises(Exception):
        decide(f)


def _decided_tree(monkeypatch, f, **options):
    """decide(f, **options) and the CAD tree it built."""
    trees = []
    build = lifting.build_cad
    with monkeypatch.context() as m:
        m.setattr(lifting, "build_cad",
                  lambda plan, **kw: trees.append(build(plan, **kw)) or trees[-1])
        truth = decide(f, **options)
    return truth, trees[0]


def _eager_fold(cell, prefix):
    if cell.level == len(prefix):
        return cell.truth
    results = [_eager_fold(child, prefix) for child in cell.children]
    return any(results) if prefix[cell.level][0] == "exists" else all(results)


def test_decide_matches_eager_fold(monkeypatch):
    # decide reads leaf truths on demand; truth_assign on the same tree and
    # a fold with no short-circuit must give the same answer, and the same
    # truth on every leaf decide reached
    for _, qf, _ in load_corpus():
        names = qf.order.names
        for quants in product(("exists", "forall"), repeat=len(names)):
            sentence = Formula(qf.matrix, qf.order, zip(quants, names))
            for f in (sentence, sentence.negated()):
                truth, tree = _decided_tree(monkeypatch, f)
                reached = {leaf.index: leaf.truth for leaf in tree.leaves()
                           if leaf.truth is not None}
                lifting.truth_assign(tree, f)
                assert truth == _eager_fold(tree.root, f.prefix), str(f)
                assert all(reached[leaf.index] == leaf.truth
                           for leaf in tree.leaves() if leaf.index in reached)


@pytest.mark.parametrize("name", ["circle", "sphere"])
def test_decide_leaves_unread_top_stacks_unmade(monkeypatch, name):
    # exists-exists-...: the fold stops at the first true top cell, so the
    # top stacks after it are never read and their cells never made; the
    # counts read off their lengths equal those of the fully made tree
    qf = next(f for fid, f, _ in load_corpus() if fid == name)
    names = qf.order.names
    truth, tree = _decided_tree(monkeypatch,
                                Formula(qf.matrix, qf.order, [("exists", v) for v in names]))
    top_stacks = [c.children for c in tree.cells_at_level(len(names) - 1)]
    assert truth
    assert any(s._cells is None for s in top_stacks)
    assert any(s._cells is not None for s in top_stacks)
    counts = lifting.cell_count(tree)
    tree.leaves()
    assert all(s._cells is not None for s in top_stacks)
    assert lifting.cell_count(tree) == counts


def test_decide_leaves_unread_leaves_unassigned(monkeypatch):
    # over each y, the exists-x fold stops at the section x = y
    f = parse_formula("forall y. exists x. x - y = 0", O2)
    truth, tree = _decided_tree(monkeypatch, f)
    truths = [leaf.truth for leaf in tree.leaves()]
    assert truth and None in truths and True in truths


def test_three_valued_evaluate_agrees_with_every_completion():
    # a None sign is unknown: a settled value must be the value under every
    # choice of the unknown signs, and with every sign known the value is
    # the plain bool
    order = VarOrder(["x"])
    polys = [parse_poly(t, order) for t in ("x", "x - 1", "x + 2")]
    rng = random.Random(5)

    def random_node(depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(rng.choice(polys), rng.choice(("=", "!=", "<", "<=", ">", ">=")))
        kind = rng.choice((And, Or, Not))
        if kind is Not:
            return Not(random_node(depth - 1))
        return kind([random_node(depth - 1) for _ in range(rng.randint(2, 3))])

    for _ in range(300):
        node = random_node(3)
        partial = {p: rng.choice((-1, 0, 1, None)) for p in polys}
        value = node.evaluate(partial.get)
        unknown = [p for p in polys if partial[p] is None]
        completions = set()
        for signs in product((-1, 0, 1), repeat=len(unknown)):
            full = {**partial, **dict(zip(unknown, signs))}
            completed = node.evaluate(full.get)
            assert type(completed) is bool
            completions.add(completed)
        if value is not None:
            assert completions == {value}, str(node)


def test_decide_answers_above_an_unreached_nullification():
    # x^2 + 1 > 0 holds on every level-1 cell, so the fold settles there and
    # never lifts a stack over x, not even over x = -1, where y*x + y
    # vanishes identically; a full CAD of the same formula is refused
    order = VarOrder(["x", "y"])
    f = parse_formula("forall x. forall y. x^2 + 1 > 0 or y*x + y = 0", order)
    assert decide(f) is True
    with pytest.raises(WellOrientednessError):
        lifting.cell_count(lifting.build_cad(plan_projection(f, order, "auto")))


@pytest.mark.parametrize("mode", sorted(MODE_POLICY))
def test_decided_tree_counts_as_the_full_cad(monkeypatch, mode):
    # decide lifts only the stacks its fold reaches; cell_count lifts the
    # rest, so the decided tree counts the cells of the eager build
    policy, ec_mode = MODE_POLICY[mode]
    lifts = []
    lift = lifting.lift_stack
    monkeypatch.setattr(lifting, "lift_stack", lambda *a: lifts.append(1) or lift(*a))
    partial = 0
    for _, qf, _ in load_corpus():
        names = qf.order.names
        eager = lifting.cell_count(lifting.build_cad(
            plan_projection(qf, qf.order, policy, ec_mode=ec_mode)))
        stacks = 1 + sum(eager["per_level"][:-1])
        for quants in product(("exists", "forall"), repeat=len(names)):
            f = Formula(qf.matrix, qf.order, zip(quants, names))
            lifts.clear()
            _, tree = _decided_tree(monkeypatch, f, ec_policy=policy, ec_mode=ec_mode)
            lifted = len(lifts)
            assert lifting.cell_count(tree) == eager, (mode, str(f))
            assert lifted <= len(lifts) == stacks
            partial += lifted < stacks
    assert partial > 20
