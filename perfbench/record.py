"""Write the benchmark's inputs (inputs.json) and the outputs the program
gave for them (expected.json).

Run once, at the commit whose outputs are the reference:

    python3 perfbench/record.py

Inputs are formula and polynomial texts; run.py parses them and never
calls the generators used here.  Every item runs once under its workload's
budget; its status and output summary become the expected record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cadec import Polynomial, VarOrder, poly_to_str  # noqa: E402
from cadec.bench import dh_equivalence_sentences, generate_dh  # noqa: E402

import workloads  # noqa: E402

# tests/corpus.py at the recording commit, plus two surfaces in space
EC_CORPUS = [
    ("circle", "y,x", "x^2 + y^2 - 1 = 0"),
    ("circle-and-x", "y,x", "x^2 + y^2 - 1 = 0 and x > 0"),
    ("circle-line", "y,x", "x^2 + y^2 - 1 = 0 and x - y = 0"),
    ("half-plane", "y,x", "x - y > 0"),
    ("sqrt2-strip", "y,x", "x^2 - 2 = 0 and y > 0"),
    ("parabola-arc", "x,y", "y - x^2 = 0 and x > 0"),
    ("hyperbola-or-diag", "y,x", "x*y - 1 = 0 or x - y > 0"),
    ("disk", "y,x", "x^2 + y^2 < 1"),
    ("cubic", "x,y", "y - x^3 = 0"),
    ("ellipse-line", "y,x", "x^2 + 4*y^2 - 4 = 0 and x + y = 0"),
    ("sphere", "z,y,x", "x^2 + y^2 + z^2 - 1 = 0"),
    ("plane-in-space", "z,y,x", "x + y + z = 0 and x^2 + y^2 < 1"),
    ("sphere-plane", "z,y,x", "x^2 + y^2 + z^2 - 1 = 0 and x + y + z = 0"),
    ("viviani", "z,y,x", "x^2 + y^2 + z^2 - 4 = 0 and x^2 + y^2 - 2*x = 0 and z > 0"),
]
THREE_EC = ("three-ec", "z,y,x", "x*y - z = 0 and x^2 - y = 0 and x + y + z - 1 = 0")
EC_WARMUP = ["circle-line", "ellipse-line", "hyperbola-or-diag", "sqrt2-strip"]


def katsura(n):
    """Katsura-n in x0..xn, with x0 the highest variable."""
    order = VarOrder(["x%d" % i for i in range(n, -1, -1)])

    def x(i):
        i = abs(i)
        return Polynomial.variable(order, "x%d" % i) if i <= n else Polynomial.zero(order)

    gens = []
    for m in range(n):
        s = Polynomial.zero(order)
        for l in range(-n, n + 1):
            s = s + x(l) * x(m - l)
        gens.append(s - x(m))
    s = x(0)
    for i in range(1, n + 1):
        s = s + x(i) * 2
    gens.append(s - 1)
    return order, gens


def cyclic(n):
    """Cyclic-n in x0..x(n-1), with x0 the highest variable."""
    order = VarOrder(["x%d" % i for i in range(n - 1, -1, -1)])
    xs = [Polynomial.variable(order, "x%d" % i) for i in range(n)]
    gens = []
    for k in range(1, n):
        s = Polynomial.zero(order)
        for i in range(n):
            term = Polynomial.constant(order, 1)
            for j in range(k):
                term = term * xs[(i + j) % n]
            s = s + term
        gens.append(s)
    prod = Polynomial.constant(order, 1)
    for x in xs:
        prod = prod * x
    gens.append(prod - 1)
    return order, gens


def gb_item(name, system, kind, keep=None):
    order, gens = system
    spec = {"id": "%s-%s" % (name, kind), "kind": "groebner", "order": list(order.names),
            "monomial_order": kind, "gens": [poly_to_str(g) for g in gens]}
    if keep:
        spec["keep"] = keep
    return spec


def formula_item(item_id, kind, f, mode=None):
    spec = {"id": item_id, "kind": kind, "order": list(f.order.names), "formula": str(f)}
    if mode:
        spec["mode"] = mode
    return spec


def cad_item(fid, order, text, mode):
    return {"id": "%s/%s" % (fid, mode), "kind": "cad", "order": order.split(","),
            "formula": text, "mode": mode}


def make_inputs():
    _, s2 = dh_equivalence_sentences(1)
    dh2 = generate_dh(2, form="prenex")
    dh2_cnf = generate_dh(2, form="cnf_L")
    dh1_product = generate_dh(1, form="product_L")
    return {
        "dh1-decide": {
            "items": [formula_item("dh1-S2", "decide", s2)],
            "warmup": [{"id": "circle-hyperbola-decide", "kind": "decide",
                        "order": ["x", "y", "z"],
                        "formula": "forall x. exists y. forall z. "
                                   "x^2 + y^2 - 2 != 0 or z^2 - y*x - 1 > 0"}],
        },
        "plan-dh": {
            "items": [formula_item("dh2-prenex/si", "plan", dh2, "si"),
                      formula_item("dh2-cnf_L/ec-gb", "plan", dh2_cnf, "ec-gb")],
            "probes": [formula_item("dh1-product_L/ec-res", "plan", dh1_product, "ec-res"),
                       formula_item("dh1-product_L/ec-gb", "plan", dh1_product, "ec-gb")],
            "warmup": [formula_item("dh1-prenex/si", "plan",
                                    generate_dh(1, form="prenex"), "si")],
        },
        "gb-elim": {
            "items": [gb_item("katsura-3", katsura(3), "lex", keep=1),
                      gb_item("cyclic-4", cyclic(4), "lex", keep=1),
                      gb_item("katsura-4", katsura(4), "degrevlex"),
                      gb_item("cyclic-5", cyclic(5), "degrevlex")],
            "warmup": [gb_item("katsura-2", katsura(2), "lex", keep=1),
                       gb_item("cyclic-3", cyclic(3), "degrevlex")],
        },
        "ec-corpus": {
            "items": [cad_item(fid, order, text, mode)
                      for fid, order, text in EC_CORPUS for mode in workloads.MODES]
                     + [cad_item(*THREE_EC, "si")],
            "probes": [cad_item(*THREE_EC, "ec-res"), cad_item(*THREE_EC, "ec-gb")],
            "warmup": [cad_item(fid, order, text, mode)
                       for fid, order, text in EC_CORPUS if fid in EC_WARMUP
                       for mode in ("si", "ec-gb")],
        },
    }


def record(inputs):
    expected = {}
    for name, spec in inputs.items():
        expected[name] = {}
        runs = [(s, workloads.ITEM_BUDGET_S[name]) for s in spec["items"]]
        runs += [(s, workloads.PROBE_BUDGET_S[name]) for s in spec.get("probes", [])]
        for item_spec, budget in runs:
            item = workloads.Item(item_spec)
            out = workloads.run_budgeted(item.id, item.call, budget)
            want = {"status": out.status}
            if out.status == "ok":
                want.update(item.summary(out.value))
            expected[name][item.id] = want
            print("%-12s %-28s %-8s %7.2fs" % (name, item.id, out.status, out.seconds),
                  flush=True)
    return expected


def main():
    inputs = make_inputs()
    with open(HERE / "inputs.json", "w") as fh:
        json.dump(inputs, fh, indent=1)
        fh.write("\n")
    expected = record(inputs)
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
