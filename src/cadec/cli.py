"""Command-line front end.

Subcommands:
  cad build|decide|count   build a decomposition / decide a closed formula /
                           print cell counts
  bench dh|run|bound       emit a family instance / run a corpus experiment /
                           evaluate the dominant cell-count bound
  gb                       reduced Groebner basis, dimension, eliminations

Exit codes: 0 ok, 2 parse error, 3 well-orientedness failure, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .polynomial import ParseError, PolynomialError, VarOrder, parse_poly, poly_to_str
from .formula import decide, parse_formula
from .projection import CapExceededError, PrimitivityError, plan_projection
from .lifting import WellOrientednessError, build_cad, cell_count, truth_assign
from . import bench
from .groebner import MonomialOrder, buchberger, dimension, elimination_ideal

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_WELL_ORIENTED = 3
EXIT_CAP = 4

def _read_formula(text_or_path, order_csv):
    order = VarOrder([v.strip() for v in order_csv.split(",") if v.strip()])
    if os.path.exists(text_or_path):
        with open(text_or_path) as fh:
            text = fh.read()
    else:
        text = text_or_path
    return parse_formula(text.strip(), order)


def _build(args):
    f = _read_formula(args.formula, args.order)
    policy, ec_mode = bench.MODE_POLICY[args.mode]
    plan = plan_projection(f, f.order, policy, ec_mode=ec_mode)
    tree = build_cad(plan)
    truth_assign(tree, f)
    return f, plan, tree


def cmd_cad_build(args):
    _, plan, tree = _build(args)
    counts = cell_count(tree)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(tree.to_json())
    print("cells: %d (per level: %s), ell=%d"
          % (counts["total"],
             ",".join(str(c) for c in counts["per_level"]), plan.ell))
    return EXIT_OK


def cmd_cad_decide(args):
    f = _read_formula(args.formula, args.order)
    policy, ec_mode = bench.MODE_POLICY[args.mode]
    value = decide(f, ec_policy=policy, ec_mode=ec_mode)
    print("true" if value else "false")
    return EXIT_OK


def cmd_cad_count(args):
    _, plan, tree = _build(args)
    counts = cell_count(tree)
    print("total: %d" % counts["total"])
    print("per-level: %s" % ",".join(str(c) for c in counts["per_level"]))
    print("sections: %d  sectors: %d" % (counts["sections"], counts["sectors"]))
    print("ell: %d" % plan.ell)
    return EXIT_OK


_FORM_ALIAS = {"product": "product_L", "cnf": "cnf_L"}


def cmd_bench_dh(args):
    f_poly = parse_poly(args.f, VarOrder(["t"]))
    form = _FORM_ALIAS.get(args.form, args.form)
    inst = bench.generate_dh(args.depth, f_poly, form)
    print(inst)
    if args.report:
        for rec in bench.primitivity_report(inst):
            print("EC candidate %s | main var %s | %s | content %s"
                  % (poly_to_str(rec["poly"]), rec["main_var"],
                     "primitive" if rec["primitive"] else "IMPRIMITIVE",
                     poly_to_str(rec["content"])))
    return EXIT_OK


def _load_corpus(directory):
    """Each corpus file: first line `order: y,x`, rest the formula text;
    the file stem is the row id."""
    corpus = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            head = fh.readline()
            body = fh.read()
        if not head.lower().startswith("order:"):
            raise ParseError("%s: first line must be 'order: v1,v2,...'" % name, 0)
        order = VarOrder([v.strip() for v in head.split(":", 1)[1].split(",")])
        corpus.append((os.path.splitext(name)[0],
                       parse_formula(body.strip(), order)))
    return corpus


def cmd_bench_run(args):
    corpus = _load_corpus(args.corpus)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    reports = bench.run_experiment(corpus, modes)
    bench.write_csv(reports, args.csv)
    worst = EXIT_OK
    for r in reports:
        print(",".join(str(x) for x in r.csv_row()))
        if r.status == "well-orientedness-error":
            worst = max(worst, EXIT_WELL_ORIENTED)
        elif r.status == "cap-exceeded":
            worst = max(worst, EXIT_CAP)
    return worst


def cmd_bench_bound(args):
    print(bench.bound_eq1(args.n, args.m, args.d))
    if args.ell is not None:
        print(bench.ec_bound_note(args.n, args.m, args.d, args.ell))
    return EXIT_OK


def cmd_gb(args):
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    order = VarOrder(list(reversed(names)))  # first-listed variable highest
    with open(args.gens) as fh:
        gens = [parse_poly(line.strip(), order)
                for line in fh if line.strip() and not line.startswith("#")]
    basis = buchberger(gens, MonomialOrder(args.order, order))
    print("reduced basis:")
    for g in basis.gens:
        print("  " + poly_to_str(g))
    print("dimension: %d" % dimension(basis))
    if args.order == "lex":
        for i in range(1, len(names)):
            keep = tuple(order.names[:i])
            elim = elimination_ideal(basis, keep)  # a set: print in gens order
            print("elimination onto {%s}: %s"
                  % (",".join(keep),
                     "; ".join(poly_to_str(g) for g in basis.gens if g in elim) or "(0)"))
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(prog="cadec", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    cad = sub.add_parser("cad", help="cylindrical algebraic decomposition")
    cad_sub = cad.add_subparsers(dest="cad_command", required=True)
    for name, fn in (("build", cmd_cad_build), ("decide", cmd_cad_decide),
                     ("count", cmd_cad_count)):
        p = cad_sub.add_parser(name)
        p.add_argument("--formula", required=True,
                       help="formula text or path to a file containing it")
        p.add_argument("--order", required=True,
                       help="comma-separated variables, lowest first (e.g. y,x)")
        p.add_argument("--mode", choices=tuple(bench.MODE_POLICY), default="si")
        if name == "build":
            p.add_argument("--json", help="write the cell tree as JSON")
        p.set_defaults(fn=fn)

    bn = sub.add_parser("bench", help="formula family, bounds, experiments")
    bn_sub = bn.add_subparsers(dest="bench_command", required=True)
    p = bn_sub.add_parser("dh")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--f", default="t^2", help="base map, a polynomial in t")
    p.add_argument("--form", default="prenex",
                   choices=("nested", "prenex", "negated", "cnf", "cnf_L",
                            "product", "product_L"))
    p.add_argument("--report", action="store_true",
                   help="also print the EC primitivity report")
    p.set_defaults(fn=cmd_bench_dh)
    p = bn_sub.add_parser("run")
    p.add_argument("--corpus", required=True, help="directory of formula files")
    p.add_argument("--modes", default="si,ec-res,ec-gb")
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=cmd_bench_run)
    p = bn_sub.add_parser("bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.set_defaults(fn=cmd_bench_bound)

    gb = sub.add_parser("gb", help="Groebner basis of an ideal")
    gb.add_argument("--order", choices=("lex", "degrevlex"), default="lex")
    gb.add_argument("--vars", required=True,
                    help="comma-separated variables, highest first")
    gb.add_argument("--gens", required=True,
                    help="file with one generator polynomial per line")
    gb.set_defaults(fn=cmd_gb)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except WellOrientednessError as exc:
        print("well-orientedness failure: %s" % exc, file=sys.stderr)
        return EXIT_WELL_ORIENTED
    except CapExceededError as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except (PrimitivityError, PolynomialError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
