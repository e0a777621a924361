"""The doubly-exponential quantified family and its cell-count bounds.

Depth k uses 2 + 3k variables and is equivalent to x0 = f^(2^k)(y0): each
level of quantifiers squares the number of function applications, which is
where the doubly-exponential growth comes from.  Run with --decide to
verify the depth-1 equivalence by actually deciding both of its sentences
(about 0.25 s on a shared 2-vCPU machine).  With --decide --depth 2 it
decides S2 of the paper's 8-variable depth-2 member (about 1 s): x0 = y0^16
implies the instance.  The converse S1 is not attempted, since its partial
CAD makes more cells than the default cap (lifting.CELL_CAP).
"""

import argparse

from cadec import VarOrder, parse_poly, decide
from cadec.bench import (
    bound_eq1, dh_equivalence_sentences, dh_target, generate_dh,
    primitivity_report,
)
from cadec.lifting import CELL_CAP

parser = argparse.ArgumentParser()
parser.add_argument("--decide", action="store_true",
                    help="decide the equivalence's sentences")
parser.add_argument("--depth", type=int, choices=(1, 2), default=1,
                    help="the family member --decide decides")
args = parser.parse_args()

print("depth-1 instance (prenex form):")
print(" ", generate_dh(1, form="prenex"))
print("equivalent equation:", dh_target(1), "= 0")
print("depth-2 equivalent equation:", dh_target(2), "= 0")
cube = parse_poly("t^3", VarOrder(["t"]))
print("with base map t^3 instead:", dh_target(1, cube), "= 0")

print("\ndominant term of the sign-invariant cell bound (n vars, m polys,"
      " degree d):")
for n, m, d in ((1, 1, 1), (2, 2, 2), (3, 1, 3), (5, 6, 4)):
    print("  n=%d m=%d d=%d -> %s" % (n, m, d, "{:,}".format(bound_eq1(n, m, d))))

print("\nthe negated form's linking block as product equalities:")
for rec in primitivity_report(generate_dh(1, form="product_L")):
    status = "primitive" if rec["primitive"] else "IMPRIMITIVE (content %s)" % rec["content"]
    print("  %-35s main var %-3s %s" % (rec["poly"], rec["main_var"], status))
print("imprimitive equations cannot be designated as equational constraints;")
print("the planner refuses them and falls back to full projection.")

if args.decide and args.depth == 1:
    print("\ndeciding both directions of the depth-1 equivalence"
          " (5-variable decompositions)...")
    s1, s2 = dh_equivalence_sentences(1)
    print("  instance implies x0 = y0^4:", decide(s1))
    print("  x0 = y0^4 implies instance:", decide(s2))
elif args.decide:
    print("\ndeciding the depth-2 equivalence (8-variable decompositions)...")
    s1, s2 = dh_equivalence_sentences(2)
    print("  x0 = y0^16 implies instance:", decide(s2))
    print("  instance implies x0 = y0^16: not attempted; its partial CAD makes")
    print("  more cells than the default cap of {:,}".format(CELL_CAP))
else:
    print("\n(rerun with --decide to prove the depth-1 equivalence, about 0.25 s;")
    print("with --decide --depth 2 to decide S2 of the 8-variable member)")
