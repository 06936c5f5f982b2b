"""Walk languages: regular expressions whose evaluation is the stationary law.

For the cyclic Rees semigroup on two generators, every walk from the start
into the absorbing state loop-erases onto one of four normal forms.  The
words doing so form a regular language per normal form; substituting letter
probabilities and resumming stars geometrically gives the exact stationary
mass, no linear algebra involved.
"""

from fractions import Fraction

from semiwalk import (
    StationaryEngine,
    evaluate_expr,
    mccammond,
    karnofsky_rhodes,
    pretty,
    series,
    to_dot,
)
from semiwalk.families import FamilySpec, build

S = build(FamilySpec("rees_B", {"n": 2}))
engine = StationaryEngine(S)

x = [Fraction(1, 2), Fraction(1, 2)]
values = engine.values(x)  # per state: each normal form here enters its own

print("normal form | walk language | exact mass at (1/2, 1/2)")
for nf in engine.normal_forms:
    expr = engine.expression(nf)
    label = S.word_label(nf.word)
    value = evaluate_expr(expr, x)
    assert value == values[nf.kr_vertex]
    print(f"  {label:4} | {pretty(expr, S.gen_names):12} | {value}")

print("\ntotal:", sum(values.values()))

nf0 = engine.normal_forms[0]
expr0 = engine.expression(nf0)
truncated = sum(series(expr0, x, 14))
print(f"partial sums of the {S.word_label(nf0.word)} series up to length 14: "
      f"{truncated} -> {float(truncated):.6f} vs {float(values[nf0.kr_vertex]):.6f}")

mc = mccammond(karnofsky_rhodes(S))
dot = to_dot(mc.graph, tree=mc.tree_edges)
print(f"\nDOT export of the expansion ({mc.graph.n} vertices), first lines:")
print("\n".join(dot.splitlines()[:5]))
