"""The move-to-front chain, recovered from the subset semigroup.

States of the classical chain are arrangements of n items; picking item a
moves it to the front.  The same chain falls out of the machinery here:
take the semigroup of nonempty subsets of {1..n} under union, expand its
right Cayley graph, and the walk on the expansion's minimal ideal *is* the
move-to-front chain, with normal forms as the arrangements.
"""

from fractions import Fraction

from semiwalk import (
    build_chain,
    karnofsky_rhodes,
    mccammond,
    normal_forms,
    right_cayley,
    stationary_kr,
    stationary_oracle,
)
from semiwalk.families import FamilySpec, build, hendricks

n = 3
S = build(FamilySpec("tsetlin", {"n": n}))
print(f"subset semigroup on {n} letters: |S| = {S.size}")

g = right_cayley(S)
kr = karnofsky_rhodes(S)
mc = mccammond(kr)
print(f"right Cayley graph: {g.n} vertices")
print(f"expanded: {kr.graph.n} vertices (simple-path expansion adds none: "
      f"{mc.graph.n})")

nfs = normal_forms(S)
print("\nnormal forms (= arrangements):",
      " ".join(S.word_label(nf.word) for nf in nfs))

x = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
result = stationary_kr(S, x)
print("\nexact stationary law at x = (1/2, 1/3, 1/6):")
for label, value in result.entries.items():
    print(f"  {label}: {value}   (product formula: {hendricks(x, [int(c) - 1 for c in label])})")

oracle = stationary_oracle(build_chain(S, x, "kr_ideal"))
worst = max(abs(float(v) - oracle[k]) for k, v in result.entries.items())
print(f"\nfloat power-iteration oracle agrees within {worst:.2e}")
