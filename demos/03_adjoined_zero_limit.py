"""The adjoined-zero limit for walks whose recurrent states keep moving.

When the minimal ideal is not left zero, walks never settle into absorbing
states and the word-level argument does not apply directly.  Killing the
walk with weight t at each step restores absorption: the walk on the
expansion stops at state u·0 of the expansion of S with a zero generator
of weight t adjoined, the normal form printed beside each state.  The
stationary law of the original walk is the exact limit t -> 0.  It is
computed here in closed form, pi(u) = h(R(u)) nu(L(u)) / |H|: the mass h
of first entering each minimal right ideal R, a small chain's law nu on
the minimal left ideals L, and uniform mass on each H-class R ∩ L.
"""

from fractions import Fraction

from semiwalk import kernel_is_left_zero, minimal_ideal, stationary_kr, stationary_s
from semiwalk.families import FamilySpec, build
from semiwalk.stationary import zero_limit_names

for name in ("z2x01", "rees_general"):
    S = build(FamilySpec(name, {}))
    K = minimal_ideal(S)
    print(f"{name}: |S| = {S.size}, |K| = {len(K)}, "
          f"left zero: {kernel_is_left_zero(S, K)}")

    x = [Fraction(2, 5), Fraction(3, 5)]
    r = stationary_kr(S, x)
    alt = zero_limit_names(S)
    print("  expansion-level limit law:")
    for label, value in r.entries.items():
        print(f"    {label:6} (normal form {alt[label]}): {value}")
    print("  total:", r.total())

    rs = stationary_s(S, x)
    print("  lumped to the semigroup:")
    for label, value in rs.entries.items():
        print(f"    {label}: {value}")
    print()
