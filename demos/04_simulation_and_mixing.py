"""Monte Carlo verification and the mixing time from the first-entry tail.

The simulator walks on ideal-entering words lumped onto the expansion
states: a walker's state is the vertex of its word, and a step reads the
new word's vertex off the expansion's own rows, never off the exact
chain.  Runs are bit-reproducible from the seed.  The mixing bound is the
least k with P(T > k) <= 1/e, where T is the first step at which the random
word's product lies in the minimal ideal; P(T > k) bounds the total
variation after k steps from any start.
"""

from semiwalk import (
    mixing_bound,
    simulate_semaphore,
    simulate_state_at,
    stationary_kr,
    tv_distance,
    uniform_probs,
)
from semiwalk.families import FamilySpec, build

S = build(FamilySpec("rees_B", {"n": 2}))
x = uniform_probs(S)
exact = {k: float(v) for k, v in stationary_kr(S, x).entries.items()}

print("occupation measure vs exact law (20 walkers):")
for steps in (100, 1_000, 10_000):
    emp = simulate_semaphore(S, x, walkers=20, steps=steps, seed=42)
    print(f"  {20 * steps:>7} samples: TV = {tv_distance(emp, exact):.5f}")

mb = mixing_bound(S, x)
print(f"\nmixing bound: P(T > {mb.k}) = {mb.tail} <= 1/e -> k={mb.k} steps")

emp = simulate_state_at(S, x, walkers=4000, steps=mb.k, seed=99)
tv = tv_distance(emp, exact)
print(f"simulated TV after k={mb.k} steps from a point start: {tv:.4f} "
      f"(bound {float(mb.tail):.4f})")

rerun = simulate_semaphore(S, x, walkers=20, steps=100, seed=42)
again = simulate_semaphore(S, x, walkers=20, steps=100, seed=42)
print(f"\nseeded reruns bit-identical: {rerun.counts == again.counts}")
