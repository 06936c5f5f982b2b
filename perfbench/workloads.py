"""Request mixes of the semiwalk benchmark and the seeded inputs they use.

Every request is an argument list for ``semiwalk.cli.main``.  The fixed
requests, and one validated reference per random class, live in
``reference.json`` (written by ``make_reference.py``); this module holds
the definitions both scripts share.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

# Direct-mode Fraction path over the ladder, largest size that builds.
EXACT_LADDER = [
    ["stationary", "--family", "tsetlin:6"],
    ["stationary", "--family", "signed_tsetlin:4"],
    ["stationary", "--family", "rees_zp:4,5"],
    ["stationary", "--family", "bar_tower:2,2"],
    ["stationary", "--family", "flat_tower:3,2"],
    ["stationary", "--family", "flat_tower:2,3"],
    ["stationary", "--family", "bar_tower:2,2", "--over", "s"],
    ["stationary", "--family", "flat_tower:3,2", "--over", "s"],
]

# Limit-mode fixtures that run beside the random draws.
LIMIT_FIXTURES = [
    ["stationary", "--family", "rees_general"],
    ["stationary", "--family", "z2x01"],
    ["stationary", "--family", "klein"],
    ["stationary", "--family", "tsetlin:5", "--limit-zero"],
    ["stationary", "--family", "rees_B:6", "--limit-zero"],
]

EXPRESSION_FAMILIES = ["signed_tsetlin:4", "rees_zp:4,4", "flat_tower:2,2"]
VERIFY_FAMILIES = ["rees_zp:4,5", "flat_tower:3,2"]
WALKERS = 20
STEPS = 50_000
SIM_SEED = 42

# Random limit-mode instances: 3 states, 3 generators, kernel not left
# zero, 7 <= |S| <= 13.  Smaller draws finish in about 20 ms, all fixed
# per-request cost.  Within the filter the costliest classes (|S| = 11,
# 1,218 vertices in the McCammond expansion of S with a zero adjoined) take
# about 2 s at the reference speed of ``speed.Meter``.  Beyond it a 3-state
# draw with |S| = 27 takes more than 30 s, a 4-state draw with |S| = 97 more
# than 20 s and one with |S| = 145 655 s.  Those are left to the limit-mode
# performance work, not hidden here.
STATES = 3
GENERATORS = ("a", "b", "c")
MIN_SIZE, MAX_SIZE = 7, 13
# One draw per stratum.  Strata split the pool, ranked by run time at the
# commit that recorded the reference, into parts of equal total run time to
# the power STRATUM_POWER, so costly classes get narrow strata.  Every seed
# then has the same cost profile while the draws themselves change with the
# seed.
DRAWS = 48
STRATUM_POWER = 0.6
CANDIDATES = 5_000
MAX_ATTEMPTS = 200_000


def tv_tolerance(states: int, samples: int) -> float:
    """Tolerance for the simulated-vs-exact total variation distance.

    For n states and N independent samples, E[TV] <= sqrt(n / N) / 2
    (E|X - Np| <= sqrt(Np) per state, then Cauchy-Schwarz).  The walk
    records every step, so samples are correlated; the tolerance allows
    twice the independent-sample bound for that.  One formula for every
    family, never tuned per family.
    """
    return float(f"{math.sqrt(states / samples):.4f}")


def verify_request(family: str, states: int) -> list[str]:
    tol = tv_tolerance(states, WALKERS * STEPS)
    return ["verify", "--family", family, "--simulate",
            "--walkers", str(WALKERS), "--steps", str(STEPS),
            "--seed", str(SIM_SEED), "--tv-tol", str(tol)]


# -- random transformation semigroups ---------------------------------------------


_PERMS = list(itertools.permutations(range(STATES)))


def _conjugate(m: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * STATES
    for q in range(STATES):
        out[s[q]] = s[m[q]]
    return tuple(out)


def class_key(maps: tuple[tuple[int, ...], ...]) -> str:
    """Key of the draw up to renaming the states.

    Renaming states gives the same table semigroup (elements are found in
    generator-word order), so the CLI output is byte-identical across a
    class and one reference covers it.
    """
    canon = min(tuple(_conjugate(m, s) for m in maps) for s in _PERMS)
    return "".join(str(q) for m in canon for q in m)


def random_maps(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(rng.randrange(STATES) for _ in range(STATES)) for _ in GENERATORS
    )


def spec_of(maps) -> dict:
    return {"kind": "transformations", "states": STATES,
            "maps": {g: list(m) for g, m in zip(GENERATORS, maps)}}


def keep_draw(maps) -> bool:
    """The size and kernel filter, on the library's own construction."""
    from semiwalk.core import (
        kernel_is_left_zero, minimal_ideal, semigroup_from_transformations,
    )
    S = semigroup_from_transformations(STATES, dict(zip(GENERATORS, maps)))
    if not MIN_SIZE <= S.size <= MAX_SIZE:
        return False
    return not kernel_is_left_zero(S, minimal_ideal(S))


def strata(pool: dict) -> dict[str, int]:
    """Cost stratum of each pool class, from its recorded run time."""
    ranked = sorted(pool, key=lambda k: (pool[k]["seconds"], k))
    weights = [pool[k]["seconds"] ** STRATUM_POWER for k in ranked]
    total, acc, out = sum(weights), 0.0, {}
    for key, w in zip(ranked, weights):
        out[key] = min(int((acc + w / 2) * DRAWS / total), DRAWS - 1)
        acc += w
    return out


def draw_classes(seed: int, pool: dict) -> list[tuple[str, tuple]]:
    """One seeded draw per cost stratum of the pool: (class key, maps).

    The pool holds exactly the classes that pass ``keep_draw``.  Every seed
    draws at least CANDIDATES maps, which fills all strata for every seed
    tried (at most 4,838 were needed over 200 seeds), so set-up does the same
    work whatever the seed; the first draw in each stratum is kept.
    """
    rng = random.Random(seed)
    stratum = strata(pool)
    chosen: dict[int, tuple[str, tuple]] = {}
    for n in range(MAX_ATTEMPTS):
        if n >= CANDIDATES and len(chosen) == DRAWS:
            return [chosen[s] for s in sorted(chosen)]
        maps = random_maps(rng)
        if not keep_draw(maps):
            continue
        key = class_key(maps)
        chosen.setdefault(stratum[key], (key, maps))
    raise RuntimeError(f"seed {seed}: strata not filled in {MAX_ATTEMPTS} draws")


# -- request lists ------------------------------------------------------------------


def make_requests(workload: str, seed: int, reference: dict, workdir: str) -> list[dict]:
    """The seeded request list: dicts with ``name``, ``argv`` and ``sha256``.

    Random specs are written under ``workdir``.  The seed also fixes the
    order of the requests in a pass.
    """
    reqs = [dict(r) for r in reference["fixed"][workload]]
    if workload == "limit_random":
        os.makedirs(workdir, exist_ok=True)
        for i, (key, maps) in enumerate(draw_classes(seed, reference["pool"])):
            path = os.path.join(workdir, f"draw{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec_of(maps), fh)
            reqs.append({"name": f"random:{key}",
                         "argv": ["stationary", "--spec", path],
                         "sha256": reference["pool"][key]["sha256"]})
    random.Random(seed).shuffle(reqs)
    return reqs
