"""The law over S from the walk sums per entry element, against the
expansion's law lumped by element (``reference.kr_lumped_s``)."""

import gc
import random
import time
from fractions import Fraction as F

import pytest
from reference import desk_corners, kr_lumped_s

from semiwalk import cli, expansions, families
from semiwalk.core import (
    SizeCapExceeded,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.stationary import (
    StationaryEngine,
    normalization_check,
    stationary_kr,
    stationary_s,
    uniform_probs,
)


def _items(result):
    return list(result.entries.items())


# every family at its defaults and at the ends of its ranges, and the two
# limit fixtures the benchmark forces into limit mode
FAMILY_CASES = [(name, False) for name in sorted(set(families._FAMILIES) | set(desk_corners()))]
FAMILY_CASES += [("tsetlin:5", True), ("rees_B:6", True)]


@pytest.mark.parametrize("name,force", FAMILY_CASES)
def test_law_over_s_equals_the_lumped_expansion_law(name, force):
    # the same values, names and order, at uniform and at unequal weights
    S = families.build(families.parse_family(name))
    k = S.n_gens
    for xs in (uniform_probs(S), [F(i + 1, k * (k + 1) // 2) for i in range(k)]):
        assert _items(stationary_s(S, xs, force)) == _items(kr_lumped_s(S, xs, force))


def test_law_over_s_equals_the_lumped_expansion_law_on_random_draws():
    # 3- and 4-state draws of 2 or 3 maps with |S| <= 150 at unequal
    # weights 1..5; limit mode comes with most kernels, direct mode is also
    # forced into it
    rng = random.Random(34)
    modes = {True: 0, False: 0}  # draws by whether their kernel is left zero
    while sum(modes.values()) < 120 or modes[False] < 60 or modes[True] < 10:
        n, k = rng.choice([3, 4]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        ints = [rng.randint(1, 5) for _ in range(k)]
        S = semigroup_from_transformations(n, maps)
        if S.size > 150 or len(set(ints)) == 1:
            continue
        xs = [F(i, sum(ints)) for i in ints]
        direct = kernel_is_left_zero(S, minimal_ideal(S))
        for force in {False, direct}:
            got = stationary_s(S, xs, force)
            assert _items(got) == _items(kr_lumped_s(S, xs, force)), maps
            assert normalization_check(got)
        modes[direct] += 1


LADDER = ["tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
          "flat_tower:3,2", "flat_tower:2,3"]
LIMIT_FIXTURES = [("rees_general", False), ("z2x01", False), ("klein", False),
                  ("tsetlin:5", True), ("rees_B:6", True)]


@pytest.mark.parametrize("name,force", [(n, False) for n in LADDER] + LIMIT_FIXTURES)
def test_over_s_builds_no_expansion(name, force, capsys, monkeypatch):
    # the towers are built from expansions, so the CLI is handed a fresh
    # copy built before the spy is set
    spec = families.parse_family(name)
    S = families.build(spec)
    want = "".join(f"{k}: {v}\n" for k, v in kr_lumped_s(S, uniform_probs(S), force).entries.items())
    fresh = families.build(spec)
    monkeypatch.setattr(cli, "build_family", lambda _: fresh)

    def refuse(*args, **kwargs):
        raise AssertionError("the law over S built an expansion")
    monkeypatch.setattr(expansions.KRExpansion, "__init__", refuse)
    argv = ["stationary", "--over", "s", "--family", name] + ["--limit-zero"] * force
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


def test_law_over_s_past_the_expansion_cap():
    # flat_tower:3,3 is out of the family table's range: its expansion
    # passes KR_CAP, while the law over S needs none
    S = families.flat_tower(3, 3)
    xs = [F(i + 1, 36) for i in range(S.n_gens)]
    start = time.perf_counter()
    law = stationary_s(S, xs)
    assert time.perf_counter() - start < 5
    assert S.size == 8_447 and len(law.entries) == 4_224 and law.total() == 1
    # stationary for s -> gens[a]·s on K(S), exactly
    element = {S.element_name(e): e for e in minimal_ideal(S)}
    pi = {element[name]: m for name, m in law.entries.items()}
    moved = dict.fromkeys(pi, F(0))
    for s, m in pi.items():
        for g, x in zip(S.gens, xs):
            moved[S.mult(g, s)] += m * x
    assert moved == pi
    with pytest.raises(SizeCapExceeded, match=f"exceeded cap {expansions.KR_CAP} vertices"):
        stationary_kr(S, xs)


def test_engine_reads_the_expansion_through_a_weak_reference():
    # S stores its engine, so the engine holds S weakly: the law over S
    # needs no S, an expansion-level read needs S alive
    S = families.build(families.parse_family("flat_tower:3,2"))
    engine = StationaryEngine(S)
    want = engine.entry_masses(uniform_probs(S))
    del S
    gc.collect()
    assert engine.entry_masses([F(1, 6)] * 6) == want
    with pytest.raises(ReferenceError, match="semigroup of this engine no longer exists"):
        engine.normal_forms
