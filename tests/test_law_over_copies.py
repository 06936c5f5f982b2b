"""The law over the expansion from its tree of copies, walked over S's
stored component DAG: neither mode builds an expansion, limit mode reads
S's own left ideals, which the expansion's are the preimages of, and the
expansion's vertex count, read off the same DAG, is checked against the
cap before the expansion or the engine is built."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from reference import (
    TreeEngine,
    closed_class_ideal,
    kr_limit_law,
    tree_masses,
    values_by_vertex,
    word_sorted_kr_result,
)

from semiwalk import cli, expansions, families, stationary
from semiwalk.core import (
    SizeCapExceeded,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes, kr_size
from semiwalk.stationary import StationaryEngine, _left_ideals, stationary_kr, uniform_probs

# SHA-256 of the output of `stationary`, recorded when the law over the
# expansion still read the stored expansion
DIRECT_LADDER = {
    ("tsetlin:6",): "bb213c592b7a91e64a3f4a08b6b23894c63e4603772e8f3abe466f2afbfdd023",
    ("signed_tsetlin:4",): "5054de3662ec9a7d96e7de9165e78617a4caab278993ab0589003a6c5112ac55",
    ("rees_zp:4,5",): "7914e1f126d8a10b17c7a352d18b3014f3c1e1517141f8d44b26d0031a4f1713",
    ("bar_tower:2,2",): "02024c74917956baaf15e82ae8a826f907de792504c6679d862046e0f1448738",
    ("flat_tower:3,2",): "b9ecf41a57b88c941d158d5ddafcf8ec1eb8ea024e32f5d77f59a07e51f55b20",
    ("flat_tower:2,3",): "2d45e841f7e1fc8982f6ea3e86060ef53998c4b427759086ab91961db6d5adc9",
}
LIMIT_FIXTURES = {
    ("rees_general",): "87b10913aa0c5a945536cd979ab90413f4ee18d8bfe941a2d98184c611940d4c",
    ("z2x01",): "7dc695e46ec86aff306fdc2e538a42f3dbde5e7aecab8f6621fad36ffadd5ff1",
    ("klein",): "8615ffc03b777fb0d61f89b69c96ca1561f6282fe93a15a8f0804e4e1e742f2c",
    ("tsetlin:5", "--limit-zero"):
        "5a8defe0f231c90052197211dd0b4983bfbc56e6a3312ec1942ae5c6786013d8",
    ("rees_B:6", "--limit-zero"):
        "c780c36950001941800a8ec3ae52f7314540dcffecb321e70534727c9f9cecc2",
    # kernels that are left zero, forced into limit mode: the law is direct
    # mode's, byte for byte
    ("bar_tower:2,2", "--limit-zero"): DIRECT_LADDER["bar_tower:2,2",],
    ("flat_tower:3,2", "--limit-zero"): DIRECT_LADDER["flat_tower:3,2",],
}
SPEC = Path(__file__).parent / "specs" / "maps4_s172.json"


def _hand_over(name, monkeypatch) -> None:
    """Build the family now and have the CLI take it, as the towers are
    built from expansions."""
    fresh = families.build(families.parse_family(name))
    monkeypatch.setattr(cli, "build_family", lambda _: fresh)


def _stationary_digest(args, source="--family") -> str:
    """SHA-256 of the output of ``stationary --family *args``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["stationary", source, *args]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _refuse(*args, **kwargs):
    raise AssertionError("the law over the expansion built an expansion")


@pytest.mark.parametrize("args", list(DIRECT_LADDER))
def test_direct_law_builds_no_expansion(args, monkeypatch):
    _hand_over(args[0], monkeypatch)
    monkeypatch.setattr(expansions.KRExpansion, "__init__", _refuse)
    assert _stationary_digest(args) == DIRECT_LADDER[args]


@pytest.mark.parametrize("args", list(LIMIT_FIXTURES))
def test_limit_law_is_unchanged(args, monkeypatch):
    # limit mode reads S's left ideals and builds no expansion
    _hand_over(args[0], monkeypatch)
    monkeypatch.setattr(expansions.KRExpansion, "__init__", _refuse)
    assert _stationary_digest(args) == LIMIT_FIXTURES[args]


def test_limit_law_past_the_mccammond_cap_builds_no_expansion(monkeypatch):
    # |S| = 172, kernel not left zero, 2,496 states
    monkeypatch.setattr(expansions.KRExpansion, "__init__", _refuse)
    assert (_stationary_digest([str(SPEC)], "--spec")
            == "52dce789ac0d6abf7a067249482a44f98c85c6d3de644b61416d5761de2592f1")


def test_direct_law_equals_the_expansion_reference_on_random_draws(monkeypatch):
    # 3- to 5-state draws of 2 or 3 maps with |S| <= 150 whose minimal
    # ideal is left zero, at unequal weights 1..5; the reference sums the
    # walks on one McCammond tree over the whole expansion per vertex and
    # names and orders the states by the expansion's words, so a draw whose
    # tree passes 20,000 simple paths is passed over
    monkeypatch.setattr(expansions, "MC_CAP", 20_000)
    rng = random.Random(36)
    checked = unstable = 0
    while checked < 100 or unstable < 10:
        n, k = rng.choice([3, 4, 5]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        ints = [rng.randint(1, 5) for _ in range(k)]
        S = semigroup_from_transformations(n, maps)
        if S.size > 150 or len(set(ints)) == 1 or not kernel_is_left_zero(S, minimal_ideal(S)):
            continue
        try:
            ref = TreeEngine(S)
        except SizeCapExceeded:
            continue
        xs = [F(i, sum(ints)) for i in ints]
        want = tree_masses(ref, xs)
        assert values_by_vertex(S, StationaryEngine(S), xs) == want, maps
        got = stationary_kr(S, xs).entries
        assert list(got.items()) == list(word_sorted_kr_result(ref.kr, want).entries.items())
        checked += 1
        unstable += len(ref.mc.out) > len(ref.kr.out)


def _assert_component_dag(S) -> None:
    """S's stored component DAG: its components are those that some edge
    leaves, so the minimal ideal read off it is the union of the closed
    classes, and each exit leads to a later component or a closed one."""
    K = minimal_ideal(S)
    assert K == closed_class_ideal(S)
    rows, comp, dag = S.right_action()[0], S.right_components(), S.component_dag()
    rank = {comp[entries[0]]: i for i, (entries, _) in enumerate(dag)}
    for i, (entries, exits) in enumerate(dag):
        assert {comp[e] for e in entries} == {comp[v] for v, _, _ in exits} == {comp[entries[0]]}
        for v, a, f in exits:
            assert rows[v][a] == f and comp[f] != comp[v]
            assert f in K or rank[comp[f]] > i


def _refuse_engine(*args, **kwargs):
    raise AssertionError("the law built its engine past KR_CAP")


def _at_the_cap(S, xs, monkeypatch) -> None:
    """With KR_CAP one below the expansion's vertex count, the expansion
    raises before its search and the law before its engine, and so does the
    engine's own copy walk; at that count both pass, and the expansion has
    that many vertices."""
    _assert_component_dag(S)
    n = kr_size(S)
    engine = StationaryEngine(S)
    with monkeypatch.context() as m:
        m.setattr(expansions, "KR_CAP", n - 1)
        message = rf"\|S\| = {S.size} exceeded cap {n - 1} vertices"
        with pytest.raises(SizeCapExceeded, match=message):
            engine.values(xs)
        with monkeypatch.context() as refused:
            refused.setattr(expansions, "right_cayley_rows", _refuse)
            refused.setattr(expansions.KRExpansion, "__init__", _refuse)
            refused.setattr(StationaryEngine, "__init__", _refuse_engine)
            with pytest.raises(SizeCapExceeded, match=message):
                karnofsky_rhodes(S)
            with pytest.raises(SizeCapExceeded, match=message):
                stationary_kr(S, xs)
        m.setattr(expansions, "KR_CAP", n)
        assert len(karnofsky_rhodes(S).out) == n
        assert stationary_kr(S, xs).total() == 1


CAP_FAMILIES = ["tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
                "flat_tower:3,2", "flat_tower:2,3", "rees_general", "klein",
                "z2x01", "flipflop", "tsetlin:5", "rees_B:6", "burnside_straightline:3"]


@pytest.mark.parametrize("name", CAP_FAMILIES)
def test_cap_counts_the_expansion_vertices(name, monkeypatch):
    S = families.build(families.parse_family(name))
    _at_the_cap(S, uniform_probs(S), monkeypatch)


@pytest.mark.parametrize("name", ["tsetlin:5", "flat_tower:3,2", "z2x01"])
def test_each_law_counts_the_expansion_at_most_once(name, monkeypatch):
    # the law over the expansion counts it before the engine is built and
    # hands the count over; the law over S never reads it; an engine built
    # on its own counts it on its first copy walk, once
    counted = []
    count = expansions.copy_tree_size

    def counting(*args):
        counted.append(args)
        return count(*args)
    monkeypatch.setattr(expansions, "copy_tree_size", counting)
    for over, times in (("kr", 1), ("s", 0)):
        for force_limit in (False, True):
            S = families.build(families.parse_family(name))
            counted.clear()
            law = stationary.stationary_law(S, uniform_probs(S), force_limit, over)
            assert sum(1 for _ in law) and len(counted) == times, (over, force_limit)
            if over == "kr":  # a second law reads the engine's count
                stationary_kr(S, uniform_probs(S), force_limit=force_limit)
                assert len(counted) == 1
    engine = StationaryEngine(families.build(families.parse_family(name)))
    counted.clear()
    engine.values(uniform_probs(S))
    engine.values(uniform_probs(S))
    assert len(counted) == 1


def test_cap_counts_the_expansion_vertices_on_random_draws(monkeypatch):
    # both modes: limit mode reads the same walk, so it raises at the
    # same count
    rng = random.Random(360)
    modes = {True: 0, False: 0}
    while min(modes.values()) < 20:
        n, k = rng.choice([3, 4]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        S = semigroup_from_transformations(n, maps)
        if S.size > 150:
            continue
        ints = [rng.randint(1, 5) for _ in range(k)]
        _at_the_cap(S, [F(i, sum(ints)) for i in ints], monkeypatch)
        modes[kernel_is_left_zero(S, minimal_ideal(S))] += 1


def _draws(seed):
    """Seeded 3- to 5-state draws of 2 or 3 maps with |S| <= 150, each with
    unequal weights 1..5, and whether its kernel is left zero; each draw's
    component DAG is checked first."""
    rng = random.Random(seed)
    while True:
        n, k = rng.choice([3, 4, 5]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        ints = [rng.randint(1, 5) for _ in range(k)]
        S = semigroup_from_transformations(n, maps)
        if S.size <= 150 and len(set(ints)) > 1:
            _assert_component_dag(S)
            yield S, [F(i, sum(ints)) for i in ints], kernel_is_left_zero(S, minimal_ideal(S))


def test_limit_law_equals_the_expansion_reference_on_random_draws():
    # 300 draws in limit mode and 100 forced into it: the same names, order
    # and values as the law read off the expansion's ideal copies and left
    # ideals
    modes = {True: 0, False: 0}
    for S, xs, direct in _draws(37):
        if modes[False] >= 300 and modes[True] >= 100:
            break
        got = stationary_kr(S, xs, force_limit=True).entries
        assert list(got.items()) == list(kr_limit_law(S, xs).entries.items())
        modes[direct] += 1


def _assert_left_ideals_are_preimages(S) -> None:
    """The expansion's minimal left ideals are the preimages of S's under
    ``s_image``, and the letters act on them as on S's."""
    kr, K = karnofsky_rhodes(S), sorted(minimal_ideal(S))
    lefts, action = _left_ideals(S, K)
    class_of = {K[i]: c for c, L in enumerate(lefts) for i in L}
    kr_lefts, kr_action = kr.left_ideals
    # each expansion class to the S class of its first vertex's image
    ren = [class_of[kr.s_image[kr.ideal[L[0]]]] for L in kr_lefts]
    assert sorted(ren) == list(range(len(lefts)))
    for c, L in enumerate(kr_lefts):
        assert {kr.ideal[i] for i in L} == {u for u in kr.ideal
                                             if class_of[kr.s_image[u]] == ren[c]}
    assert [[ren[d] for d in row] for row in kr_action] == [action[c] for c in ren]


@pytest.mark.parametrize("name", CAP_FAMILIES)
def test_expansion_left_ideals_are_preimages_of_the_semigroup_s(name):
    _assert_left_ideals_are_preimages(families.build(families.parse_family(name)))


def test_expansion_left_ideals_are_preimages_on_random_draws():
    for _, (S, _, _) in zip(range(300), _draws(370)):
        _assert_left_ideals_are_preimages(S)
