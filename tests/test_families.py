from fractions import Fraction
from itertools import product as iproduct

import pytest

from semiwalk.core import SemigroupError, bar, flat, semigroup_from_table
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.stationary import (
    normalization_check,
    stationary_kr,
    uniform_probs,
)
from semiwalk.families import (
    FamilySpec,
    build,
    closed_form,
    edge_flip_action,
    edge_flip_closed_form,
    edge_flip_letter_probs,
    gen_of_signed_letter,
    parse_family,
)

from reference import DESK_CAPS, SplitMix64, is_mc_stable, is_stable1, lump_by_classifier

F = Fraction


def _prob_vectors(k: int):
    """Uniform, a fixed skewed vector, and a seeded pseudo-random one."""
    uniform = [F(1, k)] * k
    weights = [F(2 ** (k - i)) for i in range(k)]
    skewed = [w / sum(weights) for w in weights]
    rng = SplitMix64(20240817)
    raw = [F(rng.next64() % 97 + 1) for _ in range(k)]
    random_exact = [v / sum(raw) for v in raw]
    return [uniform, skewed, random_exact]


def test_parse_family():
    spec = parse_family("tsetlin:3")
    assert spec.name == "tsetlin" and spec.params == {"n": 3}
    spec = parse_family("rees_zp:2,3")
    assert spec.params == {"n": 2, "p": 3}
    with pytest.raises(SemigroupError):
        parse_family("nonsense:1")
    with pytest.raises(SemigroupError):
        parse_family("tsetlin:1,2")
    # a family without parameters takes none
    with pytest.raises(SemigroupError, match="too many parameters for family 'klein'"):
        parse_family("klein:1")


def test_desk_caps_enforced():
    with pytest.raises(SemigroupError):
        build(FamilySpec("tsetlin", {"n": 50}))
    with pytest.raises(SemigroupError):
        build(FamilySpec("burnside_straightline", {"n": 0}))


def test_builder_sizes():
    assert build(FamilySpec("tsetlin", {"n": 3})).size == 7
    assert build(FamilySpec("rees_B", {"n": 2})).size == 5
    assert build(FamilySpec("rees_zp", {"n": 2, "p": 2})).size == 9
    assert build(FamilySpec("signed_tsetlin", {"n": 2})).size == 8
    assert build(FamilySpec("klein", {})).size == 4
    assert build(FamilySpec("burnside_straightline", {"n": 2})).size == 11
    assert build(FamilySpec("z2x01", {})).size == 4


def test_burnside_kr_shape():
    # two strings of length 2n ending in 2-cycles; every exit letter sinks
    n = 2
    S = build(FamilySpec("burnside_straightline", {"n": n}))
    kr = karnofsky_rhodes(S)
    assert is_mc_stable(S)
    assert is_stable1(karnofsky_rhodes(S).semigroup())
    g = kr.graph
    # the a-string: (ab)^n then the 2-cycle back and forth
    tip = g.follow(0, (0, 1) * n)
    assert g.follow(tip, (0, 1)) == tip
    assert g.follow(tip, (0,)) != tip
    # deepest vertices are string plus one exit letter
    assert max(len(w) for w in kr.words) == 2 * n + 2


def test_closed_forms_match_pipeline():
    specs = [
        FamilySpec("tsetlin", {"n": 3}),
        FamilySpec("tsetlin", {"n": 4}),
        FamilySpec("signed_tsetlin", {"n": 2}),
        FamilySpec("rees_B", {"n": 2}),
        FamilySpec("rees_B", {"n": 3}),
        FamilySpec("rees_zp", {"n": 2, "p": 2}),
        FamilySpec("rees_zp", {"n": 2, "p": 3}),
        FamilySpec("rees_zp", {"n": 3, "p": 2}),
        FamilySpec("z2x01", {}),
        FamilySpec("rees_general", {}),
        FamilySpec("burnside_straightline", {"n": 2}),
        FamilySpec("burnside_straightline", {"n": 3}),
    ]
    for spec in specs:
        S = build(spec)
        for xs in _prob_vectors(S.n_gens):
            got = stationary_kr(S, xs)
            want = closed_form(spec, xs)
            assert dict(got.entries) == want, spec
            assert normalization_check(got)


def test_stability_matrix():
    p2 = build(FamilySpec("tsetlin", {"n": 2}))
    p3 = build(FamilySpec("tsetlin", {"n": 3}))
    b2 = build(FamilySpec("rees_B", {"n": 2}))
    b3 = build(FamilySpec("rees_B", {"n": 3}))
    ff = build(FamilySpec("flipflop", {}))
    z = build(FamilySpec("z2x01", {}))
    assert is_mc_stable(p2) and is_mc_stable(p3)
    assert is_stable1(karnofsky_rhodes(p3).semigroup())
    assert is_mc_stable(b2) and is_mc_stable(b3)
    assert not is_mc_stable(z)
    assert is_mc_stable(ff) and not is_stable1(ff)
    # marked copies preserve stability in the two stated directions
    stable1_input = karnofsky_rhodes(p2).semigroup()
    assert is_stable1(stable1_input)
    assert is_mc_stable(bar(stable1_input))
    assert is_mc_stable(flat(p2))
    assert is_mc_stable(flat(b2))


def test_towers_stability_and_normalization():
    for depth in (0, 1, 2):
        S = build(FamilySpec("bar_tower", {"n": 2, "depth": depth}))
        assert is_stable1(S)
        r = stationary_kr(S, uniform_probs(S))
        assert normalization_check(r)
    for depth in (1, 2):
        S = build(FamilySpec("flat_tower", {"n": 2, "depth": depth}))
        assert is_mc_stable(S)
        r = stationary_kr(S, uniform_probs(S))
        assert normalization_check(r)


def test_edge_flip_action_examples():
    assert edge_flip_action((1, -2), (0, 0, 0)) == (0, 0, 1)
    assert edge_flip_action((-2, 1), (0, 0, 0)) == (0, 1, 1)
    assert edge_flip_action((1, 2), (1, 1, 1)) == (0, 0, 0)
    # result independent of the start state once every index appears
    for state in iproduct((0, 1), repeat=3):
        assert edge_flip_action((1, -2), state) == (0, 0, 1)


def test_edge_flip_closed_form_n2():
    x = [F(2, 5), F(3, 5)]
    psi = edge_flip_closed_form(2, x)
    assert psi["000"] == F(1, 4) and psi["111"] == F(1, 4)
    assert psi["001"] == x[0] / 4 and psi["110"] == x[0] / 4
    assert psi["010"] == 0 and psi["101"] == 0
    assert psi["011"] == x[1] / 4 and psi["100"] == x[1] / 4
    assert sum(psi.values()) == 1


def test_edge_flip_closed_form_n3():
    x = [F(1, 2), F(1, 3), F(1, 6)]
    psi = edge_flip_closed_form(3, x)
    assert psi["0010"] == x[0] * x[1] / (8 * (x[1] + x[2]))
    assert psi["0101"] == 0 and psi["1010"] == 0
    assert sum(psi.values()) == 1


def test_edge_flip_lumping_matches_closed_form():
    n = 2
    x = [F(2, 5), F(3, 5)]
    S = build(FamilySpec("edge_flip_line", {"n": n}))
    ys = edge_flip_letter_probs(n, x)
    r = stationary_kr(S, ys)

    def classify(info):
        pi = [int(S.gen_names[g]) for g in info.word]  # signed letters
        return "".join(map(str, edge_flip_action(pi, (0,) * (n + 1))))

    lumped = lump_by_classifier(S, r, classify)
    want = {k: v for k, v in edge_flip_closed_form(n, x).items() if v != 0}
    assert dict(lumped.entries) == want


def test_signed_letter_maps_roundtrip():
    # the signed families name each generator by its signed letter
    S = build(FamilySpec("signed_tsetlin", {"n": 4}))
    for g, name in enumerate(S.gen_names):
        assert gen_of_signed_letter(int(name)) == g


def test_burnside_normalization_up_to_5():
    for n in range(1, 6):
        spec = FamilySpec("burnside_straightline", {"n": n})
        xs = [F(2, 5), F(3, 5)]
        assert sum(closed_form(spec, xs).values()) == 1


def test_all_family_names_buildable():
    for name in DESK_CAPS:
        S = build(FamilySpec(name))
        assert S.size >= 1


def _base_family_specs():
    """Every base family (not a tower) at its defaults and with each
    parameter at either end of its desk-scale range."""
    specs = {}
    for name, caps in DESK_CAPS.items():
        if name.endswith("_tower"):
            continue
        specs[name] = FamilySpec(name)
        for ends in iproduct(*[sorted(set(bounds)) for bounds in caps.values()]):
            if ends:
                specs[name + ":" + ",".join(map(str, ends))] = FamilySpec(
                    name, dict(zip(caps, ends)))
    return specs


BASE_FAMILY_SPECS = _base_family_specs()


@pytest.mark.parametrize("spec", list(BASE_FAMILY_SPECS.values()),
                         ids=list(BASE_FAMILY_SPECS))
def test_base_families_pass_the_table_checks(spec):
    # the families multiply by their relations and skip the checks a user
    # table gets; as a table their product passes them, with the same
    # right action and element names
    S = build(spec)
    table = [[S.mult(i, j) for j in range(S.size)] for i in range(S.size)]
    T = semigroup_from_table(table, S.gens, S.gen_names, S.element_names())
    assert T.right_action() == S.right_action()
    assert T.element_names() == S.element_names()


def test_tower_depth_range_reads_n_or_its_default():
    with pytest.raises(SemigroupError, match=r"depth=3 .* \[0, 2\] for n=2"):
        build(FamilySpec("bar_tower", {"depth": 3}))
    # the range follows n wherever n stands among the parameters
    with pytest.raises(SemigroupError, match=r"depth=2 .* \[0, 1\] for n=3"):
        build(FamilySpec("bar_tower", {"depth": 2, "n": 3}))
    # n is checked before the depth range it selects
    with pytest.raises(SemigroupError, match=r"n=4 outside desk-scale range \[2, 3\]"):
        build(FamilySpec("bar_tower", {"depth": 1, "n": 4}))
