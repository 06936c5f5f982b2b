import pytest

from semiwalk.core import (
    ASemigroup,
    BAR_ONE,
    FLAT_ONE,
    ClosureTooLarge,
    GeneratorsDoNotGenerate,
    NotAssociative,
    SemigroupError,
    _fresh_name,
    _unique_names,
    bar,
    flat,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_table,
    semigroup_from_transformations,
)
from semiwalk import core, families
from semiwalk.expansions import karnofsky_rhodes

from reference import adjoin_zero, is_left_zero, opposite, principal_ideal, rees_quotient


def test_flipflop_table(flipflop):
    assert flipflop.size == 2
    assert flipflop.mult(0, 1) == 0
    assert flipflop.mult(1, 1) == 1


def test_trivial_semigroup():
    S = semigroup_from_table([[0]], gens=[0], gen_names=["e"])
    assert S.size == 1
    assert S.product((0, 0, 0)) == 0


def test_not_associative_rejected():
    # (1*0)*1 = 0*1 = 1 but 1*(0*1) = 1*1 = 0, the first failure with the
    # generator 0 in the middle
    table = [[0, 1], [0, 0]]
    with pytest.raises(NotAssociative,
                       match=r"^\(1\*g\)\*1 != 1\*\(g\*1\) for generator element 0$"):
        semigroup_from_table(table, gens=[0, 1], gen_names=["a", "b"])


def test_generators_must_generate():
    # 0 is idempotent and never produces 1
    table = [[0, 1], [1, 0]]
    with pytest.raises(GeneratorsDoNotGenerate):
        semigroup_from_table(table, gens=[0], gen_names=["a"])


def test_transformations_counterexample_size(counterexample):
    assert counterexample.size == 17
    assert counterexample.gen_names == ["a1", "a2", "a3", "c"]


def test_transformations_identity_map():
    S = semigroup_from_transformations(3, {"e": [0, 1, 2]})
    assert S.size == 1


def test_transformations_union_action_p3():
    subsets = list(range(8))
    maps = {str(i): [x | (1 << (i - 1)) for x in subsets] for i in (1, 2, 3)}
    S = semigroup_from_transformations(8, maps)
    assert S.size == 7


def test_transformations_closure_cap(monkeypatch):
    # up/down saturating maps on 6 states generate dozens of elements
    n = 6
    maps = {
        "u": [min(i + 1, n - 1) for i in range(n)],
        "d": [max(i - 1, 0) for i in range(n)],
    }
    monkeypatch.setattr(core, "CLOSURE_CAP", 5)
    with pytest.raises(ClosureTooLarge, match="transformation closure on 6 "
                       "states exceeded cap 5 elements"):
        semigroup_from_transformations(n, maps)


def test_product_examples(klein, flipflop):
    # two generators of the four-group multiply componentwise
    assert klein.element_name(klein.product((0, 0, 1))) == "(-1,1)"
    assert klein.product((0,)) == klein.gens[0]
    assert flipflop.element_name(flipflop.product((1, 1, 1, 0))) == "0"


def test_product_empty_word_rejected(klein):
    with pytest.raises(SemigroupError):
        klein.product(())


def test_minimal_ideal_examples(p3, b2, z2x01):
    assert {p3.element_name(e) for e in minimal_ideal(p3)} == {"123"}
    assert {b2.element_name(e) for e in minimal_ideal(b2)} == {"□"}
    assert {z2x01.element_name(e) for e in minimal_ideal(z2x01)} == {
        "(z,0)",
        "(1,0)",
    }


def test_minimal_ideal_is_a_frozen_set_stored_on_the_semigroup(z2x01):
    K = minimal_ideal(z2x01)
    assert type(K) is frozenset and minimal_ideal(z2x01) is K


def test_minimal_ideal_contained_in_principal_ideals(p3, b2, z2x01, klein, flipflop):
    for S in (p3, b2, z2x01, klein, flipflop):
        K = minimal_ideal(S)
        for e in range(S.size):
            assert K <= principal_ideal(S, e)


def test_is_left_zero(z2x01, b2):
    assert is_left_zero(b2, minimal_ideal(b2))  # singleton
    K = minimal_ideal(z2x01)
    assert not is_left_zero(z2x01, K)
    # the direct witness: (1,0)*(z,0) = (z,0) != (1,0)
    one0 = z2x01.element_names().index("(1,0)")
    z0 = z2x01.element_names().index("(z,0)")
    assert z2x01.mult(one0, z0) == z0


def test_kernel_left_zero_matches_slow_test(p3, b2, z2x01, klein, flipflop):
    for S in (p3, b2, z2x01, klein, flipflop, families.rees_general()):
        K = minimal_ideal(S)
        assert kernel_is_left_zero(S, K) == is_left_zero(S, K)


def test_rees_general_kernel_not_left_zero():
    S = families.rees_general()
    assert not kernel_is_left_zero(S, minimal_ideal(S))


def test_rees_quotient_of_z2x01(z2x01, z2x01_quotient):
    Sq = z2x01_quotient
    assert Sq.size == 3
    K = minimal_ideal(Sq)
    assert len(K) == 1 and is_left_zero(Sq, K)
    # generator a collapsed onto the zero
    assert Sq.element_name(Sq.gens[0]) == "□"


def test_rees_quotient_by_everything(p3):
    S = rees_quotient(p3, frozenset(range(p3.size)))
    assert S.size == 1


def test_rees_quotient_by_singleton_zero(b2):
    S = rees_quotient(b2, minimal_ideal(b2))
    assert S.size == b2.size  # zero relabelled, table unchanged up to naming
    for i in range(b2.size):
        for j in range(b2.size):
            assert S.element_name(S.mult(i, j)) in (
                b2.element_name(b2.mult(i, j)),
                "□",
            )


def test_adjoin_zero(flipflop):
    S = adjoin_zero(flipflop)
    assert S.size == flipflop.size + 1
    assert S.n_gens == flipflop.n_gens + 1
    z = S.size - 1
    for e in range(S.size):
        assert S.mult(e, z) == z and S.mult(z, e) == z
    K = minimal_ideal(S)
    assert K == {z}


@pytest.mark.parametrize(
    "name", ["rees_general", "z2x01", "klein", "tsetlin:5", "rees_B:6"]
)
def test_adjoin_zero_unchecked_output_is_associative(name):
    # adjoin_zero skips the table checks; they hold on its output anyway
    S = adjoin_zero(families.build(families.parse_family(name)))
    S.check_associative()


def test_bar_basic(flipflop):
    B = bar(flipflop)
    assert B.size == 2 * flipflop.size + 1
    r = B.size - 1
    assert B.mult(r, r) == r  # reset twice = reset
    for e in range(B.size):
        assert B.mult(e, r) == r


def test_flat_kernel_left_zero(p2, flipflop, b2, klein):
    for S in (p2, flipflop, b2, klein):
        F = flat(S)
        K = minimal_ideal(F)
        assert is_left_zero(F, K)
        assert K == set(range(S.size, F.size))


def test_opposite_involution(z2x01, b2):
    for S in (z2x01, b2):
        T = opposite(opposite(S))
        for i in range(S.size):
            for j in range(S.size):
                assert T.mult(i, j) == S.mult(i, j)


def test_flat_is_op_bar_op(p2, flipflop, z2x01):
    for S in (p2, flipflop, z2x01):
        F = flat(S)
        G = opposite(bar(opposite(S)))
        assert F.size == G.size
        for i in range(F.size):
            for j in range(F.size):
                assert F.mult(i, j) == G.mult(i, j)


def test_associativity_exhaustive_on_fixtures(p3, b2, z2x01, klein, counterexample):
    for S in (p3, b2, z2x01, klein, counterexample, bar(b2), flat(z2x01)):
        assert S.size <= 300
        for a in range(S.size):
            for b_ in range(S.size):
                ab = S.mult(a, b_)
                for c in range(S.size):
                    assert S.mult(ab, c) == S.mult(a, S.mult(b_, c))


def test_rep_words_shortest_lex(p3):
    words = p3.right_action()[2]
    full = p3.element_names().index("123")
    assert words[full] == (0, 1, 2)  # "123"
    for e, w in enumerate(words):
        assert p3.product(w) == e


def test_fresh_generator_names_on_repeated_constructions(p2):
    S = flat(flat(p2))
    assert len(set(S.gen_names)) == S.n_gens


@pytest.mark.parametrize("name", ["tsetlin:3", "rees_B:3"])
@pytest.mark.parametrize(
    "construct",
    [bar, flat, opposite, lambda S: rees_quotient(S, minimal_ideal(S))],
    ids=["bar", "flat", "opposite", "rees_quotient"],
)
def test_unchecked_constructions_are_generated_and_associative(name, construct):
    # these constructions skip the table checks; they hold on the output
    S = construct(families.build(families.parse_family(name)))
    S.check_associative()


@pytest.mark.parametrize("name", ["flat_tower:2,2", "flat_tower:3,2", "bar_tower:2,1"])
def test_towers_of_unchecked_constructions_pass_the_checks(name):
    S = families.build(families.parse_family(name))
    S.check_associative()


# -- the constructions as full tables, kept as references -----------------------


def _table_semigroup(table, gens, gen_names, names):
    return ASemigroup(len(table), gens, gen_names, lambda i, j: table[i][j], names)


def reference_bar(S):
    n = S.size
    r = 2 * n
    size = 2 * n + 1
    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = S.mult(i, j)
            table[n + i][j] = n + S.mult(i, j)
        table[r][i] = n + i
    for z in range(size):
        for j in range(n):
            table[z][n + j] = n + j
        table[z][r] = r
    names = S.element_names()
    names = _unique_names(
        names + ["‾" + s for s in names] + [_fresh_name(BAR_ONE, S.gen_names)]
    )
    return _table_semigroup(table, S.gens + [r], S.gen_names + [names[-1]], names)


def reference_flat(S):
    n = S.size
    r = 2 * n
    size = 2 * n + 1
    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = S.mult(i, j)
            table[i][n + j] = n + S.mult(i, j)
        table[i][r] = n + i
    for z in range(size):
        for i in range(n):
            table[n + i][z] = n + i
        table[r][z] = r
    names = S.element_names()
    names = _unique_names(
        names + ["~" + s for s in names] + [_fresh_name(FLAT_ONE, S.gen_names)]
    )
    return _table_semigroup(table, S.gens + [r], S.gen_names + [names[-1]], names)


def _reference_bases():
    p2 = families.tsetlin(2)
    return {
        "tsetlin:3": families.tsetlin(3),
        "rees_B:3": families.rees_cycle(3, 1),
        "z2x01": families.z2x01(),
        "kr(tsetlin:2)": karnofsky_rhodes(p2).semigroup(),
        "bar(kr(flat(tsetlin:2)))": bar(karnofsky_rhodes(flat(p2)).semigroup()),
    }


@pytest.mark.parametrize("base", list(_reference_bases()))
@pytest.mark.parametrize(
    "construct, reference",
    [
        (bar, reference_bar),
        (flat, reference_flat),
    ],
    ids=["bar", "flat"],
)
def test_constructions_match_their_tables(base, construct, reference):
    S = _reference_bases()[base]
    T, R = construct(S), reference(S)
    assert T.size == R.size
    assert T.gens == R.gens
    assert T.gen_names == R.gen_names
    assert T.element_names() == R.element_names()
    for i in range(T.size):
        for j in range(T.size):
            assert T.mult(i, j) == R.mult(i, j), (i, j)


def test_constructions_fill_no_table():
    S = families.tsetlin(3)
    calls = [0]

    def counted(i, j):
        calls[0] += 1
        return S.mult(i, j)

    # no element names: the constructions name elements by generator words
    C = ASemigroup(S.size, S.gens, S.gen_names, counted)
    for construct in (bar, flat):
        calls[0] = 0
        construct(C)
        assert calls[0] < S.size**2, construct.__name__
