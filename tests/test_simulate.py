import hashlib
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, product

import pytest

from semiwalk.chains import tv_distance
from semiwalk.core import SemigroupError, minimal_ideal, semigroup_from_table
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.simulate import (
    _BLOCK,
    _GOLDEN,
    _SENTINEL,
    SplitMix64,
    _letter_table,
    _letters,
    _thresholds,
    _WalkTables,
    mix64,
    simulate_semaphore,
    simulate_state_at,
    walker_seed,
)
from semiwalk.stationary import stationary_kr, uniform_probs
from semiwalk import families
from semiwalk.families import build, parse_family

F = Fraction
HALF = [F(1, 2), F(1, 2)]


def test_splitmix_reference_values():
    # the generator seeded with 0 must produce this fixed stream forever
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert mix64(0) == 0
    assert walker_seed(42, 0) == walker_seed(42, 0)
    assert walker_seed(42, 0) != walker_seed(42, 1)
    assert walker_seed(42, 0) != walker_seed(43, 0)


def _split_buckets(state):
    """Thresholds that a top-byte bucket holds: two inside the bucket of the
    stream's first output, one equal to that output, one on a bucket edge."""
    r = SplitMix64(state).next53()
    lo = r >> 45 << 45
    return sorted({lo + (1 << 43), r, r + 1, lo + (3 << 43), (r >> 45) + 7 << 45, 1 << 53})


@pytest.mark.parametrize("state", [0, 2**64 - 1, 2**64 - _GOLDEN + 5],
                         ids=["zero", "top", "wraps"])
@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_block_stream_equals_the_generator(state, count):
    # "wraps": state + GOLDEN passes 2^64 by 5, so lane 0 holds a wrapped sum;
    # the letters of each block equal a bisect of each output's top 53 bits,
    # for one letter, thirds (split buckets), skewed sixths, thresholds
    # inside one bucket, and more letters than a byte holds
    for thresholds in (_thresholds([F(1)]), _thresholds([F(1, 3)] * 3),
                       _thresholds([F(i + 1, 21) for i in range(6)]),
                       _split_buckets(state),
                       _thresholds([F(i + 1, 45150) for i in range(300)])):
        rng = SplitMix64(state)
        expected = [bisect_right(thresholds, rng.next53()) for _ in range(count)]
        letters = _letters(state, count, thresholds, _letter_table(thresholds))
        assert list(letters) == expected


def test_letter_table_marks_split_buckets():
    thresholds = _split_buckets(0)
    table = _letter_table(thresholds)
    for b in range(256):
        lo, hi = bisect_right(thresholds, b << 45), bisect_right(thresholds, (b + 1 << 45) - 1)
        assert table[b] == (lo if lo == hi else _SENTINEL)
    assert table.count(_SENTINEL) == 1
    assert set(_letter_table(_thresholds([F(1, 300)] * 300))) == {_SENTINEL}


def test_simulation_bit_identical(b2):
    d1 = simulate_semaphore(b2, HALF, walkers=4, steps=500, seed=7)
    d2 = simulate_semaphore(b2, HALF, walkers=4, steps=500, seed=7)
    assert d1.counts == d2.counts
    d3 = simulate_semaphore(b2, HALF, walkers=4, steps=500, seed=8)
    assert d1.counts != d3.counts


def test_single_generator_walk_deterministic():
    S = semigroup_from_table([[0]], gens=[0], gen_names=["a"])
    d = simulate_semaphore(S, [F(1)], walkers=2, steps=50, seed=1)
    assert d.counts == {"a": 100}


def test_b2_empirical_close(b2):
    exact = {k: float(v) for k, v in stationary_kr(b2, HALF).entries.items()}
    emp = simulate_semaphore(b2, HALF, walkers=10, steps=5000, seed=42)
    assert tv_distance(emp, exact) < 0.02


def test_tsetlin_uniform_empirical(p3):
    xs = uniform_probs(p3)
    emp = simulate_semaphore(p3, xs, walkers=6, steps=4000, seed=3)
    assert set(emp.counts) == {
        "123", "132", "213", "231", "312", "321"
    }
    for c in emp.counts.values():
        assert abs(c / emp.total - 1 / 6) < 0.02


def test_law_of_large_numbers_decades(b2):
    exact = {k: float(v) for k, v in stationary_kr(b2, HALF).entries.items()}
    tvs = []
    for steps in (100, 1000, 10000):
        emp = simulate_semaphore(b2, HALF, walkers=10, steps=steps, seed=11)
        tvs.append(tv_distance(emp, exact))
    assert tvs[2] < tvs[0]
    assert tvs[1] <= 2 * tvs[0] and tvs[2] <= 2 * tvs[1]


def test_lump_to_semigroup_level(p3):
    xs = uniform_probs(p3)
    emp = simulate_semaphore(p3, xs, walkers=2, steps=100, seed=5)
    info = stationary_kr(p3, xs).key_info
    assert {p3.element_name(info[k].element) for k in emp.counts} == {"123"}


def test_non_left_zero_kernel_is_rejected():
    S = families.rees_general()
    for simulate in (simulate_semaphore, simulate_state_at):
        with pytest.raises(SemigroupError, match="not left zero") as err:
            simulate(S, HALF, walkers=1, steps=10, seed=0)
        assert "zero_weight" not in str(err.value)


def test_state_at_fixed_step(b2):
    exact = {k: float(v) for k, v in stationary_kr(b2, HALF).entries.items()}
    d0 = simulate_state_at(b2, HALF, walkers=800, steps=1, seed=13)
    dk = simulate_state_at(b2, HALF, walkers=800, steps=24, seed=13)
    assert tv_distance(dk, exact) < tv_distance(d0, exact)
    assert dk.total == 800


def reference_walk(S, xs, walkers, steps, seed, final_only=False):
    """The word walk written plainly: SplitMix64 objects, ideal entry by
    ``S.product`` of each prefix, lumping by following the expansion graph."""
    ideal = minimal_ideal(S)
    thresholds = [int(c * 2**53) for c in accumulate(xs)]
    thresholds[-1] = 2**53

    def draw(rng):
        r = rng.next53()
        return next(i for i, t in enumerate(thresholds) if r < t)

    def enter(word):
        for j in range(1, len(word) + 1):
            if S.product(word[:j]) in ideal:
                return word[:j]
        raise AssertionError("word does not reach the ideal")

    kr = karnofsky_rhodes(S)

    def lump(word):
        return S.word_label(kr.words[kr.graph.follow(kr.graph.root, word)])

    start = None
    if final_only:  # lexicographically first shortest ideal-entering word
        for n in range(1, S.size + 2):
            start = next((w for w in product(range(S.n_gens), repeat=n)
                          if S.product(w) in ideal), None)
            if start is not None:
                break
    counts = {}
    for w in range(walkers):
        rng = SplitMix64(walker_seed(seed, w))
        word = start
        if word is None:
            word = ()
            while not word or S.product(word) not in ideal:
                word += (draw(rng),)
        for _ in range(steps):
            word = enter((draw(rng),) + word)
            if not final_only:
                counts[lump(word)] = counts.get(lump(word), 0) + 1
        if final_only:
            counts[lump(word)] = counts.get(lump(word), 0) + 1
    return counts


@pytest.mark.parametrize("family", ["b2", "tsetlin:4", "rees_zp:3,3", "flat_tower:2,2"])
def test_walk_counts_equal_reference(family, b2):
    S = b2 if family == "b2" else build(parse_family(family))
    k = S.n_gens  # unequal weights 1 : 2 : ... : k
    xs = [F(2 * (i + 1), k * (k + 1)) for i in range(k)]
    d = simulate_semaphore(S, xs, walkers=3, steps=1500, seed=17)
    assert d.counts == reference_walk(S, xs, 3, 1500, 17)
    assert d.total == 4500
    d = simulate_state_at(S, xs, walkers=200, steps=6, seed=5)
    assert d.counts == reference_walk(S, xs, 200, 6, 5, final_only=True)


@pytest.mark.parametrize("family", ["b2", "rees_zp:3,3"])
def test_walk_counts_equal_reference_across_blocks(family, b2):
    # 2,500 steps take two whole blocks of the stream and part of a third;
    # 1,025 final steps end one letter into the second block
    S = b2 if family == "b2" else build(parse_family(family))
    xs = uniform_probs(S)
    d = simulate_semaphore(S, xs, walkers=2, steps=2500, seed=23)
    assert d.counts == reference_walk(S, xs, 2, 2500, 23)
    for steps in (0, 1025):
        d = simulate_state_at(S, xs, walkers=3, steps=steps, seed=23)
        assert d.counts == reference_walk(S, xs, 3, steps, 23, final_only=True)


def test_state_at_zero_steps_is_the_start_word(b2):
    d = simulate_state_at(b2, HALF, walkers=5, steps=0, seed=1)
    assert d.counts == reference_walk(b2, HALF, 5, 0, 1, final_only=True)
    assert d.total == 5 and len(d.counts) == 1


@pytest.mark.parametrize("walkers,steps", [(0, 10), (-1, 10), (2, 0), (2, -5)])
def test_simulate_semaphore_rejects_empty_runs(b2, walkers, steps):
    with pytest.raises(SemigroupError):
        simulate_semaphore(b2, HALF, walkers=walkers, steps=steps, seed=0)


@pytest.mark.parametrize("walkers,steps", [(0, 10), (-1, 0), (2, -1)])
def test_simulate_state_at_rejects_empty_runs(b2, walkers, steps):
    with pytest.raises(SemigroupError):
        simulate_state_at(b2, HALF, walkers=walkers, steps=steps, seed=0)


def test_word_outside_the_ideal_raises():
    # on four books a word needs all four letters to enter the ideal, so
    # the one-letter word (0,) is no start word, nor is (0, 1, 2)
    S = families.tsetlin(4)
    walk = _WalkTables(S, _thresholds(uniform_probs(S)))
    for word in ((0,), (0, 1, 2)):
        with pytest.raises(AssertionError):
            walk.history(word, 0, 1)
    assert list(walk.history((0, 1, 2, 3), 0, 0)) == [0, 1, 2, 3]


def _digest(d):
    return hashlib.sha256(repr(sorted(d.counts.items())).encode()).hexdigest()


# SHA-256 of the sorted counts of simulate_semaphore (3 walkers x 2,600 steps,
# seed 101) and simulate_state_at (120 walkers x 1,030 steps, seed 102), at
# uniform weights and at weights i / (1 + ... + k), recorded with the word
# walk that carried each walker's word as a tuple
DIGESTS = {
    ("rees_zp:4,5", "uniform"): (
        "2d78de81a14ac7230445db42e5bf9938eb0c062ed2cc59b6228980d31d29e661",
        "3a0e1a78f4f756be2b7a0346f266d122779f8835b1df68f0f4bf750022c40882"),
    ("rees_zp:4,5", "skewed"): (
        "4a2e3746ca9e451332a9cb9ba4ee2e7819f46354d204ec9bd6228b4a90923449",
        "2d607871187db262f70154e5995686049336398e70e4ff9331314f8d1ef21a80"),
    ("flat_tower:3,2", "uniform"): (
        "9f5861f40ee7667d936a2de8d3edcc390665de5fab83583daf6c7f07797e719f",
        "d5f954084cd4151abc27b289aec79e7433a7a0f9bf086cfd912e9c7310000ff5"),
    ("flat_tower:3,2", "skewed"): (
        "eb22068ab6231ecbb4071d19b0ecd21586dd484e883cef023c6f7816a6e3530b",
        "c08564fc7fb890abd10dc5c79b11e81ef3aff91219835f86c70588b3f9e76719"),
    ("bar_tower:2,1", "uniform"): (
        "f9fcfacfd7f08014b985bde1aea56f96ab3dd782b58dd2ec9ceafd4fb0e759be",
        "8cbd0d9e6b1b01aebbe1cdd4e828085d06a5750935980d285e0297e1262fd035"),
    ("bar_tower:2,1", "skewed"): (
        "497e4ddc571a331072cec404d334bb646dd912d2cd20cd0e01b9c86d0780df24",
        "45bd6a55993f19e8b0e60880143be8c442bd0947ad3b6e8f66c2d89ff61e92ec"),
    ("signed_tsetlin:3", "uniform"): (
        "535ff5bed481b48c57d26e89482d2bf177692706228247af8e05092f494825da",
        "3a11c1027b7b1459cfdf7c1ac71e392f7c81b1247e1ac3b953ec979b32ba1fcf"),
    ("signed_tsetlin:3", "skewed"): (
        "2a27179fdc6b9aae4ba67178aa93f3853afe7971e6b7f77ede2130e537bf6ce5",
        "14eb8a97f9fe130d7fa05d4e8390c0fb47c2245f593bb0e6a8ec038eaebcc2fd"),
    ("rees_B:3", "uniform"): (
        "281f08d510a15e468516729f17bff500f7a853818199051282506420b99b054d",
        "4d51779e80e82972856a946d1f81d4130df0fdae4ea56f01533cb6fdb5b91c24"),
    ("rees_B:3", "skewed"): (
        "0f8f84e6fd2256b213da95cdfdff83176c5166a0a7b69eefed3dfe23ee9d975a",
        "08eee0dd90e490d98976b02cdfa894df389fa5b47f32aae3c11fb75f579762c3"),
}


@pytest.mark.parametrize("family,weights", sorted(DIGESTS))
def test_counts_match_the_recorded_digests(family, weights):
    S = build(parse_family(family))
    k = S.n_gens
    xs = uniform_probs(S) if weights == "uniform" else [F(i + 1, k * (k + 1) // 2) for i in range(k)]
    occupation = simulate_semaphore(S, xs, walkers=3, steps=2600, seed=101)
    final = simulate_state_at(S, xs, walkers=120, steps=1030, seed=102)
    assert (_digest(occupation), _digest(final)) == DIGESTS[family, weights]
    assert (occupation.total, final.total) == (7800, 120)


def _wide_band(identity):
    """300 letters over a left-zero band of four elements; with ``identity``
    half of the letters are an adjoined identity, so words run longer than
    one letter and the expansion has 22,801 vertices."""
    n = 5
    table = [[j if i == 0 else i for j in range(n)] if identity else [i] * n
             for i in range(n)]
    gens = [0] * 150 + [1 + i % 4 for i in range(150)] if identity else [i % n for i in range(300)]
    return semigroup_from_table(table, gens)


@pytest.mark.parametrize("identity", [False, True], ids=["band", "band_with_identity"])
def test_alphabet_wider_than_a_byte(identity):
    S = _wide_band(identity)
    xs = [F(i + 1, 45150) for i in range(300)]
    d = simulate_semaphore(S, xs, walkers=2, steps=2100, seed=19)
    assert d.counts == reference_walk(S, xs, 2, 2100, 19)
    d = simulate_state_at(S, xs, walkers=12, steps=1025, seed=19)
    assert d.counts == reference_walk(S, xs, 12, 1025, 19, final_only=True)
