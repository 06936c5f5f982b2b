"""The one search of a semigroup's right action against the searches it
replaced.

The references below are the earlier, separate implementations: a
breadth-first search for representative words, one for each Cayley graph,
a level-by-level enumeration of words for the simulator's start word, and
the minimal ideal as the one sink of two-sided reachability.  Every
derived object must come out the same from the shared search.
"""

import random

import pytest

from semiwalk import families
from semiwalk.core import (
    GeneratorsDoNotGenerate,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.graphs import ROOT_LABEL, closed_classes, right_cayley
from semiwalk.simulate import _lex_first_code_word

from reference import adjoin_zero, opposite

# -- references ------------------------------------------------------------------


def reference_rep_words(S):
    rep = [None] * S.size
    queue = []
    for g, e in enumerate(S.gens):
        if rep[e] is None:
            rep[e] = (g,)
            queue.append(e)
    head = 0
    while head < len(queue):
        e = queue[head]
        head += 1
        for g, ge in enumerate(S.gens):
            f = S.mult(e, ge)
            if rep[f] is None:
                rep[f] = rep[e] + (g,)
                queue.append(f)
    if any(r is None for r in rep):
        raise GeneratorsDoNotGenerate("generators do not generate")
    return rep


def reference_cayley(S, right):
    """(out, labels, s_image, element_vertex) of the old breadth-first search."""
    k = S.n_gens
    vertex_of = {}
    labels = [ROOT_LABEL]
    out = [[None] * k]
    order = [None]

    def vertex(e):
        if e not in vertex_of:
            vertex_of[e] = len(labels)
            labels.append(S.element_name(e))
            out.append([None] * k)
            order.append(e)
        return vertex_of[e]

    head = 0
    while head < len(labels):
        v, e = head, order[head]
        head += 1
        for a, ge in enumerate(S.gens):
            if e is None:
                f = ge
            elif right:
                f = S.mult(e, ge)
            else:
                f = S.mult(ge, e)
            out[v][a] = vertex(f)
    return out, labels, order, vertex_of


def reference_minimal_ideal(S):
    succ = []
    for e in range(S.size):
        row = set()
        for ge in S.gens:
            row.add(S.mult(e, ge))
            row.add(S.mult(ge, e))
        succ.append(sorted(row))
    sinks = closed_classes(succ)
    assert len(sinks) == 1, "a finite semigroup has exactly one minimal ideal"
    return frozenset(sinks[0])


def reference_start_word(S, members):
    frontier = []
    for a, e in enumerate(S.gens):
        if e in members:
            return (a,)
        frontier.append(((a,), e))
    while frontier:
        nxt = []
        for word, e in frontier:
            for a, ge in enumerate(S.gens):
                f = S.mult(e, ge)
                if f in members:
                    return word + (a,)
                nxt.append((word + (a,), f))
        frontier = nxt
    raise AssertionError("ideal unreachable")


def reference_kernel_is_left_zero(S, members):
    return all(S.mult(x, ge) == x for x in members for ge in S.gens)


# -- the semigroups compared ---------------------------------------------------------

FAMILIES = ["tsetlin:3", "tsetlin:4", "signed_tsetlin:2", "edge_flip_line:3",
            "rees_B:3", "rees_zp:3,2", "rees_general", "klein", "flipflop",
            "z2x01", "burnside_straightline:3", "flat_tower:2,1"]
WITH_ZERO = ["tsetlin:3", "rees_general", "klein", "z2x01"]
# The twelfth draw is the full transformation monoid on three states.
DRAWS = [
    {name: [rng.randrange(3) for _ in range(3)] for name in "abc"}
    for rng in map(random.Random, range(11))
] + [{"a": [1, 2, 1], "b": [2, 0, 1], "c": [0, 2, 1]}]


def _build(case, request=None):
    kind, value = case
    if kind == "family":
        return families.build(families.parse_family(value))
    if kind == "zero":
        return adjoin_zero(families.build(families.parse_family(value)))
    if kind == "kr":
        return karnofsky_rhodes(families.tsetlin(3)).semigroup()
    if kind == "counterexample":
        return request.getfixturevalue("counterexample")
    return semigroup_from_transformations(3, DRAWS[value])


CASES = (
    [("family", f) for f in FAMILIES]
    + [("zero", f) for f in WITH_ZERO]
    + [("kr", None), ("counterexample", None)]
    + [("draw", i) for i in range(len(DRAWS))]
)


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def semigroup(request):
    return _build(request.param, request)


def test_draws_include_the_full_transformation_monoid():
    assert _build(("draw", len(DRAWS) - 1)).size == 27


def test_rep_words_equal_the_reference(semigroup):
    assert semigroup.rep_words() == reference_rep_words(semigroup)


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
def test_cayley_graphs_equal_the_reference(semigroup, right):
    # the left Cayley graph is the right Cayley graph of the opposite semigroup
    g = right_cayley(semigroup if right else opposite(semigroup))
    out, labels, s_image, _ = reference_cayley(semigroup, right)
    assert g.out == out
    assert g.labels == labels
    assert g.s_image == s_image


def test_minimal_ideal_equals_the_two_sided_reference(semigroup):
    members = reference_minimal_ideal(semigroup)
    assert minimal_ideal(semigroup).members == members
    assert kernel_is_left_zero(semigroup, minimal_ideal(semigroup)) == \
        reference_kernel_is_left_zero(semigroup, members)


def test_start_word_equals_the_word_enumeration(semigroup):
    I = minimal_ideal(semigroup)
    assert _lex_first_code_word(semigroup, I) == reference_start_word(
        semigroup, I.members)


def _counted(S):
    calls = [0]
    mult = S.mult

    def counting(i, j):
        calls[0] += 1
        return mult(i, j)

    S.mult = counting
    return calls


@pytest.mark.parametrize("states, size, length", [(5, 610, 16), (6, 2742, 25)])
def test_start_word_makes_one_search_of_products(states, size, length):
    # a rotates the states, b sends the last state to the first
    S = semigroup_from_transformations(states, {
        "a": [(i + 1) % states for i in range(states)],
        "b": [0] + list(range(1, states - 1)) + [0],
    })
    calls = _counted(S)
    I = minimal_ideal(S)
    word = _lex_first_code_word(S, I)
    assert S.size == size and len(word) == length
    assert calls[0] <= S.size * S.n_gens
    assert S.product(word) in I
    assert all(S.product(word[:j]) not in I for j in range(1, length))


def test_kernel_is_left_zero_reads_every_generator():
    # the identity comes first; only the swap moves the two constant maps
    S = semigroup_from_transformations(2, {"e": [0, 1], "s": [1, 0], "c": [0, 0]})
    K = minimal_ideal(S)
    assert len(K) == 2 and not kernel_is_left_zero(S, K)
