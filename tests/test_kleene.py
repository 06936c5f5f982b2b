from fractions import Fraction

import pytest

from semiwalk import kleene
from semiwalk.kleene import (
    DivergentStar,
    EPSILON,
    Concat,
    Letter,
    Star,
    Union,
    concat,
    evaluate_expr,
    node_count,
    pretty,
    series,
    star,
    union,
    zimin_rewrite,
)

from reference import enumerate_words, tree_pretty, tree_zimin_rewrite

A, B, C = Letter(0), Letter(1), Letter(2)
HALF = [Fraction(1, 2), Fraction(1, 2)]


def test_zimin_two_letters():
    e = zimin_rewrite(star(union(A, B)))
    assert e == concat(star(A), star(concat(B, star(A))))
    assert pretty(e, "ab") == "a⋆(ba⋆)⋆"


def test_zimin_three_letters():
    e = zimin_rewrite(star(union(A, B, C)))
    assert pretty(e, "abc") == "a⋆(ba⋆)⋆(ca⋆(ba⋆)⋆)⋆"


def test_zimin_fixes_plain_star():
    e = star(A)
    assert zimin_rewrite(e) == e


def test_zimin_preserves_language_multisets():
    exprs = [
        star(union(A, B)),
        star(union(concat(A, A), concat(A, B), concat(B, A), concat(B, B))),
        concat(A, star(union(B, concat(A, B))), A),
    ]
    for e in exprs:
        z = zimin_rewrite(e)
        assert enumerate_words(e, 10) == enumerate_words(z, 10)
        assert series(e, HALF, 10) == series(z, HALF, 10)


def test_evaluate_geometric():
    assert evaluate_expr(star(A), HALF) == 2
    # one-step loops over both letters resum to 1/(1 - x_a - x_b)
    x = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    assert evaluate_expr(star(union(A, B)), x) == 3
    assert evaluate_expr(zimin_rewrite(star(union(A, B))), x) == 3


def test_evaluate_concat_and_epsilon():
    e = concat(A, star(concat(B, A)), A)
    assert evaluate_expr(e, HALF) == Fraction(1, 3)
    assert evaluate_expr(EPSILON, HALF) == 1


def test_partial_sums_bound_value():
    e = concat(A, star(concat(B, A)), A)
    s = series(e, HALF, 20)
    partial = sum(s)
    value = evaluate_expr(e, HALF)
    assert partial < value
    assert value - partial < Fraction(1, 2) ** 18


def test_divergent_star():
    with pytest.raises(DivergentStar):
        evaluate_expr(star(union(A, B)), HALF)  # weight 1 under the star


def test_ambiguous_expression_flagged_by_series():
    # a*a* parses each word of length n in n+1 ways
    e = concat(star(A), star(A))
    x = [Fraction(1, 2)]
    with_mult = series(e, x, 8)
    assert with_mult[3] == 4 * Fraction(1, 8)
    words = enumerate_words(e, 8)
    assert words[(0, 0, 0)] == 4
    # evaluation sums with multiplicity: 4 rather than the language sum 2
    assert evaluate_expr(e, x) == 4
    assert sum(x[0] ** len(w) for w in words) < 4


def test_pretty_forms():
    assert pretty(concat(A, star(concat(B, A)), A), "ab") == "a(ba)⋆a"
    assert pretty(star(union(A, B)), "ab") == "{a,b}⋆"
    assert pretty(concat(A, B), ["x1", "x2"]) == "x1·x2"


def test_enumerate_star_counts():
    e = star(concat(A, B))
    words = enumerate_words(e, 6)
    assert words == {(): 1, (0, 1): 1, (0, 1, 0, 1): 1, (0, 1, 0, 1, 0, 1): 1}


def test_smart_constructors():
    assert concat() is EPSILON
    assert concat(A) == A
    assert concat(A, EPSILON, B) == concat(A, B)
    assert union(A) == A
    assert star(EPSILON) is EPSILON
    assert star(star(A)) == star(A)
    assert isinstance(concat(concat(A, B), C).parts, tuple)
    assert len(concat(concat(A, B), C).parts) == 3


def _inner_nodes(e) -> set[int]:
    """The ids of the distinct concatenation, union and star nodes of e."""
    seen: dict[int, object] = {}
    todo = [e]
    while todo:
        node = todo.pop()
        if type(node) in (Concat, Union, Star) and id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.parts if type(node) is not Star else [node.child])
    return set(seen)


def test_rewrite_and_printer_visit_each_distinct_node_once(monkeypatch):
    # a doubling DAG: each level holds the one below twice, under a star of
    # a union for the rewrite to expand, so the tree is far larger than the
    # DAG, and the rewrite's more so
    e = star(union(A, B))
    for _ in range(6):
        e = star(union(concat(e, B), concat(A, e)))
    built = {}
    for name in ("_rewrite", "_render"):
        walk = getattr(kleene, name)

        def spy(node, *args, walk=walk, name=name):
            if id(node) not in args[-1]:  # not in the memo yet
                built.setdefault(name, []).append(id(node))
            return walk(node, *args)
        monkeypatch.setattr(kleene, name, spy)
    r = zimin_rewrite(e)
    text = pretty(r, "ab")
    inner, inner_r = _inner_nodes(e), _inner_nodes(r)
    assert sorted(i for i in built["_rewrite"] if i in inner) == sorted(inner)
    assert sorted(i for i in built["_render"] if i in inner_r) == sorted(inner_r)
    assert (node_count(e), len(inner), node_count(r), len(inner_r)) == (634, 26, 8380, 28)
    assert r == tree_zimin_rewrite(e) and text == tree_pretty(r, "ab")
