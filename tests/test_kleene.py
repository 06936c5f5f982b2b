from fractions import Fraction

import pytest

from semiwalk.kleene import (
    DivergentStar,
    EPSILON,
    Letter,
    Star,
    concat,
    evaluate_expr,
    pretty,
    series,
    star,
    union,
    zimin_rewrite,
)

from reference import enumerate_words

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
