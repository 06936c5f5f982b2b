"""Regular-expression trees over generator letters, with exact evaluation.

Expressions built by the stationary engine are unambiguous: every word of
the described language is produced by exactly one parse.  Evaluation then
turns each word into the product of its letter weights and sums the series,
star becoming a geometric sum 1/(1-v).  Feeding a hand-built ambiguous
expression (such as a*a*) to the evaluator sums words with multiplicity,
and so does ``series``, which grades that sum by word length.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import label_sep


class DivergentStar(ArithmeticError):
    """A starred subexpression has weight >= 1, so the series diverges."""


class KleeneExpr:
    """Also a walk weight: ``*`` concatenates, ``+`` unites, one() is ε."""

    __slots__ = ()

    def __mul__(self, other):
        return concat(self, other)

    def __or__(self, other):
        return union(self, other)

    __add__ = __or__

    def one(self):
        return EPSILON


class Epsilon(KleeneExpr):
    __slots__ = ()

    def __repr__(self):
        return "Epsilon()"

    def __eq__(self, other):
        return isinstance(other, Epsilon)

    def __hash__(self):
        return hash("eps")


EPSILON = Epsilon()


class Letter(KleeneExpr):
    __slots__ = ("gen",)

    def __init__(self, gen: int):
        self.gen = gen

    def __repr__(self):
        return f"Letter({self.gen})"

    def __eq__(self, other):
        return isinstance(other, Letter) and other.gen == self.gen

    def __hash__(self):
        return hash(("letter", self.gen))


class Concat(KleeneExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __repr__(self):
        return f"Concat({list(self.parts)})"

    def __eq__(self, other):
        return isinstance(other, Concat) and other.parts == self.parts

    def __hash__(self):
        return hash(("concat", self.parts))


class Union(KleeneExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __repr__(self):
        return f"Union({list(self.parts)})"

    def __eq__(self, other):
        return isinstance(other, Union) and other.parts == self.parts

    def __hash__(self):
        return hash(("union", self.parts))


class Star(KleeneExpr):
    __slots__ = ("child",)

    def __init__(self, child: KleeneExpr):
        self.child = child

    def __repr__(self):
        return f"Star({self.child!r})"

    def __eq__(self, other):
        return isinstance(other, Star) and other.child == self.child

    def __hash__(self):
        return hash(("star", self.child))


def concat(*parts: KleeneExpr) -> KleeneExpr:
    """Concatenation with flattening; epsilon is the identity."""
    flat: list[KleeneExpr] = []
    for p in parts:
        if isinstance(p, Epsilon):
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EPSILON
    if len(flat) == 1:
        return flat[0]
    return Concat(flat)


def union(*parts: KleeneExpr) -> KleeneExpr:
    flat: list[KleeneExpr] = []
    for p in parts:
        if isinstance(p, Union):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Union(flat)


def star(child: KleeneExpr) -> KleeneExpr:
    if isinstance(child, Epsilon):
        return EPSILON
    if isinstance(child, Star):
        return child
    return Star(child)


def zimin_rewrite(e: KleeneExpr) -> KleeneExpr:
    """Rewrite each star-of-union using {a,b}* = a*(ba*)*, recursively.

    The rewriting preserves the language (and preserves unambiguity), and
    removes unions underneath stars, so the result uses only letters,
    concatenation and star there.
    """
    if isinstance(e, (Letter, Epsilon)):
        return e
    if isinstance(e, Concat):
        return concat(*[zimin_rewrite(p) for p in e.parts])
    if isinstance(e, Union):
        return union(*[zimin_rewrite(p) for p in e.parts])
    assert isinstance(e, Star)
    child = zimin_rewrite(e.child)
    if not isinstance(child, Union):
        return star(child)
    expr = star(child.parts[0])
    for part in child.parts[1:]:
        expr = concat(expr, star(concat(part, expr)))
    return expr


def node_count(e: KleeneExpr) -> int:
    """Nodes of the expression as a tree, a shared subexpression counted at
    each place: the size ``zimin_rewrite`` and ``pretty`` walk, in one pass."""
    return _count(e, {})


def _count(node, sizes: dict[int, int]) -> int:
    t = type(node)  # exact types: this runs once per printed expression
    if t is Concat or t is Union:
        n = sizes.get(id(node))  # by id: the expression keeps its nodes alive
        if n is None:
            n = 1
            for p in node.parts:
                n += _count(p, sizes)
            sizes[id(node)] = n
        return n
    return 1 + _count(node.child, sizes) if t is Star else 1


def evaluate_expr(e: KleeneExpr, x: Sequence):
    """Sum of letter-weight products over the language, computed exactly.

    ``x`` maps generator index to a weight in any field-like type
    (Fraction, rational function, ...).  Star uses the geometric series
    1/(1-v); a star whose child evaluates to >= 1 raises DivergentStar.
    """
    if isinstance(e, Epsilon):
        return _one_of(x)
    if isinstance(e, Letter):
        return x[e.gen]
    if isinstance(e, Concat):
        v = _one_of(x)
        for p in e.parts:
            v = v * evaluate_expr(p, x)
        return v
    if isinstance(e, Union):
        v = None
        for p in e.parts:
            pv = evaluate_expr(p, x)
            v = pv if v is None else v + pv
        return v
    assert isinstance(e, Star)
    return star_value(evaluate_expr(e.child, x), _one_of(x))


def star_value(v, one):
    """The star of a weight: ``star(v)`` for an expression, otherwise the
    geometric sum 1/(1-v), which diverges (DivergentStar) when v >= 1."""
    if isinstance(v, KleeneExpr):
        return star(v)
    if isinstance(v, Fraction) and v >= 1 or v == one:
        raise DivergentStar(f"star of weight {v} >= 1 diverges")
    return one / (one - v)


def _one_of(x: Sequence):
    """The unit of the weight ring that the weights ``x`` live in."""
    sample = x[0]
    if isinstance(sample, Fraction):
        return Fraction(1)
    return sample.one()


def series(e: KleeneExpr, x: Sequence[Fraction], max_len: int) -> list[Fraction]:
    """Weight of the expression per word length, with multiplicity, truncated.

    Index ell of the result is the sum over all parses producing a length-ell
    word of the product of letter weights.  For an unambiguous expression
    this is the exact length-graded decomposition of evaluate_expr.
    """
    zero = [Fraction(0)] * (max_len + 1)
    unit = [Fraction(1)] + zero[1:]  # the empty word's series

    def conv(a, b):
        out = list(zero)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if i + j > max_len:
                    break
                out[i + j] += ai * bj
        return out

    def go_star(child_series) -> list[Fraction]:
        s, acc = list(unit), unit
        for _ in range(max_len):
            acc = conv(acc, child_series)
            if all(v == 0 for v in acc):
                break
            for i, v in enumerate(acc):
                s[i] += v
        return s

    def go(node) -> list[Fraction]:
        if isinstance(node, Epsilon):
            return list(unit)
        if isinstance(node, Letter):
            s = list(zero)
            if max_len >= 1:
                s[1] = x[node.gen]
            return s
        if isinstance(node, Concat):
            s = go(node.parts[0])
            for p in node.parts[1:]:
                s = conv(s, go(p))
            return s
        if isinstance(node, Union):
            s = list(zero)
            for p in node.parts:
                for i, v in enumerate(go(p)):
                    s[i] += v
            return s
        assert isinstance(node, Star)
        return go_star(go(node.child))

    return go(e)


def pretty(e: KleeneExpr, names: Sequence[str]) -> str:
    """Postfix star, juxtaposed concatenation, unions in braces.

    Concatenated parts are joined by ``label_sep`` of the names.
    """
    return _render(e, names, label_sep(names))


# Module level: nested closures that call each other would make a
# reference cycle per call, kept until the CLI's paused collector resumes.
def _render(node, names: Sequence[str], sep: str) -> str:
    if isinstance(node, Epsilon):
        return "ε"
    if isinstance(node, Letter):
        return names[node.gen]
    if isinstance(node, Concat):
        return sep.join(_render(p, names, sep) for p in node.parts)
    if isinstance(node, Union):
        return "{" + ",".join(_render(p, names, sep) for p in node.parts) + "}"
    assert isinstance(node, Star)
    child = node.child
    s = _render(child, names, sep)
    # A one-character letter or a braced union needs no parentheses.
    if not ((isinstance(child, Letter) and len(names[child.gen]) == 1)
            or isinstance(child, Union)):
        s = "(" + s + ")"
    return s + "⋆"
