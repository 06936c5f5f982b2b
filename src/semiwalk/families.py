"""Built-in semigroup families and their closed-form stationary laws.

Each builder returns a semigroup with printable element and generator
names.  Every family multiplies by its relations and fills no table: the
base families compute products of subsets, signed subsets, Rees matrix
triples or words, and the towers read the relations of bar, flat and the
Karnofsky-Rhodes expansion.  As trusted constructions they skip the checks
``semigroup_from_table`` applies to user tables; the test suite runs those
checks on the base families instead.  The closed forms are evaluated
exactly and keyed by the same labels the generic pipeline produces, so
tests can compare the two routes with rational equality.

One table, ``_FAMILIES``, holds each family's builder, closed-form law and
parameters; parsing, building, the range check and ``closed_form`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from typing import Callable, NamedTuple, Sequence

from .core import ZERO_NAME, ASemigroup, SemigroupError, bar, flat, label_sep
from .expansions import karnofsky_rhodes


@dataclass
class FamilySpec:
    name: str
    params: dict = field(default_factory=dict)


# -- individual builders ---------------------------------------------------------


def tsetlin(n: int) -> ASemigroup:
    """Nonempty subsets of {1..n} under union, generated by singletons."""
    subsets = [c for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    masks = [sum(1 << x for x in c) for c in subsets]
    idx = {m: i for i, m in enumerate(masks)}

    def mul(a: int, b: int) -> int:
        return idx[masks[a] | masks[b]]

    names = ["".join(str(x) for x in c) for c in subsets]
    gens = [idx[1 << i] for i in range(1, n + 1)]
    return ASemigroup(len(subsets), gens, [str(i) for i in range(1, n + 1)], mul, names)


def signed_tsetlin(n: int) -> ASemigroup:
    """Nonempty sign-consistent subsets of {±1..±n}; multiplication adds a
    signed letter only when neither it nor its negative is present."""
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    els: list[frozenset] = []
    for k in range(1, n + 1):
        for support in combinations(range(1, n + 1), k):
            for signs in iproduct((1, -1), repeat=k):
                els.append(frozenset(s * v for s, v in zip(signs, support)))
    els.sort(key=lambda e: (len(e), sorted((abs(v), v < 0) for v in e)))
    idx = {e: i for i, e in enumerate(els)}
    ordered = [sorted(e, key=abs) for e in els]  # one letter per |v|

    def mul(a: int, b: int) -> int:
        out = els[a]
        for v in ordered[b]:
            if v not in out and -v not in out:
                out = out | {v}
        return idx[out]

    names = ["{" + ",".join(map(str, e)) + "}" for e in ordered]
    gens = [idx[frozenset([v])] for v in letters]
    return ASemigroup(len(els), gens, [str(v) for v in letters], mul, names)


def gen_of_signed_letter(v: int) -> int:
    return 2 * (abs(v) - 1) + (0 if v > 0 else 1)


def rees_cycle(n: int, p: int) -> ASemigroup:
    """Rees matrix semigroup over the cyclic group of order p with identity
    sandwich matrix and zero; generators step cyclically through the index
    set, the wrap-around generator also advancing the group coordinate."""
    els = [(i, g, j) for i in range(1, n + 1) for g in range(p) for j in range(1, n + 1)]
    idx = {e: i for i, e in enumerate(els)}
    zero = len(els)

    def mul(a: int, b: int) -> int:
        if a == zero or b == zero:
            return zero
        i, g, j = els[a]
        k, h, l = els[b]
        if j != k:
            return zero
        return idx[(i, (g + h) % p, l)]

    if p == 1:
        names = [f"{i}{j}" for i, g, j in els] + [ZERO_NAME]
    else:
        names = [f"({i},{g},{j})" for i, g, j in els] + [ZERO_NAME]
    gens = [idx[(i, 0, i + 1)] for i in range(1, n)] + [idx[(n, 1 % p, 1)]]
    gen_names = ["a", "b"] if n == 2 else [f"a{i}" for i in range(1, n + 1)]
    return ASemigroup(zero + 1, gens, gen_names, mul, names)


def rees_general() -> ASemigroup:
    """Rees matrix semigroup over the two-element group, no zero, with a
    sandwich matrix whose lower-right entry is the nontrivial element; its
    minimal ideal is the whole semigroup and is not left zero."""
    matrix = ((0, 0), (0, 1))
    els = [(i, g, j) for i in range(1, 3) for g in range(2) for j in range(1, 3)]
    idx = {e: i for i, e in enumerate(els)}

    def mul(a: int, b: int) -> int:
        i, g, j = els[a]
        k, h, l = els[b]
        return idx[(i, (g + matrix[j - 1][k - 1] + h) % 2, l)]

    names = [f"({i},{'1' if g == 0 else '-1'},{j})" for i, g, j in els]
    gens = [idx[(1, 0, 2)], idx[(2, 0, 1)]]
    return ASemigroup(len(els), gens, ["a", "b"], mul, names)


def klein() -> ASemigroup:
    els = [(1, -1), (-1, 1), (-1, -1), (1, 1)]
    idx = {e: i for i, e in enumerate(els)}

    def mul(a: int, b: int) -> int:
        (x, y), (u, v) = els[a], els[b]
        return idx[(x * u, y * v)]

    names = [f"({x},{y})" for x, y in els]
    return ASemigroup(len(els), [0, 1], ["a", "b"], mul, names)


def flipflop() -> ASemigroup:
    """{0, 1} under multiplication."""
    return ASemigroup(2, [0, 1], ["0", "1"], lambda a, b: a * b, ["0", "1"])


def z2x01() -> ASemigroup:
    els = [(1, 0), (0, 0), (1, 1), (0, 1)]  # (exponent of z, multiplier bit)
    idx = {e: i for i, e in enumerate(els)}

    def mul(a: int, b: int) -> int:
        (z, m), (w, k) = els[a], els[b]
        return idx[((z + w) % 2, m * k)]

    names = ["(z,0)", "(1,0)", "(z,1)", "(1,1)"]
    return ASemigroup(len(els), [idx[(1, 0)], idx[(1, 1)]], ["a", "b"], mul, names)


def burnside_straightline(n: int) -> ASemigroup:
    """Factors of the two-letter alternating word of exponent n, with the
    exponent-collapsing relation capping lengths, plus an absorbing sink.

    Elements are alternating words over {a, b} canonicalized to length at
    most 2n+1 (lengths beyond that collapse preserving parity); products
    that break alternation fall to the sink.
    """
    cap = 2 * n + 1
    els = [(f, l) for f in "ab" for l in range(1, cap + 1)]
    idx = {e: i for i, e in enumerate(els)}
    sink = len(els)

    def last(e):
        f, l = e
        if l % 2 == 1:
            return f
        return "b" if f == "a" else "a"

    def mul(x: int, y: int) -> int:
        if x == sink or y == sink:
            return sink
        ex, ey = els[x], els[y]
        if last(ex) == ey[0]:
            return sink
        l = ex[1] + ey[1]
        if l > cap:
            l = 2 * n + (l - 2 * n) % 2
        return idx[(ex[0], l)]

    def word(e):
        f, l = e
        other = "b" if f == "a" else "a"
        return "".join(f if i % 2 == 0 else other for i in range(l))

    names = [word(e) for e in els] + [ZERO_NAME]
    gens = [idx[("a", 1)], idx[("b", 1)]]
    return ASemigroup(sink + 1, gens, ["a", "b"], mul, names)


def bar_tower(n: int, depth: int) -> ASemigroup:
    """Iterate expansion-of-flat-of-bar starting from the expanded subset
    semigroup; every level keeps full stability."""
    S = karnofsky_rhodes(tsetlin(n)).semigroup()
    for _ in range(depth):
        S = karnofsky_rhodes(flat(bar(S))).semigroup()
    return S


def flat_tower(n: int, depth: int) -> ASemigroup:
    """flat, then (bar then expansion then flat) repeated; the minimal
    ideal is left zero at every level."""
    S = tsetlin(n)
    for _ in range(depth - 1):
        S = bar(karnofsky_rhodes(flat(S)).semigroup())
    return flat(S)


# -- closed-form stationary laws --------------------------------------------------


def hendricks(xs: Sequence[Fraction], pi: Sequence[int]) -> Fraction:
    """Move-to-front product for one arrangement (letters are 0-based)."""
    value = Fraction(1)
    used = Fraction(0)
    for a in pi:
        value *= xs[a] / (1 - used)
        used += xs[a]
    return value


def _tsetlin_closed_form(n: int, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    return {
        "".join(str(a + 1) for a in pi): hendricks(xs, pi)
        for pi in permutations(range(n))
    }


def _signed_closed_form(n: int, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    return {"·".join(map(str, pi)): value for pi, value in _signed_arrangements(n, xs)}


def _signed_arrangements(n: int, ys: Sequence[Fraction]):
    """Each signed arrangement of 1..n with its probability: the chance
    that its letters are the first-seen ones, in order, under ``ys``."""
    for support in permutations(range(1, n + 1)):
        for signs in iproduct((1, -1), repeat=n):
            pi = tuple(s * v for s, v in zip(signs, support))
            value = Fraction(1)
            used = Fraction(0)
            for a in pi:
                value *= ys[gen_of_signed_letter(a)] / (1 - used)
                used += ys[gen_of_signed_letter(a)] + ys[gen_of_signed_letter(-a)]
            yield pi, value


def edge_flip_action(pi: Sequence[int], state: Sequence[int]) -> tuple[int, ...]:
    """Apply signed letters right to left: +a writes 0 on positions a-1, a;
    -a writes 1 there (positions 0-based on a line of n+1 sites)."""
    s = list(state)
    for a in reversed(pi):
        i = abs(a) - 1
        s[i] = s[i + 1] = 0 if a > 0 else 1
    return tuple(s)


def edge_flip_closed_form(n: int, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    """Law of the vertex-writing chain on bit strings of length n+1."""
    ys = edge_flip_letter_probs(n, xs)
    out = {"".join(map(str, s)): Fraction(0) for s in iproduct((0, 1), repeat=n + 1)}
    for pi, value in _signed_arrangements(n, ys):
        state = edge_flip_action(pi, (0,) * (n + 1))
        out["".join(map(str, state))] += value
    return out


def edge_flip_letter_probs(n: int, xs: Sequence[Fraction]) -> list[Fraction]:
    """Split per-edge probabilities into signed-letter probabilities: each
    edge writes 0 or 1 with equal chance."""
    if len(xs) != n:
        raise SemigroupError("one probability per edge required")
    ys = [Fraction(0)] * (2 * n)
    for i in range(1, n + 1):
        ys[gen_of_signed_letter(i)] = ys[gen_of_signed_letter(-i)] = xs[i - 1] / 2
    return ys


def _rees_cycle_closed_form(
    n: int, p: int, xs: Sequence[Fraction]
) -> dict[str, Fraction]:
    cycle_len = n * p
    full = Fraction(1)
    for v in xs:
        full *= v
    denom = 1 - full**p
    names = ["a", "b"] if n == 2 else [f"a{i}" for i in range(1, n + 1)]
    joiner = label_sep(names)
    out = {}
    for k in range(n):
        for j in range(1, cycle_len + 1):
            weight = Fraction(1)
            word = []
            for step in range(j):
                m = (k + step) % n
                weight *= xs[m]
                word.append(names[m])
            nxt = (k + j) % n
            for i in range(n):
                if i == nxt:
                    continue
                label = joiner.join(word + [names[i]])
                out[label] = weight * xs[i] / denom
    return out


def _rees_general_closed_form(xs: Sequence[Fraction]) -> dict[str, Fraction]:
    xa, xb = xs
    return {
        "a": xa * xa / 2, "ab": xa * xb / 2, "aba": xa * xa / 2,
        "abab": xa * xb / 2, "b": xb * xb / 2, "ba": xa * xb / 2,
        "bab": xb * xb / 2, "baba": xa * xb / 2,
    }


def _z2x01_closed_form(xs: Sequence[Fraction]) -> dict[str, Fraction]:
    xa, xb = xs
    c = xa * xb / (2 * (1 - xb**2))
    return {
        "a": xa / 2, "aa": xa / 2,
        "ba": c, "baa": c,
        "bba": c * xb, "bbaa": c * xb,
    }


def _burnside_closed_form(n: int, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    xa, xb = xs
    denom = 1 - xa * xb
    out: dict[str, Fraction] = {}
    for j in range(1, n):
        out["ab" * j + "b"] = xa**j * xb ** (j + 1)
        out["ba" * j + "a"] = xb**j * xa ** (j + 1)
    for k in range(n):
        out["ab" * k + "aa"] = xa ** (k + 2) * xb**k
        out["ba" * k + "bb"] = xb ** (k + 2) * xa**k
    out["ab" * n + "b"] = xa**n * xb ** (n + 1) / denom
    out["ba" * n + "a"] = xb**n * xa ** (n + 1) / denom
    out["ab" * n + "aa"] = xa ** (n + 2) * xb**n / denom
    out["ba" * n + "bb"] = xb ** (n + 2) * xa**n / denom
    return out


# -- the families: parsing, ranges, building, closed forms ------------------------


class _Family(NamedTuple):
    """A family's builder and closed-form law (or None), both called with
    its parameter values in parse order (the law with the weights after
    them), and its parameters as (name, default, desk-scale range).  A
    range may be a dict keyed by the value of the first parameter."""

    build: Callable[..., ASemigroup]
    law: Callable[..., dict[str, Fraction]] | None
    params: tuple = ()


_FAMILIES = {
    "tsetlin": _Family(tsetlin, _tsetlin_closed_form, (("n", 3, (1, 6)),)),
    "signed_tsetlin": _Family(signed_tsetlin, _signed_closed_form, (("n", 2, (1, 5)),)),
    "edge_flip_line": _Family(signed_tsetlin, edge_flip_closed_form, (("n", 2, (1, 4)),)),
    "rees_B": _Family(lambda n: rees_cycle(n, 1),
                      lambda n, xs: _rees_cycle_closed_form(n, 1, xs),
                      (("n", 2, (2, 6)),)),
    "rees_zp": _Family(rees_cycle, _rees_cycle_closed_form,
                       (("n", 2, (2, 4)), ("p", 2, (1, 5)))),
    "rees_general": _Family(rees_general, _rees_general_closed_form),
    "klein": _Family(klein, None),
    "flipflop": _Family(flipflop, None),
    "z2x01": _Family(z2x01, _z2x01_closed_form),
    "burnside_straightline": _Family(burnside_straightline, _burnside_closed_form,
                                     (("n", 2, (1, 6)),)),
    # a tower's depth range depends on n: deeper towers exceed the
    # Karnofsky-Rhodes expansion's size cap
    "bar_tower": _Family(bar_tower, None,
                         (("n", 2, (2, 3)), ("depth", 1, {2: (0, 2), 3: (0, 1)}))),
    "flat_tower": _Family(flat_tower, None,
                          (("n", 2, (2, 3)), ("depth", 1, {2: (1, 3), 3: (1, 2)}))),
}


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise SemigroupError(f"unknown family {name!r}; known: {sorted(_FAMILIES)}")
    return _FAMILIES[name]


def parse_family(text: str) -> FamilySpec:
    """Parse 'tsetlin:3' or 'rees_zp:2,2' into a FamilySpec."""
    name, colon, rest = text.partition(":")
    order = [key for key, _, _ in _family(name).params]
    params = {}
    if colon:
        try:
            values = [int(v) for v in rest.split(",")]
        except ValueError:
            raise SemigroupError(
                f"family parameters must be integers, got {rest!r}"
            ) from None
        if len(values) > len(order):
            raise SemigroupError(f"too many parameters for family {name!r}")
        params = dict(zip(order, values))
    return FamilySpec(name, params)


def _values(spec: FamilySpec) -> tuple[_Family, list[int]]:
    """The spec's family and its parameter values in parse order, defaults
    filled in, each checked against its desk-scale range."""
    family = _family(spec.name)
    ranges = {key: bounds for key, _, bounds in family.params}
    values = {key: default for key, default, _ in family.params}
    first = next(iter(values), None)
    # the first parameter first: a later one's range may be keyed by it
    for key, value in sorted(spec.params.items(), key=lambda kv: kv[0] != first):
        if key not in ranges:
            raise SemigroupError(f"family {spec.name!r} has no parameter {key!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise SemigroupError(f"{spec.name}.{key} must be an integer, got {value!r}")
        bounds, where = ranges[key], ""
        if isinstance(bounds, dict):
            bounds, where = bounds[values[first]], f" for {first}={values[first]}"
        lo, hi = bounds
        if not (lo <= value <= hi):
            raise SemigroupError(
                f"{spec.name}.{key}={value} outside desk-scale range [{lo}, {hi}]{where}"
            )
        values[key] = value
    return family, list(values.values())


def build(spec: FamilySpec) -> ASemigroup:
    family, values = _values(spec)
    return family.build(*values)


def closed_form(spec: FamilySpec, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    """Exact stationary law from the family's published formula.

    Keys match the labels produced by the generic pipeline at the
    expansion level ("kr"), except edge_flip_line which is keyed by the
    lumped bit-string states.
    """
    family, values = _values(spec)
    if family.law is None:
        raise SemigroupError(f"no closed form recorded for family {spec.name!r}")
    return family.law(*values, xs)
