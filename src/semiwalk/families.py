"""Built-in semigroup families and their closed-form stationary laws.

Each builder returns a semigroup with printable element and generator
names.  The base families are checked tables; the towers multiply by the
relations of bar, flat and the Karnofsky-Rhodes expansion, with no table.
The closed forms are evaluated exactly and keyed by the same labels the
generic pipeline produces, so tests can compare the two routes with
rational equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from typing import Sequence

from .core import (
    ASemigroup,
    SemigroupError,
    bar,
    flat,
    label_sep,
    semigroup_from_table,
)
from .expansions import karnofsky_rhodes

ZERO = "□"


@dataclass
class FamilySpec:
    name: str
    params: dict = field(default_factory=dict)


DESK_CAPS = {
    "tsetlin": {"n": (1, 6)},
    "signed_tsetlin": {"n": (1, 5)},
    "edge_flip_line": {"n": (1, 4)},
    "rees_B": {"n": (2, 6)},
    "rees_zp": {"n": (2, 4), "p": (1, 5)},
    "rees_general": {"n": (2, 2), "p": (2, 2)},
    "klein": {},
    "flipflop": {},
    "z2x01": {},
    "burnside_straightline": {"n": (1, 6)},
    # a tower's depth range depends on n: deeper towers exceed the
    # Karnofsky-Rhodes expansion's size cap
    "bar_tower": {"n": (2, 3), "depth": {2: (0, 2), 3: (0, 1)}},
    "flat_tower": {"n": (2, 3), "depth": {2: (1, 3), 3: (1, 2)}},
}


def parse_family(text: str) -> FamilySpec:
    """Parse 'tsetlin:3' or 'rees_zp:2,2' into a FamilySpec."""
    name, _, rest = text.partition(":")
    if name not in DESK_CAPS:
        raise SemigroupError(f"unknown family {name!r}; known: {sorted(DESK_CAPS)}")
    order = {
        "rees_zp": ("n", "p"),
        "rees_general": ("n", "p"),
        "bar_tower": ("n", "depth"),
        "flat_tower": ("n", "depth"),
    }.get(name, ("n",))
    params = {}
    if rest:
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


def _check_caps(spec: FamilySpec) -> None:
    caps = DESK_CAPS.get(spec.name)
    if caps is None:
        raise SemigroupError(f"unknown family {spec.name!r}; known: {sorted(DESK_CAPS)}")
    # n first: a tower's depth range is keyed by its n
    for key, value in sorted(spec.params.items(), key=lambda kv: kv[0] != "n"):
        if key not in caps:
            raise SemigroupError(f"family {spec.name!r} has no parameter {key!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise SemigroupError(f"{spec.name}.{key} must be an integer, got {value!r}")
        bounds, where = caps[key], ""
        if isinstance(bounds, dict):
            n = spec.params.get("n", 2)  # the towers' default n
            bounds, where = bounds[n], f" for n={n}"
        lo, hi = bounds
        if not (lo <= value <= hi):
            raise SemigroupError(
                f"{spec.name}.{key}={value} outside desk-scale range [{lo}, {hi}]{where}"
            )


def build(spec: FamilySpec) -> ASemigroup:
    _check_caps(spec)
    p = spec.params
    if spec.name == "tsetlin":
        return tsetlin(p.get("n", 3))
    if spec.name == "signed_tsetlin":
        return signed_tsetlin(p.get("n", 2))
    if spec.name == "edge_flip_line":
        return signed_tsetlin(p.get("n", 2))
    if spec.name == "rees_B":
        return rees_cycle(p.get("n", 2), 1)
    if spec.name == "rees_zp":
        return rees_cycle(p.get("n", 2), p.get("p", 2))
    if spec.name == "rees_general":
        return rees_general()
    if spec.name == "klein":
        return klein()
    if spec.name == "flipflop":
        return flipflop()
    if spec.name == "z2x01":
        return z2x01()
    if spec.name == "burnside_straightline":
        return burnside_straightline(p.get("n", 2))
    if spec.name == "bar_tower":
        return bar_tower(p.get("n", 2), p.get("depth", 1))
    if spec.name == "flat_tower":
        return flat_tower(p.get("n", 2), p.get("depth", 1))
    raise SemigroupError(f"unknown family {spec.name!r}")


# -- individual builders ---------------------------------------------------------


def tsetlin(n: int) -> ASemigroup:
    """Nonempty subsets of {1..n} under union, generated by singletons."""
    els = []
    for k in range(1, n + 1):
        els.extend(frozenset(c) for c in combinations(range(1, n + 1), k))
    idx = {e: i for i, e in enumerate(els)}
    table = [[idx[a | b] for b in els] for a in els]
    names = ["".join(str(x) for x in sorted(e)) for e in els]
    gens = [idx[frozenset([i])] for i in range(1, n + 1)]
    return semigroup_from_table(table, gens, [str(i) for i in range(1, n + 1)], names)


def signed_tsetlin(n: int) -> ASemigroup:
    """Nonempty sign-consistent subsets of {±1..±n}; multiplication adds a
    signed letter only when neither it nor its negative is present."""
    letters = []
    for i in range(1, n + 1):
        letters.extend([i, -i])
    els: list[frozenset] = []
    for k in range(1, n + 1):
        for support in combinations(range(1, n + 1), k):
            for signs in iproduct((1, -1), repeat=k):
                els.append(frozenset(s * v for s, v in zip(signs, support)))
    els.sort(key=lambda e: (len(e), sorted((abs(v), v < 0) for v in e)))
    idx = {e: i for i, e in enumerate(els)}

    def add(e: frozenset, v: int) -> frozenset:
        if v in e or -v in e:
            return e
        return e | {v}

    def mul(a: frozenset, b: frozenset) -> frozenset:
        out = a
        for v in sorted(b, key=abs):
            out = add(out, v)
        return out

    table = [[idx[mul(a, b)] for b in els] for a in els]
    names = [
        "{" + ",".join(str(v) for v in sorted(e, key=lambda v: (abs(v), v < 0))) + "}"
        for e in els
    ]
    gens = [idx[frozenset([v])] for v in letters]
    return semigroup_from_table(table, gens, [str(v) for v in letters], names)


def signed_letter_of_gen(k: int) -> int:
    """Generator index -> signed letter for the signed-subset families."""
    return (k // 2 + 1) * (1 if k % 2 == 0 else -1)


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

    size = zero + 1
    table = [[mul(a, b) for b in range(size)] for a in range(size)]
    if p == 1:
        names = [f"{i}{j}" for i, g, j in els] + [ZERO]
    else:
        names = [f"({i},{g},{j})" for i, g, j in els] + [ZERO]
    gens = []
    for i in range(1, n + 1):
        if i < n:
            gens.append(idx[(i, 0, i + 1)])
        else:
            gens.append(idx[(n, 1 % p, 1)])
    gen_names = ["a", "b"] if n == 2 else [f"a{i}" for i in range(1, n + 1)]
    return semigroup_from_table(table, gens, gen_names, names)


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

    table = [[mul(a, b) for b in range(len(els))] for a in range(len(els))]
    names = [f"({i},{'1' if g == 0 else '-1'},{j})" for i, g, j in els]
    gens = [idx[(1, 0, 2)], idx[(2, 0, 1)]]
    return semigroup_from_table(table, gens, ["a", "b"], names)


def klein() -> ASemigroup:
    els = [(1, -1), (-1, 1), (-1, -1), (1, 1)]
    idx = {e: i for i, e in enumerate(els)}
    table = [[idx[(a[0] * b[0], a[1] * b[1])] for b in els] for a in els]
    names = [f"({e[0]},{e[1]})" for e in els]
    return semigroup_from_table(table, [0, 1], ["a", "b"], names)


def flipflop() -> ASemigroup:
    return semigroup_from_table([[0, 0], [0, 1]], [0, 1], ["0", "1"], ["0", "1"])


def z2x01() -> ASemigroup:
    els = [(1, 0), (0, 0), (1, 1), (0, 1)]  # (exponent of z, multiplier bit)
    idx = {e: i for i, e in enumerate(els)}
    table = [
        [idx[((a[0] + b[0]) % 2, a[1] * b[1])] for b in els] for a in els
    ]
    names = ["(z,0)", "(1,0)", "(z,1)", "(1,1)"]
    return semigroup_from_table(table, [idx[(1, 0)], idx[(1, 1)]], ["a", "b"], names)


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

    size = sink + 1
    table = [[mul(x, y) for y in range(size)] for x in range(size)]

    def word(e):
        f, l = e
        other = "b" if f == "a" else "a"
        return "".join(f if i % 2 == 0 else other for i in range(l))

    names = [word(e) for e in els] + [ZERO]
    gens = [idx[("a", 1)], idx[("b", 1)]]
    return semigroup_from_table(table, gens, ["a", "b"], names)


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


def closed_form(spec: FamilySpec, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    """Exact stationary law from the family's published formula.

    Keys match the labels produced by the generic pipeline at the
    expansion level ("kr"), except edge_flip_line which is keyed by the
    lumped bit-string states.
    """
    _check_caps(spec)
    p = spec.params
    name = spec.name
    if name == "tsetlin":
        n = p.get("n", 3)
        return {
            "".join(str(a + 1) for a in pi): hendricks(xs, pi)
            for pi in permutations(range(n))
        }
    if name == "signed_tsetlin":
        return {"·".join(map(str, pi)): value
                for pi, value in _signed_arrangements(p.get("n", 2), xs)}
    if name == "edge_flip_line":
        return edge_flip_closed_form(p.get("n", 2), xs)
    if name in ("rees_B", "rees_zp"):
        n = p.get("n", 2)
        gp = 1 if name == "rees_B" else p.get("p", 2)
        return _rees_cycle_closed_form(n, gp, xs)
    if name == "rees_general":
        xa, xb = xs
        return {
            "a": xa * xa / 2, "ab": xa * xb / 2, "aba": xa * xa / 2,
            "abab": xa * xb / 2, "b": xb * xb / 2, "ba": xa * xb / 2,
            "bab": xb * xb / 2, "baba": xa * xb / 2,
        }
    if name == "z2x01":
        xa, xb = xs
        c = xa * xb / (2 * (1 - xb**2))
        return {
            "a": xa / 2, "aa": xa / 2,
            "ba": c, "baa": c,
            "bba": c * xb, "bbaa": c * xb,
        }
    if name == "burnside_straightline":
        return _burnside_closed_form(p.get("n", 2), xs)
    raise SemigroupError(f"no closed form recorded for family {name!r}")


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


def edge_flip_closed_form(
    n: int, xs: Sequence[Fraction], p: Fraction = Fraction(1, 2)
) -> dict[str, Fraction]:
    """Law of the vertex-writing chain on bit strings of length n+1."""
    ys = edge_flip_letter_probs(n, xs, p)
    out: dict[str, Fraction] = {}
    for s in iproduct((0, 1), repeat=n + 1):
        out["".join(map(str, s))] = Fraction(0)
    for pi, value in _signed_arrangements(n, ys):
        state = edge_flip_action(pi, (0,) * (n + 1))
        out["".join(map(str, state))] += value
    return out


def edge_flip_letter_probs(
    n: int, xs: Sequence[Fraction], p: Fraction = Fraction(1, 2)
) -> list[Fraction]:
    """Split per-edge probabilities into signed-letter probabilities."""
    if len(xs) != n:
        raise SemigroupError("one probability per edge required")
    ys = [Fraction(0)] * (2 * n)
    for i in range(1, n + 1):
        ys[gen_of_signed_letter(i)] = p * xs[i - 1]
        ys[gen_of_signed_letter(-i)] = (1 - p) * xs[i - 1]
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


def r_trivial_stationary(S: ASemigroup, xs: Sequence[Fraction]) -> dict[str, Fraction]:
    """Product formula for semigroups whose expansion is a tree plus loops:
    each prefix of a normal form contributes its letter weight over one
    minus the weight of the generators stabilizing the prefix."""
    from .stationary import StationaryEngine

    engine = StationaryEngine(S)
    out = {}
    for nf in engine.normal_forms:
        value = Fraction(1)
        prefix = None
        for pos, g in enumerate(nf.word):
            if pos > 0:
                stab = sum(
                    (xs[a] for a in range(S.n_gens)
                     if S.mult(prefix, S.gens[a]) == prefix),
                    Fraction(0),
                )
                value *= xs[g] / (1 - stab)
            else:
                value *= xs[g]
            prefix = S.gens[g] if prefix is None else S.mult(prefix, S.gens[g])
        out[S.word_label(nf.word)] = value
    return out
