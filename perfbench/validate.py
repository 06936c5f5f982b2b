"""Checks for reference outputs that do not come from the engine under test.

A ``stationary`` output is accepted when the masses sum to exactly 1, are
stationary for the exact left-multiplication chain on the expansion's
minimal ideal (``build_chain(S, xs, "kr_ideal")``), and, when the minimal
ideal is left zero, that chain has a single closed class, so the law is
unique.  Where the family has a
recorded closed form, the output must equal it.  ``--over s`` output must
be the lumping of the validated expansion-level law; ``--expressions``
output is parsed and evaluated here, and per expansion state must sum to
the validated mass.  ``verify`` output must pass every check.
"""

from __future__ import annotations

from fractions import Fraction

from semiwalk.chains import build_chain
from semiwalk.core import SemigroupError
from semiwalk.expansions import karnofsky_rhodes
from semiwalk.families import closed_form, parse_family

EXPR_HEADER = "# walk languages per normal form"


class Invalid(Exception):
    pass


def parse_values(lines: list[str]) -> dict[str, Fraction]:
    out = {}
    for line in lines:
        label, _, value = line.rpartition(": ")
        if label in out:
            raise Invalid(f"state {label!r} printed twice")
        out[label] = Fraction(value)
    return out


def split_word(S, label: str) -> tuple[int, ...]:
    """Generator word of a printed label (inverse of ``word_label``)."""
    index = {name: i for i, name in enumerate(S.gen_names)}
    parts = list(label) if all(len(n) == 1 for n in S.gen_names) else label.split("·")
    return tuple(index[p] for p in parts)


def certify(S, xs, pi: dict[str, Fraction], unique: bool) -> int:
    """Exact certificate; returns the number of chain states.

    ``unique`` also requires a single closed class.  That holds when the
    minimal ideal is left zero; otherwise the chain splits into several
    closed classes and the adjoined-zero limit picks one of its laws.
    """
    if sum(pi.values(), Fraction(0)) != 1:
        raise Invalid("masses do not sum to 1")
    if any(v < 0 for v in pi.values()):
        raise Invalid("negative mass")
    chain = build_chain(S, xs, "kr_ideal")
    extra = set(pi) - set(chain.labels)
    if extra:
        raise Invalid(f"states outside the chain: {sorted(extra)[:3]}")
    vec = [pi.get(lab, Fraction(0)) for lab in chain.labels]
    image = [Fraction(0)] * chain.n
    preds: list[list[int]] = [[] for _ in range(chain.n)]
    for s, col in enumerate(chain.cols):
        for t, p in col.items():
            image[t] += vec[s] * p
            preds[t].append(s)
    if image != vec:
        raise Invalid("pi T != pi")
    if not unique:
        return chain.n
    # One closed class iff every state reaches a state of positive mass.
    start = next(i for i, v in enumerate(vec) if v > 0)
    seen = {start}
    stack = [start]
    while stack:
        for s in preds[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    if len(seen) != chain.n:
        raise Invalid("chain has more than one closed class")
    return chain.n


def check_closed_form(family: str | None, xs, pi: dict[str, Fraction]) -> bool:
    """True when a closed form exists and matches; Invalid when it differs."""
    if family is None:
        return False
    try:
        expected = closed_form(parse_family(family), xs)
    except SemigroupError:
        return False
    expected = {k: v for k, v in expected.items() if v != 0}
    if expected != {k: v for k, v in pi.items() if v != 0}:
        raise Invalid(f"differs from the closed form of {family}")
    return True


def lumped(S, pi: dict[str, Fraction]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for label, value in pi.items():
        name = S.element_name(S.product(split_word(S, label)))
        out[name] = out.get(name, Fraction(0)) + value
    return out


class _ExprValue:
    """Evaluate a pretty-printed walk language at exact letter weights."""

    STOP = "·(){},⋆"

    def __init__(self, S, xs, text: str):
        self.weight = dict(zip(S.gen_names, xs))
        self.single = all(len(n) == 1 for n in S.gen_names)
        self.text = text
        self.i = 0

    def value(self) -> Fraction:
        v = self._concat()
        if self.i != len(self.text):
            raise Invalid(f"trailing text in expression at {self.i}")
        return v

    def _peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def _concat(self) -> Fraction:
        v = Fraction(1)
        while self._peek() and self._peek() not in ")},":
            if self._peek() == "·":
                self.i += 1
            v *= self._postfix()
        return v

    def _postfix(self) -> Fraction:
        v = self._atom()
        while self._peek() == "⋆":
            self.i += 1
            if v >= 1:
                raise Invalid("divergent star")
            v = 1 / (1 - v)
        return v

    def _atom(self) -> Fraction:
        c = self._peek()
        if c == "(":
            self.i += 1
            v = self._concat()
        elif c == "{":
            v = Fraction(0)
            while self._peek() and self._peek() in "{,":
                self.i += 1
                v += self._concat()
        elif c == "ε":
            self.i += 1
            return Fraction(1)
        else:
            j = self.i + 1
            if not self.single:
                while j < len(self.text) and self.text[j] not in self.STOP:
                    j += 1
            name = self.text[self.i:j]
            if name not in self.weight:
                raise Invalid(f"unknown letter {name!r}")
            self.i = j
            return self.weight[name]
        if not self._peek() or self._peek() not in ")}":
            raise Invalid("unbalanced expression")
        self.i += 1
        return v


def check_expressions(S, xs, pi: dict[str, Fraction], lines: list[str]) -> int:
    """Walk languages summed per expansion state equal the masses."""
    graph = karnofsky_rhodes(S).graph
    groups: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    chars = 0
    for line in lines:
        label, _, text = line.partition(": ")
        word = split_word(S, label)
        chars += len(text)
        v = graph.follow(graph.root, word)
        groups.setdefault(v, []).append((word, _ExprValue(S, xs, text).value()))
    sums = {S.word_label(min(w for w, _ in forms)): sum(x for _, x in forms)
            for forms in groups.values()}
    if sums != pi:
        raise Invalid("walk languages do not sum to the masses")
    return chars


def check_verify(stdout: str) -> None:
    lines = stdout.splitlines()
    if lines[-1] != "all checks passed" or not all(
        line.startswith("PASS ") for line in lines[:-1]
    ):
        raise Invalid("verify did not pass every check")
