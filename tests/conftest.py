import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semiwalk import families  # noqa: E402
from semiwalk.core import label_sep, semigroup_from_transformations  # noqa: E402
from semiwalk.graphs import (  # noqa: E402
    RootedLabeledGraph,
    right_cayley,
    sccs,
    transition_edges,
)


@pytest.fixture(scope="session")
def p3():
    return families.tsetlin(3)


@pytest.fixture(scope="session")
def p2():
    return families.tsetlin(2)


@pytest.fixture(scope="session")
def b2():
    return families.rees_cycle(2, 1)


@pytest.fixture(scope="session")
def klein():
    return families.klein()


@pytest.fixture(scope="session")
def flipflop():
    return families.flipflop()


@pytest.fixture(scope="session")
def z2x01():
    return families.z2x01()


@pytest.fixture(scope="session")
def z2x01_quotient(z2x01):
    from reference import rees_quotient
    from semiwalk.core import minimal_ideal

    return rees_quotient(z2x01, minimal_ideal(z2x01))


# Transformation semigroup whose expanded simple-path graph is not a right
# Cayley graph (four maps on five states, one absorbing).
COUNTEREXAMPLE_MAPS = {
    "a1": [1, 4, 4, 2, 4],
    "a2": [4, 2, 1, 4, 4],
    "a3": [4, 3, 3, 4, 4],
    "c": [0, 0, 0, 0, 4],
}


@pytest.fixture(scope="session")
def counterexample():
    return semigroup_from_transformations(5, COUNTEREXAMPLE_MAPS)


@pytest.fixture(scope="session")
def counterexample_spec(tmp_path_factory):
    """Path of the counterexample as a ``transformations`` JSON spec."""
    path = tmp_path_factory.mktemp("specs") / "counterexample.json"
    spec = {"kind": "transformations", "states": 5, "maps": COUNTEREXAMPLE_MAPS}
    path.write_text(json.dumps(spec))
    return str(path)


def reference_words(mc):
    """Tree-path word per McCammond vertex, extended from the parent's."""
    words = [()]
    for v in range(1, len(mc.parent)):
        words.append(words[mc.parent[v]] + (mc.parent_gen[v],))
    return words


def reference_kr(S):
    """The Karnofsky-Rhodes expansion built eagerly: a breadth-first search
    keyed by (Cayley vertex, frozenset of transition edges crossed) that
    stores every vertex's word, label and image.  Returns the labelled
    graph and the word list."""
    rcay = right_cayley(S)
    trans = transition_edges(rcay, sccs(rcay))
    k = S.n_gens
    key0 = (rcay.root, frozenset())
    index = {key0: 0}
    keys = [key0]
    words = [()]
    out = [[None] * k]
    head = 0
    while head < len(keys):
        v = head
        head += 1
        rv, tset = keys[v]
        for a in range(k):
            crossed = (rv, a) in trans
            key = (rcay.out[rv][a], tset | {(rv, a)} if crossed else tset)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                words.append(words[v] + (a,))
                out.append([None] * k)
            out[v][a] = index[key]
    sep = label_sep(S.gen_names)
    labels = [rcay.labels[rcay.root]] + [
        sep.join(S.gen_names[g] for g in w) for w in words[1:]
    ]
    images = [None] + [rcay.s_image[key[0]] for key in keys[1:]]
    return RootedLabeledGraph(S.gen_names, labels, out, images), words


def frac(s: str) -> Fraction:
    return Fraction(s)


HALF = [Fraction(1, 2), Fraction(1, 2)]
X236 = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
