import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semiwalk import families  # noqa: E402
from semiwalk.core import label_sep, semigroup_from_transformations  # noqa: E402
from semiwalk.graphs import ROOT_LABEL, RootedLabeledGraph, right_cayley  # noqa: E402


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
    """The Karnofsky-Rhodes expansion keyed by sets of transition edges
    (``reference.frozenset_kr``), with every vertex's word, label and
    image.  Returns the labelled graph and the word list."""
    from reference import frozenset_kr

    out, parent, parent_gen, endpoint = frozenset_kr(S)
    words = [()]
    for p, a in zip(parent[1:], parent_gen[1:]):
        words.append(words[p] + (a,))
    sep = label_sep(S.gen_names)
    labels = [ROOT_LABEL] + [sep.join(S.gen_names[g] for g in w) for w in words[1:]]
    rcay = right_cayley(S)
    return RootedLabeledGraph(S.gen_names, labels, out, [rcay.s_image[u] for u in endpoint]), words


def frac(s: str) -> Fraction:
    return Fraction(s)


HALF = [Fraction(1, 2), Fraction(1, 2)]
X236 = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
