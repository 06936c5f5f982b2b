"""The law over S from the walk sums per entry element, against the
expansion's law lumped by element (``reference.kr_lumped_s``)."""

import contextlib
import gc
import hashlib
import importlib.util
import io
import random
import sys
import time
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from reference import desk_corners, kr_lumped_s

from semiwalk import cli, expansions, families
from semiwalk.core import (
    SizeCapExceeded,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_transformations,
)
from semiwalk.stationary import (
    StationaryEngine,
    normalization_check,
    stationary_kr,
    stationary_s,
    uniform_probs,
)


def _items(result):
    return list(result.entries.items())


# every family at its defaults and at the ends of its ranges, and the two
# limit fixtures the benchmark forces into limit mode
FAMILY_CASES = [(name, False) for name in sorted(set(families._FAMILIES) | set(desk_corners()))]
FAMILY_CASES += [("tsetlin:5", True), ("rees_B:6", True)]


@pytest.mark.parametrize("name,force", FAMILY_CASES)
def test_law_over_s_equals_the_lumped_expansion_law(name, force):
    # the same values, names and order, at uniform and at unequal weights
    S = families.build(families.parse_family(name))
    k = S.n_gens
    for xs in (uniform_probs(S), [F(i + 1, k * (k + 1) // 2) for i in range(k)]):
        assert _items(stationary_s(S, xs, force)) == _items(kr_lumped_s(S, xs, force))


def test_law_over_s_equals_the_lumped_expansion_law_on_random_draws():
    # 3- and 4-state draws of 2 or 3 maps with |S| <= 150 at unequal
    # weights 1..5; limit mode comes with most kernels, direct mode is also
    # forced into it
    rng = random.Random(34)
    modes = {True: 0, False: 0}  # draws by whether their kernel is left zero
    while sum(modes.values()) < 120 or modes[False] < 60 or modes[True] < 10:
        n, k = rng.choice([3, 4]), rng.choice([2, 3])
        maps = {g: [rng.randrange(n) for _ in range(n)] for g in "abc"[:k]}
        ints = [rng.randint(1, 5) for _ in range(k)]
        S = semigroup_from_transformations(n, maps)
        if S.size > 150 or len(set(ints)) == 1:
            continue
        xs = [F(i, sum(ints)) for i in ints]
        direct = kernel_is_left_zero(S, minimal_ideal(S))
        for force in {False, direct}:
            got = stationary_s(S, xs, force)
            assert _items(got) == _items(kr_lumped_s(S, xs, force)), maps
            assert normalization_check(got)
        modes[direct] += 1


LADDER = ["tsetlin:6", "signed_tsetlin:4", "rees_zp:4,5", "bar_tower:2,2",
          "flat_tower:3,2", "flat_tower:2,3"]
LIMIT_FIXTURES = [("rees_general", False), ("z2x01", False), ("klein", False),
                  ("tsetlin:5", True), ("rees_B:6", True)]


def _refuse(*args, **kwargs):
    raise AssertionError("the law over S built an expansion")


@pytest.mark.parametrize("name,force", [(n, False) for n in LADDER] + LIMIT_FIXTURES)
def test_over_s_builds_no_expansion(name, force, capsys, monkeypatch):
    # the towers are built from expansions, so the CLI is handed a fresh
    # copy built before the spy is set
    spec = families.parse_family(name)
    S = families.build(spec)
    want = "".join(f"{k}: {v}\n" for k, v in kr_lumped_s(S, uniform_probs(S), force).entries.items())
    fresh = families.build(spec)
    monkeypatch.setattr(cli, "build_family", lambda _: fresh)
    monkeypatch.setattr(expansions.KRExpansion, "__init__", _refuse)
    argv = ["stationary", "--over", "s", "--family", name] + ["--limit-zero"] * force
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


# SHA-256 of the output of `stationary --over s --expressions`, recorded when
# the normal forms still read the expansion
OVER_S_EXPRESSIONS = {
    ("tsetlin:4",): "d117fa9c18f681e5f8c7e139d054708e15df1a485c71f57a4abb026ab2c4310a",
    ("rees_zp:4,4",): "ff380d76c9cf18146ef502e0ba34ffb8a2d7dab12afe8c55dc6ecce09f438aad",
    ("signed_tsetlin:4",): "e40ce454ad7275c514608869d7e004fd1a637f6960b93a79ae62c5baf9558e85",
    ("flat_tower:3,2",): "5c2ef8cf07489df1a3e68f92aff6f117067a3c261e1b3dabe19edbf0f3193452",
    ("z2x01",): "42204cdd221d852dbad685fa4ae795582c86ab8b865ef5a28bfe82307510ffc7",
    ("klein",): "c73f017b12d54081a32f32a95e1466cd37933a29fc354641cff412cc92093bd7",
    ("tsetlin:5", "--limit-zero"):
        "36b300acdcc753e3ffe4cce7fb42b434d70a57af28a5c2ee9609c68f2bb7f373",
}


class _Digest(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())
        return len(text)


@pytest.mark.parametrize("args", list(OVER_S_EXPRESSIONS))
def test_over_s_expressions_build_no_expansion(args, monkeypatch):
    # the normal forms are glued by S's right action, so the law over S and
    # its walk languages build no expansion; flat_tower:3,2 prints its
    # 1,056 expressions, 42 MB of text, into the digest alone
    fresh = families.build(families.parse_family(args[0]))
    monkeypatch.setattr(cli, "build_family", lambda _: fresh)
    monkeypatch.setattr(expansions.KRExpansion, "__init__", _refuse)
    out = _Digest()
    with contextlib.redirect_stdout(out):
        assert cli.main(["stationary", "--over", "s", "--expressions", "--family", *args]) == 0
    assert out.sha256.hexdigest() == OVER_S_EXPRESSIONS[args]


def test_traced_law_over_s_builds_no_expansion(monkeypatch):
    # the benchmark's tracer (perfbench/spans.py, loaded as it is and left
    # unchanged) counts each engine's normal forms once it is built; as
    # they read no expansion, a traced --over s request builds none
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, forms in (("bar_tower:2,2", 3_660), ("flat_tower:3,2", 1_056)):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                argv = ["stationary", "--over", "s", "--family", name]
                assert tracer.run_request(name, cli.main, argv) == 0
        finally:
            tracer.uninstall()
        assert "expansions.kr_vertices" not in tracer.counts
        assert tracer.counts["stationary.normal_forms"] == forms


def test_law_over_s_past_the_expansion_cap():
    # flat_tower:3,3 is out of the family table's range: its expansion
    # passes KR_CAP, while the law over S needs none
    S = families.flat_tower(3, 3)
    xs = [F(i + 1, 36) for i in range(S.n_gens)]
    start = time.perf_counter()
    law = stationary_s(S, xs)
    assert time.perf_counter() - start < 5
    assert S.size == 8_447 and len(law.entries) == 4_224 and law.total() == 1
    # stationary for s -> gens[a]·s on K(S), exactly
    element = {S.element_name(e): e for e in minimal_ideal(S)}
    pi = {element[name]: m for name, m in law.entries.items()}
    moved = dict.fromkeys(pi, F(0))
    for s, m in pi.items():
        for g, x in zip(S.gens, xs):
            moved[S.mult(g, s)] += m * x
    assert moved == pi
    with pytest.raises(SizeCapExceeded, match=f"exceeded cap {expansions.KR_CAP} vertices"):
        stationary_kr(S, xs)


def test_engine_holds_no_reference_to_the_semigroup():
    # S stores its engine, and the engine holds no reference to S: S is
    # collected, and the laws over S and over the expansion's copies, the
    # normal forms and their expressions still come from the engine alone
    S = families.build(families.parse_family("flat_tower:3,2"))
    engine, alive = StationaryEngine(S), StationaryEngine(S)
    xs = uniform_probs(S)
    want, copies = engine.entry_masses(xs), alive.values(xs)
    forms = alive.normal_forms
    exprs = [alive.expression(nf) for nf in (forms[0], forms[-1])]
    gone = weakref.ref(S)
    del S
    gc.collect()
    assert gone() is None
    assert engine.entry_masses([F(1, 6)] * 6) == want
    assert engine.values([F(1, 6)] * 6) == copies
    assert engine.normal_forms == forms
    assert [engine.expression(nf) for nf in (forms[0], forms[-1])] == exprs
