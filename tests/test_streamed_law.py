"""The law is streamed: ``stationary`` writes each line as the copy walk
makes it, holding no name-to-mass dict, and every cap is raised before
its first line."""

import csv
import io
import os
import sys
import tracemalloc

import pytest

from semiwalk import cli, expansions, families, stationary
from semiwalk.core import SizeCapExceeded
from semiwalk.expansions import kr_size
from semiwalk.stationary import StationaryEngine, stationary_kr, stationary_law, uniform_probs


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _printed(entries: dict, form: str, as_float: bool) -> str:
    """What ``stationary`` printed when it formatted every line of a built
    law: text lines ``name: mass``, or CSV with a header."""
    rows = [(k, repr(float(v)) if as_float else str(v)) for k, v in entries.items()]
    if form == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("state", "probability"))
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(f"{k}: {v}\n" for k, v in rows)


def _refuse(*args, **kwargs):
    raise AssertionError("stationary built a StationaryResult")


@pytest.mark.parametrize("family,limit", [
    ("tsetlin:6", False), ("flat_tower:3,2", False), ("rees_general", False),
    ("flat_tower:3,2", True),
])
def test_stationary_prints_the_built_law_without_building_it(family, limit, capsys,
                                                             monkeypatch):
    S = families.build(families.parse_family(family))
    entries = stationary_kr(S, uniform_probs(S)).entries
    monkeypatch.setattr(stationary.StationaryResult, "__init__", _refuse)
    extra = ["--limit-zero"] if limit else []
    for form in ("text", "csv"):
        for as_float in (False, True):
            argv = ["stationary", "--family", family, "--format", form, *extra]
            code, out, err = _run(argv + ["--float"] * as_float, capsys)
            assert (code, err) == (0, "")
            assert out == _printed(entries, form, as_float), (form, as_float)


@pytest.mark.parametrize("extra", [[], ["--format", "csv"], ["--limit-zero"]],
                         ids=["text", "csv", "limit"])
def test_the_top_rung_law_is_written_in_little_memory(extra, monkeypatch):
    # flat_tower:2,3 prints 48,620 lines; a law held whole, with its
    # formatted lines, peaked at 12 to 25 MB here
    S = families.build(families.parse_family("flat_tower:2,3"))
    monkeypatch.setattr(cli, "build_family", lambda _: S)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["stationary", "--family", "flat_tower:2,3", *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"


def _mc_vertices(S) -> int:
    return len(StationaryEngine(S).elem)


@pytest.mark.parametrize("family", ["tsetlin:4", "z2x01"], ids=["direct", "limit"])
@pytest.mark.parametrize("cap,count,unit", [("KR_CAP", kr_size, "vertices"),
                                            ("MC_CAP", _mc_vertices, "simple paths")])
def test_a_cap_hit_prints_no_partial_law(family, cap, count, unit, capsys, monkeypatch):
    S = families.build(families.parse_family(family))
    limit = count(S) - 1
    monkeypatch.setattr(expansions, cap, limit)
    with pytest.raises(SizeCapExceeded, match=f"exceeded cap {limit} {unit}"):
        stationary_law(families.build(families.parse_family(family)),
                       uniform_probs(S), "kr")  # raised before it is read
    for form in ("text", "csv"):
        code, out, err = _run(["stationary", "--family", family, "--format", form], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"exceeded cap {limit} {unit}" in err


def test_walk_expressions_are_built_before_and_printed_as_read(monkeypatch):
    # every expression is built, so EXPRESSION_CAP is checked for each,
    # before the first is printed
    S = families.build(families.parse_family("rees_B:3"))
    built, printed = [], []
    expression, pretty = StationaryEngine.expression, stationary.pretty
    monkeypatch.setattr(StationaryEngine, "expression",
                        lambda engine, nf: built.append(nf) or expression(engine, nf))
    monkeypatch.setattr(stationary, "pretty",
                        lambda expr, names: printed.append(expr) or pretty(expr, names))
    forms = stationary.walk_expressions(S)
    assert printed == [] and len(built) == len(stationary._engine(S).normal_forms)
    assert next(forms) and len(printed) == 1
    rest = list(forms)
    assert len(printed) == len(rest) + 1 == len(built)


def test_walk_expressions_are_written_without_holding_their_text(monkeypatch):
    # flat_tower:3,2 prints 42.5 MB of walk-expression text; with every
    # text held until the end, the peak was 88 MB
    S = families.build(families.parse_family("flat_tower:3,2"))
    monkeypatch.setattr(cli, "build_family", lambda _: S)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["stationary", "--family", "flat_tower:3,2", "--expressions"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB"
