import csv
import gc
import hashlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from semiwalk import chains, cli, expansions, families, graphs, simulate, stationary
from semiwalk.cli import main
from semiwalk.core import SemigroupError
from semiwalk.specio import load_spec, semigroup_from_spec

from reference import desk_corners


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spec_table(tmp_path):
    spec = {
        "kind": "table",
        "generators": ["0", "1"],
        "table": [[0, 0], [0, 1]],
    }
    path = tmp_path / "ff.json"
    path.write_text(json.dumps(spec))
    S = load_spec(str(path))
    assert S.size == 2 and S.gen_names == ["0", "1"]


def test_spec_transformations():
    S = semigroup_from_spec(
        {"kind": "transformations", "states": 3,
         "maps": {"u": [1, 2, 2], "d": [0, 0, 1]}}
    )
    assert S.size > 2


def test_spec_family():
    S = semigroup_from_spec({"kind": "family", "family": "tsetlin", "n": 3})
    assert S.size == 7


def test_spec_errors(tmp_path):
    with pytest.raises(SemigroupError):
        semigroup_from_spec({"kind": "nope"})
    with pytest.raises(SemigroupError):
        semigroup_from_spec({"kind": "table", "generators": ["a"]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SemigroupError):
        load_spec(str(bad))


def test_cli_build(capsys):
    code, out, _ = run_cli(["build", "--family", "tsetlin:3"], capsys)
    assert code == 0
    assert out.strip() == "|S|=7, K={123}, left-zero: yes"
    code, out, _ = run_cli(["build", "--family", "rees_B:2"], capsys)
    assert code == 0
    assert out.strip() == "|S|=5, K={□}, left-zero: yes"


def test_cli_expand_counts(capsys):
    code, out, _ = run_cli(["expand", "--kr", "--family", "klein"], capsys)
    assert code == 0 and out == "vertices: 9\nedges: 18\n"
    code, out, _ = run_cli(["expand", "--mc", "--family", "klein"], capsys)
    assert code == 0 and out.startswith("vertices: 15")
    code, out, _ = run_cli(["expand", "--rcay", "--family", "tsetlin:3"], capsys)
    assert code == 0 and out.startswith("vertices: 8")


def test_cli_expand_dot(tmp_path, capsys):
    out_file = tmp_path / "g.dot"
    code, _, _ = run_cli(
        ["expand", "--mc", "--family", "rees_B:2", "--format", "dot",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph") and 'color="red"' in text


REES_B2_MC_DOT = (
    'digraph G {\n'
    '  v0 [label="𝟙", shape=box];\n'
    '  v1 [label="a"];\n'
    '  v2 [label="aa"];\n'
    '  v3 [label="ab"];\n'
    '  v4 [label="abb"];\n'
    '  v5 [label="b"];\n'
    '  v6 [label="ba"];\n'
    '  v7 [label="baa"];\n'
    '  v8 [label="bb"];\n'
    '  v0 -> v1 [label="a", color="blue"];\n'
    '  v0 -> v5 [label="b", color="blue"];\n'
    '  v1 -> v2 [label="a", color="blue"];\n'
    '  v1 -> v3 [label="b"];\n'
    '  v2 -> v2 [label="a", style="dashed"];\n'
    '  v2 -> v2 [label="b", style="dashed"];\n'
    '  v3 -> v1 [label="a", style="dashed", color="red"];\n'
    '  v3 -> v4 [label="b", color="blue"];\n'
    '  v4 -> v4 [label="a", style="dashed"];\n'
    '  v4 -> v4 [label="b", style="dashed"];\n'
    '  v5 -> v6 [label="a"];\n'
    '  v5 -> v8 [label="b", color="blue"];\n'
    '  v6 -> v7 [label="a", color="blue"];\n'
    '  v6 -> v5 [label="b", style="dashed", color="red"];\n'
    '  v7 -> v7 [label="a", style="dashed"];\n'
    '  v7 -> v7 [label="b", style="dashed"];\n'
    '  v8 -> v8 [label="a", style="dashed"];\n'
    '  v8 -> v8 [label="b", style="dashed"];\n'
    '}\n'
)

# SHA-256 of `expand --mc --format dot` on the counterexample spec: 194
# simple paths over 109 Karnofsky-Rhodes vertices
COUNTEREXAMPLE_MC_DOT_SHA256 = (
    "af7f5d4e0f7bfd613734f85f09fc13383d292d27b03f18de0f61807185bd4b3e"
)


def test_cli_expand_mc_dot_pins(counterexample_spec, capsys):
    code, out, _ = run_cli(
        ["expand", "--mc", "--family", "rees_B:2", "--format", "dot"], capsys
    )
    assert code == 0 and out == REES_B2_MC_DOT
    code, out, _ = run_cli(
        ["expand", "--mc", "--spec", counterexample_spec, "--format", "dot"],
        capsys,
    )
    assert code == 0 and out.count(" [label=") == 194 + 776
    assert hashlib.sha256(out.encode()).hexdigest() == COUNTEREXAMPLE_MC_DOT_SHA256


# SHA-256 of `expand --kr --format dot` on flat_tower:3,2 (2,112 vertices)
FLAT_TOWER_3_2_KR_DOT_SHA256 = (
    "efb02aab7164c7a63241eb3f726b9529c86eafce96cbec5908b69048db42d7d0"
)


def test_cli_expand_kr_dot_pin(capsys):
    code, out, _ = run_cli(
        ["expand", "--kr", "--family", "flat_tower:3,2", "--format", "dot"], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FLAT_TOWER_3_2_KR_DOT_SHA256


def test_cli_expand_dot_escapes_labels(tmp_path, capsys):
    spec = {"kind": "transformations", "states": 2,
            "maps": {'a"b': [0, 0], "c\\d": [1, 1]}}
    code, out, _ = run_cli(["expand", "--kr", "--format", "dot", "--spec",
                            _malformed_spec(tmp_path, spec)], capsys)
    assert code == 0
    quoted = re.findall(r'label=("(?:[^"\\]|\\.)*")', out)
    # 5 vertices and 10 edges, each label one DOT string read back whole
    assert len(quoted) == 15 and len(re.findall("label=", out)) == 15
    names = {json.loads(q) for q in quoted}  # DOT's escapes are JSON's here
    assert names == {"\U0001d7d9", 'a"b', "c\\d", 'a"b·c\\d', 'c\\d·a"b'}


def test_cli_stationary_csv_quotes_names(tmp_path, capsys):
    spec = {"kind": "transformations", "states": 2,
            "maps": {"x,y": [0, 0], "z": [1, 1]}}
    code, out, _ = run_cli(["stationary", "--format", "csv", "--spec",
                            _malformed_spec(tmp_path, spec)], capsys)
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["state", "probability"], ["x,y", "1/4"], ["x,y·z", "1/4"],
        ["z", "1/4"], ["z·x,y", "1/4"],
    ]


def test_cli_stationary(capsys):
    code, out, _ = run_cli(
        ["stationary", "--family", "rees_B:2", "--probs", "a=1/2,b=1/2"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["aa: 1/3", "abb: 1/6", "baa: 1/6", "bb: 1/3"]


def test_cli_stationary_json_and_expressions(capsys):
    code, out, _ = run_cli(
        ["stationary", "--family", "rees_B:2", "--format", "json",
         "--expressions"],
        capsys,
    )
    # the whole of stdout is one JSON object
    assert code == 0
    assert json.loads(out) == {
        "law": {"aa": "1/3", "abb": "1/6", "baa": "1/6", "bb": "1/3"},
        "expressions": {"aa": "a(ba)⋆a", "abb": "ab(ab)⋆b", "baa": "ba(ba)⋆a",
                        "bb": "b(ab)⋆b"},
    }


@pytest.mark.parametrize("extra", [[], ["--over", "s"], ["--float"]])
def test_cli_stationary_json_expressions_in_limit_mode(capsys, extra):
    argv = ["stationary", "--family", "z2x01", "--expressions", *extra]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    law, report = text.split("# walk languages per normal form\n")
    assert list(data) == ["law", "expressions"]
    assert [f"{k}: {v}" for k, v in data["law"].items()] == law.splitlines()
    assert [f"{k}: {v}" for k, v in data["expressions"].items()] == report.splitlines()


def test_cli_stationary_csv_and_float(capsys):
    code, out, _ = run_cli(
        ["stationary", "--family", "rees_B:2", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "state,probability"
    assert "aa,1/3" in out
    code, out, _ = run_cli(
        ["stationary", "--family", "rees_B:2", "--float"], capsys
    )
    assert code == 0
    assert "aa: 0.3333333333333333" in out


def test_cli_stationary_limit_lumped(capsys):
    code, out, _ = run_cli(
        ["stationary", "--family", "z2x01", "--limit-zero", "--over", "s"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["(1,0): 1/2", "(z,0): 1/2"]


def test_cli_bad_probs_exit_2(capsys):
    code, _, err = run_cli(
        ["stationary", "--family", "rees_B:2", "--probs", "a=1/3,b=1/3"],
        capsys,
    )
    assert code == 2 and "sum" in err


def test_cli_malformed_spec_exit_2(tmp_path, capsys):
    # a syntax error, bytes that are not UTF-8 and nesting past the
    # parser's recursion limit each give one error line naming the file
    bad = tmp_path / "bad.json"
    for text in (b"{]", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(text)
        code, out, err = run_cli(["build", "--spec", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {bad}:")
        assert err.count("\n") == 1


def test_cli_corrupted_table_exit_nonzero(tmp_path, capsys):
    spec = {"kind": "table", "generators": ["a", "b"],
            "table": [[0, 1], [0, 0]]}
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["verify", "--spec", str(path)], capsys)
    assert code != 0


def test_cli_verify_counterexample_spec(counterexample_spec, capsys):
    code, out, err = run_cli(["verify", "--spec", counterexample_spec], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert len(lines) == 4 and all(ln.startswith("PASS ") for ln in lines[:-1])


def _malformed_spec(tmp_path, spec):
    """Path of a spec file: a dict as JSON, a string as written."""
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return str(path)


def test_cli_non_integer_family_parameter_exit_2(capsys):
    code, out, err = run_cli(["build", "--family", "tsetlin:a"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "integers" in err


def test_cli_empty_family_parameter_list_exit_2(capsys):
    code, out, err = run_cli(["build", "--family", "tsetlin:"], capsys)
    assert code == 2 and out == ""
    assert err == "error: family parameters must be integers, got ''\n"


def test_cli_parameters_on_a_family_without_any_exit_2(capsys):
    code, out, err = run_cli(["stationary", "--family", "rees_general:2,2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: too many parameters for family 'rees_general'")


@pytest.mark.parametrize("probs", ["1=x,2=1/2", "1=1/0,2=1/2"])
def test_cli_unparsable_probability_exit_2(probs, capsys):
    code, out, err = run_cli(
        ["stationary", "--family", "tsetlin:2", "--probs", probs], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: bad probability")


def test_cli_duplicate_probability_exit_2(capsys):
    code, out, err = run_cli(
        ["stationary", "--family", "tsetlin:2", "--probs", "1=1/3,2=1/3,1=2/3"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: duplicate probability") and "'1'" in err


def test_cli_non_integer_map_entry_exit_2(tmp_path, capsys):
    spec = {"kind": "transformations", "states": 2, "maps": {"a": [0, "x"]}}
    code, out, err = run_cli(["build", "--spec", _malformed_spec(tmp_path, spec)],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'a'" in err


def test_cli_generator_element_out_of_range_exit_2(tmp_path, capsys):
    spec = {"kind": "table", "generators": ["a"], "table": [[0]],
            "gen_elements": [3]}
    code, out, err = run_cli(["build", "--spec", _malformed_spec(tmp_path, spec)],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "generator elements" in err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "transformations", "states": "2", "maps": {"a": [0, 1]}},
     "states must be an integer"),
    ({"kind": "transformations", "states": 2, "maps": [[0, 1]]},
     "maps must be an object"),
    ({"kind": "transformations", "states": 2, "maps": {"a": 3}},
     "map 'a' is not total"),
    ({"kind": "table", "generators": ["a"], "table": [["0"]]},
     "integer entries"),
    ({"kind": "table", "generators": ["a"], "table": [0]},
     "list of rows"),
    ({"kind": "table", "generators": 5, "table": [[0]]},
     "'generators' must be a list of strings"),
    ({"kind": "table", "generators": [1], "table": [[0]]},
     "'generators' must be a list of strings"),
    ({"kind": "table", "generators": ["a"], "table": [[0]], "gen_elements": 0},
     "'gen_elements' must be a list"),
    ({"kind": "table", "generators": ["a"], "table": [[0]], "element_names": 5},
     "'element_names' must be a list of strings"),
    # an empty list names no element; it is not the same as no names
    ({"kind": "table", "generators": ["a", "b"], "table": [[0, 0], [0, 1]],
      "element_names": []},
     "one name per element required"),
    ({"kind": "family", "family": "tsetlin", "n": "3"},
     "tsetlin.n must be an integer"),
    ({"kind": "family", "family": "tsetlin", "n": 2.5},
     "tsetlin.n must be an integer"),
    ({"kind": "family", "family": ["x"]}, "needs a 'family' name"),
    ({"kind": "family", "family": "nope"}, "unknown family 'nope'"),
    # JSON true and false are not integers, though Python's bool is an int
    ({"kind": "table", "generators": ["a"], "table": [[False]]},
     "table must be 1 x 1 with integer entries"),
    ({"kind": "transformations", "states": True, "maps": {"a": [False]}},
     "states must be an integer, got True"),
    ({"kind": "transformations", "states": -1, "maps": {"a": []}},
     "states must be at least 0, got -1"),
    ({"kind": "table", "generators": ["a", "b"], "table": [[0, 0], [0, 1]],
      "gen_elements": [True, 0]},
     "generator elements must lie in 0..1"),
    ('{"kind": "transformations", "states": 2, "maps": {"a": [0, 1], "a": [1, 0]}}',
     "duplicate key 'a'"),
    # a misspelt field is an error, not a default
    ({"kind": "table", "generators": ["a", "b"], "table": [[0, 0], [0, 1]],
      "gen_element": [1, 0]},
     "table spec has no field 'gen_element'"),
    ({"kind": "transformations", "states": 2, "maps": {"a": [0, 1]},
      "generators": ["a"]},
     "transformations spec has no field 'generators'"),
    # a kind that is no string names no kind, and is no key to look up
    ({"kind": ["table"]}, "'kind' must be a string, got ['table']"),
    ({"kind": {"a": 1}}, "'kind' must be a string, got {'a': 1}"),
], ids=["states-string", "maps-list", "map-not-list", "table-string-entry",
        "table-row-not-list", "generators-int", "generator-name-int",
        "gen-elements-int", "element-names-int", "element-names-empty",
        "family-n-string",
        "family-n-float", "family-name-list", "family-unknown",
        "table-entry-false", "states-true", "states-negative", "gen-elements-true",
        "maps-duplicate-key", "table-unknown-field",
        "transformations-unknown-field", "kind-list", "kind-object"])
def test_cli_malformed_spec_field_exit_2(tmp_path, capsys, spec, message):
    code, out, err = run_cli(["build", "--spec", _malformed_spec(tmp_path, spec)],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("maps,name", [
    ({"x": [0, 0, 1], "a": [1, 2, 2], "x·a": [2, 2, 0]}, "x·a"),
    ({"a·b": [0, 0, 0], "a": [1, 1, 2], "b": [2, 2, 2]}, "a·b"),
], ids=["x·a", "a·b"])
@pytest.mark.parametrize("command", ["build", "stationary", "verify"])
def test_cli_generator_name_with_the_separator_exit_2(tmp_path, capsys, maps, name, command):
    # '·' joins multi-character names in printed words, so a name holding
    # one would print two elements alike (x·x·a is both x,x·a and x,x,a)
    spec = {"kind": "transformations", "states": 3, "maps": maps}
    code, out, err = run_cli([command, "--spec", _malformed_spec(tmp_path, spec)],
                             capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and repr(name) in err


def test_cli_verify_limit_mode_reports_skip(capsys):
    code, out, _ = run_cli(["verify", "--family", "z2x01"], capsys)
    assert code == 0
    assert "SKIP" in out and "all checks passed" in out
    assert "PASS exact certificate" in out


def test_cli_verify_simulate_default_tolerance(capsys):
    # At 20 x 50,000 steps, 120 states give TV 0.0059 from sampling noise;
    # the default tolerance scales with states / samples.
    code, out, _ = run_cli(["verify", "--family", "tsetlin:5", "--simulate"],
                           capsys)
    assert code == 0, out
    assert "PASS simulation TV 0.0059 <= 0.011 (seed 42)" in out


def test_cli_verify_pass(capsys):
    code, out, _ = run_cli(["verify", "--family", "rees_B:2"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "PASS lumping" in out


def test_cli_verify_direct_mode_fails_a_corrupted_law(capsys, monkeypatch):
    # swapping two unequal masses keeps the sum at 1 and breaks pi T = pi;
    # a passing certificate prints nothing in direct mode
    code, out, _ = run_cli(["verify", "--family", "rees_B:2"], capsys)
    assert code == 0 and "certificate" not in out
    law = stationary.stationary_kr

    def corrupted(S, xs):
        result = law(S, xs)
        e = result.entries
        e["aa"], e["abb"] = e["abb"], e["aa"]
        return result
    monkeypatch.setattr(cli, "stationary_kr", corrupted)
    code, out, _ = run_cli(["verify", "--family", "rees_B:2"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["PASS normalization (exact sum = 1)",
                         "FAIL exact certificate (pi T = pi on the expansion ideal chain)"]
    assert lines[-1] == "FAILED: certificate, oracle"


def test_cli_verify_simulation_and_failure_exit(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "rees_B:2", "--simulate", "--walkers", "4",
         "--steps", "500", "--seed", "42", "--tv-tol", "0.05"],
        capsys,
    )
    assert code == 0 and "simulation TV" in out
    # an absurd tolerance forces the simulation check to fail with exit 1
    code, out, _ = run_cli(
        ["verify", "--family", "rees_B:2", "--simulate", "--walkers", "2",
         "--steps", "50", "--seed", "42", "--tv-tol", "1e-9"],
        capsys,
    )
    assert code == 1 and "FAILED" in out


@pytest.mark.parametrize("flag,value", [("--walkers", "0"), ("--steps", "0"),
                                        ("--steps", "-5"), ("--walkers", "-1")])
def test_cli_verify_rejects_empty_simulation(capsys, flag, value):
    code, out, err = run_cli(["verify", "--family", "rees_B:2", "--simulate",
                              flag, value, "--tv-tol", "0.1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least 1")


@pytest.mark.parametrize("value", ["-1", "nan", "-0.5"])
def test_cli_verify_rejects_bad_tv_tol(capsys, monkeypatch, value):
    def no_work(args):
        raise AssertionError("the input was loaded")
    monkeypatch.setattr(cli, "_load", no_work)
    code, out, err = run_cli(["verify", "--family", "rees_B:2", "--simulate",
                              "--tv-tol", value], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --tv-tol must be at least 0, got {float(value)}")


@pytest.mark.parametrize("argv,readers", [
    (["verify", "--family", "flat_tower:3,2", "--simulate", "--walkers", "2",
      "--steps", "100", "--tv-tol", "1"], 2),
    (["verify", "--family", "z2x01"], 1),
], ids=["verify-simulate", "verify-limit"])
def test_cli_expands_the_semigroup_once(capsys, monkeypatch, argv, readers):
    # every reader of the Karnofsky-Rhodes expansion in one command (the
    # chain and the simulation; the law and the certificate read none)
    # shares one object: in limit mode the chain is the only reader
    krs = []

    def spy(module):
        fn = module.karnofsky_rhodes

        def wrapped(*args, **kwargs):
            krs.append(fn(*args, **kwargs))
            return krs[-1]
        monkeypatch.setattr(module, "karnofsky_rhodes", wrapped)

    for module in (stationary, chains, simulate):
        spy(module)
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(krs) == readers and all(kr is krs[0] for kr in krs)


def test_cli_stationary_expressions_builds_no_expansion(capsys, monkeypatch):
    # the law and the walk languages read one engine, in direct and in
    # limit mode, over kr and over s, and build neither expansion: the
    # copies are walked over S's component DAG, limit mode reads S's left
    # ideals, the normal forms are glued by S's right action, and the
    # engine's McCammond trees cover the components alone
    krs = []
    init = expansions.KRExpansion.__init__

    def counted(self, *args, **kwargs):
        krs.append(self)
        init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("stationary built a McCammond expansion")

    monkeypatch.setattr(expansions.KRExpansion, "__init__", counted)
    for module in (expansions, stationary, cli):
        monkeypatch.setattr(module, "mccammond", refuse)
    for family in (["rees_zp:4,4"], ["z2x01"], ["tsetlin:3", "--limit-zero"],
                   ["rees_zp:4,4", "--over", "s"], ["z2x01", "--over", "s"]):
        code, out, _ = run_cli(["stationary", "--expressions", "--family", *family],
                               capsys)
        assert code == 0 and "# walk languages per normal form" in out
        assert krs == [], family


def test_cli_byte_identical_reruns(capsys):
    args = ["verify", "--family", "rees_B:2", "--simulate", "--walkers", "3",
            "--steps", "200", "--seed", "7"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert (code1, out1) == (code2, out2)


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one call, a usage error included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_reuses_its_parser_and_nothing_else(capsys, monkeypatch):
    # every command, then the same command without the options of the call
    # before it, with usage errors in between: each call prints what it
    # prints with a parser of its own, and the process builds one parser
    sim = ["--simulate", "--walkers", "2", "--steps", "100"]
    sequence = [
        ["build", "--family", "rees_B:2", "--json"],
        ["expand", "--mc", "--family", "klein", "--format", "dot"],
        ["stationary", "--family", "tsetlin:3", "--probs", "1=1/2,2=1/3,3=1/6",
         "--over", "s", "--format", "json"],
        ["stationary", "--family", "nope:1"],
        ["stationary", "--family", "tsetlin:3"],
        ["verify", "--family", "rees_B:2", *sim, "--tv-tol", "0.5"],
        ["verify", "--simulate"],
        ["verify", "--family", "rees_B:2", *sim],
        ["stationary", "--family", "z2x01", "--expressions", "--format", "csv"],
    ]
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "semiwalk":
            built.append(self)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    shared = [_outcome(argv, capsys) for argv in sequence]
    assert len(built) <= 1  # none if an earlier call in this process built it
    shared_builds = len(built)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_outcome(argv, capsys) for argv in sequence]
    assert len(built) == shared_builds + len(sequence)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 2, 0, 0]
    assert "required" in shared[6][2]


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "semiwalk.cli", "build", "--family", "klein"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("|S|=4")


def test_a_closed_pipe_exits_141_and_prints_nothing():
    # the reader takes one line and closes its end, as head -1 does; the
    # law of flat_tower:2,3 (48,620 lines) is far more than a pipe holds,
    # so later writes find the pipe closed
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "semiwalk.cli", "stationary",
         "--family", "flat_tower:2,3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b"" and first.endswith(b"\n")


def test_cli_restores_the_collector_on_success_and_on_exit_2(capsys):
    assert gc.isenabled()
    code, _, _ = run_cli(["build", "--family", "tsetlin:3"], capsys)
    assert code == 0 and gc.isenabled()
    code, _, err = run_cli(["stationary", "--family", "nope:1"], capsys)
    assert code == 2 and err.startswith("error:") and gc.isenabled()


def test_cli_restores_the_collector_when_the_command_raises(monkeypatch):
    from semiwalk import cli

    seen = []

    def boom(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_build", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["build", "--family", "tsetlin:3"])
    assert seen == [False]  # paused while the command ran
    assert gc.isenabled()


def test_cli_leaves_a_disabled_collector_disabled(capsys):
    gc.disable()
    try:
        for argv in (["build", "--family", "tsetlin:3"],
                     ["stationary", "--family", "nope:1"]):
            run_cli(argv, capsys)
            assert not gc.isenabled()
    finally:
        gc.enable()


_SIM = ["verify", "--simulate", "--walkers", "2", "--steps", "100",
        "--tv-tol", "1"]


@pytest.mark.parametrize("command,small,large", [
    (["stationary"], "tsetlin:3", "flat_tower:2,2"),
    (["stationary", "--over", "s"], "tsetlin:3", "flat_tower:2,2"),
    (["stationary", "--limit-zero"], "tsetlin:3", "tsetlin:4"),
    (["stationary", "--expressions"], "tsetlin:3", "flat_tower:2,2"),
    (_SIM, "rees_B:2", "tsetlin:4"),
], ids=["direct", "over_s", "limit", "expressions", "simulate"])
def test_cli_cyclic_garbage_does_not_grow_with_the_input(capsys, command,
                                                         small, large):
    # The CLI pauses the cyclic collector for a command, which is safe only
    # while the cycles a command leaves behind do not grow with its input.
    # argparse leaves a fixed number, which may differ between Python
    # versions, so two sizes are compared rather than a fixed count.  The
    # parser is built once per process, and building it leaves cycles of
    # its own, so it is built before anything is counted.
    cli._build_parser()
    counts = []
    gc.disable()
    try:
        for family in (small, large):
            gc.collect()
            run_cli(command + ["--family", family], capsys)
            counts.append(gc.collect())
    finally:
        gc.enable()
    assert counts[0] == counts[1], counts


def test_desk_corner_count():
    assert len(desk_corners()) == 26


@pytest.mark.parametrize("corner", desk_corners())
def test_desk_corners_finish_or_name_the_cap(corner, capsys):
    # in range means a law within the budget; what the caps cannot reach
    # is out of range (see the next test)
    start = time.perf_counter()
    code, out, err = run_cli(["stationary", "--family", corner], capsys)
    assert time.perf_counter() - start < 30
    assert code == 0 and out, err


@pytest.mark.parametrize("family,message", [
    pytest.param(family, message, id=family) for family, message in [
        ("bar_tower:2,3", "bar_tower.depth=3 outside desk-scale range [0, 2] for n=2"),
        ("bar_tower:3,2", "bar_tower.depth=2 outside desk-scale range [0, 1] for n=3"),
        ("bar_tower:3,3", "bar_tower.depth=3 outside desk-scale range [0, 1] for n=3"),
        ("flat_tower:3,3", "flat_tower.depth=3 outside desk-scale range [1, 2] for n=3"),
        ("flat_tower:4,1", "flat_tower.n=4 outside desk-scale range [2, 3]"),
    ]
])
def test_towers_out_of_reach_are_out_of_range(family, message, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["stationary", "--family", family], capsys)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("family,form,size", [
    ("flat_tower:2,3", "1·2·~𝟙·‾𝟙·1·2·~𝟙·~𝟙'·‾𝟙'·1·2·~𝟙·‾𝟙·1·2·~𝟙·~𝟙'·~𝟙''", 496806),
    ("bar_tower:2,2", "1·2·‾𝟙·1·2·~𝟙·‾𝟙'·1·2·‾𝟙·1·2·~𝟙·~𝟙'", 28105),
])
def test_expressions_past_the_cap_fail_fast_and_print_nothing(family, form, size, capsys):
    # the first normal form's expression is past stationary.EXPRESSION_CAP
    # nodes before the star-of-union rewrite, which would multiply it
    start = time.perf_counter()
    code, out, err = run_cli(["stationary", "--expressions", "--family", family], capsys)
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert err == (f"error: walk expression of normal form {form} with {size} nodes "
                   f"exceeded cap 20000 before the star-of-union rewrite\n")


@pytest.mark.parametrize("family", ["rees_B:2", "z2x01"])
def test_verify_finds_the_minimal_ideal_once(family, capsys, monkeypatch):
    # S stores the components of its right action, which K(S) and the
    # expansion's transition edges both read, and the expansion's minimal
    # ideal is read off by image: one component search over S, and none
    # over its right Cayley graph
    searched = []
    search = graphs.sccs

    def counted(G):
        searched.append(G.out if isinstance(G, graphs.RootedLabeledGraph) else G)
        return search(G)
    monkeypatch.setattr(graphs, "sccs", counted)
    monkeypatch.setattr(expansions, "sccs", counted)
    args = ["verify", "--family", family]
    if family == "rees_B:2":
        args += ["--simulate", "--walkers", "2", "--steps", "100"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and out.endswith("all checks passed\n")
    S = cli.build_family(cli.parse_family(family))
    over_s = [S.right_action()[0], graphs.right_cayley(S).out]
    assert [succ for succ in searched if succ in over_s] == over_s[:1]


@pytest.mark.parametrize("family", ["z2x01", "klein", "rees_general",
                                    "tsetlin:3", "rees_zp:4,5", "flat_tower:3,2"])
def test_verify_makes_one_closed_class_search_per_table(family, capsys, monkeypatch):
    # the law, the chain, its certificate and the oracle read the
    # expansion's one stored search for its minimal left ideals; the other
    # search is the certificate's, over the letters' action on those ideals
    searched = []
    search = expansions.closed_classes

    def counted(succ):
        searched.append(len(succ))
        return search(succ)
    monkeypatch.setattr(expansions, "closed_classes", counted)
    monkeypatch.setattr(chains, "closed_classes", counted)
    code, out, _ = run_cli(["verify", "--family", family], capsys)
    assert code == 0 and out.endswith("all checks passed\n")
    got = list(searched)
    kr = expansions.karnofsky_rhodes(cli.build_family(cli.parse_family(family)))
    assert got == [len(kr.ideal), len(kr.left_ideals[0])]


@pytest.mark.parametrize("family", ["rees_B:2", "z2x01"])
def test_verify_builds_one_chain(family, capsys, monkeypatch):
    # the certificate checks the chain verify builds, and in direct mode
    # the oracle and the lumping check read that same chain
    built = []
    build = chains.build_chain

    def counted(*args):
        built.append(build(*args))
        return built[-1]
    monkeypatch.setattr(cli, "build_chain", counted)
    monkeypatch.setattr(chains, "build_chain", counted)
    args = ["verify", "--family", family]
    if family == "rees_B:2":
        args += ["--simulate", "--walkers", "2", "--steps", "100"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and out.endswith("all checks passed\n")
    assert len(built) == 1


def test_verify_reports_an_oracle_that_does_not_converge(capsys, monkeypatch):
    # a failed check, not a traceback: the other checks still run and print
    args = ["verify", "--family", "rees_zp:4,5", "--simulate", "--walkers", "2",
            "--steps", "100", "--tv-tol", "1"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and "PASS power-iteration oracle (max diff 2.20e-15)\n" in out
    passing = out.splitlines()
    monkeypatch.setattr(chains, "ORACLE_MAX_ITER", 1)
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        passing[0], "FAIL power-iteration oracle (no convergence after 1 sweeps)",
        *passing[2:4], "FAILED: oracle"]


def test_cli_exact_ladder_matches_the_benchmark_reference(capsys):
    # each exact_ladder request prints the bytes the benchmark's reference
    # recorded, the text law of flat_tower:2,3 (48,620 lines) among them
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    requests = json.loads(path.read_text(encoding="utf-8"))["fixed"]["exact_ladder"]
    assert len(requests) == 8
    for req in requests:
        code, out, err = run_cli(req["argv"], capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == req["sha256"], req["argv"]


# bar_tower:2,2 with weight 1/1000 on ~𝟙' and the rest split evenly
_SKEWED = "1=999/5000,2=999/5000,‾𝟙=999/5000,~𝟙=999/5000,‾𝟙'=999/5000,~𝟙'=1/1000"


@pytest.mark.parametrize("family,out", [
    ("flat_tower:2,3", "k: 7\ntail: 279936/823543\n"),
    ("tsetlin:6", "k: 15\ntail: 129078571/362797056\n"),
    ("rees_zp:4,5", "k: 2\ntail: 1/4\n"),
])
def test_cli_mixing(family, out, capsys):
    assert run_cli(["mixing", "--family", family], capsys) == (0, out, "")


def test_cli_mixing_with_weights(capsys):
    code, out, _ = run_cli(["mixing", "--family", "tsetlin:3",
                            "--probs", "1=1/2,2=1/3,3=1/6"], capsys)
    want = chains.mixing_bound(cli.build_family(cli.parse_family("tsetlin:3")),
                               [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert (code, out) == (0, f"k: {want.k}\ntail: {want.tail}\n")


@pytest.mark.parametrize("argv,message", [
    (["--family", "z2x01"], "error: minimal ideal is not left zero: the mixing bound's "),
    (["--family", "bar_tower:2,2", "--probs", _SKEWED],
     "error: mixing bound of |S| = 7319: first-entry tail still above 1/e after "),
], ids=["limit-mode", "cap"])
def test_cli_mixing_names_the_stage_and_exits_2(argv, message, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["mixing", *argv], capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "") and err.startswith(message)


@pytest.mark.parametrize("command", [["build"], ["expand", "--kr"]])
def test_probs_is_refused_where_no_walk_runs(command, capsys):
    # build and expand read no weights, so --probs is a usage error there
    code, out, err = _outcome([*command, "--family", "tsetlin:2", "--probs", "a=oops"], capsys)
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --probs a=oops" in err


@pytest.mark.parametrize("command", [["stationary"], ["verify"], ["mixing"]])
def test_probs_is_read_where_a_walk_runs(command, capsys):
    argv = [*command, "--family", "tsetlin:2", "--probs"]
    assert _outcome([*argv, "1=1/3,2=2/3"], capsys)[0] == 0
    code, out, err = _outcome([*argv, "a=oops"], capsys)
    assert (code, out, err) == (2, "", "error: bad probability 'oops'\n")


LIMIT_ZERO_SOURCES = [["--family", name] for name in sorted(families._FAMILIES)]
LIMIT_ZERO_SOURCES += [["--spec", str(Path(__file__).parent / "specs" / "maps4_s172.json")]]


@pytest.mark.parametrize("source", LIMIT_ZERO_SOURCES,
                         ids=[s[1] for s in LIMIT_ZERO_SOURCES[:-1]] + ["maps4_s172"])
@pytest.mark.parametrize("over", ["kr", "s"])
def test_limit_zero_selects_nothing(source, over, capsys):
    # one closed form gives every law, so the flag, still accepted, changes
    # no byte
    argv = ["stationary", *source, "--over", over]
    plain = _outcome(argv, capsys)
    assert plain[0] == 0 and plain[1] and plain[2] == ""
    assert _outcome(argv + ["--limit-zero"], capsys) == plain

