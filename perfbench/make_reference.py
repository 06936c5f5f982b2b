"""Record the validated reference outputs of the benchmark's requests.

    python3 perfbench/make_reference.py

Runs every fixed request and every class of random draw once, checks each
output with ``validate`` (checks that do not use the stationary engine),
and writes ``reference.json`` beside this file: the SHA-256 of stdout per
request, its size counts, and for the random pool the run time of each
class (scaled to the reference speed by ``speed.Meter``, mean of two runs),
from which ``workloads.strata`` ranks the classes by cost.  Run it only at
a commit whose output is trusted; a later commit must reproduce these
digests byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from semiwalk.cli import main  # noqa: E402
from semiwalk.core import kernel_is_left_zero, minimal_ideal  # noqa: E402
from semiwalk.families import build, parse_family  # noqa: E402
from semiwalk.specio import load_spec  # noqa: E402
from semiwalk.stationary import uniform_probs  # noqa: E402

import validate  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Meter  # noqa: E402


def run(argv: list[str], tracer: Tracer | None = None) -> tuple[int, str, float]:
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with Meter() as meter:
            rc = tracer.run_request("ref", main, argv) if tracer else main(argv)
    return rc, out.getvalue(), meter.scaled


def check(argv: list[str], stdout: str) -> dict:
    """Validate one output; returns what the checks established."""
    if argv[0] == "verify":
        validate.check_verify(stdout)
        return {"verify": "all checks passed"}
    family = argv[argv.index("--family") + 1] if "--family" in argv else None
    S = build(parse_family(family)) if family else load_spec(argv[argv.index("--spec") + 1])
    xs = uniform_probs(S)
    lines = stdout.splitlines()
    expr_lines = []
    if "--expressions" in argv:
        cut = lines.index(validate.EXPR_HEADER)
        lines, expr_lines = lines[:cut], lines[cut + 1:]
    pi = validate.parse_values(lines)
    unique = kernel_is_left_zero(S, minimal_ideal(S))
    if "--over" in argv:
        kr_pi = validate.parse_values(run(argv[:argv.index("--over")])[1].splitlines())
        validate.certify(S, xs, kr_pi, unique)
        if validate.lumped(S, kr_pi) != pi:
            raise validate.Invalid("not the lumping of the expansion-level law")
        return {"lumping_of_certified": True}
    done = {"certificate_states": validate.certify(S, xs, pi, unique),
            "single_closed_class": unique,
            "closed_form": validate.check_closed_form(family, xs, pi)}
    if expr_lines:
        validate.check_expressions(S, xs, pi, expr_lines)
        done["expressions_sum"] = True
    return done


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(name: str, argv: list[str], counts: bool = True) -> dict:
    rc, stdout, seconds = run(argv)
    if rc != 0:
        raise SystemExit(f"{name}: exit code {rc}")
    entry = {"name": name, "argv": argv, "sha256": digest(stdout),
             "lines": len(stdout.splitlines()), "checks": check(argv, stdout),
             "seconds": round(seconds, 4)}
    print(f"{name}: {seconds:.2f} s {entry['checks']}", flush=True)
    if counts:
        tracer = Tracer()
        tracer.install()
        try:
            _, traced, _ = run(argv, tracer)
        finally:
            tracer.uninstall()
        if traced != stdout:
            raise SystemExit(f"{name}: traced output differs")
        entry["counts"] = dict(sorted(tracer.counts.items()))
    return entry


def request_name(argv: list[str]) -> str:
    extra = argv[3:] if argv[0] == "stationary" else ["--simulate"]
    return " ".join([argv[0], argv[2]] + extra)


def fixed_requests() -> dict[str, list[dict]]:
    fixed: dict[str, list[dict]] = {}
    fixed["exact_ladder"] = [record(request_name(a), a) for a in wl.EXACT_LADDER]
    fixed["limit_random"] = [record(request_name(a), a) for a in wl.LIMIT_FIXTURES]
    states = {e["argv"][2]: e["lines"] for e in fixed["exact_ladder"]
              if e["argv"][3:] == []}
    check_argvs = [["stationary", "--family", f, "--expressions"]
                   for f in wl.EXPRESSION_FAMILIES]
    check_argvs += [wl.verify_request(f, states[f]) for f in wl.VERIFY_FAMILIES]
    fixed["check"] = [record(request_name(a), a) for a in check_argvs]
    return fixed


def pool() -> dict[str, dict]:
    classes: dict[str, tuple] = {}
    perms = list(itertools.permutations(range(wl.STATES)))
    maps_all = list(itertools.product(range(wl.STATES), repeat=wl.STATES))
    for maps in itertools.product(maps_all, repeat=len(wl.GENERATORS)):
        key = wl.class_key(maps)
        if key not in classes and wl.keep_draw(maps):
            classes[key] = maps
    path = os.path.join(HERE, "_out", "pool_spec.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    out = {}
    for i, (key, maps) in enumerate(sorted(classes.items())):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(wl.spec_of(maps), fh)
        entry = record(f"random:{key}", ["stationary", "--spec", path], counts=False)
        # Renaming the states must not change the output.
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(wl.spec_of([wl._conjugate(m, perms[3 + i % 3]) for m in maps]), fh)
        _, renamed, seconds = run(["stationary", "--spec", path])
        if digest(renamed) != entry["sha256"]:
            raise SystemExit(f"{key}: renaming the states changed the output")
        out[key] = {k: entry[k] for k in ("sha256", "lines")}
        out[key]["seconds"] = round((entry["seconds"] + seconds) / 2, 4)
    if len(set(wl.strata(out).values())) != wl.DRAWS:
        raise SystemExit("a cost stratum is empty")
    return dict(sorted(out.items()))


def main_() -> None:
    reference = {"fixed": fixed_requests(), "pool": pool()}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main_()
