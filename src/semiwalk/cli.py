"""Command-line surface.

Subcommands: build, expand, stationary, verify, mixing.  All numeric
output is exact fraction text unless --float is given.  Identical invocations
(including --seed) produce byte-identical output.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, 141 (128 + SIGPIPE) when
the reader of stdout closes it early, as in ``semiwalk ... | head -1``.

``main(argv)`` may be called repeatedly in one process.  It builds its
argument parser on the first call and reuses it; parsing makes a fresh
namespace each time, so no option carries over to a later call.  Nothing
else is kept between calls: every semigroup, expansion and law is built
afresh for each.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import math
import os
import sys
from fractions import Fraction

from .chains import (
    NotConverged,
    build_chain,
    certify,
    check_lumping,
    mixing_bound,
    stationary_oracle,
    tv_distance,
)
from .core import SemigroupError, kernel_is_left_zero, minimal_ideal
from .expansions import karnofsky_rhodes, mccammond
from .families import parse_family, build as build_family
from .graphs import right_cayley, to_dot
from .kleene import DivergentStar
from .simulate import simulate_semaphore
from .specio import load_spec
from .stationary import (
    expressions_report,
    normalization_check,
    parse_probs,
    stationary_kr,
    stationary_law,
    uniform_probs,
    walk_expressions,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
PIPE_CLOSED = 128 + 13  # the status of a writer killed by SIGPIPE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up at call time, so a command replaced after the parser was
    # built is the one that runs
    commands = {"build": cmd_build, "expand": cmd_expand,
                "stationary": cmd_stationary, "verify": cmd_verify,
                "mixing": cmd_mixing}
    # The expansions are large heaps of acyclic objects that the cyclic
    # collector would rescan as they grow, finding nothing to free.  No
    # command makes reference cycles that grow with its input, so the
    # collector is paused for the command and restored as the caller had it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader has gone: print nothing, exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return PIPE_CLOSED
    except (SemigroupError, DivergentStar, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if was_enabled:
            gc.enable()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones,
    which parse with it and change nothing on it."""
    p = argparse.ArgumentParser(
        prog="semiwalk",
        description="Exact stationary distributions of semigroup random walks.",
    )
    sub = p.add_subparsers(required=True)

    def add_command(name, summary, walk=False):
        """A subcommand with the input options every command takes, and
        with ``walk`` the letters' weights; the parsed namespace names it
        in ``command``."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(command=name)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--family", help="built-in family, e.g. tsetlin:3 or rees_B:2")
        g.add_argument("--spec", help="path to a JSON semigroup spec")
        if walk:
            sp.add_argument("--probs", help="exact probabilities, e.g. a=1/2,b=1/2")
        return sp

    b = add_command("build", "construct a semigroup and summarize it")
    b.add_argument("--json", action="store_true", help="JSON summary")

    e = add_command("expand", "expansion graphs and their sizes")
    which = e.add_mutually_exclusive_group(required=True)
    which.add_argument("--rcay", action="store_true", help="right Cayley graph")
    which.add_argument("--kr", action="store_true", help="transition-edge expansion")
    which.add_argument("--mc", action="store_true", help="simple-path expansion of it")
    e.add_argument("--format", choices=("text", "dot"), default="text")
    e.add_argument("--out", help="write output to this file instead of stdout")

    s = add_command("stationary", "exact stationary distribution", walk=True)
    s.add_argument("--over", choices=("kr", "s"), default="kr",
                   help="states of the expansion (kr) or of the semigroup (s)")
    s.add_argument("--limit-zero", action="store_true",
                   help="accepted and ignored: one closed form, the adjoined-"
                        "zero limit, gives the law on every minimal ideal")
    s.add_argument("--expressions", action="store_true",
                   help="include the walk-language expression per normal form")
    s.add_argument("--format", choices=("json", "csv", "text"), default="text")
    s.add_argument("--float", action="store_true", dest="as_float")

    v = add_command("verify", "cross-check the exact engine", walk=True)
    v.add_argument("--simulate", action="store_true", help="add a Monte Carlo check")
    v.add_argument("--walkers", type=int, default=20)
    v.add_argument("--steps", type=int, default=50_000,
                   help="steps per walker for --simulate")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--tv-tol", type=float,
                   help="TV tolerance for --simulate; default "
                        "sqrt(states / (walkers * steps)), to 4 decimals")

    add_command("mixing", "steps until the first-entry tail is at most 1/e", walk=True)
    return p


def _load(args):
    if args.family:
        return build_family(parse_family(args.family))
    return load_spec(args.spec)


def _probs(args, S):
    if args.probs:
        return parse_probs(args.probs, S)
    return uniform_probs(S)


def _frac(v: Fraction, as_float: bool = False) -> str:
    return repr(float(v)) if as_float else str(v)  # n/d, or n when d = 1


def _formatted(law, as_float: bool):
    """(name, text) per (name, mass) pair of a law, each mass object
    formatted once: the walk makes equal masses one object, and a law has
    few (flat_tower:2,3: 48,620 states, 333 masses).  Keyed by identity,
    as hashing a Fraction costs more than formatting it; ``held`` keeps
    each mass alive, so no other object takes its id."""
    text: dict[int, str] = {}
    held = []
    for name, v in law:
        t = text.get(id(v))
        if t is None:
            t = text[id(v)] = _frac(v, as_float)
            held.append(v)
        yield name, t


def cmd_build(args) -> int:
    S = _load(args)
    K = minimal_ideal(S)
    names = sorted(S.element_name(e) for e in K)
    if args.json:
        print(json.dumps({
            "size": S.size,
            "generators": S.gen_names,
            "minimal_ideal": names,
            "left_zero": kernel_is_left_zero(S, K),
        }, ensure_ascii=False))
    else:
        lz = "yes" if kernel_is_left_zero(S, K) else "no"
        print(f"|S|={S.size}, K={{{','.join(names)}}}, left-zero: {lz}")
    return 0


def cmd_expand(args) -> int:
    S = _load(args)
    tree = None
    if args.rcay:
        g = right_cayley(S)
    elif args.kr:
        g = karnofsky_rhodes(S).graph
    else:
        mc = mccammond(karnofsky_rhodes(S))
        g, tree = mc.graph, mc.tree_edges
    if args.format == "dot":
        text = to_dot(g, tree=tree)
    else:
        text = f"vertices: {g.n}\nedges: {g.n_edges()}\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stationary(args) -> int:
    S = _load(args)
    xs = _probs(args, S)
    # Every cap is checked before the first line is printed, so a cap hit
    # leaves stdout empty: the law's before stationary_law returns, the
    # expressions' as walk_expressions builds them all.  Then each line is
    # written as it is made: no law or expression text is held whole.
    rows = _formatted(stationary_law(S, xs, args.over), args.as_float)
    if args.format == "json":  # one JSON value, built whole
        law = dict(rows)
        # with expressions, one object holding both, so stdout stays JSON
        print(json.dumps({"law": law, "expressions": expressions_report(S)}
                         if args.expressions else law, ensure_ascii=False))
        return 0
    forms = walk_expressions(S) if args.expressions else ()
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("state", "probability"))
        writer.writerows(rows)
    else:
        sys.stdout.writelines(f"{k}: {v}\n" for k, v in rows)
    if args.expressions:
        print("# walk languages per normal form")
        sys.stdout.writelines(f"{k}: {v}\n" for k, v in forms)
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--walkers", args.walkers), ("--steps", args.steps)):
        if value < 1:
            raise SemigroupError(f"{flag} must be at least 1, got {value}")
    if args.tv_tol is not None and not args.tv_tol >= 0:  # also rejects NaN
        raise SemigroupError(f"--tv-tol must be at least 0, got {args.tv_tol}")
    S = _load(args)
    xs = _probs(args, S)
    failures, lines = [], []

    def check(name: str, ok: bool, label: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(name)

    force = not kernel_is_left_zero(S, minimal_ideal(S))
    result = stationary_kr(S, xs)
    check("normalization", normalization_check(result),
          "normalization (exact sum = 1)")

    chain = build_chain(S, xs)
    ok = certify(result, chain)
    # direct mode prints the certificate's line only when it fails, so a
    # passing run prints the oracle, lumping and simulation lines alone
    if force or not ok:
        check("certificate", ok,
              "exact certificate (pi T = pi on the expansion ideal chain)")

    if not force:
        try:
            oracle = stationary_oracle(chain)
        except NotConverged as exc:  # a failed check: the others still run
            check("oracle", False, f"power-iteration oracle ({exc})")
        else:
            diff = max(
                abs(float(v) - oracle.get(k, 0.0)) for k, v in result.entries.items()
            )
            check("oracle", diff < 1e-10, f"power-iteration oracle (max diff {diff:.2e})")

        # each chain state's class is the element under its vertex
        image = karnofsky_rhodes(S).s_image
        check("lumping", check_lumping(chain, [image[v] for v in chain.states]),
              "lumping expansion -> semigroup")

        if args.simulate:
            emp = simulate_semaphore(
                S, xs, walkers=args.walkers, steps=args.steps, seed=args.seed
            )
            tv = tv_distance(emp, {k: float(v) for k, v in result.entries.items()})
            tol = args.tv_tol
            if tol is None:
                # Twice the bound sqrt(n/N)/2 on E[TV] for N independent
                # samples over n states; walk steps are correlated samples.
                tol = round(math.sqrt(chain.n / (args.walkers * args.steps)), 4)
            check("simulation", tv <= tol,
                  f"simulation TV {tv:.4f} <= {tol} (seed {args.seed})")
    else:
        lines.append("SKIP oracle/lumping/simulation: minimal ideal is not "
                     "left zero (limit-mode result)")

    for line in lines:
        print(line)
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return CHECK_FAILED
    print("all checks passed")
    return 0


def cmd_mixing(args) -> int:
    S = _load(args)
    mb = mixing_bound(S, _probs(args, S))
    print(f"k: {mb.k}")
    print(f"tail: {_frac(mb.tail)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
