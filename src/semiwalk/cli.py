"""Command-line surface.

Subcommands: build, expand, stationary, verify.  All numeric output is
exact fraction text unless --float is given.  Identical invocations
(including --seed) produce byte-identical output.  Exit codes: 0 success,
1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from fractions import Fraction

from .chains import (
    build_chain,
    certify,
    check_lumping,
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
    StationaryEngine,
    expressions_report,
    normalization_check,
    parse_probs,
    stationary_kr,
    stationary_s,
    uniform_probs,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The expansions are large heaps of acyclic objects that the cyclic
    # collector would rescan as they grow, finding nothing to free.  No
    # command makes reference cycles that grow with its input, so the
    # collector is paused for the command and restored as the caller had it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (SemigroupError, DivergentStar, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if was_enabled:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiwalk",
        description="Exact stationary distributions of semigroup random walks.",
    )
    sub = p.add_subparsers(required=True)

    def add_input(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--family", help="built-in family, e.g. tsetlin:3 or rees_B:2")
        g.add_argument("--spec", help="path to a JSON semigroup spec")
        sp.add_argument("--probs", help="exact probabilities, e.g. a=1/2,b=1/2")

    b = sub.add_parser("build", help="construct a semigroup and summarize it")
    add_input(b)
    b.add_argument("--json", action="store_true", help="JSON summary")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("expand", help="expansion graphs and their sizes")
    add_input(e)
    which = e.add_mutually_exclusive_group(required=True)
    which.add_argument("--rcay", action="store_true", help="right Cayley graph")
    which.add_argument("--kr", action="store_true", help="transition-edge expansion")
    which.add_argument("--mc", action="store_true", help="simple-path expansion of it")
    e.add_argument("--format", choices=("text", "dot"), default="text")
    e.add_argument("--out", help="write output to this file instead of stdout")
    e.set_defaults(func=cmd_expand)

    s = sub.add_parser("stationary", help="exact stationary distribution")
    add_input(s)
    s.add_argument("--over", choices=("kr", "s"), default="kr",
                   help="states of the expansion (kr) or of the semigroup (s)")
    s.add_argument("--limit-zero", action="store_true",
                   help="force the adjoined-zero limit pipeline")
    s.add_argument("--expressions", action="store_true",
                   help="include the walk-language expression per normal form")
    s.add_argument("--format", choices=("json", "csv", "text"), default="text")
    s.add_argument("--float", action="store_true", dest="as_float")
    s.set_defaults(func=cmd_stationary)

    v = sub.add_parser("verify", help="cross-check the exact engine")
    add_input(v)
    v.add_argument("--simulate", action="store_true", help="add a Monte Carlo check")
    v.add_argument("--walkers", type=int, default=20)
    v.add_argument("--steps", type=int, default=50_000,
                   help="steps per walker for --simulate")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--tv-tol", type=float,
                   help="TV tolerance for --simulate; default "
                        "sqrt(states / (walkers * steps)), to 4 decimals")
    v.set_defaults(func=cmd_verify)
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
    if as_float:
        return repr(float(v))
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


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
    if args.rcay:
        g = right_cayley(S)
        tree = None
    elif args.kr:
        g = karnofsky_rhodes(S).graph
        tree = None
    else:
        mc = mccammond(karnofsky_rhodes(S))
        g = mc.graph
        tree = mc.tree_edges
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
    # one engine for the law and the expressions, in either mode and space
    engine = StationaryEngine(S) if args.expressions else None
    if args.over == "s":
        result = stationary_s(S, xs, force_limit=args.limit_zero, engine=engine)
    else:
        result = stationary_kr(S, xs, force_limit=args.limit_zero, engine=engine)
    rows = [(k, _frac(v, args.as_float)) for k, v in result.entries.items()]
    # built before anything is printed, so a cap it hits leaves stdout empty
    report = expressions_report(S, engine) if args.expressions else {}
    if args.format == "json":
        print(json.dumps(dict(rows), ensure_ascii=False))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("state", "probability"))
        writer.writerows(rows)
    else:
        for k, v in rows:
            print(f"{k}: {v}")
    if args.expressions:
        print("# walk languages per normal form")
        for k, v in report.items():
            print(f"{k}: {v}")
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
    ok = certify(S, xs, result, chain)
    # direct mode prints the certificate's line only when it fails, so a
    # passing run prints the oracle, lumping and simulation lines alone
    if force or not ok:
        check("certificate", ok,
              "exact certificate (pi T = pi on the expansion ideal chain)")

    if not force:
        oracle = stationary_oracle(chain)
        diff = max(
            abs(float(v) - oracle.get(k, 0.0)) for k, v in result.entries.items()
        )
        check("oracle", diff < 1e-10, f"power-iteration oracle (max diff {diff:.2e})")

        classes = {
            lab: S.element_name(result.key_info[lab].element)
            for lab in chain.labels
        }
        check("lumping", check_lumping(chain, classes),
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


if __name__ == "__main__":
    sys.exit(main())
