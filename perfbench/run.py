"""semiwalk benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload exact_ladder --seed 1 --seconds 34 --trace 0

Runs passes over the workload's request list through ``semiwalk.cli.main``
until the next pass would end after ``--seconds``; every run makes at
least one pass.  Each request's stdout must match the SHA-256 recorded in
``reference.json``, and its exit code must be 0.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A human-readable summary, with sample counts and the unscaled times, goes
to stderr.

Every time reported is scaled to a reference host speed by ``speed.Meter``:
the request's time times the reference probe time over the probe times
measured around and during the request.

With ``--trace 1`` passes alternate untraced and traced, at least
TRACE_PAIRS of each; per-layer self times come from the traced passes, and
the difference between the two kinds of pass is the tracing overhead.
Spans are written to ``perfbench/_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")
SETUP_PROBES = 5
TRACE_PAIRS = 2

DURATIONS = [
    "families.build", "core.from_transformations", "core.minimal_ideal",
    "graphs.cayley", "expansions.kr", "expansions.mc",
    "stationary.engine_init", "stationary.values", "stationary.assemble",
    "ratfunc.values", "ratfunc.limit", "stationary.expression",
    "kleene.rewrite", "kleene.pretty", "chains.build_chain", "chains.oracle",
    "chains.lumping", "simulate.walk", "cli.self",
]
COUNTS = [
    "core.semigroup_elements", "core.kernel_elements",
    "expansions.kr_vertices", "expansions.mc_vertices",
    "stationary.normal_forms", "stationary.result_states",
    "stationary.value_bits", "ratfunc.max_degree", "kleene.expr_chars",
    "chains.states",
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("exact_ladder", "limit_random", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="set up into DIR, print 'ready' and exit (internal)")
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: str) -> list[dict]:
    """Everything before the first request: import and input generation."""
    sys.path.insert(0, SRC)
    import semiwalk  # noqa: F401
    import workloads
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return workloads.make_requests(workload, seed, reference, workdir)


def setup_probe(args) -> None:
    """Set up in this fresh interpreter; report the host speed around it."""
    with Meter() as meter:
        setup(args.workload, args.seed, args.setup_probe)
    print(f"ready {meter.factor!r} {meter.probe_time!r}", flush=True)


def setup_seconds(args) -> list[float]:
    """Interpreter start to requests ready, in fresh interpreters, scaled."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(OUT, f"probe-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe", probe_dir]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
        shutil.rmtree(probe_dir, ignore_errors=True)
        words = line.split()
        if proc.returncode != 0 or words[:1] != ["ready"]:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        factor, probe_time = map(float, words[1:])
        samples.append((wall - probe_time) * factor)
    return samples


def run_request(main, req: dict, tracer) -> tuple[Meter, str | None]:
    """The request's meter and failure reason (None when the output matches)."""
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with Meter() as meter:
            try:
                if tracer is None:
                    rc = main(req["argv"])
                else:
                    rc = tracer.run_request(req["name"], main, req["argv"])
            except (Exception, SystemExit) as exc:
                rc = f"raised {exc!r}"
    if rc != 0:
        return meter, f"exit {rc}"
    if hashlib.sha256(out.getvalue().encode()).hexdigest() != req["sha256"]:
        return meter, "output differs from the reference"
    return meter, None


def run_pass(main, requests: list[dict], tracer) -> dict:
    """One pass; traced self times are scaled request by request."""
    self_time: dict[str, float] = {}
    if tracer is not None:
        tracer.reset_pass()
        tracer.install()
    try:
        latencies, raw, failures = [], [], []
        for req in requests:
            before = dict(tracer.self_time) if tracer is not None else {}
            meter, reason = run_request(main, req, tracer)
            latencies.append(meter.scaled)
            raw.append(meter.elapsed)
            if reason is not None:
                failures.append(f"{req['name']}: {reason}")
            if tracer is not None:
                for name, total in tracer.self_time.items():
                    self_time[name] = self_time.get(name, 0.0) + (
                        total - before.get(name, 0.0)) * meter.factor
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"latencies": latencies, "failures": failures,
              "wall": sum(latencies), "raw_wall": sum(raw)}
    if tracer is not None:
        result.update(self_time=self_time, counts=dict(tracer.counts),
                      request_time=tracer.request_time,
                      covered_time=tracer.covered_time)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, str]:
    latencies = [x for p in passes for x in p["latencies"]]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p["wall"] for p in passes), "s"),
        "request_p50_s": metric(deciles[4], "s"),
        "request_p90_s": metric(deciles[8], "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (f"setup_s over {len(setup)} fresh interpreters; wall_s over "
            f"{len(passes)} passes; request quantiles over {len(latencies)} "
            f"requests; unscaled median pass "
            f"{statistics.median(p['raw_wall'] for p in passes):.4g} s")
    return metrics, note


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if "counts" in p]
    untraced = [p for p in passes if "counts" not in p]
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            raise RuntimeError("size counts differ between passes of one run")
    metrics = {}
    for name in DURATIONS:
        metrics[f"{name}_s"] = metric(
            statistics.median(p["self_time"].get(name, 0.0) for p in traced), "s")
    for name in COUNTS:
        metrics[name] = metric(counts.get(name, 0), "count")
    steps = counts.get("simulate.steps", 0)
    metrics["simulate.steps_per_s"] = metric(statistics.median(
        steps / p["self_time"]["simulate.walk"] if steps else 0.0
        for p in traced), "1/s")
    metrics["trace.coverage"] = metric(
        sum(p["covered_time"] for p in traced)
        / sum(p["request_time"] for p in traced), "ratio")
    metrics["trace.overhead_s"] = metric(
        statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in untraced), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semiwalk", "__init__.py")):
        print(f"error: semiwalk sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        requests = setup(args.workload, args.seed, workdir)
        from semiwalk.cli import main as cli_main
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        setup_samples = [] if args.trace else setup_seconds(args)

        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = args.trace and len(passes) % 2 == 1
            passes.append(run_pass(cli_main, requests, tracer if traced else None))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["raw_wall"] for p in passes)
            enough = len(passes) >= (2 * TRACE_PAIRS if args.trace else 1)
            if enough and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    for f in sorted(set(failures)):
        print(f"FAILED {f}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes)
        note = (f"per-layer self times: median over {len(passes) // 2} traced "
                f"passes; trace.overhead_s against {(len(passes) + 1) // 2} "
                f"untraced passes")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics, note = end_to_end(passes, setup_samples)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(requests)} requests per pass; {note}; "
          f"fail_ratio {len(failures)}/{attempted}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
