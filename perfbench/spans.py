"""Spans and counts recorded around the calls into each semiwalk module.

The program has no tracing of its own, so ``Tracer.install`` swaps the
module attributes the pipeline looks up for wrappers that time each call,
and ``uninstall`` puts the originals back.  Spans stay in memory as
(name, start, end, parent, request) and are written out at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import semiwalk.chains
import semiwalk.cli
import semiwalk.expansions
import semiwalk.simulate
import semiwalk.specio
import semiwalk.stationary
from semiwalk.ratfunc import RatF
from semiwalk.stationary import StationaryEngine

# The request span's own time is what the CLI does itself.
REQUEST, REQUEST_SELF = "cli.request", "cli.self"


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values if isinstance(v, Fraction)), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._child: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._input = None
        self.reset_pass()

    def reset_pass(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.request_time = 0.0
        self.covered_time = 0.0

    # -- spans ---------------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        start = perf_counter()
        self.spans.append([name, start, None, parent, self.request])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx, start

    def _close(self, idx: int, start: float) -> tuple[float, float]:
        end = perf_counter()
        self._stack.pop()
        child = self._child.pop()
        self.spans[idx][2] = end
        dur = end - start
        name = self.spans[idx][0]
        self.self_time[REQUEST_SELF if name == REQUEST else name] += dur - child
        if self._child:
            self._child[-1] += dur
        return dur, child

    def run_request(self, rid: str, fn, *args):
        self.request = rid
        self._input = None
        idx, start = self._open(REQUEST)
        try:
            return fn(*args)
        finally:
            dur, child = self._close(idx, start)
            self.request_time += dur
            self.covered_time += child
            self.request = None

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx, start = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def _count_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- what is wrapped -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        cli, st, ch, sim = (semiwalk.cli, semiwalk.stationary,
                            semiwalk.chains, semiwalk.simulate)

        # A wrapped name the program no longer has raises AttributeError, so
        # a rename breaks the traced run instead of zeroing its layer.
        def span(owner, attr, name, after=None):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

        def count(owner, attr, after):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(result, args, kwargs)
                return result
            self._patch(owner, attr, counted)

        def add(key, size):
            def after(result, args, kwargs):
                self.counts[key] += size(result, args)
            return after

        def loaded(S, args, kwargs):
            self._input = S
            self.counts["core.semigroup_elements"] += S.size

        def kernel(K, args, kwargs):
            if args and args[0] is self._input:
                self.counts["core.kernel_elements"] += len(K)
                self._input = None

        def result(res, args, kwargs):
            self.counts["stationary.result_states"] += len(res.entries)
            self._count_max("stationary.value_bits", _bits(res.entries.values()))

        def values(vals, args, kwargs):
            degree = max((max(len(v.num), len(v.den)) - 1 for v in vals.values()
                          if hasattr(v, "den")), default=0)
            self._count_max("ratfunc.max_degree", degree)

        count(cli, "_load", loaded)
        span(cli, "build_family", "families.build")
        span(semiwalk.specio, "semigroup_from_transformations",
             "core.from_transformations")
        for mod in (cli, st, ch, sim):
            span(mod, "minimal_ideal", "core.minimal_ideal", kernel)
            span(mod, "karnofsky_rhodes", "expansions.kr",
                 add("expansions.kr_vertices", lambda kr, a: kr.graph.n))
        for mod in (cli, st, ch):
            span(mod, "mccammond", "expansions.mc",
                 add("expansions.mc_vertices", lambda mc, a: mc.graph.n))
        for attr in ("right_cayley", "sccs", "transition_edges"):
            span(semiwalk.expansions, attr, "graphs.cayley")
        for mod in (cli, st):
            count(mod, "stationary_kr", result)
        for attr in ("_stationary_kr_direct", "_stationary_kr_limit"):
            span(st, attr, "stationary.assemble")
        span(StationaryEngine, "__init__", "stationary.engine_init",
             add("stationary.normal_forms", lambda _, a: len(a[0].normal_forms)))
        # Named by weight ring: exact Fraction weights, or the limit path's
        # functions of t, whatever type a later version uses for them.
        span(StationaryEngine, "values",
             lambda a: "stationary.values" if isinstance(a[1][0], Fraction)
             else "ratfunc.values", values)
        span(RatF, "limit_at_zero", "ratfunc.limit")
        span(StationaryEngine, "expression", "stationary.expression")
        span(st, "zimin_rewrite", "kleene.rewrite")
        span(st, "pretty", "kleene.pretty",
             add("kleene.expr_chars", lambda text, a: len(text)))
        span(cli, "build_chain", "chains.build_chain",
             add("chains.states", lambda chain, a: chain.n))
        span(cli, "stationary_oracle", "chains.oracle")
        span(cli, "check_lumping", "chains.lumping")
        span(cli, "simulate_semaphore", "simulate.walk",
             add("simulate.steps", lambda emp, a: emp.total))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": rid}) + "\n")
