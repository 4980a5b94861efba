"""Span tracing of hamcirc's public functions, installed from outside.

Each traced function is replaced, wherever a hamcirc module has bound it
(its import sites), by a wrapper that records a span: name, start, end,
the enclosing span and the CLI command it belongs to.  Spans stay in memory
and are written out when the run ends.  Methods of ``Multigraph`` are
wrapped on the class.  Nothing inside the package changes.

Internals of ``hamcirc.words`` (``word_key``, ``_check_reduced``) are called
millions of times per run; wrapping them from outside would dominate the
timings, so they wait for tracing inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from inputs import fp_normal_forms


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    command: int  # id of the CLI command that caused it


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans.  The
    wrappers run on one thread, so children of one span never overlap."""
    out = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.end - sp.start
    return out


# Unit of every per-layer metric, in report order.  BENCHMARK.json is the one
# list of them; a name ending in .calls, .self_s or .s is read off the spans
# of the function it names.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.command = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer.counts, exc)
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.command)
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function at every hamcirc import site."""
        from hamcirc import (
            automorphisms,
            certifier,
            cli,
            freeproduct,
            minimize,
            multigraph,
            outerplanar,
            quotients,
        )

        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "hamcirc" or key.startswith("hamcirc.")
        ]
        truncation_sig = inspect.signature(freeproduct.build_truncation)

        def verdict(counts, args, kwargs, cert):
            counts[f"certifier.verdict.{cert.verdict.lower()}"] += 1

        def orbit(counts, args, kwargs, res):
            counts["minimize.minimal_orbit.words"] += len(res.parents)
            counts["minimize.minimal_orbit.hits"] += res.hit is not None

        def orbit_error(counts, exc):
            if isinstance(exc, minimize.OrbitCapExceeded):
                counts["minimize.orbit_cap_hits"] += 1

        def moves(counts, args, kwargs, res):
            counts["automorphisms.chain_moves.moves"] += len(res)

        def quotient(counts, args, kwargs, q):
            counts["quotients.build_quotient_local.classes"] += q.graph.n_vertices
            counts["quotients.build_quotient_local.edges"] += q.graph.n_edges

        def outerplanar_size(counts, args, kwargs, res):
            counts["multigraph.is_outerplanar.vertices"] += args[0].n_vertices

        def dot(counts, args, kwargs, text):
            counts["multigraph.to_dot.bytes"] += len(text.encode("utf-8"))

        def truncation(counts, args, kwargs, q):
            bound = truncation_sig.bind(*args, **kwargs).arguments
            counts["freeproduct.build_truncation.classes"] += q.graph.n_vertices
            counts["freeproduct.build_truncation.edges"] += q.graph.n_edges
            counts["freeproduct.normal_forms"] += fp_normal_forms(
                bound["m"], bound["n"], bound["depth"] + 1
            )

        functions = [
            ("cli.main", cli.main, None, None),
            ("certifier.certify", certifier.certify, verdict, None),
            ("certifier.classify", certifier.classify, None, None),
            ("minimize.whitehead_minimize", minimize.whitehead_minimize, None, None),
            ("minimize.minimal_orbit", minimize.minimal_orbit, orbit, orbit_error),
            ("automorphisms.chain_moves", automorphisms.chain_moves, moves, None),
            ("quotients.build_quotient_local", quotients.build_quotient_local, quotient, None),
            ("multigraph.is_outerplanar", multigraph.is_outerplanar, outerplanar_size, None),
            ("freeproduct.build_truncation", freeproduct.build_truncation, truncation, None),
            (
                "outerplanar.verify_outerplanar_quotient",
                outerplanar.verify_outerplanar_quotient,
                None,
                None,
            ),
        ]
        for name, fn, on_result, on_error in functions:
            wrapper = self.wrap(name, fn, on_result, on_error)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)

        graph = multigraph.Multigraph
        for name, attr, on_result in (
            ("multigraph.is_cycle", "is_cycle", None),
            ("multigraph.is_connected", "is_connected", None),
            ("multigraph.to_dot", "to_dot", dot),
        ):
            self._replace(graph, attr, self.wrap(name, getattr(graph, attr), on_result))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp._asdict()) + "\n")

    def metrics(self, units_per_s: float) -> dict[str, float]:
        """Every per-layer metric; layers a workload never reaches read 0."""
        spans = [sp for sp in self.spans if sp is not None]
        own = self_times(spans)
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for sp, s in zip(spans, own):
            calls[sp.name] += 1
            total[sp.name] += sp.end - sp.start
            self_s[sp.name] += s
        c = self.counts
        orbit_calls = calls["minimize.minimal_orbit"]
        q_s = total["quotients.build_quotient_local"]
        forms = c["freeproduct.normal_forms"]
        derived = {
            "minimize.minimal_orbit.early_stop_ratio": (
                c["minimize.minimal_orbit.hits"] / orbit_calls if orbit_calls else 0.0
            ),
            "quotients.build_quotient_local.classes_per_s": (
                c["quotients.build_quotient_local.classes"] / q_s if q_s else 0.0
            ),
            "freeproduct.class_yield": (
                c["freeproduct.build_truncation.classes"] / forms if forms else 0.0
            ),
            "trace.units_per_s": units_per_s,
        }
        by_what = {"calls": calls, "self_s": self_s, "s": total}
        out: dict[str, float] = {}
        for name in PER_LAYER:
            span, _, what = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif what in by_what:
                out[name] = by_what[what][span]
            else:  # a count kept by the result hooks in install()
                out[name] = c[name]
        return out
