"""Per-layer spans for the traced run, recorded from outside the program.

The public functions of ``gramians``, ``balancing``, ``bounds``,
``spectransform`` and ``reach`` (and ``model.require_hurwitz``) are wrapped
wherever a redsafe module holds them, so the wrapper sits at every point the
verifier (or a layer calling another layer) looks the name up: ``redsafe.verifier.reach_lti``,
``redsafe.bounds.e2_simulation`` (the verifier calls it as ``bnd.<name>``),
``redsafe.balancing.gramians``, ``redsafe.bounds.solve_lyapunov`` and so on.
A span's self time is its duration minus the time of the spans it caused.
All patches are undone when the ``Tracer`` context exits.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs that get a span; the span is named "module.function".
#: Cheap helpers (augment, combine, default_step, ...) get no span; their
#: time stays in the verifier's self time.
SPANS = (
    ("model", "require_hurwitz"),
    ("gramians", "gramians"), ("gramians", "solve_lyapunov"),
    ("balancing", "balance"), ("balancing", "truncate"),
    ("bounds", "e1_theoretical"), ("bounds", "e1_optimization"),
    ("bounds", "e1_simulation"), ("bounds", "e2_theoretical"),
    ("bounds", "e2_simulation"),
    ("spectransform", "transform_spec"),
    ("reach", "reach_lti"), ("reach", "check_spec"),
    ("reach", "find_unsafe_witness"), ("reach", "simulate"),
)

#: Modules whose namespaces are searched for the functions above.
MODULES = ("__init__", "model", "gramians", "balancing", "bounds", "spectransform",
           "reach", "verifier")

#: Orders of the sweep's per-order breakdown, and the spans it covers.  These
#: times include child spans (e1_optimization's Lyapunov solves), as the
#: per-order targets of ROADMAP.md do.
ORDERS = (5, 10, 20, 40)
PER_ORDER = ("bounds.e1_optimization", "bounds.e1_simulation",
             "bounds.e2_simulation", "reach.reach_lti")

#: Self-time metrics reported per verify call, one per span.
SELF_TIME = tuple(f"{mod}.{fn}" for mod, fn in SPANS)


def _order(name: str, args) -> int | None:
    """The abstraction order a span works at: ``aug.k`` for bounds, the
    reduced system's ``n`` for reach."""
    if name.startswith("bounds.") and args and hasattr(args[0], "k"):
        return int(args[0].k)
    if name == "reach.reach_lti" and args:
        return int(args[0].n)
    return None


class Tracer:
    """Context manager that patches the layer functions and accumulates the
    spans of one verify call at a time (see :meth:`call`)."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.wall_s = 0.0
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.order_s: dict[tuple[str, int], float] = defaultdict(float)
        self.reach_steps = 0
        self.peak_generators = 0
        self.output_bytes = 0
        self.witnesses_found = 0

    def _observe(self, name: str, result) -> None:
        if name == "reach.reach_lti":
            self.reach_steps += len(result)
            self.peak_generators = max([self.peak_generators]
                                       + [s.outputs.generators.shape[1] for s in result])
            # computed, not measured: 8 bytes per entry of every step's
            # output generator matrix; the largest single result is kept
            size = sum(8 * s.outputs.generators.size for s in result)
            self.output_bytes = max(self.output_bytes, size)
        elif name == "reach.find_unsafe_witness" and result is not None:
            self.witnesses_found += 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                own = dt - self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.self_s[name] += own
                self.calls[name] += 1
                k = _order(name, args)
                if k is not None:
                    self.order_s[(name, k)] += dt
            self._observe(name, result)
            return result
        return span

    def __enter__(self) -> "Tracer":
        mods = [importlib.import_module("redsafe" if m == "__init__" else f"redsafe.{m}")
                for m in MODULES]
        for mod_name, fn_name in SPANS:
            # importlib, not attribute access: redsafe.gramians is the
            # function re-exported by __init__, not the module
            original = getattr(importlib.import_module(f"redsafe.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def call(self, verify, problem, opts):
        """Run one verify call with fresh counters; its wall time is left in
        ``wall_s``."""
        self.reset()
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return verify(problem, opts)
        finally:
            self.wall_s = time.perf_counter() - t0
            self.self_s["verifier"] = self.wall_s - self._stack.pop()

    def missing(self, layers) -> list[str]:
        """Expected spans that recorded no call."""
        return [name for name in layers if self.calls.get(name, 0) == 0]

    def metrics(self, verdict) -> dict[str, float]:
        """Per-layer metrics of the last verify call."""
        out = {f"{name}.s": self.self_s.get(name, 0.0) for name in SELF_TIME}
        out["gramians.solve_lyapunov.calls"] = self.calls.get("gramians.solve_lyapunov", 0)
        out["bounds.e2_simulation.calls"] = self.calls.get("bounds.e2_simulation", 0)
        out["bounds.skipped"] = sum(1 for entry in verdict.per_k_log for note in entry.notes
                                    if "skipped" in note or "truncated" in note)
        out["reach.reach_lti.steps"] = self.reach_steps
        out["reach.peak_generators"] = self.peak_generators
        out["reach.output_bytes"] = self.output_bytes
        out["reach.simulate.calls"] = self.calls.get("reach.simulate", 0)
        searches = self.calls.get("reach.find_unsafe_witness", 0)
        out["reach.witness_found_ratio"] = self.witnesses_found / searches if searches else 0.0
        out["verifier.self_s"] = self.self_s["verifier"]
        out["verifier.traced_verify_s"] = self.wall_s
        for name in PER_ORDER:
            for k in ORDERS:
                out[f"{name}.k{k}_s"] = self.order_s.get((name, k), 0.0)
        return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced calls of a run."""
    return {key: float(np.median([s[key] for s in samples])) for key in samples[0]}
