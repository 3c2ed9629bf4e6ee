"""Per-layer tracing from outside the library.

``Tracer.installed()`` replaces public functions of each layer at the
module attributes their callers look up (``norms.integrate``,
``special.integrate``, ``symbols.damping_a``, ``modes.sinc``, ...) with
wrappers that open a span, and puts the originals back on exit.  Spans
are kept in memory with their parent, so a layer's self time is its
spans' durations minus the time of their child spans.  The integrand
handed to ``integrate`` is wrapped too: each call of it is one batch,
and its array size is the number of abscissae evaluated.  ``panels_used``
and ``converged`` come from the returned ``QuadratureResult``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from logdamp import modes, norms, special, symbols

# Position of the radius argument of each traced function, if any.
SYMBOLS_FNS = {"damping_a": 0, "ratio_g": 0, "oscillation_b": 0,
               "b_minus_r": 0, "inv_b_minus_inv_r": 0, "g_peak": None,
               "g_level_radius": 0}
MODES_FNS = {"mode_value": 1, "mode_value_dt": 1, "u_hat": 1, "u_hat_t": 1,
             "profile_hat": 1, "k_terms": 1, "decompose_data": None,
             "remainder_terms": 1}
SPECIAL_FNS = ("I_p", "J_p", "J_p_direct", "I_p_recurrence",
               "hyp2f1_special", "gamma_ratio", "middle_band")
NORMS_FNS = ("l2_norm", "energy", "residual_norm", "M_integral",
             "log_operator_norms")
MODES_SELF = ("mode_value", "mode_value_dt", "profile_hat", "k_terms")


class Span:
    __slots__ = ("name", "layer", "parent", "root", "size", "start", "end",
                 "child_s", "panels", "converged", "cap_hit")

    def __init__(self, name, layer, parent, size):
        self.name, self.layer = name, layer
        self.parent, self.size = parent, size
        self.root = parent.root if parent is not None else self
        self.child_s = 0.0
        self.panels = None
        self.converged = self.cap_hit = None
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def entry(self) -> bool:
        """True when this span is where a call crosses into its layer."""
        return self.parent is None or self.parent.layer != self.layer


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2] or "bench"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name, layer, size) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None,
                    size)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds

    def _wrap(self, fn, name, layer, arg):
        def traced(*args, **kwargs):
            size = int(np.size(args[arg])) if arg is not None else 0
            span = self._open(name, layer, size)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _wrap_integrate(self, integrate):
        def traced(f, spec):
            owner = _layer_of(f)

            def integrand(x):
                span = self._open("integrand", owner, int(np.size(x)))
                try:
                    return f(x)
                finally:
                    self._close(span)

            span = self._open("integrate", "quadrature", 0)
            try:
                res = integrate(integrand, spec)
            finally:
                self._close(span)
            span.panels = res.panels_used
            span.converged = res.converged
            span.cap_hit = res.panels_used >= spec.max_panels
            return res
        return traced

    def _sites(self):
        """(module, attribute, replacement) for every traced call site."""
        for name, arg in SYMBOLS_FNS.items():
            fn = getattr(symbols, name)
            yield symbols, name, self._wrap(fn, name, "symbols", arg)
        for name, arg in MODES_FNS.items():
            fn = getattr(modes, name)
            yield modes, name, self._wrap(fn, name, "modes", arg)
        for mod in (modes, norms):
            yield mod, "sinc", self._wrap(mod.sinc, "sinc", "stable", 0)
        for name in SPECIAL_FNS:
            fn = getattr(special, name)
            yield special, name, self._wrap(fn, name, "special", None)
        for name in NORMS_FNS:
            fn = getattr(norms, name)
            yield norms, name, self._wrap(fn, name, "norms", None)
        for mod in (norms, special):
            yield mod, "integrate", self._wrap_integrate(mod.integrate)
        yield norms, "truncation_point", self._wrap(
            norms.truncation_point, "truncation_point", "quadrature", None)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod, name, replacement in list(self._sites()):
                saved.append((mod, name, getattr(mod, name)))
                setattr(mod, name, replacement)
            yield self
        finally:
            for mod, name, original in reversed(saved):
                setattr(mod, name, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent id, layer, name, times."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": ids[id(s.parent)] if s.parent else None,
                    "layer": s.layer, "name": s.name, "start": s.start,
                    "end": s.end, "size": s.size, "panels": s.panels,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    def pick(layer=None, name=None, entry=None, root=None):
        return [s for s in spans
                if (layer is None or s.layer == layer)
                and (name is None or s.name == name)
                and (entry is None or s.entry == entry)
                and (root is None or s.root.layer == root)]

    integ = pick(name="integrate")
    batches = pick(name="integrand")
    evals = sum(s.size for s in batches)
    trunc = pick(name="truncation_point")
    m = {
        "quadrature.calls": len(integ),
        "quadrature.panels": sum(s.panels or 0 for s in integ),
        "quadrature.evals": evals,
        "quadrature.batches": len(batches),
        "quadrature.evals_per_batch": _ratio(evals, len(batches)),
        "quadrature.self_s": sum(s.self_s for s in integ),
        "quadrature.integrand_s": sum(s.seconds for s in batches),
        "quadrature.cap_hits": sum(bool(s.cap_hit) for s in integ),
        "quadrature.unconverged": sum(s.converged is False for s in integ),
        "quadrature.truncation_calls": len(trunc),
        "quadrature.truncation_s": sum(s.seconds for s in trunc),
    }
    m["quadrature.self_ns_per_eval"] = 1e9 * _ratio(m["quadrature.self_s"],
                                                    evals)

    for layer in ("symbols", "modes"):
        entries = pick(layer=layer, entry=True)
        absc = sum(s.size for s in entries)
        self_s = sum(s.self_s for s in pick(layer=layer))
        m[f"{layer}.calls"] = len(entries)
        m[f"{layer}.abscissae"] = absc
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.ns_per_abscissa"] = 1e9 * _ratio(self_s, absc)
    m["symbols.abscissae_per_eval"] = _ratio(m["symbols.abscissae"], evals)
    for name in MODES_SELF:
        m[f"modes.{name}.self_s"] = sum(s.self_s
                                        for s in pick("modes", name))

    sinc = pick(layer="stable")
    m["stable.sinc_s"] = sum(s.seconds for s in sinc)
    m["stable.sinc_abscissae"] = sum(s.size for s in sinc)

    calls = [s for s in pick(layer="special", entry=True)
             if s.name != "integrand"]
    m["special.calls"] = len(calls)
    m["special.s"] = sum(s.seconds for s in calls)
    m["special.self_s"] = sum(s.self_s for s in pick(layer="special"))

    results = 0
    for name in NORMS_FNS:
        calls = pick("norms", name, entry=True)
        results += len(calls)
        m[f"norms.{name}.calls"] = len(calls)
        m[f"norms.{name}.s"] = sum(s.seconds for s in calls)
    m["norms.self_s"] = sum(s.self_s for s in pick(layer="norms"))
    under = pick(name="integrate", root="norms")
    m["norms.integrate_calls_per_result"] = _ratio(len(under), results)
    m["norms.panels_per_result"] = _ratio(
        sum(s.panels or 0 for s in under), results)
    m["norms.evals_per_result"] = _ratio(
        sum(s.size for s in pick(name="integrand", root="norms")), results)
    return m
