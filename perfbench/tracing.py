"""Span tracing from outside the program.

The tracer wraps public functions of the wqed modules at the attribute
their callers look up (``from .momentum import inverse_transform`` binds a
name in ``wqed.diagrams``, so that is the attribute wrapped). Each call
records a span: name, start, end, parent span and the op it belongs to.
Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the time covered by its child spans.

A wrap target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from wqed.errors import IllConditioned

# (module, attribute looked up by callers, span name)
TARGETS = (
    ("core", "eval_series", "core.eval_series"),
    ("evaluator", "enumerate_diagrams", "diagrams.enumerate"),
    ("evaluator", "finish_excitation", "diagrams.finish"),
    ("evaluator", "field_terms", "diagrams.finish"),
    ("diagrams", "inverse_transform", "momentum.inverse_transform"),
    ("evaluator", "inverse_transform", "momentum.inverse_transform"),
    ("momentum", "partial_fractions", "momentum.partial_fractions"),
    ("evaluator", "excitation_amplitude", "evaluator.excitation_amplitude"),
    ("evaluator", "merge_terms", "evaluator.merge"),
    ("evaluator", "total_norm", "evaluator.total_norm"),
    ("evaluator", "field_profile", "evaluator.field_profile"),
    ("oracle", "integrate_chain", "oracle.integrate"),
    ("scattering", "find_poles", "scattering.find_poles"),
    ("fermi", "fermi_e1", "fermi.series"),
    ("fermi", "fermi_em1", "fermi.series"),
    ("fermi", "fermi_full_state", "fermi.series"),
    ("fermi", "markovian_e1", "fermi.series"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "main", "cli.main"),
)

SELF_TIME_SPANS = (
    "core.eval_series", "diagrams.enumerate", "diagrams.finish",
    "momentum.inverse_transform", "momentum.partial_fractions",
    "evaluator.excitation_amplitude", "evaluator.merge",
    "evaluator.total_norm", "evaluator.field_profile", "oracle.integrate",
    "scattering.find_poles", "fermi.series", "cli.load_config",
    "cli.write_csv",
)

# counter name -> span whose calls it counts
COUNTERS = {
    "core.eval_series.term_points": "core.eval_series",
    "diagrams.enumerate.calls": "diagrams.enumerate",
    "diagrams.paths": "diagrams.enumerate",
    "momentum.residue_calls": "momentum.inverse_transform",
    "momentum.max_multiplicity": "momentum.inverse_transform",
    "momentum.ill_conditioned": "momentum.inverse_transform",
    "evaluator.merge.terms_in": "evaluator.merge",
    "evaluator.merge.terms_out": "evaluator.merge",
    "oracle.qubit_steps": "oracle.integrate",
    "scattering.find_poles.calls": "scattering.find_poles",
    "scattering.poles_found": "scattering.find_poles",
    "cli.csv_rows": "cli.write_csv",
    "cli.nonzero_exits": "cli.main",
}


def _count(c: Counter, span: str, args, out, exc) -> None:
    """Update the work counters of one finished call."""
    if span == "core.eval_series" and exc is None:
        c["core.eval_series.term_points"] += len(args[0].terms) * np.size(args[1])
    elif span == "diagrams.enumerate":
        c["diagrams.enumerate.calls"] += 1
        if exc is None:
            c["diagrams.paths"] += len(out)
    elif span == "momentum.inverse_transform":
        c["momentum.residue_calls"] += 1
        top = max((m for _, m in args[0].poles), default=0)
        c["momentum.max_multiplicity"] = max(c["momentum.max_multiplicity"], top)
        if isinstance(exc, IllConditioned):
            c["momentum.ill_conditioned"] += 1
    elif span == "evaluator.merge" and exc is None:
        c["evaluator.merge.terms_in"] += len(args[0])
        c["evaluator.merge.terms_out"] += len(out)
    elif span == "oracle.integrate" and exc is None:
        steps, nq = out.alpha.shape
        c["oracle.qubit_steps"] += (steps - 1) * nq
    elif span == "scattering.find_poles":
        c["scattering.find_poles.calls"] += 1
        if exc is None:
            c["scattering.poles_found"] += len(out)
    elif span == "cli.write_csv" and exc is None:
        c["cli.csv_rows"] += len(args[2][0])
    elif span == "cli.main" and out != 0:
        c["cli.nonzero_exits"] += 1


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.counters = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        present = {span for mod, attr, span in TARGETS
                   if _lookup(mod, attr) is not None}
        self.absent = sorted({span for *_, span in TARGETS} - present)
        self.missing_targets = [f"wqed.{mod}.{attr}" for mod, attr, _ in TARGETS
                                if _lookup(mod, attr) is None]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.op.append(self.current_op)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(span)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                self.end(sid)
                _count(self.counters, span, args, out, exc)
        return traced

    def install(self) -> None:
        """Wrap every present target; `uninstall` restores the originals."""
        for mod_name, attr, span in TARGETS:
            fn = _lookup(mod_name, attr)
            if fn is None:
                continue
            mod = importlib.import_module(f"wqed.{mod_name}")
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def mark(self) -> int:
        """Index of the next span; spans [mark_a, mark_b) form one pass."""
        return len(self.t0)

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Summed self time per span name over spans lo..hi-1."""
        dur = (np.frombuffer(self.t1[lo:hi], dtype=float)
               - np.frombuffer(self.t0[lo:hi], dtype=float))
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        name = np.frombuffer(self.name[lo:hi], dtype=np.int64)
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        sums = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: float(sums[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, t0=np.array(self.t0), t1=np.array(self.t1),
                 parent=np.array(self.parent), name=np.array(self.name),
                 op=np.array(self.op), names=np.array(self.names))


def _lookup(mod_name: str, attr: str):
    try:
        mod = importlib.import_module(f"wqed.{mod_name}")
    except ImportError:
        return None
    return getattr(mod, attr, None)


def layer_metrics(self_s: dict[str, float], counters: Counter,
                  absent: list[str], overhead_ratio: float) -> dict:
    """The per-layer metrics as {name: {"value", "unit"[, "absent"]}}."""
    out = {}
    for span in SELF_TIME_SPANS:
        out[f"{span}.self_s"] = _metric(self_s.get(span, 0.0), "s",
                                        span in absent)
    for name, span in COUNTERS.items():
        out[name] = _metric(counters.get(name, 0), "count", span in absent)
    out["trace.overhead_ratio"] = _metric(overhead_ratio, "1", False)
    return out


def _metric(value, unit: str, absent: bool) -> dict:
    m = {"value": value, "unit": unit}
    if absent:
        m["absent"] = True
    return m
