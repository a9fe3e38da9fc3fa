"""Assemble observables from weighted diagram classes.

Within one call the residue step runs once per distinct class function, at
delay 0; each class then shifts those terms to its delay and scales them by
its weight (its number of diagrams).

Qubit excitation amplitudes are direct sums of finished diagrams. Field
profiles are piecewise: every field finisher owns the waveguide segment
adjacent to its emitting qubit (window functions with half weight at the
segment edges), and for pulse runs the undisturbed incident pulse occupies
the incidence-side exterior segment (its continuation past a qubit is
already contained in the transmission coefficient). Norms are integrated in
closed form, segment by segment, since every integrand is a finite sum of
polynomial-times-exponential products with compact or exponentially bounded
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ChainConfig, DelayedTerm, InitialCondition,
                   TimeSeriesAmplitude, eval_term)
from .diagrams import (Diagram, FinisherSpec, class_function,
                       diagram_classes, field_segment, field_terms,
                       finish_excitation, start_pulse)
# Unused here: kept only because perfbench/tracing.py wraps this name and
# its self-test requires every wrap target to exist.
from .diagrams import enumerate_diagrams  # noqa: F401
from .momentum import inverse_transform

_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class FieldProfile:
    """Snapshot of the right/left-moving field components at one time."""

    t: float
    samples: tuple[tuple[float, complex, complex], ...]

    def arrays(self):
        xs = np.array([s[0] for s in self.samples])
        pr = np.array([s[1] for s in self.samples])
        pl = np.array([s[2] for s in self.samples])
        return xs, pr, pl


def merge_terms(terms) -> tuple[DelayedTerm, ...]:
    """Combine terms sharing (delay, pole, carrier, causality) by summing
    their polynomials. Keeps series in one-term-per-front form."""
    groups: list[list] = []
    for tm in terms:
        for g in groups:
            ref = g[0]
            if (ref.anti_causal == tm.anti_causal
                    and abs(ref.delay - tm.delay) < _MERGE_TOL
                    and abs(ref.pole - tm.pole) < _MERGE_TOL
                    and abs(ref.carrier - tm.carrier) < _MERGE_TOL):
                g.append(tm)
                break
        else:
            groups.append([tm])
    out = []
    for g in groups:
        npoly = max(len(tm.poly_coeffs) for tm in g)
        coeffs = np.zeros(npoly, dtype=complex)
        for tm in g:
            coeffs[: len(tm.poly_coeffs)] += tm.poly_coeffs
        if np.all(np.abs(coeffs) < 1e-300):
            continue
        out.append(replace(g[0], poly_coeffs=tuple(coeffs)))
    out.sort(key=lambda tm: (tm.delay, tm.pole.real, tm.pole.imag))
    return tuple(out)


def excitation_amplitude(cfg: ChainConfig, init: InitialCondition,
                         qubit: int, t_f: float) -> TimeSeriesAmplitude:
    """Closed-form excitation amplitude of `qubit`, exact for t < t_f."""
    classes = diagram_classes(cfg, init, FinisherSpec("qubit", qubit), t_f)
    terms: list[DelayedTerm] = []
    for _, class_terms in _class_terms(
            cfg, init, classes, lambda d: finish_excitation(cfg, d).terms):
        terms.extend(class_terms)
    return TimeSeriesAmplitude(merge_terms(terms), label=f"e:{qubit}")


def _class_terms(cfg: ChainConfig, init: InitialCondition, classes, finish):
    """Yield (class, terms): `finish` runs once per distinct class function
    at delay 0, and each class shifts the result to its delay and scales it
    by its weight."""
    base: dict[tuple, tuple[DelayedTerm, ...]] = {}
    for c in classes:
        key = (c.n_t, c.n_r, c.self_decay)
        if key not in base:
            f = class_function(cfg, init, c.n_t, c.n_r)
            base[key] = tuple(finish(Diagram((c.finisher,), f, 0.0,
                                             c.self_decay)))
        yield c, [replace(tm, delay=c.delay, poly_coeffs=tuple(
                      np.asarray(tm.poly_coeffs) * float(c.weight)))
                  for tm in base[key]]


# ---------------------------------------------------------------------------
# Field profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SpatialTerm:
    """One field term at fixed t, as a function of x on a window.

    value(x) = Theta-of-support * P(tau) * exp(-i*(pole+carrier)*tau) with
    tau = front - x for right-movers (support x <= front) and
    tau = x - front for left-movers (support x >= front).
    """

    branch: str
    window_lo: float
    window_hi: float
    front: float
    poly: tuple[complex, ...]
    rate: complex              # pole + carrier

    def tau(self, x: float) -> float:
        return self.front - x if self.branch == "right" else x - self.front

    def value(self, x: float) -> complex:
        tau = self.tau(x)
        if tau < 0:
            return 0j
        w = 0.5 if tau == 0 else 1.0
        p = 0j
        for c in reversed(self.poly):
            p = p * tau + c
        return w * p * np.exp(-1j * self.rate * tau)

    def weight(self, x: float) -> float:
        if self.window_lo < x < self.window_hi:
            return 1.0
        if x == self.window_lo or x == self.window_hi:
            return 0.5
        return 0.0


def _spatial_terms(cfg: ChainConfig, init: InitialCondition,
                   t: float) -> list[_SpatialTerm]:
    t_f = t * (1 + 1e-12) + 1e-12
    out: list[_SpatialTerm] = []

    def add(terms, branch, x_from, lo, hi):
        for tm in terms:
            if tm.anti_causal:
                continue
            front = (x_from + (t - tm.delay) if branch == "right"
                     else x_from - (t - tm.delay))
            out.append(_SpatialTerm(branch, lo, hi, front, tm.poly_coeffs,
                                    tm.pole + tm.carrier))

    classes = diagram_classes(cfg, init, FinisherSpec("field"), t_f)
    for c, terms in _class_terms(cfg, init, classes,
                                 lambda d: field_terms(cfg, d)):
        lo, hi = field_segment(cfg, c)
        add(terms, c.finisher.branch, cfg.positions[c.finisher.qubit], lo, hi)

    if init.kind == "pulse":
        spec = init.pulse
        state = start_pulse(cfg, spec)
        terms = inverse_transform(state.f, spec.x0, cfg.omega)
        if spec.direction == "right":
            entry_x = cfg.positions[0]
            add(terms, "right", entry_x, -math.inf, entry_x)
        else:
            entry_x = cfg.positions[-1]
            add(terms, "left", entry_x, entry_x, math.inf)
    return out


def field_profile(cfg: ChainConfig, init: InitialCondition, t: float,
                  xs) -> FieldProfile:
    """Right/left-moving field components at time t on the given positions."""
    terms = _spatial_terms(cfg, init, t)
    samples = []
    for x in xs:
        x = float(x)
        pr = 0j
        pl = 0j
        for st in terms:
            w = st.weight(x)
            if w == 0.0:
                continue
            v = w * st.value(x)
            if st.branch == "right":
                pr += v
            else:
                pl += v
        samples.append((x, pr, pl))
    return FieldProfile(t, tuple(samples))


# ---------------------------------------------------------------------------
# Norm: closed-form piecewise integration
# ---------------------------------------------------------------------------

def _exp_moments(s: complex, w: float, mmax: int) -> np.ndarray:
    """E_m = Int_0^w u^m exp(s u) du for m = 0..mmax, stable small-|s w|."""
    out = np.zeros(mmax + 1, dtype=complex)
    if w == 0:
        return out
    if abs(s * w) < 1e-4:
        # Taylor: E_m = w^(m+1) sum_k (s w)^k / (k! (m+k+1))
        for m in range(mmax + 1):
            acc = 0j
            fact = 1.0
            for k in range(12):
                acc += (s * w) ** k / (fact * (m + k + 1))
                fact *= k + 1
            out[m] = w ** (m + 1) * acc
        return out
    e = np.exp(s * w)
    out[0] = (e - 1.0) / s
    for m in range(1, mmax + 1):
        out[m] = (w ** m * e - m * out[m - 1]) / s
    return out


def _integral_poly_exp(coeffs: np.ndarray, s: complex, a: float,
                       b: float) -> complex:
    """Int_a^b P(x) exp(s x) dx with P given by ascending coeffs."""
    n = len(coeffs)
    shifted = np.zeros(n, dtype=complex)   # P(a + u) in powers of u
    for i, c in enumerate(coeffs):
        for k in range(i + 1):
            shifted[k] += c * math.comb(i, k) * a ** (i - k)
    mom = _exp_moments(s, b - a, n - 1)
    return np.exp(s * a) * np.dot(shifted, mom)


def _integral_poly_exp_tail(coeffs: np.ndarray, s: complex, edge: float,
                            side: str) -> complex:
    """Semi-infinite Int P(x) exp(s x) dx over (-inf, edge] or [edge, inf).

    Converges iff the exponential decays toward the open end; the caller
    guarantees that (radiated/incident fields decay away from their fronts).
    """
    n = len(coeffs)
    shifted = np.zeros(n, dtype=complex)   # P(edge -/+ u) in powers of u
    sgn = -1.0 if side == "left" else 1.0
    for i, c in enumerate(coeffs):
        for k in range(i + 1):
            shifted[k] += c * math.comb(i, k) * edge ** (i - k) * sgn ** k
    rate = -sgn * s          # exp(s*(edge + sgn*u)) = exp(s*edge)*exp(-rate*u)
    if rate.real <= 0:
        raise ValueError("tail integral does not converge")
    acc = 0j
    fact = 1.0
    for m in range(n):
        acc += shifted[m] * fact / rate ** (m + 1)
        fact *= m + 1
    return np.exp(s * edge) * acc


def _as_poly_exp(st: _SpatialTerm) -> tuple[np.ndarray, complex]:
    """Rewrite the term as P(x) exp(c x) ignoring the Theta support."""
    n = len(st.poly)
    px = np.zeros(n, dtype=complex)
    for m, c in enumerate(st.poly):
        # (front - x)^m or (x - front)^m expanded in x
        for k in range(m + 1):
            if st.branch == "right":
                px[k] += c * math.comb(m, k) * st.front ** (m - k) * (-1) ** k
            else:
                px[k] += c * math.comb(m, k) * (-st.front) ** (m - k)
    lam = -1j * st.rate
    if st.branch == "right":
        # exp(lam * (front - x)) = exp(lam*front) * exp(-lam x)
        px *= np.exp(lam * st.front)
        cx = -lam
    else:
        px *= np.exp(-lam * st.front)
        cx = lam
    return px, cx


def _branch_norm(terms: list[_SpatialTerm]) -> float:
    if not terms:
        return 0.0
    cuts = set()
    for st in terms:
        cuts.add(st.front)
        if math.isfinite(st.window_lo):
            cuts.add(st.window_lo)
        if math.isfinite(st.window_hi):
            cuts.add(st.window_hi)
    # Fronts bound every support on the open side of exterior segments, so
    # the sorted cut list always yields finite elementary intervals.
    pts = sorted(cuts)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        mid = 0.5 * (a + b)
        active = []
        for st in terms:
            if st.window_lo < mid < st.window_hi and st.tau(mid) > 0:
                active.append(_as_poly_exp(st))
        if not active:
            continue
        for pi, ci in active:
            for pj, cj in active:
                prod = np.convolve(pi, np.conj(pj))
                total += (_integral_poly_exp(prod, ci + np.conj(cj), a, b)).real

    # semi-infinite tails (incident pulse behind the chain)
    for edge, side in ((pts[0], "left"), (pts[-1], "right")):
        probe = edge - 1.0 if side == "left" else edge + 1.0
        active = [_as_poly_exp(st) for st in terms
                  if st.window_lo < probe < st.window_hi and st.tau(probe) > 0]
        for pi, ci in active:
            for pj, cj in active:
                prod = np.convolve(pi, np.conj(pj))
                total += (_integral_poly_exp_tail(
                    prod, ci + np.conj(cj), edge, side)).real
    return total


def total_norm(cfg: ChainConfig, init: InitialCondition, t: float) -> float:
    """Sum of qubit populations and field norm at time t (closed form)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        t = 0.0
    t_f = t * (1 + 1e-12) + 1e-12
    qubit_part = 0.0
    for q in range(cfg.num_qubits):
        amp = excitation_amplitude(cfg, init, q, t_f)
        qubit_part += abs(amp(t)) ** 2
    terms = _spatial_terms(cfg, init, t)
    right = [st for st in terms if st.branch == "right"]
    left = [st for st in terms if st.branch == "left"]
    return float(qubit_part + _branch_norm(right) + _branch_norm(left))


def causality_probe(cfg: ChainConfig, init: InitialCondition,
                    qubit: int, npts: int = 2001) -> float:
    """Max |e_qubit(t)| on a fine grid strictly inside the light cone.

    The engine result is exactly zero by term support; the probe exists so
    the same check can be pointed at numerical integrators.
    """
    xq = cfg.positions[qubit]
    if init.kind == "excited_qubit":
        d = abs(xq - cfg.positions[init.qubit])
    else:
        state = start_pulse(cfg, init.pulse)
        d = abs(xq - state.position)
    if d <= 0:
        raise ValueError("probe qubit coincides with the excitation source")
    amp = excitation_amplitude(cfg, init, qubit, d * (1 + 1e-12))
    ts = np.linspace(0.0, d, npts)[1:-1]
    return float(np.max(np.abs(amp(ts)))) if len(ts) else 0.0
