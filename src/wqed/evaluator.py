"""Assemble observables from weighted diagram classes.

Qubit excitation amplitudes are direct sums of finished diagram classes.
Within one call the residue step runs once per distinct class function, at
delay 0; each class then shifts those terms to its delay and scales them by
its weight (its number of diagrams).

The field is the qubits' emission. By the waveguide input-output relation
(Fan, Kocabas & Shen, Phys. Rev. A 82, 063821 (2010))

    psi_R(x, t) = psi_in(x, t) - i sqrt(J0) sum_{x_q <= x} e_q(t - (x - x_q)),

mirrored for psi_L, with half weight at x = x_q; psi_in is the undisturbed
incident pulse (zero for an excited start). Each qubit's emission is its
amplitude series, evaluated by `core.eval_series` at the retarded times of
a whole array of positions, so one class pass over all qubits gives the
amplitudes, the field profile and the norm.
The field norm is Gauss quadrature of that same evaluation:
Gauss-Legendre between the fronts and window edges, Gauss-Laguerre on the
incident pulse's tail, with a node rule whose truncation error is bounded
below rounding (see `_branch_norm`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ChainConfig, DelayedTerm, InitialCondition,
                   TimeSeriesAmplitude)
from .diagrams import (Diagram, class_function, diagram_classes,
                       finish_excitation, start_pulse)
# Unused here: kept only because perfbench/tracing.py wraps these names and
# its self-test requires every wrap target to exist.
from .diagrams import enumerate_diagrams, field_terms  # noqa: F401
from .momentum import inverse_transform

_PROBE_POINTS = 2001      # causality_probe's grid over the light-cone time


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Snapshot of the right/left-moving field components at one time.

    Holds arrays, so it compares and hashes by identity."""

    t: float
    xs: np.ndarray
    psi_right: np.ndarray
    psi_left: np.ndarray

    def arrays(self):
        return self.xs, self.psi_right, self.psi_left


def merge_terms(terms) -> tuple[DelayedTerm, ...]:
    """Combine terms sharing (delay, pole, carrier, causality) exactly by
    summing their polynomials. Keeps series in one-term-per-front form."""
    groups: dict[tuple, list] = {}
    for tm in terms:
        key = (tm.delay, tm.pole, tm.carrier, tm.anti_causal)
        groups.setdefault(key, []).append(tm)
    out = []
    for g in groups.values():
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
    return _amplitudes(cfg, init, (qubit,), t_f)[qubit]


def _amplitudes(cfg: ChainConfig, init: InitialCondition,
                qubits: tuple[int, ...],
                t_f: float) -> dict[int, TimeSeriesAmplitude]:
    """Excitation amplitudes of `qubits`, exact for t < t_f, from one class
    pass: the residue step runs once per distinct class function
    (#T, #R, self-decay) at delay 0, and each class shifts those terms to
    its delay and scales them by its weight."""
    base: dict[tuple, tuple[DelayedTerm, ...]] = {}
    terms: dict[int, list[DelayedTerm]] = {q: [] for q in qubits}
    for c in diagram_classes(cfg, init, qubits, t_f):
        key = (c.n_t, c.n_r, c.self_decay)
        if key not in base:
            f = class_function(cfg, init, c.n_t, c.n_r)
            base[key] = finish_excitation(
                cfg, Diagram((c.finisher,), f, 0.0, c.self_decay)).terms
        terms[c.finisher.qubit].extend(
            replace(tm, delay=c.delay, poly_coeffs=tuple(
                np.asarray(tm.poly_coeffs) * float(c.weight)))
            for tm in base[key])
    return {q: TimeSeriesAmplitude(merge_terms(ts), label=f"e:{q}")
            for q, ts in terms.items()}


# ---------------------------------------------------------------------------
# Field: the qubits' emission, read at the retarded times of the positions
# ---------------------------------------------------------------------------

def _all_amplitudes(cfg: ChainConfig, init: InitialCondition,
                    t: float) -> dict[int, TimeSeriesAmplitude]:
    """Every qubit's amplitude, exact up to and including time t."""
    return _amplitudes(cfg, init, tuple(range(cfg.num_qubits)),
                       t * (1 + 1e-12) + 1e-12)


def _segments(cfg: ChainConfig, init: InitialCondition, t: float,
              amps: dict[int, TimeSeriesAmplitude]) -> dict[str, list]:
    """The field at time t by branch: {branch: [(hi, lag, factor, series)]}.

    Everything is in s = -x for right-movers and s = x for left-movers; a
    branch's field at s is the sum of factor * series(s + lag) over its
    windows s <= hi, with half weight at s = hi. Qubit q's emission
    -i sqrt(J0) e_q(t - |x - x_q|) is e_q with lag t -+ x_q on the window
    s <= -+x_q. An incident pulse is its series at the entry qubit,
    continued over the whole line (hi = inf). A term of `series` with
    delay d therefore has its front at s = d - lag.
    """
    pref = -1j * math.sqrt(cfg.j0)
    out: dict[str, list] = {"right": [], "left": []}
    for branch, sign in (("right", -1.0), ("left", 1.0)):     # s = sign * x
        for q, amp in amps.items():
            if amp.terms:
                s_q = sign * cfg.positions[q]
                out[branch].append((s_q, t - s_q, pref, amp))

    if init.kind == "pulse":
        spec = init.pulse
        sign = -1.0 if spec.direction == "right" else 1.0
        entry = 0 if spec.direction == "right" else cfg.num_qubits - 1
        terms = inverse_transform(start_pulse(cfg, spec).f, spec.x0, cfg.omega)
        out[spec.direction].append((math.inf, t - sign * cfg.positions[entry],
                                    1.0, TimeSeriesAmplitude(tuple(terms))))
    return out


def _branch_field(segments, s: np.ndarray) -> np.ndarray:
    """One branch's field at the coordinates s; window edges weigh 1/2."""
    out = np.zeros(s.shape, dtype=complex)
    for hi, lag, factor, series in segments:
        inside = s <= hi
        if inside.any():
            si = s[inside]
            out[inside] += (factor * np.where(si == hi, 0.5, 1.0)
                            * series(si + lag))
    return out


def field_profile(cfg: ChainConfig, init: InitialCondition, t: float,
                  xs) -> FieldProfile:
    """Right/left-moving field components at time t on the given positions."""
    xs = np.array(xs, dtype=float)
    segments = _segments(cfg, init, t, _all_amplitudes(cfg, init, t))
    return FieldProfile(t, xs, _branch_field(segments["right"], -xs),
                        _branch_field(segments["left"], xs))


# ---------------------------------------------------------------------------
# Norm: Gauss quadrature of the same field
# ---------------------------------------------------------------------------

def _legendre_pair(n: int, x: np.ndarray):
    """(P_{n-1}(x), P_n(x)) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p0, p1


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Newton's method on P_n from the asymptotic guesses cos(pi (k - 1/4) /
    (n + 1/2)), then w = 2 / ((1 - x^2) P_n'(x)^2). Against 40-digit
    roots for n = 9..60 the nodes are within 1.1e-16 and the weights
    within 4.7e-14 relative (numpy.polynomial.legendre.leggauss: 1.8e-12,
    and its LAPACK eigensolver adds about 1 MB of resident memory).
    """
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = _legendre_pair(n, x)
        step = p1 * (x * x - 1) / (n * (x * p1 - p0))
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    p0, p1 = _legendre_pair(n, x)
    dp = n * (x * p1 - p0) / (x * x - 1)
    return x, 2 / ((1 - x * x) * dp * dp)


def _branch_norm(segments) -> float:
    """Int |psi(s)|^2 ds for one branch, by quadrature of `_branch_field`.

    Between consecutive cuts (fronts and window edges) the field is smooth:
    a sum of terms psi_i = P_i(s - a_i) exp(-i(p_i + W)(s - a_i)) with
    deg P_i <= d and |p_i| <= kappa (the carrier W cancels in |psi|^2).
    Each elementary interval is split into pieces of length h <= 1/kappa,
    and each piece gets the N = d + 9 point Gauss-Legendre rule. A pair
    product psi_i conj(psi_j) is a polynomial of degree <= 2d times
    exp(-mu (s - c)) about the piece midpoint c, |mu| <= 2 kappa, so
    |mu (s - c)| <= 1; the rule, exact to degree 2N - 1 = 2d + 17,
    integrates the polynomial times the degree-17 Taylor part of that
    exponential exactly, and the rest is at most e/18! of it. The
    truncation error of a piece is therefore at most

        2 e^2/18! * h * max_piece (sum_i |psi_i|)^2
            < 2.4e-15 * h * max_piece (sum_i |psi_i|)^2,

    below rounding.

    Only the undisturbed incident pulse reaches past the last cut c: it is
    one term with a constant polynomial and the pole -i sigma, so there
    |psi(c + u)|^2 = |psi(c)|^2 exp(-mu u), mu = 2 sigma, which the
    one-point Gauss-Laguerre rule scaled by mu (node u = 1/mu, weight
    e/mu) integrates exactly.
    """
    terms = [tm for _, _, _, series in segments for tm in series.terms]
    if not terms:
        return 0.0
    cuts = sorted({tm.delay - lag for _, lag, _, series in segments
                   for tm in series.terms}
                  | {hi for hi, _, _, _ in segments if math.isfinite(hi)})
    kappa = max(abs(tm.pole) for tm in terms)
    x, w = _gauss_legendre(max(len(tm.poly_coeffs) for tm in terms) + 8)
    length = np.diff(cuts)
    pieces = np.maximum(np.ceil(length * kappa), 1).astype(int)
    h = np.repeat(length / pieces, pieces)
    # piece k of an interval starts at its left cut + k h
    k = np.arange(len(h)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    start = np.repeat(cuts[:-1], pieces) + k * h
    s = (start[:, None] + h[:, None] * (x + 1) / 2).ravel()
    weight = (h[:, None] / 2 * w).ravel()
    # a plain sum, not np.dot: BLAS's first call adds 0.15 MB of resident
    # memory, and nothing else on the norm path uses it
    total = float((weight * np.abs(_branch_field(segments, s)) ** 2).sum())

    tail = [tm for hi, _, _, series in segments if hi == math.inf
            for tm in series.terms]
    if tail:
        (pulse,) = tail
        assert len(pulse.poly_coeffs) == 1
        mu = -2 * pulse.pole.imag
        psi = _branch_field(segments, np.array([cuts[-1] + 1 / mu]))
        total += math.e * float(np.abs(psi[0]) ** 2) / mu
    return total


def total_norm(cfg: ChainConfig, init: InitialCondition, t: float) -> float:
    """Sum of qubit populations and field norm at time t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    amps = _all_amplitudes(cfg, init, t)
    if t == 0:
        # the t -> 0+ limit: at t = 0 the excited qubit's own term would
        # take Theta(0) = 1/2, while the field is still empty
        qubit_part = float(init.kind == "excited_qubit")
    else:
        qubit_part = sum(abs(amp(t)) ** 2 for amp in amps.values())
    segments = _segments(cfg, init, t, amps)
    return float(qubit_part + _branch_norm(segments["right"])
                 + _branch_norm(segments["left"]))


def causality_probe(cfg: ChainConfig, init: InitialCondition,
                    qubit: int) -> float:
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
    ts = np.linspace(0.0, d, _PROBE_POINTS)[1:-1]
    return float(np.max(np.abs(amp(ts)))) if len(ts) else 0.0
