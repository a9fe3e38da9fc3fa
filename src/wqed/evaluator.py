"""Assemble observables from the integer class polynomials.

Qubit excitation amplitudes are direct sums of finished diagram classes.
One integer dynamic program (`diagrams.class_polynomials`) counts, for
every finishing qubit and crossing vector, the paths by their number of
transmissions, and `diagrams.class_rows` turns each such polynomial into
its merged closed-form coefficients at once, since the class terms are
linear in the class weights. Each polynomial's rows go under the key (its
delay, pole, carrier, causality); `merge_terms` sums the rows of crossing
vectors that share a delay into one DelayedTerm per key, and those terms
are the series that every evaluation and the rounding bound read. A merged
series whose a-priori rounding bound exceeds ROUNDING_TOL raises
IllConditioned.

The field is the qubits' emission. By the waveguide input-output relation
(Fan, Kocabas & Shen, Phys. Rev. A 82, 063821 (2010))

    psi_R(x, t) = psi_in(x, t) - i sqrt(J0) sum_{x_q <= x} e_q(t - (x - x_q)),

mirrored for psi_L, with half weight at x = x_q; psi_in is the undisturbed
incident pulse (zero for an excited start). Each qubit's emission is its
amplitude series, evaluated by `core.eval_series` at the retarded times of
a whole array of positions, so one class pass over all qubits gives the
amplitudes, the field profile and the norm.
The field norm is Gauss quadrature of that same evaluation, which also
reads the qubit populations at its time:
Gauss-Legendre between the fronts and window edges, Gauss-Laguerre on the
incident pulse's tail, with a node rule whose truncation error is bounded
below rounding (see `_branch_norm`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ChainConfig, DelayedTerm, InitialCondition,
                   TimeSeriesAmplitude, rounding_bound)
from .diagrams import class_polynomials, class_rows, start_pulse
from .errors import IllConditioned
# Unused here: kept only because perfbench/tracing.py wraps these names and
# its self-test requires every wrap target to exist.
from .diagrams import (enumerate_diagrams, field_terms,  # noqa: F401
                       finish_excitation)
from .momentum import inverse_transform  # noqa: F401

_PROBE_POINTS = 2001      # causality_probes' grid over the light-cone time
#: Largest a-priori rounding bound of an amplitude series (|e| <= 1, so the
#: tolerance is absolute) before IllConditioned is raised.
ROUNDING_TOL = 1e-8


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


def merge_terms(groups) -> tuple[DelayedTerm, ...]:
    """Merge grouped coefficient rows into one term per group.

    `groups` maps a (delay, pole, carrier, anti_causal) key to its rows, in
    class order. Each group's rows are summed in that order, groups whose
    coefficients all fall below 1e-300 are dropped, and the rest are sorted
    by (delay, pole): one DelayedTerm per front.
    """
    out = []
    for (delay, pole, carrier, anti), rows in groups.items():
        acc = [0j] * max(map(len, rows))
        for row in rows:
            acc[:len(row)] = [a + c for a, c in zip(acc, row)]
        if all(abs(c) < 1e-300 for c in acc):
            continue
        out.append(DelayedTerm(delay, pole, tuple(acc), carrier, anti))
    out.sort(key=lambda tm: (tm.delay, tm.pole.real, tm.pole.imag))
    return tuple(out)


def excitation_amplitude(cfg: ChainConfig, init: InitialCondition,
                         qubit: int, t_f: float) -> TimeSeriesAmplitude:
    """Closed-form excitation amplitude of `qubit`, exact for t < t_f."""
    return amplitudes(cfg, init, (qubit,), t_f)[qubit]


def amplitudes(cfg: ChainConfig, init: InitialCondition,
               qubits: tuple[int, ...],
               t_f: float) -> dict[int, TimeSeriesAmplitude]:
    """Excitation amplitudes of `qubits`, exact for t < t_f, from one class
    pass (`_class_pass`).

    Raises IllConditioned if a merged series' a-priori rounding bound
    (`core.rounding_bound`) exceeds ROUNDING_TOL.
    """
    out = _class_pass(cfg, init, qubits, t_f)
    for series in out.values():
        _check_rounding(series, t_f)
    return out


def _class_pass(cfg: ChainConfig, init: InitialCondition,
                qubits: tuple[int, ...],
                t_f: float) -> dict[int, TimeSeriesAmplitude]:
    """The merged series of `qubits` through t_f, without the rounding check.

    One integer dynamic program (`diagrams.class_polynomials`) counts the
    paths of every (finishing qubit, crossing vector) by #T, and
    `diagrams.class_rows` turns each such polynomial into its merged rows
    at once. The rows go under the key (delay, pole, carrier, causality),
    in the program's (delay, crossings) order; `merge_terms` sums each
    key's rows (crossing vectors may share a delay on uneven chains) into
    one term.
    """
    groups: dict[int, dict[tuple, list]] = {q: {} for q in qubits}
    polys = class_polynomials(cfg, init, qubits, t_f)
    for c, rows in zip(polys, class_rows(cfg, init, polys)):
        group = groups[c.qubit]
        for pole, coeffs in rows:
            group.setdefault((c.delay, pole, cfg.omega, False),
                             []).append(coeffs)
    return {q: TimeSeriesAmplitude(merge_terms(g), label=f"e:{q}")
            for q, g in groups.items()}


def _check_rounding(series: TimeSeriesAmplitude, t_f: float) -> None:
    """Raise IllConditioned if `series` may err by more than ROUNDING_TOL
    at some t < t_f."""
    bound = rounding_bound(series, t_f)
    if bound > ROUNDING_TOL:
        raise IllConditioned(
            f"{series.label} before t_f={t_f}: rounding bound {bound:.2g} "
            f"exceeds {ROUNDING_TOL:g}")


def _through(t: float) -> float:
    """A horizon whose series are exact up to and including time t."""
    return t * (1 + 1e-12) + 1e-12


def all_amplitudes(cfg: ChainConfig, init: InitialCondition,
                   t: float) -> dict[int, TimeSeriesAmplitude]:
    """Every qubit's amplitude, exact up to and including time t."""
    return amplitudes(cfg, init, tuple(range(cfg.num_qubits)), _through(t))


# ---------------------------------------------------------------------------
# Field: the qubits' emission, read at the retarded times of the positions
# ---------------------------------------------------------------------------

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
        # the spectrum P / (D + i sigma) at the entry qubit, from x0 on
        (p,) = start_pulse(cfg, spec).f.numer
        term = DelayedTerm(spec.x0, -1j * spec.sigma, (-1j * p,), cfg.omega)
        out[spec.direction].append((math.inf, t - sign * cfg.positions[entry],
                                    1.0, TimeSeriesAmplitude((term,))))
    return out


def _branch_field(segments, s: np.ndarray, t: float | None = None):
    """One branch's field at the coordinates s, window edges weighing 1/2,
    and the qubit populations sum_q |e_q(t)|^2 (0 without a time t).

    A finite window's series is read at s + lag, and its edge s = hi is the
    time hi + lag = t; with t given, t is appended to that same evaluation,
    so the populations cost no kernel call of their own.
    """
    out = np.zeros(s.shape, dtype=complex)
    population = 0.0
    for hi, lag, factor, series in segments:
        inside = s <= hi
        read = t is not None and hi < math.inf
        if inside.any() or read:
            si = s[inside]
            times = si + lag
            values = series(np.append(times, t) if read else times)
            if read:
                population += abs(values[-1]) ** 2
                values = values[:-1]
            out[inside] += factor * np.where(si == hi, 0.5, 1.0) * values
    return out, population


def field_profile(cfg: ChainConfig, init: InitialCondition, t: float,
                  xs) -> FieldProfile:
    """Right/left-moving field components at time t on the given positions."""
    return _field_from(cfg, init, t, xs, all_amplitudes(cfg, init, t))


def _field_from(cfg: ChainConfig, init: InitialCondition, t: float, xs,
                amps: dict[int, TimeSeriesAmplitude]) -> FieldProfile:
    """field_profile from every qubit's amplitude, exact through time t."""
    xs = np.array(xs, dtype=float)
    segments = _segments(cfg, init, t, amps)
    return FieldProfile(t, xs, _branch_field(segments["right"], -xs)[0],
                        _branch_field(segments["left"], xs)[0])


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


def _branch_norm(segments, t: float | None = None) -> tuple[float, float]:
    """Int |psi(s)|^2 ds for one branch, by quadrature of `_branch_field`,
    and the qubit populations at time t that the same evaluation reads
    (0 without t).

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
        return 0.0, 0.0
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
    psi, population = _branch_field(segments, s, t)
    total = float((weight * np.abs(psi) ** 2).sum())

    tail = [tm for hi, _, _, series in segments if hi == math.inf
            for tm in series.terms]
    if tail:
        (pulse,) = tail
        assert len(pulse.poly_coeffs) == 1
        mu = -2 * pulse.pole.imag
        psi, _ = _branch_field(segments, np.array([cuts[-1] + 1 / mu]))
        total += math.e * float(np.abs(psi[0]) ** 2) / mu
    return total, population


def total_norm(cfg: ChainConfig, init: InitialCondition, t):
    """Sum of qubit populations and field norm at time t.

    `t` may be an array of times; one class pass, at the largest of them,
    then serves them all, and each time reads only the terms that have
    switched on by it.
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ValueError("t must be non-negative")
    amps = all_amplitudes(cfg, init, float(ts.max(initial=0.0)))
    norms = np.array([_norm_at(cfg, init, float(ti), amps)
                      for ti in ts.ravel()])
    return float(norms[0]) if ts.ndim == 0 else norms.reshape(ts.shape)


def _norm_at(cfg: ChainConfig, init: InitialCondition, t: float,
             amps: dict[int, TimeSeriesAmplitude]) -> float:
    """The norm at time t from amplitudes exact up to a horizon >= t."""
    horizon = _through(t)
    amps = {q: amp.before(horizon) for q, amp in amps.items()}
    segments = _segments(cfg, init, t, amps)
    if t == 0:
        # the t -> 0+ limit: at t = 0 the excited qubit's own term would
        # take Theta(0) = 1/2, while the field is still empty
        right, _ = _branch_norm(segments["right"])
        qubit_part = float(init.kind == "excited_qubit")
    else:
        right, qubit_part = _branch_norm(segments["right"], t)
    left, _ = _branch_norm(segments["left"])
    return float(qubit_part + right + left)


def causality_probe(cfg: ChainConfig, init: InitialCondition,
                    qubit: int) -> float:
    """Max |e_qubit(t)| on a fine grid strictly inside the light cone.

    The engine result is exactly zero by term support; the probe exists so
    the same check can be pointed at numerical integrators.
    """
    return causality_probes(cfg, init, (qubit,))[qubit]


def causality_probes(cfg: ChainConfig, init: InitialCondition,
                     qubits: tuple[int, ...]) -> dict[int, float]:
    """`causality_probe` of each of `qubits`, from one class pass through
    the largest light-cone time.

    Each qubit keeps the terms below its own light-cone time, which are
    exactly the series a pass of its own would build, and its rounding
    bound is checked there.
    """
    if not qubits:
        return {}
    cones = {q: _light_cone(cfg, init, q) for q in qubits}
    horizons = {q: d * (1 + 1e-12) for q, d in cones.items()}
    series = _class_pass(cfg, init, qubits, max(horizons.values()))
    out = {}
    for q, d in cones.items():
        amp = series[q].before(horizons[q])
        _check_rounding(amp, horizons[q])
        ts = np.linspace(0.0, d, _PROBE_POINTS)[1:-1]
        out[q] = float(np.max(np.abs(amp(ts)))) if len(ts) else 0.0
    return out


def _light_cone(cfg: ChainConfig, init: InitialCondition, qubit: int) -> float:
    """Distance from the excitation source to `qubit`."""
    xq = cfg.positions[qubit]
    if init.kind == "excited_qubit":
        d = abs(xq - cfg.positions[init.qubit])
    else:
        state = start_pulse(cfg, init.pulse)
        d = abs(xq - state.position)
    if d <= 0:
        raise ValueError("probe qubit coincides with the excitation source")
    return d
