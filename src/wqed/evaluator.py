"""Assemble observables from the integer class polynomials.

Qubit excitation amplitudes are direct sums of finished diagrams. One
integer dynamic program (`diagrams.class_polynomials`) sums the paths of
every finishing qubit and delay, whatever their number of scatterings,
into one polynomial, and `diagrams.class_rows` turns each polynomial into
its closed-form coefficients at once, since the terms are linear in the
path counts. Each polynomial gives one row per pole at its delay, so a
qubit's rows are its terms: `merge_terms` only sorts them into
DelayedTerms, and those terms are the series that every evaluation and
the rounding bound read. A series whose a-priori rounding bound exceeds
ROUNDING_TOL raises IllConditioned.

The field is the qubits' emission. By the waveguide input-output relation
(Fan, Kocabas & Shen, Phys. Rev. A 82, 063821 (2010))

    psi_R(x, t) = psi_in(x, t) - i sqrt(J0) sum_{x_q <= x} e_q(t - (x - x_q)),

mirrored for psi_L, with half weight at x = x_q; psi_in is the undisturbed
incident pulse (zero for an excited start). Each qubit's emission is its
amplitude series, so one class pass over all qubits gives the amplitudes,
the field profile and the norm. A snapshot at time t reads each series
once (`_read`): one `core.eval_series` call at every retarded time of its
windows on both branches, and at t itself for the qubit population; the
pulse's series is read once over its whole branch.
The field norm is Gauss quadrature of that same read, on nodes built per
branch (`_branch_nodes`): Gauss-Legendre between the fronts and window
edges, and one Gauss-Laguerre node on the incident pulse's tail, with a
truncation error bounded below rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ChainConfig, DelayedTerm, InitialCondition,
                   TimeSeriesAmplitude, rounding_bound)
from .diagrams import class_polynomials, class_rows
from .errors import IllConditioned
from .momentum import pulse_prefactor
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


def merge_terms(rows, carrier: float) -> tuple[DelayedTerm, ...]:
    """One qubit's (delay, pole, coefficients) rows as DelayedTerms of the
    carrier `carrier`, sorted by (delay, pole): one term per front. The
    class pass emits one row per (delay, pole), so nothing is summed."""
    out = [DelayedTerm(delay, pole, tuple(coeffs), carrier)
           for delay, pole, coeffs in rows]
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

    Raises IllConditioned if a series' a-priori rounding bound
    (`core.rounding_bound`) exceeds ROUNDING_TOL.
    """
    out = _class_pass(cfg, init, qubits, t_f)
    for series in out.values():
        _check_rounding(series, t_f)
    return out


def _class_pass(cfg: ChainConfig, init: InitialCondition,
                qubits: tuple[int, ...],
                t_f: float) -> dict[int, TimeSeriesAmplitude]:
    """The series of `qubits` through t_f, without the rounding check.

    One integer dynamic program (`diagrams.class_polynomials`) sums the
    paths of every (finishing qubit, delay) into one polynomial, and
    `diagrams.class_rows` turns each polynomial into its rows at once; a
    qubit's rows are its terms (`merge_terms`), and its coefficients lost
    to underflow are its series' `lost`.
    """
    rows: dict[int, list] = {q: [] for q in qubits}
    polys = class_polynomials(cfg, init, qubits, t_f)
    all_rows, lost = class_rows(cfg, init, polys)
    for c, poly_rows in zip(polys, all_rows):
        rows[c.qubit] += [(c.delay, pole, coeffs)
                          for pole, coeffs in poly_rows]
    return {q: TimeSeriesAmplitude(merge_terms(r, cfg.omega), f"e:{q}",
                                   tuple(lost.get(q, ())))
            for q, r in rows.items()}


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

def _sources(cfg: ChainConfig, init: InitialCondition, t: float,
             amps: dict[int, TimeSeriesAmplitude]) -> list:
    """The field at time t by series: [(series, windows, emitter)], with
    windows [(branch, hi, lag, factor)] and branch 0 (right) or 1 (left).

    Everything is in s = -x on the right-moving branch and s = x on the
    left-moving one; a branch's field at s is the sum of
    factor * series(s + lag) over its windows s <= hi, with half weight at
    s = hi. Qubit q (an emitter) has a window on each branch: its emission
    -i sqrt(J0) e_q(t - |x - x_q|) is e_q with lag t -+ x_q on s <= -+x_q.
    An incident pulse is its series at the entry qubit, continued over the
    whole line of its own branch (hi = inf). A term of `series` with delay
    d therefore has its front at s = d - lag.
    """
    pref = -1j * math.sqrt(cfg.j0)
    out = []
    for q, amp in amps.items():
        if amp.terms:
            x_q = cfg.positions[q]
            out.append((amp, ((0, -x_q, t + x_q, pref),
                              (1, x_q, t - x_q, pref)), True))
    if init.kind == "pulse":
        spec = init.pulse
        entry = cfg.positions[spec.entry(cfg.num_qubits)]
        # the spectrum P / (D + i sigma) at the entry qubit, from x0 on; the
        # pulse's own branch has s = -sign * x
        p = pulse_prefactor(spec, cfg.omega, entry)
        term = DelayedTerm(spec.x0, -1j * spec.sigma, (-1j * p,), cfg.omega)
        branch = 0 if spec.direction == "right" else 1
        out.append((TimeSeriesAmplitude((term,)),
                    ((branch, math.inf, t + spec.sign * entry, 1.0),), False))
    return out


def _read(sources, s, t: float | None = None):
    """The field of each branch b at its ascending coordinates s[b], window
    edges weighing 1/2, and the qubit populations sum_q |e_q(t)|^2 (0
    without a time t).

    Each series is read once: one evaluation at every retarded time of
    its windows, each window a prefix s[b][:k] of its branch, and, with t
    given, at t itself for an emitter.
    """
    fields = [np.zeros(len(sb), dtype=complex) for sb in s]
    population = 0.0
    for series, windows, emitter in sources:
        read = t is not None and emitter
        spans, times = [], []
        for b, hi, lag, _ in windows:
            k = s[b].searchsorted(hi, "right") if hi < math.inf else len(s[b])
            spans.append(k)
            times.append(s[b][:k] + lag)
        if read:
            times.append([t])
        if not sum(map(len, times)):
            continue
        values = series(np.concatenate(times))
        start = 0
        for (b, hi, _, factor), k in zip(windows, spans):
            part = factor * values[start:start + k]
            if k and s[b][k - 1] == hi:
                part[s[b].searchsorted(hi, "left"):] *= 0.5     # s == hi
            fields[b][:k] += part
            start += k
        if read:
            population += abs(values[-1]) ** 2
    return fields, population


def field_profile(cfg: ChainConfig, init: InitialCondition, t: float,
                  xs) -> FieldProfile:
    """Right/left-moving field components at time t on the given positions;
    a NaN position gives NaN on both branches."""
    _check_time(np.float64(t))
    return _field_from(cfg, init, t, xs, all_amplitudes(cfg, init, t))


def _check_time(ts: np.ndarray) -> None:
    """Raise ValueError unless every time in ts is finite and >= 0."""
    if not ((ts >= 0) & (ts < math.inf)).all():
        raise ValueError("t must be finite and non-negative")


def _field_from(cfg: ChainConfig, init: InitialCondition, t: float, xs,
                amps: dict[int, TimeSeriesAmplitude]) -> FieldProfile:
    """field_profile from every qubit's amplitude, exact through time t."""
    xs = np.array(xs, dtype=float)
    x = xs.ravel()
    order = None
    if not (x[1:] >= x[:-1]).all():
        order = np.argsort(x, kind="stable")        # NaNs last
        x = x[order]
    x = x[:x.searchsorted(np.nan)]
    (right, left), _ = _read(_sources(cfg, init, t, amps), (-x[::-1], x))
    psi = np.full((2, xs.size), complex(np.nan, np.nan))
    psi[0, :x.size], psi[1, :x.size] = right[::-1], left
    if order is not None:
        psi[:, order] = psi.copy()                  # undo the sort
    psi = psi.reshape((2,) + xs.shape)
    return FieldProfile(t, xs, psi[0], psi[1])


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


def _branch_nodes(sources, branch: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes s and weights w with sum w |psi(s)|^2 = Int |psi|^2 ds
    over one branch of the field of `sources`, to within the bound below.

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
    one-point Gauss-Laguerre rule scaled by mu, one more node at
    c + 1/mu with weight e/mu, integrates exactly.

    The pieces tile the cuts' span and every Gauss node is inside its
    piece, so the nodes ascend, as `_read` needs: a piece split from a
    longer interval is at least 1/(2 kappa) long, and a single piece's
    nodes are its left cut plus rounded fractions of its length.
    """
    segments = [(hi, lag, series) for series, windows, _ in sources
                for b, hi, lag, _ in windows if b == branch]
    terms = [tm for _, _, series in segments for tm in series.terms]
    if not terms:
        return np.zeros(0), np.zeros(0)
    cuts = sorted({tm.delay - lag for _, lag, series in segments
                   for tm in series.terms}
                  | {hi for hi, _, _ in segments if math.isfinite(hi)})
    kappa = max(abs(tm.pole) for tm in terms)
    x, w = _gauss_legendre(max(len(tm.poly_coeffs) for tm in terms) + 8)
    # piece k of the interval [a, b] starts at a + k step
    start, h = [], []
    for a, b in zip(cuts, cuts[1:]):
        pieces = max(math.ceil((b - a) * kappa), 1)
        step = (b - a) / pieces
        start += [a + k * step for k in range(pieces)]
        h += [step] * pieces
    start, h = np.array(start), np.array(h)
    s = (start[:, None] + h[:, None] * (x + 1) / 2).ravel()
    weight = (h[:, None] / 2 * w).ravel()
    tail = [tm.pole for hi, _, series in segments if hi == math.inf
            for tm in series.terms]
    if tail:
        mu = -2 * tail[0].imag
        s = np.append(s, cuts[-1] + 1 / mu)
        weight = np.append(weight, math.e / mu)
    return s, weight


def total_norm(cfg: ChainConfig, init: InitialCondition, t):
    """Sum of qubit populations and field norm at time t.

    `t` may be an array of times; one class pass, at the largest of them,
    then serves them all, and each time reads only the terms that have
    switched on by it.
    """
    ts = np.asarray(t, dtype=float)
    _check_time(ts)
    amps = all_amplitudes(cfg, init, float(ts.max(initial=0.0)))
    norms = np.array([_norm_at(cfg, init, float(ti), amps)
                      for ti in ts.ravel()])
    return float(norms[0]) if ts.ndim == 0 else norms.reshape(ts.shape)


def _norm_at(cfg: ChainConfig, init: InitialCondition, t: float,
             amps: dict[int, TimeSeriesAmplitude]) -> float:
    """The norm at time t from amplitudes exact up to a horizon >= t: the
    populations and both branches' quadrature nodes in one read."""
    horizon = _through(t)
    amps = {q: amp.before(horizon) for q, amp in amps.items()}
    sources = _sources(cfg, init, t, amps)
    nodes = [_branch_nodes(sources, b) for b in (0, 1)]
    # at t = 0 the populations are the t -> 0+ limit: the excited qubit's
    # own term would take Theta(0) = 1/2, while the field is still empty
    psi, population = _read(sources, [s for s, _ in nodes], t or None)
    if t == 0:
        population = float(init.kind == "excited_qubit")
    # a plain sum, not np.dot: BLAS's first call adds 0.15 MB of resident
    # memory, and nothing else on the norm path uses it
    return float(population + sum(float((w * np.abs(p) ** 2).sum())
                                  for (_, w), p in zip(nodes, psi)))


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
        spec = init.pulse
        d = abs(xq - spec.front(cfg.positions[spec.entry(cfg.num_qubits)]))
    if d <= 0:
        raise ValueError("probe qubit coincides with the excitation source")
    return d
