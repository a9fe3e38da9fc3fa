"""Scattering histories as integer polynomials, their closed-form terms,
and the per-path tree walk that is their reference.

A diagram is starter -> propagators -> finisher. The starter fixes the
momentum-space input (an excited qubit radiates sqrt(J0)/(D + i*J0), a pulse
contributes its spectrum), propagators multiply in scattering coefficients
and accumulate delay, and the finisher turns the accumulated rational
function into closed-form time-domain terms.

At every qubit encounter the photon transmits or reflects, and the
requested observable is additionally read out at that encounter. Branches
whose photon leaves the chain terminate. Everything with total delay below
the requested horizon is kept, so the resulting series is exact for t < t_f.

A diagram's rational function depends only on its numbers of transmissions
and reflections, and its delay only on the gaps it crosses. The qubit
amplitudes therefore sum over path counts rather than over single paths:
`class_polynomials`, a dynamic program over the states (qubit, direction,
delay) with delays as exact integers, sums the paths of each finishing
qubit and delay into one integer polynomial, on which a transmission acts
as 1 + z and a reflection as z whatever the number of scatterings, and
`class_rows` writes each polynomial's residues in closed form. The field
follows from the amplitudes (see `evaluator`). `enumerate_diagrams` walks
the binary tree path by path and keeps of each path what is read of it:
its finisher, its numbers of transmissions and reflections, its rational
function (the product of `momentum`'s coefficients along the path) and
its delay. Its qubit and field finishers take their residues from
`momentum`'s partial fractions, and it is kept as the reference the
polynomials and the field are tested against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import ChainConfig, DelayedTerm, InitialCondition, TimeSeriesAmplitude
from .errors import GeometryError, HorizonTooLarge, IllConditioned
from .momentum import (_MAX_ORDER, RationalFn, coeff_e, coeff_r, coeff_t,
                       inverse_transform, mul, pulse_prefactor, pulse_spectrum,
                       simple_pole)

#: Largest number of diagrams (tree walk) kept, or of states the dynamic
#: program expands, before HorizonTooLarge is raised.
DIAGRAM_CAP = 10 ** 6
_GEOM_TOL = 1e-9


@dataclass(frozen=True, order=True)
class FinisherSpec:
    """Where a diagram is read out: the excitation of `qubit`, or the field
    ("field"). A field finisher of a walked diagram also names the qubit
    the photon leaves and its outgoing `branch`, "right" or "left"."""

    kind: str                 # "qubit" | "field"
    qubit: int | None = None
    branch: str | None = None

    def __post_init__(self):
        if self.kind not in ("qubit", "field"):
            raise ValueError("finisher kind must be 'qubit' or 'field'")
        if self.kind == "qubit" and self.qubit is None:
            raise ValueError("qubit finisher needs a qubit index")


class Diagram(NamedTuple):
    """One path of the tree walk: its finisher, its numbers of
    transmissions `n_t` and reflections `n_r`, its rational function `f`
    and its total delay.

    `f` is the starter times the scattering coefficients along the path
    (the finisher coefficient is applied by finish_excitation /
    finish_field). `self_decay` marks the zero-propagator survival diagram
    of an initially excited qubit, whose momentum integrand runs over both
    momentum branches and therefore does not factor as starter times
    pickup coefficient.
    """

    finisher: FinisherSpec
    n_t: int
    n_r: int
    f: RationalFn
    total_delay: float
    self_decay: bool = False


def _starter_excited(j0: float) -> RationalFn:
    return simple_pole(math.sqrt(j0), -1j * j0)


def finish_excitation(cfg: ChainConfig, d: Diagram) -> TimeSeriesAmplitude:
    """Rule 4.1: qubit excitation coefficient from a completed diagram."""
    fin = d.finisher
    if fin.kind != "qubit":
        raise GeometryError("diagram does not end in a qubit finisher")
    if d.self_decay:
        # Survival amplitude of the initially excited qubit: the momentum
        # integral runs over both propagation branches, summing to
        # 2*J0/(D^2 + J0^2); only the causal (lower) pole matters for t > 0.
        f = simple_pole(1j, -1j * cfg.j0)
    else:
        f = mul(d.f, coeff_e(cfg.j0))
    _assert_causal(f)
    terms = inverse_transform(f, d.total_delay, cfg.omega)
    return TimeSeriesAmplitude(tuple(terms), label=f"e:{fin.qubit}")


def field_terms(cfg: ChainConfig, d: Diagram) -> tuple[DelayedTerm, ...]:
    """Rule 4.2 base terms, before the position-dependent delay shift.

    The finisher integral has no pickup coefficient; evaluating the field at
    x only shifts every term delay by +(x - x_from) for right-movers and
    -(x - x_from) for left-movers.
    """
    if d.finisher.kind != "field":
        raise GeometryError("diagram does not end in a field finisher")
    _assert_causal(d.f)
    return tuple(inverse_transform(d.f, d.total_delay, cfg.omega))


def finish_field(cfg: ChainConfig, d: Diagram, x: float) -> TimeSeriesAmplitude:
    """Field amplitude read-out of one diagram at position x."""
    fin = d.finisher
    lo, hi = field_segment(cfg, d)
    if not (lo - _GEOM_TOL <= x <= hi + _GEOM_TOL):
        raise GeometryError(f"x={x} outside the segment owned by this finisher")
    sign = 1.0 if fin.branch == "right" else -1.0
    x0 = cfg.positions[fin.qubit]
    shifted = tuple(replace(tm, delay=tm.delay + sign * (x - x0))
                    for tm in field_terms(cfg, d))
    return TimeSeriesAmplitude(shifted, label=f"psi_{fin.branch[0]}:{fin.qubit}")


def field_segment(cfg: ChainConfig, d: Diagram) -> tuple[float, float]:
    """Spatial window owned by the field finisher of a Diagram (Heaviside
    window bounds). Reference only: the evaluator derives the field from
    the qubit amplitudes."""
    fin = d.finisher
    q = fin.qubit
    if fin.branch == "right":
        hi = cfg.positions[q + 1] if q + 1 < cfg.num_qubits else math.inf
        return cfg.positions[q], hi
    lo = cfg.positions[q - 1] if q - 1 >= 0 else -math.inf
    return lo, cfg.positions[q]


def _assert_causal(f: RationalFn) -> None:
    for p, _ in f.poles:
        if p.imag > 1e-12:
            raise AssertionError(
                f"diagram produced an upper-half-plane pole {p}")


def enumerate_diagrams(cfg: ChainConfig, init: InitialCondition,
                       target: FinisherSpec, t_f: float) -> list[Diagram]:
    """All diagrams for `target` with total delay strictly below t_f.

    The walk follows the photon path by path: at every qubit it meets, the
    path's rational function is multiplied by the transmission or the
    reflection coefficient, and the photon goes on in the same or the
    opposite direction, or leaves the chain. A qubit finisher reads a path
    out on its arrival at the target qubit; field finishers read it out
    on the outgoing branch after each scattering, and after the emission
    of an excited qubit. Deterministic output order: by (total delay,
    finisher, #T, #R); two paths equal in these are equal diagrams.
    Raises HorizonTooLarge past DIAGRAM_CAP diagrams.
    """
    if t_f <= 0:
        raise ValueError("t_f must be positive")
    want_qubit = target.kind == "qubit"
    t, r = coeff_t(cfg.j0), coeff_r(cfg.j0)
    flip = {"right": "left", "left": "right"}
    out: list[Diagram] = []

    def emit(finisher, n_t, n_r, f, delay, self_decay=False):
        out.append(Diagram(finisher, n_t, n_r, f, delay, self_decay))
        if len(out) > DIAGRAM_CAP:
            raise HorizonTooLarge(f"diagram cap {DIAGRAM_CAP} exceeded before "
                                  f"t_f={t_f}")

    def walk(at, direction, n_t, n_r, f, delay):
        """The photon meets qubit `at`, moving in `direction`."""
        if delay >= t_f:
            return
        if want_qubit and target.qubit == at:
            emit(target, n_t, n_r, f, delay)
        for branch, nt, nr, g in ((direction, n_t + 1, n_r, mul(f, t)),
                                  (flip[direction], n_t, n_r + 1, mul(f, r))):
            if not want_qubit:
                emit(FinisherSpec("field", at, branch), nt, nr, g, delay)
            leave(at, branch, nt, nr, g, delay)

    def leave(at, direction, n_t, n_r, f, delay):
        """The photon leaves qubit `at` in `direction`."""
        nxt = at + 1 if direction == "right" else at - 1
        if 0 <= nxt < cfg.num_qubits:      # else it leaves the chain
            walk(nxt, direction, n_t, n_r, f,
                 delay + abs(cfg.positions[nxt] - cfg.positions[at]))

    if init.kind == "excited_qubit":
        src = init.qubit
        f0 = _starter_excited(cfg.j0)
        if want_qubit and target.qubit == src:
            emit(target, 0, 0, f0, 0.0, self_decay=True)
        for direction in ("right", "left"):
            if not want_qubit:
                emit(FinisherSpec("field", src, direction), 0, 0, f0, 0.0)
            leave(src, direction, 0, 0, f0, 0.0)
    else:
        spec = init.pulse
        entry = spec.entry(cfg.num_qubits)
        f0, delay = pulse_spectrum(spec, cfg.omega, cfg.positions[entry])
        walk(entry, spec.direction, 0, 0, f0, delay)

    out.sort(key=lambda d: (d.total_delay, d.finisher, d.n_t, d.n_r))
    return out


class ClassPolynomial(NamedTuple):
    """The qubit-finisher diagrams of one finishing qubit and one delay, as
    one integer polynomial in z summed over their numbers of scatterings.

    With P_E(x) the number of paths with E scatterings counted by #T (the
    power of x), `counts` holds the coefficients of the sum over E of
    z^(E+1) P_E(1 + 1/z) after an excited start and for a pulse with
    sigma == J0, and of z^E P_E(1 + 1/z) for a pulse with sigma != J0. A
    path with #T = a and #R = b thus adds z^(b+1) (1+z)^a or z^b (1+z)^a:
    a transmission multiplies by 1 + z and a reflection by z, whatever E
    is. The self-decay diagram adds 1. `residue` is, for a pulse with
    sigma != J0, the sum over the paths of -1/(J0 - sigma)
    (-sigma/(J0 - sigma))^#T (-J0/(J0 - sigma))^#R, and 0 otherwise. A
    named tuple: a class pass makes hundreds of them.
    """

    qubit: int
    delay: float
    counts: tuple[int, ...]
    residue: float = 0.0


def _gap_units(cfg: ChainConfig) -> tuple[int, tuple[int, ...]]:
    """(den, units): each gap as an exact integer number of units of 1/den,
    den the largest power-of-two denominator of the gap lengths. A gap
    within _GEOM_TOL of an earlier gap takes that gap's length."""
    lengths: list[float] = []
    for a, b in zip(cfg.positions, cfg.positions[1:]):
        lengths.append(next((g for g in lengths
                             if abs(b - a - g) <= _GEOM_TOL), b - a))
    ratios = [g.as_integer_ratio() for g in lengths]
    den = max((q for _, q in ratios), default=1)
    return den, tuple(p * (den // q) for p, q in ratios)


def _reach(units: tuple[int, ...], finishers: frozenset[int]) -> tuple:
    """Each qubit's distance to the nearest finisher in the units of
    `_gap_units` (inf if no finisher is a qubit of the chain): a path to a
    finisher crosses every gap in between."""
    along = list(itertools.accumulate(units, initial=0))
    marks = [along[f] for f in finishers if 0 <= f < len(along)]
    return tuple(min((abs(x - y) for y in marks), default=math.inf)
                 for x in along)


def _pulse_sigma(cfg: ChainConfig, init: InitialCondition) -> float | None:
    """The pulse's sigma, or None where -iJ0 is the only pole (an excited
    start, or a pulse with sigma == J0 exactly)."""
    if init.kind == "excited_qubit" or init.pulse.sigma == cfg.j0:
        return None
    return init.pulse.sigma


def class_polynomials(cfg: ChainConfig, init: InitialCondition,
                      qubits: tuple[int, ...],
                      t_f: float) -> list[ClassPolynomial]:
    """The qubit-finisher diagrams of `enumerate_diagrams` for every index in
    `qubits`, as one `ClassPolynomial` per finishing qubit and delay.

    A dynamic program over the states (qubit, direction, delay d), with d
    an exact integer in the units of `_gap_units`. Each state carries the
    polynomial and the residue of `ClassPolynomial` for the paths that
    reach it, and every hop adds a positive number of units, so the states
    are expanded once each, in increasing d, from a heap. A state at a
    finisher adds its polynomial and residue to the emission of its qubit
    and float delay offset + d / den (two exact delays may round to one).
    A state is dropped once offset + (d + reach) / den reaches t_f, with
    `_reach` its distance to the nearest finisher: a class's delay is
    monotone in d, so no class below t_f is lost. Sorted by delay, then
    qubit. Raises HorizonTooLarge past DIAGRAM_CAP expanded states.
    """
    if not 0 < t_f < math.inf:
        raise ValueError("t_f must be positive and finite")
    finishers = frozenset(qubits)
    units = _gap_units(cfg)
    polys, _ = _class_dp(cfg, init, finishers, t_f, units,
                         _reach(units[1], finishers))
    return polys


def _class_dp(cfg: ChainConfig, init: InitialCondition,
              finishers: frozenset[int], t_f: float,
              units: tuple[int, tuple[int, ...]],
              reach: tuple) -> tuple[list[ClassPolynomial], int]:
    """`class_polynomials` for the per-qubit distances `reach`, which may
    understate the true ones (all zero: no light-cone prune), and the
    number of states the program expanded."""
    n = cfg.num_qubits
    den, gaps = units
    excited = init.kind == "excited_qubit"
    offset = 0.0 if excited else init.pulse.x0
    sigma = _pulse_sigma(cfg, init)
    if sigma is None:
        start, residue, r_t, r_r = [0, 1], 0.0, 0.0, 0.0
    else:
        gap = cfg.j0 - sigma
        start, residue = [1], -1 / gap
        r_t, r_r = -sigma / gap, -cfg.j0 / gap
    states: dict[tuple, list] = {}       # (d, qubit, direction) -> [P, g]
    heap: list[tuple] = []
    emitted: dict[tuple, list] = {}      # (qubit, delay) -> [P, g]

    def add(acc, key, p, g) -> bool:
        old = acc.get(key)
        if old is None:
            acc[key] = [p, g]
            return True
        old[0] = [x + y for x, y in itertools.zip_longest(old[0], p,
                                                          fillvalue=0)]
        old[1] += g
        return False

    def hop(at, direction, d, p, g):
        nxt = at + direction
        if not 0 <= nxt < n:
            return  # photon leaves the system, branch terminates
        d += gaps[at if direction == 1 else nxt]
        if offset + (d + reach[nxt]) / den < t_f:
            key = (d, nxt, direction)
            if add(states, key, p, g):
                heapq.heappush(heap, key)

    if excited:
        src = init.qubit
        if src in finishers:
            emitted[(src, offset)] = [[1], 0.0]
        for direction in (1, -1):
            hop(src, direction, 0, start, residue)
    else:
        entry = init.pulse.entry(n)
        if offset + reach[entry] / den < t_f:
            key = (0, entry, int(init.pulse.sign))
            states[key] = [start, residue]
            heap.append(key)

    visited = 0
    while heap:
        key = heapq.heappop(heap)
        d, at, direction = key
        p, g = states.pop(key)
        visited += 1
        if visited > DIAGRAM_CAP:
            raise HorizonTooLarge(f"class state cap {DIAGRAM_CAP} exceeded "
                                  f"before t_f={t_f}")
        if at in finishers:
            add(emitted, (at, offset + d / den), p, g)
        hop(at, direction, d, [x + y for x, y in zip(p + [0], [0] + p)],
            g * r_t)
        hop(at, -direction, d, [0] + p, g * r_r)

    out = [ClassPolynomial(at, delay, tuple(p), g)
           for (at, delay), (p, g) in emitted.items()]
    out.sort(key=lambda c: (c.delay, c.qubit))
    return out, visited


#: k! for k < _MAX_ORDER, as exact integers, for the correctly rounded
#: quotients of `class_rows`.
_FACTORIAL = tuple(math.factorial(k) for k in range(_MAX_ORDER))


def class_rows(cfg: ChainConfig, init: InitialCondition,
               polys: list[ClassPolynomial]
               ) -> list[list[tuple[complex, list[complex]]]]:
    """The time-domain terms, at delay 0, of each `ClassPolynomial` of
    `polys`: one list of (pole, coefficients) rows per polynomial.

    A path with #T = a and #R = b, E = a + b, has the class function
    (starter, a transmissions, b reflections, pickup)

        p sqrt(J0) (-iJ0)^b D^a / ((D + i sigma) (D + iJ0)^(E+1))

    with p from `pulse_spectrum`, and without the sigma factor and with
    the power E + 2 for an excited start (p = sqrt(J0)) and for a pulse
    with sigma == J0 exactly. With u = D + iJ0, D^a = (u - iJ0)^a
    binomially, and the residue at -iJ0 is linear in the path counts. The
    path's polynomial z^(b+1) (1+z)^a, or z^b (1+z)^a with the sigma
    factor, has the coefficient I_j of u^j in the numerator at z^(E+1-j),
    or at z^(E-j), so the coefficient of tau^j depends on the counts c
    of the polynomial alone, not on E. Without the sigma factor it is

        p sqrt(J0) (-1)^j J0^(j-1) c_j / j!

    (the self-decay's c = (1,) gives exp(-J0 tau): its momentum integrand
    runs over both branches, 2 J0 / (D^2 + J0^2), of which only the causal
    pole -iJ0 contributes for tau > 0). With it, 1/(u + delta), delta =
    i(sigma - J0), turns c into the real recurrence, run from the top,
    beta_j = (c_j J0^j - beta_(j+1)) / (J0 - sigma), and the coefficient
    p sqrt(J0) (-1)^j beta_j / j!; the simple pole at -i sigma gives the
    term p sqrt(J0) g, with g the polynomial's `residue`. g is carried as
    a product of factors, never formed from c: that alternating sum would
    cancel up to ((2 J0 - sigma) / sigma)^E of its digits. The paths of
    one qubit share the parity of E, so the terms of g share one sign.

    With J0 = a / b in integers, J0^(j-1) c_j / j! is formed as the one
    correctly rounded quotient c_j b a^j / (j! a b^j). With the sigma
    factor the recurrence runs on gamma_j = beta_j / J0^j,

        gamma_j = (c_j - J0 gamma_(j+1)) / (J0 - sigma),

    from the exact counts, and the coefficient is gamma_j times J0^j / j!,
    the quotient a^j / (j! b^j). No power of J0 and no j! is a float of
    its own, so nothing overflows before a coefficient does. A quotient
    beyond float64 raises IllConditioned; a gamma_j that overflows is inf,
    and the rounding bound refuses it. (A recurrence on beta_j / j! would
    round c_j / j! ahead of the recurrence's cancellation: up to 1,466
    eps from exact rationals at sigma = J0 / 5, where this form keeps 2.)

    Pole orders above 171 raise HorizonTooLarge before any coefficient is
    formed: (m-1)! overflows float64 for a pole of order m.
    """
    j0 = cfg.j0
    sigma = _pulse_sigma(cfg, init)
    if init.kind == "excited_qubit":
        pref = complex(j0)
    else:
        spec = init.pulse
        pref = pulse_prefactor(spec, cfg.omega, cfg.positions[
            spec.entry(cfg.num_qubits)]) * math.sqrt(j0)
    top = max((len(c.counts) for c in polys), default=0)
    if top > _MAX_ORDER:
        raise HorizonTooLarge(f"pole order {top} exceeds {_MAX_ORDER}: "
                              f"({top}-1)! overflows float64")
    a, b = j0.as_integer_ratio()
    ratio = []                          # J0^j / j! = a^j / (j! b^j) at j
    pa = pb = 1
    for j in range(top):
        ratio.append((pa, _FACTORIAL[j] * pb))
        pa, pb = pa * a, pb * b
    if sigma is not None:
        scale = [_quotient(p, q) for p, q in ratio]
    out = []
    for c in polys:
        coeffs = [0j] * len(c.counts)       # tau^j at j
        if sigma is None:
            for j, i in enumerate(c.counts):
                num, den = ratio[j]
                x = _quotient(i * b * num, a * den)
                coeffs[j] = pref * (-x if j % 2 else x)
            out.append([(-1j * j0, coeffs)])
            continue
        d = j0 - sigma
        gamma = 0.0
        for j in range(len(c.counts) - 1, -1, -1):
            gamma = (c.counts[j] - j0 * gamma) / d
            x = gamma * scale[j]
            coeffs[j] = pref * (-x if j % 2 else x)
        out.append([(-1j * sigma, [pref * c.residue]), (-1j * j0, coeffs)])
    return out


def _quotient(p: int, q: int) -> float:
    """p / q correctly rounded; IllConditioned where it exceeds float64."""
    try:
        return p / q
    except OverflowError:
        raise IllConditioned("a class coefficient exceeds float64") from None
