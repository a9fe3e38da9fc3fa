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
the binary tree path by path, with qubit or field finishers whose residues
come from `momentum`'s partial fractions, and is kept as the reference the
polynomials and the field are tested against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .core import ChainConfig, DelayedTerm, InitialCondition, TimeSeriesAmplitude
from .errors import GeometryError, HorizonTooLarge
from .momentum import (_MAX_ORDER, RationalFn, coeff_e, coeff_r, coeff_t,
                       inverse_transform, mul, pulse_prefactor, pulse_spectrum,
                       simple_pole)

#: Largest number of diagrams (tree walk) kept, or of states the dynamic
#: program expands, before HorizonTooLarge is raised.
DIAGRAM_CAP = 10 ** 6
_GEOM_TOL = 1e-9


class CellKind(Enum):
    STARTER_EXCITED = "starter_excited"
    STARTER_PULSE = "starter_pulse"
    FREE_PROP = "free_prop"
    TRANSMIT = "transmit"
    REFLECT = "reflect"
    FINISH_QUBIT = "finish_qubit"
    FINISH_FIELD = "finish_field"


@dataclass(frozen=True)
class UnitCell:
    kind: CellKind
    qubit: int | None = None
    length: float | None = None
    branch: str | None = None      # photon direction for FREE_PROP / FINISH_FIELD

    def sort_key(self):
        return (self.kind.value, -1 if self.qubit is None else self.qubit,
                0.0 if self.length is None else self.length, self.branch or "")


@dataclass(frozen=True)
class DiagramState:
    """Accumulated cascade state: rational part, delay, photon location."""

    f: RationalFn
    delay: float
    position: float
    direction: str | None


@dataclass(frozen=True)
class FinisherSpec:
    kind: str                 # "qubit" | "field"
    qubit: int | None = None

    def __post_init__(self):
        if self.kind not in ("qubit", "field"):
            raise ValueError("finisher kind must be 'qubit' or 'field'")
        if self.kind == "qubit" and self.qubit is None:
            raise ValueError("qubit finisher needs a qubit index")


@dataclass(frozen=True)
class Diagram:
    """A completed cascade with cached accumulated quantities.

    `f` is the rational function accumulated through the propagators (the
    finisher coefficient is applied by finish_excitation / finish_field).
    `self_decay` marks the zero-propagator survival diagram of an initially
    excited qubit, whose momentum integrand runs over both momentum branches
    and therefore does not factor as starter times pickup coefficient.
    """

    cells: tuple[UnitCell, ...]
    f: RationalFn
    total_delay: float
    self_decay: bool = False

    @property
    def finisher(self) -> UnitCell:
        return self.cells[-1]

    def sort_key(self):
        return (self.total_delay, tuple(c.sort_key() for c in self.cells))


def _starter_excited(j0: float) -> RationalFn:
    return simple_pole(math.sqrt(j0), -1j * j0)


def _adjacent(cfg: ChainConfig, position: float, direction: str) -> int | None:
    """Index of the next qubit the photon meets, or None if it exits."""
    for idx, x in enumerate(cfg.positions):
        if direction == "right" and x > position + _GEOM_TOL:
            return idx
        if direction == "left" and x < position - _GEOM_TOL:
            last = None
            for jdx, y in enumerate(cfg.positions):
                if y < position - _GEOM_TOL:
                    last = jdx
            return last
    return None


def _qubit_at(cfg: ChainConfig, position: float) -> int:
    for idx, x in enumerate(cfg.positions):
        if abs(x - position) <= _GEOM_TOL:
            return idx
    raise GeometryError(f"no qubit at position {position}")


def apply_cell(cfg: ChainConfig, state: DiagramState | None,
               cell: UnitCell) -> DiagramState:
    """Fold one unit cell into the cascade state (Rules 1-3)."""
    k = cell.kind
    if state is None:
        if k is CellKind.STARTER_EXCITED:
            return DiagramState(_starter_excited(cfg.j0), 0.0,
                                cfg.positions[cell.qubit], None)
        if k is CellKind.STARTER_PULSE:
            raise GeometryError("pulse starter must be applied via start_pulse")
        raise GeometryError("cascade must begin with a starter")
    if k in (CellKind.STARTER_EXCITED, CellKind.STARTER_PULSE):
        raise GeometryError("starter in the middle of a cascade")
    if k is CellKind.FREE_PROP:
        if cell.length is None or cell.length <= 0:
            raise GeometryError("free propagation needs a positive length")
        direction = cell.branch or state.direction
        if direction is None:
            raise GeometryError("free propagation needs a direction")
        if state.direction is not None and direction != state.direction:
            raise GeometryError("free propagation against the photon direction")
        sign = 1.0 if direction == "right" else -1.0
        new_pos = state.position + sign * cell.length
        _qubit_at(cfg, new_pos)  # must land on a qubit
        nxt = _adjacent(cfg, state.position, direction)
        if nxt is None or abs(cfg.positions[nxt] - new_pos) > _GEOM_TOL:
            raise GeometryError("free propagation must connect adjacent qubits")
        return DiagramState(state.f, state.delay + cell.length, new_pos, direction)
    if k is CellKind.TRANSMIT:
        _require_at(cfg, state, cell.qubit)
        return replace(state, f=mul(state.f, coeff_t(cfg.j0)))
    if k is CellKind.REFLECT:
        _require_at(cfg, state, cell.qubit)
        flipped = {"right": "left", "left": "right", None: None}[state.direction]
        return replace(state, f=mul(state.f, coeff_r(cfg.j0)), direction=flipped)
    raise GeometryError(f"cannot cascade through finisher cell {k}")


def _require_at(cfg: ChainConfig, state: DiagramState, qubit: int | None) -> None:
    if qubit is None or abs(cfg.positions[qubit] - state.position) > _GEOM_TOL:
        raise GeometryError("scattering cell does not match photon position")


def start_pulse(cfg: ChainConfig, spec) -> DiagramState:
    """Initial cascade state for an incident pulse (front outside the chain)."""
    entry = cfg.positions[spec.entry(cfg.num_qubits)]
    f, _ = pulse_spectrum(spec, cfg.omega, entry)
    return DiagramState(f, 0.0, spec.front(entry), spec.direction)


def finish_excitation(cfg: ChainConfig, d: Diagram) -> TimeSeriesAmplitude:
    """Rule 4.1: qubit excitation coefficient from a completed diagram."""
    fin = d.finisher
    if fin.kind is not CellKind.FINISH_QUBIT:
        raise GeometryError("diagram does not end in a qubit finisher")
    if d.self_decay:
        # Survival amplitude of the initially excited qubit: the momentum
        # integral runs over both propagation branches, summing to
        # 2*J0/(D^2 + J0^2); only the causal (lower) pole matters for t > 0.
        f = simple_pole(1j, -1j * cfg.j0)
    else:
        f = mul(d.f, coeff_e(cfg.j0))
    terms = inverse_transform(f, d.total_delay, cfg.omega)
    _assert_causal(terms)
    return TimeSeriesAmplitude(tuple(terms), label=f"e:{fin.qubit}")


def field_terms(cfg: ChainConfig, d: Diagram) -> tuple[DelayedTerm, ...]:
    """Rule 4.2 base terms, before the position-dependent delay shift.

    The finisher integral has no pickup coefficient; evaluating the field at
    x only shifts every term delay by +(x - x_from) for right-movers and
    -(x - x_from) for left-movers.
    """
    fin = d.finisher
    if fin.kind is not CellKind.FINISH_FIELD:
        raise GeometryError("diagram does not end in a field finisher")
    terms = inverse_transform(d.f, d.total_delay, cfg.omega)
    _assert_causal(terms)
    return tuple(terms)


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


def _assert_causal(terms) -> None:
    for tm in terms:
        if tm.anti_causal or tm.pole.imag > 1e-12:
            raise AssertionError(
                f"diagram produced an upper-half-plane pole {tm.pole}")


def enumerate_diagrams(cfg: ChainConfig, init: InitialCondition,
                       target: FinisherSpec, t_f: float) -> list[Diagram]:
    """All diagrams for `target` with total delay strictly below t_f.

    Deterministic output order: by total delay, ties broken by the cell
    sequence. Raises HorizonTooLarge past DIAGRAM_CAP diagrams.
    """
    if t_f <= 0:
        raise ValueError("t_f must be positive")
    want_qubit = target.kind == "qubit"
    out: list[Diagram] = []
    budget = [DIAGRAM_CAP]

    def emit(cells, f, delay, self_decay=False):
        out.append(Diagram(tuple(cells), f, delay, self_decay=self_decay))
        budget[0] -= 1
        if budget[0] < 0:
            raise HorizonTooLarge(f"diagram cap {DIAGRAM_CAP} exceeded before "
                                  f"t_f={t_f}")

    def walk(cells, f, delay, at, direction):
        if delay >= t_f:
            return
        if want_qubit and target.qubit == at:
            emit(cells + [UnitCell(CellKind.FINISH_QUBIT, qubit=at)], f, delay)
        # transmit branch
        f_t = mul(f, coeff_t(cfg.j0))
        cells_t = cells + [UnitCell(CellKind.TRANSMIT, qubit=at)]
        if not want_qubit:
            emit(cells_t + [UnitCell(CellKind.FINISH_FIELD, qubit=at,
                                     branch=direction)], f_t, delay)
        _continue(cells_t, f_t, delay, at, direction)
        # reflect branch
        f_r = mul(f, coeff_r(cfg.j0))
        flipped = "left" if direction == "right" else "right"
        cells_r = cells + [UnitCell(CellKind.REFLECT, qubit=at)]
        if not want_qubit:
            emit(cells_r + [UnitCell(CellKind.FINISH_FIELD, qubit=at,
                                     branch=flipped)], f_r, delay)
        _continue(cells_r, f_r, delay, at, flipped)

    def _continue(cells, f, delay, at, direction):
        nxt = at + 1 if direction == "right" else at - 1
        if not (0 <= nxt < cfg.num_qubits):
            return  # photon leaves the system, branch terminates
        dist = abs(cfg.positions[nxt] - cfg.positions[at])
        walk(cells + [UnitCell(CellKind.FREE_PROP, length=dist,
                               branch=direction)], f, delay + dist, nxt, direction)

    if init.kind == "excited_qubit":
        src = init.qubit
        base = [UnitCell(CellKind.STARTER_EXCITED, qubit=src)]
        f0 = _starter_excited(cfg.j0)
        if want_qubit and target.qubit == src:
            emit(base + [UnitCell(CellKind.FINISH_QUBIT, qubit=src)],
                 f0, 0.0, self_decay=True)
        for direction in ("right", "left"):
            if not want_qubit:
                emit(base + [UnitCell(CellKind.FINISH_FIELD, qubit=src,
                                      branch=direction)], f0, 0.0)
            _continue(base, f0, 0.0, src, direction)
    else:
        spec = init.pulse
        state = start_pulse(cfg, spec)
        entry = spec.entry(cfg.num_qubits)
        cells = [UnitCell(CellKind.STARTER_PULSE),
                 UnitCell(CellKind.FREE_PROP, length=spec.x0,
                          branch=spec.direction)]
        walk(cells, state.f, spec.x0, entry, spec.direction)

    out.sort(key=Diagram.sort_key)
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


#: k! for k < _MAX_ORDER, as exact integers: an excited start's residue
#: coefficients c_j / j! are then correctly rounded quotients.
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
    out = []
    for c in polys:
        m = len(c.counts)
        if m > _MAX_ORDER:
            raise HorizonTooLarge(f"pole order {m} exceeds {_MAX_ORDER}: "
                                  f"({m}-1)! overflows float64")
        coeffs = [0j] * m                   # tau^j at j
        if sigma is None:
            for j, i in enumerate(c.counts):
                x = i / _FACTORIAL[j] * j0 ** (j - 1)
                coeffs[j] = pref * (-x if j % 2 else x)
            out.append([(-1j * j0, coeffs)])
            continue
        d = j0 - sigma
        beta = 0.0
        for j in range(m - 1, -1, -1):
            beta = (c.counts[j] * j0 ** j - beta) / d
            x = beta / _FACTORIAL[j]
            coeffs[j] = pref * (-x if j % 2 else x)
        out.append([(-1j * sigma, [pref * c.residue]), (-1j * j0, coeffs)])
    return out
