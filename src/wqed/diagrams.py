"""Unit cells, cascade semantics, and the binary-tree diagram enumerator.

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
and reflections, and its delay only on how often it crosses each gap. The
qubit amplitudes therefore sum over weighted classes (`diagram_classes`, a
dynamic program over those integer counts) rather than over single paths,
and `class_terms` writes each class's residues in closed form; the field
follows from the amplitudes (see `evaluator`).
`enumerate_diagrams` walks the binary tree path by path, with qubit or field
finishers whose residues come from `momentum`'s partial fractions, and is
kept as the reference the classes and the field are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .core import ChainConfig, DelayedTerm, InitialCondition, TimeSeriesAmplitude
from .errors import GeometryError, HorizonTooLarge
from .momentum import (_MAX_ORDER, RationalFn, coeff_e, coeff_r, coeff_t,
                       inverse_transform, mul, pulse_spectrum, simple_pole)

#: Largest number of diagrams (tree walk) or classes (dynamic program) kept
#: before HorizonTooLarge is raised.
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
    entry = 0 if spec.direction == "right" else cfg.num_qubits - 1
    f, _ = pulse_spectrum(spec, cfg.omega, cfg.positions[entry])
    sign = 1.0 if spec.direction == "right" else -1.0
    front = cfg.positions[entry] - sign * spec.x0
    return DiagramState(f, 0.0, front, spec.direction)


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
        entry = 0 if spec.direction == "right" else cfg.num_qubits - 1
        cells = [UnitCell(CellKind.STARTER_PULSE),
                 UnitCell(CellKind.FREE_PROP, length=spec.x0,
                          branch=spec.direction)]
        walk(cells, state.f, spec.x0, entry, spec.direction)

    out.sort(key=Diagram.sort_key)
    return out


@dataclass(frozen=True)
class DiagramClass:
    """All diagrams sharing a finisher, gap-crossing counts, #T and #R.

    They share one class function (its terms: `class_terms`) and one delay;
    `weight` is their number. `crossings[g]` counts the hops across the
    chain's g-th distinct gap length (gaps equal within _GEOM_TOL share a
    count, in order of first appearance from the left).
    """

    finisher: UnitCell
    crossings: tuple[int, ...]
    n_t: int
    n_r: int
    delay: float
    weight: int
    self_decay: bool = False


_NEG_I_POW = (1, -1j, -1, 1j)       # (-i)^k by k mod 4


def _neg_i_pow(k: int, x: float = 1.0) -> complex:
    """(-i x)^k, with the phase taken exactly from a table."""
    return _NEG_I_POW[k % 4] * x ** k


def class_terms(cfg: ChainConfig, init: InitialCondition, n_t: int, n_r: int,
                self_decay: bool = False) -> tuple[DelayedTerm, ...]:
    """The time-domain terms, at delay 0, of a qubit-finisher class.

    The class function is starter * n_t transmissions * n_r reflections *
    pickup, with P sqrt(J0) (-iJ0)^n_r = K and a = n_t:

        K D^a / (D + iJ0)^m,                 m = n_t + n_r + 2,

    for an excited start (P = sqrt(J0)) and for a pulse with sigma == J0
    exactly, and otherwise, P from `pulse_spectrum`,

        K D^a / ((D + i sigma) (D + iJ0)^m), m = n_t + n_r + 1.

    With u = D + iJ0, D^a = (u - iJ0)^a binomially, so the coefficient of
    u^-k is K b_(m-k) with b_r = C(a, r) (-iJ0)^(a-r); the factor
    1/(u + delta), delta = i(sigma - J0), turns that into the recurrence
    b_r = (C(a, r) (-iJ0)^(a-r) - b_(r-1)) / delta. The residue at -iJ0
    gives the tau^(k-1) coefficient K b_(m-k) (-i)^k / (k-1)!, and the
    simple pole at -i sigma the term -i K (-i sigma)^a / (i(J0 - sigma))^m.
    The self-decay class is exp(-J0 tau): its momentum integrand runs over
    both branches, 2 J0 / (D^2 + J0^2), of which only the causal pole -iJ0
    contributes for tau > 0.

    Pole orders m above 171 raise HorizonTooLarge: (m-1)! overflows float64.
    """
    j0 = cfg.j0
    if self_decay:
        return (DelayedTerm(0.0, -1j * j0, (1.0 + 0j,), cfg.omega),)
    if init.kind == "excited_qubit":
        p, sigma = math.sqrt(j0), j0
    else:
        (p,) = start_pulse(cfg, init.pulse).f.numer
        sigma = init.pulse.sigma
    pref = p * math.sqrt(j0) * _neg_i_pow(n_r, j0)     # K
    a = n_t
    m = n_t + n_r + 1 + (sigma == j0)
    if m > _MAX_ORDER:
        raise HorizonTooLarge(f"pole order {m} exceeds {_MAX_ORDER}: "
                              f"({m}-1)! overflows float64")
    b = [math.comb(a, r) * _neg_i_pow(a - r, j0) if r <= a else 0j
         for r in range(m)]
    terms = []
    if sigma != j0:
        delta = 1j * (sigma - j0)
        prev = 0j
        for r in range(m):
            prev = b[r] = (b[r] - prev) / delta
        residue = pref * _neg_i_pow(a, sigma) / (1j * (j0 - sigma)) ** m
        terms.append(DelayedTerm(0.0, -1j * sigma, (-1j * residue,),
                                 cfg.omega))
    coeffs = tuple(pref * b[m - k] * _neg_i_pow(k) / math.factorial(k - 1)
                   for k in range(1, m + 1))
    terms.append(DelayedTerm(0.0, -1j * j0, coeffs, cfg.omega))
    return tuple(terms)


def _gap_counters(cfg: ChainConfig) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Distinct gap lengths (equal within _GEOM_TOL) and each gap's index."""
    gaps: list[float] = []
    index: list[int] = []
    for a, b in zip(cfg.positions, cfg.positions[1:]):
        for g, length in enumerate(gaps):
            if abs(b - a - length) <= _GEOM_TOL:
                index.append(g)
                break
        else:
            index.append(len(gaps))
            gaps.append(b - a)
    return tuple(gaps), tuple(index)


def diagram_classes(cfg: ChainConfig, init: InitialCondition,
                    qubits: tuple[int, ...], t_f: float) -> list[DiagramClass]:
    """The qubit-finisher diagrams of `enumerate_diagrams` for every index in
    `qubits`, grouped into weighted classes.

    A dynamic program over the states (qubit, direction, crossing counts,
    #T, #R), one hop at a time; each state carries the number of paths that
    reach it. Classes are emitted by the same rules as the tree walk, and a
    class's weight is its number of paths. Sorted by delay, then by key.
    Raises HorizonTooLarge past DIAGRAM_CAP classes.
    """
    if not 0 < t_f < math.inf:
        raise ValueError("t_f must be positive and finite")
    n = cfg.num_qubits
    finishers = frozenset(qubits)
    gaps, gap_index = _gap_counters(cfg)
    offset = init.pulse.x0 if init.kind == "pulse" else 0.0
    zero = (0,) * len(gaps)
    delays = {zero: offset}         # crossing counts -> delay
    weights: dict[tuple, int] = {}  # class key -> number of paths

    def emit(key, w):
        weights[key] = weights.get(key, 0) + w
        if len(weights) > DIAGRAM_CAP:
            raise HorizonTooLarge(f"diagram class cap {DIAGRAM_CAP} exceeded "
                                  f"before t_f={t_f}")

    def hop(states, at, direction, crossings, n_t, n_r, w):
        nxt = at + direction
        if not 0 <= nxt < n:
            return  # photon leaves the system, branch terminates
        counts = list(crossings)
        counts[gap_index[min(at, nxt)]] += 1
        counts = tuple(counts)
        if counts not in delays:
            delays[counts] = offset + sum(c * g for c, g in zip(counts, gaps))
        if delays[counts] < t_f:
            key = (nxt, direction, counts, n_t, n_r)
            states[key] = states.get(key, 0) + w

    # states of one hop count: (qubit, direction, crossings, #T, #R) -> paths
    states: dict[tuple, int] = {}
    if init.kind == "excited_qubit":
        src = init.qubit
        if src in finishers:
            emit((src, zero, 0, 0, True), 1)
        for direction in (1, -1):
            hop(states, src, direction, zero, 0, 0, 1)
    elif offset < t_f:
        direction = 1 if init.pulse.direction == "right" else -1
        entry = 0 if direction == 1 else n - 1
        states[(entry, direction, zero, 0, 0)] = 1

    while states:
        following: dict[tuple, int] = {}
        for (at, direction, crossings, n_t, n_r), w in states.items():
            if at in finishers:
                emit((at, crossings, n_t, n_r, False), w)
            hop(following, at, direction, crossings, n_t + 1, n_r, w)
            hop(following, at, -direction, crossings, n_t, n_r + 1, w)
        states = following

    out = [DiagramClass(UnitCell(CellKind.FINISH_QUBIT, qubit=at), crossings,
                        n_t, n_r, delays[crossings], w, self_decay)
           for (at, crossings, n_t, n_r, self_decay), w in weights.items()]
    out.sort(key=lambda c: (c.delay, c.crossings, c.finisher.sort_key(),
                            c.n_t, c.n_r))
    return out
