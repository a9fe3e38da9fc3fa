"""Domain types and closed-form time-domain term evaluation.

Units: hbar = v_g = 1. Rates are measured in units of the coupling J0
(gamma0 = 2*J0), lengths and times in units of 1/J0.

A closed-form amplitude is a sum of delayed terms

    Theta(t - t0) * poly(t - t0) * exp(-i*p*(t - t0)) * exp(-i*W*(t - t0)),

with Theta(0) = 0.5 by convention. Terms with Im(p) < 0 decay. Every term
is causal: the lower-half-plane poles give the amplitude for t > t0, and
the engine forms no others.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

#: Heaviside value at the step, applied uniformly across the package.
THETA_AT_ZERO = 0.5
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(float(np.finfo(float).max))


@dataclass(frozen=True)
class ChainConfig:
    """Geometry and physical constants of the qubit chain."""

    num_qubits: int
    omega: float
    j0: float
    separation: float
    positions: tuple[float, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.omega < 0 or self.j0 <= 0 or self.separation < 0:
            raise ValueError("omega >= 0, j0 > 0, separation >= 0 required")
        if not self.positions:
            pos = tuple(m * self.separation for m in range(self.num_qubits))
            object.__setattr__(self, "positions", pos)
        if len(self.positions) != self.num_qubits:
            raise ValueError("positions must have one entry per qubit")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")

    @property
    def gamma0(self) -> float:
        return 2.0 * self.j0

    @property
    def narrow_band(self) -> bool:
        """True when omega >= 10*j0, the regime the model physically assumes.

        The math below stays valid for any omega; this flag only signals
        that the rotating-wave premise is being stretched.
        """
        return self.omega >= 10.0 * self.j0

    @classmethod
    def fermi_pair(cls, j0: float, omega: float, separation: float) -> "ChainConfig":
        """Two identical qubits at -L/2 and +L/2 (the two-atom benchmark)."""
        half = separation / 2.0
        return cls(2, omega, j0, separation, positions=(-half, half))


@dataclass(frozen=True)
class PulseSpec:
    """Incident decaying-exponential pulse with a sharp front.

    The front starts a distance x0 > 0 outside the chain (left of the first
    qubit when moving right, right of the last when moving left), so no qubit
    sees any field at t = 0.
    """

    sigma: float
    x0: float
    direction: str = "right"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if self.direction not in ("right", "left"):
            raise ValueError("direction must be 'right' or 'left'")

    @property
    def sign(self) -> float:
        """+1 for a pulse moving right, -1 for one moving left."""
        return 1.0 if self.direction == "right" else -1.0

    def entry(self, num_qubits: int) -> int:
        """The qubit the front reaches first."""
        return 0 if self.direction == "right" else num_qubits - 1

    def front(self, entry_position: float) -> float:
        """Where the front starts, x0 outside the entry qubit."""
        return entry_position - self.sign * self.x0


@dataclass(frozen=True)
class InitialCondition:
    """Single-excitation initial state: one excited qubit or one incident pulse."""

    kind: str  # "excited_qubit" | "pulse"
    qubit: int | None = None
    pulse: PulseSpec | None = None

    def __post_init__(self):
        if self.kind == "excited_qubit":
            if self.qubit is None:
                raise ValueError("excited_qubit needs a qubit index")
        elif self.kind == "pulse":
            if self.pulse is None:
                raise ValueError("pulse initial condition needs a PulseSpec")
        else:
            raise ValueError(f"unknown initial condition kind {self.kind!r}")

    @classmethod
    def excited(cls, qubit: int) -> "InitialCondition":
        return cls("excited_qubit", qubit=qubit)

    @classmethod
    def incident(cls, pulse: PulseSpec) -> "InitialCondition":
        return cls("pulse", pulse=pulse)


@dataclass(frozen=True)
class DelayedTerm:
    """One Theta * polynomial * exponential term of a time-domain amplitude.

    Value at time t, with tau = t - delay:

        Theta(tau) * sum_m c_m tau^m * exp(-i*(pole+carrier)*tau)
    """

    delay: float
    pole: complex
    poly_coeffs: tuple[complex, ...]
    carrier: float

    def __post_init__(self):
        if not self.poly_coeffs:
            raise ValueError("poly_coeffs must be non-empty")


def _theta(tau):
    return np.where(tau > 0, 1.0, np.where(tau == 0, THETA_AT_ZERO, 0.0))


def eval_term(term: DelayedTerm, t):
    """Evaluate one delayed term at time(s) t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    tau = t - term.delay
    theta = _theta(tau)
    # 0 off the support, without evaluating an overflowing exponential there
    tau = np.maximum(tau, 0.0)
    poly = np.zeros_like(tau, dtype=complex)
    for c in reversed(term.poly_coeffs):
        poly = poly * tau + c
    rate = -1j * (term.pole + term.carrier)
    val = theta * poly * np.exp(rate * tau)
    return val if val.ndim else complex(val)


@dataclass(frozen=True)
class TimeSeriesAmplitude:
    """A finite sum of delayed terms with a label naming the observable.

    The terms are the series' only form: `eval_series` and `rounding_bound`
    read them as they are.
    """

    terms: tuple[DelayedTerm, ...]
    label: str = ""

    def __call__(self, t):
        return eval_series(self, t)

    def support_start(self) -> float:
        """Earliest time at which any term can be nonzero."""
        return min((tm.delay for tm in self.terms), default=np.inf)

    def before(self, horizon: float) -> "TimeSeriesAmplitude":
        """The series of the terms with delay < horizon.

        The terms must be sorted by delay, as the engine's series are; the kept
        terms are then a prefix.
        """
        k = bisect.bisect_left(self.terms, horizon, key=lambda tm: tm.delay)
        if k == len(self.terms):
            return self
        if any(tm.delay < horizon for tm in self.terms[k:]):
            raise ValueError("terms are not sorted by delay")
        return TimeSeriesAmplitude(self.terms[:k], self.label)


def eval_series(series: TimeSeriesAmplitude, t):
    """Sum of eval_term over all terms, in the shape of t; 0 for the empty
    series."""
    t_arr = np.asarray(t, dtype=float)
    if not series.terms:
        out = np.zeros(t_arr.shape, dtype=complex)
    else:
        out = _kernels.eval_terms_grid(series.terms,
                                       t_arr.ravel()).reshape(t_arr.shape)
    return complex(out) if out.ndim == 0 else out


def rounding_bound(series: TimeSeriesAmplitude, t_f: float) -> float:
    """A-priori bound on the rounding error of `series` at any t < t_f.

    Horner's rule on a polynomial of degree d errs by at most about
    2 d u sum_k |c_k| tau^k (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 5), so with eps = 2u a term's error is below
    eps (d + 1) sum_k |c_k| tau^k exp(-kappa tau), kappa = -Im pole, and
    tau^k exp(-kappa tau) peaks at tau_k = min(k / kappa, t_f - delay) on
    the term's support (at tau_k = t_f - delay for a term that does not
    decay, kappa <= 0). The bound sums that, in one loop over the terms
    and their coefficients and in logarithms (tau^k alone overflows for k
    near 171), over the terms that switch on before t_f; a bound past
    float64 is inf. It sees the cancellation inside a polynomial and
    between terms, which the sum of |term(t)| does not.

    What it covers under the grid sweep of `_kernels.eval_terms_grid`:

    * the per-term Horner rounding, unchanged: the sweep runs the same
      Horner steps on the same tau = t - delay;
    * not the sweep's two scale-factor roundings per term, the scalar
      exp(r (b - delay)) and its product with the polynomial, each a few
      eps of the term;
    * nor those of the shared bases b: exp(r (t - b)), its product with a
      rate group's sum, and the exponents, rounded to about
      eps |r| (|b - delay| + |t - b|) of each term;
    * nor the coefficients' own rounding in the conversion of
      `diagrams.class_rows`: the bound takes the coefficients as given.
      Near sigma = J0 that rounding is 10-16 eps per coefficient, so two
      correct roundings of one series can differ by more than the bound:
      for n = 4 at spacing 1/4, a pulse with sigma = 0.375 and x0 = 1/8,
      t_f = 1.40625, the class pass's series of qubit 3 and the sum of
      its path classes' own terms differ by 9.8e-15 where the bound is
      4.4e-15.

    For terms of size <= 1 the sweep's roundings add up to about
    eps |r| t_f: 7e-14 for n = 2, J0 = 5, Omega = 200 at 150 L, above that
    series' bound of 4.3e-14 but far below ROUNDING_TOL. Where cancellation
    makes the terms large, at the envelope's edges, the error stays below
    the bound: 4.4e-9 against a 50-digit evaluation where the bound is
    7.6e-9 (tests/test_evaluator.py).
    """
    total = 0.0
    for tm in series.terms:
        span = t_f - tm.delay
        if span <= 0:
            continue
        kappa = -tm.pole.imag
        size = 0.0
        for k, c in enumerate(tm.poly_coeffs):
            if not c:
                continue
            tau = min(k / kappa, span) if kappa > 0 else span
            log = math.log(abs(c)) - kappa * tau
            if k:
                log += k * math.log(tau)
            if log > _LOG_MAX:
                return math.inf         # past float64, as is the bound
            size += math.exp(log)
        total += len(tm.poly_coeffs) * size
    return _EPS * total
