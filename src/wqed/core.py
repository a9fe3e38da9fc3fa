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
_TINIEST = math.ulp(0.0)    # 2^-1074


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
    read them as they are. `lost` lists the coefficients that float64 holds
    only below its normal range, as (delay, kappa, power k, log of the
    exact size) of their terms (`diagrams.class_rows`); `rounding_bound`
    counts them at their exact size.
    """

    terms: tuple[DelayedTerm, ...]
    label: str = ""
    lost: tuple[tuple[float, float, int, float], ...] = ()

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
        return TimeSeriesAmplitude(self.terms[:k], self.label, tuple(
            x for x in self.lost if x[0] < horizon))


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
    Algorithms, 2nd ed., ch. 5), and each coefficient of
    `diagrams.class_rows` is within 2 u of its exact value (below). So with
    eps = 2u a term's error is below eps (d + 1) sum_k |c_k| tau^k
    exp(-kappa tau), to first order in eps, kappa = -Im pole, and
    tau^k exp(-kappa tau) peaks at tau_k = min(k / kappa, t_f - delay) on
    the term's support (at tau_k = t_f - delay for a term that does not
    decay, kappa <= 0). The bound sums that, in one loop over the terms
    and their coefficients and in logarithms (tau^k alone overflows for k
    near 171), over the terms that switch on before t_f; a bound past
    float64 is inf. It sees the cancellation inside a polynomial and
    between terms, which the sum of |term(t)| does not.

    Two limits of float64's range, which the coefficients stored in
    absolute time can reach below the pole-order cap, are counted as well:

    * a coefficient of `series.lost`, which float64 holds only as 0 or as
      a subnormal, may be off by all of its exact size |c|, so it adds
      |c| tau_k^k exp(-kappa tau_k) itself, not eps times it (n = 2,
      J0 = 0.01, L = 100 at 150 L: 58 coefficients round to 0 and the
      answer errs by 8.6e-6);
    * the kernel forms each Horner sum sum_k c_k tau^k before it applies
      the exponential, and every partial sum at t < t_f is at most
      sum_k |c_k| s^k, s = max(t_f - delay, 1); where that passes float64
      the sum may overflow, and the bound is inf (n = 2, J0 = 1000, L = 1
      at 150 L would be NaN).

    What it covers under the grid sweep of `_kernels.eval_terms_grid`:

    * the per-term Horner rounding, unchanged: the sweep runs the same
      Horner steps on the same tau = t - delay;
    * the coefficients' own rounding, the 1 of d + 1: a coefficient is
      the float prefactor P = p sqrt(J0) times x, one correctly rounded
      quotient of exact integers (x = q (1 + delta), |delta| <= u), and the
      two parts of the product are rounded once each, so it is within
      (2 u + u^2) |P q| of P q. The rounding of P itself scales the whole
      series, a few eps of the answer however much its terms cancel, and
      is not counted;
    * not the sweep's two scale-factor roundings per term, the scalar
      exp(r (b - delay)) and its product with the polynomial, each a few
      eps of the term;
    * nor those of the shared bases b: exp(r (t - b)), its product with a
      rate group's sum, and the exponents, rounded to about
      eps |r| (|b - delay| + |t - b|) of each term.

    For terms of size <= 1 the sweep's roundings add up to about
    eps |r| t_f: 7e-14 for n = 2, J0 = 5, Omega = 200 at 150 L, above that
    series' bound of 4.3e-14 but far below ROUNDING_TOL. Where cancellation
    makes the terms large, at the envelope's edges, the error stays below
    the bound: 4.4e-9 against a 50-digit evaluation where the bound is
    7.6e-9, and 4.2e-13 against the exact series of the float inputs where
    it is 4.9e-12 (n = 4, sigma = 0.3 J0 at 16 L; tests/test_evaluator.py).
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
        # sum_k |c_k| max(span, 1)^k bounds the kernel's Horner sums. A
        # peak is at least |c_k| span^k exp(-kappa span), and one that
        # underflowed is below 2^-1074, so for span >= 1 that sum is below
        # (size + (d + 1) 2^-1074) exp(kappa span); it is formed only where
        # this passes float64.
        horner = 0.0
        if span < 1:
            horner = sum(map(abs, tm.poly_coeffs))
        elif math.log(size + len(tm.poly_coeffs) * _TINIEST) \
                + kappa * span > _LOG_MAX:
            for c in reversed(tm.poly_coeffs):
                horner = horner * span + abs(c)
        if horner == math.inf:
            return math.inf             # the kernel's Horner sum may overflow
        total += len(tm.poly_coeffs) * size
    lost = 0.0
    for delay, kappa, k, log_c in series.lost:
        if delay < t_f:
            tau = min(k / kappa, t_f - delay)
            log = log_c - kappa * tau + (k * math.log(tau) if k else 0.0)
            lost += math.exp(log) if log < _LOG_MAX else math.inf
    return _EPS * total + lost
