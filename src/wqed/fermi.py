"""Hard-coded closed forms for two qubits separated by L, and their
instantaneous-feedback (Markovian) limit.

Geometry: qubit -1 at x = -L/2 starts excited, qubit +1 at x = +L/2 starts
in the ground state. All series are finite for finite t because every term
carries a Heaviside front; truncation is exact.

    e_{+1}(t) = -sum_n (tau_n J0)^(2n+1)/(2n+1)! exp(-(J0+i*W)tau_n) Theta(tau_n),
        tau_n = t - (2n+1)L
    e_{-1}(t) =  sum_n (s_n J0)^(2n)/(2n)!   exp(-(J0+i*W)s_n) Theta(s_n),
        s_n = t - 2nL

plus six field components (internal/external, right/left-moving) with their
own front times. These expressions are used as golden references against
the diagram engine, never derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import THETA_AT_ZERO

__all__ = ["CollectiveRates", "collective_rates", "fermi_e1", "fermi_e1_terms",
           "fermi_em1_terms", "fermi_em1", "fermi_full_state", "markovian_e1"]


def _theta(x):
    return np.where(x > 0, 1.0, np.where(x == 0, THETA_AT_ZERO, 0.0))


_LOG_FLOAT_MAX = 709.0   # just below log(largest float64)


def _power_ratio(x, power):
    """x^power / power!, evaluated directly while that cannot overflow.

    Otherwise it goes to log space, which gives 0 for x <= 0 (every caller
    multiplies by Theta): for large powers (the deep Markovian regime has
    hundreds of active round trips and the bare factorial overflows) and
    for large |x| at long times, including the x < 0 side of a term that
    has not switched on yet. The callers' exponential decay is evaluated
    at max(tau, 0) for the same reason (see `_decay`).
    """
    x = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(x), initial=1.0))
    if power < 150 and power * math.log(top) < _LOG_FLOAT_MAX:
        return x ** power / math.factorial(power)
    safe = np.where(x > 0, x, 1.0)
    return np.where(x > 0, np.exp(power * np.log(safe) - math.lgamma(power + 1)),
                    0.0)


def _decay(tau, j0, omega):
    """exp(-(J0+iW)tau) * Theta(tau).

    The exponential is taken at max(tau, 0): for a term that has not
    switched on yet it would be exp(J0|tau|), which overflows past
    J0|tau| = 709 and turns inf * Theta = inf * 0 into NaN.
    """
    on = np.where(tau > 0, tau, 0.0)
    return np.exp(-(j0 + 1j * omega) * on) * _theta(tau)


def _term(tau, j0, omega, power, sign):
    """sign * (tau*J0)^power / power! * exp(-(J0+iW)tau) * Theta(tau)."""
    tau = np.asarray(tau, dtype=float)
    mag = _power_ratio(tau * j0, power)
    return sign * mag * _decay(tau, j0, omega)


def fermi_e1_terms(t, j0, omega, L):
    """List of the active n-indexed terms of e_{+1} at time(s) t."""
    tmax = float(np.max(np.atleast_1d(t)))
    nmax = max(0, math.ceil((tmax / L - 1) / 2)) if tmax > L else 0
    out = []
    for n in range(nmax + 1):
        tau = np.asarray(t, dtype=float) - (2 * n + 1) * L
        out.append(_term(tau, j0, omega, 2 * n + 1, -1.0))
    return out

def fermi_e1(t, j0, omega, L):
    """Excitation amplitude of the initially unexcited qubit (+1)."""
    terms = fermi_e1_terms(t, j0, omega, L)
    total = sum(terms)
    return total if np.ndim(t) else complex(total)


def fermi_em1_terms(t, j0, omega, L):
    tmax = float(np.max(np.atleast_1d(t)))
    nmax = max(0, math.floor(tmax / (2 * L)))
    out = []
    for n in range(nmax + 1):
        s = np.asarray(t, dtype=float) - 2 * n * L
        out.append(_term(s, j0, omega, 2 * n, 1.0))
    return out

def fermi_em1(t, j0, omega, L):
    """Excitation amplitude of the initially excited qubit (-1)."""
    total = sum(fermi_em1_terms(t, j0, omega, L))
    return total if np.ndim(t) else complex(total)


def fermi_full_state(t, x, j0, omega, L):
    """All components of the exact two-atom state at (t, x).

    Returns a dict with keys e_m1, e_p1 (qubit amplitudes, x-independent)
    and psi_Ri, psi_Re, psi_Li, psi_Le: right/left-moving field, internal
    (between the qubits) and external. Field components already include
    their spatial window functions.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    half = L / 2.0
    rt = math.sqrt(j0)

    inside = _window(x, -half, half)
    right_out = _window(x, half, np.inf)
    left_out = _window(x, -np.inf, -half)

    tmax = float(np.max(t))
    nmax = max(1, math.ceil(tmax / (2 * L)) + 1)
    shape = np.broadcast(t, x).shape

    # internal right-mover: n full round trips, then -L/2 -> x
    acc = np.zeros(shape, dtype=complex)
    for n in range(nmax + 1):
        tau = t - 2 * n * L - (x + half)
        acc = acc + _power_ratio(j0 * tau, 2 * n) * _decay(tau, j0, omega)
    psi_ri = -1j * rt * inside * acc

    # internal left-mover: odd number of crossings, reflected at +L/2
    acc = np.zeros(shape, dtype=complex)
    for n in range(nmax + 1):
        tau = t - (2 * n + 1) * L + (x - half)
        acc = acc + _power_ratio(j0 * tau, 2 * n + 1) * _decay(tau, j0, omega)
    psi_li = 1j * rt * inside * acc

    # external right-mover past +L/2: transmitted through qubit +1
    acc = np.zeros(shape, dtype=complex)
    for n in range(nmax + 1):
        tau = t - (2 * n + 1) * L - (x - half)
        # (J0 tau)^(2n) (J0 tau - (2n+1)) / (2n+1)!
        g = (_power_ratio(j0 * tau, 2 * n + 1)
             - _power_ratio(j0 * tau, 2 * n))
        acc = acc + g * _decay(tau, j0, omega)
    psi_re = 1j * rt * right_out * acc

    # external left-mover past -L/2: direct decay plus returned bounces
    acc = np.zeros(shape, dtype=complex)
    for n in range(nmax + 1):
        tau = t - 2 * n * L + (x + half)
        if n == 0:
            g = np.ones(shape)
        else:   # ((J0 tau)^(2n) - 2n (J0 tau)^(2n-1)) / (2n)!
            g = (_power_ratio(j0 * tau, 2 * n)
                 - _power_ratio(j0 * tau, 2 * n - 1))
        acc = acc + g * _decay(tau, j0, omega)
    psi_le = -1j * rt * left_out * acc

    return {
        "e_m1": fermi_em1(t, j0, omega, L) * np.ones_like(x),
        "e_p1": fermi_e1(t, j0, omega, L) * np.ones_like(x),
        "psi_Ri": psi_ri,
        "psi_Re": psi_re,
        "psi_Li": psi_li,
        "psi_Le": psi_le,
    }


def _window(x, lo, hi):
    inside = (x > lo) & (x < hi)
    edge = (x == lo) | (x == hi)
    return np.where(inside, 1.0, np.where(edge, THETA_AT_ZERO, 0.0))


@dataclass(frozen=True)
class CollectiveRates:
    """Collective decay rates of the two-qubit chain in the Markovian limit."""

    gamma1: complex
    gamma2: complex
    theta: float


def collective_rates(gamma0: float, theta: float) -> CollectiveRates:
    """Gamma_{1/2} = gamma0 * (1 +/- exp(i*theta)), theta = Omega*L."""
    phase = np.exp(1j * theta)
    return CollectiveRates(gamma0 * (1 + phase), gamma0 * (1 - phase), theta)


def markovian_e1(t, gamma0, theta, omega):
    """Instantaneous-feedback limit of the transferred excitation.

    e1(t) = exp(-i*W*t)/2 * (exp(-Gamma1 t/2) - exp(-Gamma2 t/2)).
    """
    t = np.asarray(t, dtype=float)
    r = collective_rates(gamma0, theta)
    val = (np.exp(-1j * omega * t) / 2.0
           * (np.exp(-r.gamma1 * t / 2.0) - np.exp(-r.gamma2 * t / 2.0)))
    return val if val.ndim else complex(val)
