"""Hard-coded closed forms for two qubits separated by L, and their
instantaneous-feedback (Markovian) limit.

Geometry: qubit -1 at x = -L/2 starts excited, qubit +1 at x = +L/2 starts
in the ground state. All series are finite for finite t because every term
carries a Heaviside front; truncation is exact.

    e_{+1}(t) = -sum_n (tau_n J0)^(2n+1)/(2n+1)! exp(-(J0+i*W)tau_n) Theta(tau_n),
        tau_n = t - (2n+1)L
    e_{-1}(t) =  sum_n (s_n J0)^(2n)/(2n)!   exp(-(J0+i*W)s_n) Theta(s_n),
        s_n = t - 2nL

plus four field components (internal/external, right/left-moving) with their
own front times. These expressions are used as golden references against
the diagram engine, never derived from it.

Each term is evaluated only on its support tau >= 0, point by point, so a
term that has not switched on costs nothing and a value depends on its own
point alone; a sum stops at the first term that is past its peak and 0 at
every point, as every later term underflows too. The power ratio (J0 tau)^p / p! times exp(-(J0+iW)tau) is a
product of the two only where both stay in float64's normal range; for
p >= 150, where the direct power overflows, and where exp(-J0 tau)
underflows, it is one exponential with -J0 tau folded into the logarithm
of the ratio. A NaN time or position, and t = +inf (no finite sum of terms
is exact there), give NaN; an empty input gives an empty result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import THETA_AT_ZERO

__all__ = ["CollectiveRates", "collective_rates", "fermi_e1", "fermi_e1_terms",
           "fermi_em1_terms", "fermi_em1", "fermi_full_state", "markovian_e1"]


#: exp(-x) is a normal float64 for x below this
_X_NORMAL = -math.log(np.finfo(float).tiny)


def _power_ratio(x, power, z):
    """x^power / power! * exp(z) for x >= 0 and Re z = -x, each element on
    its own.

    Directly, except in log space, z added to the ratio's logarithm, for
    power >= 150 (the bare factorial overflows at 171; the deep Markovian
    regime has hundreds of active round trips), where x^power overflows
    and where exp(-x) underflows (large J0 tau at long times).
    """
    if power < 150:
        with np.errstate(over="ignore"):
            ratio = x ** power / math.factorial(power)
        far = np.isinf(ratio) | (x > _X_NORMAL)
        out = np.where(far, 0.0, ratio) * np.exp(z)
    else:
        out, far = np.zeros_like(z), x > 0    # log(0) never taken
    out[far] = np.exp(power * np.log(x[far]) - math.lgamma(power + 1) + z[far])
    return out


def _terms(t, s, first, L, j0, omega, mag):
    """The terms of a series, each on its support only.

    Term p = first, first + 2, ... is mag(J0 tau, p, -(J0+iW)tau)
    Theta(tau) with tau = t - pL + s, mag(x, p, z) a power ratio of x
    times exp(z). Yields (i, value): the flat indices of the broadcast
    (t, s) where 0 <= tau < inf, and the term there. A term's support lies
    inside the previous one's, so each term looks only at those points,
    and the series stops at the first term that has not switched on
    anywhere.

    It also stops at the first term that is exactly 0 at every point, with
    x = J0 tau <= p - 1 at every point: there each power ratio
    x^k / k! exp(-x) in the term (k = p, and p - 1 for the external field)
    is past its peak at x = k. The ratio of k + 2 at x - 2 J0 L is then at
    most x^2 / ((k + 1) (k + 2)) < 1 times that of k at x, with x <= k
    again, so every later term is smaller still and underflows too. The
    bound p - 1 rather than p keeps out the external field's zero at
    x = p, which is no underflow.
    """
    t, s = (a.ravel() for a in np.broadcast_arrays(t, s))
    i = np.arange(t.size)
    for p in itertools.count(first, 2):
        tau = t[i] - p * L + s[i]
        on = (tau >= 0) & (tau < np.inf)
        i, tau = i[on], tau[on]
        if not i.size:
            return
        x = j0 * tau
        value = (mag(x, p, -(j0 + 1j * omega) * tau)
                 * np.where(tau > 0, 1.0, THETA_AT_ZERO))
        if np.all(x <= p - 1) and not value.any():
            return
        yield i, value


def _series(t, s, first, L, j0, omega, mag):
    """Sum of `_terms` in the broadcast shape of t and s; NaN at a NaN or
    +inf t and at a NaN s."""
    out = np.where(~(t < np.inf) | np.isnan(s), complex(np.nan, np.nan), 0j)
    for i, v in _terms(t, s, first, L, j0, omega, mag):
        out.reshape(-1)[i] += v
    return out


def _split(t, first, L, j0, omega, mag):
    """`_terms` of a qubit series, each in the shape of t, 0 off its support."""
    t = np.asarray(t, dtype=float)
    out = []
    for i, v in _terms(t, 0.0, first, L, j0, omega, mag):
        out.append(np.zeros(t.shape, dtype=complex))
        out[-1].reshape(-1)[i] = v
    return out


def _e1_mag(x, p, z):
    """-x^p / p! exp(z), a term of e_{+1}."""
    return -_power_ratio(x, p, z)


def _external_mag(x, p, z):
    """(x^p - p x^(p-1)) / p! exp(z), a term of the external field; exp(z)
    at p = 0."""
    return _power_ratio(x, p, z) - _power_ratio(x, p - 1, z) if p else np.exp(z)


def fermi_e1_terms(t, j0, omega, L):
    """The terms of e_{+1} that have switched on somewhere in t, up to the
    first that is past its peak and 0 everywhere (`_terms`)."""
    return _split(t, 1, L, j0, omega, _e1_mag)


def fermi_e1(t, j0, omega, L):
    """Excitation amplitude of the initially unexcited qubit (+1)."""
    total = _series(np.asarray(t, dtype=float), 0.0, 1, L, j0, omega, _e1_mag)
    return total if total.ndim else complex(total)


def fermi_em1_terms(t, j0, omega, L):
    """The terms of e_{-1} that have switched on somewhere in t, up to the
    first that is past its peak and 0 everywhere (`_terms`)."""
    return _split(t, 0, L, j0, omega, _power_ratio)


def fermi_em1(t, j0, omega, L):
    """Excitation amplitude of the initially excited qubit (-1)."""
    total = _series(np.asarray(t, dtype=float), 0.0, 0, L, j0, omega,
                    _power_ratio)
    return total if total.ndim else complex(total)


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

    psi_ri, psi_li = _internal_field(t, x, j0, omega, L)
    # external right-mover past +L/2, transmitted through qubit +1:
    # tau = t - (2n+1)L - (x - L/2)
    psi_re = (1j * rt * _window(x, half, np.inf)
              * _series(t, half - x, 1, L, j0, omega, _external_mag))
    # external left-mover past -L/2, direct decay plus returned bounces:
    # tau = t - 2nL + (x + L/2)
    psi_le = (-1j * rt * _window(x, -np.inf, -half)
              * _series(t, x + half, 0, L, j0, omega, _external_mag))

    return {
        "e_m1": fermi_em1(t, j0, omega, L) * np.ones_like(x),
        "e_p1": fermi_e1(t, j0, omega, L) * np.ones_like(x),
        "psi_Ri": psi_ri,
        "psi_Re": psi_re,
        "psi_Li": psi_li,
        "psi_Le": psi_le,
    }


def _internal_field(t, x, j0, omega, L):
    """(psi_Ri, psi_Li): the field between the qubits, window included, as
    in `fermi_full_state`."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    half = L / 2.0
    rt = math.sqrt(j0)
    inside = _window(x, -half, half)
    # right-mover: n full round trips, then -L/2 -> x: tau = t - 2nL - (x + L/2)
    psi_ri = (-1j * rt * inside
              * _series(t, -(x + half), 0, L, j0, omega, _power_ratio))
    # left-mover: odd number of crossings, reflected at +L/2:
    # tau = t - (2n+1)L + (x - L/2)
    psi_li = (1j * rt * inside
              * _series(t, x - half, 1, L, j0, omega, _power_ratio))
    return psi_ri, psi_li


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
