"""Scattering parameters, their poles, and the no-upper-half-plane check.

Causality of the chain shows up in the analytic structure of its scattering
parameters: all poles in the detuning plane must lie in the closed lower
half-plane. A rational function's poles are read off directly, all of them.
The two-qubit round-trip (Fabry-Perot) transmission is transcendental, but it
has one pole per sign and Lambert W branch (Corless et al., Adv. Comput. Math.
5 (1996) 329), so its poles in a window are enumerated in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .momentum import RationalFn

#: Largest Im of a pole that check_no_uhp passes: a Fabry-Perot pole on the
#: real axis, at D = 0, may be rounded slightly above it
_UHP_MARGIN = 1e-9
#: Fabry-Perot search rectangle in units of j0: re in [-20, 20], im in [-20, 2]
DEFAULT_WINDOW = (-20.0, 20.0, -20.0, 2.0)


@dataclass(frozen=True)
class FabryPerot:
    """The two-qubit round-trip (Fabry-Perot) transmission
    T = t^2 e^{ikL} / (1 - r^2 e^{2ikL}), k = omega + delta."""

    j0: float
    omega: float
    L: float

    def __post_init__(self):
        if not (self.j0 > 0 and self.L > 0):
            raise ValueError("Fabry-Perot transmission needs j0 > 0 and L > 0")

    @property
    def window(self) -> tuple:
        """Where `find_poles` looks: DEFAULT_WINDOW in units of j0."""
        return tuple(w * self.j0 for w in DEFAULT_WINDOW)

    def __call__(self, delta):
        # t^2 e^{ikL} / (1 - r^2 e^{2ikL}) with t = delta / (delta + i j0)
        delta = np.asarray(delta, dtype=complex)
        val = (delta * delta * np.exp(1j * (self.omega + delta) * self.L)
               / self.denominator(delta))
        return val if val.ndim else complex(val)

    def _round_trip(self, delta):
        delta = np.asarray(delta, dtype=complex)
        j0 = self.j0
        k = self.omega + delta
        r = -1j * j0 / (delta + 1j * j0)
        return r * r * np.exp(2j * k * self.L)

    def denominator(self, delta):
        """(delta + i j0)^2 (1 - r^2 e^{2ikL}): entire, zero at the poles."""
        delta = np.asarray(delta, dtype=complex)
        j0, k = self.j0, self.omega + delta
        return (delta + 1j * j0) ** 2 + j0 * j0 * np.exp(2j * k * self.L)


def transmission_partial_sum(f: FabryPerot, delta, n_max: int):
    """Truncated round-trip sum; cross-check of the geometric closed form."""
    delta = np.asarray(delta, dtype=complex)
    k = f.omega + delta
    t = delta / (delta + 1j * f.j0)
    rt = f._round_trip(delta)
    acc = np.zeros_like(delta)
    term = np.ones_like(delta)
    for _ in range(n_max + 1):
        acc = acc + term
        term = term * rt
    return t * t * np.exp(1j * k * f.L) * acc


def _lambertw(log_z: complex, k: int) -> complex:
    """Branch k of Lambert W at z = exp(log_z); Im log_z in (-pi, pi] puts
    negative real z on the upper side of the cut (Corless et al.). Halley's
    iteration on w e^{w - Re log_z} = e^{i Im log_z} never forms a huge z."""
    s, phi = log_z.real, log_z.imag
    z = cmath.exp(log_z) if s < 2.0 else None
    # Initial guesses (Corless et al., sec. 4), complex off the real axis: the
    # series about the branch point -1/e, shared by W_0 and W_{-1} (W_1 below
    # the cut); log(1 + z) for W_0 at moderate z; else L1 - L2 + L2 / L1.
    if z is not None and abs(z + 1.0 / math.e) < 0.3 and (
            k == 0 or k == (-1 if phi >= 0 else 1)):
        p = cmath.sqrt(2.0 * (math.e * z + 1.0)) * (1.0 if k == 0 else -1.0)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    elif k == 0 and z is not None and z.real > -0.5:
        w = cmath.log(1.0 + z)
    else:
        l1 = complex(s, phi + 2.0 * math.pi * k)
        w = l1 - cmath.log(l1) + cmath.log(l1) / l1
    unit = cmath.exp(1j * phi)
    for _ in range(50):
        ew = cmath.exp(w - s)
        f = w * ew - unit
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * abs(w):  # cubic: w is now at rounding level
            return w
    raise NonConvergence(f"Halley iteration for W_{k}(exp({log_z})) failed")


def find_poles(f: RationalFn | FabryPerot) -> list[complex]:
    """Poles of f, sorted by real and then imaginary part.

    A rational function reports every one of its poles. A Fabry-Perot
    transmission has infinitely many; those inside f.window
    (re_lo, re_hi, im_lo, im_hi) are listed. With u = D + i*j0 its
    denominator vanishes where u e^{-iuL} = +-i j0 e^{i omega L + j0 L},
    i.e. at D = i W_k(+-j0 L e^{j0 L + i omega L}) / L - i j0: one pole per
    sign and branch k (a double zero is listed twice).
    """
    if isinstance(f, RationalFn):
        return [p for p, _ in f.poles]     # canonical order: sorted
    re_lo, re_hi, im_lo, im_hi = f.window
    L, x = f.L, f.j0 * f.L
    # Re D = -Im W_k / L and |Im W_k| >= (2|k| - 2) pi, so no branch with
    # |k| > k_max reaches the window
    k_max = math.floor(max(abs(re_lo), abs(re_hi)) * L / (2 * math.pi)) + 1
    log_zs = [complex(math.log(x) + x,
                      cmath.phase(sign * cmath.exp(1j * f.omega * L)))
              for sign in (1.0, -1.0)]
    poles = [1j * _lambertw(log_z, k) / L - 1j * f.j0
             for log_z in log_zs for k in range(-k_max, k_max + 1)]
    return sorted((p for p in poles
                   if re_lo <= p.real <= re_hi and im_lo <= p.imag <= im_hi),
                  key=lambda z: (z.real, z.imag))


def check_no_uhp(f: RationalFn | FabryPerot) -> dict:
    """Report whether every pole `find_poles` lists sits at
    Im <= _UHP_MARGIN.

    Fabry-Perot poles pass on every branch: |W| e^{Re W} = j0 L e^{j0 L}
    forces Re W_k <= j0 L (x e^x increases), so Im D = Re W_k / L - j0 <= 0,
    with equality only at D = 0 when omega L is in pi*Z.
    """
    poles = find_poles(f)
    worst = max((p.imag for p in poles), default=-math.inf)
    return {"pass": worst <= _UHP_MARGIN, "poles": poles, "worst_im": worst}
