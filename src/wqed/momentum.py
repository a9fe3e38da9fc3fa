"""Rational-function algebra over the detuned momentum and its inverse transform.

Scattering at a single qubit is encoded by three coefficients of the
detuning D = E - Omega:

    t(D) = D / (D + i*J0)        (transmission)
    r(D) = -i*J0 / (D + i*J0)    (reflection)
    e(D) = sqrt(J0) / (D + i*J0) (excitation pickup)

Diagram cascades multiply these together; the closed-form time dependence
comes from the contour integral

    (1/2pi) Int dD f(D) exp(-i*D*tau)

evaluated by residues after a partial-fraction split. A pole p with
Im(p) < 0 and order m contributes

    Theta(tau) * C * (-i) * (-i*tau)^(m-1)/(m-1)! * exp(-i*p*tau),

closing the contour downward for tau > 0; poles with Im(p) > 0 contribute
only for tau < 0, where the integral is that of f(-D) at -tau.

The amplitude engine splits no partial fractions: its class functions have
poles only at -iJ0 and at a pulse's -i*sigma, and `diagrams.class_rows`
writes their residues in closed form. `partial_fractions` and
`inverse_transform` are the reference behind the per-path tree walk
(`diagrams.enumerate_diagrams`) and the tests of that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DelayedTerm, PulseSpec
from .errors import HorizonTooLarge, IllConditioned, RealAxisPole

_MERGE_RTOL = 1e-12     # coincident poles merge into higher multiplicity
_SPLIT_ATOL = 1e-9      # distinct poles closer than this are ill-conditioned
_TRIM_RTOL = 1e-13      # relative cutoff for trailing numerator noise
_MAX_ORDER = 171        # (k-1)! overflows float64 for larger pole orders k


def _canonical_poles(poles) -> tuple[tuple[complex, int], ...]:
    items = sorted(((complex(p), int(m)) for p, m in poles),
                   key=lambda pm: (pm[0].real, pm[0].imag))
    merged: list[list] = []
    for p, m in items:
        if merged and abs(p - merged[-1][0]) < _MERGE_RTOL * (1 + abs(p)):
            merged[-1][1] += m
        else:
            merged.append([p, m])
    return tuple((p, m) for p, m in merged)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    mags = np.abs(coeffs)
    top = mags.max() if mags.size else 0.0
    keep = len(coeffs)
    while keep > 1 and mags[keep - 1] <= _TRIM_RTOL * top:
        keep -= 1
    return coeffs[:keep]


@dataclass(frozen=True)
class RationalFn:
    """numerator(D) / prod (D - p)^m with a monic denominator.

    deg(numerator) <= sum of multiplicities always holds; equality means the
    function carries a constant part (e.g. the transmission coefficient)
    and is not strictly proper.
    """

    numer: tuple[complex, ...]                 # ascending coefficients
    poles: tuple[tuple[complex, int], ...]     # canonical order

    def __post_init__(self):
        coeffs = _trim(np.asarray(self.numer, dtype=complex))
        object.__setattr__(self, "numer", tuple(coeffs))
        object.__setattr__(self, "poles", _canonical_poles(self.poles))
        if len(self.numer) - 1 > self.total_multiplicity:
            raise ValueError("numerator degree exceeds denominator degree")

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.poles)

    @property
    def is_strictly_proper(self) -> bool:
        return len(self.numer) - 1 < self.total_multiplicity or self.numer == (0j,)

    def __call__(self, delta):
        delta = np.asarray(delta, dtype=complex)
        num = np.zeros_like(delta)
        for c in reversed(self.numer):
            num = num * delta + c
        den = np.ones_like(delta)
        for p, m in self.poles:
            den = den * (delta - p) ** m
        out = num / den
        return out if out.ndim else complex(out)


def simple_pole(prefactor: complex, pole: complex) -> RationalFn:
    return RationalFn((complex(prefactor),), ((complex(pole), 1),))


def coeff_t(j0: float) -> RationalFn:
    """Transmission D/(D + i*J0)."""
    return RationalFn((0j, 1.0 + 0j), ((-1j * j0, 1),))


def coeff_r(j0: float) -> RationalFn:
    """Reflection -i*J0/(D + i*J0)."""
    return simple_pole(-1j * j0, -1j * j0)


def coeff_e(j0: float) -> RationalFn:
    """Excitation pickup sqrt(J0)/(D + i*J0)."""
    return simple_pole(math.sqrt(j0), -1j * j0)


def mul(a: RationalFn, b: RationalFn) -> RationalFn:
    """Exact product; coincident poles merge by multiplicity."""
    numer = np.convolve(np.asarray(a.numer, dtype=complex),
                        np.asarray(b.numer, dtype=complex))
    return RationalFn(tuple(numer), a.poles + b.poles)


def _shift_poly(coeffs: np.ndarray, p: complex) -> np.ndarray:
    """Taylor coefficients of poly(p + u) in u."""
    out = np.zeros_like(coeffs)
    for i, c in enumerate(coeffs):
        for k in range(i + 1):
            out[k] += c * math.comb(i, k) * p ** (i - k)
    return out


def _inverse_power_series(p: complex, q: complex, m: int, order: int) -> np.ndarray:
    """Taylor coefficients of 1/((p - q) + u)^m around u = 0, up to `order`."""
    base = p - q
    coeffs = np.zeros(order + 1, dtype=complex)
    c = base ** (-m)
    coeffs[0] = c
    for n in range(1, order + 1):
        c *= -(m + n - 1) / (n * base)
        coeffs[n] = c
    return coeffs


def partial_fractions(f: RationalFn) -> list[tuple[complex, int, complex]]:
    """Split a strictly proper f into sum of C/(D - p)^k pieces.

    Returns (pole, order k, coefficient C) entries. A built-in self check
    recombines the pieces at random real points and raises IllConditioned
    if the reconstruction drifts beyond 1e-10 relative.
    """
    if not f.is_strictly_proper:
        raise ValueError("partial fractions require a strictly proper function")
    numer = np.asarray(f.numer, dtype=complex)
    if not np.any(numer):
        return []
    pieces: list[tuple[complex, int, complex]] = []
    for p, m in f.poles:
        for q, _ in f.poles:
            if 0 < abs(p - q) < _SPLIT_ATOL * (1 + abs(p)):
                raise IllConditioned(f"poles {p} and {q} nearly coincide")
        series = _shift_poly(numer, p)[: m]
        if len(series) < m:
            series = np.pad(series, (0, m - len(series)))
        for q, mq in f.poles:
            if q == p:
                continue
            series = np.convolve(
                series, _inverse_power_series(p, q, mq, m - 1))[: m]
        for j in range(m):
            c = series[j]
            if c != 0:
                pieces.append((p, m - j, c))
    _check_recombination(f, pieces)
    return pieces


def _check_recombination(f: RationalFn, pieces) -> None:
    scale = 1 + max((abs(p) for p, _ in f.poles), default=1.0)
    pts = np.random.default_rng(20260826).uniform(-4 * scale, 4 * scale, 16)
    ref = np.atleast_1d(f(pts))
    rec = np.zeros(len(pts), dtype=complex)
    for p, k, c in pieces:
        rec += c / (pts - p) ** k
    denom = np.maximum(np.abs(ref), 1e-30)
    if np.any(np.abs(rec - ref) / denom > 1e-10):
        raise IllConditioned("partial fraction recombination check failed")


def inverse_transform(f: RationalFn, delay: float, carrier: float) -> list[DelayedTerm]:
    """Residue evaluation of (1/2pi) Int f(D) exp(-i*D*tau) dD for
    tau = t - delay > 0.

    Returns one DelayedTerm per lower-half-plane pole (orders merged into
    the polynomial); an upper-half-plane pole adds nothing for tau > 0.
    The branch tau < 0 is the inverse transform of f(-D) at -tau. Poles on
    the real axis are rejected: the transform is not absolutely convergent
    there and the caller has to regularize first. Pole orders above 171
    raise HorizonTooLarge: (k-1)! overflows float64 there.
    """
    if not f.is_strictly_proper:
        raise ValueError("inverse transform requires a strictly proper function")
    top = max((m for _, m in f.poles), default=0)
    if top > _MAX_ORDER:
        raise HorizonTooLarge(f"pole order {top} exceeds {_MAX_ORDER}: "
                              f"({top}-1)! overflows float64")
    for p, _ in f.poles:
        if abs(p.imag) < 1e-14 * (1 + abs(p)):
            raise RealAxisPole(f"pole {p} sits on the real axis")
    by_pole: dict[complex, list[tuple[int, complex]]] = {}
    for p, k, c in partial_fractions(f):
        if p.imag < 0:
            by_pole.setdefault(p, []).append((k, c))
    terms = []
    for p, orders in sorted(by_pole.items(), key=lambda kv: (kv[0].real, kv[0].imag)):
        npoly = max(k for k, _ in orders)
        coeffs = np.zeros(npoly, dtype=complex)
        for k, c in orders:
            coeffs[k - 1] += c * -1j * (-1j) ** (k - 1) / math.factorial(k - 1)
        terms.append(DelayedTerm(delay=delay, pole=p, poly_coeffs=tuple(coeffs),
                                 carrier=carrier))
    return terms


def pulse_spectrum(p: PulseSpec, cfg_omega: float, entry_position: float
                   ) -> tuple[RationalFn, float]:
    """Momentum-space starter for an incident decaying-exponential pulse.

    Returns (f, delay_shift). The detuning-linear phase exp(i*D*x0) from the
    pulse offset is absorbed into delay_shift = x0 (nothing can happen before
    the front has covered the stand-off distance); the carrier part of that
    offset phase and the entry-qubit position phase are folded into the
    prefactor, so the downstream terms carry exp(-i*Omega*t) exactly as the
    frame-by-frame eigenstate expansion dictates.

    The spectrum sqrt(2*sigma)/(sigma - i*D) has its single pole at -i*sigma,
    in the lower half-plane; its numerator is `pulse_prefactor`.
    """
    return (simple_pole(pulse_prefactor(p, cfg_omega, entry_position),
                        -1j * p.sigma), p.x0)


def pulse_prefactor(p: PulseSpec, cfg_omega: float,
                    entry_position: float) -> complex:
    """The numerator of `pulse_spectrum`'s simple pole."""
    phase = np.exp(p.sign * 1j * cfg_omega * p.front(entry_position))
    return complex(1j * math.sqrt(2 * p.sigma) * phase)
