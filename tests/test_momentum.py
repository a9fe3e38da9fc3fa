import math

import numpy as np
import pytest
import scipy.integrate

from wqed.core import eval_term
from wqed.errors import HorizonTooLarge, IllConditioned, RealAxisPole
from wqed.momentum import (RationalFn, coeff_e, coeff_r, coeff_t,
                           inverse_transform, mul, partial_fractions,
                           pulse_spectrum, simple_pole)
from wqed.core import PulseSpec


def test_coefficients_at_resonance():
    j0 = 1.3
    assert coeff_t(j0)(0.0) == 0.0
    assert coeff_r(j0)(0.0) == pytest.approx(-1.0)
    # |t|^2 + |r|^2 = 1 on the real axis (lossless scattering)
    d = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(np.abs(coeff_t(j0)(d)) ** 2
                               + np.abs(coeff_r(j0)(d)) ** 2, 1.0, atol=1e-12)


def test_mul_merges_multiplicity():
    j0 = 1.0
    f = mul(coeff_r(j0), coeff_e(j0))
    assert f.poles == ((-1j * j0, 2),)
    assert f.is_strictly_proper


def test_numerator_degree_cap():
    with pytest.raises(ValueError):
        RationalFn((1.0, 2.0, 3.0), ((-1j, 1),))


def test_partial_fractions_simple():
    # 1/((D+i)(D+2i)) = i/(D+i) - i/(D+2i) -- wait, check numerically instead
    f = RationalFn((1.0,), ((-1j, 1), (-2j, 1)))
    pieces = partial_fractions(f)
    d = 0.37 - 0.21j
    rec = sum(c / (d - p) ** k for p, k, c in pieces)
    assert rec == pytest.approx(f(d), rel=1e-12)


def test_partial_fractions_high_multiplicity():
    f = RationalFn((1.0, 0.5j, -0.25), ((-1j, 3), (-0.7j + 2, 2)))
    pieces = partial_fractions(f)
    for d in (0.1, -3.3 + 0.4j, 7.0):
        rec = sum(c / (d - p) ** k for p, k, c in pieces)
        assert rec == pytest.approx(f(d), rel=1e-10)


def test_partial_fractions_requires_strictly_proper():
    with pytest.raises(ValueError):
        partial_fractions(coeff_t(1.0))


def test_ill_conditioned_near_poles():
    f = RationalFn((1.0,), ((-1j, 1), (-1j * (1 + 1e-11), 1)))
    # poles this close merge into one double pole at canonicalization
    assert f.total_multiplicity == 2
    g = RationalFn((1.0,), ((-1j, 1), (-1j - 1e-10, 1)))
    if len(g.poles) == 2:
        with pytest.raises(IllConditioned):
            partial_fractions(g)


def test_real_axis_pole_rejected():
    f = RationalFn((1.0,), ((0.5 + 0j, 1),))
    with pytest.raises(RealAxisPole):
        inverse_transform(f, 0.0, 0.0)


def test_inverse_transform_refuses_pole_order_172():
    """(k - 1)! passes float64 for a pole of order k = 172."""
    f = RationalFn((1.0,), ((-1j, 172),))
    with pytest.raises(HorizonTooLarge):
        inverse_transform(f, 0.0, 0.0)


def test_inverse_transform_single_pole():
    # sqrt(J0)/(D + i J0) -> -i sqrt(J0) e^{-J0 tau} Theta(tau)
    j0 = 1.7
    terms = inverse_transform(coeff_e(j0), 0.0, 0.0)
    assert len(terms) == 1
    tm = terms[0]
    assert tm.pole == pytest.approx(-1j * j0)
    assert tm.poly_coeffs[0] == pytest.approx(-1j * math.sqrt(j0))
    tau = 0.9
    assert eval_term(tm, tau) == pytest.approx(
        -1j * math.sqrt(j0) * np.exp(-j0 * tau))


def test_inverse_transform_double_pole():
    # J0/(D + i J0)^2 -> -J0 tau e^{-J0 tau} Theta(tau)
    j0 = 1.0
    f = RationalFn((j0,), ((-1j * j0, 2),))
    (tm,) = inverse_transform(f, 0.0, 0.0)
    np.testing.assert_allclose(tm.poly_coeffs, (0.0, -j0), atol=1e-14)
    tau = 1.3
    assert eval_term(tm, tau) == pytest.approx(-j0 * tau * np.exp(-j0 * tau))


def test_inverse_transform_two_sided():
    # 2 J0/(D^2 + J0^2) -> e^{-J0 |t|}: the lower pole gives t > 0, and the
    # upper one t < 0 as the transform of f(-D) at -t
    j0 = 1.0
    f = RationalFn((2 * j0,), ((-1j * j0, 1), (1j * j0, 1)))
    (ahead,) = inverse_transform(f, 0.0, 0.0)
    assert ahead.pole == -1j * j0
    # f(-D): coefficients (-1)^k c_k, poles -p, all times (-1)^M
    m = f.total_multiplicity
    reflected = RationalFn(
        tuple((-1) ** (m + k) * c for k, c in enumerate(f.numer)),
        tuple((-p, k) for p, k in f.poles))
    (back,) = inverse_transform(reflected, 0.0, 0.0)
    assert back.pole == -1j * j0
    for t in (-1.4, -0.2, 0.6, 2.0):
        val = eval_term(ahead, t) if t > 0 else eval_term(back, -t)
        assert val == pytest.approx(np.exp(-j0 * abs(t)), abs=1e-13)


W = 200.0


def _quad_reference(f, tau):
    re = scipy.integrate.quad(
        lambda d: (f(d) * np.exp(-1j * d * tau)).real, -W, W, limit=800)[0]
    im = scipy.integrate.quad(
        lambda d: (f(d) * np.exp(-1j * d * tau)).imag, -W, W, limit=800)[0]
    return (re + 1j * im) / (2 * np.pi)


def test_inverse_transform_against_quadrature():
    """Residue results vs brute-force quadrature on [-W, W], W = 200 J0."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        nfac = rng.integers(1, 4)
        f = simple_pole(complex(rng.normal(), rng.normal()),
                        complex(rng.uniform(-2, 2), -rng.uniform(0.3, 2.0)))
        for _ in range(nfac):
            kind = rng.integers(0, 3)
            j0 = float(rng.uniform(0.5, 2.0))
            fac = (coeff_t(j0), coeff_r(j0), coeff_e(j0))[kind]
            f = mul(f, fac)
        try:
            terms = inverse_transform(f, 0.0, 0.0)
        except IllConditioned:
            continue
        for tau in rng.uniform(0.2, 3.0, 2):
            exact = sum(eval_term(tm, tau) for tm in terms)
            assert abs(exact - _quad_reference(f, tau)) < 1e-4


def test_inverse_transform_delay_and_carrier():
    j0, delay, carrier = 1.0, 2.0, 5.0
    (tm,) = inverse_transform(coeff_e(j0), delay, carrier)
    assert tm.delay == delay
    assert tm.carrier == carrier
    t = 2.9
    tau = t - delay
    expected = -1j * np.exp(-(j0 + 1j * carrier) * tau)
    assert eval_term(tm, t) == pytest.approx(expected)


def test_pulse_spectrum_pole():
    spec = PulseSpec(0.8, 1.5, "right")
    f, shift = pulse_spectrum(spec, 10.0, entry_position=-1.0)
    assert shift == 1.5
    assert f.poles == ((-0.8j, 1),)
    # normalization: int |f|^2 dD / 2pi = 1 (single photon)
    d = np.linspace(-400, 400, 2_000_001)
    norm = np.trapezoid(np.abs(f(d)) ** 2, d) / (2 * np.pi)
    # finite window [-400, 400] truncates ~1e-3 of the Lorentzian tail
    assert norm == pytest.approx(1.0, abs=2e-3)
