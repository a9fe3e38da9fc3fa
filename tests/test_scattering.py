import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wqed
from wqed.momentum import coeff_e, coeff_r, coeff_t, simple_pole
from wqed.scattering import (FabryPerot, _lambertw, check_no_uhp, find_poles,
                             transmission_partial_sum)


def test_transmission_resonance_zero():
    f = FabryPerot(1.0, 10.0, 1.0)
    assert abs(f(0.0)) < 1e-12


def test_transmission_large_detuning_free_phase():
    j0, om, L = 1.0, 10.0, 1.0
    f = FabryPerot(j0, om, L)
    d = 1e6
    free = np.exp(1j * (om + d) * L)
    assert f(d) == pytest.approx(free, rel=1e-5)


def test_geometric_sum_identity():
    f = FabryPerot(1.0, 7.0, 0.8)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5, 5, 30) + 1j * rng.uniform(-1.5, 0.5, 30)
    for d in pts:
        if abs(f._round_trip(d)) < 0.9:
            partial = transmission_partial_sum(f, d, 200)
            assert abs(partial - f(d)) < 1e-8


def test_rational_pole_listing():
    assert find_poles(coeff_t(1.0)) == [-1j]
    # pulse spectrum pole at -i*sigma
    assert find_poles(simple_pole(1.0, -0.8j)) == [-0.8j]


def test_single_qubit_coefficients_pass():
    for fn in (coeff_t(1.0), coeff_r(1.0), coeff_e(1.0)):
        rep = check_no_uhp(fn)
        assert rep["pass"]
        assert rep["worst_im"] <= 0


def test_uhp_negative_control():
    # every pole of a rational function is seen, also far from -i j0
    for pole in (1j, 5j, 30 + 1j):
        rep = check_no_uhp(simple_pole(1.0, pole))
        assert not rep["pass"]
        assert rep["poles"] == [pole]
        assert rep["worst_im"] == pole.imag


def test_fabry_perot_markov_poles():
    j0, L = 1.0, 1e-3
    g0 = 2 * j0
    th = 1.1
    f = FabryPerot(j0, th / L, L)
    poles = find_poles(f)
    pred = sorted([-1j * g0 * (1 + np.exp(1j * th)) / 2,
                   -1j * g0 * (1 - np.exp(1j * th)) / 2],
                  key=lambda z: (z.real, z.imag))
    assert len(poles) >= 2
    near = sorted(poles, key=lambda z: min(abs(z - p) for p in pred))[:2]
    for p in pred:
        assert min(abs(q - p) for q in near) < 5e-3 * g0


def test_pole_verification_and_dedup():
    f = FabryPerot(1.0, 7.0, 0.5)
    poles = find_poles(f)
    for p in poles:
        assert abs(f.denominator(p)) < 1e-10
    for i, p in enumerate(poles):
        for q in poles[i + 1:]:
            assert abs(p - q) > 1e-8


def test_no_uhp_sweep():
    for th in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        for L in (0.1, 1.0, 5.0):
            om = (th if th > 0 else 2 * np.pi) / L
            rep = check_no_uhp(FabryPerot(1.0, om, L))
            assert rep["pass"], (th, L, rep["worst_im"])


def _winding_count(f: FabryPerot, n: int = 200_000) -> int:
    """Zeros of the entire function f.denominator inside f.window, by the
    argument principle: the winding of its phase around the boundary."""
    re_lo, re_hi, im_lo, im_hi = f.window
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    ends = corners[1:] + corners[:1]
    path = np.concatenate([np.linspace(a, b, n, endpoint=False)
                           for a, b in zip(corners, ends)] + [[corners[0]]])
    phase = np.unwrap(np.angle(f.denominator(path)))
    winding = (phase[-1] - phase[0]) / (2 * np.pi)
    assert abs(winding - round(winding)) < 1e-6
    return round(winding)


@pytest.mark.parametrize("j0, omega, L, expected",
                         [(1.0, 146.0, 6.0, 77), (1.0, 3.7, 1.0, 14)])
def test_pole_count_matches_argument_principle(j0, omega, L, expected):
    f = FabryPerot(j0, omega, L)
    assert _winding_count(f) == expected
    assert len(find_poles(f)) == expected


def _fp_z(x, thetas):
    """z = +-x e^x e^{i theta}: find_poles takes W_k there for j0 L = x."""
    return [sign * x * math.exp(x) * cmath.exp(1j * theta)
            for sign in (1.0, -1.0) for theta in thetas]


_THETAS = (0.0, 1.0, np.pi / 2, 2.5, np.pi, -2.0)


@pytest.mark.parametrize("zs, rtol", [
    pytest.param(_fp_z(1.0, _THETAS) + _fp_z(6.0, _THETAS)
                 + _fp_z(10.0, _THETAS), 1e-13, id="generic"),
    # real z in (-1, -1/e), on both sides of the cut: a near-real initial
    # guess does not reach the complex root of W_0 there
    pytest.param([z for x in (0.3, 0.33, 0.4, 0.49, 0.5)
                  for z in _fp_z(x, (0.0, np.pi))
                  + [complex(-x * math.exp(x), 0.0),
                     complex(-x * math.exp(x), -0.0)]], 1e-13,
                 id="negative-real"),
    # |z + 1/e| = 6e-5: W_0 meets W_{-1} or W_1 near a double root, which
    # rounding in z moves by about eps / sqrt(|z + 1/e|) ~ 1e-14; hence the
    # looser rtol
    pytest.param(_fp_z(0.2785, (0.0, 1e-9, -1e-9, np.pi)), 1e-12,
                 id="double-root"),
    # j0 L = 1e-3, as in the Markov-limit criterion
    pytest.param(_fp_z(1e-3, _THETAS), 1e-13, id="tiny-z"),
])
def test_lambertw_matches_scipy(zs, rtol):
    from scipy.special import lambertw
    # every branch find_poles can reach at L = 10 in the default window
    k_max = math.floor(20 * 10 / (2 * math.pi)) + 1
    for z in zs:
        for k in range(-k_max, k_max + 1):
            ref = complex(lambertw(z, k))
            w = _lambertw(cmath.log(z), k)
            assert abs(w - ref) <= rtol * max(1.0, abs(ref)), (z, k, w, ref)


def test_runtime_imports_leave_out_scipy():
    src = str(Path(wqed.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, wqed, wqed.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("j0, L", [(1.0, 0.0), (1.0, -1.0), (0.0, 1.0),
                                   (-1.0, 1.0), (1.0, math.nan)])
def test_fabry_perot_rejects_nonpositive_j0_or_L(j0, L):
    with pytest.raises(ValueError):
        FabryPerot(j0, 3.0, L)
