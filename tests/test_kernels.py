import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import _kernels
from wqed.core import DelayedTerm, eval_term

_EPS = np.finfo(float).eps
_TINY = 2.0 ** -1074


def _random_terms(rng, n=8):
    terms = []
    for _ in range(n):
        npoly = int(rng.integers(1, 4))
        terms.append(DelayedTerm(
            delay=float(rng.uniform(0, 3)),
            pole=complex(rng.normal(), -abs(rng.normal()) - 0.1),
            poly_coeffs=tuple(complex(rng.normal(), rng.normal())
                              for _ in range(npoly)),
            carrier=float(rng.uniform(0, 10))))
    return tuple(terms)


# eval_terms_grid as a plain loop: every term over the whole grid, Theta
# from sign(tau), Horner over all coefficients and one exponential per term
# and point. The sweep multiplies in another order, so the kernel agrees
# with it within `_agreement_bound`.
def _padded_reference(terms, t):
    out = np.zeros(t.shape[0], dtype=complex)
    for tm in terms:
        tau = t - tm.delay
        theta = 0.5 * (1.0 + np.sign(tau))
        tau = np.maximum(tau, 0.0)
        poly = np.zeros_like(tau, dtype=complex)
        for c in reversed(tm.poly_coeffs):
            poly = poly * tau + c
        out += theta * poly * np.exp(-1j * (tm.pole + tm.carrier) * tau)
    return out


def _one(terms, i, pole=None):
    """Term i of `terms` alone, with pole + carrier replaced if given."""
    tm = terms[i]
    return (tm if pole is None else replace(tm, pole=pole, carrier=0.0),)


def _agreement_bound(terms, t):
    """Pointwise bound on |eval_terms_grid - _padded_reference|.

    Both form the same tau = fl(t - d) and run the same Horner steps on it,
    so the polynomial's own rounding cancels. With u = eps/2, n terms, and
    relative to each |term_i(t)|, what differs is
      * the exponent: the reference rounds r tau once, u |r| |tau|; the
        sweep rounds b - d, r (b - d), t - b and r (t - b), at most
        2u |r| (|b - d| + |t - b|), and |b - d| + |t - b| is |tau| when
        d <= b and at most 2G when b < d <= t (G the grid's span): together
        at most u |r| (3 |tau| + 4G) <= eps |r| (2 |tau| + 2G);
      * the exponentials: one in the reference, two in the sweep, each
        within 4u (exp, cos, sin and their product): 12u;
      * the complex products (within sqrt(5) u each): theta P * exp in the
        reference, P * exp(r (b - d)) and the group sum * exp(r (t - b))
        in the sweep: 3 sqrt(5) u < 7u;
      * the sums: each kernel adds at most n + 1 values, each addition
        within u of the sum of |term_i|: 2 (n + 1) u.
    That is below eps (n + 11 + 2 |r| (|tau| + G)) times |term_i(t)|. An
    exponential or product in the subnormal range is only exact to 2^-1074,
    scaled by at most |theta P_i| (every factor after it is <= 1 for a
    decaying term): four of those per term.
    """
    finite = t[np.isfinite(t)]
    span = float(np.ptp(finite)) if finite.size else 0.0
    n = len(terms)
    bound = np.zeros(t.shape)
    for i, tm in enumerate(terms):
        term = np.abs(_padded_reference(_one(terms, i), t))
        poly = np.abs(_padded_reference(_one(terms, i, 0j), t))
        rate = abs(tm.pole + tm.carrier)
        tau = np.abs(t - tm.delay)
        bound += (_EPS * (n + 11 + 2 * rate * (tau + span)) * term
                  + 4 * _TINY * poly)
    return bound


def test_grid_eval_matches_term_sum():
    rng = np.random.default_rng(0)
    terms = _random_terms(rng)
    t = np.linspace(-1, 5, 301)
    got = _kernels.eval_terms_grid(terms, t)
    want = sum(eval_term(tm, t) for tm in terms)
    np.testing.assert_allclose(got, want, atol=1e-12)

    # mixed degrees (one with zero top coefficients), an all-zero term, grid
    # points exactly on the delays (Theta = 1/2), a NaN time and, off the
    # supports, kappa |tau| up to 1275, where exp overflows
    terms = terms + (
        DelayedTerm(1.5, -1 - 0.5j, (1.0, 0.0, 2 - 1j, 0.0, 0.0), 2.0),
        DelayedTerm(0.25, 0.3 - 300j, (0.5j,), 0.0),
        DelayedTerm(2.0, -1j, (0.0, 0.0), 0.0))
    t = rng.permutation(np.concatenate([np.linspace(-4, 8, 97),
                                        [1.5, 0.25, 4.0, 2.0, np.nan]]))
    got = _kernels.eval_terms_grid(terms, t)
    want = sum(eval_term(tm, t) for tm in terms)
    assert np.array_equal(np.isfinite(got), np.isfinite(t))
    np.testing.assert_allclose(got, want, atol=1e-12)
    ref = _padded_reference(terms, t)
    on = np.isfinite(t)
    assert np.all(np.abs(got - ref)[on] <= _agreement_bound(terms, t)[on])


def test_far_off_support_is_exactly_zero():
    # kappa |tau| = 1000 off the support: exp would overflow to inf there
    tm = DelayedTerm(delay=0.0, pole=2 - 10j, poly_coeffs=(1.0, 0.5),
                     carrier=1.0)
    t = np.array([-100.0, 100.0])
    got = _kernels.eval_terms_grid([tm], t)
    assert got[0] == 0 and got[1] == 0
    assert np.all(eval_term(tm, t) == 0)


@pytest.mark.parametrize("growing", [False, True])
@pytest.mark.parametrize("coeffs", [(1, -2, 0, 3, 0), (0.5, 2.0), (2,)])
def test_real_and_integer_rows_match_complex_ones(coeffs, growing):
    """Real and integer coefficients, delays and carriers give the bits of
    the same term written in complex coefficients and float fields, for a
    decaying and a growing rate (whose values reach 5e4, hence a relative
    tolerance against eval_term)."""
    t = np.linspace(-2.0, 6.0, 57)
    pole = 1j if growing else -1j
    plain = DelayedTerm(1, pole, coeffs, 3)
    rich = DelayedTerm(1.0, pole, tuple(map(complex, coeffs)), 3.0)
    got = _kernels.eval_terms_grid([plain], t)
    assert np.array_equal(got.view(np.int64),
                          _kernels.eval_terms_grid([rich], t).view(np.int64))
    tol = {"rtol": 1e-14, "atol": 0} if growing else {"rtol": 0, "atol": 1e-14}
    np.testing.assert_allclose(got, eval_term(rich, t), **tol)


@st.composite
def _sweep_cases(draw):
    """Decaying terms (degrees 0-24, delays from a pool of three,
    kappa_max * span up to 2000) and a grid with duplicates,
    points exactly on the delays and NaNs, in a random order.

    Coefficients are scaled as the engine's are, |c_m| <= kappa^m / m!, so
    each monomial times exp(-kappa |tau|) stays below 1 on the support.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t0 = draw(st.floats(-20.0, 20.0))
    span = draw(st.floats(0.5, 50.0))
    kappa_max = draw(st.floats(0.0, 2000.0)) / span
    pool = t0 + span * rng.uniform(-0.2, 1.2, 3)
    terms = []
    for i in range(draw(st.integers(1, 6))):
        kappa = kappa_max if i == 0 else kappa_max * rng.uniform()
        omega, carrier = rng.uniform(-50.0, 50.0), rng.uniform(0.0, 200.0)
        coeffs = tuple(
            complex(*rng.uniform(-1.0, 1.0, 2)) * kappa**m / math.factorial(m)
            for m in range(draw(st.integers(0, 24)) + 1))
        terms.append(DelayedTerm(float(rng.choice(pool)),
                                 complex(omega - carrier, -kappa),
                                 coeffs, carrier))
    t = np.concatenate([[t0, t0 + span],
                        t0 + span * rng.uniform(0.0, 1.0, draw(st.integers(0, 40))),
                        rng.choice(pool, draw(st.integers(0, 4))),
                        [np.nan] * draw(st.integers(0, 2))])
    t = np.concatenate([t, rng.choice(t, draw(st.integers(0, 3)))])
    return tuple(terms), rng.permutation(t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sweep_cases())
def test_sweep_properties(case):
    terms, t = case
    got = _kernels.eval_terms_grid(terms, t)
    # NaN in, NaN out; finite elsewhere
    assert np.array_equal(np.isnan(got), np.isnan(t))
    assert np.all(np.isfinite(got[~np.isnan(t)]))
    # agreement with the plain loop
    on = ~np.isnan(t)
    err = np.abs(got - _padded_reference(terms, t))[on]
    assert np.all(err <= _agreement_bound(terms, t)[on])
    # the same bits whatever the order of the grid
    up = np.argsort(t, kind="stable")
    for order in (up, up[::-1], np.random.default_rng(1).permutation(t.size)):
        assert np.array_equal(_kernels.eval_terms_grid(terms, t[order]).view(
            np.int64), got[order].view(np.int64))
    # exactly zero off every support
    off = on.copy()
    for tm in terms:
        off &= t < tm.delay
    assert np.all(got[off] == 0)


# dde_rk4's scheme as a scalar loop, one step and one qubit at a time (same
# stages, lookups and switch-on rules): the reference for the block kernel.
def _reference_dde_rk4(alpha0, nsteps, dt, delay_steps, kernel_phase,
                       half_gamma, drive_amp, drive_sigma, drive_arrival):
    nq = alpha0.shape[0]
    alpha = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    f_right = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    f_left = np.zeros((nsteps + 1, nq), dtype=np.complex128)
    alpha[0, :] = alpha0

    stage = np.zeros(nq, dtype=np.complex128)
    k1 = np.zeros(nq, dtype=np.complex128)
    k2 = np.zeros(nq, dtype=np.complex128)
    k3 = np.zeros(nq, dtype=np.complex128)
    k4 = np.zeros(nq, dtype=np.complex128)

    # node derivatives at t=0 (right: step-start activity n >= m; left: n > m)
    for j in range(nq):
        acc = 0.0 + 0.0j
        for l in range(nq):
            if delay_steps[j, l] == 0:
                acc += kernel_phase[j, l] * alpha[0, l]
        drv = 0.0 + 0.0j
        if drive_amp[j] != 0 and 0 >= drive_arrival[j]:
            drv = drive_amp[j] * np.exp(drive_sigma * drive_arrival[j] * dt)
        f_right[0, j] = drv - half_gamma * acc
        f_left[0, j] = 0.0

    for n in range(nsteps):
        for s in range(4):
            if s == 0:
                c = 0.0
            elif s == 3:
                c = 1.0
            else:
                c = 0.5
            for j in range(nq):
                if s == 0:
                    stage[j] = alpha[n, j]
                elif s == 1:
                    stage[j] = alpha[n, j] + 0.5 * dt * k1[j]
                elif s == 2:
                    stage[j] = alpha[n, j] + 0.5 * dt * k2[j]
                else:
                    stage[j] = alpha[n, j] + dt * k3[j]
            for j in range(nq):
                acc = 0.0 + 0.0j
                for l in range(nq):
                    m = delay_steps[j, l]
                    if n < m:
                        continue  # inactive during this whole step
                    if m == 0:
                        acc += kernel_phase[j, l] * stage[l]
                    elif c == 0.0:
                        acc += kernel_phase[j, l] * alpha[n - m, l]
                    elif c == 1.0:
                        acc += kernel_phase[j, l] * alpha[n + 1 - m, l]
                    else:
                        i0 = n - m
                        y0 = alpha[i0, l]
                        y1 = alpha[i0 + 1, l]
                        m0 = f_right[i0, l] * dt
                        m1 = f_left[i0 + 1, l] * dt
                        # cubic Hermite at the midpoint of [i0, i0+1]
                        acc += kernel_phase[j, l] * (
                            0.5 * (y0 + y1) + 0.125 * (m0 - m1))
                drv = 0.0 + 0.0j
                if drive_amp[j] != 0 and n >= drive_arrival[j]:
                    drv = drive_amp[j] * np.exp(
                        -drive_sigma * (n - drive_arrival[j] + c) * dt)
                res = drv - half_gamma * acc
                if s == 0:
                    k1[j] = res
                elif s == 1:
                    k2[j] = res
                elif s == 2:
                    k3[j] = res
                else:
                    k4[j] = res
        for j in range(nq):
            alpha[n + 1, j] = alpha[n, j] + (dt / 6.0) * (
                k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])

        for j in range(nq):
            acc_r = 0.0 + 0.0j
            acc_l = 0.0 + 0.0j
            for l in range(nq):
                m = delay_steps[j, l]
                if n + 1 >= m:
                    acc_r += kernel_phase[j, l] * alpha[n + 1 - m, l]
                if n >= m:
                    acc_l += kernel_phase[j, l] * alpha[n + 1 - m, l]
            drv_r = 0.0 + 0.0j
            drv_l = 0.0 + 0.0j
            if drive_amp[j] != 0:
                lag = (n + 1 - drive_arrival[j]) * dt
                if n + 1 >= drive_arrival[j]:
                    drv_r = drive_amp[j] * np.exp(-drive_sigma * lag)
                if n >= drive_arrival[j]:
                    drv_l = drive_amp[j] * np.exp(-drive_sigma * lag)
            f_right[n + 1, j] = drv_r - half_gamma * acc_r
            f_left[n + 1, j] = drv_l - half_gamma * acc_l

    return alpha, f_right, f_left


def _chain_args(gaps, nsteps, dt=0.05, omega=3.7, excited=0, pulse=None):
    """dde_rk4 arguments for a chain whose gaps are whole numbers of steps.

    `pulse` is (sigma, direction, lead): a wavefront `lead` whole steps
    outside the entry qubit, so qubit j's arrival is node lead + its delay
    in steps from the entry qubit.
    """
    x = np.concatenate([[0.0], np.cumsum(gaps)]) * dt
    nq = x.shape[0]
    delay_steps = np.rint(np.abs(x[:, None] - x[None, :]) / dt).astype(np.int64)
    phase = np.exp(1j * omega * delay_steps * dt)
    alpha0 = np.zeros(nq, dtype=complex)
    amp = np.zeros(nq, dtype=complex)
    arrival = np.zeros(nq, dtype=np.int64)
    sigma = 1.0
    if pulse is None:
        alpha0[excited] = 1.0
    else:
        sigma, direction, lead = pulse
        sign = 1.0 if direction == "right" else -1.0
        entry = 0 if sign > 0 else nq - 1
        amp[:] = -1j * np.sqrt(2.0 * sigma) * np.exp(sign * 1j * omega * x)
        arrival[:] = lead + delay_steps[entry]
    return (alpha0, nsteps, dt, delay_steps, phase, 1.0, amp, sigma, arrival)


@pytest.mark.parametrize("args", [
    _chain_args([], 300),                                 # nq = 1: one block
    _chain_args([], 300, pulse=(0.7, "right", 41)),
    _chain_args([8], 8 * 12 + 3, dt=1 / 8),               # dt = L/8: B = 8
    _chain_args([7, 9], 101, dt=1 / 8, excited=1),        # gaps 7L/8, 9L/8: B = 7
    _chain_args([9, 7, 8], 150, dt=1 / 8, excited=3),
    _chain_args([8, 11], 131, pulse=(0.7, "right", 6)),  # arrivals mid-block
    _chain_args([9, 8], 131, pulse=(1.3, "left", 4)),
    _chain_args([8, 11], 131, pulse=(0.7, "right", 0)),  # arrival at node 0
    _chain_args([256], 5 * 256 + 77, dt=5 / 256, omega=200.0),  # Fermi pair, L = 5
    # the self-decay chunks hold 1/(|g| dt) = 40 steps at dt = 0.025
    _chain_args([], 2013, dt=0.025),                      # 51 chunks
    _chain_args([100], 351, dt=0.025),                    # B = 100: 3 chunks a block
    _chain_args([100], 351, dt=0.025, pulse=(0.7, "right", 57)),  # arrivals mid-chunk
    _chain_args([9, 12, 10, 15, 9, 11, 13], 157, excited=2),  # n = 8, B = 9
], ids=["single", "single-pulse", "B8", "uneven", "uneven4", "pulse-right",
        "pulse-left", "pulse-at-node-0", "fermi", "single-chunks", "block-chunks", "pulse-chunks",
        "uneven8"])
def test_block_rk4_matches_reference_loop(args):
    nsteps, delay_steps = args[1], args[3]
    if delay_steps.shape[0] > 1:
        assert nsteps % delay_steps[delay_steps > 0].min() != 0
    got = _kernels.dde_rk4(*args)
    want = _reference_dde_rk4(*args)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (nsteps + 1, delay_steps.shape[0])
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-13)


def test_block_rk4_lone_qubit_decays_as_the_stability_polynomial():
    """An excited lone qubit takes a_n = R^n, R the RK4 polynomial of
    z = -g dt. At g dt = 0.025, 30,000 steps decay by e^-750: a single
    closed-form chunk would overflow R^-n, 40-step chunks do not."""
    nsteps, dt = 30_000, 0.025
    alpha, _, _ = _kernels.dde_rk4(*_chain_args([], nsteps, dt=dt))
    z = -dt
    r = 1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24
    want = np.array([r ** n for n in range(nsteps + 1)])
    np.testing.assert_allclose(alpha[:, 0], want, rtol=1e-12, atol=1e-300)


def test_block_rk4_rejects_zero_cross_delay():
    args = list(_chain_args([8], 40))
    args[3] = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        _kernels.dde_rk4(*args)
