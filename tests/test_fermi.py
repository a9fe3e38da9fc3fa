import numpy as np
import pytest

from wqed import fermi
from wqed.core import ChainConfig, InitialCondition
from wqed.evaluator import excitation_amplitude


def test_e1_zero_inside_light_cone():
    ts = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(fermi.fermi_e1(ts, 1.0, 5.0, 1.0), 0.0)


def test_e1_first_term_value():
    # J0=1, Omega=0, L=1, t=2: only n=0 active, e1 = -tau e^{-tau} = -e^{-1}
    assert fermi.fermi_e1(2.0, 1.0, 0.0, 1.0) == pytest.approx(-np.exp(-1.0))


def test_em1_initial_decay():
    t = 0.7
    val = fermi.fermi_em1(t, 1.0, 3.0, 5.0)  # t < 2L: pure decay
    assert val == pytest.approx(np.exp(-(1.0 + 3.0j) * t))


def test_em1_theta_midpoint_at_origin():
    # the series value at exactly t=0 is 0.5 (Heaviside midpoint); the
    # initial condition proper lives at the excluded boundary point
    assert fermi.fermi_em1(0.0, 1.0, 3.0, 1.0) == pytest.approx(0.5)


def test_series_truncation_is_exact():
    # adding delays beyond t changes nothing
    t, j0, om, L = 7.3, 1.0, 2.0, 1.0
    terms = fermi.fermi_e1_terms(t, j0, om, L)
    assert all(np.all(np.abs(tm) >= 0) for tm in terms)
    n_active = sum(1 for n in range(20) if t - (2 * n + 1) * L > 0)
    assert len(terms) >= n_active
    extra = [tm for tm in terms[n_active:]]
    for tm in extra:
        assert np.all(tm == 0)


def test_deep_markovian_no_overflow():
    # hundreds of active round trips must not overflow the factorials
    val = fermi.fermi_e1(2.5, 1.0, np.pi / 2e-3, 1e-3)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_long_times_stay_finite_and_match_engine():
    """Up to 160 L the series terms, including the not yet switched-on ones
    at large negative tau, must neither overflow nor leave the engine."""
    j0, om, L = 1.0, 10.0, 1.0
    cfg = ChainConfig.fermi_pair(j0, om, L)
    ts = np.linspace(0.0, 160.0, 1601, endpoint=False)[1:]
    for qubit, series in ((1, fermi.fermi_e1), (0, fermi.fermi_em1)):
        ref = series(ts, j0, om, L)
        assert np.all(np.isfinite(ref))
        amp = excitation_amplitude(cfg, InitialCondition.excited(0), qubit, 160.0)
        np.testing.assert_allclose(amp(ts), ref, rtol=0, atol=1e-10)


def test_full_state_finite_past_170L():
    xs = np.linspace(-1.0, 1.0, 9)
    st = fermi.fermi_full_state(175.0, xs, 1.0, 10.0, 1.0)
    for key, val in st.items():
        assert np.all(np.isfinite(val)), key


def test_terms_not_yet_switched_on_stay_finite_past_709():
    """exp(-J0*tau) of a term with tau < 0 overflows once J0|tau| > 709;
    it must not turn the term's zero into NaN."""
    ts = np.linspace(0.0, 720.0, 50)
    for series in (fermi.fermi_e1, fermi.fermi_em1):
        assert np.all(np.isfinite(series(ts, 1.0, 10.0, 1.0)))


@pytest.mark.parametrize("t", [740.0, 760.0])
def test_deep_markovian_long_times(t):
    """At J0 = 1, L = 0.01 and W = 0 the series has settled on -+50/101 (a
    40-digit sum gives that at t = 720, 740 and 760); there x^p / p!
    overflows and exp(-J0 tau) underflows, so each term is one exponential
    (warnings are errors)."""
    # the state's e_p1 and e_m1 are fermi_e1 and fermi_em1: one call per t,
    # as each component sums about 38,000 terms
    st = fermi.fermi_full_state(t, np.linspace(-1.0, 1.0, 9), 1.0, 0.0, 0.01)
    for key, val in st.items():
        assert np.all(np.isfinite(val)), key
    assert np.all(np.abs(st["e_p1"] + 50 / 101) < 1e-12)
    assert np.all(np.abs(st["e_m1"] - 50 / 101) < 1e-12)


def test_collective_rates():
    r = fermi.collective_rates(2.0, 0.0)
    assert r.gamma1 == pytest.approx(4.0)
    assert r.gamma2 == pytest.approx(0.0)
    r = fermi.collective_rates(2.0, np.pi)
    assert r.gamma1 == pytest.approx(0.0)
    assert r.gamma2 == pytest.approx(4.0)
    r = fermi.collective_rates(2.0, np.pi / 2)
    assert r.gamma1 == pytest.approx(2.0 * (1 + 1j))
    assert r.gamma2 == pytest.approx(2.0 * (1 - 1j))
    assert r.gamma1 + r.gamma2 == pytest.approx(2 * 2.0)


def test_markovian_e1_start_and_trapping():
    assert fermi.markovian_e1(0.0, 2.0, 1.0, 5.0) == 0.0
    # theta = pi: one collective rate vanishes, half the amplitude survives
    val = fermi.markovian_e1(500.0, 2.0, np.pi, 5.0)
    assert abs(val) == pytest.approx(0.5, abs=1e-12)


def test_markovian_sinh_identity():
    # e1 = -e^{-(J0+iW)t} sinh(t J0 e^{i theta}) when delays are dropped
    g0, th, om = 2.0, 0.8, 7.0
    j0 = g0 / 2
    ts = np.linspace(0.0, 4.0, 41)
    lhs = fermi.markovian_e1(ts, g0, th, om)
    rhs = -np.exp(-(j0 + 1j * om) * ts) * np.sinh(ts * j0 * np.exp(1j * th))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_markovian_limit_convergence():
    # max deviation shrinks roughly linearly with gamma0*L at fixed theta
    th, g0 = np.pi / 2, 2.0
    ts = np.linspace(0.0, 5.0 / g0, 1001)
    devs = []
    for L in (1e-2, 1e-3):
        om = th / L
        devs.append(np.max(np.abs(
            fermi.fermi_e1(ts, g0 / 2, om, L)
            - fermi.markovian_e1(ts, g0, th, om))))
    assert devs[1] < devs[0] / 5
    assert devs[1] < 5e-3


def test_full_state_initial_condition():
    st = fermi.fermi_full_state(0.0, np.array([0.3]), 1.0, 5.0, 1.0)
    # Theta(0)=0.5 convention puts the series at half the initial amplitude
    # exactly at t=0; everything else vanishes
    assert st["e_m1"][0] == pytest.approx(0.5)
    assert st["e_p1"][0] == 0.0
    for key in ("psi_Ri", "psi_Re", "psi_Li", "psi_Le"):
        assert st[key][0] == 0.0


def test_internal_field_window():
    L = 1.0
    xs = np.array([-2.0, -0.51, 0.51, 3.0])
    st = fermi.fermi_full_state(2.3, xs, 1.0, 5.0, L)
    np.testing.assert_array_equal(st["psi_Ri"], 0.0)
    np.testing.assert_array_equal(st["psi_Li"], 0.0)


def test_jump_at_left_qubit():
    # psi_R jumps by -i sqrt(J0) e_{-1}(t) across x = -L/2
    j0, om, L, t = 1.0, 4.0, 1.0, 1.7
    eps = 1e-9
    below = fermi.fermi_full_state(t, np.array([-L / 2 - eps]), j0, om, L)
    above = fermi.fermi_full_state(t, np.array([-L / 2 + eps]), j0, om, L)
    jump = ((above["psi_Ri"][0] + above["psi_Re"][0])
            - (below["psi_Ri"][0] + below["psi_Re"][0]))
    em1 = fermi.fermi_em1(t, j0, om, L)
    assert jump == pytest.approx(-1j * np.sqrt(j0) * em1, abs=1e-7)


NAN = complex(np.nan, np.nan)


@pytest.mark.parametrize("series", [fermi.fermi_e1, fermi.fermi_em1])
def test_nan_time_gives_nan(series):
    ts = np.array([1.0, np.nan, 3.0])
    got = series(ts, 1.0, 10.0, 1.0)
    assert np.isnan(got[1].real) and np.isnan(got[1].imag)
    # the term count comes from the finite times: the others are unchanged
    for k in (0, 2):
        assert got[k] == series(ts[k], 1.0, 10.0, 1.0)
    assert np.isnan(series(np.nan, 1.0, 10.0, 1.0))
    assert np.isnan(series(np.inf, 1.0, 10.0, 1.0))


@pytest.mark.parametrize("series", [fermi.fermi_e1, fermi.fermi_em1])
def test_empty_time_gives_empty(series):
    got = series(np.array([]), 1.0, 10.0, 1.0)
    assert got.shape == (0,) and got.dtype == complex


def test_full_state_nan_time_gives_nan():
    st = fermi.fermi_full_state(np.nan, np.array([-2.0, 0.1, 2.0]),
                                1.0, 10.0, 1.0)
    for key, val in st.items():
        assert np.all(np.isnan(val)), key


def test_full_state_nan_position_gives_nan():
    xs = np.array([-2.0, np.nan, 0.1, 2.0])
    st = fermi.fermi_full_state(2.7, xs, 1.0, 10.0, 1.0)
    each = [fermi.fermi_full_state(2.7, xs[k:k + 1], 1.0, 10.0, 1.0)
            for k in (0, 2, 3)]
    for key in ("psi_Ri", "psi_Re", "psi_Li", "psi_Le"):
        assert np.isnan(st[key][1]), key
        np.testing.assert_array_equal(st[key][[0, 2, 3]],
                                      [e[key][0] for e in each])


def test_full_state_empty_position_gives_empty():
    st = fermi.fermi_full_state(2.7, np.array([]), 1.0, 10.0, 1.0)
    for key, val in st.items():
        assert val.shape == (0,), key


def _pointwise(series, ts, *args):
    return np.array([series(t, *args) for t in ts.ravel()]).reshape(ts.shape)


@pytest.mark.parametrize("series", [fermi.fermi_e1, fermi.fermi_em1])
def test_value_depends_only_on_its_own_point(series):
    """The direct or log-space form of (J0 tau)^p / p! is picked element by
    element, so a grid gives the same bits as its points one at a time."""
    ts = np.linspace(0.0, 150.0, 400)
    args = (5.0, 200.0, 1.0)
    np.testing.assert_array_equal(series(ts, *args), _pointwise(series, ts, *args))
    rng = np.random.default_rng(3)
    shuffled = rng.permutation(ts)
    np.testing.assert_array_equal(series(shuffled, *args),
                                  _pointwise(series, shuffled, *args))
    grid = shuffled.reshape(20, 20)
    np.testing.assert_array_equal(series(grid, *args),
                                  _pointwise(series, grid, *args))


def test_deep_markovian_value_depends_only_on_its_own_point():
    # 1,250 terms at t = 2.5, all past the power where log space takes over
    ts = np.array([2.5, 0.3, 1.7, 2.4999, 1.0])
    args = (1.0, np.pi / 2e-3, 1e-3)
    np.testing.assert_array_equal(fermi.fermi_e1(ts, *args),
                                  _pointwise(fermi.fermi_e1, ts, *args))


def test_full_state_value_depends_only_on_its_own_point():
    xs = np.random.default_rng(5).permutation(np.linspace(-3.0, 3.0, 61))
    ts = np.array([[0.4], [2.6], [9.1]])
    st = fermi.fermi_full_state(ts, xs, 1.0, 10.0, 1.0)
    for r, t in enumerate(ts[:, 0]):
        for k, x in enumerate(xs):
            one = fermi.fermi_full_state(t, x, 1.0, 10.0, 1.0)
            for key, val in one.items():
                assert st[key][r, k] == val, (key, t, x)


@pytest.fixture
def term_points(monkeypatch):
    """Sizes of the arrays the power ratio is evaluated on, call by call;
    each must hold J0 tau >= 0 only."""
    sizes, power_ratio = [], fermi._power_ratio

    def counted(x, power, z):
        assert np.all(x >= 0)
        sizes.append(x.size)
        return power_ratio(x, power, z)

    monkeypatch.setattr(fermi, "_power_ratio", counted)
    return sizes


def test_terms_are_evaluated_on_their_support_only(term_points):
    """fermi-demo at L = 2: the e1 grid and the three internal snapshots."""
    L = 2.0
    ts = np.linspace(0.0, 8 * L, 2001, endpoint=False)
    fermi.fermi_e1(ts, 1.0, 10.0, L)
    assert term_points == [1750, 1250, 750, 250]
    term_points.clear()
    xs = np.linspace(-L / 2, L / 2, 401)
    for t in (0.5 * L, 1.5 * L, 2.5 * L):
        fermi._internal_field(t, xs, 1.0, 10.0, L)
    assert sum(term_points) == 1806
