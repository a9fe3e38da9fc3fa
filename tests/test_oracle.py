import numpy as np
import pytest
import scipy.linalg

from wqed.core import ChainConfig, InitialCondition, PulseSpec
from wqed.errors import NonConvergence, OutOfRange, StepTooLarge
from wqed import evaluator, fermi, oracle


def test_single_qubit_decay_rate():
    cfg = ChainConfig(1, 3.0, 1.0, 0.0)
    hist = oracle.integrate_chain(cfg, InitialCondition.excited(0), 5.0, 1e-3)
    ts = hist.times()
    np.testing.assert_allclose(np.abs(hist.alpha[:, 0]), np.exp(-ts),
                               atol=1e-8)


def test_two_qubit_vs_exact_series():
    L = 0.5
    cfg = ChainConfig.fermi_pair(1.0, 3.7, L)
    hist = oracle.integrate_chain(cfg, InitialCondition.excited(0), 10 * L,
                                  L / 256)
    ts = hist.times()[1:]
    err1 = np.max(np.abs(hist.amplitudes(1)[1:]
                         - fermi.fermi_e1(ts, 1.0, 3.7, L)))
    err0 = np.max(np.abs(hist.amplitudes(0)[1:]
                         - fermi.fermi_em1(ts, 1.0, 3.7, L)))
    assert err1 < 1e-6
    assert err0 < 1e-6


def test_markov_regime_vs_matrix_exponential():
    L, th = 1e-3, 1.2
    nq = 3
    cfg = ChainConfig(nq, th / L, 1.0, L)
    hist = oracle.integrate_chain(cfg, InitialCondition.excited(0), 2.0, L / 8)
    J = np.array([[np.exp(1j * th * abs(j - l)) for l in range(nq)]
                  for j in range(nq)])
    a0 = np.zeros(nq, dtype=complex)
    a0[0] = 1.0
    worst = 0.0
    for k in (500, 4000, 12000):
        t = k * hist.dt
        ref = scipy.linalg.expm(-cfg.gamma0 / 2 * J * t) @ a0
        worst = max(worst, np.max(np.abs(hist.alpha[k] - ref)))
    # delayed equations differ from the instantaneous ones at O(gamma0*L)
    assert worst < 5 * cfg.gamma0 * L


def test_step_too_large_errors():
    cfg = ChainConfig.fermi_pair(1.0, 3.7, 0.5)
    init = InitialCondition.excited(0)
    with pytest.raises(StepTooLarge):
        oracle.integrate_chain(cfg, init, 2.0, 0.5 / 4)   # > 0.05/gamma0
    with pytest.raises(StepTooLarge):
        oracle.integrate_chain(cfg, init, 2.0, 0.03)      # > 0.05/gamma0
    with pytest.raises(StepTooLarge):
        oracle.integrate_chain(cfg, init, 2.0, 0.5 / 100.5)  # off-mesh
    # dt = L/4 divides L and is within 0.05/gamma0 = 2.5: only L/8 refuses
    with pytest.raises(StepTooLarge, match="exceeds L/8"):
        oracle.integrate_chain(ChainConfig.fermi_pair(0.01, 3.7, 1.0), init,
                               2.0, 0.25)


def test_history_interpolation_accuracy():
    cfg = ChainConfig(1, 3.0, 1.0, 0.0)
    hist = oracle.integrate_chain(cfg, InitialCondition.excited(0), 3.0, 1e-2)
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 3.0, 25):
        assert abs(hist.value(0, float(t)) - np.exp(-t)) < 1e-8
    assert hist.value(0, -0.5) == 0.0
    with pytest.raises(OutOfRange):
        hist.value(0, 3.5)


def test_single_qubit_alpha_modes():
    g0 = 2.0
    assert oracle.single_qubit_alpha(0.0, g0) == 1.0
    for t in (-2.0 / g0 * 2, -1.0, 0.5, 2.0 / g0 * 2):
        closed = np.exp(-g0 * abs(t) / 2)
        assert abs(oracle.single_qubit_alpha(t, g0) - closed) < 1e-9
    assert oracle.single_qubit_alpha(2.0 / g0, g0) == pytest.approx(np.exp(-1))
    assert oracle.single_qubit_alpha(-2.0 / g0, g0) == pytest.approx(np.exp(-1))


def test_backward_time_no_blowup():
    # decay into the past as well: |alpha| <= 1 everywhere
    g0 = 2.0
    ts = np.linspace(-5 / g0, 5 / g0, 41)
    vals = [abs(oracle.single_qubit_alpha(float(t), g0)) for t in ts]
    assert max(vals) <= 1.0 + 1e-12


@pytest.mark.parametrize("init", [
    InitialCondition.excited(0),
    # a front between two nodes of the L/256 mesh
    InitialCondition.incident(PulseSpec(0.6, 0.1037, "right")),
], ids=["excited", "pulse-off-mesh"])
def test_field_reconstruction_matches_engine(init):
    L = 0.5
    cfg = ChainConfig.fermi_pair(1.0, 3.7, L)
    hist = oracle.integrate_chain(cfg, init, 4.0, L / 256)
    t = 2.1
    xs = np.linspace(-1.9, 1.9, 41)
    _, pr, pl = evaluator.field_profile(cfg, init, t, xs).arrays()
    for i, x in enumerate(xs):
        rr, ll = oracle.reconstruct_field(hist, cfg, float(x), t, init)
        assert abs(rr - pr[i]) < 1e-5
        assert abs(ll - pl[i]) < 1e-5


def test_field_reconstruction_pulse_free_part():
    L = 0.5
    cfg = ChainConfig.fermi_pair(1.0, 3.7, L)
    init = InitialCondition.incident(PulseSpec(1.0, 1.0, "right"))
    hist = oracle.integrate_chain(cfg, init, 3.0, L / 256)
    # before the drive reaches any qubit, only the free pulse exists;
    # pick x behind the advected front (front + t = -0.85)
    t = 0.4
    x = -1.0
    pr, pl = oracle.reconstruct_field(hist, cfg, x, t, init)
    p = init.pulse
    front = cfg.positions[0] - p.x0
    u = (x - front) - t
    expected = (np.sqrt(2 * p.sigma) * np.exp(p.sigma * u)
                * np.exp(1j * cfg.omega * (x - t)))
    assert pr == pytest.approx(expected, rel=1e-12)
    assert pl == 0.0


def test_oracle_norm_conservation():
    L = 0.5
    cfg = ChainConfig.fermi_pair(1.0, 3.7, L)
    init = InitialCondition.excited(0)
    hist = oracle.integrate_chain(cfg, init, 3.0, L / 256)
    # trapezoid error is dominated by the |psi|^2 jumps at qubits/fronts
    # and scales linearly in the grid spacing; 1e-4 spacing suffices
    t = 2.5
    xs = np.linspace(-1.5 - t, 1.5 + t, 160001)
    tot = sum(abs(hist.amplitude(q, t)) ** 2 for q in range(2))
    vals = np.array([oracle.reconstruct_field(hist, cfg, float(x), t, init)
                     for x in xs])
    tot += np.trapezoid(np.abs(vals[:, 0]) ** 2 + np.abs(vals[:, 1]) ** 2, xs)
    assert tot == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("L", [0.5, 1.0])
def test_convergence_study_fourth_order(L):
    """At J0 L = 1 the coarsest step L/32 would break the 0.05/gamma0 limit,
    so every step is halved once."""
    cfg = ChainConfig.fermi_pair(1.0, 3.7, L)
    rep = oracle.convergence_study(cfg, InitialCondition.excited(0), 3.0)
    assert rep["order"] >= 3.5
    assert rep["errors"] == sorted(rep["errors"], reverse=True)
    assert rep["dts"][0] <= 0.05 / cfg.gamma0 < 2 * rep["dts"][0]


def test_convergence_study_pulse_off_the_mesh():
    """x0 = 0.1037 lies on no mesh L/2^k: the mesh starts x0 mod dt after
    t = 0, so every arrival is a node and the order stays four."""
    cfg = ChainConfig(3, 10.0, 1.0, 1.0)
    init = InitialCondition.incident(PulseSpec(0.6, 0.1037, "right"))
    rep = oracle.convergence_study(cfg, init, 4.0)
    assert rep["order"] >= 3.5


def test_convergence_study_single_qubit():
    cfg = ChainConfig(1, 3.0, 1.0, 0.0)
    rep = oracle.convergence_study(cfg, InitialCondition.excited(0), 3.0)
    assert rep["order"] >= 3.5


def test_convergence_study_pulse():
    cfg = ChainConfig.fermi_pair(1.0, 3.7, 0.5)
    init = InitialCondition.incident(PulseSpec(1.0, 0.75, "right"))
    rep = oracle.convergence_study(cfg, init, 3.0)
    assert rep["order"] >= 3.5
