import math

import numpy as np
import pytest

from wqed.core import ChainConfig, InitialCondition, PulseSpec
from wqed.evaluator import (causality_probe, excitation_amplitude,
                            field_profile, total_norm)
from wqed import evaluator, fermi, oracle
from wqed.errors import HorizonTooLarge

J0 = 1.0
OMEGA = 3.7
L = 2.0


@pytest.fixture(scope="module")
def cfg():
    return ChainConfig.fermi_pair(J0, OMEGA, L)


@pytest.fixture(scope="module")
def excited():
    return InitialCondition.excited(0)


def test_excitation_matches_two_qubit_series(cfg, excited):
    ts = np.linspace(0.01, 12 * L, 911)
    e1 = excitation_amplitude(cfg, excited, 1, 12 * L)(ts)
    e0 = excitation_amplitude(cfg, excited, 0, 12 * L)(ts)
    np.testing.assert_allclose(e1, fermi.fermi_e1(ts, J0, OMEGA, L), atol=1e-12)
    np.testing.assert_allclose(e0, fermi.fermi_em1(ts, J0, OMEGA, L), atol=1e-12)


def test_pole_order_past_171_is_a_typed_error():
    """At 170 L every residue coefficient 1/(k-1)! is a float64 and the
    amplitude matches the (log-space) series; at 175 L it would not be."""
    cfg = ChainConfig.fermi_pair(1.0, 10.0, 1.0)
    init = InitialCondition.excited(0)
    ts = np.linspace(0.0, 170.0, 1701, endpoint=False)[1:]
    amp = excitation_amplitude(cfg, init, 1, 170.0)
    np.testing.assert_allclose(amp(ts), fermi.fermi_e1(ts, 1.0, 10.0, 1.0),
                               rtol=0, atol=1e-13)
    with pytest.raises(HorizonTooLarge):
        excitation_amplitude(cfg, init, 1, 175.0)


def test_single_qubit_decay():
    cfg1 = ChainConfig(1, OMEGA, J0, 0.0)
    amp = excitation_amplitude(cfg1, InitialCondition.excited(0), 0, 10.0)
    t = np.linspace(0.1, 8.0, 50)
    np.testing.assert_allclose(amp(t), np.exp(-(J0 + 1j * OMEGA) * t),
                               atol=1e-14)


def test_causality_probe_zero(cfg, excited):
    assert causality_probe(cfg, excited, 1) == 0.0


def test_causality_probe_three_qubit_chain():
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    init = InitialCondition.excited(0)
    assert causality_probe(cfg3, init, 2) == 0.0
    amp = excitation_amplitude(cfg3, init, 2, 5.0)
    assert amp.support_start() >= 2.0


def test_pulse_cannot_excite_before_standoff(cfg):
    init = InitialCondition.incident(PulseSpec(1.0, 1.5, "right"))
    assert causality_probe(cfg, init, 0) == 0.0
    amp = excitation_amplitude(cfg, init, 0, 10.0)
    assert amp.support_start() >= 1.5


def test_field_light_cone(cfg, excited):
    t = 1.3
    # right-moving emission from x=-L/2 cannot be past -L/2 + t
    xs = [-L / 2 + t + 0.05, -L / 2 + t + 2.0]
    _, pr, pl = field_profile(cfg, excited, t, xs).arrays()
    assert np.all(pr == 0.0)
    assert np.all(pl == 0.0)


def test_field_matches_exact_components(cfg, excited):
    t = 2.613 * L
    xs_in = np.linspace(-L / 2 + 1e-3, L / 2 - 1e-3, 301)
    _, pr, pl = field_profile(cfg, excited, t, xs_in).arrays()
    ref = fermi.fermi_full_state(t, xs_in, J0, OMEGA, L)
    np.testing.assert_allclose(pr, ref["psi_Ri"], atol=1e-12)
    np.testing.assert_allclose(pl, ref["psi_Li"], atol=1e-12)
    xs_out = np.linspace(L / 2 + 1e-3, L / 2 + 4.0, 301)
    _, pr, _ = field_profile(cfg, excited, t, xs_out).arrays()
    np.testing.assert_allclose(
        pr, fermi.fermi_full_state(t, xs_out, J0, OMEGA, L)["psi_Re"],
        atol=1e-12)


def test_jump_condition_right_qubit(cfg, excited):
    """psi_R(x_Q^+) - psi_R(x_Q^-) = -i sqrt(J0) e_Q(t)."""
    t = 3.41
    eps = 1e-9
    e1 = excitation_amplitude(cfg, excited, 1, t + 1.0)(t)
    _, pr, _ = field_profile(cfg, excited, t,
                             [L / 2 - eps, L / 2 + eps]).arrays()
    jump = pr[1] - pr[0]
    assert jump == pytest.approx(-1j * math.sqrt(J0) * e1, abs=1e-8)


def test_jump_condition_left_mover(cfg, excited):
    """psi_L(x_Q^+) - psi_L(x_Q^-) = +i sqrt(J0) e_Q(t)."""
    t = 3.41
    eps = 1e-9
    e0 = excitation_amplitude(cfg, excited, 0, t + 1.0)(t)
    _, _, pl = field_profile(cfg, excited, t,
                             [-L / 2 - eps, -L / 2 + eps]).arrays()
    jump = pl[1] - pl[0]
    assert jump == pytest.approx(1j * math.sqrt(J0) * e0, abs=1e-8)


def test_total_field_continuous_at_qubits(cfg, excited):
    t = 2.93
    eps = 1e-9
    for xq in cfg.positions:
        _, pr, pl = field_profile(cfg, excited, t,
                                  [xq - eps, xq + eps]).arrays()
        psi = pr + pl
        assert abs(psi[1] - psi[0]) < 1e-8


def test_unitarity_excited(cfg, excited):
    for t in (0.3, 1.1, 2.7 * L, 6.4):
        assert total_norm(cfg, excited, t) == pytest.approx(1.0, abs=1e-12)


def test_unitarity_pulse(cfg):
    init = InitialCondition.incident(PulseSpec(0.7, 1.2, "right"))
    for t in (0.4, 2.2, 5.9):
        assert total_norm(cfg, init, t) == pytest.approx(1.0, abs=1e-12)


def test_unitarity_pulse_left_three_qubits():
    cfg3 = ChainConfig(3, OMEGA, J0, 0.8)
    init = InitialCondition.incident(PulseSpec(2.0, 1.0, "left"))
    for t in (0.6, 2.3, 4.8):
        assert total_norm(cfg3, init, t) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("init", [
    InitialCondition.excited(0),
    InitialCondition.incident(PulseSpec(0.7, 1.2, "right"))])
def test_norm_at_t0_is_one(cfg, init):
    """At t = 0 the norm is the t -> 0+ limit, not Theta(0) = 1/2 of the
    excited qubit's own term."""
    assert total_norm(cfg, init, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert total_norm(ChainConfig(1, 10.0, J0, 0.0), init, 0.0) \
        == pytest.approx(1.0, abs=1e-13)


def test_field_where_field_finishers_refuse():
    """n = 5 at 1/8 spacing: the field-finisher residue step refuses this
    case, but the field is the qubits' emission and the amplitudes are
    fine. It matches the oracle off the two jump fronts."""
    cfg5 = ChainConfig(5, 4.0, J0, 0.125)
    init = InitialCondition.excited(0)
    t = 0.875
    xs = np.concatenate([np.linspace(-1.0, 1.5, 201), cfg5.positions])
    _, pr, pl = field_profile(cfg5, init, t, xs).arrays()
    hist = oracle.integrate_chain(cfg5, init, t, 1 / 2048)
    err = 0.0
    for x, r, l in zip(xs, pr, pl):
        if abs(abs(x) - t) > 1e-9:
            ref_r, ref_l = oracle.reconstruct_field(hist, cfg5, float(x), t)
            err = max(err, abs(r - ref_r), abs(l - ref_l))
    assert err < 1e-9
    assert total_norm(cfg5, init, t) == pytest.approx(1.0, abs=1e-13)


def test_one_class_pass_per_observable(monkeypatch):
    """The field and the norm take every qubit's amplitude from a single
    diagram-class pass."""
    calls = []
    original = evaluator.diagram_classes

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluator, "diagram_classes", counted)
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    init = InitialCondition.excited(1)
    total_norm(cfg3, init, 4.5)
    assert len(calls) == 1
    field_profile(cfg3, init, 4.5, [0.0, 1.5])
    assert len(calls) == 2


def test_norm_decays_into_field(cfg, excited):
    # late times: qubits nearly empty (feedback makes the decay slow at
    # gamma0*L = 4, but monotone), field carries the rest
    t = 20.0
    e0 = abs(excitation_amplitude(cfg, excited, 0, t + 1)(t)) ** 2
    e1 = abs(excitation_amplitude(cfg, excited, 1, t + 1)(t)) ** 2
    assert e0 + e1 < 0.05
    assert total_norm(cfg, excited, t) == pytest.approx(1.0, abs=1e-12)


def test_single_qubit_field_norm_is_exact():
    """A lone excited qubit radiates the norm 1 - exp(-2 J0 t) it loses;
    at J0 t = 40 each branch is one interval of 40 decay lengths."""
    cfg1 = ChainConfig(1, 10.0, J0, 0.0)
    for t in np.linspace(0.5, 40.0 / J0, 80):
        field = (total_norm(cfg1, InitialCondition.excited(0), t)
                 - math.exp(-2 * J0 * t))
        assert field == pytest.approx(-math.expm1(-2 * J0 * t), abs=1e-13)


@pytest.mark.parametrize("direction", ["right", "left"])
def test_single_qubit_sharp_pulse_norm(direction):
    """sigma = 5 J0: the intensity decays over 1/10 of a length unit, so
    the quadrature has to resolve it on intervals up to 9 units long."""
    cfg1 = ChainConfig(1, 10.0, J0, 0.0)
    init = InitialCondition.incident(PulseSpec(5.0, 1.0, direction))
    for t in np.linspace(0.0, 10.0, 41):
        assert total_norm(cfg1, init, t) == pytest.approx(1.0, abs=1e-13)


def test_field_far_ahead_of_front_is_exactly_zero():
    """Off a term's support exp(kappa |tau|) would overflow past
    kappa |tau| = 709; the field there must still be exactly 0."""
    cfg1 = ChainConfig(1, 10.0, 10.0, 0.0)
    prof = field_profile(cfg1, InitialCondition.excited(0), 1.0,
                         [-100.0, 100.0])
    assert np.all(prof.psi_right == 0) and np.all(prof.psi_left == 0)
    # incident segment up to 94 units ahead of the pulse front at x = -95
    cfg2 = ChainConfig.fermi_pair(J0, OMEGA, L)
    init = InitialCondition.incident(PulseSpec(10.0, 100.0, "right"))
    xs = np.linspace(-94.0, -1.0, 94)
    prof = field_profile(cfg2, init, 5.0, xs)
    assert np.all(prof.psi_right == 0) and np.all(prof.psi_left == 0)
    assert total_norm(cfg2, init, 5.0) == pytest.approx(1.0, abs=1e-13)


def _advection_residual(cfg, init, x, t, h):
    """(d_t + d_x) psi_R by second-order central differences."""
    def pr(xx, tt):
        return field_profile(cfg, init, tt, [xx]).psi_right[0]
    dt = (pr(x, t + h) - pr(x, t - h)) / (2 * h)
    dx = (pr(x + h, t) - pr(x - h, t)) / (2 * h)
    return abs(dt + dx)


def test_schrodinger_residual(cfg, excited):
    # away from qubits and fronts, psi_R is freely advected; the closed
    # forms depend on x and t only through t - x, so the finite-difference
    # residual is pure roundoff at any stencil width
    x, t = 0.37, 2.81
    assert _advection_residual(cfg, excited, x, t, 1e-3) < 1e-10
    assert _advection_residual(cfg, excited, x, t, 5e-4) < 1e-10
    # pulse runs too
    init = InitialCondition.incident(PulseSpec(1.0, 1.0, "right"))
    assert _advection_residual(cfg, init, 0.4, 3.3, 1e-3) < 1e-10


def test_probe_requires_distinct_source(cfg, excited):
    with pytest.raises(ValueError):
        causality_probe(cfg, excited, 0)
