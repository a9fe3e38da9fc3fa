import numpy as np
import pytest

from wqed.core import (ChainConfig, DelayedTerm, InitialCondition, PulseSpec,
                       TimeSeriesAmplitude, eval_series, eval_term)


def test_chain_positions_derived():
    cfg = ChainConfig(3, 5.0, 1.0, 2.0)
    assert cfg.positions == (0.0, 2.0, 4.0)
    assert cfg.gamma0 == 2.0


def test_fermi_pair_centered():
    cfg = ChainConfig.fermi_pair(1.0, 5.0, 3.0)
    assert cfg.positions == (-1.5, 1.5)
    assert cfg.num_qubits == 2


def test_chain_validation():
    with pytest.raises(ValueError):
        ChainConfig(0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChainConfig(2, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        ChainConfig(2, 1.0, 1.0, 1.0, positions=(1.0, 0.0))
    with pytest.raises(ValueError):
        ChainConfig(2, 1.0, 1.0, 1.0, positions=(0.0,))


def test_pulse_spec_validation():
    PulseSpec(1.0, 2.0, "left")
    with pytest.raises(ValueError):
        PulseSpec(-1.0, 2.0)
    with pytest.raises(ValueError):
        PulseSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        PulseSpec(1.0, 1.0, "up")


def test_initial_condition_kinds():
    InitialCondition.excited(0)
    InitialCondition.incident(PulseSpec(1.0, 1.0))
    with pytest.raises(ValueError):
        InitialCondition("excited_qubit")
    with pytest.raises(ValueError):
        InitialCondition("pulse")
    with pytest.raises(ValueError):
        InitialCondition("banana")


def test_delayed_term_needs_coefficients():
    with pytest.raises(ValueError):
        DelayedTerm(0.0, -1j, (), 0.0)


def test_eval_term_causal():
    tm = DelayedTerm(delay=1.0, pole=-1j, poly_coeffs=(0.0, 2.0), carrier=3.0)
    assert eval_term(tm, 0.5) == 0.0
    # at the front the Heaviside takes its midpoint value but poly(0) = 0
    assert eval_term(tm, 1.0) == 0.0
    tau = 0.7
    expected = 2 * tau * np.exp(-1j * (-1j + 3.0) * tau)
    assert eval_term(tm, 1.0 + tau) == pytest.approx(expected)


def test_eval_term_theta_midpoint():
    tm = DelayedTerm(delay=2.0, pole=-0.5j, poly_coeffs=(1.0,), carrier=0.0)
    assert eval_term(tm, 2.0) == pytest.approx(0.5)


def test_eval_series_matches_term_sum():
    terms = (
        DelayedTerm(0.0, -1j, (1.0,), 2.0),
        DelayedTerm(1.5, -2j, (0.5, -0.25j, 1.0), 2.0),
        DelayedTerm(0.5, 1j, (1.0,), 0.0),
    )
    series = TimeSeriesAmplitude(terms)
    ts = np.linspace(-1.0, 4.0, 57)
    manual = sum(eval_term(tm, ts) for tm in terms)
    np.testing.assert_allclose(series(ts), manual, rtol=0, atol=1e-13)
    # scalar call returns a scalar
    assert isinstance(series(1.3), complex)


@pytest.mark.parametrize("t", [np.linspace(-1.0, 4.0, 6).reshape(2, 3),
                               np.zeros((0,)), np.zeros((2, 0))],
                         ids=["2-d", "empty", "empty-2-d"])
@pytest.mark.parametrize("terms", [
    (DelayedTerm(0.0, -1j, (1.0,), 2.0),
     DelayedTerm(1.5, -2j, (0.5, -0.25j, 1.0), 2.0),
     DelayedTerm(0.5, 1j, (1.0,), 0.0)),
    ()], ids=["terms", "no-terms"])
def test_eval_series_keeps_the_grid_shape(t, terms):
    got = TimeSeriesAmplitude(terms)(t)
    want = sum((eval_term(tm, t) for tm in terms), np.zeros(t.shape, complex))
    assert got.shape == t.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_support_start():
    series = TimeSeriesAmplitude((
        DelayedTerm(2.0, -1j, (1.0,), 0.0),
        DelayedTerm(0.5, -1j, (1.0,), 0.0),
    ))
    assert series.support_start() == 0.5
    empty = TimeSeriesAmplitude(())
    assert empty.support_start() == np.inf
    assert empty(1.0) == 0.0
