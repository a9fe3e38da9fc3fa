import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqed.core import (ChainConfig, DelayedTerm, InitialCondition, PulseSpec,
                       TimeSeriesAmplitude, rounding_bound)
from wqed.diagrams import (ClassPolynomial, FinisherSpec, class_rows,
                           enumerate_diagrams)
from wqed.evaluator import (causality_probe, excitation_amplitude,
                            field_profile, total_norm)
from wqed import _kernels, evaluator, fermi, momentum, oracle
from wqed.errors import HorizonTooLarge, IllConditioned

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



@pytest.mark.parametrize("omega", [10.0, 200.0])
def test_series_past_the_range_of_exp(omega):
    """J0 t_f = 750 at 150 L: exp(-J0 t) underflows past t = 149 and
    exp(+J0 t) overflows, so the kernel must rebase its exponentials along
    the grid; the 75-term series still matches the two-qubit formulas."""
    cfg2 = ChainConfig.fermi_pair(5.0, omega, 1.0)
    amps = evaluator.amplitudes(cfg2, InitialCondition.excited(0), (0, 1),
                                150.0)
    assert len(amps[1].terms) == 75
    ts = np.linspace(0.0, 150.0, 3001)[1:-1]
    np.testing.assert_allclose(amps[1](ts), fermi.fermi_e1(ts, 5.0, omega, 1.0),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(amps[0](ts),
                               fermi.fermi_em1(ts, 5.0, omega, 1.0),
                               rtol=0, atol=1e-13)

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
    original = evaluator.class_polynomials

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluator, "class_polynomials", counted)
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    init = InitialCondition.excited(1)
    total_norm(cfg3, init, 4.5)
    assert len(calls) == 1
    field_profile(cfg3, init, 4.5, [0.0, 1.5])
    assert len(calls) == 2


def _chain_start(n, sigma):
    """Uniform chain (L = J0 = 1, Omega = 10) with qubit 0 excited, or with
    a right-moving pulse of width sigma at x0 = L."""
    cfg_n = ChainConfig(n, 10.0, 1.0, 1.0)
    if sigma is None:
        return cfg_n, InitialCondition.excited(0)
    return cfg_n, InitialCondition.incident(PulseSpec(sigma, 1.0, "right"))


@pytest.mark.parametrize("n, sigma, t_f", [
    (3, None, 15.0), (8, None, 24.0), (2, 0.5, 8.0), (2, 0.9, 8.0),
    (4, 0.7, 12.0)])
def test_closed_form_answers_former_false_alarms(n, sigma, t_f):
    """The partial-fraction recombination check refused all of these; the
    closed-form class terms match the oracle at dt = L/80 (whose own error
    is about 1e-9) on the last qubit."""
    cfg_n, init = _chain_start(n, sigma)
    amp = excitation_amplitude(cfg_n, init, n - 1, t_f)
    hist = oracle.integrate_chain(cfg_n, init, t_f, 1 / 80)
    ts = hist.times()[1:]
    keep = ts < t_f
    err = np.max(np.abs(amp(ts[keep]) - hist.amplitudes(n - 1)[1:][keep]))
    assert err < 1e-8


@pytest.mark.parametrize("n, sigma, t_f", [(2, 1.001, 8.0),
                                           (20, None, 60.0)])
def test_rounding_bound_refuses_lost_digits(n, sigma, t_f):
    """Cancellation loses these answers (off the oracle by 1.5e3 and 0.73
    with the bound ignored); the a-priori rounding bound refuses them."""
    cfg_n, init = _chain_start(n, sigma)
    with pytest.raises(IllConditioned):
        excitation_amplitude(cfg_n, init, n - 1, t_f)


@pytest.mark.parametrize("sigma, t_f", [(1.001, 150.0), (0.999, 150.0),
                                        (1.0001, 120.0), (1.003, 160.0)])
def test_pulse_near_j0_is_refused_with_a_typed_error(sigma, t_f):
    """Near sigma = J0 the coefficients grow like 1/|J0 - sigma|^E until
    they or their rounding bound overflow, well below the pole-order cap;
    the answer is refused with IllConditioned, not lost to an arithmetic
    error."""
    cfg2 = ChainConfig(2, 10.0, 1.0, 1.0)
    init = InitialCondition.incident(PulseSpec(sigma, 0.125))
    with pytest.raises(IllConditioned):
        excitation_amplitude(cfg2, init, 1, t_f)


#: J0 = 100 at spacing 0.05: 160 hops below t = 8, and J0^j alone passes
#: float64 from j = 155 on, where the coefficients J0^j / j! do not.
_LARGE_J0 = ChainConfig(2, 200.0, 100.0, 0.05)


def test_large_j0_excited_matches_the_fermi_series():
    amp = excitation_amplitude(_LARGE_J0, InitialCondition.excited(0), 1, 8.0)
    ts = np.linspace(0.0, 8.0, 2001)[:-1]
    want = fermi.fermi_e1(ts, 100.0, 200.0, 0.05)
    assert np.max(np.abs(amp(ts) - want)) < 1e-13


def test_large_j0_pulse_matches_the_oracle():
    init = InitialCondition.incident(PulseSpec(300.0, 0.025))
    amp = excitation_amplitude(_LARGE_J0, init, 1, 8.0)
    hist = oracle.integrate_chain(_LARGE_J0, init, 8.0, 0.05 / 256)
    ts = hist.times()
    keep = ts < 8.0
    assert np.max(np.abs(amp(ts[keep]) - hist.amplitudes(1)[keep])) < 1e-8


def test_large_j0_pulse_lost_to_cancellation_is_refused():
    """sigma = J0 / 2: the coefficients are finite, and their rounding
    bound, 4.5e34, refuses the answer."""
    init = InitialCondition.incident(PulseSpec(50.0, 0.025))
    with pytest.raises(IllConditioned):
        excitation_amplitude(_LARGE_J0, init, 1, 8.0)


def _exact_series(series, ts):
    """A merged series at the times ts, stdlib only: at each delay, the
    terms' polynomials times exp(-kappa tau) summed in 50-digit decimal,
    then times the float phase exp(-i W tau). Engine poles are purely
    imaginary, -i kappa, so that phase is common to a delay's terms."""
    groups = {}
    for tm in series.terms:
        assert tm.pole.real == 0
        groups.setdefault((tm.delay, tm.carrier), []).append(
            (Decimal(-tm.pole.imag),
             [(Decimal(c.real), Decimal(c.imag)) for c in tm.poly_coeffs]))
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        for t in ts:
            total = 0j
            for (delay, carrier), terms in groups.items():
                tau = Decimal(t) - Decimal(delay)
                if tau < 0:
                    continue
                re = im = Decimal(0)
                for kappa, coeffs in terms:
                    pre = pim = Decimal(0)
                    for cre, cim in reversed(coeffs):
                        pre, pim = pre * tau + cre, pim * tau + cim
                    damp = (-kappa * tau).exp()
                    re, im = re + pre * damp, im + pim * damp
                w = carrier * (t - delay)
                total += ((0.5 if tau == 0 else 1.0) * complex(float(re), float(im))
                          * complex(math.cos(w), -math.sin(w)))
            out.append(total)
    return np.array(out)


@pytest.mark.parametrize("omega", [1.0, 200.0])
@pytest.mark.parametrize("n, start, t_f", [
    (2, InitialCondition.incident(PulseSpec(1.0055, 0.125, "right")), 3.0),
    (8, InitialCondition.excited(3), 25.0),
    (3, InitialCondition.excited(1), 49.0)], ids=["pulse", "n8", "n3"])
def test_rounding_bound_covers_the_kernel(n, start, t_f, omega):
    """At the edge of the envelope (bounds up to 7.6e-9) every series
    evaluates within its a-priori bound of an exact evaluation."""
    amps = evaluator.amplitudes(ChainConfig(n, omega, 1.0, 1.0), start,
                                tuple(range(n)), t_f)
    ts = np.linspace(0.0, t_f, 241)[1:-1]
    for amp in amps.values():
        err = np.max(np.abs(amp(ts) - _exact_series(amp, ts)))
        assert err < rounding_bound(amp, t_f)


@pytest.mark.parametrize("pole, size", [(0j, 6.0), (1j, 6 * math.e ** 2)])
def test_rounding_bound_on_terms_that_do_not_decay(pole, size):
    """kappa <= 0: tau^k exp(-kappa tau) peaks at the end of the support,
    tau = 2, so the bound of 1 + tau is 2 (1 + 2) exp(2 Im pole) eps."""
    term = DelayedTerm(0.0, pole, (1.0, 1.0), 0.0)
    bound = rounding_bound(TimeSeriesAmplitude((term,)), 2.0)
    assert bound == pytest.approx(size * np.finfo(float).eps, rel=1e-14)


@pytest.mark.parametrize("init", [
    InitialCondition.excited(1),
    InitialCondition.incident(PulseSpec(0.7, 1.0, "right")),
    InitialCondition.incident(PulseSpec(J0, 1.0, "left"))])
def test_runtime_needs_no_partial_fractions(monkeypatch, init):
    def refuse(f):
        raise AssertionError("partial fractions on the runtime path")

    monkeypatch.setattr(momentum, "partial_fractions", refuse)
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    ts = np.linspace(0.0, 6.0, 61)
    assert np.all(np.isfinite(excitation_amplitude(cfg3, init, 2, 6.0)(ts)))
    xs = np.linspace(-5.0, 7.0, 49)
    _, pr, pl = field_profile(cfg3, init, 6.0, xs).arrays()
    assert np.all(np.isfinite(pr)) and np.all(np.isfinite(pl))
    assert total_norm(cfg3, init, 6.0) == pytest.approx(1.0, abs=1e-12)


def _reference_field(sources, s):
    """Field of each branch at the coordinates s[b], read one window at a
    time: the per-segment loop that `evaluator._read` replaced."""
    out = []
    for b, sb in enumerate(s):
        field = np.zeros(sb.shape, dtype=complex)
        for series, windows, _ in sources:
            for _, hi, lag, factor in (w for w in windows if w[0] == b):
                inside = sb <= hi
                if inside.any():
                    si = sb[inside]
                    field[inside] += (factor * np.where(si == hi, 0.5, 1.0)
                                      * series(si + lag))
        out.append(field)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("init", [
    InitialCondition.excited(1),
    InitialCondition.incident(PulseSpec(0.7, 0.5, "left"))])
def test_norm_reads_populations_with_the_field(monkeypatch, n, init):
    """A scalar norm, and a field profile, read each non-empty series in
    one kernel call: the populations, both branches' quadrature nodes and
    the pulse tail's node come from that call. The norm equals the
    populations read one by one plus each branch's quadrature, on the same
    nodes, of the field read one window at a time."""
    cfg_n = ChainConfig(n, OMEGA, J0, 1.0)
    t = 3.7
    amps = evaluator.all_amplitudes(cfg_n, init, t)
    series = sum(bool(amp.terms) for amp in amps.values()) \
        + (init.kind == "pulse")
    assert series == n + (init.kind == "pulse")
    points = []
    kernel = _kernels.eval_terms_grid

    def counted(terms, ts):
        points.append(len(ts))
        return kernel(terms, ts)

    monkeypatch.setattr(_kernels, "eval_terms_grid", counted)
    got = total_norm(cfg_n, init, t)
    assert len(points) == series and 1 not in points
    sources = evaluator._sources(cfg_n, init, t, amps)
    nodes = [evaluator._branch_nodes(sources, b) for b in (0, 1)]
    fields = _reference_field(sources, [s for s, _ in nodes])
    want = (sum(abs(amp(t)) ** 2 for amp in amps.values())
            + sum(float(np.sum(w * np.abs(f) ** 2))
                  for (_, w), f in zip(nodes, fields)))
    assert got == pytest.approx(want, rel=0, abs=1e-14)
    del points[:]
    field_profile(cfg_n, init, t, np.linspace(-5.0, n + 5.0, 101))
    assert len(points) == series


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("init", [
    InitialCondition.excited(0),
    InitialCondition.incident(PulseSpec(0.6, 1.0, "right")),
    InitialCondition.incident(PulseSpec(1.7, 0.5, "left"))],
    ids=["excited", "pulse-right", "pulse-left"])
def test_field_matches_the_per_window_reading(n, init):
    """field_profile equals the field read one window at a time, to the
    series' rounding bounds, on positions that hold every window edge
    (the qubits, weighing 1/2) and every front, laid out ascending,
    descending, as 0-d arrays and as a shuffled 2-D array."""
    cfg_n = ChainConfig(n, OMEGA, J0, 1.0)
    rng = np.random.default_rng(n)
    for t in (0.5, 2.25, 7.0):
        amps = evaluator.all_amplitudes(cfg_n, init, t)
        sources = evaluator._sources(cfg_n, init, t, amps)
        fronts = [(-1.0, 1.0)[b] * (tm.delay - lag)
                  for series, windows, _ in sources
                  for b, _, lag, _ in windows for tm in series.terms]
        xs = np.unique(np.concatenate([
            cfg_n.positions, fronts, np.linspace(-t - 1.0, n + t, 60)]))
        right, left = _reference_field(sources, (-xs, xs))
        tol = sum(rounding_bound(amp, evaluator._through(t))
                  for amp in amps.values()) + 8 * np.finfo(float).eps
        perm = rng.permutation(xs.size)
        layouts = [(xs, slice(None)), (xs[::-1], slice(None, None, -1)),
                   (np.stack([xs[perm], xs[perm[::-1]]]),
                    np.concatenate([perm, perm[::-1]]))]
        for x, order in layouts:
            got = field_profile(cfg_n, init, t, x)
            assert got.psi_right.shape == x.shape
            np.testing.assert_allclose(got.psi_right.ravel(), right[order],
                                       rtol=0, atol=tol)
            np.testing.assert_allclose(got.psi_left.ravel(), left[order],
                                       rtol=0, atol=tol)
        for i in range(0, xs.size, 7):
            got = field_profile(cfg_n, init, t, np.array(xs[i]))
            assert got.psi_right.shape == ()
            (want_r,), (want_l,) = _reference_field(sources,
                                                    (-xs[i:i + 1], xs[i:i + 1]))
            assert abs(got.psi_right - want_r) <= tol
            assert abs(got.psi_left - want_l) <= tol


def test_nan_position_gives_nan():
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    for init in (InitialCondition.excited(1),
                 InitialCondition.incident(PulseSpec(0.7, 0.5, "right"))):
        prof = field_profile(cfg3, init, 2.0, [np.nan])
        assert np.isnan(prof.psi_right).all() and np.isnan(prof.psi_left).all()
        xs = [0.5, np.nan, -0.25, 1.0, np.nan]
        prof = field_profile(cfg3, init, 2.0, xs)
        ref = field_profile(cfg3, init, 2.0, [0.5, -0.25, 1.0])
        for got, want in ((prof.psi_right, ref.psi_right),
                          (prof.psi_left, ref.psi_left)):
            assert np.isnan(got[[1, 4]]).all()
            np.testing.assert_array_equal(got[[0, 2, 3]], want)


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_bad_time_is_an_error_that_names_t(cfg, excited, t):
    with pytest.raises(ValueError, match="^t must"):
        field_profile(cfg, excited, t, [0.0])
    with pytest.raises(ValueError, match="^t must"):
        total_norm(cfg, excited, t)
    with pytest.raises(ValueError, match="^t must"):
        total_norm(cfg, excited, [1.0, t])


def test_norm_at_many_times_from_one_class_pass(monkeypatch):
    """An array of times takes one class pass and gives the scalar calls'
    norms."""
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    init = InitialCondition.excited(1)
    ts = np.linspace(0.0, 6.0, 13)
    want = [total_norm(cfg3, init, float(t)) for t in ts]
    calls = []
    original = evaluator.class_polynomials

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluator, "class_polynomials", counted)
    got = total_norm(cfg3, init, ts)
    assert len(calls) == 1
    assert got.shape == ts.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


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


# ---------------------------------------------------------------------------
# The class pass from rows, against the class pass built from term objects
# ---------------------------------------------------------------------------

def _reference_merge(terms):
    """Merging as it was done on DelayedTerm objects: numpy sums per exact
    (delay, pole, carrier) key, in input order, the 1e-300
    all-zero drop and the (delay, pole) sort."""
    groups = {}
    for tm in terms:
        key = (tm.delay, tm.pole, tm.carrier)
        groups.setdefault(key, []).append(tm)
    out = []
    for g in groups.values():
        coeffs = np.zeros(max(len(tm.poly_coeffs) for tm in g), dtype=complex)
        for tm in g:
            coeffs[: len(tm.poly_coeffs)] += tm.poly_coeffs
        if not np.all(np.abs(coeffs) < 1e-300):
            out.append(replace(g[0], poly_coeffs=tuple(coeffs)))
    out.sort(key=lambda tm: (tm.delay, tm.pole.real, tm.pole.imag))
    return tuple(out)


def _walk_classes(cfg, init, qubits, t_f):
    """The tree walk's paths to `qubits` as {(qubit, delay, #T, #R,
    self_decay): number of paths}."""
    out = {}
    for q in qubits:
        for d in enumerate_diagrams(cfg, init, FinisherSpec("qubit", q), t_f):
            key = (q, d.total_delay, d.n_t, d.n_r, d.self_decay)
            out[key] = out.get(key, 0) + 1
    return out


def _class_terms(cfg, init, n_t, n_r, self_decay):
    """One path class's terms at delay 0: `class_rows` of the polynomial
    and residue of a single path with #T = n_t and #R = n_r (1 for the
    self-decay path)."""
    sigma_pole = init.kind == "pulse" and init.pulse.sigma != cfg.j0
    if self_decay:
        counts, residue = (1,), 0.0
    else:
        counts = ((0,) * (n_r + (not sigma_pole))
                  + tuple(math.comb(n_t, k) for k in range(n_t + 1)))
        residue = 0.0
        if sigma_pole:
            sigma, e = init.pulse.sigma, n_t + n_r
            residue = ((-1) ** (e + 1) * sigma ** n_t * cfg.j0 ** n_r
                       / (cfg.j0 - sigma) ** (e + 1))
    (rows,) = class_rows(cfg, init, [ClassPolynomial(0, 0.0, counts,
                                                     residue)])
    return tuple(DelayedTerm(0.0, pole, tuple(c), cfg.omega)
                 for pole, c in rows)


def _reference_series(cfg, init, qubits, t_f):
    """The class pass from the tree walk's path classes: each class's
    terms `replace`d to its delay and scaled by float(weight) as numpy
    arrays, then `_reference_merge`d."""
    base, terms = {}, {q: [] for q in qubits}
    for (q, delay, *key), weight in _walk_classes(cfg, init, qubits,
                                                  t_f).items():
        key = tuple(key)
        if key not in base:
            base[key] = _class_terms(cfg, init, *key)
        terms[q].extend(
            replace(tm, delay=delay, poly_coeffs=tuple(
                np.asarray(tm.poly_coeffs) * float(weight)))
            for tm in base[key])
    return {q: TimeSeriesAmplitude(_reference_merge(ts), label=f"e:{q}")
            for q, ts in terms.items()}


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.int64)


def _term_keys(series):
    return [(tm.delay, tm.pole, tm.carrier) for tm in series.terms]


def _assert_same_terms(got, want):
    """Term for term and bit for bit."""
    assert len(got.terms) == len(want.terms)
    for g, w in zip(got.terms, want.terms):
        assert (g.delay, g.pole, g.carrier) == (w.delay, w.pole, w.carrier)
        assert np.array_equal(_bits(g.poly_coeffs), _bits(w.poly_coeffs))


_eighths = st.integers(1, 16).map(lambda k: k / 8)


@st.composite
def _class_pass_cases(draw):
    """A chain of n <= 5 with rational gaps, an excited or pulse start (sigma
    at least 0.05 away from J0) and a horizon of up to 8 shortest gaps."""
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(_eighths, min_size=n - 1, max_size=n - 1))
    positions = tuple(float(x) for x in np.cumsum([0.0] + gaps))
    cfg = ChainConfig(n, draw(st.sampled_from([4.0, 37.5])), J0, 0.0,
                      positions=positions)
    if draw(st.booleans()):
        init = InitialCondition.excited(draw(st.integers(0, n - 1)))
    else:
        sigma = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 5.0)))
        init = InitialCondition.incident(PulseSpec(
            sigma, draw(_eighths), draw(st.sampled_from(["right", "left"]))))
    t_f = draw(st.integers(1, 64)) / 8 * min(gaps, default=1.0)
    return cfg, init, t_f


def _pulse_case(n, sigma, t_f):
    return (ChainConfig(n, 4.0, J0, 1.0),
            InitialCondition.incident(PulseSpec(sigma, 0.5, "right")), t_f)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_class_pass_cases())
# refused (rounding bounds 2.5e6, 2.2e-8 and 1.5e-8), then sigma == J0
@example(_pulse_case(2, 1.001, 8.0))
@example(_pulse_case(2, 0.9, 8.0))
@example(_pulse_case(4, 1.1, 6.0))
@example(_pulse_case(3, 1.0, 6.0))
def test_class_pass_matches_term_objects(case):
    cfg, init, t_f = case
    qubits = tuple(range(cfg.num_qubits))
    want = _reference_series(cfg, init, qubits, t_f)
    refused = any(rounding_bound(amp, t_f) > evaluator.ROUNDING_TOL
                  for amp in want.values())
    try:
        got = evaluator.amplitudes(cfg, init, qubits, t_f)
    except IllConditioned:
        assert refused
        return
    assert not refused
    # the class pass rounds differently from the per-class sums, by a few
    # eps of each coefficient; within the bound itself here (6.7 eps past
    # it while the rows of different hop levels were summed in floats)
    ts = np.linspace(0.0, t_f, 257)[:-1]
    for q in qubits:
        assert _term_keys(got[q]) == _term_keys(want[q])
        tol = rounding_bound(want[q], t_f) + 8 * np.finfo(float).eps
        assert np.all(np.abs(got[q](ts) - want[q](ts)) <= tol)


def _numpy_bound(series, t_f):
    """`rounding_bound` as numpy reductions over zero-padded arrays of all
    the series' terms: the form it had before it became a loop over the
    terms, kept as its reference (causal series only)."""
    if not series.terms:
        return 0.0
    width = max(len(tm.poly_coeffs) for tm in series.terms)
    coeffs = np.array([tm.poly_coeffs + (0j,) * (width - len(tm.poly_coeffs))
                       for tm in series.terms], dtype=complex)
    kappa = -np.array([tm.pole.imag for tm in series.terms])[:, None]
    delays = np.array([tm.delay for tm in series.terms])
    k = np.arange(width)
    tau = np.minimum(k / kappa, (t_f - delays)[:, None])
    with np.errstate(divide="ignore"):
        log = (np.log(np.abs(coeffs))
               + k * np.log(tau, out=np.zeros_like(tau), where=k > 0)
               - kappa * tau)
    size = np.array([len(tm.poly_coeffs) for tm in series.terms])
    return float(np.finfo(float).eps
                 * (size * np.exp(log).sum(axis=1)).sum())


def _assert_bound_parity(series, t_f):
    got, want = rounding_bound(series, t_f), _numpy_bound(series, t_f)
    assert got == pytest.approx(want, rel=1e-13, abs=0)
    assert ((got > evaluator.ROUNDING_TOL)
            == (want > evaluator.ROUNDING_TOL))


def _ladder_edge(n, gaps, init, t_f):
    return (ChainConfig(n, 10.0, J0, 0.0, positions=tuple(
        float(x) for x in np.cumsum([0.0] + list(gaps)))), init, t_f)


_PULSE_EDGES = [InitialCondition.incident(PulseSpec(s, 0.125, d))
                for s, d in ((0.2, "right"), (0.8, "left"), (1.25, "right"),
                             (5.0, "left"))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_class_pass_cases())
# the refused and sigma == J0 examples of test_class_pass_matches_term_objects
@example(_pulse_case(2, 1.001, 8.0))
@example(_pulse_case(2, 0.9, 8.0))
@example(_pulse_case(4, 1.1, 6.0))
@example(_pulse_case(3, 1.0, 6.0))
# n = 20 at 60 L, refused
@example(_ladder_edge(20, [1.0] * 19, InitialCondition.excited(0), 60.0))
# the benchmark's longest excited rungs, uniform and uneven, and its
# pulse rung at 3 L with sigma at both edges of its range and its gap
@example(_ladder_edge(2, [1.0], InitialCondition.excited(0), 24.0))
@example(_ladder_edge(2, [0.875], InitialCondition.excited(1), 24.0))
@example(_ladder_edge(3, [1.0] * 2, InitialCondition.excited(1), 12.0))
@example(_ladder_edge(3, [0.875, 1.125], InitialCondition.excited(0), 12.0))
@example(_ladder_edge(4, [1.0] * 3, InitialCondition.excited(0), 8.0))
@example(_ladder_edge(4, [1.125, 0.875, 1.0], InitialCondition.excited(1),
                      8.0))
@example(_ladder_edge(8, [1.0] * 7, InitialCondition.excited(3), 6.0))
@example(_ladder_edge(8, [0.875, 1.125] * 3 + [1.0],
                      InitialCondition.excited(0), 6.0))
@example(_ladder_edge(8, [1.0] * 7, _PULSE_EDGES[0], 3.0))
@example(_ladder_edge(8, [1.0] * 7, _PULSE_EDGES[1], 3.0))
@example(_ladder_edge(8, [0.875, 1.125] * 3 + [1.0], _PULSE_EDGES[2], 3.0))
@example(_ladder_edge(8, [1.0] * 7, _PULSE_EDGES[3], 3.0))
def test_rounding_bound_matches_the_array_form(case):
    """The loop over the terms gives the padded-array bound within 1e-13
    and refuses exactly the same series, engine and per-class alike."""
    cfg, init, t_f = case
    qubits = tuple(range(cfg.num_qubits))
    for series in evaluator._class_pass(cfg, init, qubits, t_f).values():
        _assert_bound_parity(series, t_f)
    if cfg.num_qubits <= 5:
        for series in _reference_series(cfg, init, qubits, t_f).values():
            _assert_bound_parity(series, t_f)


def test_merge_terms_sorts_rows_into_terms():
    """One qubit's rows, one per (delay, pole), become the terms that
    `_reference_merge` makes of them: sorted by (delay, pole), with the
    coefficients bit for bit and the given carrier."""
    rng = np.random.default_rng(5)
    pole_a, pole_b = -1j, 0.5 - 2j
    keys = [(2.0, pole_a), (1.0, pole_b), (1.0, pole_a), (0.5, pole_a),
            (0.5, pole_b)]
    rows = [(delay, pole, [complex(*rng.normal(size=2))
                           * 10.0 ** rng.integers(-8, 8)
                           for _ in range(rng.integers(1, 5))])
            for delay, pole in keys]
    got = TimeSeriesAmplitude(evaluator.merge_terms(rows, 4.0))
    want = TimeSeriesAmplitude(_reference_merge(
        [DelayedTerm(delay, pole, tuple(c), 4.0) for delay, pole, c in rows]))
    assert [(tm.delay, tm.pole) for tm in got.terms] \
        == sorted(keys, key=lambda k: (k[0], k[1].real, k[1].imag))
    _assert_same_terms(got, want)


# ---------------------------------------------------------------------------
# Merged class terms against exact rationals
# ---------------------------------------------------------------------------

_NEG_I = ((1, 0), (0, -1), (-1, 0), (0, 1))     # (-i)^k by k mod 4: (re, im)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    d = Fraction(y[0] ** 2 + y[1] ** 2)
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def _exact_class_rows(n_t, n_r, sigma, j0):
    """One class's terms over p sqrt(J0) for a rational J0 = j0, by the
    per-class formula (K = p sqrt(J0) (-iJ0)^n_r, b_r = C(n_t, r)
    (-iJ0)^(n_t - r), b_r <- (b_r - b_(r-1)) / i(sigma - J0), the residue
    at -i sigma) in exact rationals: {pole: [(re, im)]}. sigma is None
    where -iJ0 is the only pole."""
    zero = (Fraction(0), Fraction(0))
    a = n_t
    m = n_t + n_r + 1 + (sigma is None)
    b = [_cmul((math.comb(a, r) * j0 ** (a - r), 0), _NEG_I[(a - r) % 4])
         if r <= a else zero for r in range(m)]
    k = _cmul((j0 ** n_r, 0), _NEG_I[n_r % 4])
    rows = {}
    if sigma is not None:
        prev = zero
        for r in range(m):
            prev = b[r] = _cdiv((b[r][0] - prev[0], b[r][1] - prev[1]),
                                (0, sigma - j0))
        den = (1, 0)
        for _ in range(m):
            den = _cmul(den, (0, j0 - sigma))
        residue = _cdiv(_cmul(k, _cmul(_NEG_I[a % 4], (sigma ** a, 0))), den)
        rows[-1j * float(sigma)] = [_cmul(_NEG_I[1], residue)]
    rows[-1j * float(j0)] = [_cmul(_cmul(k, b[m - j]), _cdiv(_NEG_I[j % 4],
                                                 (math.factorial(j - 1), 0)))
                 for j in range(1, m + 1)]
    return rows


def _errors_in_eps(got, want):
    """Largest relative error of each coefficient, in eps; an exact zero
    is measured against the largest exact coefficient of its row."""
    want = [complex(float(re), float(im)) for re, im in want]
    assert len(got) == len(want)
    scale = max(map(abs, want))
    return max(abs(g - w) / (abs(w) or scale) for g, w in zip(got, want)) \
        / np.finfo(float).eps


def _merged_and_per_class_errors(cfg, init, t_f, sigma):
    """Errors, in eps, of the class pass's merged coefficients over the float
    p sqrt(J0) against exact sums over the tree walk's path classes, and of
    the per-class float sums (`_class_terms` times the weight, in walk
    order)."""
    qubits = tuple(range(cfg.num_qubits))
    exact, per_class = {}, {}
    for (q, delay, n_t, n_r, self_decay), weight in _walk_classes(
            cfg, init, qubits, t_f).items():
        if self_decay:
            continue
        for pole, row in _exact_class_rows(n_t, n_r, sigma,
                                           Fraction(cfg.j0)).items():
            acc = exact.setdefault((q, delay, pole), [])
            acc += [(0, 0)] * (len(row) - len(acc))
            acc[:] = [(x[0] + weight * y[0], x[1] + weight * y[1])
                      for x, y in zip(acc, row)]
        for tm in _class_terms(cfg, init, n_t, n_r, False):
            acc = per_class.setdefault((q, delay, tm.pole), [])
            acc += [0j] * (len(tm.poly_coeffs) - len(acc))
            acc[:] = [x + y * float(weight)
                      for x, y in zip(acc, tm.poly_coeffs)]
    p = (math.sqrt(cfg.j0) if init.kind == "excited_qubit"
         else momentum.pulse_prefactor(init.pulse, cfg.omega, cfg.positions[
             init.pulse.entry(cfg.num_qubits)]))
    pref = p * math.sqrt(cfg.j0)
    got = {(q, tm.delay, tm.pole): tm.poly_coeffs
           for q, amp in evaluator._class_pass(cfg, init, qubits, t_f).items()
           for tm in amp.terms if tm.delay > 0 or init.kind == "pulse"}
    assert got.keys() == exact.keys()
    merged = max(_errors_in_eps([c / pref for c in got[key]], row)
                 for key, row in exact.items())
    reference = max(_errors_in_eps([c / pref for c in per_class[key]], row)
                    for key, row in exact.items())
    return merged, reference


@pytest.mark.parametrize("gaps", [(1, 1, 1), (Fraction(7, 8), Fraction(9, 8),
                                               Fraction(7, 8))])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_merged_class_terms_match_exact_rationals(n, gaps):
    """Excited starts and pulses with sigma = J0, J0/5, 9 J0/10 and 5 J0 at
    12 L, for J0 = 1 and 5/2 (whose J0^j / j! are quotients of integers
    other than 1 and j!). At sigma = 9 J0/10 the recurrence's
    1/(J0 - sigma) amplifies rounding, in the per-class sums as much. The
    sigma-pole residue is summed from the path counts: from the binomial
    sums I_j it would cancel digits for sigma < J0, about 1000 eps for
    J0 = 1, sigma = 1/5 with n = 4."""
    positions = tuple(float(sum(gaps[:k])) for k in range(n))
    for j0 in (Fraction(1), Fraction(5, 2)):
        cfg = ChainConfig(n, 4.0, float(j0), 0.0, positions=positions)
        merged, _ = _merged_and_per_class_errors(
            cfg, InitialCondition.excited(0), 12.0, None)
        assert merged <= 8
        for ratio in (Fraction(1), Fraction(1, 5), Fraction(9, 10),
                      Fraction(5)):
            sigma = ratio * j0
            init = InitialCondition.incident(PulseSpec(float(sigma), 0.5,
                                                       "right"))
            merged, reference = _merged_and_per_class_errors(
                cfg, init, 12.0, None if ratio == 1 else sigma)
            if ratio == Fraction(9, 10):
                assert merged <= 2 * reference + 2
            else:
                assert merged <= 8


# ---------------------------------------------------------------------------
# A series is its terms
# ---------------------------------------------------------------------------

def test_norm_is_one_at_several_times():
    cfg3 = ChainConfig(3, OMEGA, J0, 1.0)
    norms = total_norm(cfg3, InitialCondition.excited(1),
                       np.linspace(0.5, 5.0, 5))
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_before_keeps_the_delay_prefix(cfg, excited):
    amp = excitation_amplitude(cfg, excited, 1, 8 * L)
    for horizon in (0.5 * L, L, 1.5 * L, 3 * L + 1e-9, 8 * L):
        cut = amp.before(horizon)
        want = TimeSeriesAmplitude(
            tuple(tm for tm in amp.terms if tm.delay < horizon), amp.label)
        assert cut == want
        _assert_same_terms(cut, want)
    assert amp.before(8 * L) is amp
    unsorted = TimeSeriesAmplitude(amp.terms[::-1])
    with pytest.raises(ValueError):
        unsorted.before(2 * L)
