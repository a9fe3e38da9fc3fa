"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (run pytest with ``-s`` or read the captured
output). Criterion 9 checks the feedback revival times and the Markov-limit
scaling that the exact two-qubit series implies (derivation in the test).
"""

import math
import time

import numpy as np
import pytest

from wqed import diagrams, evaluator, fermi, momentum, oracle, scattering
from wqed.core import ChainConfig, InitialCondition, PulseSpec, TimeSeriesAmplitude


def _report(n: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Worked single-hop diagram
# ---------------------------------------------------------------------------

def test_criterion_1_worked_diagram():
    t0 = time.perf_counter()
    j0, om, L = 1.0, 3.7, 2.0
    cfg = ChainConfig.fermi_pair(j0, om, L)
    init = InitialCondition.excited(0)
    target = diagrams.FinisherSpec("qubit", 1)
    diags = [d for d in diagrams.enumerate_diagrams(cfg, init, target, L + 1e-9)
             if not d.self_decay]
    ok = len(diags) == 1
    series = diagrams.finish_excitation(cfg, diags[0])
    ok = ok and len(series.terms) == 1
    tm = series.terms[0]
    # -J0*(t-L) * e^{-(J0+i*Omega)(t-L)} * Theta(t-L), term fields exactly
    ok = ok and tm.delay == L
    ok = ok and abs(tm.pole - (-1j * j0)) < 1e-14
    ok = ok and tm.carrier == om
    ok = ok and len(tm.poly_coeffs) == 2
    ok = ok and abs(tm.poly_coeffs[0]) == 0 and abs(tm.poly_coeffs[1] + j0) < 1e-14
    ts = np.linspace(L + 1e-6, 5 * L, 1001)
    ref = -j0 * (ts - L) * np.exp(-(j0 + 1j * om) * (ts - L))
    err = float(np.max(np.abs(series(ts) - ref)))
    elapsed = time.perf_counter() - t0
    _report(1, ok and err < 1e-12 and elapsed < 1.0,
            f"err={err:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Exact two-qubit series and field components
# ---------------------------------------------------------------------------

def test_criterion_2_two_qubit_series_and_fields():
    t0 = time.perf_counter()
    j0, om, L = 1.0, 3.7, 1.0
    cfg = ChainConfig.fermi_pair(j0, om, L)
    init = InitialCondition.excited(0)
    t_f = 20 * L
    ts = np.linspace(0.0, t_f, 2001, endpoint=False)[1:]
    worst = 0.0

    # term-by-term: engine terms grouped by turn-on delay vs the series terms
    for target, ref_terms in ((1, fermi.fermi_e1_terms(ts, j0, om, L)),
                              (0, fermi.fermi_em1_terms(ts, j0, om, L))):
        series = evaluator.excitation_amplitude(cfg, init, target, t_f)
        groups = {}
        for tm in series.terms:
            groups.setdefault(round(tm.delay, 9), []).append(tm)
        delays = sorted(groups)
        for n, ref in enumerate(ref_terms):
            if n < len(delays):
                got = TimeSeriesAmplitude(tuple(groups[delays[n]]))(ts)
            else:
                got = 0.0
            worst = max(worst, float(np.max(np.abs(got - ref))))

    # qubit components on the 2001-point time grid
    e1 = evaluator.excitation_amplitude(cfg, init, 1, t_f)(ts)
    em1 = evaluator.excitation_amplitude(cfg, init, 0, t_f)(ts)
    worst = max(worst, float(np.max(np.abs(e1 - fermi.fermi_e1(ts, j0, om, L)))))
    worst = max(worst, float(np.max(np.abs(em1 - fermi.fermi_em1(ts, j0, om, L)))))

    # four field components on a 2001-point spatial grid
    t_snap = 2.613 * L
    xs = np.linspace(-L / 2 - t_snap + 1e-4, L / 2 + t_snap - 1e-4, 2001)
    _, pr, pl = evaluator.field_profile(cfg, init, t_snap, xs).arrays()
    st = fermi.fermi_full_state(t_snap, xs, j0, om, L)
    worst = max(worst, float(np.max(np.abs(pr - (st["psi_Ri"] + st["psi_Re"])))))
    worst = max(worst, float(np.max(np.abs(pl - (st["psi_Li"] + st["psi_Le"])))))

    elapsed = time.perf_counter() - t0
    _report(2, worst < 1e-10 and elapsed < 10.0,
            f"worst={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Causality
# ---------------------------------------------------------------------------

def test_criterion_3_causality():
    j0, om, L = 1.0, 3.7, 0.5
    cfg = ChainConfig.fermi_pair(j0, om, L)
    init = InitialCondition.excited(0)
    # support check: no term of e1 turns on before t = L (exact zeros)
    series = evaluator.excitation_amplitude(cfg, init, 1, 8 * L)
    support_ok = series.support_start() >= L
    probe = evaluator.causality_probe(cfg, init, 1)
    # independent integrator: |alpha_1| below 1e-7 strictly inside the cone
    hist = oracle.integrate_chain(cfg, init, 2 * L, L / 256)
    tt = hist.times()
    inside = np.abs(hist.alpha[tt < L, 1])
    worst = float(np.max(inside)) if inside.size else 0.0
    _report(3, support_ok and probe == 0.0 and worst < 1e-7,
            f"probe={probe}, oracle={worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Engine vs delay-equation oracle, both initial conditions, N = 1..3
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    j0, om, L = 1.0, 3.7, 0.5
    t_f = 2.5
    sigmas = {1: 0.5, 2: 1.0, 3: 2.0}
    worst = 0.0
    worst_order = np.inf
    for nq in (1, 2, 3):
        if nq == 1:
            cfg = ChainConfig(1, om, j0, 0.0)
        elif nq == 2:
            cfg = ChainConfig.fermi_pair(j0, om, L)
        else:
            cfg = ChainConfig(3, om, j0, L)
        inits = (InitialCondition.excited(0),
                 InitialCondition.incident(PulseSpec(sigmas[nq], 0.75, "right")))
        for init in inits:
            hist = oracle.integrate_chain(cfg, init, t_f, L / 256)
            ts = hist.times()[1:]
            for q in range(nq):
                amp = evaluator.excitation_amplitude(cfg, init, q, t_f + 1e-9)
                worst = max(worst, float(np.max(np.abs(
                    amp(ts) - hist.amplitudes(q)[1:]))))
            rep = oracle.convergence_study(cfg, init, t_f)
            worst_order = min(worst_order, rep["order"])
    elapsed = time.perf_counter() - t0
    _report(4, worst < 1e-5 and worst_order >= 3.5 and elapsed < 60.0,
            f"worst={worst:.2e}, order={worst_order:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Markovian limit: collective rates and resonator poles
# ---------------------------------------------------------------------------

def test_criterion_5_markovian_limit():
    j0 = 1.0
    g0 = 2 * j0
    L = 1e-3 / j0
    ts = np.linspace(0.0, 5.0 / g0, 2001)
    worst_amp = 0.0
    worst_pole = 0.0
    for th in (0.0, np.pi / 2, np.pi):
        om = (th if th > 0 else 2 * np.pi) / L
        worst_amp = max(worst_amp, float(np.max(np.abs(
            fermi.fermi_e1(ts, j0, om, L) - fermi.markovian_e1(ts, g0, th, om)))))
        poles = scattering.find_poles(scattering.chain_transmission(j0, om, L))
        for pred in (-1j * g0 * (1 + np.exp(1j * th)) / 2,
                     -1j * g0 * (1 - np.exp(1j * th)) / 2):
            worst_pole = max(worst_pole,
                             min(abs(p - pred) for p in poles))
    _report(5, worst_amp < 5e-3 and worst_pole < 5e-3 * g0,
            f"amp={worst_amp:.2e}, pole={worst_pole:.2e}")


# ---------------------------------------------------------------------------
# 6. Single-qubit decay in both time directions
# ---------------------------------------------------------------------------

def test_criterion_6_single_qubit_both_time_directions():
    g0 = 2.0
    ts = np.linspace(-5.0 / g0, 5.0 / g0, 201)
    worst = max(abs(abs(oracle.single_qubit_alpha(float(t), g0))
                    - np.exp(-g0 * abs(t) / 2)) for t in ts)
    # residue path for the symmetric spectrum 2J0/(D^2+J0^2): the pole in the
    # lower half plane gives the forward branch e^{-J0 t}, and the one in the
    # upper half plane the backward branch e^{+J0 t}, as the transform of the
    # reflected spectrum f(-D) taken at -t
    j0 = g0 / 2
    f = momentum.RationalFn((2 * j0,), ((-1j * j0, 1), (1j * j0, 1)))
    # f(-D): coefficients (-1)^k c_k, poles -p, all times (-1)^M
    m = f.total_multiplicity
    reflected = momentum.RationalFn(
        tuple((-1) ** (m + k) * c for k, c in enumerate(f.numer)),
        tuple((-p, k) for p, k in f.poles))
    ok = True
    for g, ts, sign in ((f, np.linspace(1e-3, 4.0, 97), 1.0),
                        (reflected, np.linspace(-4.0, -1e-3, 97), -1.0)):
        terms = momentum.inverse_transform(g, 0.0, 0.0)
        ok = ok and len(terms) == 1
        if ok:
            (tm,) = terms
            ok = (abs(tm.pole + 1j * j0) < 1e-12
                  and len(tm.poly_coeffs) == 1
                  and abs(tm.poly_coeffs[0] - 1.0) < 1e-12)
            vals = TimeSeriesAmplitude(tuple(terms))(sign * ts)
            ok = ok and np.max(np.abs(vals - np.exp(-sign * j0 * ts))) < 1e-12
    _report(6, worst < 1e-8 and ok, f"ode_err={worst:.2e}")


# ---------------------------------------------------------------------------
# 7. Unitarity of the closed-form state
# ---------------------------------------------------------------------------

def test_criterion_7_unitarity():
    j0, om = 1.0, 3.7
    configs = [
        (ChainConfig.fermi_pair(j0, om, 2.0), InitialCondition.excited(0), 8.0),
        (ChainConfig.fermi_pair(j0, om, 0.5),
         InitialCondition.incident(PulseSpec(1.0, 1.2, "right")), 5.0),
        (ChainConfig(3, om, j0, 0.8), InitialCondition.excited(1), 5.0),
        (ChainConfig.fermi_pair(j0, om, 2.0), InitialCondition.excited(0), 20.0),
    ]
    worst = 0.0
    for cfg, init, t_f in configs:
        for t in np.linspace(t_f / 50, t_f, 50):
            worst = max(worst, abs(evaluator.total_norm(cfg, init, float(t)) - 1.0))
    _report(7, worst < 1e-12, f"worst={worst:.2e}")


# ---------------------------------------------------------------------------
# 8. No poles in the upper half plane
# ---------------------------------------------------------------------------

def test_criterion_8_no_uhp():
    from wqed.momentum import coeff_e, coeff_r, coeff_t, simple_pole
    ok = True
    for fn in (coeff_t(1.0), coeff_r(1.0), coeff_e(1.0)):
        rep = scattering.check_no_uhp(fn)
        ok = ok and rep["pass"]
    count = 0
    for th in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        for L in (0.1, 1.0, 5.0):
            om = (th if th > 0 else 2 * np.pi) / L
            rep = scattering.check_no_uhp(scattering.chain_transmission(1.0, om, L))
            ok = ok and rep["pass"]
            count += 1
    bad = simple_pole(1.0, 0.5 + 1j)
    negative_control_fails = not scattering.check_no_uhp(bad)["pass"]
    _report(8, ok and count == 15 and negative_control_fails,
            f"{count} sweep points")


# ---------------------------------------------------------------------------
# 9. Time-delayed feedback revivals and the Markovian limit
# ---------------------------------------------------------------------------

def _local_maxima(ts, y):
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] > 1e-8)
    return ts[1:-1][interior], y[1:-1][interior]


def test_criterion_9_feedback_revival_claims():
    """Feedback revivals and the Markovian limit, as the series derives them.

    Clause A (revivals), L = 5/J0, Omega = 200*J0. e1 is exactly zero on
    t < L. The k-th revival of qubit +1 turns on at the arrival time (2k+1)L,
    and for L >> 1/J0 it is dominated by one term of the series,
    (J0 tau)^{2k+1}/(2k+1)! e^{-J0 tau}, tau = t - (2k+1)L, which peaks at
    J0 tau = 2k+1. The maxima of |e1|^2 therefore sit at
    t_k = (2k+1)(L + 1/J0) = 6, 18, 30 (within 0.2/J0), with heights
    ((2k+1)^{2k+1} e^{-(2k+1)}/(2k+1)!)^2 = 0.1353, 0.0502, 0.0308 (within
    1 %; the other active terms are suppressed by about e^{-2 J0 L}, and their
    relative phases are time-independent). An arrival time is where a
    revival starts, not where it peaks. The RK4 oracle, which shares no code
    with the series, finds the same three maxima at dt = L/200 and agrees
    with the series to 2e-9.

    Clause B (Markovian limit), theta = Omega*L = 60 held fixed on the ladder
    J0*L in {0.3, 0.03, 0.003}. On t < L the exact e1 is identically zero
    while the delay-free curve ``markovian_e1`` is not: the short-distance
    causality violation. To leading order the delay-free curve grows as
    J0*t with the same carrier phase as the exact first term, which starts
    at t = L as J0*(t - L); their max-norm deviation is therefore J0*L times
    a factor that tends to 1 from below as J0*L -> 0 (measured 0.75, 0.97,
    0.997 on the ladder). The band [0.5, 1] for dev/(J0*L) rests on that
    leading-order analysis and on these measurements, not on a proven
    bound: the lower edge catches a Markov limit that has lost the
    causality violation, the upper edge one whose rates are wrong (with
    Gamma in place of Gamma/2 the ratios are 1.2, 10.6, 104). dev < 2e-2
    holds at the microscopic separation J0*L = 0.003, and at J0*L = 0.3 the
    oracle's deviation equals the series' (0.2250) to 1e-6.
    """
    j0 = 1.0

    # clause A
    L, om = 5.0, 200.0
    ts = np.linspace(0.0, 7 * L, 70001)
    e1 = fermi.fermi_e1(ts, j0, om, L)
    causal = bool(np.all(e1[ts < L] == 0))
    peaks, heights = _local_maxima(ts, np.abs(e1) ** 2)
    m = np.array([1, 3, 5])
    expected_t = m * (L + 1 / j0)
    expected_h = np.array([(k ** k * np.exp(-k) / math.factorial(k)) ** 2
                           for k in m])
    offsets = [float(p - q) for p, q in zip(peaks, expected_t)]
    rel_heights = [float(h / q - 1) for h, q in zip(heights, expected_h)]
    cfg = ChainConfig.fermi_pair(j0, om, L)
    hist = oracle.integrate_chain(cfg, InitialCondition.excited(0), 7 * L, L / 200)
    oracle_peaks, _ = _local_maxima(hist.times(), np.abs(hist.amplitudes(1)) ** 2)
    clause_a = (causal and len(peaks) >= 3 and len(oracle_peaks) >= 3
                and all(abs(d) <= 0.2 / j0 for d in offsets[:3])
                and all(abs(r) <= 1e-2 for r in rel_heights[:3])
                and bool(np.all(np.abs(oracle_peaks[:3] - expected_t) <= 0.2 / j0)))

    # clause B
    g0 = 2 * j0
    theta = 60.0
    devs = []
    clause_b = True
    rungs = (0.3, 0.03, 0.003)
    for jl in rungs:
        L = jl / j0
        om = theta / L
        ts = np.concatenate([np.linspace(0.0, L, 201, endpoint=False),
                             np.linspace(L, 5.0 / g0, 4001)])
        exact = fermi.fermi_e1(ts, j0, om, L)
        markov = fermi.markovian_e1(ts, g0, theta, om)
        before = (ts > 0) & (ts < L)
        violation = (bool(np.all(exact[ts < L] == 0))
                     and bool(np.all(np.abs(markov[before]) > 0)))
        devs.append(float(np.max(np.abs(exact - markov))))
        clause_b = clause_b and violation
    ratios = [d / jl for d, jl in zip(devs, rungs)]
    clause_b = (clause_b and all(0.5 <= r <= 1.0 for r in ratios)
                and devs[-1] < 2e-2)
    L = 0.3 / j0
    om = theta / L
    cfg = ChainConfig.fermi_pair(j0, om, L)
    hist = oracle.integrate_chain(cfg, InitialCondition.excited(0), 5.0 / g0, L / 200)
    tt = hist.times()
    markov = fermi.markovian_e1(tt, g0, theta, om)
    dev_oracle = float(np.max(np.abs(hist.amplitudes(1) - markov)))
    dev_series = float(np.max(np.abs(fermi.fermi_e1(tt, j0, om, L) - markov)))
    clause_b = clause_b and abs(dev_oracle - dev_series) < 1e-6

    _report(9, clause_a and clause_b,
            f"peak offsets={[round(d, 4) for d in offsets[:3]]}, "
            f"peak heights={[round(float(h), 4) for h in heights[:3]]}, "
            f"dev/(J0 L)={[round(r, 4) for r in ratios]}")
