import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import diagrams, oracle
from wqed.core import (ChainConfig, InitialCondition, PulseSpec,
                       TimeSeriesAmplitude, eval_term)
from wqed.diagrams import (CellKind, Diagram, FinisherSpec, UnitCell,
                           apply_cell, class_function, diagram_classes,
                           enumerate_diagrams, field_segment, field_terms,
                           finish_excitation, finish_field, start_pulse)
from wqed.errors import GeometryError, HorizonTooLarge, IllConditioned
from wqed.evaluator import excitation_amplitude, field_profile
from wqed.momentum import (coeff_r, coeff_t, inverse_transform, mul,
                           simple_pole)


def fermi_cfg(L=1.0, omega=4.0, j0=1.0):
    return ChainConfig.fermi_pair(j0, omega, L)


def test_apply_cell_worked_example():
    """Starter at the left qubit, one hop, absorbed at the right qubit."""
    cfg = fermi_cfg(L=1.0)
    s = apply_cell(cfg, None, UnitCell(CellKind.STARTER_EXCITED, qubit=0))
    assert s.delay == 0.0
    s = apply_cell(cfg, s, UnitCell(CellKind.FREE_PROP, length=1.0,
                                    branch="right"))
    assert s.delay == 1.0
    assert s.position == cfg.positions[1]
    d = Diagram(cells=(UnitCell(CellKind.STARTER_EXCITED, qubit=0),
                       UnitCell(CellKind.FREE_PROP, length=1.0, branch="right"),
                       UnitCell(CellKind.FINISH_QUBIT, qubit=1)),
                f=s.f, total_delay=s.delay)
    amp = finish_excitation(cfg, d)
    (tm,) = amp.terms
    assert tm.delay == pytest.approx(1.0)
    assert tm.pole == pytest.approx(-1j)
    assert tm.carrier == cfg.omega
    np.testing.assert_allclose(tm.poly_coeffs, (0.0, -1.0), atol=1e-14)


def test_free_prop_geometry_errors():
    cfg = fermi_cfg(L=1.0)
    s = apply_cell(cfg, None, UnitCell(CellKind.STARTER_EXCITED, qubit=0))
    with pytest.raises(GeometryError):
        apply_cell(cfg, s, UnitCell(CellKind.FREE_PROP, length=0.5,
                                    branch="right"))
    with pytest.raises(GeometryError):
        apply_cell(cfg, s, UnitCell(CellKind.FREE_PROP, length=-1.0,
                                    branch="right"))
    # scattering cell at the wrong position
    with pytest.raises(GeometryError):
        apply_cell(cfg, s, UnitCell(CellKind.TRANSMIT, qubit=1))


def test_starter_must_come_first():
    cfg = fermi_cfg()
    with pytest.raises(GeometryError):
        apply_cell(cfg, None, UnitCell(CellKind.FREE_PROP, length=1.0,
                                       branch="right"))
    s = apply_cell(cfg, None, UnitCell(CellKind.STARTER_EXCITED, qubit=0))
    with pytest.raises(GeometryError):
        apply_cell(cfg, s, UnitCell(CellKind.STARTER_EXCITED, qubit=1))


def test_reflect_flips_direction():
    cfg = fermi_cfg(L=1.0)
    s = apply_cell(cfg, None, UnitCell(CellKind.STARTER_EXCITED, qubit=0))
    s = apply_cell(cfg, s, UnitCell(CellKind.FREE_PROP, length=1.0,
                                    branch="right"))
    s = apply_cell(cfg, s, UnitCell(CellKind.REFLECT, qubit=1))
    assert s.direction == "left"
    s = apply_cell(cfg, s, UnitCell(CellKind.FREE_PROP, length=1.0,
                                    branch="left"))
    assert s.position == cfg.positions[0]
    assert s.delay == 2.0


def _brute_force_paths(cfg, src, target, t_f):
    """Count paths src -> target (delay < t_f) by breadth-first expansion."""
    n = cfg.num_qubits
    seps = [abs(b - a) for a, b in zip(cfg.positions, cfg.positions[1:])]
    total = 1 if target == src else 0      # survival diagram
    frontier = []
    for d in (+1, -1):
        nxt = src + d
        if 0 <= nxt < n:
            frontier.append((nxt, d, seps[min(src, nxt)]))
    while frontier:
        new = []
        for pos, d, delay in frontier:
            if delay >= t_f:
                continue
            if pos == target:
                total += 1
            for branch in (d, -d):         # transmit keeps, reflect flips
                nxt = pos + branch
                if 0 <= nxt < n:
                    new.append((nxt, branch,
                                delay + seps[min(pos, nxt)]))
        frontier = new
    return total


def test_enumeration_matches_brute_force():
    cfg = ChainConfig(3, 4.0, 1.0, 1.0)
    init = InitialCondition.excited(0)
    for target in range(3):
        for t_f in (0.5, 1.5, 4.0, 8.0, 12.0):
            got = len(enumerate_diagrams(cfg, init, FinisherSpec("qubit", target),
                                         t_f))
            want = _brute_force_paths(cfg, 0, target, t_f)
            assert got == want, (target, t_f)


def test_enumeration_uneven_spacing():
    cfg = ChainConfig(3, 4.0, 1.0, 0.0, positions=(0.0, 1.0, 2.5))
    init = InitialCondition.excited(1)
    for target in range(3):
        got = len(enumerate_diagrams(cfg, init, FinisherSpec("qubit", target),
                                     9.0))
        want = _brute_force_paths(cfg, 1, target, 9.0)
        assert got == want


def test_enumeration_deterministic_and_sorted():
    cfg = ChainConfig(3, 4.0, 1.0, 1.0)
    init = InitialCondition.excited(1)
    a = enumerate_diagrams(cfg, init, FinisherSpec("qubit", 0), 7.0)
    b = enumerate_diagrams(cfg, init, FinisherSpec("qubit", 0), 7.0)
    assert [d.cells for d in a] == [d.cells for d in b]
    delays = [d.total_delay for d in a]
    assert delays == sorted(delays)


def test_horizon_strictness():
    # a diagram needs delay strictly below t_f to contribute
    cfg = fermi_cfg(L=1.0)
    init = InitialCondition.excited(0)
    ds = enumerate_diagrams(cfg, init, FinisherSpec("qubit", 1), 1.0)
    assert ds == []
    ds = enumerate_diagrams(cfg, init, FinisherSpec("qubit", 1), 1.0 + 1e-9)
    assert len(ds) == 1


def test_cap_raises(monkeypatch):
    cfg = fermi_cfg(L=1.0)
    init = InitialCondition.excited(0)
    monkeypatch.setattr(diagrams, "DIAGRAM_CAP", 3)
    with pytest.raises(HorizonTooLarge):
        enumerate_diagrams(cfg, init, FinisherSpec("qubit", 1), 50.0)


def test_self_decay_diagram():
    cfg = ChainConfig(1, 4.0, 1.5, 0.0)
    init = InitialCondition.excited(0)
    (d,) = enumerate_diagrams(cfg, init, FinisherSpec("qubit", 0), 10.0)
    assert d.self_decay
    amp = finish_excitation(cfg, d)
    (tm,) = amp.terms
    assert tm.pole == pytest.approx(-1.5j)
    np.testing.assert_allclose(tm.poly_coeffs, (1.0,), atol=1e-14)
    t = 0.8
    assert amp(t) == pytest.approx(np.exp(-(1.5 + 4.0j) * t))


def test_field_finisher_segments():
    cfg = fermi_cfg(L=2.0)
    init = InitialCondition.excited(0)
    ds = enumerate_diagrams(cfg, init, FinisherSpec("field"), 0.5)
    # only the two starter emissions fit below t_f = 0.5
    assert len(ds) == 2
    segs = sorted(field_segment(cfg, d) for d in ds)
    assert segs[0] == (-np.inf, -1.0)
    assert segs[1] == (-1.0, 1.0)


def test_finish_field_off_segment():
    cfg = fermi_cfg(L=2.0)
    init = InitialCondition.excited(0)
    ds = enumerate_diagrams(cfg, init, FinisherSpec("field"), 0.5)
    right = [d for d in ds if d.finisher.branch == "right"][0]
    with pytest.raises(GeometryError):
        finish_field(cfg, right, x=5.0)


def test_uhp_pole_assertion():
    cfg = fermi_cfg()
    bad = Diagram(cells=(UnitCell(CellKind.STARTER_EXCITED, qubit=0),
                         UnitCell(CellKind.FINISH_QUBIT, qubit=0)),
                  f=simple_pole(1.0, +1j), total_delay=0.0)
    with pytest.raises(AssertionError):
        finish_excitation(cfg, bad)


def test_pulse_start_state():
    cfg = fermi_cfg(L=1.0)
    spec = PulseSpec(1.0, 2.0, "right")
    s = start_pulse(cfg, spec)
    assert s.position == pytest.approx(cfg.positions[0] - 2.0)
    assert s.direction == "right"
    ds = enumerate_diagrams(cfg, InitialCondition.incident(spec),
                            FinisherSpec("qubit", 0), 2.0 + 1e-9)
    assert len(ds) == 1
    assert ds[0].total_delay == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Weighted diagram classes against the per-path tree walk
# ---------------------------------------------------------------------------

def _scatter_counts(d):
    n_t = sum(c.kind is CellKind.TRANSMIT for c in d.cells)
    n_r = sum(c.kind is CellKind.REFLECT for c in d.cells)
    return n_t, n_r


def _finisher_key(fin):
    return fin.kind, fin.qubit, fin.branch


def _tree_counts(diagrams):
    """Path count per (finisher, delay, #T, #R, self_decay) of the walk."""
    return Counter((_finisher_key(d.finisher), d.total_delay)
                   + _scatter_counts(d) + (d.self_decay,) for d in diagrams)


def _class_counts(classes):
    out = Counter()
    for c in classes:
        out[(_finisher_key(c.finisher), c.delay, c.n_t, c.n_r,
             c.self_decay)] += c.weight
    return out


def _per_path_amplitude(cfg, init, qubit, t_f):
    terms = []
    for d in enumerate_diagrams(cfg, init, FinisherSpec("qubit", qubit), t_f):
        terms.extend(finish_excitation(cfg, d).terms)
    return TimeSeriesAmplitude(tuple(terms))


def _per_path_field(cfg, init, t, xs):
    """Right/left field at t from every path's own finish_field, plus the
    undisturbed incident pulse on the incidence-side exterior segment."""
    t_f = t * (1 + 1e-12) + 1e-12
    pieces = []                       # (branch, lo, hi, x_from, terms)
    for d in enumerate_diagrams(cfg, init, FinisherSpec("field"), t_f):
        lo, hi = field_segment(cfg, d)
        pieces.append((d.finisher.branch, lo, hi, cfg.positions[d.finisher.qubit],
                       field_terms(cfg, d)))
    if init.kind == "pulse":
        spec = init.pulse
        terms = tuple(inverse_transform(start_pulse(cfg, spec).f, spec.x0,
                                        cfg.omega))
        if spec.direction == "right":
            x = cfg.positions[0]
            pieces.append(("right", -np.inf, x, x, terms))
        else:
            x = cfg.positions[-1]
            pieces.append(("left", x, np.inf, x, terms))
    out = {"right": np.zeros(len(xs), complex), "left": np.zeros(len(xs), complex)}
    scale = np.zeros(len(xs))
    for branch, lo, hi, x_from, terms in pieces:
        sign = 1.0 if branch == "right" else -1.0
        for i, x in enumerate(xs):
            w = 1.0 if lo < x < hi else 0.5 if x in (lo, hi) else 0.0
            for tm in terms:
                if w and not tm.anti_causal:
                    v = w * eval_term(replace(tm, delay=tm.delay
                                              + sign * (x - x_from)), t)
                    out[branch][i] += v
                    scale[i] += abs(v)
    return out["right"], out["left"], scale


_eighths = st.integers(1, 16).map(lambda k: k / 8)


@st.composite
def _chains(draw):
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(_eighths, min_size=n - 1, max_size=n - 1))
    positions = tuple(float(x) for x in np.cumsum([0.0] + gaps))
    cfg = ChainConfig(n, draw(st.sampled_from([4.0, 37.5])), 1.0, 0.0,
                      positions=positions)
    if draw(st.booleans()):
        init = InitialCondition.excited(draw(st.integers(0, n - 1)))
    else:
        init = InitialCondition.incident(PulseSpec(
            draw(st.floats(0.2, 5.0)), draw(_eighths),
            draw(st.sampled_from(["right", "left"]))))
    # horizons up to 10 L, L the shortest gap (1 for a single qubit)
    unit = min(gaps, default=1.0)
    t_f = draw(st.integers(1, 80)) / 8 * unit
    return cfg, init, t_f


def _oracle_field_error(cfg, init, t, xs, pr, pl):
    """Largest difference from the oracle's field reconstruction at
    dt = 1/2048, which divides every delay of `_chains`. Samples on a jump
    front are left out: the engine takes Theta(0) = 1/2 there and the
    oracle does not."""
    if init.kind == "excited_qubit":
        x = cfg.positions[init.qubit]
        fronts = [x - t, x + t]
    else:
        p = init.pulse
        sign = 1.0 if p.direction == "right" else -1.0
        entry = cfg.positions[0 if p.direction == "right" else -1]
        fronts = [entry - sign * p.x0 + sign * t]
    hist = oracle.integrate_chain(cfg, init, t, 1 / 2048)
    err = 0.0
    for x, r, l in zip(xs, pr, pl):
        if all(abs(x - f) > 1e-9 for f in fronts):
            ref_r, ref_l = oracle.reconstruct_field(hist, cfg, float(x), t,
                                                    init)
            err = max(err, abs(r - ref_r), abs(l - ref_l))
    return err


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_chains(), st.data())
def test_classes_match_tree_walk(case, data):
    cfg, init, t_f = case
    n = cfg.num_qubits
    qubit = data.draw(st.integers(0, n - 1))
    walks = [_tree_counts(enumerate_diagrams(
        cfg, init, FinisherSpec("qubit", q), t_f)) for q in range(n)]
    assert _class_counts(diagram_classes(cfg, init, (qubit,), t_f)) \
        == walks[qubit]
    classes = diagram_classes(cfg, init, tuple(range(n)), t_f)
    assert _class_counts(classes) == sum(walks, Counter())
    keys = {(c.finisher, c.crossings, c.n_t, c.n_r, c.self_decay)
            for c in classes}
    assert len(keys) == len(classes)

    ts = np.linspace(0.0, t_f, 97)
    try:
        ref = _per_path_amplitude(cfg, init, qubit, t_f)
    except IllConditioned:
        with pytest.raises(IllConditioned):
            excitation_amplitude(cfg, init, qubit, t_f)
        return
    got = excitation_amplitude(cfg, init, qubit, t_f)
    # rounding bound: eps-scaled sum of the per-path term magnitudes
    scale = sum(np.abs(eval_term(tm, ts)) for tm in ref.terms) + 1.0
    assert np.all(np.abs(got(ts) - ref(ts)) <= 1e-12 * scale)

    t = data.draw(st.integers(0, 8)) / 8 * t_f
    lo, hi = cfg.positions[0] - t_f, cfg.positions[-1] + t_f
    xs = np.concatenate([np.linspace(lo, hi, 61), cfg.positions])
    try:
        pr, pl, scale = _per_path_field(cfg, init, t, xs)
    except IllConditioned:
        # the field finisher's residue step can refuse where the qubit
        # amplitudes, and so the field, are fine
        try:
            _, gr, gl = field_profile(cfg, init, t, xs).arrays()
        except IllConditioned:
            return
        assert _oracle_field_error(cfg, init, t, xs, gr, gl) < 1e-8
        return
    _, gr, gl = field_profile(cfg, init, t, xs).arrays()
    assert np.all(np.abs(gr - pr) <= 1e-12 * (scale + 1.0))
    assert np.all(np.abs(gl - pl) <= 1e-12 * (scale + 1.0))


@pytest.mark.parametrize("n, classes, paths", [(8, 36, 139_653),
                                               (4, 44, 28_656)])
def test_class_figures_at_24L(n, classes, paths):
    cfg = ChainConfig(n, 4.0, 1.0, 1.0)
    got = diagram_classes(cfg, InitialCondition.excited(0), (n - 1,), 24.0)
    assert len(got) == classes
    assert sum(c.weight for c in got) == paths


def test_float_spacing_shares_one_gap_counter():
    """Positions m * 0.1 have gaps that differ in the last bits; they still
    collapse to one crossing count, as the exact spacing 1 does."""
    counts = []
    for sep in (1.0, 0.1):
        cfg = ChainConfig(8, 4.0, 1.0, sep)
        classes = diagram_classes(cfg, InitialCondition.excited(0), (7,),
                                  24.0 * sep)
        assert all(len(c.crossings) == 1 for c in classes)
        counts.append(len(classes))
    assert counts == [36, 36]


def test_class_cap_counts_classes(monkeypatch):
    cfg = ChainConfig(4, 4.0, 1.0, 1.0)
    init = InitialCondition.excited(0)
    monkeypatch.setattr(diagrams, "DIAGRAM_CAP", 44)
    assert len(diagram_classes(cfg, init, (3,), 24.0)) == 44
    with pytest.raises(HorizonTooLarge):       # the walk counts paths
        enumerate_diagrams(cfg, init, FinisherSpec("qubit", 3), 24.0)
    monkeypatch.setattr(diagrams, "DIAGRAM_CAP", 43)
    with pytest.raises(HorizonTooLarge):
        diagram_classes(cfg, init, (3,), 24.0)


def test_class_function_is_the_product_of_coefficients():
    cfg = ChainConfig(3, 4.0, 1.3, 1.0)
    init = InitialCondition.incident(PulseSpec(0.7, 1.0, "left"))
    ref = start_pulse(cfg, init.pulse).f
    for _ in range(3):
        ref = mul(ref, coeff_t(cfg.j0))
    for _ in range(2):
        ref = mul(ref, coeff_r(cfg.j0))
    got = class_function(cfg, init, 3, 2)
    assert got.poles == ref.poles
    np.testing.assert_allclose(got.numer, ref.numer, rtol=1e-15, atol=0)
