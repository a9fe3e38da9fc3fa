import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqed import diagrams, oracle
from wqed.core import (ChainConfig, InitialCondition, PulseSpec,
                       TimeSeriesAmplitude, eval_term)
from wqed.diagrams import (ClassPolynomial, Diagram, FinisherSpec,
                           _starter_excited, class_polynomials, class_rows,
                           enumerate_diagrams, field_segment, field_terms,
                           finish_excitation, finish_field)
from wqed.errors import GeometryError, HorizonTooLarge, IllConditioned
from wqed.evaluator import excitation_amplitude, field_profile
from wqed.momentum import (coeff_e, coeff_r, coeff_t, inverse_transform, mul,
                           pulse_spectrum, simple_pole)


def fermi_cfg(L=1.0, omega=4.0, j0=1.0):
    return ChainConfig.fermi_pair(j0, omega, L)


def test_apply_cell_worked_example():
    """Starter at the left qubit, one hop, absorbed at the right qubit: the
    walk's one diagram below 2 L."""
    cfg = fermi_cfg(L=1.0)
    (d,) = enumerate_diagrams(cfg, InitialCondition.excited(0),
                              FinisherSpec("qubit", 1), 2.0)
    assert (d.finisher, d.n_t, d.n_r, d.total_delay, d.self_decay) \
        == (FinisherSpec("qubit", 1), 0, 0, 1.0, False)
    amp = finish_excitation(cfg, d)
    (tm,) = amp.terms
    assert tm.delay == pytest.approx(1.0)
    assert tm.pole == pytest.approx(-1j)
    assert tm.carrier == cfg.omega
    np.testing.assert_allclose(tm.poly_coeffs, (0.0, -1.0), atol=1e-14)


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
    for target in (FinisherSpec("qubit", 0), FinisherSpec("field")):
        a = enumerate_diagrams(cfg, init, target, 7.0)
        b = enumerate_diagrams(cfg, init, target, 7.0)
        assert a == b
        keys = [(d.total_delay, d.finisher, d.n_t, d.n_r) for d in a]
        assert keys == sorted(keys)


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
    (right,) = [d for d in ds if d.finisher.branch == "right"]
    assert right.finisher == FinisherSpec("field", 0, "right")
    with pytest.raises(GeometryError):
        finish_field(cfg, right, x=5.0)


def test_uhp_pole_assertion():
    cfg = fermi_cfg()
    bad = Diagram(FinisherSpec("qubit", 0), 0, 0, simple_pole(1.0, +1j), 0.0)
    with pytest.raises(AssertionError):
        finish_excitation(cfg, bad)


def test_pulse_start_state():
    cfg = fermi_cfg(L=1.0)
    spec = PulseSpec(1.0, 2.0, "right")
    ds = enumerate_diagrams(cfg, InitialCondition.incident(spec),
                            FinisherSpec("qubit", 0), 2.0 + 1e-9)
    assert len(ds) == 1
    assert ds[0].total_delay == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Weighted diagram classes against the per-path tree walk
# ---------------------------------------------------------------------------

def _tree_counts(diagrams):
    """Path count per (finisher, delay, #T, #R, self_decay) of the walk,
    the finisher as (kind, qubit, branch)."""
    return Counter(((d.finisher.kind, d.finisher.qubit, d.finisher.branch),
                    d.total_delay, d.n_t, d.n_r, d.self_decay)
                   for d in diagrams)


def _path_polynomial(n_t, n_r, self_decay, sigma_pole):
    """One path's share of `ClassPolynomial.counts`: z^(#R + 1) (1 + z)^#T,
    z^#R (1 + z)^#T for a pulse whose sigma pole is not -iJ0, and 1 for
    the self-decay path."""
    if self_decay:
        return (1,)
    return ((0,) * (n_r + (not sigma_pole))
            + tuple(math.comb(n_t, k) for k in range(n_t + 1)))


def _has_sigma_pole(cfg, init):
    return init.kind == "pulse" and init.pulse.sigma != cfg.j0


def _path_residue(cfg, init, n_t, n_r):
    """One path's `ClassPolynomial.residue`, from its closed form
    (-1)^(E+1) sigma^#T J0^#R / (J0 - sigma)^(E+1), E = #T + #R."""
    if not _has_sigma_pole(cfg, init):
        return 0.0
    sigma, e = init.pulse.sigma, n_t + n_r
    return ((-1) ** (e + 1) * sigma ** n_t * cfg.j0 ** n_r
            / (cfg.j0 - sigma) ** (e + 1))


def _walk_polynomials(cfg, init, counts):
    """{(qubit, delay): (counts, residue, sum of |path residues|)} summed
    path class by path class from counts keyed like `_tree_counts`."""
    sigma_pole = _has_sigma_pole(cfg, init)
    out = {}
    for (fin, delay, n_t, n_r, self_decay), w in counts.items():
        acc, g, scale = out.get((fin[1], delay), ((), 0.0, 0.0))
        term = _path_polynomial(n_t, n_r, self_decay, sigma_pole)
        acc = tuple(x + w * y for x, y in itertools.zip_longest(
            acc, term, fillvalue=0))
        r = w * _path_residue(cfg, init, n_t, n_r)
        out[(fin[1], delay)] = (acc, g + r, scale + abs(r))
    return out


def _assert_polynomials_match(polys, cfg, init, counts):
    """The class DP's polynomials against the path counts `counts`: the
    same (qubit, delay) keys in (delay, qubit) order, equal integer
    counts, and residues within rounding of the per-path sums."""
    want = _walk_polynomials(cfg, init, counts)
    assert [(c.qubit, c.delay) for c in polys] \
        == sorted(want, key=lambda k: (k[1], k[0]))
    for c in polys:
        counts_, g, scale = want[(c.qubit, c.delay)]
        assert c.counts == counts_
        assert abs(c.residue - g) <= 1e-13 * scale


def _walk_counts(cfg, init, qubits, t_f):
    return sum((_tree_counts(enumerate_diagrams(
        cfg, init, FinisherSpec("qubit", q), t_f)) for q in qubits),
        Counter())


def _path_counts(cfg, src, target, t_f):
    """`_tree_counts` of the walk from excited qubit `src` to finisher
    `target`, by the breadth-first expansion of `_brute_force_paths`;
    entries alike in (qubit, direction, delay, #T, #R) are expanded once
    with their multiplicity."""
    n = cfg.num_qubits
    seps = [abs(b - a) for a, b in zip(cfg.positions, cfg.positions[1:])]
    fin = ("qubit", target, None)
    out = Counter({(fin, 0.0, 0, 0, True): 1} if target == src else {})
    frontier = Counter((src + d, d, seps[min(src, src + d)], 0, 0)
                       for d in (1, -1) if 0 <= src + d < n)
    while frontier:
        new = Counter()
        for (pos, d, delay, n_t, n_r), w in frontier.items():
            if delay >= t_f:
                continue
            if pos == target:
                out[(fin, delay, n_t, n_r, False)] += w
            for branch in (d, -d):         # transmit keeps, reflect flips
                nxt = pos + branch
                if 0 <= nxt < n:
                    new[(nxt, branch, delay + seps[min(pos, nxt)],
                         n_t + (branch == d), n_r + (branch != d))] += w
        frontier = new
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
        f, delay = pulse_spectrum(spec, cfg.omega,
                                  cfg.positions[spec.entry(cfg.num_qubits)])
        terms = tuple(inverse_transform(f, delay, cfg.omega))
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
                if w:
                    v = w * eval_term(replace(tm, delay=tm.delay
                                              + sign * (x - x_from)), t)
                    out[branch][i] += v
                    scale[i] += abs(v)
    return out["right"], out["left"], scale


_eighths = st.integers(1, 16).map(lambda k: k / 8)


@st.composite
def _cases(draw):
    """A chain, a start, a horizon, the observed qubit and a field time."""
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
    qubit = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, 8)) / 8 * t_f
    return cfg, init, t_f, qubit, t


def _oracle_amplitude_error(cfg, init, qubit, t_f, amp):
    """Largest difference from the oracle's amplitude at dt = 1/2048, which
    divides every delay of `_cases`, on its mesh in (0, t_f)."""
    hist = oracle.integrate_chain(cfg, init, t_f, 1 / 2048)
    ts = hist.times()[1:]
    keep = ts < t_f
    return float(np.max(np.abs(amp(ts[keep])
                               - hist.amplitudes(qubit)[1:][keep])))


def _oracle_field_error(cfg, init, t, xs, pr, pl):
    """Largest difference from the oracle's field reconstruction at
    dt = 1/2048, which divides every delay of `_cases`. Samples on a jump
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
@given(_cases())
# the per-path residue step refuses here; the closed form is 2.5e-13 from
# the oracle
@example((ChainConfig(2, 4.0, 1.0, 0.0, positions=(0.0, 0.125)),
          InitialCondition.incident(PulseSpec(0.75, 0.125, "right")),
          0.640625, 0, 0.3203125))
def test_classes_match_tree_walk(case):
    cfg, init, t_f, qubit, t = case
    n = cfg.num_qubits
    _assert_polynomials_match(class_polynomials(cfg, init, (qubit,), t_f),
                              cfg, init,
                              _walk_counts(cfg, init, (qubit,), t_f))
    _assert_polynomials_match(
        class_polynomials(cfg, init, tuple(range(n)), t_f), cfg, init,
        _walk_counts(cfg, init, range(n), t_f))

    ts = np.linspace(0.0, t_f, 97)
    try:
        ref = _per_path_amplitude(cfg, init, qubit, t_f)
    except IllConditioned:
        # the per-path residue step can refuse where the closed form is fine
        try:
            got = excitation_amplitude(cfg, init, qubit, t_f)
        except IllConditioned:
            return
        assert _oracle_amplitude_error(cfg, init, qubit, t_f, got) < 1e-8
        return
    got = excitation_amplitude(cfg, init, qubit, t_f)
    # rounding bound: eps-scaled sum of the per-path term magnitudes
    scale = sum(np.abs(eval_term(tm, ts)) for tm in ref.terms) + 1.0
    assert np.all(np.abs(got(ts) - ref(ts)) <= 1e-12 * scale)

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
    """Uniform chains from qubit 0 to the last: one polynomial per delay
    (n - 1, n + 1, ..., 23), against the path counts of the walk, by its
    breadth-first expansion: the walk itself takes about 10 s on the
    28,656 paths of n = 4 on a 2-vCPU machine."""
    cfg = ChainConfig(n, 4.0, 1.0, 1.0)
    init = InitialCondition.excited(0)
    want = _path_counts(cfg, 0, n - 1, 24.0)
    assert (len(want), sum(want.values())) == (classes, paths)
    got = class_polynomials(cfg, init, (n - 1,), 24.0)
    assert [c.delay for c in got] == list(range(n - 1, 24, 2))
    _assert_polynomials_match(got, cfg, init, want)


def test_float_spacing_shares_one_gap_length():
    """Positions m * 0.1 have gaps that differ in the last bits; they still
    collapse to one gap length, and give the polynomials of the exact
    spacing 1."""
    got = []
    for sep in (1.0, 0.1):
        cfg = ChainConfig(8, 4.0, 1.0, sep)
        polys = class_polynomials(cfg, InitialCondition.excited(0), (7,),
                                  24.0 * sep)
        assert len(set(diagrams._gap_units(cfg)[1])) == 1
        got.append([c.counts for c in polys])
    assert got[0] == got[1] and len(got[0]) == 9


def test_uneven_classes_are_keyed_on_the_delay():
    """Gaps 7/8, 9/8 and 1 L: crossing the first two gaps once each takes
    as long as crossing the third twice, so different gap crossings share a
    delay. The program keeps one polynomial per (qubit, delay), and it
    sums the tree walk's paths."""
    cfg = ChainConfig(4, 4.0, 1.0, 0.0, positions=(0.0, 0.875, 2.0, 3.0))
    init = InitialCondition.excited(0)
    polys = class_polynomials(cfg, init, (0, 1, 2, 3), 12.0)
    assert len(polys) == 107
    walks = _walk_counts(cfg, init, range(4), 12.0)
    assert sum(walks.values()) == 456
    _assert_polynomials_match(polys, cfg, init, walks)


def test_hop_levels_merge_into_one_state():
    """The uneven chain of `test_uneven_classes_are_keyed_on_the_delay`
    with every qubit a finisher: paths with different numbers of
    scatterings reach one (qubit, direction, delay), and the program keeps
    one state for them. It expands 428 states at 24 L and 812 at 40 L,
    where one state per number of scatterings took 714 and 2,159."""
    cfg = ChainConfig(4, 4.0, 1.0, 0.0, positions=(0.0, 0.875, 2.0, 3.0))
    init = InitialCondition.excited(0)
    finishers = frozenset(range(4))
    units = diagrams._gap_units(cfg)
    reach = diagrams._reach(units[1], finishers)
    seen = [diagrams._class_dp(cfg, init, finishers, t_f, units, reach)[1]
            for t_f in (24.0, 40.0)]
    assert seen == [428, 812]
    walks = _walk_counts(cfg, init, range(4), 12.0)
    keys = {(fin[1], delay) for fin, delay, *_ in walks}
    levels = {(fin[1], delay, n_t + n_r) for fin, delay, n_t, n_r, _ in walks}
    assert len(levels) > len(keys)      # some (qubit, delay) has two levels
    _assert_polynomials_match(class_polynomials(cfg, init, tuple(range(4)),
                                                12.0), cfg, init, walks)


def test_class_cap_counts_states(monkeypatch):
    cfg = ChainConfig(4, 4.0, 1.0, 1.0)
    init = InitialCondition.excited(0)
    units = diagrams._gap_units(cfg)
    _, seen = diagrams._class_dp(cfg, init, frozenset({3}), 24.0, units,
                                 diagrams._reach(units[1], frozenset({3})))
    monkeypatch.setattr(diagrams, "DIAGRAM_CAP", seen)
    assert len(class_polynomials(cfg, init, (3,), 24.0)) == 11
    with pytest.raises(HorizonTooLarge):       # the walk counts paths
        enumerate_diagrams(cfg, init, FinisherSpec("qubit", 3), 24.0)
    monkeypatch.setattr(diagrams, "DIAGRAM_CAP", seen - 1)
    with pytest.raises(HorizonTooLarge):
        class_polynomials(cfg, init, (3,), 24.0)


def _unpruned_and_pruned(cfg, init, qubits, t_f):
    """The class DP's (polynomials, states expanded) with all distances to
    a finisher taken as zero, and with the light-cone prune."""
    finishers = frozenset(qubits)
    units = diagrams._gap_units(cfg)
    return [diagrams._class_dp(cfg, init, finishers, t_f, units, reach)
            for reach in ((0,) * cfg.num_qubits,
                          diagrams._reach(units[1], finishers))]


@pytest.mark.parametrize("finisher", [1, 7])
def test_light_cone_prune_keeps_every_class(finisher):
    """n = 8 from qubit 0: the prune visits fewer states and emits the same
    classes; the light cone of finisher 1 is short and that of 7 long."""
    cfg = ChainConfig(8, 4.0, 1.0, 1.0)
    (full, seen_all), (pruned, seen) = _unpruned_and_pruned(
        cfg, InitialCondition.excited(0), (finisher,), 12.0)
    assert pruned == full and full
    assert seen < seen_all
    # a finisher outside the chain has no classes, as without the prune
    assert diagrams.class_polynomials(cfg, InitialCondition.excited(0), (8,),
                                      12.0) == []


@pytest.mark.parametrize("positions, t_f, qubits", [
    # gaps that differ in the last bits; delays k * 0.1 on both sides of t_f
    (tuple(m * 0.1 for m in range(8)), 2.4, (7,)),
    # one ulp above the class delay 5 * 0.1: a prune on rounded float
    # distances would drop states that lead to it
    (tuple(m * 0.1 for m in range(8)), math.nextafter(5 * 0.1, 1.0), (3,)),
    # gaps within _GEOM_TOL share the length 1, so qubit 4 has classes at
    # delay 6 exactly; measured in positions it would lie 1.8e-9 further
    # from qubit 2, and the prune would drop states that lead to them
    ((0.0, 1.0, 2.0 + 9e-10, 3.0 + 1.8e-9, 4.0 + 2.7e-9), 6.0 + 1e-9, (4,))])
def test_light_cone_prune_on_float_gaps(positions, t_f, qubits):
    cfg = ChainConfig(len(positions), 4.0, 1.0, 0.0, positions=positions)
    (full, _), (pruned, _) = _unpruned_and_pruned(
        cfg, InitialCondition.excited(0), qubits, t_f)
    assert pruned == full and full


def test_class_function_is_the_product_of_coefficients():
    """The closed-form class terms equal the residue step on the product of
    starter, n_t transmissions, n_r reflections and pickup: excited starts,
    pulses with sigma != J0 and sigma == J0, and the self-decay class."""
    cfg = ChainConfig(3, 4.0, 1.3, 1.0)
    excited = InitialCondition.excited(1)
    for init, n_t, n_r, self_decay in [
            (excited, 3, 2, False),
            (excited, 0, 4, False),
            (InitialCondition.incident(PulseSpec(0.7, 1.0, "left")), 3, 2,
             False),
            (InitialCondition.incident(PulseSpec(1.3, 1.0, "right")), 3, 2,
             False),
            (InitialCondition.incident(PulseSpec(1.3, 1.0, "right")), 0, 0,
             False),
            (excited, 0, 0, True)]:
        if self_decay:
            f = simple_pole(1j, -1j * cfg.j0)
        else:
            f = (pulse_spectrum(init.pulse, cfg.omega, cfg.positions[
                init.pulse.entry(cfg.num_qubits)])[0]
                 if init.kind == "pulse" else _starter_excited(cfg.j0))
            for coeff in [coeff_t] * n_t + [coeff_r] * n_r + [coeff_e]:
                f = mul(f, coeff(cfg.j0))
        ref = inverse_transform(f, 0.0, cfg.omega)
        sigma_pole = _has_sigma_pole(cfg, init)
        (rows,) = class_rows(cfg, init, [ClassPolynomial(
            0, 0.0, _path_polynomial(n_t, n_r, self_decay, sigma_pole),
            _path_residue(cfg, init, n_t, n_r))])
        assert sorted(pole.imag for pole, _ in rows) \
            == sorted(tm.pole.imag for tm in ref)
        for pole, coeffs in rows:
            (want,) = [r for r in ref if r.pole == pole]
            assert (want.delay, want.carrier) == (0.0, cfg.omega)
            np.testing.assert_allclose(coeffs, want.poly_coeffs,
                                       rtol=1e-13, atol=0)
