"""Seeded op lists for the three benchmark workloads.

The ladders below fix every problem size (chain length, horizon, op mix).
The seed draws only the physical properties of each scenario: the
transition frequency Omega, which qubit starts excited, the pulse width
sigma, its stand-off x0 and direction, and uneven rational gaps. Continuous
properties are drawn stratified over the scenarios of one ladder rung, so
that different seeds exercise the same spread of inputs and their costs
stay comparable.

Every op stays inside the envelope where the engine answers: no op of any
seed is refused. The excited-start horizons stop one rung below the first
`IllConditioned` refusal; pulse starts stop at 3 L, and sigma is drawn from
[0.2, 5] J0 without the band (0.8, 1.25) J0 around the pole collision at
sigma = J0, where even 2 L is refused (see README.md, "Envelope").

Units: J0 = 1 and the nominal gap L = 1. Every gap and every x0 is a
multiple of 1/8, so the oracle step L/256 divides every delay and every
pulse arrival time.

This module is pure Python and does not import wqed.
"""

from __future__ import annotations

import math
import random

J0 = 1.0
MESH = 256                 # oracle steps per unit length (dt = L/256)
OMEGA_RANGE = (10.0, 200.0)
SIGMA_RANGE = (0.2, 5.0)
SIGMA_GAP = (0.8, 1.25)    # left out: the band refused at 3 L, with room
X0_RANGE = (0.125, 2.0)

# (n, excited-start horizons in L, pulse horizons in L, scenarios per start
# kind and spacing). Scenario r of a rung observes the qubits q with
# q % reps == r, so every qubit is observed once per start kind and spacing.
AMPLITUDE_LADDER = (
    (2, (8, 12, 16, 20, 24), (2, 3), 1),
    (3, (6, 8, 10, 12), (2, 3), 1),
    (4, (4, 6, 8), (2, 3), 1),
    (8, (4, 5, 6), (2, 3), 2),
)
AMPLITUDE_POINTS = 2000    # evaluation times per amplitude op

# (n, excited-start snapshot times T in L, pulse times, scenarios per kind)
FIELD_LADDER = (
    (2, (2, 4, 6, 8, 10, 12), (2, 3), 3),
    (3, (2, 4, 6, 8), (2, 3), 3),
    (4, (2, 4, 6), (2, 3), 2),
)
FIELD_POINTS = 401

# validate: uniform chains; one excited-start scenario per horizon, then
# one pulse scenario per pulse horizon
VALIDATE_N = (2, 3, 4)
VALIDATE_HORIZONS = (4, 6, 8)
VALIDATE_PULSE_HORIZONS = (2, 3)
VALIDATE_FERMI_L = ("5", "2", "0.3")
# 24 fermi-demo ops, as cheap as the cheaper simulate ops: they put the
# median op well inside that cluster, clear of the costlier simulate ops
VALIDATE_FERMI_REPEATS = 8
CLI_T_POINTS_PER_L = 32    # simulate grid: t = k/32 lands on the oracle mesh
CLI_X_POINTS = 401

WORKLOADS = ("amplitudes", "field_norm", "validate")


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws in [lo, hi], one per equal-width stratum, shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _sigmas(rng: random.Random, k: int) -> list[float]:
    """k pulse widths, log-stratified over SIGMA_RANGE without SIGMA_GAP."""
    lo, hi = map(math.log, SIGMA_RANGE)
    gap_lo, gap_hi = map(math.log, SIGMA_GAP)
    cut = gap_lo - lo
    return [math.exp(lo + v if v < cut else gap_hi + v - cut)
            for v in _strata(rng, k, 0.0, cut + hi - gap_hi)]


def _uneven_gaps(rng: random.Random, n: int) -> list[int]:
    """n-1 gaps in eighths of L: alternating 7/8 and 9/8 (an odd count ends
    on 8/8), rotated and mirrored by the seed. For n >= 3 they sum to
    (n-1) L, so chain length, event density and cost stay fixed."""
    if n == 2:
        return [rng.choice((7, 9))]
    m = n - 1
    gaps = [7 if i % 2 == 0 else 9 for i in range(m - m % 2)] + [8] * (m % 2)
    k = rng.randrange(m)
    gaps = gaps[k:] + gaps[:k]
    return gaps[::-1] if rng.random() < 0.5 else gaps


def _scenarios(rng: random.Random, n: int, kinds: list[tuple[str, bool]]
               ) -> list[dict]:
    """One scenario per (start kind, uneven) entry, properties stratified.

    The excited qubit's distance from the nearer edge cycles through a fixed
    order that alternates outer and inner qubits; the seed picks the side.
    """
    k = len(kinds)
    omegas = _strata(rng, k, *OMEGA_RANGE)
    npulse = sum(1 for kind, _ in kinds if kind == "pulse")
    sigmas = _sigmas(rng, max(npulse, 1))
    x0s = [max(1, round(8 * x)) / 8 for x in _strata(rng, max(npulse, 1), *X0_RANGE)]
    half = (n + 1) // 2
    order = sorted(range(half), key=lambda q: (q % 2, q))
    out = []
    for i, (kind, uneven) in enumerate(kinds):
        if kind == "excited":
            q = order[i % half]
            init = {"kind": "excited_qubit",
                    "qubit": rng.choice((q, n - 1 - q))}
        else:
            init = {"kind": "pulse", "sigma": sigmas.pop(), "x0": x0s.pop(),
                    "direction": rng.choice(("right", "left"))}
        gaps = _uneven_gaps(rng, n) if uneven else [8] * (n - 1)
        out.append({"n": n, "gaps": gaps, "omega": omegas[i], "init": init})
    return out


def _amplitudes(rng: random.Random):
    scenarios, ops = [], []
    for n, excited_horizons, pulse_horizons, reps in AMPLITUDE_LADDER:
        kinds = [(kind, uneven) for kind in ("excited", "pulse")
                 for uneven in (False, True) for _ in range(reps)]
        for i, scn in enumerate(_scenarios(rng, n, kinds)):
            sid = len(scenarios)
            scenarios.append(scn)
            horizons = (excited_horizons if scn["init"]["kind"] == "excited_qubit"
                        else pulse_horizons)
            ops += [{"kind": "amplitude", "scenario": sid, "qubit": q,
                     "t_f": float(h)} for h in horizons
                    for q in range(i % reps, n, reps)]
    return scenarios, ops


def _field_norm(rng: random.Random):
    scenarios, ops = [], []
    for n, excited_times, pulse_times, reps in FIELD_LADDER:
        kinds = [(kind, False) for kind in ("excited", "pulse")
                 for _ in range(reps)]
        for scn in _scenarios(rng, n, kinds):
            sid = len(scenarios)
            scenarios.append(scn)
            times = (excited_times if scn["init"]["kind"] == "excited_qubit"
                     else pulse_times)
            for t in times:
                ops.append({"kind": "norm", "scenario": sid, "t": float(t)})
                ops.append({"kind": "field", "scenario": sid, "t": float(t)})
    return scenarios, ops


def _validate(rng: random.Random):
    """CLI ops on config files. Paths are written as {work}-relative
    templates and resolved when the inputs are prepared."""
    scenarios, ops = [], []
    horizons = VALIDATE_HORIZONS + VALIDATE_PULSE_HORIZONS
    kinds = ([("excited", False)] * len(VALIDATE_HORIZONS)
             + [("pulse", False)] * len(VALIDATE_PULSE_HORIZONS))
    for n in VALIDATE_N:
        for scn, horizon in zip(_scenarios(rng, n, kinds), horizons):
            scn["horizon"] = float(horizon)
            scenarios.append(scn)
    for sid, scn in enumerate(scenarios):
        cfg = "{work}/cfg%d.json" % sid
        ops.append({"kind": "cli", "scenario": sid, "check": "report",
                    "argv": ["check", "--what", "oracle", cfg]})
        ops.append({"kind": "cli", "scenario": sid, "check": "report",
                    "argv": ["check", "--what", "causality", cfg]})
        # the Newton-grid pole search depends on the chain only, and at
        # about 0.4 s it is the costliest op: one per chain length, so that
        # a pass stays short enough to be timed many times in a run
        if sid == 0 or scenarios[sid - 1]["n"] != scn["n"]:
            ops.append({"kind": "cli", "scenario": sid, "check": "report",
                        "argv": ["check", "--what", "no-uhp", cfg]})
        for q in range(scn["n"]):
            out = "{work}/sim%d_e%d.csv" % (sid, q)
            ops.append({"kind": "cli", "scenario": sid, "check": "simulate",
                        "argv": ["simulate", cfg, "--out", out,
                                 "--observables", "e:%d,field" % q]})
    omegas = _strata(rng, len(VALIDATE_FERMI_L) * VALIDATE_FERMI_REPEATS,
                     *OMEGA_RANGE)
    for i, omega in enumerate(omegas):
        L = VALIDATE_FERMI_L[i % len(VALIDATE_FERMI_L)]
        ops.append({"kind": "cli", "scenario": None, "check": "fermi",
                    "argv": ["fermi-demo", "--L", L, "--omega", repr(omega),
                             "--out", "{work}/fermi%d" % i]})
    return scenarios, ops


_BUILDERS = {"amplitudes": _amplitudes, "field_norm": _field_norm,
             "validate": _validate}


def build(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(scenarios, ops) for one workload; the same seed gives the same lists."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


def positions(scn: dict) -> tuple[float, ...]:
    """Qubit positions of a scenario, first qubit at 0."""
    xs = [0.0]
    for g in scn["gaps"]:
        xs.append(xs[-1] + g / 8)
    return tuple(xs)
