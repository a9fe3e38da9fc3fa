"""Prepared inputs, op execution, output fingerprints and reference checks.

Every call into wqed goes through a module attribute (``evaluator.total_norm``,
``cli.main``...) looked up at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from wqed import cli, evaluator, fermi, oracle
from wqed.core import ChainConfig, InitialCondition, PulseSpec

import workloads as wl

AMPLITUDE_TOL = 1e-5       # against the RK4 oracle at dt = L/256, as `check --what oracle`
FERMI_TOL = 1e-10          # against the hard-coded two-qubit series
NORM_TOL = 1e-6
FIELD_TOL = 1e-5           # against the oracle's field reconstruction
FINGERPRINT_SAMPLES = 8
_FRONT_TOL = 1e-9


class Mismatch(Exception):
    """An op returned an answer that disagrees with its reference."""


def _chain(scn: dict) -> ChainConfig:
    return ChainConfig(scn["n"], scn["omega"], wl.J0, 1.0,
                       positions=wl.positions(scn))


def _init(scn: dict) -> InitialCondition:
    ini = scn["init"]
    if ini["kind"] == "excited_qubit":
        return InitialCondition.excited(ini["qubit"])
    return InitialCondition.incident(
        PulseSpec(ini["sigma"], ini["x0"], ini["direction"]))


def _sample(values: np.ndarray) -> list[float]:
    """FINGERPRINT_SAMPLES evenly spaced entries as [re, im, re, im, ...]."""
    values = np.asarray(values, dtype=complex).ravel()
    idx = np.linspace(0, len(values) - 1, FINGERPRINT_SAMPLES).round().astype(int)
    return [float(v) for z in values[idx] for v in (z.real, z.imag)]


def _fronts(cfg: ChainConfig, init: InitialCondition, t: float) -> list[float]:
    """Positions of the field's jump fronts at time t. The engine takes the
    Heaviside midpoint there and the oracle does not, so samples that sit
    exactly on a front are left out of the field comparison."""
    if init.kind == "excited_qubit":
        x = cfg.positions[init.qubit]
        return [x - t, x + t]
    p = init.pulse
    sign = 1.0 if p.direction == "right" else -1.0
    entry = cfg.positions[0] if p.direction == "right" else cfg.positions[-1]
    return [entry - sign * p.x0 + sign * t]


class Bench:
    """One workload's prepared inputs. `prepare` is the set-up step."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.scenarios, self.ops = wl.build(workload, seed)
        self._oracle_key = None
        self._oracle = None

    # -- set-up -----------------------------------------------------------

    def prepare(self) -> None:
        """Build the wqed inputs and, for `validate`, write config files."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfgs = [_chain(s) for s in self.scenarios]
        self.inits = [_init(s) for s in self.scenarios]
        self.steps = {}     # t_f -> oracle mesh indices of the evaluation times
        self.xs = {}        # (scenario, T) -> field positions
        for op in self.ops:
            if op["kind"] == "amplitude" and op["t_f"] not in self.steps:
                steps = int(op["t_f"] * wl.MESH)
                stride = max(1, round(steps / wl.AMPLITUDE_POINTS))
                self.steps[op["t_f"]] = np.arange(1, steps, stride)
            elif op["kind"] == "field":
                cfg = self.cfgs[op["scenario"]]
                self.xs[(op["scenario"], op["t"])] = np.linspace(
                    cfg.positions[0] - op["t"], cfg.positions[-1] + op["t"],
                    wl.FIELD_POINTS)
            elif op["kind"] == "cli":
                op["argv"] = [a.replace("{work}", str(self.work))
                              for a in op["argv"]]
        if self.workload == "validate":
            for sid, scn in enumerate(self.scenarios):
                conf = {"chain": {"n": scn["n"], "omega": scn["omega"],
                                  "j0": wl.J0, "separation": 1.0},
                        "initial": scn["init"], "horizon": scn["horizon"],
                        "grid": {"t_points": int(scn["horizon"]
                                                 * wl.CLI_T_POINTS_PER_L),
                                 "x_points": wl.CLI_X_POINTS}}
                (self.work / f"cfg{sid}.json").write_text(json.dumps(conf))

    # -- one op -------------------------------------------------------------

    def execute(self, i: int):
        """Run op i; WqedError propagates (the op is refused)."""
        op = self.ops[i]
        kind = op["kind"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
            return rc, out.getvalue(), err.getvalue().strip()
        cfg, init = self.cfgs[op["scenario"]], self.inits[op["scenario"]]
        if kind == "amplitude":
            amp = evaluator.excitation_amplitude(cfg, init, op["qubit"], op["t_f"])
            return amp(self.steps[op["t_f"]] / wl.MESH)
        if kind == "norm":
            return evaluator.total_norm(cfg, init, op["t"])
        xs = self.xs[(op["scenario"], op["t"])]
        return evaluator.field_profile(cfg, init, op["t"], xs).arrays()

    def answered(self, i: int, raw) -> bool:
        """False for a CLI op the program refused: a non-zero exit with an
        `error:` message on stderr, as `cli.main` prints for a WqedError or
        a bad config. Any other non-zero exit (a `check` whose report says
        "pass": false) is an answer, and `check` rejects it."""
        rc, _, err = raw if self.ops[i]["kind"] == "cli" else (0, "", "")
        return rc == 0 or not err.startswith("error:")

    def fingerprint(self, i: int, raw) -> list[float]:
        """Sampled output values of an answered op."""
        kind = self.ops[i]["kind"]
        if kind == "amplitude":
            return _sample(raw)
        if kind == "norm":
            return [float(raw)]
        if kind == "field":
            _, pr, pl = raw
            return _sample(pr) + _sample(pl)
        return self._cli_fingerprint(i, raw[1])

    def _cli_fingerprint(self, i: int, stdout: str) -> list[float]:
        op = self.ops[i]
        if op["check"] == "report":
            report = json.loads(stdout)
            poles = report.get("details", {}).get("fabry_perot", {}).get("poles", [])
            vals = [report.get("max_error", 0.0), report.get("max_inside_cone", 0.0)]
            return [float(v) for v in vals] + [float(v) for p in poles for v in p]
        return [v for path in self._csv_paths(i)
                for v in _sample(np.loadtxt(path, delimiter=",", skiprows=1))]

    def _csv_paths(self, i: int) -> list[Path]:
        argv = self.ops[i]["argv"]
        out = Path(argv[argv.index("--out") + 1])
        if self.ops[i]["check"] == "simulate":
            return [out, out.with_name(out.stem + ".field" + out.suffix)]
        return sorted(out.glob("*.csv"))

    # -- reference checks (outside the timed region) ------------------------

    def check(self, i: int, raw) -> None:
        """Raise Mismatch unless the answer agrees with its reference."""
        op = self.ops[i]
        kind = op["kind"]
        if kind == "amplitude":
            self._check_amplitude(op, raw)
        elif kind == "norm":
            if not abs(raw - 1.0) < NORM_TOL:
                raise Mismatch(f"total_norm = {raw!r}, |norm - 1| >= {NORM_TOL}")
        elif kind == "field":
            cfg, init = self.cfgs[op["scenario"]], self.inits[op["scenario"]]
            xs, pr, pl = raw
            hist = self._history(op["scenario"], op["t"])
            _check_field(cfg, init, hist, op["t"], xs, pr, pl)
        elif op["check"] == "report" and json.loads(raw[1]).get("pass") is not True:
            raise Mismatch(f"check --what {op['argv'][2]} report does not say "
                           f"\"pass\": true (exit code {raw[0]})")
        elif raw[0] != 0:
            raise Mismatch(f"exit code {raw[0]} without an error message")
        elif op["check"] == "simulate":
            self._check_simulate(i)
        elif op["check"] == "fermi":
            self._check_fermi_demo(i)

    def horizon(self, i: int) -> float:
        """The latest time op i's answer covers."""
        op = self.ops[i]
        if op["kind"] == "amplitude":
            return op["t_f"]
        if op["kind"] in ("norm", "field"):
            return op["t"]
        scn = op["scenario"]
        return 0.0 if scn is None else self.scenarios[scn]["horizon"]

    def _history(self, sid: int, t: float):
        """Oracle history of scenario sid reaching t. Checking a scenario's
        ops latest-first makes this one integration per scenario."""
        if self._oracle_key != sid or self._oracle.horizon < t - 1e-12:
            self._oracle = oracle.integrate_chain(
                self.cfgs[sid], self.inits[sid], t, 1.0 / wl.MESH)
            self._oracle_key = sid
        return self._oracle

    def _check_amplitude(self, op: dict, values) -> None:
        sid, q = op["scenario"], op["qubit"]
        scn, cfg, init = self.scenarios[sid], self.cfgs[sid], self.inits[sid]
        steps = self.steps[op["t_f"]]
        ts = steps / wl.MESH
        if scn["n"] == 2 and init.kind == "excited_qubit":
            L = scn["gaps"][0] / 8
            series = fermi.fermi_em1 if q == init.qubit else fermi.fermi_e1
            ref, tol = series(ts, wl.J0, scn["omega"], L), FERMI_TOL
        else:
            ref = self._history(sid, op["t_f"]).amplitudes(q)[steps]
            tol = AMPLITUDE_TOL
        err = float(np.max(np.abs(values - ref)))
        if not err < tol:
            raise Mismatch(f"e:{q} max error {err:.3e} >= {tol:g}")

    def _check_simulate(self, i: int) -> None:
        op = self.ops[i]
        sid = op["scenario"]
        cfg, init = self.cfgs[sid], self.inits[sid]
        q = int(op["argv"][op["argv"].index("--observables") + 1]
                .split(",")[0][2:])
        amp_csv, field_csv = self._csv_paths(i)
        data = np.loadtxt(amp_csv, delimiter=",", skiprows=1)
        steps = np.rint(data[1:, 0] * wl.MESH).astype(int)
        hist = self._history(sid, self.scenarios[sid]["horizon"])
        err = float(np.max(np.abs(data[1:, 1] + 1j * data[1:, 2]
                                  - hist.amplitudes(q)[steps])))
        if not err < AMPLITUDE_TOL:
            raise Mismatch(f"simulate e:{q} max error {err:.3e}")
        t_snap = float(data[-1, 0])
        fd = np.loadtxt(field_csv, delimiter=",", skiprows=1)
        _check_field(cfg, init, hist, t_snap, fd[:, 0], fd[:, 1] + 1j * fd[:, 2],
                     fd[:, 3] + 1j * fd[:, 4])

    def _check_fermi_demo(self, i: int) -> None:
        argv = self.ops[i]["argv"]
        L = float(argv[argv.index("--L") + 1])
        omega = float(argv[argv.index("--omega") + 1])
        path = Path(argv[argv.index("--out") + 1]) / f"e1_L{argv[argv.index('--L') + 1]}.csv"
        data = np.loadtxt(path, delimiter=",", skiprows=1)[1:]
        # independent reference: the diagram engine on the same pair
        cfg = ChainConfig.fermi_pair(wl.J0, omega, L)
        amp = evaluator.excitation_amplitude(cfg, InitialCondition.excited(0), 1,
                                             8 * L * (1 + 1e-12))
        err = float(np.max(np.abs(data[:, 1] + 1j * data[:, 2] - amp(data[:, 0]))))
        if not err < FERMI_TOL:
            raise Mismatch(f"fermi-demo e1 max error {err:.3e}")


def _check_field(cfg, init, hist, t, xs, pr, pl) -> None:
    fronts = _fronts(cfg, init, t)
    err = 0.0
    for x, r, l in zip(xs, pr, pl):
        if any(abs(x - f) < _FRONT_TOL for f in fronts):
            continue
        ref_r, ref_l = oracle.reconstruct_field(hist, cfg, float(x), t, init)
        err = max(err, abs(r - ref_r), abs(l - ref_l))
    if not err < FIELD_TOL:
        raise Mismatch(f"field at t={t} max error {err:.3e} >= {FIELD_TOL:g}")

