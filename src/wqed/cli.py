"""Command-line front end: JSON experiment configs in, CSV/JSON data out.

Subcommands:

* ``simulate``   -- evaluate excitation amplitudes (and optionally a field
  snapshot) for a config file, writing CSV.
* ``fermi-demo`` -- emit the two-qubit re-excitation curves and internal
  field snapshots for the standard demo parameters.
* ``check``      -- run one of the built-in validation checks (causality,
  no-uhp, oracle, norm) and print a JSON report.

Exit codes: 0 success / check passed, 2 usage or config error, 3 runtime
failure (e.g. the diagram cap was exceeded) or check failure.

``CONFIG_SCHEMA`` is the one declaration of the config format. ``_conform``
checks a config against it with JSON Schema's meaning of the few keywords
the schema uses (an integral float is an integer, a bool is no number),
naming the key path of the first fault, and hands integer fields on as
``int``; it refuses any other keyword, so the schema cannot outgrow it. The
import of a JSON Schema library would cost a quarter of the start-up time
of every command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluator, fermi, oracle, scattering
from .core import ChainConfig, InitialCondition, PulseSpec
from .errors import WqedError
from .momentum import coeff_e, coeff_r, coeff_t

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["chain", "initial", "horizon", "grid"],
    "properties": {
        "chain": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "omega", "j0", "separation"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "omega": {"type": "number", "minimum": 0},
                "j0": {"type": "number", "exclusiveMinimum": 0},
                "separation": {"type": "number", "minimum": 0},
            },
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["excited_qubit", "pulse"]},
                "qubit": {"type": "integer"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "x0": {"type": "number", "exclusiveMinimum": 0},
                "direction": {"enum": ["right", "left"]},
            },
        },
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_points"],
            "properties": {
                "t_points": {"type": "integer", "minimum": 2},
                "x_points": {"type": "integer", "minimum": 2},
            },
        },
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# JSON Schema's types: a bool is no number, an integral float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}
_KEYWORDS = {"type", "required", "properties", "additionalProperties", "enum",
             "minimum", "exclusiveMinimum"}


class ConfigError(Exception):
    pass


def _conform(schema: dict, value, path: str = ""):
    """`value` checked against `schema`, with its integers as int.

    Raises ConfigError naming the key path of the first fault, and
    NotImplementedError where `schema` uses more of JSON Schema than the
    keywords in _KEYWORDS, the types in _TYPES and additionalProperties
    false.
    """
    kind = schema.get("type")
    if (schema.keys() - _KEYWORDS or kind not in (None, *_TYPES)
            or schema.get("additionalProperties", False) is not False):
        raise NotImplementedError(f"schema beyond the supported keywords: "
                                  f"{schema}")
    where = f"invalid config: {path}: " if path else "invalid config: "
    if kind is not None and not _TYPES[kind](value):
        raise ConfigError(f"{where}{value!r} is not of type {kind!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{where}{value!r} is not one of {schema['enum']!r}")
    # a NaN passes both bounds, as in JSON Schema
    number = _is_number(value)
    if number and value < schema.get("minimum", -math.inf):
        raise ConfigError(f"{where}{value!r} is less than the minimum of "
                          f"{schema['minimum']!r}")
    if number and value <= schema.get("exclusiveMinimum", -math.inf):
        raise ConfigError(f"{where}{value!r} is less than or equal to the "
                          f"minimum of {schema['exclusiveMinimum']!r}")
    if kind == "integer":
        return int(value)
    if kind != "object":
        return value
    props = schema.get("properties", {})
    for key in schema.get("required", []):
        if key not in value:
            raise ConfigError(f"{where}{key!r} is a required property")
    extra = sorted(value.keys() - props.keys())
    if "additionalProperties" in schema and extra:
        raise ConfigError(f"{where}additional properties are not allowed: "
                          + ", ".join(map(repr, extra)))
    return {key: _conform(props[key], val, f"{path}.{key}" if path else key)
            if key in props else val for key, val in value.items()}


def load_config(path: str):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    raw = _conform(CONFIG_SCHEMA, raw)
    for name, section in raw.items():
        values = section.items() if isinstance(section, dict) else [(name, section)]
        for key, val in values:
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"non-finite value for {key}")
    ch = raw["chain"]
    try:
        cfg = ChainConfig(ch["n"], ch["omega"], ch["j0"], ch["separation"])
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}")
    ini = raw["initial"]
    if ini["kind"] == "excited_qubit":
        q = ini.get("qubit")
        if q is None or not (0 <= q < cfg.num_qubits):
            raise ConfigError("excited_qubit initial condition needs a valid "
                              "'qubit' index")
        init = InitialCondition.excited(q)
    else:
        if "sigma" not in ini or "x0" not in ini:
            raise ConfigError("pulse initial condition needs 'sigma' and 'x0'")
        init = InitialCondition.incident(PulseSpec(
            ini["sigma"], ini["x0"], ini.get("direction", "right")))
    return cfg, init, raw["horizon"], raw["grid"]


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write the header (UTF-8) and one row per index of the columns, each
    value as ``'%.17g'``. ``_csvformat`` builds the text with numpy; it is
    imported here, so that commands which write no CSV never build its
    tables."""
    from ._csvformat import format_rows
    table = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        format_rows(table, fh)


def cmd_simulate(args) -> int:
    cfg, init, horizon, grid = load_config(args.config)
    observables = [o for o in (args.observables or "").split(",") if o]
    if not observables:
        raise ConfigError("no observables requested")
    ts = np.linspace(0.0, horizon, grid["t_points"], endpoint=False)
    header = ["t"]
    columns = [ts]
    field_requested = False
    requested = []          # (observable, qubit)
    for obs in observables:
        if obs == "field":
            field_requested = True
            continue
        if not obs.startswith("e:"):
            raise ConfigError(f"unknown observable {obs!r}")
        try:
            q = int(obs[2:])
        except ValueError:
            raise ConfigError(f"bad qubit index in observable {obs!r}")
        if not (0 <= q < cfg.num_qubits):
            raise ConfigError(f"observable {obs!r} out of range")
        requested.append((obs, q))
    # one class pass: the field needs every qubit, exact through ts[-1]
    qubits = (range(cfg.num_qubits) if field_requested
              else [q for _, q in requested])
    amps = evaluator.amplitudes(cfg, init, tuple(qubits), horizon)
    for obs, q in requested:
        vals = amps[q](ts)
        header += [f"{obs}.re", f"{obs}.im", f"{obs}.abs2"]
        columns += [vals.real, vals.imag, np.abs(vals) ** 2]
    if len(header) > 1:
        write_csv(args.out, header, columns)
    if field_requested:
        t_snap = ts[-1]
        span = horizon
        xs = np.linspace(cfg.positions[0] - span, cfg.positions[-1] + span,
                         grid.get("x_points", 401))
        prof = evaluator._field_from(cfg, init, t_snap, xs, amps)
        _, pr, pl = prof.arrays()
        write_csv(_field_path(args.out), ["x", "psi_r.re", "psi_r.im",
                                          "psi_l.re", "psi_l.im", "abs2"],
                  [xs, pr.real, pr.imag, pl.real, pl.imag,
                   np.abs(pr) ** 2 + np.abs(pl) ** 2])
    return 0


def _field_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + ".field" + (p.suffix or ".csv")))


def cmd_fermi_demo(args) -> int:
    allowed = {"5": 5.0, "2": 2.0, "0.3": 0.3}
    if args.L not in allowed:
        raise ConfigError(f"--L must be one of {sorted(allowed)}")
    L = allowed[args.L]
    j0 = 1.0
    omega = args.omega * j0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t_f = 8 * L
    ts = np.linspace(0.0, t_f, 2001, endpoint=False)
    e1 = fermi.fermi_e1(ts, j0, omega, L)
    theta = omega * L
    mk = fermi.markovian_e1(ts, 2 * j0, theta, omega)
    write_csv(str(outdir / f"e1_L{args.L}.csv"),
              ["t", "e1.re", "e1.im", "e1.abs2", "markov.abs2"],
              [ts, e1.real, e1.imag, np.abs(e1) ** 2, np.abs(mk) ** 2])
    xs = np.linspace(-L / 2, L / 2, 401)
    snaps = np.array([0.5, 1.5, 2.5]) * L
    # the internal field only: the rest of fermi_full_state goes unused
    psi_ri, psi_li = fermi._internal_field(snaps[:, None], xs, j0, omega, L)
    for t_snap, ri, li in zip(snaps, psi_ri, psi_li):
        write_csv(str(outdir / f"field_L{args.L}_t{t_snap:g}.csv"),
                  ["x", "psi_Ri.re", "psi_Ri.im", "psi_Li.re", "psi_Li.im"],
                  [xs, ri.real, ri.imag, li.real, li.imag])
    return 0


def _check_causality(cfg, init) -> dict:
    probed = tuple(q for q in range(cfg.num_qubits)
                   if not (init.kind == "excited_qubit" and q == init.qubit))
    details = {f"e:{q}": m for q, m in
               evaluator.causality_probes(cfg, init, probed).items()}
    worst = max((0.0, *details.values()))
    return {"pass": worst == 0.0, "max_inside_cone": worst, "details": details}


def _check_no_uhp(cfg) -> dict:
    j0 = cfg.j0
    results = {}
    ok = True
    for name, fn in (("t", coeff_t(j0)), ("r", coeff_r(j0)),
                     ("e", coeff_e(j0))):
        rep = scattering.check_no_uhp(fn)
        results[name] = {"pass": bool(rep["pass"]),
                         "worst_im": float(rep["worst_im"])}
        ok = ok and rep["pass"]
    if cfg.num_qubits >= 2:
        fp = scattering.chain_transmission(j0, cfg.omega, cfg.separation)
        rep = scattering.check_no_uhp(fp)
        results["fabry_perot"] = {
            "pass": bool(rep["pass"]), "worst_im": float(rep["worst_im"]),
            "poles": [[p.real, p.imag] for p in rep["poles"]]}
        ok = ok and rep["pass"]
    return {"pass": bool(ok), "details": results}


def _check_oracle(cfg, init, horizon) -> dict:
    L = cfg.separation if cfg.num_qubits > 1 else 1.0 / cfg.j0
    dt = L / oracle.step_divisor(L, 256, cfg.gamma0)
    hist = oracle.integrate_chain(cfg, init, horizon, dt)
    ts = hist.times()[1:]   # skip t=0, where the closed form takes Theta(0)=0.5
    worst = 0.0
    for q, amp in evaluator.all_amplitudes(cfg, init, horizon).items():
        worst = max(worst, float(np.max(np.abs(
            amp(ts) - hist.amplitudes(q)[1:]))))
    return {"pass": worst < 1e-5, "max_error": worst, "dt": dt}


def _check_norm(cfg, init, horizon) -> dict:
    ts = np.linspace(horizon / 50, horizon * (1 - 1e-9), 50)
    worst = float(np.max(np.abs(evaluator.total_norm(cfg, init, ts) - 1.0)))
    return {"pass": worst < 1e-6, "max_norm_deviation": worst}


def cmd_check(args) -> int:
    cfg, init, horizon, _ = load_config(args.config)
    if args.what == "causality":
        report = _check_causality(cfg, init)
    elif args.what == "no-uhp":
        report = _check_no_uhp(cfg)
    elif args.what == "oracle":
        report = _check_oracle(cfg, init, horizon)
    else:
        report = _check_norm(cfg, init, horizon)
    print(json.dumps(report))
    return 0 if report["pass"] else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wqed",
                                 description="single-photon waveguide dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evaluate observables to CSV")
    sim.add_argument("config")
    sim.add_argument("--out", required=True)
    sim.add_argument("--observables", required=True,
                     help="comma list, e.g. e:0,e:1,field")
    sim.set_defaults(func=cmd_simulate)

    demo = sub.add_parser("fermi-demo", help="two-qubit demo data")
    demo.add_argument("--L", required=True, help="qubit separation: 5, 2, 0.3")
    demo.add_argument("--omega", type=float, default=200.0,
                      help="transition frequency in units of j0")
    demo.add_argument("--out", required=True, help="output directory")
    demo.set_defaults(func=cmd_fermi_demo)

    chk = sub.add_parser("check", help="run a validation check")
    chk.add_argument("--what", required=True,
                     choices=["causality", "no-uhp", "oracle", "norm"])
    chk.add_argument("config")
    chk.set_defaults(func=cmd_check)
    return ap


# An argparse parser is a web of reference cycles that only the cyclic
# collector frees: one parser per process, not one per call, leaves no such
# garbage behind each command (and saves building it, about 0.5 ms).
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WqedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
