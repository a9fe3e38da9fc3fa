import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import cli, diagrams, evaluator, fermi, momentum


def _write_config(tmp_path, **overrides):
    conf = {
        "chain": {"n": 2, "omega": 3.7, "j0": 1.0, "separation": 0.5},
        "initial": {"kind": "excited_qubit", "qubit": 0},
        "horizon": 3.0,
        "grid": {"t_points": 64},
    }
    conf.update(overrides)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    return str(path)


def test_simulate_writes_csv(tmp_path):
    conf = _write_config(tmp_path)
    out = tmp_path / "out.csv"
    rc = cli.main(["simulate", conf, "--out", str(out),
                   "--observables", "e:0,e:1"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,e:0.re,e:0.im,e:0.abs2,e:1.re,e:1.im,e:1.abs2"
    assert len(lines) == 65
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape == (64, 7)
    # |e0|^2 column is consistent with the re/im columns
    np.testing.assert_allclose(data[:, 3], data[:, 1] ** 2 + data[:, 2] ** 2,
                               atol=1e-15)


def test_simulate_deterministic_bytes(tmp_path):
    conf = _write_config(tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["simulate", conf, "--out", str(out),
                         "--observables", "e:0,e:1"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]



def test_write_csv_exact_bytes(tmp_path):
    out = tmp_path / "edge.csv"
    cli.write_csv(str(out), ["a", "b"],
                  [np.array([-0.0, 1e-300, 5e-324, 1 / 3]),
                   np.array([1.0, -2.5, 0.1, 1e16])])
    assert out.read_bytes() == (
        b"a,b\n-0,1\n1e-300,-2.5\n4.9406564584124654e-324,0.10000000000000001\n"
        b"0.33333333333333331,10000000000000000\n")

def test_simulate_field_companion_file(tmp_path):
    conf = _write_config(tmp_path)
    out = tmp_path / "run.csv"
    rc = cli.main(["simulate", conf, "--out", str(out),
                   "--observables", "e:0,field"])
    assert rc == 0
    field = tmp_path / "run.field.csv"
    assert field.exists()
    lines = field.read_text().splitlines()
    assert lines[0] == "x,psi_r.re,psi_r.im,psi_l.re,psi_l.im,abs2"


def test_simulate_pulse_config(tmp_path):
    conf = _write_config(tmp_path, initial={
        "kind": "pulse", "sigma": 1.0, "x0": 1.0, "direction": "right"})
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", conf, "--out", str(out),
                     "--observables", "e:0"]) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    # nothing happens before the standoff distance
    assert np.all(data[data[:, 0] < 1.0, 3] == 0.0)


def test_simulate_field_far_ahead_of_pulse_is_finite(tmp_path):
    # the field grid sits 90-95 units ahead of a sigma = 10 pulse front
    conf = _write_config(tmp_path, horizon=5.0, initial={
        "kind": "pulse", "sigma": 10.0, "x0": 100.0, "direction": "right"})
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", conf, "--out", str(out),
                     "--observables", "e:0,field"]) == 0
    data = np.loadtxt(str(tmp_path / "out.field.csv"), delimiter=",",
                      skiprows=1)
    assert np.all(np.isfinite(data))


@pytest.mark.parametrize("mutation", [
    {"chain": {"n": 2, "omega": 3.7, "j0": 1.0, "separation": 0.5,
               "bogus": 1}},
    {"chain": {"n": 0, "omega": 3.7, "j0": 1.0, "separation": 0.5}},
    {"chain": {"n": 2, "omega": 3.7, "j0": -1.0, "separation": 0.5}},
    {"initial": {"kind": "excited_qubit", "qubit": 5}},
    {"initial": {"kind": "pulse"}},
    {"horizon": -1.0},
    {"extra_top_level": True},
])
def test_bad_config_exits_2(tmp_path, mutation):
    conf = _write_config(tmp_path, **mutation)
    out = tmp_path / "out.csv"
    rc = cli.main(["simulate", conf, "--out", str(out),
                   "--observables", "e:0"])
    assert rc == 2
    assert not out.exists()



def test_config_schema_is_valid():
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(
        cli.CONFIG_SCHEMA)


# the example config of README's "Config schema" section, and its pulse start
_README_CONFIG = {
    "chain": {"n": 2, "omega": 3.7, "j0": 1.0, "separation": 0.5},
    "initial": {"kind": "excited_qubit", "qubit": 0},
    "horizon": 3.0,
    "grid": {"t_points": 64, "x_points": 401},
}
_PULSE_START = {"kind": "pulse", "sigma": 1.0, "x0": 1.0, "direction": "right"}
_SECTIONS = [(), ("chain",), ("initial",), ("grid",)]
_KEYS = [("chain", k) for k in ("n", "omega", "j0", "separation")] + [
    ("initial", k) for k in ("kind", "qubit", "sigma", "x0", "direction")] + [
    ("horizon",), ("grid", "t_points"), ("grid", "x_points")] + [
    (s,) for s in ("chain", "initial", "grid")]
_WRONG_TYPES = st.sampled_from([True, False, "2", None, [], [1.0], {},
                                {"n": 2}])
_NUMBERS = st.sampled_from(
    # at and just past each minimum and exclusiveMinimum (0, 1, 2)
    [v for b in (0, 1, 2) for v in (b, float(b), b - 1, math.nextafter(b, -1),
                                    math.nextafter(b, 3))]
    # integral and non-integral floats
    + [3, 3.0, 2.5, 0.5, -2.0, 1e3, 401.0])
_STRINGS = st.sampled_from(["excited_qubit", "pulse", "right", "left", "",
                            "Pulse", "up"])


def _mutations():
    drop = st.tuples(st.just("drop"), st.sampled_from(_KEYS))
    add = st.tuples(st.just("add"), st.sampled_from(_SECTIONS))
    put = st.sampled_from(_KEYS).flatmap(lambda path: st.tuples(
        st.just("set"), st.just(path),
        st.one_of(*[_STRINGS if path[-1] in ("kind", "direction")
                    else _NUMBERS] * 3, _WRONG_TYPES)))
    # mostly single value changes, so that many configs stay valid
    return st.lists(st.one_of(put, put, put, put, drop, add), max_size=2)


def _mutate(conf, mutation):
    op, path = mutation[:2]
    node = conf
    for key in path[:-1] if op != "add" else path:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        return
    if op == "drop":
        node.pop(path[-1], None)
    elif op == "add":
        node["bogus"] = 1
    else:
        node[path[-1]] = copy.deepcopy(mutation[2])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.booleans(), _mutations())
def test_conform_agrees_with_jsonschema(pulse, mutations):
    """The walker refuses a config exactly when JSON Schema does, and hands
    it on unchanged but for integral numbers in integer fields, as int."""
    conf = copy.deepcopy(_README_CONFIG)
    if pulse:
        conf["initial"] = dict(_PULSE_START)
    for mutation in mutations:
        _mutate(conf, mutation)
    validator = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    want = [e.message for e in validator(cli.CONFIG_SCHEMA).iter_errors(conf)]
    try:
        got = cli._conform(cli.CONFIG_SCHEMA, conf)
    except cli.ConfigError as exc:
        assert want, f"walker refused a valid config: {exc}"
        assert str(exc).startswith("invalid config: ")
        return
    assert not want, f"walker accepted an invalid config: {want}"
    assert got == conf
    for path in [("chain", "n"), ("initial", "qubit"), ("grid", "t_points"),
                 ("grid", "x_points")]:
        if path[1] in got[path[0]]:
            assert type(got[path[0]][path[1]]) is int


@pytest.mark.parametrize("schema", [
    {"type": "string"},
    {"type": "number", "maximum": 3},
    {"type": "object", "additionalProperties": True},
    {"type": "object", "properties": {"n": {"type": "integer",
                                            "multipleOf": 2}}}])
def test_conform_refuses_unknown_schema_keywords(schema):
    with pytest.raises(NotImplementedError):
        cli._conform(schema, {"n": 2})


@pytest.mark.parametrize("path, value, message", [
    (("chain", "n"), 0, "chain.n: 0 is less than the minimum of 1"),
    (("chain", "n"), True, "chain.n: True is not of type 'integer'"),
    (("initial", "kind"), "photon",
     "initial.kind: 'photon' is not one of ['excited_qubit', 'pulse']"),
    (("grid",), {"x_points": 2}, "grid: 't_points' is a required property"),
    (("grid", "y"), 1, "grid: additional properties are not allowed: 'y'"),
    (("horizon",), 0.0,
     "horizon: 0.0 is less than or equal to the minimum of 0"),
    (("initial",), "pulse", "initial: 'pulse' is not of type 'object'")])
def test_conform_names_the_key_path(path, value, message):
    conf = copy.deepcopy(_README_CONFIG)
    _mutate(conf, ("set", path, value))
    with pytest.raises(cli.ConfigError) as info:
        cli._conform(cli.CONFIG_SCHEMA, conf)
    assert str(info.value) == "invalid config: " + message


@pytest.mark.parametrize("argv", [
    ["simulate", "--observables", "e:0,e:1,field"],
    ["check", "--what", "oracle"]])
@pytest.mark.parametrize("section, key", [
    ("chain", "n"), ("initial", "qubit"), ("grid", "t_points"),
    ("grid", "x_points")])
def test_integral_float_config_matches_integer_twin(tmp_path, capsys, argv,
                                                    section, key):
    outputs = []
    for twin in ("int", "float"):
        conf = {"chain": {"n": 2, "omega": 3.7, "j0": 1.0, "separation": 0.5},
                "initial": {"kind": "excited_qubit", "qubit": 1},
                "horizon": 3.0, "grid": {"t_points": 64, "x_points": 11}}
        if twin == "float":
            conf[section][key] = float(conf[section][key])
        work = tmp_path / twin
        work.mkdir()
        (work / "conf.json").write_text(json.dumps(conf))
        extra = ["--out", str(work / "o.csv")] if argv[0] == "simulate" else []
        assert cli.main(argv + extra + [str(work / "conf.json")]) == 0
        outputs.append((capsys.readouterr().out,
                        [p.read_bytes() for p in sorted(work.glob("o*.csv"))]))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("module", ["jsonschema", "fractions", "decimal"])
def test_cli_import_leaves_jsonschema_out(module):
    """Each of these costs milliseconds of import time that no command
    needs (fractions alone adds about 3 ms after numpy)."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import wqed, wqed.cli, sys; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_cli_import_leaves_csv_formatter_out():
    """The numpy CSV formatter is imported by the first write_csv only."""
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import wqed, wqed.cli, sys; print('wqed._csvformat' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_chain_rejected_by_config_exits_2(tmp_path, capsys):
    """The schema admits separation 0; ChainConfig refuses it for n >= 2."""
    conf = _write_config(tmp_path, chain={"n": 2, "omega": 3.7, "j0": 1.0,
                                          "separation": 0})
    assert cli.main(["check", "--what", "no-uhp", conf]) == 2
    assert capsys.readouterr().err.startswith("error: invalid config:")

def test_nonfinite_value_exits_2(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text('{"chain": {"n": 2, "omega": 3.7, "j0": 1.0, '
                    '"separation": NaN}, '
                    '"initial": {"kind": "excited_qubit", "qubit": 0}, '
                    '"horizon": 3.0, "grid": {"t_points": 8}}')
    assert cli.main(["simulate", str(path), "--out",
                     str(tmp_path / "o.csv"), "--observables", "e:0"]) == 2


@pytest.mark.parametrize("horizon", ["Infinity", "NaN"])
@pytest.mark.parametrize("argv", [["simulate", "--observables", "e:1"],
                                  ["check", "--what", "causality"]])
def test_nonfinite_horizon_exits_2(tmp_path, capsys, horizon, argv):
    path = tmp_path / "conf.json"
    path.write_text('{"chain": {"n": 2, "omega": 3.7, "j0": 1.0, '
                    '"separation": 0.5}, '
                    '"initial": {"kind": "excited_qubit", "qubit": 0}, '
                    f'"horizon": {horizon}, "grid": {{"t_points": 8}}}}')
    extra = ["--out", str(tmp_path / "o.csv")] if argv[0] == "simulate" else []
    assert cli.main(argv + extra + [str(path)]) == 2
    assert capsys.readouterr().err == "error: non-finite value for horizon\n"


def test_empty_observables_exits_2(tmp_path):
    conf = _write_config(tmp_path)
    rc = cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                   "--observables", ""])
    assert rc == 2


def test_unknown_observable_exits_2(tmp_path):
    conf = _write_config(tmp_path)
    rc = cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                   "--observables", "e:zero"])
    assert rc == 2


@pytest.mark.parametrize("observable, message", [
    ("x:0", "unknown observable 'x:0'"),
    ("e:9", "observable 'e:9' out of range")])
def test_bad_observable_exits_2_with_an_error_line(tmp_path, capsys,
                                                   observable, message):
    conf = _write_config(tmp_path)
    rc = cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                   "--observables", observable])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_config_file_exits_2(tmp_path):
    rc = cli.main(["simulate", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.csv"), "--observables", "e:0"])
    assert rc == 2


def test_diagram_cap_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(diagrams, "DIAGRAM_CAP", 3)
    conf = _write_config(tmp_path, horizon=6.0)
    rc = cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                   "--observables", "e:1"])
    assert rc == 3


def test_pulse_near_j0_exits_3(tmp_path, capsys):
    """An amplitude refused near sigma = J0 is a typed error: exit 3 with
    an error line, not a traceback."""
    conf = _write_config(tmp_path, chain={"n": 2, "omega": 10.0, "j0": 1.0,
                                          "separation": 1.0},
                         initial={"kind": "pulse", "sigma": 1.001,
                                  "x0": 0.125, "direction": "right"},
                         horizon=150.0)
    rc = cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                   "--observables", "e:1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_large_j0_simulate_exits_0(tmp_path):
    """J0 = 100 at spacing 0.05: J0^j alone overflows float64 below the
    horizon's 160 hops, the coefficients J0^j / j! do not."""
    conf = _write_config(tmp_path, chain={"n": 2, "omega": 200.0,
                                          "j0": 100.0, "separation": 0.05},
                         horizon=8.0)
    rc = cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                   "--observables", "e:1"])
    assert rc == 0


def test_check_causality_passes(tmp_path, capsys):
    conf = _write_config(tmp_path)
    rc = cli.main(["check", "--what", "causality", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["pass"] is True
    assert report["max_inside_cone"] == 0.0


def test_check_causality_single_excited_qubit_probes_nothing(tmp_path,
                                                             capsys):
    conf = _write_config(tmp_path, chain={"n": 1, "omega": 3.7, "j0": 1,
                                          "separation": 0})
    assert cli.main(["check", "--what", "causality", conf]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "pass": True, "max_inside_cone": 0.0, "details": {}}


def test_check_no_uhp_passes(tmp_path, capsys):
    conf = _write_config(tmp_path)
    rc = cli.main(["check", "--what", "no-uhp", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["pass"] is True
    assert report["details"]["fabry_perot"]["pass"] is True


def test_check_oracle_passes(tmp_path, capsys):
    conf = _write_config(tmp_path)
    rc = cli.main(["check", "--what", "oracle", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["max_error"] < 1e-5


def test_check_oracle_refines_a_long_step(tmp_path, capsys):
    """Separation 10: L/256 breaks the integrator's 0.05/gamma0 limit, so
    the check halves it to L/512."""
    conf = _write_config(tmp_path, chain={"n": 2, "omega": 3.7, "j0": 1.0,
                                          "separation": 10.0}, horizon=30.0)
    rc = cli.main(["check", "--what", "oracle", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["dt"] == 10.0 / 512
    assert report["max_error"] < 1e-5


@pytest.mark.parametrize("n, L, x0, direction, omega", [
    (3, 1.0, 0.1037, "right", 10.0),
    (3, 1.0, 0.001, "left", 57.0),        # x0 < dt = L/256
    (3, 0.1, 3 * 0.1 / 8, "left", 10.0),  # x0 / dt = 96.00000000000001
    # fronts on the mesh whose float arrivals round past their nodes
    (3, 1.1, 1 * 1.1 / 8, "left", 10.0),
    (4, 0.1, 1 * 0.1 / 8, "right", 10.0),
    (4, 0.3, 3 * 0.3 / 8, "left", 10.0),
    (3, 0.9, 12 * 0.9 / 8, "right", 10.0),
])
def test_check_oracle_pulse_off_the_step_mesh(tmp_path, capsys, n, L, x0,
                                              direction, omega):
    """A front anywhere between or on the oracle's nodes: the mesh starts
    where every arrival is a whole number of steps."""
    conf = _write_config(
        tmp_path, chain={"n": n, "omega": omega, "j0": 1.0, "separation": L},
        initial={"kind": "pulse", "sigma": 0.6, "x0": x0,
                 "direction": direction}, horizon=6.0 * L)
    rc = cli.main(["check", "--what", "oracle", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["dt"] == L / 256
    assert report["max_error"] < 1e-10


def test_check_norm_passes(tmp_path, capsys):
    conf = _write_config(tmp_path)
    rc = cli.main(["check", "--what", "norm", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["max_norm_deviation"] < 1e-6


def test_check_norm_long_horizon(tmp_path, capsys):
    """20 scattering events on a two-qubit chain: the field norm keeps full
    precision on long series."""
    conf = _write_config(tmp_path, chain={"n": 2, "omega": 10, "j0": 1,
                                          "separation": 1}, horizon=20)
    rc = cli.main(["check", "--what", "norm", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["max_norm_deviation"] < 1e-12


def _count_class_passes(monkeypatch):
    calls = []
    original = evaluator.class_polynomials

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluator, "class_polynomials", counted)
    return calls


@pytest.mark.parametrize("what", ["oracle", "norm"])
def test_check_makes_one_class_pass(tmp_path, capsys, monkeypatch, what):
    conf = _write_config(tmp_path, chain={"n": 3, "omega": 3.7, "j0": 1,
                                          "separation": 1}, horizon=6.0)
    calls = _count_class_passes(monkeypatch)
    assert cli.main(["check", "--what", what, conf]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n, initial", [
    (3, {"kind": "excited_qubit", "qubit": 0}),
    (4, {"kind": "pulse", "sigma": 0.7, "x0": 0.5, "direction": "left"})])
def test_check_causality_makes_one_class_pass(tmp_path, capsys, monkeypatch,
                                              n, initial):
    conf = _write_config(tmp_path, chain={"n": n, "omega": 3.7, "j0": 1,
                                          "separation": 1}, horizon=6.0,
                         initial=initial)
    # the report as one probe, and one class pass, per qubit prints it
    cfg, init, _, _ = cli.load_config(conf)
    details = {f"e:{q}": evaluator.causality_probe(cfg, init, q)
               for q in range(n) if q != initial.get("qubit")}
    worst = max((0.0, *details.values()))
    want = json.dumps({"pass": worst == 0.0, "max_inside_cone": worst,
                       "details": details}) + "\n"
    calls = _count_class_passes(monkeypatch)
    assert cli.main(["check", "--what", "causality", conf]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == want


def test_simulate_makes_one_class_pass(tmp_path, monkeypatch):
    conf = _write_config(tmp_path, chain={"n": 3, "omega": 3.7, "j0": 1,
                                          "separation": 1}, horizon=6.0)
    calls = _count_class_passes(monkeypatch)
    for observables, header in [
            ("e:2,e:0", "t,e:2.re,e:2.im,e:2.abs2,e:0.re,e:0.im,e:0.abs2"),
            ("e:0,field", "t,e:0.re,e:0.im,e:0.abs2")]:
        calls.clear()
        assert cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                         "--observables", observables]) == 0
        assert len(calls) == 1
        assert (tmp_path / "o.csv").read_text().splitlines()[0] == header


@pytest.mark.parametrize("initial", [
    {"kind": "excited_qubit", "qubit": 1},
    {"kind": "pulse", "sigma": 0.7, "x0": 0.5, "direction": "right"},
    {"kind": "pulse", "sigma": 1.0, "x0": 0.5, "direction": "left"}])
def test_commands_need_no_partial_fractions(tmp_path, capsys, monkeypatch,
                                            initial):
    def refuse(f):
        raise AssertionError("partial fractions on the runtime path")

    monkeypatch.setattr(momentum, "partial_fractions", refuse)
    conf = _write_config(tmp_path, chain={"n": 3, "omega": 3.7, "j0": 1,
                                          "separation": 1}, horizon=4.0,
                         initial=initial)
    assert cli.main(["simulate", conf, "--out", str(tmp_path / "o.csv"),
                     "--observables", "e:0,e:2,field"]) == 0
    for what in ("oracle", "norm", "causality"):
        assert cli.main(["check", "--what", what, conf]) == 0


def test_fermi_demo_outputs(tmp_path):
    out = tmp_path / "demo"
    rc = cli.main(["fermi-demo", "--L", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "e1_L2.csv").exists()
    snaps = sorted(p.name for p in out.glob("field_L2_*.csv"))
    assert len(snaps) == 3
    data = np.loadtxt(str(out / "e1_L2.csv"), delimiter=",", skiprows=1)
    assert data.shape == (2001, 5)
    # no re-excitation before the first round trip reaches the partner
    assert np.all(data[data[:, 0] < 2.0, 3] == 0.0)


@pytest.mark.parametrize("L", ["5", "2", "0.3"])
def test_fermi_demo_snapshots_are_the_full_state_fields(tmp_path, L):
    out = tmp_path / "demo"
    assert cli.main(["fermi-demo", "--L", L, "--omega", "37.5",
                     "--out", str(out)]) == 0
    sep = float(L)
    xs = np.linspace(-sep / 2, sep / 2, 401)
    for t_snap in (0.5 * sep, 1.5 * sep, 2.5 * sep):
        state = fermi.fermi_full_state(t_snap, xs, 1.0, 37.5, sep)
        want = tmp_path / "want.csv"
        cli.write_csv(str(want),
                      ["x", "psi_Ri.re", "psi_Ri.im", "psi_Li.re", "psi_Li.im"],
                      [xs, state["psi_Ri"].real, state["psi_Ri"].imag,
                       state["psi_Li"].real, state["psi_Li"].imag])
        got = out / f"field_L{L}_t{t_snap:g}.csv"
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("L", ["5", "2", "0.3"])
def test_fermi_demo_e1_is_the_series(tmp_path, L):
    out = tmp_path / "demo"
    assert cli.main(["fermi-demo", "--L", L, "--omega", "37.5",
                     "--out", str(out)]) == 0
    sep = float(L)
    ts = np.linspace(0.0, 8 * sep, 2001, endpoint=False)
    e1 = fermi.fermi_e1(ts, 1.0, 37.5, sep)
    mk = fermi.markovian_e1(ts, 2.0, 37.5 * sep, 37.5)
    want = tmp_path / "want.csv"
    cli.write_csv(str(want), ["t", "e1.re", "e1.im", "e1.abs2", "markov.abs2"],
                  [ts, e1.real, e1.imag, np.abs(e1) ** 2, np.abs(mk) ** 2])
    assert (out / f"e1_L{L}.csv").read_bytes() == want.read_bytes()


def test_fermi_demo_bad_separation_exits_2(tmp_path):
    rc = cli.main(["fermi-demo", "--L", "1.7", "--out", str(tmp_path / "d")])
    assert rc == 2
