import json

import jsonschema
import numpy as np
import pytest

from wqed import cli, diagrams


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


def test_check_causality_passes(tmp_path, capsys):
    conf = _write_config(tmp_path)
    rc = cli.main(["check", "--what", "causality", conf])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["pass"] is True
    assert report["max_inside_cone"] == 0.0


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


def test_fermi_demo_bad_separation_exits_2(tmp_path):
    rc = cli.main(["fermi-demo", "--L", "1.7", "--out", str(tmp_path / "d")])
    assert rc == 2
