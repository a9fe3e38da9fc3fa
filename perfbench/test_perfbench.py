"""Tests of the benchmark itself, on shrunken ladders so they run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import time

import numpy as np
import pytest

import run
import workloads

run._import_wqed()

import execute  # noqa: E402  (needs wqed on the path)
from wqed import cli  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def small_ladders(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "AMPLITUDE_LADDER",
                        ((2, (8,), (2,), 1), (3, (6,), (2,), 1)))
    monkeypatch.setattr(workloads, "FIELD_LADDER", ((2, (2, 4), (2,), 1),))
    monkeypatch.setattr(workloads, "VALIDATE_N", (2,))
    monkeypatch.setattr(workloads, "VALIDATE_HORIZONS", (2,))
    monkeypatch.setattr(workloads, "VALIDATE_PULSE_HORIZONS", (2,))
    monkeypatch.setattr(workloads, "VALIDATE_FERMI_REPEATS", 1)
    monkeypatch.setattr(run, "measure_setup", lambda *a: [0.5])


def _run(workload, seed, trace=0):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.01,
                              trace=trace)
    return run.run(args)


def _ladder(ops):
    """Op sizes with every seed-drawn number blanked out."""
    out = []
    for op in ops:
        op = dict(op)
        if "argv" in op:
            op["argv"] = [a for a in op["argv"] if not a[:1].isdigit()]
        out.append(op)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_same_ladder(workload):
    scn_a, ops_a = workloads.build(workload, 11)
    assert workloads.build(workload, 11) == (scn_a, ops_a)
    scn_b, ops_b = workloads.build(workload, 12)
    assert _ladder(ops_a) == _ladder(ops_b)
    assert [s["n"] for s in scn_a] == [s["n"] for s in scn_b]
    assert [s["init"]["kind"] for s in scn_a] == [s["init"]["kind"] for s in scn_b]
    assert [s["omega"] for s in scn_a] != [s["omega"] for s in scn_b]


def test_ladder_sizes_and_draw_ranges():
    scenarios, ops = workloads.build("amplitudes", 5)
    assert len(ops) >= 100
    for scn in scenarios:
        assert 10 <= scn["omega"] <= 200
        assert all(g % 1 == 0 and g > 0 for g in scn["gaps"])
        if scn["n"] > 2:
            assert sum(scn["gaps"]) == 8 * (scn["n"] - 1)
        if scn["init"]["kind"] == "pulse":
            sigma = scn["init"]["sigma"]
            assert 0.2 <= sigma <= 5 and not 0.8 < sigma < 1.25
            assert (scn["init"]["x0"] * 8) % 1 == 0
    assert any(scn["gaps"] != [8] * (scn["n"] - 1) for scn in scenarios)
    for workload in workloads.WORKLOADS:
        assert len(workloads.build(workload, 5)[1]) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_result(small_ladders, workload):
    a, b = _run(workload, 3, trace=1), _run(workload, 3, trace=1)
    assert a["correct"] and a["deterministic"]
    assert a["fingerprints"] == b["fingerprints"]
    assert a["status"] == b["status"]
    counts = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in b["metrics"].items()
                      if v["unit"] == "count"}


def test_traced_and_untraced_fingerprints_identical(small_ladders):
    untraced, traced = _run("amplitudes", 4, trace=0), _run("amplitudes", 4, trace=1)
    assert untraced["fingerprints"] == traced["fingerprints"]
    assert traced["deterministic"] and traced["traced_passes"] >= 1
    m = traced["metrics"]
    assert sum(v["value"] for k, v in m.items() if k.endswith(".self_s")) > 0
    assert m["oracle.integrate.self_s"]["value"] == 0   # checks run untraced
    assert set(untraced["metrics"]) == {"setup_s", "solve_s", "op_p50_s",
                                        "op_p90_s", "ok_ratio", "peak_rss_mb"}


def test_wrong_reference_is_counted_as_failure(small_ladders, monkeypatch):
    good = _run("amplitudes", 5)
    fermi = execute.fermi

    class OffByOne:
        fermi_e1 = staticmethod(lambda *a: fermi.fermi_e1(*a) + 1e-6)
        fermi_em1 = staticmethod(lambda *a: fermi.fermi_em1(*a) + 1e-6)

    monkeypatch.setattr(execute, "fermi", OffByOne)
    bad = _run("amplitudes", 5)
    mismatches = sum(st.startswith("mismatch") for st in bad["status"])
    assert mismatches > 0 and not bad["correct"]
    assert bad["failed"] == good["failed"] + mismatches
    assert bad["metrics"]["ok_ratio"]["value"] < good["metrics"]["ok_ratio"]["value"]


def test_failed_check_report_is_a_wrong_answer(small_ladders, monkeypatch):
    """`check` exits 3 both for a WqedError and for a report saying
    "pass": false; only the first is a refusal."""
    monkeypatch.setattr(cli, "_check_causality",
                        lambda cfg, init: {"pass": False, "max_inside_cone": 1.0})
    bad = _run("validate", 5)
    _, ops = workloads.build("validate", 5)
    causality = [st for op, st in zip(ops, bad["status"])
                 if op["argv"][1:3] == ["--what", "causality"]]
    assert causality and all(st.startswith("mismatch") for st in causality)
    assert not bad["correct"]


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    outer = tr.begin("outer")
    time.sleep(0.01)
    inner = tr.begin("inner")
    time.sleep(0.02)
    tr.end(inner)
    tr.end(outer)
    self_s = tr.self_times(0, tr.mark())
    assert self_s["inner"] >= 0.02
    assert self_s["outer"] >= 0.01
    outer_s = tr.t1[outer] - tr.t0[outer]
    inner_s = tr.t1[inner] - tr.t0[inner]
    assert abs(self_s["outer"] - (outer_s - inner_s)) < 1e-9


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("evaluator", "no_such_function", "evaluator.gone"),
        ("momentum", "no_such_function", "momentum.partial_fractions")))
    tr = tracing.Tracer()
    assert tr.absent == ["evaluator.gone"]
    assert tr.missing_targets == ["wqed.evaluator.no_such_function",
                                  "wqed.momentum.no_such_function"]
    tr.install()
    tr.uninstall()
    metrics = tracing.layer_metrics({}, {}, ["scattering.find_poles"], 1.0)
    assert metrics["scattering.find_poles.self_s"]["absent"] is True
    assert metrics["scattering.poles_found"]["absent"] is True
    assert "absent" not in metrics["cli.csv_rows"]


def test_compare_reports_largest_difference(tmp_path):
    base = {"workload": "amplitudes", "seed": 1,
            "fingerprints": [[1.0, 2.0], None, [3.0]]}
    other = dict(base, fingerprints=[[1.0, 2.5], [0.0], [3.0 + 1e-13]])
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(other))
    report = run.compare([str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert report["amplitudes"]["max_abs_diff"] == 0.5
    assert report["amplitudes"]["answered_in_one_only"] == 1


def test_fingerprint_samples_spread_over_output():
    vals = np.arange(100) * (1 + 1j)
    fp = execute._sample(vals)
    assert len(fp) == 2 * execute.FINGERPRINT_SAMPLES
    assert fp[:2] == [0.0, 0.0] and fp[-2:] == [99.0, 99.0]
