"""``cli.write_csv`` writes the bytes of the ``'%.17g'`` row loop.

The loop below is the reference: the formatter that ``write_csv`` used
before the numpy one, kept here only to compare against.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import _csvformat, cli


def reference_csv(header, columns) -> bytes:
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = np.column_stack(columns).tolist()
    text = ",".join(header) + "\n" + "".join(row % tuple(r) for r in rows)
    return text.encode()


def _assert_same_bytes(tmp_path, columns):
    header = [f"c{k}" for k in range(len(columns))]
    out = tmp_path / "t.csv"
    cli.write_csv(str(out), header, columns)
    got, want = out.read_bytes(), reference_csv(header, columns)
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines())
               if g != w]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[:3]}")


def _below(x: float) -> float:
    return math.nextafter(x, 0.0)


def _above(x: float) -> float:
    return math.nextafter(x, math.inf)


def _largest_double_below_power(k: int) -> float:
    b = float(10 ** k) if k >= 0 else 1 / 10 ** -k
    num, den = b.as_integer_ratio()
    exact_num, exact_den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    return _below(b) if num * exact_den >= exact_num * den else b


def _edge_values() -> list[float]:
    smallest_normal = 2.2250738585072014e-308
    v = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
         -5e-324, _below(smallest_normal), smallest_normal,
         1.7976931348623157e308, -1.7976931348623157e308,
         1e-4, _below(1e-4), _above(1e-4), 9.9999999999999991e-05,
         1e16, _below(1e16), _above(1e16), 1e17, _below(1e17), _above(1e17),
         0.5, 1.5, 2.5, 1.0, 0.1, 1 / 3, 2 / 3]
    # the largest double below 10**k prints as 1e{k} for 14 of these k:
    # its 17 digits round up to 10**17
    v += [_largest_double_below_power(k) for k in range(-323, 309)]
    v += [s * float(f"{m}e{k}") for k in range(-300, 301) for m in (1, 5)
          for s in (1, -1)]
    # integers above 2**53 and exact 17-digit ties (half to even)
    v += [2.0 ** 53 + 2, 2.0 ** 60 + 2.0 ** 8, 2.0 ** 63, 2.0 ** 64,
          1e17 + 16, 123456789012345678.0, 1e15 + 0.25, 1e15 + 0.75,
          -(1e15 + 0.25), 4503599627370497.5]
    v += [float(2 ** 53 + 2 * k) for k in range(1, 50)]
    # the ends of the fast path's exponent range
    for x in (_csvformat._X_LO - 1, _csvformat._X_LO, _csvformat._X_HI,
              _csvformat._X_HI + 1):
        p = float(f"1e{x}")
        v += [p, _below(p), _above(p), 9.87654321e-1 * p, 5 * p, -p]
    # six-decimal values, as a grid or a pulse width writes them
    v += [k / 1e6 for k in range(-1000, 1000, 7)]
    return v


def test_edge_values_match_reference(tmp_path):
    vals = np.array(_edge_values())
    _assert_same_bytes(tmp_path, [vals])
    _assert_same_bytes(tmp_path, [vals, -vals[::-1], vals / 3])


def _near_ties() -> list[float]:
    """Doubles x = a / 2**(s + e) whose 17-digit scaling y = x * 10**s has
    a fraction within 3 / 2**e of 1/2: a * 5**s = 2**(e-1) + delta mod
    2**e, solved for the 53-bit mantissa a."""
    out = []
    for s in range(1, 40):
        for e in range(40, 54):
            inverse = pow(5 ** s, -1, 2 ** e)
            for delta in (-3, -2, -1, 1, 2, 3):
                a = (2 ** (e - 1) + delta) * inverse % 2 ** e
                a += max(0, -(-(2 ** 52 - a) // 2 ** e)) * 2 ** e   # >= 2**52
                y2e = a * 5 ** s                 # y * 2**e
                if a < 2 ** 53 and 10 ** 16 << e <= y2e < 10 ** 17 << e:
                    out.append(math.ldexp(a, -(s + e)))
    return out


def test_near_ties_match_reference(tmp_path):
    """Within the guard band of 1/2 the double-double digits may round
    the wrong way; these values must go through '%.17g'."""
    vals = np.array(_near_ties())
    assert len(vals) > 100
    _assert_same_bytes(tmp_path, [vals, -vals])


def test_raw_bit_patterns_match_reference(tmp_path):
    bits = np.random.default_rng(20260).integers(
        0, 2 ** 64, size=2000, dtype=np.uint64, endpoint=False)
    vals = bits.view(np.float64)
    _assert_same_bytes(tmp_path, [vals])
    _assert_same_bytes(tmp_path, list(vals.reshape(4, 500)))


def test_blocks_and_row_ends(tmp_path):
    """Tables longer than a block and rows wider than one."""
    rng = np.random.default_rng(7)
    for rows, cols in ((1, 1), (1, 3000), (4097, 1), (3001, 3), (700, 7)):
        table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
            -30, 30, (rows, cols))
        _assert_same_bytes(tmp_path, list(table.T))


def test_zero_rows_writes_the_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    cli.write_csv(str(out), ["t", "e:0.re"], [np.array([]), np.array([])])
    assert out.read_bytes() == b"t,e:0.re\n"


_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                         | _bits, min_size=3, max_size=3),
                min_size=1, max_size=40))
def test_any_floats_match_reference(tmp_path_factory, rows):
    table = np.array(rows, dtype=np.float64)
    _assert_same_bytes(tmp_path_factory.mktemp("h"), list(table.T))


def _chain_config(tmp_path, n, initial):
    horizon = 4.0 if initial["kind"] == "excited_qubit" else 2.5
    conf = {"chain": {"n": n, "omega": 37.5, "j0": 1.0, "separation": 1.0},
            "initial": initial, "horizon": horizon,
            "grid": {"t_points": 96, "x_points": 161}}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    return str(path)


@pytest.fixture
def recorded(monkeypatch):
    """Every (path, header, columns) that write_csv is called with."""
    calls, write = [], cli.write_csv

    def record(path, header, columns):
        calls.append((path, list(header), [np.array(c) for c in columns]))
        write(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", record)
    return calls


def _assert_files_match_reference(calls):
    assert calls
    for path, header, columns in calls:
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(header, columns), path


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("initial", [
    {"kind": "excited_qubit", "qubit": 1},
    {"kind": "pulse", "sigma": 0.7, "x0": 0.5, "direction": "right"}])
def test_simulate_files_match_reference(tmp_path, recorded, n, initial):
    conf = _chain_config(tmp_path, n, initial)
    obs = ",".join(f"e:{q}" for q in range(n)) + ",field"
    assert cli.main(["simulate", conf, "--out", str(tmp_path / "run.csv"),
                     "--observables", obs]) == 0
    assert len(recorded) == 2
    _assert_files_match_reference(recorded)


@pytest.mark.parametrize("L", ["5", "2", "0.3"])
def test_fermi_demo_files_match_reference(tmp_path, recorded, L):
    assert cli.main(["fermi-demo", "--L", L, "--omega", "37.5",
                     "--out", str(tmp_path / "demo")]) == 0
    assert len(recorded) == 4
    _assert_files_match_reference(recorded)
