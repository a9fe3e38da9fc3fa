"""wqed benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload amplitudes --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare BEFORE.json AFTER.json

Run from the repository root. The benchmark imports wqed from ``src/``,
builds the workload's op list from the seed, and then

1. times set-up (import, input generation, config files) in fresh child
   processes and reports the median;
2. runs a verification pass: every op once, each answer checked against
   an independent reference (outside the op's timing), sampled output
   values recorded as the op's fingerprint;
3. keeps running the same ops in the same order, one after the other on
   one thread, until the ops have run for ``--seconds`` seconds, counting
   the verification pass; every run must reproduce the verification
   fingerprint. An op's latency is the mean of its timed runs, which are
   spread over the whole run.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` it
runs whole passes in which every op runs untraced and then traced, and
prints the per-layer metrics.
The last stdout line is one JSON object; the full result, fingerprints
included, goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5          # fresh interpreters per batch; three batches a run


def _import_wqed():
    """Import wqed from this checkout's src/ or exit non-zero."""
    src = ROOT / "src"
    if not (src / "wqed" / "__init__.py").is_file():
        sys.exit(f"error: no wqed sources under {src}")
    sys.path.insert(0, str(src))
    import wqed
    if Path(wqed.__file__).resolve().parent != (src / "wqed").resolve():
        sys.exit(f"error: wqed imported from {wqed.__file__}, not {src}")


def _setup(workload: str, seed: int, work: Path):
    """Everything that happens before the first op is ready."""
    _import_wqed()
    import execute
    bench = execute.Bench(workload, seed, work)
    bench.prepare()
    return bench


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES
                  ) -> list[float]:
    """Wall times from spawning a fresh interpreter to a ready bench."""
    times = []
    for k in range(probes):
        work = OUT / f"probe-{os.getpid()}-{k}"
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--setup-probe", str(work),
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe failed with code {proc.returncode}")
        times.append(elapsed)
    return times


def _attempt(bench, i, tracer=None):
    """Run op i once: (latency, fingerprint or None if it failed).

    Any exception is a failed op here; the verification pass has already
    recorded what it was.
    """
    if tracer is not None:
        tracer.current_op = i
        root = tracer.begin("op")
    t0 = time.perf_counter()
    try:
        raw = bench.execute(i)
    except Exception:
        raw = None
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(root)
    answered = raw is not None and bench.answered(i, raw)
    return elapsed, (bench.fingerprint(i, raw) if answered else None)


def run_pass(bench, tracer=None):
    """One closed-loop pass over all ops: {"plain": (latencies, fingerprints)}.

    With a tracer every op runs twice in a row, untraced and then traced,
    so the tracing overhead is measured under the same machine load; the
    traced run is returned under "traced".
    """
    out = {"plain": ([], [])}
    if tracer is not None:
        out["traced"] = ([], [])
    for i in range(len(bench.ops)):
        t, fp = _attempt(bench, i)
        out["plain"][0].append(t)
        out["plain"][1].append(fp)
        if tracer is not None:
            tracer.install()
            try:
                t, fp = _attempt(bench, i, tracer)
            finally:
                tracer.uninstall()
            out["traced"][0].append(t)
            out["traced"][1].append(fp)
    return out


def verify_pass(bench, wqed_error, mismatch):
    """First pass: status, fingerprint and latency of every op.

    Answers are checked when their scenario's ops are done, latest horizon
    first, so each scenario needs one reference integration. Only the ops
    are timed, not the checks, so the latencies count as a timed pass.
    """
    n = len(bench.ops)
    status, prints, pending = [None] * n, [None] * n, []
    latencies = [0.0] * n
    for i in range(n):
        t0 = time.perf_counter()
        try:
            try:
                raw = bench.execute(i)
            finally:
                latencies[i] = time.perf_counter() - t0
            if bench.answered(i, raw):
                prints[i] = bench.fingerprint(i, raw)
                pending.append((i, raw))
            else:
                status[i] = f"refused: exit code {raw[0]}: {raw[2]}"
        except wqed_error as exc:
            status[i] = f"refused: {type(exc).__name__}: {exc}"
        except Exception as exc:    # a crash is a wrong answer, not a refusal
            status[i] = f"error: {type(exc).__name__}: {exc}"
        scn = bench.ops[i]["scenario"]
        if i + 1 < n and bench.ops[i + 1]["scenario"] == scn:
            continue
        for j, raw in sorted(pending, key=lambda p: -bench.horizon(p[0])):
            try:
                bench.check(j, raw)
                status[j] = "ok"
            except mismatch as exc:
                status[j] = f"mismatch: {exc}"
            except Exception as exc:
                status[j] = f"error: {type(exc).__name__}: {exc}"
        pending = []
    return status, prints, latencies


def run(args) -> dict:
    t_start = time.perf_counter()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    bench = _setup(args.workload, args.seed, work)
    import wqed.errors
    import execute
    import tracing
    err, mismatch = wqed.errors.WqedError, execute.Mismatch
    # set-up is probed in batches spread over the run, so that its median
    # covers the same stretch of machine time as the timed runs
    setup_times = []

    def probe_setup():
        if not args.trace:
            setup_times.extend(measure_setup(args.workload, args.seed))

    try:
        probe_setup()
        status, reference, first = verify_pass(bench, err, mismatch)
        probe_setup()
        nops = len(bench.ops)
        runs = [[t] for t in first]     # timed runs of each op
        spent = sum(first)
        deterministic = True
        tracer = tracing.Tracer() if args.trace else None
        traced, spans = [], []
        if tracer is None:
            # round robin from where the verification pass ended, stopping
            # as soon as the ops have run for --seconds
            i = 0
            while spent < args.seconds:
                t, fp = _attempt(bench, i)
                runs[i].append(t)
                spent += t
                deterministic = deterministic and fp == reference[i]
                i = (i + 1) % nops
        else:
            # whole passes, so that every layer's self time is per pass
            while spent < args.seconds or not traced:
                tracer.counters.clear()
                lo = tracer.mark()
                outcome = run_pass(bench, tracer)
                for i, t in enumerate(outcome["plain"][0]):
                    runs[i].append(t)
                traced.append(outcome["traced"][0])
                spans.append((lo, tracer.mark(), dict(tracer.counters)))
                deterministic = deterministic and all(
                    prints == reference for _, prints in outcome.values())
                spent += sum(sum(lat) for lat, _ in outcome.values())
        probe_setup()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ops = sum(1 for st in status if st != "ok")
    wrong = [i for i, st in enumerate(status) if st.startswith(("mismatch", "error"))]
    latency = [statistics.fmean(r) for r in runs]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": nops, "runs_per_op": [min(map(len, runs)), max(map(len, runs))],
        "traced_passes": len(traced),
        "correct": not wrong and deterministic,
        "deterministic": deterministic,
        "attempted": nops,
        "failed": failed_ops,
        "status": status,
        "latency_s": latency,
        "runs_s": runs,
        "fingerprints": reference,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": sum(latency), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latency), "unit": "s"},
            "op_p90_s": {"value": statistics.quantiles(
                latency, n=10, method="inclusive")[-1], "unit": "s"},
            "ok_ratio": {"value": 1.0 - failed_ops / nops, "unit": "1"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    else:
        per_pass = [tracer.self_times(lo, hi) for lo, hi, _ in spans]
        self_s = {name: statistics.median(p.get(name, 0.0) for p in per_pass)
                  for name in tracing.SELF_TIME_SPANS}
        plain = sum(sum(r[1:]) for r in runs)
        overhead = sum(map(sum, traced)) / plain
        result["metrics"] = tracing.layer_metrics(self_s, spans[0][2],
                                                tracer.absent, overhead)
        result["absent_targets"] = tracer.missing_targets
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-s{args.seed}.npz")
    result["wall_s"] = time.perf_counter() - t_start
    return result


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def compare(paths: list[str]) -> dict:
    """Largest absolute fingerprint difference per workload between two
    result files (or two directories of them), matched by workload and seed."""
    def load(p):
        p = Path(p)
        files = sorted(p.glob("result-*.json")) if p.is_dir() else [p]
        return {(r["workload"], r["seed"]): r
                for r in (json.loads(f.read_text()) for f in files)}
    a, b = load(paths[0]), load(paths[1])
    report = {}
    for key in sorted(set(a) & set(b)):
        diff, only_one = 0.0, 0
        for fa, fb in zip(a[key]["fingerprints"], b[key]["fingerprints"]):
            if (fa is None) != (fb is None) or (fa and len(fa) != len(fb)):
                only_one += 1
            elif fa:
                diff = max(diff, max(abs(x - y) for x, y in zip(fa, fb)))
        wl_report = report.setdefault(key[0], {"max_abs_diff": 0.0,
                                               "answered_in_one_only": 0,
                                               "seeds": []})
        wl_report["max_abs_diff"] = max(wl_report["max_abs_diff"], diff)
        wl_report["answered_in_one_only"] += only_one
        wl_report["seeds"].append(key[1])
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default .bench_out/result-*.json)")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        print(json.dumps(compare(args.compare), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        _setup(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    result = run(args)
    out = Path(args.out) if args.out else (
        OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result))
    refused = sum(1 for st in result["status"] if st.startswith("refused"))
    lo, hi = result["runs_per_op"]
    print(f"# {args.workload} seed={args.seed}: {result['ops']} ops, "
          f"{lo}-{hi} timed runs each, {result['traced_passes']} traced "
          f"passes, {refused} refused, correct={result['correct']}, "
          f"result in {out}")
    for i, st in enumerate(result["status"]):
        if st.startswith(("mismatch", "error")):
            print(f"# op {i}: {st}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
