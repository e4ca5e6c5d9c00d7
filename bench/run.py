"""Benchmark of the prolate CLI: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload width-65536 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

A run measures ``setup_s`` (fresh interpreters importing ``prolate`` until
the CLI is ready), then runs the workload in one fresh child process
(``child.py``) as a closed loop of a single client, checks every op's output,
and prints one JSON object as its last line of standard output. With
``--trace 1`` the child wraps the layer modules (``tracing.py``) and the
metrics are per-layer figures per traced op. ``--smoke`` runs every workload
at a tiny size in both modes and checks that each metric is emitted with its
unit. The full record of a run (versions, machine, ops, checks) is written
under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 7
SETUP_CODE = "import sys; from prolate.cli import main; sys.exit(main(['--help']))"
CHILD_TIMEOUT_S = 150
P90_MIN_OPS = 100  # p90 is reported only with at least ten samples beyond it

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "spectrum.self_s": "s",
    "kernel.self_s": "s",
    "bounds.self_s": "s",
    "displacement.self_s": "s",
    "chebsinc.self_s": "s",
    "verification.self_s": "s",
    "spectrum.eigvecs.s": "s",
    "spectrum.eigvecs.vectors": "count",
    "spectrum.rayleigh.self_s": "s",
    "spectrum.bands.s": "s",
    "spectrum.dense.s": "s",
    "spectrum.window_rounds": "count",
    "spectrum.window_useful_frac": "frac",
    "kernel.toeplitz_matmat.s": "s",
    "kernel.toeplitz_matmat.columns": "count",
    "kernel.fft_bytes_computed": "B",
    "kernel.sinc_kernel.s": "s",
    "verification.spectrum.s": "s",
    "verification.bounds.s": "s",
    "verification.displacement.s": "s",
    "verification.chebsinc.s": "s",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_frac": "frac",
    "trace.covered_frac": "frac",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    """The child's environment: ``src`` importable, BLAS/OpenMP capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall seconds of fresh interpreters importing prolate and building the CLI."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                env=env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("prolate CLI took over 60 s to start") from exc
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"prolate CLI did not start:\n{proc.stderr[-2000:]}")
    return times


def run_child(env, workload, seed, seconds, trace, smoke, tag) -> dict:
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{tag}.child.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--record", str(record_path),
    ]  # fmt: skip
    if trace:  # spans of the latest traced run of each workload only: they are large
        cmd += ["--spans", str(OUT / f"{workload}{'-smoke' if smoke else ''}.spans.tsv")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload child failed:\n{proc.stderr[-4000:]}")
    with open(record_path) as fh:
        return json.load(fh)


def end_to_end(record: dict, setup_times: list[float]) -> dict:
    times = [op["seconds"] for op in record["ops"]]
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mib": record["peak_rss_kib"] / 1024.0,
    }


def per_layer(record: dict) -> dict:
    traced = [op for op in record["ops"] if op["traced"]]
    untraced = [op["seconds"] for op in record["ops"] if not op["traced"]]
    out = {
        name: statistics.fmean(op["layers"].get(name, 0.0) for op in traced)
        for name in PER_LAYER
        if not name.startswith(("trace.", "spectrum.window_"))
    }
    windows = [win for op in traced for win in op["layers"]["windows"]]  # [rounds, vectors, width]
    out["spectrum.window_rounds"] = statistics.fmean(w[0] for w in windows) if windows else 0.0
    vectors = sum(w[1] for w in windows)
    out["spectrum.window_useful_frac"] = sum(w[2] for w in windows) / vectors if vectors else 0.0
    traced_p50 = statistics.median(op["seconds"] for op in traced)
    out["trace.op_p50_s"] = traced_p50
    out["trace.untraced_op_p50_s"] = statistics.median(untraced)
    out["trace.overhead_frac"] = traced_p50 / statistics.median(untraced) - 1.0
    out["trace.covered_frac"] = statistics.fmean(
        sum(op["layers"][f"{layer}.self_s"] for layer in LAYERS) / op["seconds"]
        for op in traced
    )
    out["trace.spans"] = statistics.fmean(op["layers"]["spans"] for op in traced)
    return {name: out[name] for name in PER_LAYER}


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prolate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has no commit to name
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "machine": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """One benchmark run: (result object, run summary); also writes the run record."""
    if not (ROOT / "src" / "prolate" / "cli.py").is_file():
        raise BenchError(f"no prolate sources under {ROOT / 'src'}")
    env = child_env()
    setup_times = [] if trace else measure_setup(env)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    record = run_child(env, workload, seed, seconds, trace, smoke, tag)
    ops = record["ops"]
    problems = WORKLOADS[workload](seed, smoke=smoke).check(ops)
    for op, bad in zip(ops, problems):
        if op["rc"] != 0:
            bad.insert(0, f"exit code {op['rc']}" + (f"\n{op['error']}" if "error" in op else ""))
    failed = sum(1 for bad in problems if bad)
    if trace:
        values, units = per_layer(record), PER_LAYER
    else:
        values, units = end_to_end(record, setup_times), END_TO_END
    times = [op["seconds"] for op in ops]
    summary = {
        "workload": workload,
        "ops": len(ops),
        "ops_failed_frac": failed / len(ops),
        "op_p90_s": statistics.quantiles(times, n=10)[-1] if len(ops) >= P90_MIN_OPS else None,
        "setup_times_s": setup_times,
        "versions": {k: record[k] for k in ("python", "numpy", "scipy")},
        "env": environment(seed),
        "failures": [
            {"argv": op["argv"], "problems": bad} for op, bad in zip(ops, problems) if bad
        ],
        "op_seconds": times,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"result": result, "run": summary}, fh, indent=1)
    return result, summary


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced: each metric with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_once(workload, seed=1, seconds=1.0, trace=trace, smoke=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            wrong = sorted(m["name"] for m in declared[kind] if got.get(m["name"]) != m["unit"])
            passed = result["correct"] and not wrong
            ok = ok and passed
            print(
                f"smoke {workload} trace={trace}: {'ok' if passed else 'FAIL'} "
                f"({result['attempted']} ops, {result['failed']} failed"
                + (f", missing or wrong unit: {wrong})" if wrong else ")")
            )
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, summary = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops = {summary['ops']}, ops_failed_frac = {summary['ops_failed_frac']:g}"
          + (f", op_p90_s = {summary['op_p90_s']:.6g} s" if summary["op_p90_s"] else ""))
    print("env " + json.dumps({**summary["env"], **summary["versions"]}))
    for failure in summary["failures"][:5]:
        print(f"failed op {failure['argv']}: {failure['problems']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
