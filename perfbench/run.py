"""tscnet benchmark: `tscnet run` then `tscnet report` on generated prices.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload paper|wide|long|all --seed N
        --seconds S --trace 0|1

Each run generates its inputs from the seed in a separate process, then
starts the workload's own process (worker.py), which times whole operations
for S seconds and the cold start of ``python -m tscnet`` between them. Every
operation's bundle is checked by checks.py once that process has ended. With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of traced
operations instead. Lines before it give each metric's sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_bundle, read_targets, stdout_value  # noqa: E402
from tracer import UNITS, layer_metrics, median_metrics  # noqa: E402
from workloads import ACCURACY_FLOOR, BLOB_CENTERS, WORKLOADS  # noqa: E402

CHILD_TIMEOUT = 170  # seconds; a run must end within 180


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread of control: no BLAS worker threads next to the interpreter
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str]) -> None:
    """Run a child to completion in its own process group.

    On timeout the whole group is killed, so the worker's own children end
    too, and the child is reaped before the error propagates.
    """
    with subprocess.Popen(argv, env=child_env(), start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    w = WORKLOADS[workload]
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "data"
        run_child([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                   "--seed", str(seed), "--out", str(data)])
        run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--data", str(data), "--work", str(work)])
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if result["warmup_error"]:
            print(f"{workload}: warm-up failed: {result['warmup_error']}", file=sys.stderr)

        targets = read_targets(data / "targets.csv")
        manifests = set()
        accuracies = []
        failed = 0
        for op in result["ops"]:
            out = Path(op["dir"]) / "out"
            if op["error"] is None:
                stdout = (Path(op["dir"]) / "run.stdout").read_text(encoding="utf-8")
                failures = check_bundle(out, stdout, targets, len(BLOB_CENTERS), w.k == "auto",
                                        ACCURACY_FLOOR)
                op["error"] = "; ".join(msg for _, msg in failures) or None
                accuracies.append(float(stdout_value(stdout, "accuracy")))
            if op["error"] is None:
                manifests.add((out / "manifest.txt").read_text(encoding="utf-8"))
                if len(manifests) > 1:
                    op["error"] = "manifest differs from an earlier operation of this run"
            if op["error"] is not None:
                failed += 1
                print(f"{workload}: operation {op['dir']} failed: {op['error']}", file=sys.stderr)
        ok_ops = [op for op in result["ops"] if op["error"] is None]
        if trace:
            trace_data = json.loads((work / "trace.json").read_text(encoding="utf-8"))
            shutil.copyfile(work / "trace.json", bench_dir / f"trace-{workload}-seed{seed}.json")
            metrics, counts = traced_metrics(w, ok_ops, trace_data)
        else:
            metrics, counts = end_to_end_metrics(ok_ops, result["setup_s"], result["peak_rss_mb"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} median={value:.6g} {unit} n={counts[name]}")
    attempted = len(result["ops"])
    digest = hashlib.sha256("".join(sorted(manifests)).encode()).hexdigest()[:16]
    print(f"{workload} operations attempted={attempted} failed={failed}"
          f" accuracy_min={min(accuracies, default=float('nan')):.4f} manifest={digest}")
    return {
        "correct": bool(ok_ops) and not result["warmup_error"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def end_to_end_metrics(ops: list[dict], setup: list[float], peak_rss_mb: float):
    run_s = [op["run_s"] for op in ops]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    counts = {"setup_s": len(setup), "run_s": len(run_s), "peak_rss_mb": 1}
    return metrics, counts


def traced_metrics(w, ops: list[dict], trace_data: dict):
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    per_op = [layer_metrics(trace_data, op["n"], w.price_rows, w.epochs) for op in traced]
    values = median_metrics(per_op)
    values["trace.overhead_s"] = (statistics.median(op["run_s"] for op in traced)
                                  - statistics.median(op["run_s"] for op in plain))
    report_s = [s for op in plain for s in op["report_s"]]
    values["cli.report_s"] = statistics.median(report_s)
    metrics = {name: (value, UNITS.get(name, "s")) for name, value in values.items()}
    counts = {name: len(traced) for name in values}
    counts["cli.report_s"] = len(report_s)
    return metrics, counts


def main() -> int:
    ap = argparse.ArgumentParser(description="tscnet run + report benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "tscnet" / "__init__.py").is_file():
        print(f"error: no tscnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(bench(name, args.seed, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
