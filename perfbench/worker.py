"""The workload's own process: timed `tscnet run` + `tscnet report` operations.

Usage (started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --data DIR --work DIR

Imports tscnet from the checkout's ``src`` and calls the CLI entry point in
process, so each `run` and `report` is timed without interpreter start-up.
One untimed warm-up operation comes first. Then whole rounds run until
``--seconds`` have passed and at least two operations have run: with
``--trace 0`` a round is one operation; with ``--trace 1`` it is one
untraced and one traced operation, so tracing overhead can be measured. Every operation writes a
fresh bundle under ``--work``; run.py checks them after this process has
exited. Results go to ``--work``/result.json.

``setup_s`` is the wall time of a fresh ``python -m tscnet --help`` process.
A few are launched after the warm-up and after every round, so the samples
spread over the whole run like the operations do.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tscnet  # noqa: E402
from tscnet import cli  # noqa: E402
from tracer import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 2
SETUP_PER_ROUND = 3
REPORT_REPEATS = 15  # `report` calls after each untraced operation of a traced run


def _call(argv: list[str]) -> tuple[float, int, str]:
    """Wall time, exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def cold_starts(cwd: Path) -> list[float]:
    """Wall times of fresh CLI processes; PYTHONPATH is set by run.py.

    No timeout here: a wait with a timeout polls in sleeps of up to 50 ms,
    which would round every sample up to the next poll.
    """
    times = []
    for _ in range(SETUP_PER_ROUND):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tscnet", "--help"], cwd=cwd, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def operation(op_dir: Path, config: str, reports: int) -> dict:
    """`run` into a new output directory, then `report` ``reports`` times."""
    op_dir.mkdir(parents=True)
    cfg = op_dir / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    result = {"dir": str(op_dir), "error": None, "report_s": []}
    try:
        result["run_s"], code, stdout = _call(["run", str(cfg)])
        (op_dir / "run.stdout").write_text(stdout, encoding="utf-8")
        if code != 0:
            result["error"] = f"run exited {code}"
            return result
        for _ in range(reports):
            seconds, code, _ = _call(["report", "--out-dir", str(op_dir / "out")])
            if code != 0:
                result["error"] = f"report exited {code}"
                return result
            result["report_s"].append(seconds)
    except Exception:  # a crashing operation is counted as failed; the run goes on
        result["error"] = traceback.format_exc(limit=-3)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    config = w.config_text(str(args.data.resolve() / "prices.csv"), "out", args.seed)
    recorder = Recorder()

    def op(n: int, traced: bool) -> dict:
        # the untraced operations of a traced run repeat `report` for cli.report_s
        reports = REPORT_REPEATS if args.trace and not traced else 1
        if traced:
            recorder.op = n
            recorder.install(tscnet)
        try:
            result = operation(args.work / f"op{n:03d}", config, reports)
        finally:
            recorder.uninstall()
        return {**result, "n": n, "traced": traced}

    warmup = op(0, False)
    setup = [] if args.trace else cold_starts(args.work)
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < args.seconds:
        ops.append(op(len(ops) + 1, False))
        if args.trace:
            ops.append(op(len(ops) + 1, True))
        else:
            setup += cold_starts(args.work)
        if len(ops) == MIN_OPS:
            # read after a fixed amount of work: the peak creeps up by about
            # 1 MB per further operation, and their number depends on speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "warmup_error": warmup["error"],
        "ops": ops,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
    }
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    if args.trace:
        (args.work / "trace.json").write_text(json.dumps(recorder.dump()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
