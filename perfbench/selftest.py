"""Self-test of the output checks: each must reject a bundle corrupted for it.

Usage, from the root of a checkout:
    python3 perfbench/selftest.py [--seed N]

Generates the `paper` inputs, runs `tscnet run` and `tscnet report` as
separate CLI processes, confirms that the pristine bundle passes every check,
then corrupts copies of it one way each and confirms that the named check
fails. Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_bundle, read_targets  # noqa: E402
from run import ROOT, child_env  # noqa: E402
from workloads import ACCURACY_FLOOR, BLOB_CENTERS, WORKLOADS  # noqa: E402


def flip_label(out: Path) -> None:
    path = out / "labels.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    ticker, vol, ret, cluster = lines[1].split(",")
    lines[1] = f"{ticker},{vol},{ret},{(int(cluster) + 1) % len(BLOB_CENTERS)}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def alter_manifest_byte(out: Path) -> None:
    path = out / "manifest.txt"
    text = path.read_text(encoding="utf-8")
    path.write_text(("0" if text[0] != "0" else "1") + text[1:], encoding="utf-8")


def change_silhouette(out: Path) -> None:
    # nudge the chosen k's score up, so it stays the argmax and only the
    # recomputed silhouette can tell
    path = out / "k_sweep.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    best = max(range(1, len(lines)), key=lambda i: float(lines[i].split(",")[1]))
    k, score = lines[best].split(",")
    lines[best] = f"{k},{float(score) + 1e-6:.12g}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CASES = (("flip one label", flip_label, "partition"),
         ("alter one manifest byte", alter_manifest_byte, "manifest"),
         ("change one silhouette", change_silhouette, "silhouette"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    w = WORKLOADS["paper"]
    work = ROOT / ".bench_work" / f"selftest-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "data"
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", w.name,
                        "--seed", str(args.seed), "--out", str(data)], check=True)
        cfg = work / "run.cfg"
        cfg.write_text(w.config_text(str(data / "prices.csv"), "out", args.seed), encoding="utf-8")
        tscnet = [sys.executable, "-m", "tscnet"]
        stdout = subprocess.run(tscnet + ["run", str(cfg)], env=child_env(), check=True,
                                capture_output=True, text=True).stdout
        subprocess.run(tscnet + ["report", "--out-dir", str(work / "out")], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
        targets = read_targets(data / "targets.csv")

        def failed_checks(out: Path) -> set[str]:
            return {name for name, _ in check_bundle(out, stdout, targets, len(BLOB_CENTERS), True, ACCURACY_FLOOR)}

        pristine = failed_checks(work / "out")
        print(f"pristine bundle: {'PASS' if not pristine else 'FAIL'} (failed checks: {sorted(pristine)})")
        ok = not pristine
        for label, corrupt, expected in CASES:
            copy = work / label.replace(" ", "_")
            shutil.copytree(work / "out", copy)
            corrupt(copy)
            failed = failed_checks(copy)
            passed = expected in failed
            ok = ok and passed
            print(f"{label}: {'PASS' if passed else 'FAIL'} (failed checks: {sorted(failed)})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
