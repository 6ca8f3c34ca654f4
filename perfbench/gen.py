"""Input generator: a prices CSV whose features land exactly on seeded targets.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes DIR/prices.csv (the program's only data input) and DIR/targets.csv
(ticker, volatility, return, blob; kept from the program and read by the
checks). Targets are Gaussian blob points; each price path is built by the
inverse-feature method: daily return draws are standardized to sample mean 0
and ddof-1 std 1, then scaled, so the annualized features of the path equal
the target up to float rounding through exp and log.

This runs in its own process so none of its memory or time reaches the
measured program. It does not import tscnet.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import BLOB_CENTERS, BLOB_RADIUS, BLOB_SIGMA, WORKLOADS  # noqa: E402

TRADING_DAYS = 252
START = dt.date(2019, 1, 2)


def blob_targets(rng: np.random.Generator, n: int):
    """(points (n, 2), blob id per point); blobs as equal as n allows, ids shuffled."""
    k = len(BLOB_CENTERS)
    blob = rng.permutation(np.arange(n) % k)
    centers = np.array(BLOB_CENTERS)
    offsets = rng.standard_normal((n, 2))
    # redraw any offset outside the truncation radius
    while True:
        far = np.hypot(offsets[:, 0], offsets[:, 1]) > BLOB_RADIUS
        if not far.any():
            break
        offsets[far] = rng.standard_normal((int(far.sum()), 2))
    return centers[blob] + BLOB_SIGMA * offsets, blob


def price_paths(rng: np.random.Generator, points: np.ndarray, n_returns: int) -> np.ndarray:
    """(n, n_returns + 1) price paths realizing each (volatility, return) row."""
    z = rng.standard_normal((len(points), n_returns))
    z -= z.mean(axis=1, keepdims=True)
    z /= z.std(axis=1, ddof=1, keepdims=True)
    mu = points[:, 1:2] / TRADING_DAYS
    sigma = points[:, 0:1] / np.sqrt(TRADING_DAYS)
    r = mu + sigma * z
    log_p = np.concatenate([np.zeros((len(points), 1)), np.cumsum(r, axis=1)], axis=1)
    return 100.0 * np.exp(log_p)


def generate(workload: str, seed: int, out: Path) -> None:
    w = WORKLOADS[workload]
    rng = np.random.default_rng([seed, w.tickers, w.returns])
    points, blob = blob_targets(rng, w.tickers)
    prices = price_paths(rng, points, w.returns)
    tickers = [f"T{i:05d}" for i in range(w.tickers)]
    days = [(START + dt.timedelta(days=d)).isoformat() for d in range(w.returns + 1)]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "prices.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ticker,date,adj_close\n")
        for ticker, path in zip(tickers, prices.tolist()):
            fh.write("".join(f"{ticker},{d},{p!r}\n" for d, p in zip(days, path)))
    with open(out / "targets.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ticker,volatility,return,blob\n")
        for ticker, (vol, ret), b in zip(tickers, points.tolist(), blob.tolist()):
            fh.write(f"{ticker},{vol!r},{ret!r},{b}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
