"""Shared synthetic-data helpers.

The blob generator places four Gaussian clusters in ⟨volatility, return⟩
space with centers at least 10 sigma apart, so k-means has an unambiguous
ground truth. The price synthesizer inverts the feature computation: it
standardizes the daily return draws to sample mean 0 and sample std 1, so
the realized annualized features land exactly on the requested targets (up
to float rounding through exp/log).
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest

from tscnet.pipeline import Records
from tscnet.rng import Xorshift64Star, derive_seed

BLOB_CENTERS = ((0.15, 0.9), (0.22, 0.48), (0.31, -0.05), (0.47, 1.47))
BLOB_SIGMA = 0.04


def normal(rng: Xorshift64Star) -> float:
    """Standard normal via Box-Muller (two uniforms per call, no cache)."""
    u1 = rng.random()
    while u1 == 0.0:
        u1 = rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def widths(net) -> list[int]:
    """Input width, then each layer's output width."""
    return [net.input_width] + [layer.spec.output_width for layer in net.layers]


def parameter_counts(net) -> list[int]:
    """Trainable-parameter count per layer (weights plus biases)."""
    return [
        layer.spec.input_width * layer.spec.output_width + layer.spec.output_width
        for layer in net.layers
    ]


def relu_kink_margin(net, acts) -> float:
    """Smallest |z| over the relu layers' pre-activations, 1.0 with no relu layer.

    Each ``z = a_prev @ W.T + b`` is recomputed from the activation list of
    a forward pass, whose entry i is the input of layer i.
    """
    return min(
        (
            float(np.min(np.abs(a_prev @ layer.weights.T + layer.biases)))
            for a_prev, layer in zip(acts, net.layers)
            if layer.spec.activation == "relu"
        ),
        default=1.0,
    )


def records_of(rows) -> Records:
    """Records from (ticker, volatility, ret, cluster) tuples."""
    rows = list(rows)
    return Records(
        tuple(row[0] for row in rows),
        np.array([row[1:3] for row in rows], dtype=float).reshape(-1, 2),
        np.array([row[3] for row in rows], dtype=np.int64),
    )


def make_blob_points(seed: int, per_cluster=10, centers=BLOB_CENTERS, sigma=BLOB_SIGMA):
    """Gaussian blob sample: (points array, true cluster ids)."""
    gen = Xorshift64Star(derive_seed(seed, 0xB10B))
    counts = [per_cluster] * len(centers) if isinstance(per_cluster, int) else list(per_cluster)
    pts, truth = [], []
    for ci, ((cx, cy), m) in enumerate(zip(centers, counts)):
        for _ in range(m):
            pts.append((cx + sigma * normal(gen), cy + sigma * normal(gen)))
            truth.append(ci)
    return np.array(pts), truth


def standardized_draws(rng: Xorshift64Star, n: int) -> np.ndarray:
    """n normal draws rescaled to sample mean exactly 0 and ddof-1 std exactly 1."""
    z = np.array([normal(rng) for _ in range(n)])
    z = z - z.mean()
    return z / z.std(ddof=1)


def synth_prices(vol_ann: float, ret_ann: float, n_returns: int, rng: Xorshift64Star,
                 trading_days: int = 252, p0: float = 100.0) -> list[float]:
    """Price path whose annualized features equal (vol_ann, ret_ann) exactly."""
    mu = ret_ann / trading_days
    sigma = vol_ann / math.sqrt(trading_days)
    r = mu + sigma * standardized_draws(rng, n_returns)
    prices = p0 * np.exp(np.cumsum(np.concatenate([[0.0], r])))
    return [float(p) for p in prices]


def write_prices_csv(path, targets: list[tuple[str, float, float]], n_returns: int = 64,
                     seed: int = 11, start: dt.date = dt.date(2019, 1, 2)) -> None:
    """Write a ticker,date,adj_close CSV realizing the target features exactly.

    Volatility targets are floored at 0.02 so every path has positive spread.
    """
    lines = ["ticker,date,adj_close"]
    for i, (ticker, vol, ret) in enumerate(targets):
        rng = Xorshift64Star(derive_seed(seed, i))
        prices = synth_prices(max(abs(vol), 0.02), ret, n_returns, rng)
        for d, price in enumerate(prices):
            day = start + dt.timedelta(days=d)
            lines.append(f"{ticker},{day.isoformat()},{price!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def blob_targets(seed: int, counts=(18, 18, 17, 17)) -> list[tuple[str, float, float]]:
    """70 tickers (default) drawn from the four blobs, named T000..T069."""
    pts, _ = make_blob_points(seed, per_cluster=counts)
    return [(f"T{i:03d}", float(v), float(r)) for i, (v, r) in enumerate(pts)]


@pytest.fixture
def blob_prices_csv(tmp_path):
    """70-ticker synthetic prices CSV realizing the canonical blob layout."""
    path = tmp_path / "prices.csv"
    write_prices_csv(path, blob_targets(seed=5))
    return path
