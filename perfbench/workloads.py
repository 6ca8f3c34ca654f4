"""Workload definitions shared by run.py, the input generator and the checks.

Each workload fixes an input make-up (ticker count, returns per ticker) and
a run config. The seed given on the command line moves every generated point
and price path but never the sizes, so the work per operation is the same
for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    tickers: int
    returns: int
    k: str  # "auto" or an integer as text, written verbatim into the config
    epochs: int
    batch_size: int

    @property
    def price_rows(self) -> int:
        return self.tickers * (self.returns + 1)

    def config_text(self, prices_path: str, out_dir: str, seed: int) -> str:
        lines = [
            f"prices_path = {prices_path}",
            f"out_dir = {out_dir}",
            f"k = {self.k}",
            "k_min = 2",
            "k_max = 10",
            f"seed = {seed}",
            f"epochs = {self.epochs}",
            f"batch_size = {self.batch_size}",
            "test_fraction = 0.33",
            "trading_days = 252",
        ]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's setup: one full batch per epoch, so training dominates
        Workload("paper", 500, 252, "auto", 1000, 1024),
        # stress scale: the silhouette sweep dominates; two minibatches per epoch
        Workload("wide", 3000, 252, "auto", 100, 1024),
        # five years of prices, fixed k: ingest and many small Adam steps
        Workload("long", 1000, 1260, "4", 200, 64),
    )
}

# Held-out accuracy every operation must exceed. A constant prediction scores
# about 0.25 on four equal blobs (at most about 0.31 on a 165-row test set).
# Training stalls on some seeds: near 0.7 on `paper` for about one seed in
# forty, and as low as 0.49 on `wide` (100 epochs), so a floor near 1 would
# fail those seeds.
ACCURACY_FLOOR = 0.35

# Four blobs in <volatility, return> space. The closest pair of centers is
# 0.426 apart, 10.6 sigma; points are drawn within 4 sigma of their center,
# so every point is strictly nearer its own blob's mean than any other.
BLOB_CENTERS = ((0.25, 0.90), (0.32, 0.48), (0.41, -0.05), (0.57, 1.47))
BLOB_SIGMA = 0.04
BLOB_RADIUS = 4.0  # in sigma
