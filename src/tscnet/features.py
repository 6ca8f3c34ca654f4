"""Volatility and return features for price series.

Per ticker, the daily log return is

    r_t = ln(C_t / C_{t-1})

and the feature pair is the annualized sample statistics of those returns:

    volatility = sample_std(r) * sqrt(trading_days)
    ret        = mean(r) * trading_days

with 252 trading days by default. sample_std is Bessel-corrected
(divide by T - 1). Prices are never scaled or normalized before clustering;
the raw <volatility, ret> pair is the clustering space.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NonPositivePrice, TooShort, reading_utf8
from .ingest import PriceTable

TRADING_DAYS = 252

LABELS_HEADER = ["ticker", "volatility", "return", "cluster"]


@dataclass(frozen=True)
class FeatureVector:
    """Annualized <volatility, ret> pair for one ticker."""

    ticker: str
    volatility: float
    ret: float


def log_returns(prices) -> np.ndarray:
    """Elementwise ln(prices[i+1] / prices[i]).

    Raises TooShort for fewer than 2 prices and NonPositivePrice if any
    price is <= 0.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise TooShort(f"need at least 2 prices, got {p.size}")
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise NonPositivePrice("prices must be finite and > 0")
    return np.log(p[1:] / p[:-1])


def sample_std(values) -> float:
    """Bessel-corrected standard deviation: sqrt(sum((x - mean)^2) / (T - 1))."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise TooShort(f"need at least 2 values, got {v.size}")
    return float(np.std(v, ddof=1))


def annualize(ticker: str, returns, trading_days: int = TRADING_DAYS) -> FeatureVector:
    """Annualized feature vector from one ticker's daily log returns."""
    v = np.asarray(returns, dtype=float)
    if v.size < 2:
        raise TooShort(f"{ticker}: need at least 2 returns, got {v.size}")
    vol = sample_std(v) * math.sqrt(trading_days)
    ret = float(np.mean(v)) * trading_days
    return FeatureVector(ticker, vol, ret)


def build_feature_table(
    table: PriceTable, trading_days: int = TRADING_DAYS
) -> tuple[list[FeatureVector], list[str]]:
    """One FeatureVector per ticker, in ticker order.

    Tickers too short to feature (cannot happen for a valid PriceTable, but
    guarded anyway) are excluded with a warning rather than failing the batch.
    """
    features = []
    warnings = []
    for series in table:
        try:
            features.append(annualize(series.ticker, log_returns(series.closes), trading_days))
        except TooShort as exc:
            warnings.append(f"{series.ticker}: excluded, {exc}")
    return features, warnings


def write_labels_csv(records, path) -> None:
    """Write labeled feature rows as ``ticker,volatility,return,cluster``.

    ``records`` is any iterable of objects with ticker/volatility/ret/cluster
    attributes. Floats carry 12 significant digits.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LABELS_HEADER) + "\n")
        for r in records:
            fh.write(f"{r.ticker},{r.volatility:.12g},{r.ret:.12g},{r.cluster}\n")


def read_labels_csv(path) -> list[tuple[str, float, float, int]]:
    """Read ``ticker,volatility,return,cluster`` rows back."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh, reading_utf8(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LABELS_HEADER:
            raise FormatError(f"{path}: bad header {header!r}, expected {LABELS_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise FormatError(f"{path} line {lineno}: expected 4 fields")
            try:
                out.append((row[0], float(row[1]), float(row[2]), int(row[3])))
            except ValueError as exc:
                raise FormatError(f"{path} line {lineno}: {exc}") from exc
    return out
