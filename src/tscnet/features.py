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

import math

import numpy as np

from .errors import NonPositivePrice, TooShort

TRADING_DAYS = 252


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


def annualize(ticker: str, returns, trading_days: int = TRADING_DAYS) -> tuple[float, float]:
    """Annualized (volatility, ret) from one ticker's daily log returns."""
    v = np.asarray(returns, dtype=float)
    if v.size < 2:
        raise TooShort(f"{ticker}: need at least 2 returns, got {v.size}")
    vol = sample_std(v) * math.sqrt(trading_days)
    ret = float(np.mean(v)) * trading_days
    return vol, ret


def build_feature_table(
    closes: dict[str, np.ndarray], trading_days: int = TRADING_DAYS
) -> tuple[tuple[str, ...], np.ndarray]:
    """(tickers, features): row i of the (n, 2) float64 array ``features`` is
    the (volatility, ret) pair of ``tickers[i]``, in the order of ``closes``.

    Every series needs at least 3 closes (two returns); ingest drops shorter
    ones, and a shorter one here raises TooShort naming its ticker.
    """
    pairs = [annualize(ticker, log_returns(c), trading_days) for ticker, c in closes.items()]
    return tuple(closes), np.array(pairs, dtype=float).reshape(-1, 2)
