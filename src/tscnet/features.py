"""Volatility and return features for price series.

Per ticker, the daily log return is

    r_t = ln(C_t / C_{t-1})

and the feature pair is the annualized sample statistics of those returns:

    volatility = std(r) * sqrt(trading_days)
    ret        = mean(r) * trading_days

with 252 trading days by default. std is the Bessel-corrected sample
standard deviation (divide by T - 1). Prices are never scaled or
normalized before clustering; the raw <volatility, ret> pair is the
clustering space.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import TRADING_DAYS, check_settings
from .errors import TscnetError
from .ingest import MIN_ROWS


def build_feature_table(
    closes: dict[str, np.ndarray], trading_days: int = TRADING_DAYS
) -> tuple[tuple[str, ...], np.ndarray]:
    """(tickers, features): row i of the (n, 2) float64 array ``features`` is
    the (volatility, ret) pair of ``tickers[i]``, in the order of ``closes``.

    Every series needs at least MIN_ROWS closes (two returns, for a sample
    std), all finite and above 0. Ingest drops or refuses any other; here
    one raises a TscnetError naming its ticker, as does a series whose
    features are not finite, such as one with consecutive closes further
    apart than the float range. ``trading_days`` must be >= 1 and convert
    to a float.
    """
    check_settings(trading_days=trading_days)
    scale = math.sqrt(trading_days)
    table = np.empty((len(closes), 2))
    # a ratio of closes past the float range gives a return that is not
    # finite, and so features that are not; they are refused below
    with np.errstate(all="ignore"):
        for row, (ticker, c) in zip(table, closes.items()):
            p = np.asarray(c, dtype=float)
            # a NaN close makes the minimum NaN, which is not > 0
            if p.ndim != 1 or p.size < MIN_ROWS or not (p.min() > 0 and p.max() < math.inf):
                raise TscnetError(f"{ticker}: need at least {MIN_ROWS} closes, all finite and > 0, got {p.size}")
            r = np.log(p[1:] / p[:-1])
            # np.mean(r) and np.std(r, ddof=1) with the same sums in the same
            # order, so the same bits, in fewer NumPy calls
            mean = r.sum() / len(r)
            dev = r - mean
            dev *= dev
            row[:] = vol, ret = math.sqrt(dev.sum() / (len(r) - 1)) * scale, mean * trading_days
            if not (math.isfinite(vol) and math.isfinite(ret)):
                raise TscnetError(f"{ticker}: volatility and return must be finite, got {vol} and {ret}")
    return tuple(closes), table
