"""The one home of every run default and range rule, as the paper fixes them.

Command-line flags, ``pipeline.PipelineConfig`` and the library's keyword
arguments read their defaults here and check them with :func:`check_settings`.
This module imports only ``errors``, so building the parser, printing
``--help`` or rejecting a usage error never loads NumPy.
"""

from .errors import TscnetError

AUTO = "auto"  # the value of k that asks for the silhouette sweep
K_MIN, K_MAX = 2, 10  # the sweep's range
TRADING_DAYS = 252  # annualization factor of the features
SEED = 7
EPOCHS = 1000
BATCH_SIZE = 1024
TEST_FRACTION = 0.33  # share of the tickers held out for evaluation


def check_settings(*, k=AUTO, k_min=K_MIN, k_max=K_MAX, seed=SEED, epochs=EPOCHS, batch_size=BATCH_SIZE,
                   test_fraction=TEST_FRACTION, trading_days=TRADING_DAYS) -> None:
    """Raise a TscnetError for the first setting out of range. Each argument
    defaults to its run default, so a caller passes those it takes. k >= 2,
    as the autoencoder needs 2 clusters; the k range holds for a fixed k too,
    and ``kmeans.select_k`` clamps k_max to the data."""
    if k != AUTO and (not isinstance(k, int) or k < 2):
        raise TscnetError(f"k must be an integer >= 2 or {AUTO!r}, got {k!r}")
    if not 2 <= k_min <= k_max:
        raise TscnetError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if epochs < 1 or batch_size < 1:
        raise TscnetError("epochs and batch_size must be >= 1")
    if not 0.0 < test_fraction < 1.0:
        raise TscnetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if trading_days < 1:
        raise TscnetError(f"trading_days must be >= 1, got {trading_days}")
    try:
        float(trading_days)
    except OverflowError:
        raise TscnetError("trading_days is too large to convert to a float") from None
    if seed < 0:
        raise TscnetError(f"seed must be >= 0, got {seed}")
