"""The one home of every run default, as the paper's setup fixes them.

The command line's flags, ``pipeline.PipelineConfig`` and the library's
keyword arguments all read their defaults here and write none of their own.
This module imports nothing, so building the parser, printing ``--help`` or
rejecting a usage error never loads NumPy.
"""

AUTO = "auto"  # the value of k that asks for the silhouette sweep
K_MIN, K_MAX = 2, 10  # the sweep's range
TRADING_DAYS = 252  # annualization factor of the features
SEED = 7
EPOCHS = 1000
BATCH_SIZE = 1024
TEST_FRACTION = 0.33  # share of the tickers held out for evaluation
