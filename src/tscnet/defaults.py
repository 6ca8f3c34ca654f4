"""Defaults that the command line's parser shows before any stage has loaded.

This module imports nothing, so building the parser, printing ``--help`` or
rejecting a usage error never loads NumPy. ``pipeline.AUTO`` and
``features.TRADING_DAYS`` are these same objects.
"""

AUTO = "auto"  # the value of k that asks for the silhouette sweep

TRADING_DAYS = 252  # annualization factor of the features
