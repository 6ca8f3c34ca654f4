"""Exception types shared across the package.

Every error raised by tscnet derives from ``TscnetError`` so callers (and the
CLI) can distinguish data problems from programming errors.
"""

import contextlib


class TscnetError(Exception):
    """Base class for all tscnet errors."""


# ingest
class EmptyList(TscnetError):
    """Ticker list contained no symbols."""


class FormatError(TscnetError):
    """An input file had a bad header, an unparseable row or non-UTF-8 bytes."""


@contextlib.contextmanager
def reading_utf8(path):
    """Re-raise a UnicodeDecodeError from the block as a FormatError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


class NoData(TscnetError):
    """No ticker produced a usable price series."""


# features
class TooShort(TscnetError):
    """Series too short for the requested statistic."""


class NonPositivePrice(TscnetError):
    """Log returns require strictly positive prices."""


# kmeans
class BadK(TscnetError):
    """Cluster count outside the valid range for the data."""


class NonFinitePoint(TscnetError):
    """Feature points must be finite."""


class SingleCluster(TscnetError):
    """Silhouette needs at least two distinct labels."""


# autonet
class BadWidth(TscnetError):
    """Layer widths must be positive integers."""


class ShapeMismatch(TscnetError):
    """Array shapes incompatible with the network or with each other."""


class NonFiniteInput(TscnetError):
    """Network inputs must be finite."""


class EmptyDataset(TscnetError):
    """Operation requires at least one record."""


class ModelFormatError(TscnetError):
    """A saved model file could not be parsed."""


# pipeline
class BadConfig(TscnetError):
    """Pipeline configuration missing or malformed."""


class PipelineError(TscnetError):
    """Stage failure wrapped with the stage that produced it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
