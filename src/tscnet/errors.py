"""Exception types shared across the package.

Every error tscnet raises for bad input (a malformed file, an argument out of
range, data a stage cannot use) is a ``TscnetError`` whose message says what
is wrong and, where there is one, names the file and line or the ticker. The
CLI prints it as one ``error:`` line. Two subclasses carry more: ``NoData``
and ``PipelineError`` hold the ingest ``warnings`` that say why each ticker
was dropped.
"""

import contextlib


class TscnetError(Exception):
    """Base class for all tscnet errors."""


@contextlib.contextmanager
def reading_utf8(path):
    """Re-raise a UnicodeDecodeError from the block as a TscnetError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise TscnetError(f"{path}: not UTF-8 text ({exc.reason})") from None


class NoData(TscnetError):
    """No ticker produced a usable price series; ``warnings`` says why each
    ticker was dropped."""

    def __init__(self, message: str, warnings: list[str]):
        super().__init__(message)
        self.warnings = warnings


class PipelineError(TscnetError):
    """Stage failure wrapped with the stage that produced it; ``warnings``
    holds those gathered before it, then any the cause carries (NoData's)."""

    def __init__(self, stage: str, cause: Exception, warnings=()):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.warnings = [*warnings, *getattr(cause, "warnings", ())]
