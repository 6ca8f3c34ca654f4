"""File-based price ingestion.

Reads ticker lists and per-ticker adjusted-close tables from disk and produces
one date-ordered float64 array of closes per ticker. The CSV contract is
narrow on purpose so a live fetcher can be slotted in later without touching
anything downstream:

* prices CSV: UTF-8, LF line endings, header exactly ``ticker,date,adj_close``,
  ISO-8601 dates, decimal prices
* ticker list: plain text, one symbol per line or comma-separated
"""

from __future__ import annotations

import csv
import datetime as dt
import math

import numpy as np

from .errors import NoData, TscnetError, reading_utf8

PRICES_HEADER = ["ticker", "date", "adj_close"]

# the fewest usable rows a ticker needs: two returns, for a sample std
MIN_ROWS = 3


def parse_ticker_list(text: str) -> list[str]:
    """Parse a newline- or comma-separated symbol document.

    De-duplicates while preserving first-occurrence order; blank entries are
    skipped. Raises TscnetError when nothing remains.
    """
    seen = set()
    out = []
    for line in text.splitlines():
        for item in line.split(","):
            symbol = item.strip()
            if symbol and symbol not in seen:
                seen.add(symbol)
                out.append(symbol)
    if not out:
        raise TscnetError("no ticker symbols found")
    return out


def _parse_row(row: list[str], lineno: int) -> tuple[str, dt.date, float]:
    if len(row) != 3:
        raise TscnetError(f"line {lineno}: expected 3 fields, got {len(row)}")
    try:
        date = dt.date.fromisoformat(row[1].strip())
    except ValueError as exc:
        raise TscnetError(f"line {lineno}: bad date {row[1]!r}: {exc}") from exc
    try:
        close = float(row[2])
    except ValueError as exc:
        raise TscnetError(f"line {lineno}: bad price {row[2]!r}") from exc
    if not math.isfinite(close):
        raise TscnetError(f"line {lineno}: non-finite price {row[2]!r}")
    if close <= 0:
        raise TscnetError(f"line {lineno}: non-positive price {close}")
    return row[0].strip(), date, close


def _check_ticker(ticker: str, lineno: int) -> None:
    """A symbol must be printable and hold no comma, so it fits one field of
    the artifact CSVs."""
    if not ticker:
        raise TscnetError(f"line {lineno}: empty ticker")
    if "," in ticker or not ticker.isprintable():
        raise TscnetError(f"line {lineno}: ticker {ticker!r} holds a comma or a non-printable character")


def load_price_table(
    path,
    tickers: list[str] | None = None,
    start_date: dt.date = dt.date.min,
) -> tuple[dict[str, np.ndarray], list[str]]:
    """Load a prices CSV into one array of closes per ticker.

    Returns (closes, warnings). ``closes`` maps each kept ticker, in
    ascending ticker order, to a float64 array of its closes in date order.
    Rows dated before ``start_date`` are dropped. When ``tickers`` is given,
    only those symbols are loaded. Duplicate (ticker, date) rows keep the last
    occurrence. A ticker with fewer than MIN_ROWS usable rows is excluded.
    Every ticker present in the file but absent from ``closes`` appears in
    the warnings with a reason; when no ticker is left, NoData carries them.
    """
    wanted = set(tickers) if tickers is not None else None
    # ticker -> {date: close}; dict preserves arrival order, last write wins
    rows: dict[str, dict[dt.date, float]] = {}
    dupes: set[str] = set()
    filtered_out: dict[str, None] = {}

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise TscnetError(f"cannot open {path}: {exc}") from exc
    with fh, reading_utf8(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TscnetError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise TscnetError(f"{path} line 1: {exc}") from None
        if header != PRICES_HEADER:
            raise TscnetError(f"{path}: bad header {header!r}, expected {PRICES_HEADER!r}")
        try:
            # a row's first physical line; a quoted field may span several
            end = reader.line_num
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                ticker, date, close = _parse_row(row, lineno)
                per = rows.get(ticker)
                if per is None:
                    if ticker in filtered_out:
                        continue
                    _check_ticker(ticker, lineno)
                    if wanted is not None and ticker not in wanted:
                        filtered_out[ticker] = None
                        continue
                    # register the ticker even if every row is filtered out, so
                    # the exclusion warning below can name it
                    per = rows[ticker] = {}
                if date < start_date:
                    continue
                if date in per:
                    dupes.add(ticker)
                per[date] = close
        except csv.Error as exc:
            raise TscnetError(f"{path} line {reader.line_num}: {exc}") from None
        except TscnetError as exc:
            raise TscnetError(f"{path} {exc}") from None

    warnings = [f"{t}: excluded, not in ticker filter" for t in filtered_out]
    for t in sorted(dupes):
        warnings.append(f"{t}: duplicate (ticker, date) rows, kept last occurrence")

    closes: dict[str, np.ndarray] = {}
    for ticker in sorted(rows):
        per = rows[ticker]
        if len(per) < MIN_ROWS:
            warnings.append(f"{ticker}: excluded, fewer than {MIN_ROWS} usable rows")
            continue
        closes[ticker] = np.array([per[d] for d in sorted(per)], dtype=np.float64)

    if wanted is not None:
        for t in sorted(wanted - set(rows)):
            warnings.append(f"{t}: excluded, no rows in file")
    if not closes:
        raise NoData(f"{path}: no ticker with at least {MIN_ROWS} usable rows", warnings)
    return closes, warnings
