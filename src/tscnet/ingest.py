"""File-based price ingestion.

Reads ticker lists and per-ticker adjusted-close tables from disk and produces
one date-ordered float64 array of closes per ticker. The CSV contract is
narrow:

* prices CSV: UTF-8, LF or CRLF line endings, header exactly
  ``ticker,date,adj_close``, ISO-8601 dates, decimal prices
* ticker list: plain text, one symbol per line or comma-separated

A prices file is read in one pass. Each distinct date field is parsed once,
and each distinct ticker symbol is checked and filtered once, on its first
row. A kept row appends its date ordinal and its close to two typed
columns of its ticker, 12 bytes a row: a 4-byte ordinal (none exceeds
3,652,059, that of ``date.max``) and an 8-byte close. Beyond that, memory
holds one dict entry per distinct date field and ticker symbol. At the end
each ticker's columns are put in date order by one stable sort by date, which
keeps the last row of each date, so the last occurrence in the file wins.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array

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


def _check_ticker(ticker: str, lineno: int) -> None:
    """A symbol must be printable and hold no comma, so it fits one field of
    the artifact CSVs."""
    if not ticker:
        raise TscnetError(f"line {lineno}: empty ticker")
    if "," in ticker or not ticker.isprintable():
        raise TscnetError(f"line {lineno}: ticker {ticker!r} holds a comma or a non-printable character")


def _ordinal(text: str, lineno: int, start_date: dt.date) -> int:
    """A date field's ordinal, or -1 when it is before ``start_date``."""
    try:
        date = dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise TscnetError(f"line {lineno}: bad date {text!r}: {exc}") from exc
    return date.toordinal() if date >= start_date else -1


def _in_date_order(days: array, prices: array) -> tuple[np.ndarray, bool]:
    """One ticker's closes in date order, and whether a date repeated.

    A stable sort keeps rows of one date in file order, so the last of each
    run of equal dates is the date's last occurrence in the file.
    """
    d = np.frombuffer(days, dtype=np.intc)
    p = np.frombuffer(prices, dtype=np.float64)
    order = np.argsort(d, kind="stable")
    d = d[order]
    last = np.ones(len(d), dtype=bool)
    last[:-1] = d[1:] != d[:-1]
    return p[order[last]], not last.all()


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
    # date field as read -> ordinal, or -1 before start_date
    ordinal_of: dict[str, int] = {}
    # stripped ticker symbol -> slot, or -1 when filtered out
    slot_of: dict[str, int] = {}
    # per slot, in file order: date ordinals and closes
    days: list[array] = []
    prices: list[array] = []

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
                try:
                    field, date_text, price_text = row
                except ValueError:
                    raise TscnetError(f"line {lineno}: expected 3 fields, got {len(row)}") from None
                day = ordinal_of.get(date_text)
                if day is None:
                    day = ordinal_of[date_text] = _ordinal(date_text, lineno, start_date)
                try:
                    close = float(price_text)
                except ValueError as exc:
                    raise TscnetError(f"line {lineno}: bad price {price_text!r}") from exc
                if not 0 < close < math.inf:
                    if not math.isfinite(close):
                        raise TscnetError(f"line {lineno}: non-finite price {price_text!r}")
                    raise TscnetError(f"line {lineno}: non-positive price {close}")
                symbol = field.strip()
                slot = slot_of.get(symbol)
                if slot is None:
                    _check_ticker(symbol, lineno)
                    slot = -1
                    if wanted is None or symbol in wanted:
                        # a slot even if every row is before start_date, so
                        # the exclusion warning below can name it
                        slot = len(days)
                        days.append(array("i"))
                        prices.append(array("d"))
                    slot_of[symbol] = slot
                if slot >= 0 and day >= 0:
                    days[slot].append(day)
                    prices[slot].append(close)
        except csv.Error as exc:
            raise TscnetError(f"{path} line {reader.line_num}: {exc}") from None
        except TscnetError as exc:
            raise TscnetError(f"{path} {exc}") from None

    warnings = [f"{t}: excluded, not in ticker filter" for t, slot in slot_of.items() if slot < 0]
    short = []
    closes: dict[str, np.ndarray] = {}
    for ticker, slot in sorted(slot_of.items()):
        if slot < 0:
            continue
        column, repeated = _in_date_order(days[slot], prices[slot])
        # free each ticker's columns once done, so they and the output do
        # not all live at once
        days[slot] = prices[slot] = None
        if repeated:
            warnings.append(f"{ticker}: duplicate (ticker, date) rows, kept last occurrence")
        if len(column) < MIN_ROWS:
            short.append(f"{ticker}: excluded, fewer than {MIN_ROWS} usable rows")
        else:
            closes[ticker] = column
    warnings += short

    if wanted is not None:
        for t in sorted(wanted - slot_of.keys()):
            warnings.append(f"{t}: excluded, no rows in file")
    if not closes:
        raise NoData(f"{path}: no ticker with at least {MIN_ROWS} usable rows", warnings)
    return closes, warnings
