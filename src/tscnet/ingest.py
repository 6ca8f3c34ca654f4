"""File-based price ingestion.

Reads ticker lists and per-ticker adjusted-close tables from disk and produces
validated, date-ordered price series. The CSV contract is narrow on purpose so
a live fetcher can be slotted in later without touching anything downstream:

* prices CSV: UTF-8, LF line endings, header exactly ``ticker,date,adj_close``,
  ISO-8601 dates, decimal prices
* ticker list: plain text, one symbol per line or comma-separated
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

from .errors import EmptyList, FormatError, NoData, reading_utf8

PRICES_HEADER = ["ticker", "date", "adj_close"]


@dataclass(frozen=True)
class PriceSeries:
    """One ticker's date-ordered adjusted closes.

    Invariants: dates strictly increasing, closes positive, len >= 2, and
    len(dates) == len(closes). The ticker is printable and holds no comma,
    so it fits in one field of the artifact CSVs.
    """

    ticker: str
    dates: tuple[dt.date, ...]
    closes: tuple[float, ...]

    def __post_init__(self):
        if not self.ticker:
            raise FormatError("empty ticker symbol")
        if "," in self.ticker or not self.ticker.isprintable():
            raise FormatError(f"ticker {self.ticker!r} holds a comma or a non-printable character")
        if len(self.dates) != len(self.closes):
            raise FormatError(f"{self.ticker}: {len(self.dates)} dates vs {len(self.closes)} closes")
        if len(self.dates) < 2:
            raise FormatError(f"{self.ticker}: need at least 2 rows, got {len(self.dates)}")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise FormatError(f"{self.ticker}: dates not strictly increasing at {b}")
        for c in self.closes:
            if not c > 0:
                raise FormatError(f"{self.ticker}: non-positive close {c}")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class PriceTable:
    """Ticker-keyed price series, iterated in ascending ticker order."""

    entries: dict[str, PriceSeries] = field(default_factory=dict)

    def add(self, series: PriceSeries) -> None:
        if series.ticker in self.entries:
            raise FormatError(f"duplicate ticker {series.ticker}")
        self.entries[series.ticker] = series

    def tickers(self) -> list[str]:
        return sorted(self.entries)

    def __iter__(self):
        for t in self.tickers():
            yield self.entries[t]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, ticker: str) -> PriceSeries:
        return self.entries[ticker]


def parse_ticker_list(text: str) -> list[str]:
    """Parse a newline- or comma-separated symbol document.

    De-duplicates while preserving first-occurrence order; blank entries are
    skipped. Raises EmptyList when nothing remains.
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
        raise EmptyList("no ticker symbols found")
    return out


def _parse_row(row: list[str], lineno: int) -> tuple[str, dt.date, float]:
    if len(row) != 3:
        raise FormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
    ticker = row[0].strip()
    if not ticker:
        raise FormatError(f"line {lineno}: empty ticker")
    try:
        date = dt.date.fromisoformat(row[1].strip())
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad date {row[1]!r}: {exc}") from exc
    try:
        close = float(row[2])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad price {row[2]!r}") from exc
    if not math.isfinite(close):
        raise FormatError(f"line {lineno}: non-finite price {row[2]!r}")
    if close <= 0:
        raise FormatError(f"line {lineno}: non-positive price {close}")
    return ticker, date, close


def load_price_table(
    path,
    tickers: list[str] | None = None,
    start_date: dt.date = dt.date.min,
) -> tuple[PriceTable, list[str]]:
    """Load a prices CSV into a PriceTable.

    Rows dated before ``start_date`` are dropped. When ``tickers`` is given,
    only those symbols are loaded. Duplicate (ticker, date) rows keep the last
    occurrence. Tickers with fewer than 2 usable rows are excluded.

    Returns (table, warnings); every ticker present in the file but absent
    from the table appears in the warnings with a reason.
    """
    wanted = set(tickers) if tickers is not None else None
    # ticker -> {date: close}; dict preserves arrival order, last write wins
    rows: dict[str, dict[dt.date, float]] = {}
    dupes: set[str] = set()
    filtered_out: list[str] = []

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from exc
    with fh, reading_utf8(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise FormatError(f"{path} line 1: {exc}") from None
        if header != PRICES_HEADER:
            raise FormatError(f"{path}: bad header {header!r}, expected {PRICES_HEADER!r}")
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                ticker, date, close = _parse_row(row, lineno)
                if wanted is not None and ticker not in wanted:
                    if ticker not in filtered_out:
                        filtered_out.append(ticker)
                    continue
                # register the ticker even if every row is filtered out, so the
                # exclusion warning below can name it
                per = rows.setdefault(ticker, {})
                if date < start_date:
                    continue
                if date in per:
                    dupes.add(ticker)
                per[date] = close
        except csv.Error as exc:
            raise FormatError(f"{path} line {reader.line_num}: {exc}") from None
        except FormatError as exc:
            raise FormatError(f"{path} {exc}") from None

    warnings = [f"{t}: excluded, not in ticker filter" for t in filtered_out]
    for t in sorted(dupes):
        warnings.append(f"{t}: duplicate (ticker, date) rows, kept last occurrence")

    table = PriceTable()
    for ticker in sorted(rows):
        per = rows[ticker]
        if len(per) < 2:
            warnings.append(f"{ticker}: excluded, fewer than 2 usable rows")
            continue
        dates = sorted(per)
        table.add(PriceSeries(ticker, tuple(dates), tuple(per[d] for d in dates)))

    if wanted is not None:
        for t in sorted(wanted - set(rows)):
            warnings.append(f"{t}: excluded, no rows in file")
    if len(table) == 0:
        raise NoData(f"{path}: no ticker with at least 2 usable rows")
    return table, warnings

