"""File-based price ingestion.

Reads ticker lists and per-ticker adjusted-close tables from disk and produces
one date-ordered float64 array of closes per ticker. The CSV contract is
narrow:

* prices CSV: UTF-8, LF or CRLF line endings, header exactly
  ``ticker,date,adj_close``, ISO-8601 dates, decimal prices
* ticker list: plain text, one symbol per line or comma-separated

A prices file is read by one of two readers, in one pass per reader; a file
the clean-file reader gives up on is read a second time, from the start, by
the row reader. A reader parses each distinct date field once, and checks
and filters each distinct ticker symbol once, on its first row; memory
holds one dict entry per distinct date field and ticker symbol.

* The clean-file reader takes a file whose header line is exactly
  ``ticker,date,adj_close``, whose every later line holds two commas and no
  quote, CR or NUL, with no blank line before the last row and no line
  longer than ``csv.field_size_limit()``, and whose kept rows ascend by
  ticker, in order of first appearance, then strictly by date. It reads
  about CHUNK_BYTES at a time, cut at a newline, column by column: one
  split per chunk, a dict lookup per field (a field first seen is parsed
  or checked once), and ``np.fromiter(map(float, ...))`` for the closes.
  Each kept row's (ticker, date) key is checked against the kept row
  before it, and its date is not stored: a kept row costs 8 bytes, its
  close, in file order in fixed-size heap blocks of BLOCK_ROWS rows. Each
  ticker's rows are one range of the blocks, so its closes are a view of
  a block, or a copy of its range when it spans blocks.
* The row reader takes any file: a ``csv.reader`` loop that appends each
  kept row to two typed columns of its ticker, a 4-byte date ordinal (none
  exceeds 3,652,059, that of ``date.max``) and an 8-byte close, 12 bytes
  a row. It is the one place that names a bad line. The clean-file reader
  raises nothing: on any doubt (any check above, a bad date, ticker or
  price, or bytes that are not UTF-8) it stops, and the row reader reads
  the file from the start, so every error, warning and its precedence are
  the row reader's. At the end it puts each ticker's rows in date order by
  one stable sort by date, which keeps the last row of each date, so the
  last occurrence in the file wins.

So these files are read twice: a file with CRLF line ends, a quoted field,
a blank line before a row, or an unparsable row, found wherever it sits;
one in which a ticker repeats a date or goes back in time, such as a late
correction row for a date already given; and one in which a ticker's rows
come back after another ticker's, such as two appended exports or a file
ordered by date, which the clean-file reader leaves at its first repeated
ticker.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array

import numpy as np

from .errors import NoData, TscnetError, reading_utf8

PRICES_HEADER = ["ticker", "date", "adj_close"]
HEADER_LINE = (",".join(PRICES_HEADER) + "\n").encode()

# the fewest usable rows a ticker needs: two returns, for a sample std
MIN_ROWS = 3

# the clean-file reader's read size, and the rows per storage block
CHUNK_BYTES = 16384
BLOCK_ROWS = 8192
# every byte but the five that decide how csv.reader splits a line
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b',\n\r"\x00')


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


def _in_date_order(days, prices) -> tuple[np.ndarray, bool]:
    """One ticker's closes in date order, as a new array, and whether a date
    repeated.

    ``days`` and ``prices`` are its rows in file order, as the row reader's
    typed ``array``s. A stable sort keeps rows of one date in file order, so
    the last of each run of equal dates is the date's last occurrence in the
    file.
    """
    d = np.frombuffer(days, dtype=np.intc)
    p = np.frombuffer(prices, dtype=np.float64)
    order = np.argsort(d, kind="stable")
    d = d[order]
    last = np.ones(len(d), dtype=bool)
    last[:-1] = d[1:] != d[:-1]
    return p[order[last]], not last.all()


def _line_chunks(fh, limit: int):
    """The lines of binary ``fh`` from where it stands, in chunks of whole
    lines of about CHUNK_BYTES, each ending with a newline.

    Blank lines may only end the file, where they are dropped, and so may a
    last line without a newline, which gets one. A blank line before a row,
    or a line longer than ``limit``, raises ValueError.
    """
    while chunk := fh.read(CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline(limit + 1)
        if len(chunk) > limit and max(map(len, chunk.split(b"\n"))) > limit:
            raise ValueError("a line longer than the csv field limit")
        if chunk.startswith(b"\n") or chunk.endswith(b"\n\n") or not chunk.endswith(b"\n"):
            # the end of the file, unless a row follows
            while more := fh.read(CHUNK_BYTES):
                if more.strip(b"\n"):
                    raise ValueError("a blank line before a row")
            chunk = chunk.rstrip(b"\n")
            if chunk:
                yield chunk + b"\n"
            return
        yield chunk


def _block_pieces(start: int, end: int):
    """(block, lo, hi) for each block that the stored rows [start, end) touch."""
    while start < end:
        block, lo = divmod(start, BLOCK_ROWS)
        hi = min(BLOCK_ROWS, lo + end - start)
        yield block, lo, hi
        start += hi - lo


def _codes(table: dict, keys: list, new) -> np.ndarray:
    """The int32 codes ``table`` gives ``keys``; a key it lacks is first
    added as ``new(key)``, in order of first appearance."""
    try:
        return np.fromiter(map(table.__getitem__, keys), np.intc, len(keys))
    except KeyError:
        for key in dict.fromkeys(keys):
            if key not in table:
                table[key] = new(key)
        return np.fromiter(map(table.__getitem__, keys), np.intc, len(keys))


def _read_clean(path, wanted: set[str] | None, start_date: dt.date):
    """Read a clean prices file column by column into fixed-size blocks.

    Returns what ``_read_rows`` returns, or None on any doubt; it raises
    nothing of its own. Fields stay bytes: ``float`` parses ASCII bytes as
    it parses the same str and refuses other bytes, and only the first
    occurrence of a date or ticker field is decoded. The kept rows must
    ascend by slot, then strictly by date, so each ticker's closes are one
    range of stored rows, in date order, and no date is stored.
    """
    limit = csv.field_size_limit()
    # date field -> ordinal, or -1 before start_date; ticker field -> slot
    ordinal_of: dict[bytes, int] = {}
    slot_by_field: dict[bytes, int] = {}
    # stripped ticker symbol -> slot, or -1 when filtered out
    slot_of: dict[str, int] = {}
    # per slot, the end of its stored rows, or 0 before it has any
    end = array("q")
    close_blocks: list[np.ndarray] = []
    stored = 0
    # (slot << 22) | ordinal of the last stored row; every ordinal is below
    # 2**22, as that of date.max is 3,652,059
    last_key = -1

    def new_slot(field: bytes) -> int:
        symbol = field.decode().strip()
        slot = slot_of.get(symbol)
        if slot is None:
            _check_ticker(symbol, 0)
            slot = -1
            if wanted is None or symbol in wanted:
                slot = len(end)
                end.append(0)
            slot_of[symbol] = slot
        return slot

    try:
        with open(path, "rb") as fh:
            # the row reader must be able to read the file again from the start
            if not fh.seekable() or fh.readline(len(HEADER_LINE)) != HEADER_LINE:
                return None
            for chunk in _line_chunks(fh, limit):
                # every line holds exactly two commas, and no quote, CR or NUL
                seps = chunk.translate(None, _NOT_SEPARATORS)
                if seps != b",,\n" * (len(seps) // 3):
                    return None
                fields = chunk.replace(b"\n", b",").split(b",")
                fields.pop()
                slots = _codes(slot_by_field, fields[0::3], new_slot)
                days = _codes(ordinal_of, fields[1::3], lambda text: _ordinal(text.decode(), 0, start_date))
                closes = np.fromiter(map(float, fields[2::3]), np.float64, len(slots))
                del fields
                if not (closes.min() > 0 and closes.max() < math.inf):
                    return None
                keep = (slots != -1) & (days != -1)
                if not keep.all():
                    slots, days, closes = slots[keep], days[keep], closes[keep]
                if not len(slots):
                    continue
                keys = slots.astype(np.int64) << 22 | days
                if not (keys[0] > last_key and (keys[1:] > keys[:-1]).all()):
                    return None
                last_key = int(keys[-1])
                # each slot's last row in the chunk
                for last in [*np.flatnonzero(slots[1:] != slots[:-1]).tolist(), len(slots) - 1]:
                    end[slots[last]] = stored + last + 1
                done = 0
                for block, lo, hi in _block_pieces(stored, stored + len(closes)):
                    if block == len(close_blocks):
                        close_blocks.append(np.empty(BLOCK_ROWS, np.float64))
                    close_blocks[block][lo:hi] = closes[done:done + hi - lo]
                    done += hi - lo
                stored += done
    except (OSError, ValueError, TscnetError):
        # open or read, a decode error, a long line, a bad price, date or ticker
        return None

    # the rows are stored in slot order, so slot s's rows are [ends[s - 1],
    # ends[s]), where a slot without rows ends where the slot before it does
    ends = np.maximum.accumulate(np.frombuffer(end, np.int64))

    def column(slot: int) -> tuple[np.ndarray, bool]:
        start = int(ends[slot - 1]) if slot else 0
        pieces = [close_blocks[block][lo:hi] for block, lo, hi in _block_pieces(start, int(ends[slot]))]
        if len(pieces) == 1:
            return pieces[0], False
        return np.concatenate([np.empty(0, np.float64), *pieces]), False

    return slot_of, column


def _read_rows(path, wanted: set[str] | None, start_date: dt.date):
    """Read any prices file row by row; raise a TscnetError at the first bad
    line, naming the file and the line.

    Returns (slot_of, column): ``slot_of`` maps each stripped ticker symbol
    in the file, in order of first appearance, to its slot, or to -1 when
    the filter drops it; ``column(slot)`` gives ``_in_date_order``'s result
    for the slot once, and frees the slot's rows.
    """
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
                        # the exclusion warning can name it
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

    def column(slot: int) -> tuple[np.ndarray, bool]:
        ordered = _in_date_order(days[slot], prices[slot])
        # free each ticker's columns once done, so they and the output do
        # not all live at once
        days[slot] = prices[slot] = None
        return ordered

    return slot_of, column


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
    slot_of, column = _read_clean(path, wanted, start_date) or _read_rows(path, wanted, start_date)

    warnings = [f"{t}: excluded, not in ticker filter" for t, slot in slot_of.items() if slot < 0]
    short = []
    closes: dict[str, np.ndarray] = {}
    for ticker, slot in sorted(slot_of.items()):
        if slot < 0:
            continue
        ordered, repeated = column(slot)
        if repeated:
            warnings.append(f"{ticker}: duplicate (ticker, date) rows, kept last occurrence")
        if len(ordered) < MIN_ROWS:
            short.append(f"{ticker}: excluded, fewer than {MIN_ROWS} usable rows")
        else:
            closes[ticker] = ordered
    warnings += short

    if wanted is not None:
        for t in sorted(wanted - slot_of.keys()):
            warnings.append(f"{t}: excluded, no rows in file")
    if not closes:
        raise NoData(f"{path}: no ticker with at least {MIN_ROWS} usable rows", warnings)
    return closes, warnings
