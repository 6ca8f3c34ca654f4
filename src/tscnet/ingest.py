"""File-based price ingestion.

Reads ticker lists and per-ticker adjusted-close tables from disk and produces
one date-ordered float64 array of closes per ticker, or what a caller's
``per_ticker`` function makes of it. The CSV contract is narrow:

* prices CSV: UTF-8, LF or CRLF line endings, header exactly
  ``ticker,date,adj_close``, ISO-8601 dates, decimal prices
* ticker list: UTF-8 text, one symbol per line or comma-separated;
  ``pipeline.load_table`` drops a leading byte order mark

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
  before it, and its date is not stored. Each ticker's kept rows are one
  run, so its closes are complete at the first kept row of the next
  ticker, or at the end of the file: they are then joined into one new
  array, or given to ``per_ticker``. With ``per_ticker``, no close is held
  but the current ticker's and the current chunk's.
* The row reader takes any file: a ``csv.reader`` loop that appends each
  kept row to two typed columns of its ticker, a 4-byte date ordinal (none
  exceeds 3,652,059, that of ``date.max``) and an 8-byte close, 12 bytes
  a row. Once the file is read, it takes the tickers in ascending order:
  it puts each one's rows in date order by one stable sort by date, which
  keeps the last row of each date, so the last occurrence in the file
  wins, frees the ticker's columns, and gives the closes to ``per_ticker``.

Every error a load raises comes from the row reader: first that of the
first bad line in the file, naming the file and the line, then that of the
first ticker in ascending order that ``per_ticker`` refuses. A byte that is
not UTF-8 is decoded as a lone surrogate, which every check of a row
refuses, so it too is named at its line. The clean-file reader raises
nothing: on any doubt (any check above, a bad date, ticker or price, bytes
that are not UTF-8, or a TscnetError from ``per_ticker``) it stops, and the
row reader reads the file from the start, so every error, warning and its
precedence are the row reader's.

So these files are read twice: a file with CRLF line ends, a quoted field,
a blank line before a row, or an unparsable row, found wherever it sits;
one in which a ticker repeats a date or goes back in time, such as a late
correction row for a date already given; one in which a ticker's rows
come back after another ticker's, such as two appended exports or a file
ordered by date, which the clean-file reader leaves at its first repeated
ticker; and one with a ticker that ``per_ticker`` refuses.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array

import numpy as np

from .errors import NoData, TscnetError

PRICES_HEADER = ["ticker", "date", "adj_close"]
HEADER_LINE = (",".join(PRICES_HEADER) + "\n").encode()

# the fewest usable rows a ticker needs: two returns, for a sample std
MIN_ROWS = 3

# the clean-file reader's read size
CHUNK_BYTES = 16384
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


def _slot(symbol: str, lineno: int, wanted: set[str] | None, slot_of: dict[str, int], names: list[str]) -> int:
    """The slot of a stripped ticker symbol. A symbol first seen is checked,
    then given -1 when ``wanted`` drops it, else the next slot, in order of
    first appearance, with its name appended to ``names``."""
    slot = slot_of.get(symbol)
    if slot is None:
        _check_ticker(symbol, lineno)
        slot = -1
        if wanted is None or symbol in wanted:
            slot = len(names)
            names.append(symbol)
        slot_of[symbol] = slot
    return slot


def _not_utf8(fields: list[str]) -> str | None:
    """Why the bytes of a row decoded with ``errors="surrogateescape"`` are
    not UTF-8 text, or None when they are. The fields are joined as in an
    unquoted line, so a byte cut short by the end of a field reads as it does
    in the file, except at the very end of a file with no last newline."""
    try:
        (",".join(fields) + "\n").encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.reason
    return None


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


def _read_clean(path, wanted: set[str] | None, start_date: dt.date, per_ticker=None):
    """Read a clean prices file column by column, one ticker at a time.

    Returns what ``_read_rows`` returns, with no repeated date, or None on
    any doubt, a TscnetError from ``per_ticker`` among them: it raises
    nothing. Fields stay bytes: ``float`` parses ASCII bytes as
    it parses the same str and refuses other bytes, and only the first
    occurrence of a date or ticker field is decoded. The kept rows must
    ascend by slot, then strictly by date, so each ticker's closes are one
    run of kept rows, in date order, and no date is kept. A ticker's run
    ends at the first kept row of the next one, or at the end of the file:
    its closes, pieces of one or more chunks, are then joined and given to
    ``_settle``, and only what that returns is kept. A doubt found later
    drops those values, and the row reader settles every ticker again.
    """
    limit = csv.field_size_limit()
    # date field -> ordinal, or -1 before start_date; ticker field -> slot
    ordinal_of: dict[bytes, int] = {}
    slot_by_field: dict[bytes, int] = {}
    # stripped ticker symbol -> slot, or -1 when filtered out
    slot_of: dict[str, int] = {}
    # per slot, its symbol, and what _settle made of its closes once its run
    # ended; a slot with no kept row has none
    names: list[str] = []
    settled: dict[int, object] = {}
    # the slot whose run the last kept row is in, and that run's closes so far
    current = -1
    pieces: list[np.ndarray] = []
    # (slot << 22) | ordinal of the last kept row; every ordinal is below
    # 2**22, as that of date.max is 3,652,059
    last_key = -1

    def end_run() -> None:
        settled[current] = _settle(per_ticker, names[current], np.concatenate(pieces))
        pieces.clear()

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
                slots = _codes(slot_by_field, fields[0::3],
                               lambda field: _slot(field.decode().strip(), 0, wanted, slot_of, names))
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
                # the chunk's runs of one slot; each but the last ends in it
                starts = [0, *(np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()]
                for start, stop in zip(starts, [*starts[1:], len(slots)]):
                    if slots[start] != current:
                        if pieces:
                            end_run()
                        current = int(slots[start])
                    pieces.append(closes[start:stop])
            if pieces:
                end_run()
    except (OSError, ValueError, TscnetError):
        # open or read, a decode error, a long line, a bad price, date or
        # ticker, or an error from per_ticker
        return None
    return slot_of, settled, set()


def _read_rows(path, wanted: set[str] | None, start_date: dt.date, per_ticker=None):
    """Read any prices file row by row; raise a TscnetError at the first bad
    line, naming the file and the line, or, once the file is read, that of
    ``per_ticker`` for the first ticker in ascending order it refuses.

    Returns (slot_of, settled, repeated): ``slot_of`` maps each stripped
    ticker symbol in the file, in order of first appearance, to its slot,
    or to -1 when the filter drops it; ``settled`` maps a slot to what
    ``_settle`` made of its closes in date order, and a slot with no kept
    row to nothing; ``repeated`` holds the slots in which a date repeated.
    """
    # date field as read -> ordinal, or -1 before start_date
    ordinal_of: dict[str, int] = {}
    # stripped ticker symbol -> slot, or -1 when filtered out
    slot_of: dict[str, int] = {}
    # per slot, its symbol and, in file order, its date ordinals and closes
    names: list[str] = []
    days: list[array] = []
    prices: list[array] = []

    try:
        # a byte that is not UTF-8 reads as a lone surrogate, which every
        # check of a row refuses, so it is named at its line
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise TscnetError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TscnetError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise TscnetError(f"{path} line 1: {exc}") from None
        if header != PRICES_HEADER:
            if (reason := _not_utf8(header)) is not None:
                raise TscnetError(f"{path} line 1: not UTF-8 text ({reason})")
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
                    slot = _slot(symbol, lineno, wanted, slot_of, names)
                    if slot >= 0:
                        # columns even if every row is before start_date, so
                        # the exclusion warning can name the ticker
                        days.append(array("i"))
                        prices.append(array("d"))
                if slot >= 0 and day >= 0:
                    days[slot].append(day)
                    prices[slot].append(close)
        except csv.Error as exc:
            raise TscnetError(f"{path} line {reader.line_num}: {exc}") from None
        except TscnetError as exc:
            if (reason := _not_utf8(row)) is not None:
                raise TscnetError(f"{path} line {lineno}: not UTF-8 text ({reason})") from None
            raise TscnetError(f"{path} {exc}") from None

    settled: dict[int, object] = {}
    repeated: set[int] = set()
    for symbol in sorted(names):
        slot = slot_of[symbol]
        ordered, repeats = _in_date_order(days[slot], prices[slot])
        # free each ticker's columns once done, so they and the output do
        # not all live at once
        days[slot] = prices[slot] = None
        if repeats:
            repeated.add(slot)
        settled[slot] = _settle(per_ticker, symbol, ordered)
    return slot_of, settled, repeated


def _settle(per_ticker, ticker: str, closes: np.ndarray):
    """What the table keeps of a ticker's closes in date order: None when
    they are fewer than MIN_ROWS, else the closes when ``per_ticker`` is
    None, else ``per_ticker(ticker, closes)``."""
    if len(closes) < MIN_ROWS:
        return None
    if per_ticker is None:
        return closes
    return per_ticker(ticker, closes)


def load_price_table(
    path,
    tickers: list[str] | None = None,
    start_date: dt.date = dt.date.min,
    per_ticker=None,
) -> tuple[dict, list[str]]:
    """Load a prices CSV into one array of closes per ticker.

    Returns (closes, warnings). ``closes`` maps each kept ticker, in
    ascending ticker order, to a new float64 array of its closes in date
    order. Rows dated before ``start_date`` are dropped. When ``tickers`` is
    given, only those symbols are loaded. Duplicate (ticker, date) rows keep
    the last occurrence. A ticker with fewer than MIN_ROWS usable rows is
    excluded. Every ticker present in the file but absent from ``closes``
    appears in the warnings with a reason; when no ticker is left, NoData
    carries them.

    With ``per_ticker``, each kept ticker maps to ``per_ticker(ticker,
    closes)`` instead, and its closes are not kept: the clean-file reader
    calls it as soon as it has read the ticker's last row, so only one
    ticker's closes are alive at a time. A TscnetError it raises makes the
    row reader read the file: so a bad line in the file is raised first,
    else the error of the first such ticker in ascending order.
    """
    wanted = set(tickers) if tickers is not None else None
    slot_of, settled, repeated = (_read_clean(path, wanted, start_date, per_ticker)
                                  or _read_rows(path, wanted, start_date, per_ticker))

    warnings = [f"{t}: excluded, not in ticker filter" for t, slot in slot_of.items() if slot < 0]
    short = []
    table = {}
    for ticker, slot in sorted(slot_of.items()):
        if slot < 0:
            continue
        if slot in repeated:
            warnings.append(f"{ticker}: duplicate (ticker, date) rows, kept last occurrence")
        value = settled.get(slot)
        if value is None:
            short.append(f"{ticker}: excluded, fewer than {MIN_ROWS} usable rows")
        else:
            table[ticker] = value
    warnings += short

    if wanted is not None:
        for t in sorted(wanted - slot_of.keys()):
            warnings.append(f"{t}: excluded, no rows in file")
    if not table:
        raise NoData(f"{path}: no ticker with at least {MIN_ROWS} usable rows", warnings)
    return table, warnings
