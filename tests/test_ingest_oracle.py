"""Oracle property test for load_price_table.

A hypothesis strategy writes small prices CSVs with duplicate (ticker, date)
rows, out-of-order dates, blank lines, quoted fields that span lines, padded
ticker fields, date strings that differ as text but not as dates, an
optional start date and ticker filter, and at most one bad row. The loader
must agree with ``reference_load``, a plain dict-per-ticker loader: the same
closes bit for bit, the same warnings in the same order, or the same error
message. Each property also runs with tiny chunks and blocks, so that the
clean-file reader's chunk cuts and block edges fall between any two rows.
"""

import csv
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tscnet import ingest
from tscnet.errors import NoData, TscnetError, reading_utf8
from tscnet.ingest import MIN_ROWS, PRICES_HEADER, load_price_table


def reference_load(path, tickers=None, start_date=dt.date.min):
    """One {date: close} dict per ticker; the last write of a date wins."""
    wanted = set(tickers) if tickers is not None else None
    rows, dupes, filtered_out = {}, set(), {}
    with open(path, "r", encoding="utf-8", newline="") as fh, reading_utf8(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TscnetError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise TscnetError(f"{path} line 1: {exc}") from None
        if header != PRICES_HEADER:
            raise TscnetError(f"{path}: bad header {header!r}, expected {PRICES_HEADER!r}")
        end = reader.line_num
        try:
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                where = f"{path} line {lineno}"
                if len(row) != 3:
                    raise TscnetError(f"{where}: expected 3 fields, got {len(row)}")
                try:
                    date = dt.date.fromisoformat(row[1].strip())
                except ValueError as exc:
                    raise TscnetError(f"{where}: bad date {row[1]!r}: {exc}") from None
                try:
                    close = float(row[2])
                except ValueError:
                    raise TscnetError(f"{where}: bad price {row[2]!r}") from None
                if not math.isfinite(close):
                    raise TscnetError(f"{where}: non-finite price {row[2]!r}")
                if close <= 0:
                    raise TscnetError(f"{where}: non-positive price {close}")
                ticker = row[0].strip()
                if ticker not in rows:
                    if ticker in filtered_out:
                        continue
                    if not ticker:
                        raise TscnetError(f"{where}: empty ticker")
                    if "," in ticker or not ticker.isprintable():
                        raise TscnetError(
                            f"{where}: ticker {ticker!r} holds a comma or a non-printable character")
                    if wanted is not None and ticker not in wanted:
                        filtered_out[ticker] = None
                        continue
                    rows[ticker] = {}
                if date < start_date:
                    continue
                if date in rows[ticker]:
                    dupes.add(ticker)
                rows[ticker][date] = close
        except csv.Error as exc:
            raise TscnetError(f"{path} line {reader.line_num}: {exc}") from None

    warnings = [f"{t}: excluded, not in ticker filter" for t in filtered_out]
    warnings += [f"{t}: duplicate (ticker, date) rows, kept last occurrence" for t in sorted(dupes)]
    closes = {}
    for ticker in sorted(rows):
        per = rows[ticker]
        if len(per) < MIN_ROWS:
            warnings.append(f"{ticker}: excluded, fewer than {MIN_ROWS} usable rows")
        else:
            closes[ticker] = np.array([per[d] for d in sorted(per)], dtype=np.float64)
    if wanted is not None:
        warnings += [f"{t}: excluded, no rows in file" for t in sorted(wanted - set(rows))]
    if not closes:
        raise NoData(f"{path}: no ticker with at least {MIN_ROWS} usable rows", warnings)
    return closes, warnings


def outcome(loader, path, **kwargs):
    """What a loader did, in a form that compares closes bit for bit."""
    try:
        closes, warnings = loader(path, **kwargs)
    except NoData as exc:
        return "no data", str(exc), exc.warnings
    except TscnetError as exc:
        return "error", str(exc)
    return "ok", [(t, a.dtype.str, a.tobytes()) for t, a in closes.items()], warnings


DAYS = [dt.date(2019, 1, 2) + dt.timedelta(days=i) for i in range(6)]
# " A", "A " and the quoted "A\n" all strip to the symbol "A"
TICKER = st.sampled_from(["A", " A", "A ", "A\n", "B", "C", "D"])
DAY = st.sampled_from(DAYS)
DATE_TEXT = st.sampled_from([
    lambda d: d.isoformat(),
    lambda d: d.strftime("%Y%m%d"),
    lambda d: f" {d.isoformat()}",
    lambda d: f"{d.isoformat()}\n",
])
PRICE_TEXT = (st.floats(1e-3, 1e3).map(repr)
              | st.sampled_from(["1", " 2.5", "3.25 ", "1_0", "4e0", "0.5\n", "+7"]))


def date_text(draw, day):
    return draw(DATE_TEXT)(day)


@st.composite
def good_rows(draw, max_size=14):
    rows = draw(st.lists(st.tuples(TICKER, DAY, PRICE_TEXT), max_size=max_size))
    return [[ticker, date_text(draw, day), price] for ticker, day, price in rows]


BAD_KINDS = ["short", "long", "date", "price", "nan", "zero", "negative", "comma", "empty", "control"]


@st.composite
def bad_row(draw):
    ticker, date, price = draw(TICKER), date_text(draw, draw(DAY)), draw(PRICE_TEXT)
    kind = draw(st.sampled_from(BAD_KINDS))
    if kind == "short":
        return [ticker, date]
    if kind == "long":
        return [ticker, date, price, "x"]
    if kind == "date":
        return [ticker, draw(st.sampled_from(["2019-13-01", "someday", "", "2019-1-2"])), price]
    if kind == "price":
        return [ticker, date, draw(st.sampled_from(["abc", "", "1,5", "0x1p3"]))]
    if kind == "nan":
        return [ticker, date, draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))]
    if kind == "zero":
        return [ticker, date, draw(st.sampled_from(["0", "0.0", "-0"]))]
    if kind == "negative":
        return [ticker, date, "-4"]
    if kind == "comma":
        return ["A,B", date, price]
    if kind == "empty":
        return [" ", date, price]
    return ["A\x00B", date, price]


def quote(field):
    return '"' + field.replace('"', '""') + '"'


@st.composite
def csv_text(draw, rows):
    """The rows as CSV text: some fields quoted, some blank lines, LF or CRLF."""
    lines = [",".join(PRICES_HEADER)]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1))
        fields = [quote(f) if any(c in f for c in ',"\n\r') or draw(st.booleans()) else f for f in row]
        lines.append(",".join(fields))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


FILTER = st.none() | st.lists(st.sampled_from(["A", "B", "C", "Z"]), min_size=1, max_size=3, unique=True)
START = st.none() | DAY


@st.composite
def price_files(draw):
    rows = draw(good_rows())
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_row()))
    return draw(csv_text(rows)), draw(FILTER), draw(START)


def options(tickers, start):
    kwargs = {}
    if tickers is not None:
        kwargs["tickers"] = tickers
    if start is not None:
        kwargs["start_date"] = start
    return kwargs


@pytest.fixture(scope="module")
def prices_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "prices.csv"


def write(path, text):
    path.write_bytes(text.encode("utf-8"))


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Chunks of 64 bytes, about four rows, and blocks of 4 rows."""
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    monkeypatch.setattr(ingest, "BLOCK_ROWS", 4)


# clean files, which the clean-file reader takes: three tickers of three days
CLEAN = "ticker,date,adj_close\n" + "".join(
    f"{t},{d.isoformat()},{i + 1}\n" for i, (t, d) in enumerate((t, d) for t in "ABC" for d in DAYS[:3]))


def check_matches_reference(prices_path):
    @settings(deadline=None, max_examples=150)
    @given(price_files())
    # last occurrence wins across text forms of one date and padded tickers
    @example(("ticker,date,adj_close\nA,2019-01-02,1\n A,20190102,2\nA ,2019-01-03,3\n"
              "A,2019-01-04,4\nA,2019-01-04,5\n", None, None))
    # a bad row of a filtered-out ticker, and one before the start date
    @example(("ticker,date,adj_close\nB,2019-01-02,1\nB,2019-01-03,abc\n", ["A"], None))
    @example(("ticker,date,adj_close\nA,2019-01-02,0\n", None, DAYS[3]))
    # a quoted field that runs on to the next line moves the line numbers
    @example(('ticker,date,adj_close\nA,"2019-01-02\n",1\nA,2019-01-03,nan\n', None, None))
    # clean files: a ticker filter, a start date inside a run, a duplicate
    # inside a run, and a ticker that comes back later
    @example((CLEAN, ["B", "Z"], None))
    @example((CLEAN, None, DAYS[1]))
    @example((CLEAN + "C,2019-01-04,7\nC,2019-01-04,8\nC,2019-01-05,9\n", None, None))
    @example((CLEAN + "A,2019-01-02,7\nA,2019-01-05,8\n", ["A", "C"], DAYS[1]))
    # 64-byte chunks cut right after the fourth row, on a change of ticker
    @example(("ticker,date,adj_close\n" + "".join(f"A,{d.isoformat()},1{i}\n" for i, d in enumerate(DAYS[:4]))
              + "B,2019-01-02,1\nB,2019-01-03,2\nB,2019-01-04,3\n", None, None))
    # a 2-field line and a 4-field line hold four commas between them
    @example(("ticker,date,adj_close\nA,2019-01-02,1\nA,2019-01-03\n2,A,2019-01-04,3\n", None, None))
    # a clean line with a field longer than csv.field_size_limit()
    @example((CLEAN + "A" * (csv.field_size_limit() + 1) + ",2019-01-02,1\n", None, None))
    # no final newline, and blank lines at the end
    @example((CLEAN.rstrip("\n"), None, None))
    @example((CLEAN + "\n\n", None, None))
    def check(case):
        text, tickers, start = case
        write(prices_path, text)
        kwargs = options(tickers, start)
        assert outcome(load_price_table, prices_path, **kwargs) == outcome(
            reference_load, prices_path, **kwargs)

    check()


def test_matches_the_reference_loader(prices_path):
    check_matches_reference(prices_path)


def test_matches_the_reference_loader_in_tiny_chunks(prices_path, tiny_chunks):
    check_matches_reference(prices_path)


@st.composite
def shuffled_files(draw):
    """A duplicate-free file, and the same rows in another order."""
    rows = draw(st.lists(st.tuples(TICKER, DAY, PRICE_TEXT), max_size=18,
                         unique_by=lambda row: (row[0].strip(), row[1])))
    rows = [[ticker, date_text(draw, day), price] for ticker, day, price in rows]
    shuffled = draw(st.permutations(rows))
    return draw(csv_text(rows)), draw(csv_text(shuffled)), draw(FILTER), draw(START)


def check_row_order_does_not_matter(prices_path):
    @settings(deadline=None, max_examples=80)
    @given(shuffled_files())
    def check(case):
        text, shuffled, tickers, start = case
        kwargs = options(tickers, start)
        write(prices_path, text)
        before = outcome(load_price_table, prices_path, **kwargs)
        assert before == outcome(reference_load, prices_path, **kwargs)
        write(prices_path, shuffled)
        after = outcome(load_price_table, prices_path, **kwargs)
        assert after[0] == before[0]
        if before[0] == "ok":
            assert after[1] == before[1]
        assert sorted(after[-1]) == sorted(before[-1])

    check()


def test_row_order_does_not_matter_without_duplicates(prices_path):
    check_row_order_does_not_matter(prices_path)


def test_row_order_does_not_matter_in_tiny_chunks(prices_path, tiny_chunks):
    check_row_order_does_not_matter(prices_path)
