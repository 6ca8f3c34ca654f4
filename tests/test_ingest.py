"""Price CSV ingestion tests."""

import csv
import datetime as dt
import mmap
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import write_prices_csv
from tscnet import ingest
from tscnet.errors import NoData, TscnetError
from tscnet.ingest import load_price_table, parse_ticker_list


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD_CSV = """ticker,date,adj_close
AAA,2019-01-02,100.0
AAA,2019-01-03,101.5
AAA,2019-01-04,99.25
BBB,2019-01-02,50.0
BBB,2019-01-03,50.5
BBB,2019-01-04,50.25
"""


class TestParseTickerList:
    def test_newlines_and_commas(self):
        assert parse_ticker_list("AAA\nBBB, CCC\nDDD") == ["AAA", "BBB", "CCC", "DDD"]

    def test_dedup_keeps_first(self):
        assert parse_ticker_list("AAA,BBB,AAA\nBBB") == ["AAA", "BBB"]

    def test_blank_entries_skipped(self):
        assert parse_ticker_list("\nAAA,,\n ,BBB\n") == ["AAA", "BBB"]

    def test_empty_raises(self):
        with pytest.raises(TscnetError, match=r"^no ticker symbols found$"):
            parse_ticker_list("\n , ,\n")


class TestPriceSeries:
    """One ticker's closes, as load_price_table builds them."""

    def test_valid(self, tmp_path):
        closes, _ = load_price_table(_write(tmp_path, GOOD_CSV))
        assert closes["AAA"].dtype == np.float64
        assert closes["AAA"].shape == (3,)

    def test_too_short(self, tmp_path):
        # two rows give one return, too few for a sample standard deviation
        text = GOOD_CSV + "TWO,2019-01-02,1.0\nTWO,2019-01-03,2.0\n"
        closes, warnings = load_price_table(_write(tmp_path, text))
        assert list(closes) == ["AAA", "BBB"]
        assert "TWO: excluded, fewer than 3 usable rows" in warnings

    def test_positive_closes(self, tmp_path):
        text = "ticker,date,adj_close\nAAA,2019-01-02,1.0\nAAA,2019-01-03,0.0\n"
        with pytest.raises(TscnetError, match=r"prices\.csv line 3: non-positive price 0\.0$"):
            load_price_table(_write(tmp_path, text))

    @pytest.mark.parametrize("ticker", ["A,B", "A\nB", "A\rB", "A\x00B"])
    def test_ticker_must_fit_one_csv_field(self, tmp_path, ticker):
        text = f'ticker,date,adj_close\nAAA,2019-01-02,1.0\n"{ticker}",2019-01-02,1.0\n'
        with pytest.raises(TscnetError, match=r"prices\.csv line 3: ticker .* comma or a non-printable character$"):
            load_price_table(_write(tmp_path, text))

    def test_quoted_ticker_with_comma_rejected_on_load(self, tmp_path):
        path = _write(tmp_path, 'ticker,date,adj_close\n"A,B",2019-01-02,1.0\n"A,B",2019-01-03,2.0\n')
        with pytest.raises(TscnetError) as caught:
            load_price_table(path)
        assert str(caught.value) == (
            f"{path} line 2: ticker 'A,B' holds a comma or a non-printable character"
        )

    def test_bad_ticker_rejected_even_when_filtered_out(self, tmp_path):
        text = GOOD_CSV + '"A,B",2019-01-02,1.0\n'
        with pytest.raises(TscnetError, match=r"prices\.csv line 8: ticker 'A,B'"):
            load_price_table(_write(tmp_path, text), tickers=["AAA"])

    def test_empty_ticker_names_line(self, tmp_path):
        with pytest.raises(TscnetError, match=r"prices\.csv line 2: empty ticker$"):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\n ,2019-01-02,1.0\n"))


class TestLoadPriceTable:
    def test_happy_path(self, tmp_path):
        closes, warnings = load_price_table(_write(tmp_path, GOOD_CSV))
        assert warnings == []
        assert list(closes) == ["AAA", "BBB"]
        assert closes["AAA"].tolist() == [100.0, 101.5, 99.25]
        assert closes["BBB"].tolist() == [50.0, 50.5, 50.25]

    def test_rows_sorted_by_date(self, tmp_path):
        text = (
            "ticker,date,adj_close\n"
            "AAA,2019-01-04,3.0\n"
            "AAA,2019-01-02,1.0\n"
            "AAA,2019-01-03,2.0\n"
        )
        closes, _ = load_price_table(_write(tmp_path, text))
        assert closes["AAA"].tolist() == [1.0, 2.0, 3.0]

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "symbol,date,close\nAAA,2019-01-02,1.0\n")
        message = f"{path}: bad header ['symbol', 'date', 'close'], expected ['ticker', 'date', 'adj_close']"
        with pytest.raises(TscnetError, match=f"^{re.escape(message)}$"):
            load_price_table(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))}: empty file$"):
            load_price_table(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(TscnetError, match=f"^cannot open {re.escape(str(path))}: .*No such file"):
            load_price_table(path)

    def test_bad_field_count(self, tmp_path):
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02\n")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 2: expected 3 fields, got 2$"):
            load_price_table(path)

    def test_bad_date(self, tmp_path):
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,02/01/2019,1.0\n")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 2: bad date '02/01/2019': "):
            load_price_table(path)

    def test_row_error_names_file(self, tmp_path):
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,1.0\nAAA,someday,2.0\n")
        with pytest.raises(TscnetError, match=r"prices\.csv line 3: bad date 'someday': "):
            load_price_table(path)

    def test_line_numbers_count_quoted_newlines(self, tmp_path):
        # the quoted price of line 2 runs on to line 3
        path = _write(tmp_path, 'ticker,date,adj_close\nAAA,2019-01-02,"1.0\n"\nAAA,2019-01-03,abc\n')
        with pytest.raises(TscnetError, match=r"prices\.csv line 4: bad price 'abc'$"):
            load_price_table(path)

    def test_blank_line_skipped_and_counted(self, tmp_path):
        # a blank line is no row, but it still moves the line numbers on
        closes, warnings = load_price_table(_write(tmp_path, GOOD_CSV.replace("BBB,", "\nBBB,", 1)))
        assert warnings == []
        assert closes["AAA"].tolist() == [100.0, 101.5, 99.25]
        assert closes["BBB"].tolist() == [50.0, 50.5, 50.25]
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,1.0\n\n\nAAA,2019-01-03,abc\n")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 5: bad price 'abc'$"):
            load_price_table(path)

    def test_oversized_field_is_format_error(self, tmp_path):
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,1.0\n" + "A" * 200_000 + ",2019-01-03,1\n")
        with pytest.raises(TscnetError, match=r"prices\.csv line 3: field larger than field limit"):
            load_price_table(path)

    def test_bad_price(self, tmp_path):
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,abc\n")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 2: bad price 'abc'$"):
            load_price_table(path)

    def test_non_positive_price(self, tmp_path):
        path = _write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,-4\n")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 2: non-positive price -4.0$"):
            load_price_table(path)

    @pytest.mark.parametrize("price", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_price(self, tmp_path, price):
        text = f"ticker,date,adj_close\nAAA,2019-01-02,1.0\nAAA,2019-01-03,{price}\n"
        with pytest.raises(TscnetError, match=rf"prices\.csv line 3: non-finite price '{price}'$"):
            load_price_table(_write(tmp_path, text))

    def test_duplicate_date_keeps_last(self, tmp_path):
        text = (
            "ticker,date,adj_close\n"
            "AAA,2019-01-02,1.0\n"
            "AAA,2019-01-02,9.0\n"
            "AAA,2019-01-03,2.0\n"
            "AAA,2019-01-04,3.0\n"
        )
        closes, warnings = load_price_table(_write(tmp_path, text))
        assert closes["AAA"].tolist() == [9.0, 2.0, 3.0]
        assert any("kept last occurrence" in w for w in warnings)

    def test_ticker_filter(self, tmp_path):
        closes, warnings = load_price_table(_write(tmp_path, GOOD_CSV), tickers=["AAA"])
        assert list(closes) == ["AAA"]
        assert any(w.startswith("BBB: excluded, not in ticker filter") for w in warnings)

    def test_filter_ticker_missing_from_file(self, tmp_path):
        closes, warnings = load_price_table(_write(tmp_path, GOOD_CSV), tickers=["AAA", "ZZZ"])
        assert list(closes) == ["AAA"]
        assert any(w.startswith("ZZZ: excluded, no rows in file") for w in warnings)

    def test_start_date_drops_rows(self, tmp_path):
        text = GOOD_CSV + "AAA,2019-01-07,98.0\n"
        closes, _ = load_price_table(_write(tmp_path, text), start_date=dt.date(2019, 1, 3))
        # one distinct close per date pins which rows were kept, and their order
        assert closes["AAA"].tolist() == [101.5, 99.25, 98.0]

    def test_single_row_ticker_excluded(self, tmp_path):
        text = GOOD_CSV + "CCC,2019-01-02,7.0\n"
        closes, warnings = load_price_table(_write(tmp_path, text))
        assert "CCC" not in closes
        assert any(w.startswith("CCC: excluded, fewer than 3 usable rows") for w in warnings)

    def test_ticker_fully_before_start_date_is_warned(self, tmp_path):
        # every excluded-but-present ticker must be named in the warnings
        text = GOOD_CSV.replace("BBB,2019-01-0", "BBB,2018-12-0")
        closes, warnings = load_price_table(_write(tmp_path, text), start_date=dt.date(2019, 1, 1))
        assert "BBB" not in closes
        assert any(w.startswith("BBB: excluded") for w in warnings)

    def test_no_data(self, tmp_path):
        with pytest.raises(NoData, match=r"prices\.csv: no ticker with at least 3 usable rows"):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,1.0\n"))

    def test_no_data_carries_the_exclusions(self, tmp_path):
        text = "ticker,date,adj_close\n" + "".join(
            f"{t},2019-01-0{d},{d}.0\n" for t in ("AAA", "BBB") for d in (2, 3)
        )
        with pytest.raises(NoData) as caught:
            load_price_table(_write(tmp_path, text))
        assert caught.value.warnings == [
            "AAA: excluded, fewer than 3 usable rows",
            "BBB: excluded, fewer than 3 usable rows",
        ]

    def test_exclusion_warning_property(self, tmp_path):
        # mixed failure modes: every input ticker missing from the output is warned about
        text = (
            "ticker,date,adj_close\n"
            "AAA,2019-01-02,1.0\n"
            "AAA,2019-01-03,1.1\n"
            "AAA,2019-01-04,1.2\n"
            "SHT,2019-01-02,5.0\n"
            "OLD,2018-06-01,3.0\n"
            "OLD,2018-06-02,3.1\n"
        )
        closes, warnings = load_price_table(_write(tmp_path, text), start_date=dt.date(2019, 1, 1))
        present = set(closes)
        warned = {w.split(":")[0] for w in warnings}
        assert present == {"AAA"}
        assert {"SHT", "OLD"} <= warned


def _outcome(path, **kwargs):
    """What load_price_table did, in a form that compares closes bit for bit."""
    try:
        closes, warnings = load_price_table(path, **kwargs)
    except NoData as exc:
        return "no data", str(exc), exc.warnings
    except TscnetError as exc:
        return "error", str(exc)
    return "ok", [(t, c.tobytes()) for t, c in closes.items()], warnings


def _row_reader_outcome(path, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(ingest, "_read_clean", lambda *args: None)
        return _outcome(path, **kwargs)


def _date_ordered(tickers, days):
    return "ticker,date,adj_close\n" + "".join(
        f"T{t:02d},2019-01-{d + 2:02d},{t + d + 1}\n" for d in range(days) for t in range(tickers))


class TestCleanFileReader:
    """The clean-file reader takes files it can prove clean and gives every
    other file, unread, to the row reader."""

    @pytest.mark.parametrize("text, kwargs", [
        (GOOD_CSV, {}),
        (GOOD_CSV.rstrip("\n"), {}),
        (GOOD_CSV + "\n\n\n", {}),
        # AAA comes back for a second run, with later dates
        (GOOD_CSV + "AAA,2019-01-07,7.0\n", {}),
        (GOOD_CSV + "AAA,2019-01-07,8.0\n", {"tickers": ["AAA", "ZZZ"], "start_date": dt.date(2019, 1, 3)}),
        (GOOD_CSV.replace("BBB,", " BBB,", 1), {}),
    ], ids=["grouped", "no-final-newline", "trailing-blank-lines", "later-run", "filter-and-start",
            "padded-ticker"])
    def test_clean_file_reads_no_csv_row(self, tmp_path, monkeypatch, text, kwargs):
        path = _write(tmp_path, text)
        expected = _row_reader_outcome(path, monkeypatch, **kwargs)
        readers = []
        real_reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *args: readers.append(args) or real_reader(*args))
        assert _outcome(path, **kwargs) == expected
        assert readers == []

    def test_two_runs_of_a_ticker_in_one_chunk_stay_clean(self, tmp_path, monkeypatch):
        # each 64-byte chunk holds AAA, BBB and AAA again, with AAA's dates rising
        text = "ticker,date,adj_close\n" + "".join(
            f"AAA,2019-01-{2 * d + 2:02d},{d + 1}\nBBB,2019-01-{d + 2:02d},{d + 5}\nAAA,2019-01-{2 * d + 3:02d},{d + 9}\n"
            for d in range(4))
        path = _write(tmp_path, text)
        expected = _row_reader_outcome(path, monkeypatch)
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
        assert ingest._read_clean(path, None, dt.date.min) is not None
        assert _outcome(path) == expected
        assert load_price_table(path)[0]["AAA"].tolist() == [1, 9, 2, 10, 3, 11, 4, 12]

    def test_blank_lines_ending_a_chunk_stay_clean(self, tmp_path, monkeypatch):
        # the trailing blank lines start exactly at the second read
        text = GOOD_CSV + "\n\n"
        monkeypatch.setattr(ingest, "CHUNK_BYTES", len(GOOD_CSV) - len("ticker,date,adj_close\n"))
        assert ingest._read_clean(_write(tmp_path, text), None, dt.date.min) is not None

    @pytest.mark.parametrize("text", [
        GOOD_CSV.replace("\n", "\r\n"),
        GOOD_CSV.replace("AAA,2019-01-03,101.5", 'AAA,2019-01-03,"101.5"'),
        # a quote far from the start, after the first chunks were stored
        GOOD_CSV + "".join(f"CCC,{dt.date(2000, 1, 1) + dt.timedelta(days=i)},1.5\n" for i in range(2000))
        + '"DDD",2019-01-02,1.0\n',
        GOOD_CSV.replace("BBB,", "\nBBB,", 1),
        GOOD_CSV + "BBB,2019-01-07,abc\n",
        GOOD_CSV + "BBB,2019-01-07,0\n",
        GOOD_CSV + "BBB,2019-01-07\n",
        GOOD_CSV + "BBB,2019-01-07,1.0,x\n",
        GOOD_CSV + "BBB,2019-13-07,1.0\n",
        GOOD_CSV + "B\x00B,2019-01-07,1.0\n",
        GOOD_CSV.replace("ticker,date,adj_close", "ticker,date,adj_close,"),
        _date_ordered(40, 5),
        # a ticker's kept dates must rise strictly: within a run...
        GOOD_CSV.replace("AAA,2019-01-03", "AAA,2019-01-02"),
        GOOD_CSV.replace("AAA,2019-01-03,101.5\nAAA,2019-01-04", "AAA,2019-01-04,101.5\nAAA,2019-01-03"),
        # ... and from a ticker's run to its next: a late correction row
        GOOD_CSV + "AAA,2019-01-03,7.0\n",
        GOOD_CSV + "AAA,2019-01-04,7.0\n",
        # AAA's last date is carried over many chunks
        GOOD_CSV + "".join(f"CCC,{dt.date(2000, 1, 1) + dt.timedelta(days=i)},1.5\n" for i in range(2000))
        + "AAA,2019-01-03,7.0\n",
    ], ids=["crlf", "quote", "late-quote", "blank-line", "bad-last-price", "zero-price", "short-row",
            "long-row", "bad-date", "nul", "header", "date-ordered", "repeated-date", "earlier-date",
            "late-row", "late-row-same-date", "late-row-far"])
    def test_a_doubt_gives_the_row_readers_outcome(self, tmp_path, monkeypatch, text):
        path = _write(tmp_path, text)
        assert ingest._read_clean(path, None, dt.date.min) is None
        assert _outcome(path) == _row_reader_outcome(path, monkeypatch)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self, tmp_path):
        # a date-ordered file, which the clean-file reader would give up on
        # after reading some of it
        text = _date_ordered(40, 5)
        expected = _outcome(_write(tmp_path, text))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())
            os.close(write_end)
            assert _outcome(f"/dev/fd/{read_end}") == expected
        finally:
            os.close(read_end)

    def test_a_few_runs_per_ticker_stay_clean(self, tmp_path):
        # 30 tickers of 40 days, each in two halves: 60 runs in 1200 rows,
        # under the limit of 32 runs plus one per 32 rows
        days = [dt.date(2019, 1, 2) + dt.timedelta(days=d) for d in range(40)]
        text = "ticker,date,adj_close\n" + "".join(
            f"T{t:02d},{days[d].isoformat()},{t + d + 1}\n" for half in (range(25), range(25, 40))
            for t in range(30) for d in half)
        path = _write(tmp_path, text)
        assert ingest._read_clean(path, None, dt.date.min) is not None
        closes, _ = load_price_table(path)
        assert closes["T07"].tolist() == [float(8 + d) for d in range(40)]

    @pytest.mark.parametrize("row", [b"C\xffC,2019-01-02,1\n", b"CCC,2019-01-02,1\xff\n"])
    def test_non_utf8_byte(self, tmp_path, row):
        path = tmp_path / "prices.csv"
        path.write_bytes(GOOD_CSV.encode() + row)
        assert ingest._read_clean(path, None, dt.date.min) is None
        assert _outcome(path) == ("error", f"{path}: not UTF-8 text (invalid start byte)")

    @pytest.mark.parametrize("at, message", [
        (2_000, "not UTF-8 text (invalid start byte)"),
        (12_000, "line 3: bad price 'abc'"),
        (100_000, "line 3: bad price 'abc'"),
    ])
    def test_first_error_does_not_depend_on_read_ahead(self, tmp_path, at, message):
        # which of a bad row and a later non-UTF-8 byte is reported depends
        # only on the row reader's own decoding, not on how far the
        # clean-file reader read before it gave up
        text = "ticker,date,adj_close\nAAA,2019-01-02,1\nAAA,2019-01-03,abc\n"
        day = dt.date(2000, 1, 1)
        while len(text) < at:
            text += f"BBB,{day.isoformat()},2\n"
            day += dt.timedelta(days=1)
        path = tmp_path / "prices.csv"
        path.write_bytes(text.encode() + b"CCC,2019-01-02,\xff\n")
        sep = ":" if message.startswith("not") else ""
        assert _outcome(path) == ("error", f"{path}{sep} {message}")

    def test_closes_are_views_freed_with_the_table(self, tmp_path, monkeypatch):
        # with 4-row blocks AAA (rows 0-2) is a view of the first block, and
        # BBB (3-5) and CCC (6-12) span blocks, so theirs are copies of their runs
        monkeypatch.setattr(ingest, "BLOCK_ROWS", 4)
        text = GOOD_CSV + "".join(f"CCC,2019-01-{d:02d},{d}.5\n" for d in range(2, 9))
        closes, _ = load_price_table(_write(tmp_path, text))
        assert closes["AAA"].base is not None
        assert closes["BBB"].base is None and closes["CCC"].base is None
        assert closes["CCC"].tolist() == [2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5]
        bases = [weakref.ref(c if c.base is None else c.base) for c in closes.values()]
        del closes
        assert [ref() for ref in bases] == [None] * len(bases)


class TestRoundTrip:
    def test_write_then_load_is_bitwise(self, tmp_path):
        closes = (100.0, 100.1, 99.97, 101.123456789012345)
        dates = tuple(dt.date(2019, 1, 2) + dt.timedelta(days=i) for i in range(4))
        text = "ticker,date,adj_close\n" + "".join(
            f"AAA,{d.isoformat()},{c!r}\n" for d, c in zip(dates, closes)
        )
        loaded, warnings = load_price_table(_write(tmp_path, text))
        assert warnings == []
        # distinct closes, so equal lists also pin the date order
        assert loaded["AAA"].tolist() == list(closes)


class TestMemory:
    def test_peak_per_row_is_bounded(self, tmp_path):
        # 125 tickers of 1600 closes: 200,000 rows. The clean-file reader
        # keeps 8 bytes a row, the row reader 12 in its columns and the
        # output 8; the rest of the bound is slack.
        path = tmp_path / "prices.csv"
        write_prices_csv(path, [(f"T{i:03d}", 0.2, 0.1) for i in range(125)], n_returns=1599)
        tracemalloc.start()
        try:
            closes, warnings = load_price_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warnings == []
        assert sum(len(c) for c in closes.values()) == 200_000
        assert peak / 200_000 < 16

    @pytest.mark.parametrize("reader", ["clean", "rows"])
    def test_peak_per_row_with_the_blocks_is_bounded(self, tmp_path, monkeypatch, reader):
        # the traced peak plus the bytes of any memory map, which tracemalloc
        # does not see. The clean-file reader stores 8 bytes a row, a close,
        # and the output is views of its blocks; the row reader stores 12 in
        # its columns and writes the sorted closes out, 8 more.
        bound = {"clean": 11, "rows": 16}[reader]
        path = tmp_path / "prices.csv"
        write_prices_csv(path, [(f"T{i:03d}", 0.2, 0.1) for i in range(125)], n_returns=1599)
        mapped = []

        class Recorded(mmap.mmap):
            def __new__(cls, *args, **kwargs):
                mapped.append(super().__new__(cls, *args, **kwargs))
                return mapped[-1]

        monkeypatch.setattr(mmap, "mmap", Recorded)
        readers = []
        real_reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *args: readers.append(args) or real_reader(*args))
        if reader == "rows":
            monkeypatch.setattr(ingest, "_read_clean", lambda *args: None)
        tracemalloc.start()
        try:
            closes, _ = load_price_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(c) for c in closes.values()) == 200_000
        assert (reader == "rows") == bool(readers)
        assert (peak + sum(len(m) for m in mapped)) / 200_000 < bound
