"""Price CSV ingestion tests."""

import datetime as dt
import re

import numpy as np
import pytest

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
