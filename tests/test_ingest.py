"""Price CSV ingestion tests."""

import datetime as dt

import pytest

from tscnet.errors import EmptyList, FormatError, NoData
from tscnet.ingest import (
    PriceSeries,
    PriceTable,
    load_price_table,
    parse_ticker_list,
)


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
"""


class TestParseTickerList:
    def test_newlines_and_commas(self):
        assert parse_ticker_list("AAA\nBBB, CCC\nDDD") == ["AAA", "BBB", "CCC", "DDD"]

    def test_dedup_keeps_first(self):
        assert parse_ticker_list("AAA,BBB,AAA\nBBB") == ["AAA", "BBB"]

    def test_blank_entries_skipped(self):
        assert parse_ticker_list("\nAAA,,\n ,BBB\n") == ["AAA", "BBB"]

    def test_empty_raises(self):
        with pytest.raises(EmptyList):
            parse_ticker_list("\n , ,\n")


class TestPriceSeries:
    def test_valid(self):
        s = PriceSeries("AAA", (dt.date(2019, 1, 2), dt.date(2019, 1, 3)), (1.0, 2.0))
        assert len(s) == 2

    def test_length_mismatch(self):
        with pytest.raises(FormatError):
            PriceSeries("AAA", (dt.date(2019, 1, 2),), (1.0, 2.0))

    def test_too_short(self):
        with pytest.raises(FormatError):
            PriceSeries("AAA", (dt.date(2019, 1, 2),), (1.0,))

    def test_dates_must_increase(self):
        with pytest.raises(FormatError):
            PriceSeries("AAA", (dt.date(2019, 1, 3), dt.date(2019, 1, 2)), (1.0, 2.0))
        with pytest.raises(FormatError):
            PriceSeries("AAA", (dt.date(2019, 1, 2), dt.date(2019, 1, 2)), (1.0, 2.0))

    def test_positive_closes(self):
        with pytest.raises(FormatError):
            PriceSeries("AAA", (dt.date(2019, 1, 2), dt.date(2019, 1, 3)), (1.0, 0.0))

    def test_table_rejects_duplicate_ticker(self):
        s = PriceSeries("AAA", (dt.date(2019, 1, 2), dt.date(2019, 1, 3)), (1.0, 2.0))
        table = PriceTable()
        table.add(s)
        with pytest.raises(FormatError):
            table.add(s)


class TestLoadPriceTable:
    def test_happy_path(self, tmp_path):
        table, warnings = load_price_table(_write(tmp_path, GOOD_CSV))
        assert warnings == []
        assert table.tickers() == ["AAA", "BBB"]
        assert table["AAA"].closes == (100.0, 101.5, 99.25)
        assert table["BBB"].dates == (dt.date(2019, 1, 2), dt.date(2019, 1, 3))

    def test_rows_sorted_by_date(self, tmp_path):
        text = (
            "ticker,date,adj_close\n"
            "AAA,2019-01-04,3.0\n"
            "AAA,2019-01-02,1.0\n"
            "AAA,2019-01-03,2.0\n"
        )
        table, _ = load_price_table(_write(tmp_path, text))
        assert table["AAA"].closes == (1.0, 2.0, 3.0)

    def test_bad_header(self, tmp_path):
        with pytest.raises(FormatError, match="bad header"):
            load_price_table(_write(tmp_path, "symbol,date,close\nAAA,2019-01-02,1.0\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(FormatError, match="empty file"):
            load_price_table(_write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot open"):
            load_price_table(tmp_path / "absent.csv")

    def test_bad_field_count(self, tmp_path):
        with pytest.raises(FormatError, match="line 2"):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02\n"))

    def test_bad_date(self, tmp_path):
        with pytest.raises(FormatError, match="bad date"):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\nAAA,02/01/2019,1.0\n"))

    def test_bad_price(self, tmp_path):
        with pytest.raises(FormatError, match="bad price"):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,abc\n"))

    def test_non_positive_price(self, tmp_path):
        with pytest.raises(FormatError, match="non-positive"):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,-4\n"))

    @pytest.mark.parametrize("price", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_price(self, tmp_path, price):
        text = f"ticker,date,adj_close\nAAA,2019-01-02,1.0\nAAA,2019-01-03,{price}\n"
        with pytest.raises(FormatError, match="line 3: non-finite price"):
            load_price_table(_write(tmp_path, text))

    def test_duplicate_date_keeps_last(self, tmp_path):
        text = (
            "ticker,date,adj_close\n"
            "AAA,2019-01-02,1.0\n"
            "AAA,2019-01-02,9.0\n"
            "AAA,2019-01-03,2.0\n"
        )
        table, warnings = load_price_table(_write(tmp_path, text))
        assert table["AAA"].closes == (9.0, 2.0)
        assert any("kept last occurrence" in w for w in warnings)

    def test_ticker_filter(self, tmp_path):
        table, warnings = load_price_table(_write(tmp_path, GOOD_CSV), tickers=["AAA"])
        assert table.tickers() == ["AAA"]
        assert any(w.startswith("BBB: excluded, not in ticker filter") for w in warnings)

    def test_filter_ticker_missing_from_file(self, tmp_path):
        table, warnings = load_price_table(_write(tmp_path, GOOD_CSV), tickers=["AAA", "ZZZ"])
        assert table.tickers() == ["AAA"]
        assert any(w.startswith("ZZZ: excluded, no rows in file") for w in warnings)

    def test_start_date_drops_rows(self, tmp_path):
        table, _ = load_price_table(_write(tmp_path, GOOD_CSV), start_date=dt.date(2019, 1, 3))
        assert table["AAA"].dates == (dt.date(2019, 1, 3), dt.date(2019, 1, 4))

    def test_single_row_ticker_excluded(self, tmp_path):
        text = GOOD_CSV + "CCC,2019-01-02,7.0\n"
        table, warnings = load_price_table(_write(tmp_path, text))
        assert "CCC" not in table.tickers()
        assert any(w.startswith("CCC: excluded, fewer than 2 usable rows") for w in warnings)

    def test_ticker_fully_before_start_date_is_warned(self, tmp_path):
        # every excluded-but-present ticker must be named in the warnings
        table, warnings = load_price_table(
            _write(tmp_path, GOOD_CSV), start_date=dt.date(2019, 1, 3)
        )
        assert "BBB" not in table.tickers()
        assert any(w.startswith("BBB: excluded") for w in warnings)

    def test_no_data(self, tmp_path):
        with pytest.raises(NoData):
            load_price_table(_write(tmp_path, "ticker,date,adj_close\nAAA,2019-01-02,1.0\n"))

    def test_exclusion_warning_property(self, tmp_path):
        # mixed failure modes: every input ticker missing from the output is warned about
        text = (
            "ticker,date,adj_close\n"
            "AAA,2019-01-02,1.0\n"
            "AAA,2019-01-03,1.1\n"
            "SHT,2019-01-02,5.0\n"
            "OLD,2018-06-01,3.0\n"
            "OLD,2018-06-02,3.1\n"
        )
        table, warnings = load_price_table(_write(tmp_path, text), start_date=dt.date(2019, 1, 1))
        present = set(table.tickers())
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
        assert loaded["AAA"].closes == closes
        assert loaded["AAA"].dates == dates
