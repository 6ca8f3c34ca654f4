"""Feature computation tests: annualized volatility and return of the log returns.

Numeric results are checked against independent oracles written with plain
math loops, not against the numpy implementation under test. The log
returns and the sample std are internal to ``build_feature_table``; with
``trading_days=1`` its features are the std and the mean of the returns.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import records_of
from tscnet.errors import TscnetError
from tscnet.features import TRADING_DAYS, build_feature_table
from tscnet.pipeline import LABELS_COLUMNS, labels_csv, read_labels_csv


def oracle_log_returns(prices):
    return [math.log(prices[i + 1] / prices[i]) for i in range(len(prices) - 1)]


def oracle_std(values):
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def features_of(prices, trading_days=TRADING_DAYS):
    """(volatility, ret) of one ticker's closes."""
    tickers, X = build_feature_table({"AAA": np.array(prices, dtype=float)}, trading_days)
    assert tickers == ("AAA",) and X.shape == (1, 2)
    return tuple(X[0])


def short_series(ticker, size):
    return f"^{ticker}: need at least 3 closes, all finite and > 0, got {size}$"


class TestLogReturns:
    def test_matches_elementwise_oracle(self):
        prices = [100.0, 110.0, 105.0, 105.0, 91.3, 120.77]
        rets = oracle_log_returns(prices)
        vol, ret = features_of(prices, trading_days=1)
        assert ret == pytest.approx(sum(rets) / len(rets), abs=1e-15)
        assert vol == pytest.approx(oracle_std(rets), rel=1e-12)

    def test_known_values(self):
        # returns ln(1.1) and ln(105/110): their mean and Bessel std in closed form
        r0, r1 = math.log(1.1), math.log(105.0 / 110.0)
        vol, ret = features_of([100.0, 110.0, 105.0], trading_days=1)
        assert ret == pytest.approx((r0 + r1) / 2, abs=1e-15)
        assert vol == pytest.approx(abs(r0 - r1) / math.sqrt(2.0), abs=1e-15)

    def test_flat_series_is_zero(self):
        assert features_of([5.0, 5.0, 5.0]) == (0.0, 0.0)

    def test_too_short(self):
        with pytest.raises(TscnetError, match=short_series("AAA", 1)):
            features_of([100.0])

    def test_non_positive_price(self):
        for prices in ([100.0, -1.0, 50.0], [0.0, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.inf]):
            with pytest.raises(TscnetError, match=short_series("AAA", 3)):
                features_of(prices)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=3, max_size=50),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, prices, scale):
        base = features_of(prices, trading_days=1)
        scaled = features_of([p * scale for p in prices], trading_days=1)
        assert np.max(np.abs(np.subtract(base, scaled))) < 1e-12

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=3, max_size=40))
    def test_length_contract(self, prices):
        # the returns telescope: T closes give T - 1 returns summing to ln(last / first)
        _, ret = features_of(prices, trading_days=1)
        assert ret == pytest.approx(math.log(prices[-1] / prices[0]) / (len(prices) - 1), abs=1e-12)


class TestSampleStd:
    def test_matches_direct_summation(self):
        prices = [100.0, 101.0, 100.7, 103.2, 103.2, 101.5, 101.9]
        rets = oracle_log_returns(prices)
        vol, _ = features_of(prices, trading_days=1)
        assert vol == pytest.approx(oracle_std(rets), rel=1e-12)

    def test_two_points(self):
        # returns {0, ln 4}: the Bessel-corrected std is sqrt(2) * ln 2
        vol, _ = features_of([1.0, 1.0, 4.0], trading_days=1)
        assert vol == pytest.approx(math.sqrt(2.0) * math.log(2.0), rel=1e-15)

    def test_constant_is_zero(self):
        # each return is exactly ln 2
        vol, _ = features_of([3.0, 6.0, 12.0, 24.0])
        assert vol == 0.0

    def test_too_short(self):
        with pytest.raises(TscnetError, match=short_series("AAA", 0)):
            features_of([])


class TestAnnualize:
    def test_formulas(self):
        prices = [100.0, 100.1, 99.9, 99.95, 100.26, 100.19]
        rets = oracle_log_returns(prices)
        vol, ret = features_of(prices)
        assert vol == pytest.approx(oracle_std(rets) * math.sqrt(252), rel=1e-12)
        assert ret == pytest.approx(sum(rets) / len(rets) * 252, rel=1e-12)

    def test_custom_trading_days(self):
        prices = [10.0, 10.1, 10.0, 10.2]
        rets = oracle_log_returns(prices)
        vol, ret = features_of(prices, trading_days=10)
        assert vol == pytest.approx(oracle_std(rets) * math.sqrt(10), rel=1e-12)
        assert ret == pytest.approx(sum(rets) / 3 * 10, rel=1e-12)

    def test_volatility_non_negative(self):
        vol, _ = features_of([20.0, 21.0, 20.4, 20.6])
        assert vol >= 0.0

    def test_needs_two_returns(self):
        # two closes give one return, too few for a sample std at any trading_days
        with pytest.raises(TscnetError, match=short_series("AAA", 2)):
            features_of([10.0, 10.1], trading_days=10)


class TestBuildFeatureTable:
    def test_ticker_order_and_values(self):
        # rows follow the order of the mapping; load_price_table gives ticker order
        closes = {"BBB": np.array([50.0, 51.0, 50.2]), "AAA": np.array([100.0, 101.0, 99.5, 102.0])}
        tickers, X = build_feature_table(closes)
        assert tickers == ("BBB", "AAA")
        assert X.shape == (2, 2) and X.dtype == np.float64
        rets = oracle_log_returns([50.0, 51.0, 50.2])
        assert X[0, 0] == pytest.approx(oracle_std(rets) * math.sqrt(252), rel=1e-12)

    def test_two_price_ticker_raises_too_short(self):
        # one return cannot produce a sample std; ingest drops such tickers
        closes = {"AAA": np.array([100.0, 101.0, 99.5]), "TWO": np.array([10.0, 10.5])}
        with pytest.raises(TscnetError, match=short_series("TWO", 2)):
            build_feature_table(closes)

    @pytest.mark.parametrize("days", [0, -252])
    def test_trading_days_below_one_refused(self, days):
        closes = {"AAA": np.array([100.0, 101.0, 99.5])}
        with pytest.raises(TscnetError, match=f"^trading_days must be >= 1, got {days}$"):
            build_feature_table(closes, days)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        records = records_of([
            ("AAA", 0.21345678901234, 0.0987654321012, 2),
            ("BBB", 0.5, -0.25, 0),
            ("CCC", 0.125, 1e-7, 1),
        ])
        path = tmp_path / "labels.csv"
        path.write_text(labels_csv(records), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(LABELS_COLUMNS)
        rows = read_labels_csv(path)
        assert rows.tickers == ("AAA", "BBB", "CCC")
        assert rows.features[0, 0] == pytest.approx(0.21345678901234, rel=1e-11)
        assert rows.clusters[0] == 2
        assert rows.features[1, 1] == -0.25
        assert rows.clusters.dtype == np.int64
        assert labels_csv(rows) == text

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"ticker,volatility,return,cluster\r\nAAA,0.5,-0.25,1\r\nBBB,0.1,0.2,0\r\n")
        assert list(read_labels_csv(path).rows()) == [("AAA", 0.5, -0.25, 1), ("BBB", 0.1, 0.2, 0)]

    @pytest.mark.parametrize("cluster", [2, 10**20])
    def test_cluster_id_below_row_count(self, tmp_path, cluster):
        path = tmp_path / "labels.csv"
        path.write_text(f"ticker,volatility,return,cluster\nAAA,0.5,-0.25,1\nBBB,0.1,0.2,{cluster}\n",
                        encoding="utf-8")
        with pytest.raises(TscnetError, match=rf"labels\.csv: cluster id {cluster} is not below"):
            read_labels_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,b,c,d\nAAA,1,2,0\n", encoding="utf-8")
        message = f"{path}: bad header 'a,b,c,d', expected 'ticker,volatility,return,cluster'"
        with pytest.raises(TscnetError, match=f"^{re.escape(message)}$"):
            read_labels_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(",".join(LABELS_COLUMNS) + "\nAAA,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 2: expected 4 fields, got 3$"):
            read_labels_csv(path)


def test_trading_days_constant():
    assert TRADING_DAYS == 252
