"""Feature computation tests: log returns and annualized volatility/return.

Numeric results are checked against independent oracles written with plain
math loops, not against the numpy implementation under test.
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tscnet.errors import FormatError, NonPositivePrice, TooShort
from tscnet.features import (
    LABELS_HEADER,
    TRADING_DAYS,
    FeatureVector,
    annualize,
    build_feature_table,
    log_returns,
    read_labels_csv,
    sample_std,
    write_labels_csv,
)
from tscnet.ingest import PriceSeries, PriceTable


def oracle_log_returns(prices):
    return [math.log(prices[i + 1] / prices[i]) for i in range(len(prices) - 1)]


def oracle_std(values):
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


class TestLogReturns:
    def test_matches_elementwise_oracle(self):
        prices = [100.0, 110.0, 105.0, 105.0, 91.3, 120.77]
        got = log_returns(prices)
        want = oracle_log_returns(prices)
        assert len(got) == len(want)
        assert np.max(np.abs(got - np.array(want))) < 1e-15

    def test_known_values(self):
        got = log_returns([100.0, 110.0, 105.0])
        assert got[0] == pytest.approx(math.log(1.1), abs=1e-15)
        assert got[1] == pytest.approx(math.log(105.0 / 110.0), abs=1e-15)

    def test_flat_series_is_zero(self):
        assert np.all(log_returns([5.0, 5.0, 5.0]) == 0.0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            log_returns([100.0])

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            log_returns([100.0, -1.0])
        with pytest.raises(NonPositivePrice):
            log_returns([0.0, 1.0])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=50),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, prices, scale):
        base = log_returns(prices)
        scaled = log_returns([p * scale for p in prices])
        assert np.max(np.abs(base - scaled)) < 1e-12

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=40))
    def test_length_contract(self, prices):
        assert len(log_returns(prices)) == len(prices) - 1


class TestSampleStd:
    def test_matches_direct_summation(self):
        values = [0.01, -0.003, 0.025, 0.0, -0.017, 0.004]
        assert sample_std(values) == pytest.approx(oracle_std(values), rel=1e-12)

    def test_two_points(self):
        # std of {0, 2} with Bessel correction is sqrt(2)
        assert sample_std([0.0, 2.0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_constant_is_zero(self):
        assert sample_std([3.0, 3.0, 3.0]) == 0.0

    def test_too_short(self):
        with pytest.raises(TooShort):
            sample_std([1.0])


class TestAnnualize:
    def test_formulas(self):
        values = (0.001, -0.002, 0.0005, 0.0031, -0.0007)
        fv = annualize("AAA", values)
        assert fv.ticker == "AAA"
        assert fv.volatility == pytest.approx(oracle_std(list(values)) * math.sqrt(252), rel=1e-12)
        assert fv.ret == pytest.approx(sum(values) / len(values) * 252, rel=1e-12)

    def test_custom_trading_days(self):
        values = (0.01, -0.01, 0.02)
        fv = annualize("AAA", values, trading_days=10)
        assert fv.volatility == pytest.approx(oracle_std(list(values)) * math.sqrt(10), rel=1e-12)
        assert fv.ret == pytest.approx(sum(values) / 3 * 10, rel=1e-12)

    def test_volatility_non_negative(self):
        fv = annualize("AAA", (0.05, -0.03, 0.01))
        assert fv.volatility >= 0.0

    def test_needs_two_returns(self):
        with pytest.raises(TooShort):
            annualize("AAA", (0.01,))


def _series(ticker, closes, start=dt.date(2019, 1, 2)):
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(closes)))
    return PriceSeries(ticker, dates, tuple(closes))


class TestBuildFeatureTable:
    def test_ticker_order_and_values(self):
        table = PriceTable()
        table.add(_series("BBB", [50.0, 51.0, 50.2]))
        table.add(_series("AAA", [100.0, 101.0, 99.5, 102.0]))
        feats, warnings = build_feature_table(table)
        assert warnings == []
        assert [f.ticker for f in feats] == ["AAA", "BBB"]
        rets = oracle_log_returns([50.0, 51.0, 50.2])
        assert feats[1].volatility == pytest.approx(oracle_std(rets) * math.sqrt(252), rel=1e-12)

    def test_two_price_ticker_warned_and_skipped(self):
        # one return cannot produce a sample std
        table = PriceTable()
        table.add(_series("AAA", [100.0, 101.0, 99.5]))
        table.add(_series("TWO", [10.0, 10.5]))
        feats, warnings = build_feature_table(table)
        assert [f.ticker for f in feats] == ["AAA"]
        assert any(w.startswith("TWO:") for w in warnings)


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        records = [
            FeatureRecord("AAA", 0.21345678901234, 0.0987654321012, 2),
            FeatureRecord("BBB", 0.5, -0.25, 0),
        ]
        path = tmp_path / "labels.csv"
        write_labels_csv(records, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(LABELS_HEADER)
        rows = read_labels_csv(path)
        assert [r[0] for r in rows] == ["AAA", "BBB"]
        assert rows[0][1] == pytest.approx(0.21345678901234, rel=1e-11)
        assert rows[0][3] == 2
        assert rows[1][2] == -0.25

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,b,c,d\nAAA,1,2,0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_labels_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(",".join(LABELS_HEADER) + "\nAAA,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_labels_csv(path)


class FeatureRecord:
    """Minimal stand-in with the attribute shape write_labels_csv expects."""

    def __init__(self, ticker, volatility, ret, cluster):
        self.ticker = ticker
        self.volatility = volatility
        self.ret = ret
        self.cluster = cluster


def test_trading_days_constant():
    assert TRADING_DAYS == 252
