"""Fuzz tests for every reader and for the CLI verb that reads each file.

Each example writes arbitrary bytes, or text shaped like the expected file,
over one input: an artifact of a finished run bundle, the prices CSV or the
run config. The artifact CSV readers must return rows whose floats are all
finite or raise FormatError; the prices, model and config readers must
return or raise a TscnetError. `report` (for the artifacts) or `run` (for
prices and config) must then exit 0, or exit 1 with exactly one line on
stderr; a NumPy warning would print a line of its own, so none may be raised.
"""

import contextlib
import datetime as dt
import io
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import blob_targets, write_prices_csv
from tscnet.autonet import MODEL_HEADER, load_model
from tscnet.cli import main
from tscnet.errors import FormatError, TscnetError
from tscnet.ingest import PRICES_HEADER, load_price_table
from tscnet.pipeline import (
    LABELS_COLUMNS,
    LABELS_CSV,
    LOSS_COLUMNS,
    LOSS_CSV,
    MODEL_FILE,
    SWEEP_COLUMNS,
    SWEEP_CSV,
    parse_config,
    read_csv,
    read_labels_csv,
)

READERS = {
    LABELS_CSV: (lambda path: list(read_labels_csv(path).rows()), LABELS_COLUMNS),
    LOSS_CSV: (lambda path: read_csv(path, LOSS_COLUMNS), LOSS_COLUMNS),
    SWEEP_CSV: (lambda path: read_csv(path, SWEEP_COLUMNS), SWEEP_COLUMNS),
}

NUMBER = st.floats().map(repr) | st.integers(min_value=-3, max_value=12).map(str)
FIELD = NUMBER | st.sampled_from(["", " ", "AAA", "1e309", "1_0", "\u0663"]) | st.text(max_size=5)


def file_bytes(header, row=None, max_rows=6):
    """Raw bytes, or a header line and rows of numbers or other short fields."""
    if row is None:
        row = st.lists(NUMBER, min_size=len(header), max_size=len(header))
    line = (row | st.lists(FIELD, max_size=5)).map(",".join)
    body = st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", ""])).map("".join), max_size=max_rows)
    head = st.sampled_from([",".join(header) + "\n", ",".join(header) + "\r\n"]) | st.text(max_size=12)
    text = st.tuples(head, body.map("".join)).map("".join)
    return st.binary(max_size=80) | text.map(lambda s: s.encode("utf-8"))


TICKER = st.sampled_from(["AAA", "BBB", "CCC", "DDD"])
DATE = st.dates(dt.date(2020, 1, 1), dt.date(2020, 1, 9)).map(str)
PRICE_ROW = (st.tuples(TICKER, DATE, st.floats(0.5, 2.0).map(repr))
             | st.tuples(TICKER | FIELD, DATE | FIELD, NUMBER | FIELD)).map(list)

# a model file: header, layer count, then layer lines and rows of numbers
MODEL_LINE = st.one_of(
    st.integers(-1, 3).map(lambda n: f"layers {n}"),
    st.tuples(st.integers(0, 3), st.integers(0, 3),
              st.sampled_from(["relu", "sigmoid", "linear", "tanh"])).map(
        lambda t: "layer {} {} {}".format(*t)),
    st.lists(NUMBER, max_size=4).map(" ".join),
)
MODEL_TEXT = st.lists(MODEL_LINE, max_size=10).map(lambda lines: "\n".join([MODEL_HEADER, *lines]) + "\n")

# config lines over the keys the fuzzed file does not fix; the fixture's
# prices run from 2019-01-02 to 2019-03-07
CONFIG_KEY = st.sampled_from(["k", "k_min", "k_max", "seed", "batch_size", "test_fraction",
                              "trading_days", "start_date", "tickers_path"])
CONFIG_VALUE = st.one_of(
    st.integers(-1, 12).map(str),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["auto", "AUTO", "2019-01-20", "2019-03-06", "tickers.txt", "prices.csv", "nowhere"]),
    FIELD,
)
CONFIG_LINE = st.tuples(CONFIG_KEY, st.sampled_from([" = ", ":"]), CONFIG_VALUE).map("".join)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """An auto-k run bundle on the 70-ticker fixture (so it has a k_sweep.csv)."""
    root = tmp_path_factory.mktemp("fuzz")
    write_prices_csv(root / "prices.csv", blob_targets(seed=5))
    config = root / "run.cfg"
    config.write_text(f"prices_path = {root / 'prices.csv'}\nout_dir = {root / 'out'}\n"
                      "epochs = 5\nseed = 7\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(config)]) == 0
    return root / "out"


def check_rows(reader, path):
    try:
        rows = reader(path)
    except FormatError:
        return
    assert rows
    for row in rows:
        assert all(math.isfinite(v) for v in row if isinstance(v, float))
        assert all(v >= 0 for v in row if isinstance(v, int))


def check_loads(reader, path):
    try:
        reader(path)
    except TscnetError:
        pass


def check_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1)
    if code == 1:
        # one error line, after the warnings that say why no ticker was usable
        *lines, error = lines
        assert error.startswith("error: ")
    assert all(line.startswith("warning: ") for line in lines)
    return code


def check_report(out_dir):
    check_cli(["report", "--out-dir", str(out_dir)])


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_and_report_on_fuzzed_file(bundle, name):
    reader, header = READERS[name]
    original = (bundle / name).read_bytes()

    @settings(deadline=None, max_examples=30)
    @given(file_bytes(header))
    # two finite values whose difference overflows a float
    @example(",".join(header).encode() + b"".join(
        f"\n1,{v}".encode() + b",1" * (len(header) - 2) for v in ("1e308", "-1e308")))
    def check(data):
        (bundle / name).write_bytes(data)
        try:
            check_rows(reader, bundle / name)
            check_report(bundle)
        finally:
            (bundle / name).write_bytes(original)

    check()


def test_model_reader_and_report_on_fuzzed_model(bundle):
    path = bundle / MODEL_FILE
    original = path.read_bytes()

    @settings(deadline=None, max_examples=30)
    @given(st.binary(max_size=80) | (st.text(max_size=12) | MODEL_TEXT).map(str.encode))
    # valid structure whose outputs overflow, and a cut-off file
    @example(re.sub(rb"e-0\d", b"e+307", original))
    @example(original[: len(original) // 2])
    def check(data):
        path.write_bytes(data)
        try:
            check_loads(load_model, path)
            check_report(bundle)
        finally:
            path.write_bytes(original)

    check()


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    """A directory with the 70-ticker prices CSV and a ticker list."""
    root = tmp_path_factory.mktemp("fuzz_run")
    write_prices_csv(root / "prices.csv", blob_targets(seed=5))
    (root / "tickers.txt").write_text("T000\nT001\nT002\nT040\nT069\n", encoding="utf-8")
    return root


def three_tickers(first):
    series = ((first, "1 2 3 4"), ("BBB", "4 3 2 1"), ("CCC", "2 2 3 2"))
    return "ticker,date,adj_close\n" + "".join(
        f"{t},2020-01-0{d},{p}\n" for t, prices in series for d, p in enumerate(prices.split(), 1))


def test_price_reader_and_run_on_fuzzed_prices(run_inputs):
    path = run_inputs / "fuzzed_prices.csv"
    config = run_inputs / "prices_run.cfg"
    config.write_text(f"prices_path = {path.name}\nout_dir = out_prices\nk = 2\nepochs = 3\n"
                      "trading_days = 5\n", encoding="utf-8")

    @settings(deadline=None, max_examples=30)
    @given(file_bytes(PRICES_HEADER, row=PRICE_ROW, max_rows=16))
    # three tickers with enough rows to reach training, the first one quoted
    # with a comma in it, which would split its labels.csv row
    @example(three_tickers("AAA").encode())
    @example(three_tickers('"A,B"').encode())
    def check(data):
        path.write_bytes(data)
        check_loads(load_price_table, path)
        if check_cli(["run", str(config)]) == 0:
            # a bundle that `run` wrote must pass `report`
            assert check_cli(["report", "--out-dir", str(run_inputs / "out_prices")]) == 0

    check()


def test_config_parser_and_run_on_fuzzed_config(run_inputs):
    path = run_inputs / "fuzzed.cfg"
    base = "prices_path = prices.csv\nout_dir = out_config\nepochs = 3\n"
    lines = st.lists(CONFIG_LINE, max_size=4) | st.lists(CONFIG_LINE | st.text(max_size=8), max_size=4)

    @settings(deadline=None, max_examples=30)
    @given(st.binary(max_size=80) | lines.map(lambda lines: (base + "\n".join(lines)).encode("utf-8")))
    @example((base + "k = 3\ntickers_path = tickers.txt\n").encode())
    def check(data):
        path.write_bytes(data)
        check_loads(parse_config, path)
        check_cli(["run", str(path)])

    check()
