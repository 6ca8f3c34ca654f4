"""Fuzz tests for the artifact CSV readers and for `report` on a damaged bundle.

Each example writes arbitrary bytes, or text shaped like the expected CSV,
over one file of a finished run bundle. The reader must return rows whose
floats are all finite or raise FormatError. `report` must exit 0, or exit 1
with exactly one line on stderr; a NumPy warning would print a line of its
own, so none may be raised.
"""

import contextlib
import dataclasses
import io
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import blob_targets, write_prices_csv
from tscnet.cli import main
from tscnet.errors import FormatError
from tscnet.pipeline import (
    LABELS_COLUMNS,
    LABELS_CSV,
    LOSS_COLUMNS,
    LOSS_CSV,
    SWEEP_COLUMNS,
    SWEEP_CSV,
    read_csv,
    read_labels_csv,
)

READERS = {
    LABELS_CSV: (read_labels_csv, LABELS_COLUMNS),
    LOSS_CSV: (lambda path: read_csv(path, LOSS_COLUMNS), LOSS_COLUMNS),
    SWEEP_CSV: (lambda path: read_csv(path, SWEEP_COLUMNS), SWEEP_COLUMNS),
}

NUMBER = st.floats().map(repr) | st.integers(min_value=-3, max_value=12).map(str)
FIELD = NUMBER | st.sampled_from(["", " ", "AAA", "1e309", "1_0", "\u0663"]) | st.text(max_size=5)


def file_bytes(header):
    """Raw bytes, or a header line and rows of numbers or other short fields."""
    row = st.lists(NUMBER, min_size=len(header), max_size=len(header))
    line = (row | st.lists(FIELD, max_size=5)).map(",".join)
    body = st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", ""])).map("".join), max_size=6)
    head = st.sampled_from([",".join(header) + "\n", ",".join(header) + "\r\n"]) | st.text(max_size=12)
    text = st.tuples(head, body.map("".join)).map("".join)
    return st.binary(max_size=80) | text.map(lambda s: s.encode("utf-8"))


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
        values = dataclasses.astuple(row) if dataclasses.is_dataclass(row) else row
        assert all(math.isfinite(v) for v in values if isinstance(v, float))
        assert all(v >= 0 for v in values if isinstance(v, int))


def check_report(out_dir):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["report", "--out-dir", str(out_dir)])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1)
    if code == 1:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


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
