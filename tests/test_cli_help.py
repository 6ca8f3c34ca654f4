"""The full `--help` of `tscnet` and of each verb, pinned byte for byte.

The parser's defaults (trading days, k, epochs, batch size, seed) come from
modules that load no stage, so a change in where a default is defined must
leave what `--help` prints unchanged. The width is fixed at 80 columns, which
argparse reads from ``COLUMNS``.
"""

import pytest

from tscnet.cli import main

HELP = {
    '': """\
usage: tscnet [-h] verb ...

Two-stage time-series clustering: k-means labeling plus an autoencoder label
predictor.

positional arguments:
  verb
    label     compute features, fit k-means, write return-ordered labels
    train     train the autoencoder on a labels CSV
    evaluate  score predictions against the k-means labels
    run       execute the full pipeline from a config file
    report    render SVG charts from a run's artifact directory

options:
  -h, --help  show this help message and exit
""",
    'label': """\
usage: tscnet label [-h] --prices PRICES [--tickers TICKERS]
                    [--start-date START_DATE] [--trading-days TRADING_DAYS]
                    [--k K] [--k-min K_MIN] [--k-max K_MAX] [--seed SEED]
                    --out OUT

options:
  -h, --help            show this help message and exit
  --prices PRICES       prices CSV (ticker,date,adj_close)
  --tickers TICKERS     optional ticker allowlist file
  --start-date START_DATE
                        drop rows before this date (YYYY-MM-DD)
  --trading-days TRADING_DAYS
                        annualization factor (default 252)
  --k K                 cluster count or 'auto' (default)
  --k-min K_MIN         sweep lower bound for auto k
  --k-max K_MAX         sweep upper bound for auto k
  --seed SEED           random seed >= 0 (default 7)
  --out OUT             labels CSV to write
""",
    'train': """\
usage: tscnet train [-h] --labels LABELS [--epochs EPOCHS] [--batch BATCH]
                    [--seed SEED] --out-dir OUT_DIR

options:
  -h, --help         show this help message and exit
  --labels LABELS    labels CSV from the label step
  --epochs EPOCHS    training epochs (default 1000)
  --batch BATCH      batch size (default 1024)
  --seed SEED        random seed >= 0 (default 7)
  --out-dir OUT_DIR  directory for model.tscnet and loss.csv
""",
    'evaluate': """\
usage: tscnet evaluate [-h] --model MODEL --labels LABELS [--out OUT]

options:
  -h, --help       show this help message and exit
  --model MODEL    model file from the train step
  --labels LABELS  labels CSV with reference clusters
  --out OUT        optional evaluation CSV to write
""",
    'run': """\
usage: tscnet run [-h] config

positional arguments:
  config      key-value config file

options:
  -h, --help  show this help message and exit
""",
    'report': """\
usage: tscnet report [-h] --out-dir OUT_DIR

options:
  -h, --help         show this help message and exit
  --out-dir OUT_DIR  artifact directory from a run
""",
}


@pytest.mark.parametrize("verb", sorted(HELP), ids=lambda verb: verb or "tscnet")
def test_help_text_is_pinned(verb, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"] if verb else ["--help"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (HELP[verb], "")
