"""The traced benchmark's contract with the program.

``perfbench/tracer.py`` wraps tscnet's public functions by module attribute
and derives the per-layer metrics that ``BENCHMARK.json`` declares from their
spans. This test runs one traced ``run`` and ``report`` on the 70-ticker
fixture, so a rename or a changed call path that breaks the traced benchmark
fails in the test suite. The tracer is executed from its source file and
nothing under ``perfbench/`` is written.
"""

import json
import math
import types
from pathlib import Path

import tscnet
from tscnet import cli

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics that perfbench/run.py computes itself, not layer_metrics
COMPUTED_BY_RUNNER = {"cli.report_s", "trace.overhead_s"}

EPOCHS = 20


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_traced_run_and_report_give_every_declared_metric(tmp_path, blob_prices_csv):
    tracer = _tracer()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in bench["per_layer"]}
    out_dir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"prices_path = {blob_prices_csv}\nout_dir = {out_dir}\nk = auto\nepochs = {EPOCHS}\n",
        encoding="utf-8",
    )
    price_rows = len(blob_prices_csv.read_text(encoding="utf-8").splitlines()) - 1

    recorder = tracer.Recorder()
    recorder.op = 0
    recorder.install(tscnet)
    try:
        assert cli.main(["run", str(config)]) == 0
        assert cli.main(["report", "--out-dir", str(out_dir)]) == 0
    finally:
        recorder.uninstall()

    metrics = tracer.layer_metrics(recorder.dump(), 0, price_rows, EPOCHS)
    assert set(metrics) == declared - COMPUTED_BY_RUNNER
    # a traced name that no longer exists reads as 0 here, not as an error
    unseen = sorted(name for name, value in metrics.items() if not 0 < value < math.inf)
    assert unseen == []
    # auto k sweeps 2..10 on 70 tickers: one fit and one silhouette per k
    assert metrics["kmeans.fit_calls"] == metrics["kmeans.silhouette_calls"] == 9
    # the training set is one full batch: train runs EPOCHS + 1 forwards, and
    # evaluate, the labels written by run, and report's labels one each
    assert metrics["autonet.forward_calls"] == EPOCHS + 1 + 3
    assert metrics["autonet.backward_calls"] == metrics["autonet.adam_calls"] == EPOCHS
