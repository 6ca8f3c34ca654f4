"""The traced benchmark's contract with the program.

``perfbench/tracer.py`` wraps tscnet's public functions by module attribute
and derives the per-layer metrics that ``BENCHMARK.json`` declares from their
spans. This test runs one traced ``run`` and ``report`` on the 70-ticker
fixture, so a rename or a changed call path that breaks the traced benchmark
fails in the test suite. A second test holds the model to what
``perfbench/checks.py`` checks of it. The perfbench modules are executed
from their source files and nothing under ``perfbench/`` is written.
"""

import csv
import json
import math
import types
from pathlib import Path

import numpy as np

import tscnet
from tscnet import autonet, cli, pipeline

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics that perfbench/run.py computes itself, not layer_metrics
COMPUTED_BY_RUNNER = {"cli.report_s", "trace.overhead_s"}

EPOCHS = 20


def _load(name):
    path = ROOT / "perfbench" / name
    module = types.ModuleType(f"perfbench_{path.stem}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_traced_run_and_report_give_every_declared_metric(tmp_path, blob_prices_csv):
    tracer = _load("tracer.py")
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


def test_model_file_gives_the_evaluation_in_float64(tmp_path, blob_prices_csv):
    # perfbench/checks.py recomputes raw_output with its own float64 forward
    # pass of model.tscnet and allows checks.TOL. Training is float32, so
    # every trained value is a float32 number, but each prediction pass is
    # float64: a float32 one would miss the tolerance by about 1e-7
    checks = _load("checks.py")
    out_dir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"prices_path = {blob_prices_csv}\nout_dir = {out_dir}\nk = 4\nepochs = {EPOCHS}\n",
        encoding="utf-8",
    )
    result = pipeline.run_pipeline(pipeline.parse_config(config))
    net = autonet.load_model(out_dir / pipeline.MODEL_FILE)
    assert net.theta.tobytes() == net.theta.astype(np.float32).astype(np.float64).tobytes()

    with open(out_dir / pipeline.EVAL_CSV, encoding="utf-8", newline="") as fh:
        raw = np.array([float(row[3]) for row in list(csv.reader(fh))[1:]])
    features = result.report.records.features
    assert autonet.predict_labels(net, features, result.model.k)[0].tobytes() == raw.tobytes()
    independent = checks.forward(checks.read_model(out_dir / pipeline.MODEL_FILE), features)
    assert float(np.max(np.abs(independent - raw))) <= checks.TOL
