"""CLI tests, run in-process through main().

Exit code contract: 0 success, 1 data/runtime error, 2 usage error (argparse
raises SystemExit for those).
"""

import argparse
import inspect
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

import tscnet
from conftest import blob_targets, write_prices_csv
from tscnet import autonet, defaults, features, kmeans, pipeline
from tscnet.autonet import LayerSpec, build_network, save_model
from tscnet.cli import K_SWEEP_SVG, LOSS_SVG, SCATTER_POINTS_CSV, build_parser, main
from tscnet.errors import TscnetError
from tscnet.pipeline import (
    AUTO,
    EVAL_CSV,
    LABELS_CSV,
    LOSS_CSV,
    MANIFEST_FILE,
    MODEL_FILE,
    SCATTER_AUTONET_SVG,
    SCATTER_KMEANS_SVG,
    SWEEP_CSV,
    PipelineConfig,
)


def run_cli(capsys, argv, expect=0):
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expect, f"exit {code}, stderr: {err}"
    return out, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared prices CSV plus a labels CSV and trained model built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    prices = root / "prices.csv"
    write_prices_csv(prices, blob_targets(seed=5))
    labels = root / "labels.csv"
    assert main(["label", "--prices", str(prices), "--k", "4", "--seed", "7",
                 "--out", str(labels)]) == 0
    model_dir = root / "model"
    assert main(["train", "--labels", str(labels), "--epochs", "5", "--seed", "7",
                 "--out-dir", str(model_dir)]) == 0
    return {"root": root, "prices": prices, "labels": labels,
            "model": model_dir / MODEL_FILE}


def write_config(path, prices, out_dir, **overrides):
    fields = {
        "prices_path": prices,
        "out_dir": out_dir,
        "k": 4,
        "epochs": 40,
        "batch_size": 1024,
        "test_fraction": 0.33,
        "seed": 7,
    }
    fields.update(overrides)
    path.write_text(
        "".join(f"{key} = {value}\n" for key, value in fields.items()), encoding="utf-8"
    )
    return path


class TestUsageErrors:
    def test_no_verb(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as exc:
            main(["decorate"])
        assert exc.value.code == 2

    def test_select_k_is_gone(self, workdir, capsys):
        # `label --k auto` prints the sweep that this verb printed
        with pytest.raises(SystemExit) as exc:
            main(["select-k", "--prices", str(workdir["prices"])])
        assert exc.value.code == 2
        assert "invalid choice: 'select-k'" in capsys.readouterr().err

    def test_bad_k(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["label", "--prices", str(workdir["prices"]), "--k", "0", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_non_numeric_k(self):
        with pytest.raises(SystemExit) as exc:
            main(["label", "--k", "soon", "--prices", "p.csv", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--labels", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb, flags", [
        ("label", ["--prices", "{prices}", "--out", "{tmp}/labels.csv"]),
        ("train", ["--labels", "{labels}", "--out-dir", "{tmp}/model"]),
    ])
    def test_negative_seed(self, workdir, tmp_path, capsys, verb, flags):
        # a run config refuses seed < 0, and so does every --seed
        argv = [verb, *(f.format(tmp=tmp_path, **workdir) for f in flags), "--seed", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_start_date(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        with pytest.raises(SystemExit) as exc:
            main(["label", "--prices", str(workdir["prices"]), "--start-date", "2019-13-01",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --start-date: expected YYYY-MM-DD, got '2019-13-01'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["label", "train", "evaluate", "run", "report"])
    def test_help_exits_zero(self, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0

    def test_run_takes_only_the_config(self):
        # the config file is the whole contract of a run: a flag could change
        # the artifacts without the manifest's config saying so
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        run = sub.choices["run"]
        assert sorted(opt for a in run._actions for opt in a.option_strings or [a.dest]) == [
            "--help", "-h", "config"]


class TestLabel:
    def test_fixed_k(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        stdout, _ = run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                                     "--k", "4", "--seed", "7", "--out", str(out)])
        assert stdout.startswith("k=4 silhouette=")
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ticker,volatility,return,cluster"
        assert len(lines) == 71

    def test_start_date_drops_earlier_rows(self, workdir, tmp_path, capsys):
        # the same labels as a prices file without the rows dated before it
        lines = workdir["prices"].read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines[1:] if line.split(",")[1] >= "2019-02-01"]
        assert 0 < len(kept) < len(lines) - 1
        trimmed = tmp_path / "trimmed.csv"
        trimmed.write_text("\n".join([lines[0], *kept]) + "\n", encoding="utf-8")
        args = ["label", "--k", "4", "--seed", "7", "--out"]
        run_cli(capsys, [*args, str(tmp_path / "a.csv"), "--prices", str(workdir["prices"]),
                         "--start-date", "2019-02-01"])
        run_cli(capsys, [*args, str(tmp_path / "b.csv"), "--prices", str(trimmed)])
        dated = (tmp_path / "a.csv").read_bytes()
        assert dated == (tmp_path / "b.csv").read_bytes()
        assert dated != workdir["labels"].read_bytes()

    def test_auto_k_picks_four(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        stdout, _ = run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                                     "--seed", "7", "--out", str(out)])
        assert stdout.splitlines()[-1] == "best k=4"

    def test_repeat_is_byte_identical(self, workdir, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                             "--k", "4", "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_canonical_orders_by_return(self, workdir, tmp_path, capsys):
        # seed 7's raw k-means++ numbering on this fixture is not return-monotone
        out = tmp_path / "labels.csv"
        for k in ("4", "auto"):
            run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", k,
                             "--seed", "7", "--out", str(out)])
            means: dict[int, list[float]] = {}
            for line in out.read_text(encoding="utf-8").splitlines()[1:]:
                _, _, ret, cluster = line.split(",")
                means.setdefault(int(cluster), []).append(float(ret))
            ordered = [sum(means[c]) / len(means[c]) for c in sorted(means)]
            assert len(ordered) == 4
            assert ordered == sorted(ordered, reverse=True)
        with pytest.raises(SystemExit) as exc:
            main(["label", "--prices", str(workdir["prices"]), "--canonical-labels",
                  "--out", str(out)])
        assert exc.value.code == 2

    def test_single_cluster_rejected(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        _, stderr = run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "1",
                                     "--out", str(out)], expect=1)
        assert stderr == "error: k must be an integer >= 2 or 'auto', got 1\n"
        assert not out.exists()

    def test_missing_prices_file(self, tmp_path, capsys):
        stdout, stderr = run_cli(
            capsys,
            ["label", "--prices", str(tmp_path / "absent.csv"), "--out",
             str(tmp_path / "x.csv")],
            expect=1,
        )
        assert stderr.startswith("error:")

    def test_oversized_csv_field_is_one_error_line(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("ticker,date,adj_close\n" + "A" * 200_000 + ",2019-01-02,1.0\n", encoding="utf-8")
        _, stderr = run_cli(capsys, ["label", "--prices", str(prices), "--out", str(tmp_path / "x.csv")],
                            expect=1)
        assert stderr == f"error: {prices} line 2: field larger than field limit (131072)\n"


    @pytest.mark.parametrize("verb", ["label", "run"])
    def test_every_ticker_too_short(self, tmp_path, capsys, verb):
        # two rows give one return; every ticker is dropped at ingest, with its reason
        prices = tmp_path / "prices.csv"
        prices.write_text("ticker,date,adj_close\n" + "".join(
            f"{t},2019-01-0{d},{d}.5\n" for t in ("AAA", "BBB") for d in (2, 3)
        ), encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        argv = ["run", str(config)] if verb == "run" else [
            "label", "--prices", str(prices), "--k", "2", "--out", str(tmp_path / "labels.csv")]
        _, stderr = run_cli(capsys, argv, expect=1)
        stage = "[ingest] " if verb == "run" else ""
        assert stderr.splitlines() == [
            "warning: AAA: excluded, fewer than 3 usable rows",
            "warning: BBB: excluded, fewer than 3 usable rows",
            f"error: {stage}{prices}: no ticker with at least 3 usable rows",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prices.csv", "run.cfg"]

    @pytest.mark.parametrize("verb", ["label", "run"])
    def test_empty_ticker_list_names_its_file(self, workdir, tmp_path, capsys, verb):
        tickers = tmp_path / "tickers.txt"
        tickers.write_text(",,\n\n,,\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out",
                              tickers_path=tickers)
        argv = ["run", str(config)] if verb == "run" else [
            "label", "--prices", str(workdir["prices"]), "--tickers", str(tickers),
            "--out", str(tmp_path / "labels.csv")]
        _, stderr = run_cli(capsys, argv, expect=1)
        stage = "[ingest] " if verb == "run" else ""
        assert stderr == f"error: {stage}{tickers}: no ticker symbols found\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "tickers.txt"]

    @pytest.mark.parametrize("verb", ["label", "run"])
    def test_ingest_warnings_precede_a_later_error(self, tmp_path, capsys, verb):
        # SHT is dropped at ingest, which leaves 3 tickers: too few for k = 4
        prices = tmp_path / "prices.csv"
        prices.write_text("ticker,date,adj_close\n" + "".join(
            f"{t},2019-01-0{d},{d + i}.5\n" for i, t in enumerate(("AAA", "BBB", "CCC")) for d in range(2, 7)
        ) + "SHT,2019-01-02,1.0\nSHT,2019-01-03,1.1\n", encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        argv = ["run", str(config)] if verb == "run" else [
            "label", "--prices", str(prices), "--k", "4", "--out", str(tmp_path / "labels.csv")]
        _, stderr = run_cli(capsys, argv, expect=1)
        stage = "[label] " if verb == "run" else ""
        assert stderr.splitlines() == [
            "warning: SHT: excluded, fewer than 3 usable rows",
            f"error: {stage}k=4 outside [1, 3]",
        ]

    @pytest.mark.parametrize("verb", ["label", "run"])
    def test_returns_past_the_float_range_name_the_ticker(self, tmp_path, capsys, verb):
        prices = tmp_path / "prices.csv"
        series = (("AAA", "1e308 5e-324 1e308 1e308"), ("BBB", "4 3 2 1"), ("CCC", "2 2 3 2"))
        prices.write_text("ticker,date,adj_close\n" + "".join(
            f"{t},2020-01-0{d},{p}\n" for t, closes in series for d, p in enumerate(closes.split(), 1)
        ), encoding="utf-8")
        config = write_config(tmp_path / "run.cfg", prices, tmp_path / "out", k=2)
        argv = ["run", str(config)] if verb == "run" else [
            "label", "--prices", str(prices), "--k", "2", "--out", str(tmp_path / "labels.csv")]
        _, stderr = run_cli(capsys, argv, expect=1)
        stage = "[ingest] " if verb == "run" else ""
        assert stderr == f"error: {stage}AAA: volatility and return must be finite, got nan and nan\n"

    @pytest.mark.parametrize("verb", ["label", "run"])
    def test_trading_days_without_a_float_value(self, workdir, tmp_path, capsys, verb):
        days = "1" + "0" * 400
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out", trading_days=days)
        argv = ["run", str(config)] if verb == "run" else [
            "label", "--prices", str(workdir["prices"]), "--trading-days", days,
            "--out", str(tmp_path / "labels.csv")]
        _, stderr = run_cli(capsys, argv, expect=1)
        # parse_config refuses it and names the config
        where = f"{config}: " if verb == "run" else ""
        assert stderr == f"error: {where}trading_days is too large to convert to a float\n"

    @pytest.mark.parametrize("verb", ["label", "run"])
    def test_trading_days_refused_before_the_prices_are_opened(self, tmp_path, capsys, verb):
        days = "1" + "0" * 400
        missing = tmp_path / "absent.csv"
        config = write_config(tmp_path / "run.cfg", missing, tmp_path / "out", trading_days=days)
        argv = ["run", str(config)] if verb == "run" else [
            "label", "--prices", str(missing), "--trading-days", days, "--out", str(tmp_path / "labels.csv")]
        _, stderr = run_cli(capsys, argv, expect=1)
        where = f"{config}: " if verb == "run" else ""
        assert stderr == f"error: {where}trading_days is too large to convert to a float\n"
        assert "cannot open" not in stderr


class TestSelectK:
    """`label --k auto` prints one line per swept k, then the best k."""

    def test_sweep_output(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        stdout, _ = run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "auto",
                                     "--k-min", "2", "--k-max", "8", "--seed", "7",
                                     "--out", str(out)])
        lines = stdout.splitlines()
        assert lines[-1] == "best k=4"
        sweep = [line.split() for line in lines[:-1]]
        assert [k for k, _ in sweep] == [f"k={k}" for k in range(2, 9)]
        scores = [float(s.removeprefix("silhouette=")) for _, s in sweep]
        assert scores.index(max(scores)) == 2
        # the labels are those of the chosen k
        assert out.read_bytes() == workdir["labels"].read_bytes()

    @pytest.fixture()
    def six_tickers(self, tmp_path):
        prices = tmp_path / "six.csv"
        write_prices_csv(prices, blob_targets(seed=5)[:6])
        return prices

    def test_k_max_clamped_to_n_minus_one(self, six_tickers, tmp_path, capsys):
        stdout, _ = run_cli(capsys, ["label", "--prices", str(six_tickers), "--k", "auto",
                                     "--k-min", "2", "--k-max", "10",
                                     "--out", str(tmp_path / "labels.csv")])
        lines = stdout.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [f"k={k}" for k in range(2, 6)]
        assert lines[-1] in {f"best k={k}" for k in range(2, 6)}

    def test_k_min_above_n_minus_one(self, six_tickers, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        _, stderr = run_cli(capsys, ["label", "--prices", str(six_tickers), "--k", "auto",
                                     "--k-min", "6", "--out", str(out)], expect=1)
        assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
        assert not out.exists()


class TestDistinctPoints:
    """Six tickers on two price paths give two distinct feature points."""

    @pytest.fixture()
    def two_paths(self, tmp_path):
        paths = ((10.0, 10.5, 10.2, 10.8, 11.0), (20.0, 19.5, 19.9, 19.0, 18.7))
        prices = tmp_path / "two_paths.csv"
        prices.write_text("ticker,date,adj_close\n" + "".join(
            f"{t},2019-01-0{d + 2},{close}\n"
            for i, t in enumerate(("AAA", "BBB", "CCC", "DDD", "EEE", "FFF"))
            for d, close in enumerate(paths[i // 3])
        ), encoding="utf-8")
        return prices

    def test_fixed_k_above_distinct_points(self, two_paths, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        _, stderr = run_cli(capsys, ["label", "--prices", str(two_paths), "--k", "3",
                                     "--out", str(out)], expect=1)
        assert stderr == "error: k=3 is above the 2 distinct points\n"
        assert not out.exists()

    def test_auto_sweep_stops_at_distinct_points(self, two_paths, tmp_path, capsys):
        stdout, stderr = run_cli(capsys, ["label", "--prices", str(two_paths),
                                          "--out", str(tmp_path / "labels.csv")])
        assert (stdout, stderr) == ("k=2 silhouette=1\nbest k=2\n", "")


class TestKRule:
    """`label` accepts and refuses a k setting as a `run` config does."""

    def label(self, workdir, capsys, out, k, k_min, k_max, expect):
        return run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", str(k),
                                "--k-min", str(k_min), "--k-max", str(k_max), "--out", str(out)],
                       expect=expect)

    @pytest.mark.parametrize("k, k_min, k_max", [(4, 9, 3), (AUTO, 1, 10), (AUTO, 9, 3), (1, 2, 10)])
    def test_refused_as_by_a_config(self, workdir, tmp_path, capsys, k, k_min, k_max):
        with pytest.raises(TscnetError) as refused:
            PipelineConfig(prices_path=workdir["prices"], k=k, k_min=k_min, k_max=k_max)
        out = tmp_path / "labels.csv"
        _, stderr = self.label(workdir, capsys, out, k, k_min, k_max, expect=1)
        assert stderr == f"error: {refused.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k, k_min, k_max", [(4, 9, 3), (AUTO, 1, 10), (AUTO, 9, 3), (1, 2, 10)])
    def test_refused_before_ingest(self, tmp_path, capsys, k, k_min, k_max):
        # as `run` meets the rule in its config: the missing prices go unread
        with pytest.raises(TscnetError) as refused:
            PipelineConfig(prices_path=tmp_path / "absent.csv", k=k, k_min=k_min, k_max=k_max)
        out = tmp_path / "labels.csv"
        _, stderr = self.label({"prices": tmp_path / "absent.csv"}, capsys, out, k, k_min, k_max, expect=1)
        assert stderr == f"error: {refused.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k, k_min, k_max", [(4, 9, 10), (AUTO, 3, 3)])
    def test_accepted_as_by_a_config(self, workdir, tmp_path, capsys, k, k_min, k_max):
        PipelineConfig(prices_path=workdir["prices"], k=k, k_min=k_min, k_max=k_max)
        out = tmp_path / "labels.csv"
        stdout, _ = self.label(workdir, capsys, out, k, k_min, k_max, expect=0)
        assert stdout.startswith("k=3 silhouette=" if k == AUTO else "k=4 silhouette=")
        assert out.exists()


class TestTrain:
    def test_reports_parameters_and_writes_files(self, workdir, capsys):
        model_dir = workdir["model"].parent
        stdout, _ = run_cli(capsys, ["train", "--labels", str(workdir["labels"]),
                                     "--epochs", "5", "--seed", "7",
                                     "--out-dir", str(model_dir)])
        assert "parameters=12805" in stdout
        assert "final_loss=" in stdout
        assert (model_dir / MODEL_FILE).exists()
        assert (model_dir / LOSS_CSV).exists()
        loss_lines = (model_dir / LOSS_CSV).read_text(encoding="utf-8").splitlines()
        assert len(loss_lines) == 6

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_not_above_largest_id_rejected(self, workdir, tmp_path, k):
        # k is always the largest id + 1 (here 4); a --k is a usage error, so
        # one that would clamp every prediction past k - 1 trains nothing
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--labels", str(workdir["labels"]), "--k", str(k),
                  "--epochs", "1", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert not out_dir.exists()

    def test_single_cluster_labels_rejected(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "ticker,volatility,return,cluster\nAAA,0.2,0.5,0\nBBB,0.3,0.1,0\n",
            encoding="utf-8",
        )
        _, stderr = run_cli(capsys, ["train", "--labels", str(labels), "--epochs", "1",
                                     "--out-dir", str(tmp_path / "out")], expect=1)
        assert "error:" in stderr

    def test_missing_labels_file(self, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["train", "--labels", str(tmp_path / "absent.csv"),
                                     "--out-dir", str(tmp_path / "out")], expect=1)
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("rows, where", [
        ("AAA,nan,0.1,0\nBBB,0.3,0.1,1\n", "labels.csv line 2: non-finite"),
        ("AAA,0.2,0.5,0\nBBB,0.3,0.1,-3\n", "labels.csv line 3: negative"),
        ("AAA,0.2,0.5,0\nBBB,0.3,0.1,2\n", "labels.csv: cluster id 2 is not below the row count 2"),
        ("", "labels.csv: no rows"),
    ])
    def test_bad_labels_are_one_error_line(self, tmp_path, capsys, rows, where):
        labels = tmp_path / "labels.csv"
        labels.write_text("ticker,volatility,return,cluster\n" + rows, encoding="utf-8")
        _, stderr = run_cli(capsys, ["train", "--labels", str(labels), "--epochs", "1",
                                     "--out-dir", str(tmp_path / "out")], expect=1)
        assert stderr.startswith("error: ") and where in stderr
        assert len(stderr.splitlines()) == 1


class TestClosedStdout:
    """A reader that has gone is no data error: exit 1 with nothing on stderr."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_silent(self, workdir, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(tscnet.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "tscnet", "evaluate", "--model", str(workdir["model"]),
                 "--labels", str(workdir["labels"])],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.stderr == b""
        assert child.returncode == 1


class TestColdStart:
    def test_cli_import_loads_no_network_stack(self):
        # pathlib itself imports urllib.parse, so the package urllib is always there
        code = ("import sys, tscnet.cli; print(' '.join(sorted(m for m in sys.modules "
                "if m == 'urllib.request' or m.split('.')[0] in ('http', 'ssl', 'socket', 'email'))))")
        env = dict(os.environ, PYTHONPATH=str(Path(tscnet.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=120, check=True)
        assert child.stdout.split() == []

    def test_stage_imports_load_no_network_stack(self):
        # tscnet.cli alone loads no stage; pipeline imports every stage, svgplot included
        code = ("import sys, tscnet.cli, tscnet.pipeline; assert 'tscnet.svgplot' in sys.modules; "
                "print(' '.join(sorted(m for m in sys.modules "
                "if m == 'urllib.request' or m.split('.')[0] in ('http', 'ssl', 'socket', 'email'))))")
        env = dict(os.environ, PYTHONPATH=str(Path(tscnet.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=120, check=True)
        assert child.stdout.split() == []

    @staticmethod
    def child_imports(args):
        """Exit code of a child interpreter given ``args``, and every module it imported."""
        env = dict(os.environ, PYTHONPATH=str(Path(tscnet.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                               text=True, env=env, timeout=120)
        # each import prints "import time: self | cumulative | name" to stderr
        return child.returncode, {line.split("|")[-1].strip() for line in child.stderr.splitlines()
                                  if line.startswith("import time:")}

    @pytest.mark.parametrize("args, code", [
        (["-m", "tscnet", "--help"], 0),
        (["-m", "tscnet"], 2),
        (["-m", "tscnet", "label", "--k", "x"], 2),
        (["-c", "import tscnet"], 0),
    ], ids=["help", "no-verb", "usage-error", "import"])
    def test_starts_without_numpy(self, args, code):
        exit_code, modules = self.child_imports(args)
        assert exit_code == code
        assert "tscnet" in modules
        assert {"numpy", "tscnet.pipeline"} & modules == set()


class TestEvaluate:
    def test_accuracy_and_misses(self, workdir, tmp_path, capsys):
        out = tmp_path / "evaluation.csv"
        stdout, _ = run_cli(capsys, ["evaluate", "--model", str(workdir["model"]),
                                     "--labels", str(workdir["labels"]),
                                     "--out", str(out)])
        lines = stdout.splitlines()
        assert lines[0].startswith("accuracy=")
        assert lines[1].startswith("disagreements=")
        n_disagreements = int(lines[1].split("=")[1])
        assert sum(1 for line in lines if line.startswith("missed ")) == n_disagreements
        accuracy = float(lines[0].split("=")[1])
        assert accuracy == pytest.approx(1.0 - n_disagreements / 70, abs=1e-12)
        csv_lines = out.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "ticker,volatility,return,raw_output,predicted,kmeans,missed"
        assert len(csv_lines) == 71
        assert all(int(line.split(",")[4]) in range(4) for line in csv_lines[1:])
        assert sum(int(line.split(",")[-1]) for line in csv_lines[1:]) == n_disagreements

    def test_missing_model(self, workdir, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["evaluate", "--model", str(tmp_path / "absent"),
                                     "--labels", str(workdir["labels"])], expect=1)
        assert stderr.startswith("error:")

    def test_model_without_one_sigmoid_layer(self, workdir, tmp_path, capsys):
        model = tmp_path / "linear.tscnet"
        save_model(build_network([LayerSpec(2, 1, "linear")], seed=7), model)
        _, stderr = run_cli(capsys, ["evaluate", "--model", str(model),
                                     "--labels", str(workdir["labels"])], expect=1)
        assert stderr == f"error: {model}: cannot infer the cluster count from 0 sigmoid layers\n"

    @pytest.mark.parametrize("specs, message", [
        # evaluate feeds the 2 features in and reads 1 raw output per record
        ([LayerSpec(3, 2, "sigmoid"), LayerSpec(2, 1, "linear")],
         "expected a network from 2 features to 1 output, got 3 -> 1"),
        ([LayerSpec(2, 2, "sigmoid"), LayerSpec(2, 2, "linear")],
         "expected a network from 2 features to 1 output, got 2 -> 2"),
        ([LayerSpec(2, 1, "sigmoid"), LayerSpec(1, 1, "linear")],
         "a sigmoid layer of width 1 gives fewer than 2 clusters"),
    ])
    def test_model_that_cannot_label_refused(self, workdir, tmp_path, capsys, specs, message):
        model = tmp_path / "odd.tscnet"
        save_model(build_network(specs, seed=7), model)
        _, stderr = run_cli(capsys, ["evaluate", "--model", str(model),
                                     "--labels", str(workdir["labels"])], expect=1)
        assert stderr == f"error: {model}: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
    def test_non_finite_weight_refused(self, workdir, tmp_path, capsys, value):
        model = tmp_path / "model.tscnet"
        lines = workdir["model"].read_text(encoding="utf-8").splitlines()
        lines[3] = f"{value} {lines[3].split()[1]}"  # layer 0, row 0
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, stderr = run_cli(capsys, ["evaluate", "--model", str(model),
                                     "--labels", str(workdir["labels"])], expect=1)
        assert stderr == f"error: {model} line 4: non-finite value in layer 0 row 0\n"

    @pytest.mark.parametrize("verb", ["predict", "evaluate"])
    def test_k_flag_is_gone(self, workdir, verb):
        # k is the model's latent width; an override could only clamp
        # predictions. The predict verb is gone too: evaluate --out writes its
        # columns. train --k is checked in TestTrain.
        with pytest.raises(SystemExit) as exc:
            main([verb, "--model", str(workdir["model"]), "--labels", str(workdir["labels"]),
                  "--k", "2"])
        assert exc.value.code == 2


class TestRun:
    def test_full_run(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path / "run.cfg", workdir["prices"], out_dir)
        stdout, _ = run_cli(capsys, ["run", str(config)])
        lines = stdout.splitlines()
        assert lines[0].startswith("k=4 silhouette=")
        assert "train=46 test=24" in lines
        artifact_names = [line.split(" ", 1)[1] for line in lines if line.startswith("artifact ")]
        assert artifact_names == sorted(artifact_names)
        assert set(artifact_names) == {
            LABELS_CSV, MODEL_FILE, LOSS_CSV, EVAL_CSV,
            SCATTER_KMEANS_SVG, SCATTER_AUTONET_SVG,
        }
        assert lines[-1] == f"manifest={out_dir / MANIFEST_FILE}"
        for name in artifact_names:
            assert (out_dir / name).exists()

    def test_two_runs_byte_identical(self, workdir, tmp_path, capsys):
        for tag in ("a", "b"):
            config = write_config(tmp_path / f"{tag}.cfg", workdir["prices"], tmp_path / tag)
            run_cli(capsys, ["run", str(config)])
        for name in (LABELS_CSV, MODEL_FILE, LOSS_CSV, EVAL_CSV, MANIFEST_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stratify_flag(self, workdir, tmp_path):
        # a run-time flag would give one config two manifests
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(config), "--stratify"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_rerun_onto_directory_keeps_previous_bundle(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        run_cli(capsys, ["run", str(write_config(tmp_path / "a.cfg", workdir["prices"], out_dir))])
        (out_dir / EVAL_CSV).unlink()
        (out_dir / EVAL_CSV).mkdir()
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        # another seed, so the model and the loss the rerun would write differ
        config = write_config(tmp_path / "b.cfg", workdir["prices"], out_dir, seed=8)
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
        assert str(out_dir / EVAL_CSV) in stderr
        after = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert after == before
        assert not list(out_dir.glob(".*.tmp"))

    def test_split_leaving_no_training_record(self, workdir, tmp_path, capsys):
        # 70 tickers: ceil(0.99 * 70) = 70 go to the test set
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out",
                              test_fraction=0.99)
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert stderr == "error: [split] test_fraction 0.99 leaves no training record of 70\n"
        assert not (tmp_path / "out").exists()

    def test_features_past_float32_refused_before_training(self, workdir, tmp_path, capsys):
        # returns near 1e42 are fine in float64 but not in float32 training:
        # one error line, no cast warning, and no bundle
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out",
                              trading_days=10**45)
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: [train] inputs hold ")
        assert stderr.endswith(", past the float32 range of training, +/-3.40282e+38\n")
        assert not (tmp_path / "out").exists()

    def test_features_whose_squared_distances_overflow_are_refused(self, workdir, tmp_path, capsys):
        # returns near 1e300: finite features, but squared distances past the
        # float range. One error line, no warning, and nothing written
        message = "points too far apart: squared distances between 70 points overflow a float\n"
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out",
                              trading_days=10**300)
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert stderr == f"error: [label] {message}"
        assert not (tmp_path / "out").exists()
        _, stderr = run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                                     "--trading-days", str(10**300), "--out", str(tmp_path / "labels.csv")],
                            expect=1)
        assert stderr == f"error: {message}"
        assert not (tmp_path / "labels.csv").exists()

    def test_missing_config(self, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["run", str(tmp_path / "absent.cfg")], expect=1)
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("corrupt", ["prices", "config"])
    def test_non_utf8_input_is_one_error_line(self, workdir, tmp_path, capsys, corrupt):
        prices = tmp_path / "prices.csv"
        prices.write_bytes(workdir["prices"].read_bytes())
        config = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        bad = {"prices": prices, "config": config}[corrupt]
        # a prices file's bad byte is named at its line
        where = {"prices": f" line {len(prices.read_bytes().splitlines()) + 1}", "config": ""}[corrupt]
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert stderr.startswith("error: ") and f"{bad}{where}: not UTF-8" in stderr
        assert len(stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_more_clusters_than_palette_colors(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path / "run.cfg", workdir["prices"], out_dir, k=11, epochs=5)
        stdout, _ = run_cli(capsys, ["run", str(config)])
        assert stdout.startswith("k=11 ")
        svg = (out_dir / SCATTER_KMEANS_SVG).read_text(encoding="utf-8")
        assert ">cluster 10</text>" in svg

    def test_bad_config_key(self, workdir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("prices_path = p.csv\nvibe = excellent\n", encoding="utf-8")
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert "unknown key" in stderr


class TestReport:
    @pytest.fixture()
    def run_dir(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path / "run.cfg", workdir["prices"], out_dir, k="auto")
        run_cli(capsys, ["run", str(config)])
        return out_dir

    def test_emits_charts_and_points(self, run_dir, capsys):
        stdout, _ = run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        written = [line.split(" ", 1)[1] for line in stdout.splitlines()
                   if line.startswith("wrote ")]
        assert len(written) == 5
        for name in (K_SWEEP_SVG, LOSS_SVG, SCATTER_KMEANS_SVG, SCATTER_AUTONET_SVG,
                     SCATTER_POINTS_CSV):
            assert (run_dir / name).exists()

    def test_svgs_well_formed(self, run_dir, capsys):
        run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        for name in (K_SWEEP_SVG, LOSS_SVG, SCATTER_KMEANS_SVG, SCATTER_AUTONET_SVG):
            root = ET.fromstring((run_dir / name).read_text(encoding="utf-8"))
            assert root.tag.endswith("svg")

    def test_miss_markers_match_points_csv(self, run_dir, capsys):
        run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        points = (run_dir / SCATTER_POINTS_CSV).read_text(encoding="utf-8").splitlines()
        assert points[0] == "ticker,volatility,return,kmeans,predicted,missed"
        assert len(points) == 71
        n_missed = sum(int(line.split(",")[-1]) for line in points[1:])
        svg = (run_dir / SCATTER_AUTONET_SVG).read_text(encoding="utf-8")
        assert svg.count('class="miss"') == n_missed

    def test_loss_polyline_covers_every_epoch(self, run_dir, capsys):
        run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        svg = (run_dir / LOSS_SVG).read_text(encoding="utf-8")
        start = svg.index('<polyline points="') + len('<polyline points="')
        coords = svg[start:svg.index('"', start)]
        assert len(coords.split()) == 40

    def test_sweep_chart_skipped_without_sweep(self, workdir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = write_config(tmp_path / "run.cfg", workdir["prices"], out_dir)
        run_cli(capsys, ["run", str(config)])
        assert not (out_dir / SWEEP_CSV).exists()
        stdout, _ = run_cli(capsys, ["report", "--out-dir", str(out_dir)])
        assert not (out_dir / K_SWEEP_SVG).exists()
        assert sum(1 for line in stdout.splitlines() if line.startswith("wrote ")) == 4

    def test_fixed_k_rerun_drops_stale_sweep_chart(self, run_dir, workdir, tmp_path, capsys):
        run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        assert (run_dir / K_SWEEP_SVG).exists()
        config = write_config(tmp_path / "fixed.cfg", workdir["prices"], run_dir, k=3)
        run_cli(capsys, ["run", str(config)])
        assert not (run_dir / SWEEP_CSV).exists()
        stdout, _ = run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        assert not (run_dir / K_SWEEP_SVG).exists()
        assert sum(1 for line in stdout.splitlines() if line.startswith("wrote ")) == 4

    @pytest.mark.parametrize("name, text, where", [
        (LOSS_CSV, "epoch,loss\n1,0.5,9\n", "loss.csv line 2"),
        (SWEEP_CSV, "k,silhouette\n2,abc\n", "k_sweep.csv line 2"),
        (LOSS_CSV, "epoch,loss\n", "loss.csv: no rows"),
        (LABELS_CSV, b"\xff\xfe", "labels.csv: not UTF-8"),
        (MODEL_FILE, b"\xff\xfe", "model.tscnet: not UTF-8"),
        (LOSS_CSV, b"\xff\xfe", "loss.csv: not UTF-8"),
        (SWEEP_CSV, b"\xff\xfe", "k_sweep.csv: not UTF-8"),
        (LOSS_CSV, "epoch,loss\n1,0.5\n2,inf\n", "loss.csv line 3: non-finite"),
        (LOSS_CSV, "epoch,loss\n1,0.5\n2,nan\n", "loss.csv line 3: non-finite"),
        (LABELS_CSV, "ticker,volatility,return,cluster\nAAA,0.2,0.1,-3\n",
         "labels.csv line 2: negative"),
        (LABELS_CSV, "ticker,volatility,return,cluster\nAAA,0.2,0.1,0\nBBB,0.3,0.1,2\n",
         "labels.csv: cluster id 2 is not below the row count 2"),
        (LOSS_CSV, "epoch,loss\n1,1e308\n2,-1e308\n", "loss.csv: chart values span"),
        (SWEEP_CSV, "k,silhouette\n2,1e308\n3,-1e308\n", "k_sweep.csv: chart values span"),
        (LABELS_CSV, "ticker,volatility,return,cluster\nAAA,1e308,0.1,0\nBBB,-1e308,0.1,1\n",
         "labels.csv: chart values span"),
    ])
    def test_malformed_input_is_one_error_line(self, run_dir, capsys, name, text, where):
        if isinstance(text, bytes):
            (run_dir / name).write_bytes(text)
        else:
            (run_dir / name).write_text(text, encoding="utf-8")
        _, stderr = run_cli(capsys, ["report", "--out-dir", str(run_dir)], expect=1)
        assert stderr.startswith("error: ") and where in stderr
        assert len(stderr.splitlines()) == 1
        assert not (run_dir / LOSS_SVG).exists()

    @pytest.mark.parametrize("name, text", [
        # a tenth of 5e-324 underflows to zero
        (LOSS_CSV, "epoch,loss\n1,5e-324\n2,5e-324\n"),
        # volatilities one float apart
        (LABELS_CSV, "ticker,volatility,return,cluster\n"
                     "AAA,0.1456654466814668,0.1,0\nBBB,0.14566544668146683,0.2,1\n"),
    ])
    def test_nearly_flat_values_still_chart(self, run_dir, capsys, name, text):
        (run_dir / name).write_text(text, encoding="utf-8")
        stdout, _ = run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        assert sum(1 for line in stdout.splitlines() if line.startswith("wrote ")) == 5
        for chart in (LOSS_SVG, SCATTER_KMEANS_SVG):
            ET.fromstring((run_dir / chart).read_text(encoding="utf-8"))

    def test_cluster_past_palette_in_labels(self, run_dir, capsys):
        labels = run_dir / LABELS_CSV
        labels.write_text(labels.read_text(encoding="utf-8") + "ZZZ,0.3,0.2,12\n",
                          encoding="utf-8")
        run_cli(capsys, ["report", "--out-dir", str(run_dir)])
        svg = (run_dir / SCATTER_KMEANS_SVG).read_text(encoding="utf-8")
        assert ">cluster 12</text>" in svg

    def test_missing_artifacts(self, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["report", "--out-dir", str(tmp_path)], expect=1)
        assert "missing artifact" in stderr


class TestSeedResolution:
    def test_env_seed_is_ignored(self, workdir, tmp_path, capsys, monkeypatch):
        # the seed is --seed or 7; no environment variable moves it
        flagged = tmp_path / "flagged.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--seed", "7", "--out", str(flagged)])
        monkeypatch.setenv("TSC_SEED", "123")
        env_set = tmp_path / "env.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--out", str(env_set)])
        assert flagged.read_bytes() == env_set.read_bytes()


class TestDefaults:
    """Every surface reads each run default from `tscnet.defaults`."""

    EXPECTED = {
        "k": defaults.AUTO,
        "k_min": defaults.K_MIN,
        "k_max": defaults.K_MAX,
        "seed": defaults.SEED,
        "trading_days": defaults.TRADING_DAYS,
        "epochs": defaults.EPOCHS,
        "batch_size": defaults.BATCH_SIZE,
        "test_fraction": defaults.TEST_FRACTION,
    }

    def test_parser_defaults(self):
        label = build_parser().parse_args(["label", "--prices", "p.csv", "--out", "l.csv"])
        train = build_parser().parse_args(["train", "--labels", "l.csv", "--out-dir", "o"])
        assert (label.k, label.k_min, label.k_max, label.seed, label.trading_days) == (
            defaults.AUTO, defaults.K_MIN, defaults.K_MAX, defaults.SEED, defaults.TRADING_DAYS)
        assert (train.epochs, train.batch, train.seed) == (defaults.EPOCHS, defaults.BATCH_SIZE, defaults.SEED)

    def test_config_defaults(self):
        found = {f.name: f.default for f in fields(PipelineConfig) if f.name in self.EXPECTED}
        assert found == self.EXPECTED

    @pytest.mark.parametrize("fn, names", [
        (pipeline.load_table, {"trading_days"}),
        (pipeline.stage1_label, {"k", "seed", "k_min", "k_max"}),
        (pipeline.stage2_train, {"epochs", "batch_size", "seed"}),
        (features.build_feature_table, {"trading_days"}),
        (kmeans.kmeans_fit, {"seed"}),
        (kmeans.select_k, {"k_min", "k_max", "seed"}),
        (autonet.build_autoencoder, {"seed"}),
        (autonet.train, {"epochs", "batch_size", "seed"}),
        (defaults.check_settings, set(EXPECTED)),
    ], ids=lambda v: getattr(v, "__qualname__", ""))
    def test_library_defaults(self, fn, names):
        params = inspect.signature(fn).parameters
        assert {name: params[name].default for name in names} == {name: self.EXPECTED[name] for name in names}
