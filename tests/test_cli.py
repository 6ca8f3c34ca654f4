"""CLI tests, run in-process through main().

Exit code contract: 0 success, 1 data/runtime error, 2 usage error (argparse
raises SystemExit for those).
"""

import xml.etree.ElementTree as ET

import pytest

from conftest import blob_targets, write_prices_csv
from tscnet.cli import K_SWEEP_SVG, LOSS_SVG, SCATTER_POINTS_CSV, main
from tscnet.kmeans import read_sweep_csv
from tscnet.pipeline import (
    EVAL_CSV,
    LABELS_CSV,
    LOSS_CSV,
    MANIFEST_FILE,
    MODEL_FILE,
    SCATTER_AUTONET_SVG,
    SCATTER_KMEANS_SVG,
    SWEEP_CSV,
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

    @pytest.mark.parametrize("verb", ["label", "select-k", "train", "predict",
                                      "evaluate", "run", "report"])
    def test_help_exits_zero(self, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0


class TestLabel:
    def test_fixed_k(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        stdout, _ = run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                                     "--k", "4", "--seed", "7", "--out", str(out)])
        assert stdout.startswith("k=4 silhouette=")
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ticker,volatility,return,cluster"
        assert len(lines) == 71

    def test_auto_k_picks_four(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        stdout, _ = run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                                     "--seed", "7", "--out", str(out)])
        assert stdout.startswith("k=4 ")

    def test_repeat_is_byte_identical(self, workdir, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                             "--k", "4", "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_canonical_orders_by_return(self, workdir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--seed", "7", "--canonical-labels", "--out", str(out)])
        means: dict[int, list[float]] = {}
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            _, _, ret, cluster = line.split(",")
            means.setdefault(int(cluster), []).append(float(ret))
        ordered = [sum(means[c]) / len(means[c]) for c in sorted(means)]
        assert ordered == sorted(ordered, reverse=True)

    def test_missing_prices_file(self, tmp_path, capsys):
        stdout, stderr = run_cli(
            capsys,
            ["label", "--prices", str(tmp_path / "absent.csv"), "--out",
             str(tmp_path / "x.csv")],
            expect=1,
        )
        assert stderr.startswith("error:")


class TestSelectK:
    def test_sweep_output(self, workdir, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        stdout, _ = run_cli(capsys, ["select-k", "--prices", str(workdir["prices"]),
                                     "--k-min", "2", "--k-max", "8", "--seed", "7",
                                     "--out", str(sweep_csv)])
        lines = stdout.splitlines()
        assert lines[-1] == "best k=4"
        assert sum(1 for line in lines if line.startswith("k=")) == 7
        sweep = read_sweep_csv(sweep_csv)
        assert [k for k, _ in sweep] == list(range(2, 9))
        best = max(sweep, key=lambda pair: pair[1])
        assert best[0] == 4

    @pytest.fixture()
    def six_tickers(self, tmp_path):
        prices = tmp_path / "six.csv"
        write_prices_csv(prices, blob_targets(seed=5)[:6])
        return prices

    def test_k_max_clamped_to_n_minus_one(self, six_tickers, tmp_path, capsys):
        stdout, _ = run_cli(capsys, ["select-k", "--prices", str(six_tickers),
                                     "--k-min", "2", "--k-max", "10"])
        lines = stdout.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [f"k={k}" for k in range(2, 6)]
        label_out, _ = run_cli(capsys, ["label", "--prices", str(six_tickers), "--k", "auto",
                                        "--out", str(tmp_path / "labels.csv")])
        assert lines[-1] == f"best {label_out.split()[0]}"

    def test_k_min_above_n_minus_one(self, six_tickers, capsys):
        _, stderr = run_cli(capsys, ["select-k", "--prices", str(six_tickers),
                                     "--k-min", "6"], expect=1)
        assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1


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

    def test_explicit_k_matches_inferred(self, workdir, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli(capsys, ["train", "--labels", str(workdir["labels"]), "--epochs", "3",
                         "--seed", "7", "--out-dir", str(a)])
        run_cli(capsys, ["train", "--labels", str(workdir["labels"]), "--epochs", "3",
                         "--k", "4", "--seed", "7", "--out-dir", str(b)])
        assert (a / MODEL_FILE).read_bytes() == (b / MODEL_FILE).read_bytes()

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


class TestPredict:
    def test_stdout_table(self, workdir, capsys):
        stdout, _ = run_cli(capsys, ["predict", "--model", str(workdir["model"]),
                                     "--labels", str(workdir["labels"])])
        lines = stdout.splitlines()
        assert lines[0] == "ticker,volatility,return,raw_output,predicted"
        assert len(lines) == 71
        for line in lines[1:]:
            assert int(line.split(",")[4]) in range(4)

    def test_out_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "predictions.csv"
        stdout, _ = run_cli(capsys, ["predict", "--model", str(workdir["model"]),
                                     "--labels", str(workdir["labels"]),
                                     "--out", str(out)])
        assert stdout.startswith("predictions=")
        assert len(out.read_text(encoding="utf-8").splitlines()) == 71

    def test_missing_model(self, workdir, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["predict", "--model", str(tmp_path / "absent"),
                                     "--labels", str(workdir["labels"])], expect=1)
        assert stderr.startswith("error:")


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
        assert len(csv_lines) == 71
        assert sum(int(line.split(",")[-1]) for line in csv_lines[1:]) == n_disagreements


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

    def test_stratify_flag(self, workdir, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", workdir["prices"], tmp_path / "out")
        stdout, _ = run_cli(capsys, ["run", str(config), "--stratify"])
        assert "train=46 test=24" in stdout.splitlines()

    def test_missing_config(self, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["run", str(tmp_path / "absent.cfg")], expect=1)
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("corrupt", ["prices", "config"])
    def test_non_utf8_input_is_one_error_line(self, workdir, tmp_path, capsys, corrupt):
        prices = tmp_path / "prices.csv"
        prices.write_bytes(workdir["prices"].read_bytes())
        config = write_config(tmp_path / "run.cfg", prices, tmp_path / "out")
        bad = {"prices": prices, "config": config}[corrupt]
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
        _, stderr = run_cli(capsys, ["run", str(config)], expect=1)
        assert stderr.startswith("error: ") and f"{bad}: not UTF-8" in stderr
        assert len(stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()

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

    def test_missing_artifacts(self, tmp_path, capsys):
        _, stderr = run_cli(capsys, ["report", "--out-dir", str(tmp_path)], expect=1)
        assert "missing artifact" in stderr


class TestSeedResolution:
    def test_env_seed_matches_flag(self, workdir, tmp_path, capsys, monkeypatch):
        flagged = tmp_path / "flagged.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--seed", "123", "--out", str(flagged)])
        monkeypatch.setenv("TSC_SEED", "123")
        env_seeded = tmp_path / "env.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--out", str(env_seeded)])
        assert flagged.read_bytes() == env_seeded.read_bytes()

    def test_flag_overrides_env(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSC_SEED", "9999")
        overridden = tmp_path / "overridden.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--seed", "123", "--out", str(overridden)])
        monkeypatch.delenv("TSC_SEED")
        plain = tmp_path / "plain.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--seed", "123", "--out", str(plain)])
        assert overridden.read_bytes() == plain.read_bytes()

    def test_invalid_env_seed_without_flag(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSC_SEED", "lucky")
        _, stderr = run_cli(capsys, ["label", "--prices", str(workdir["prices"]),
                                     "--k", "4", "--out", str(tmp_path / "x.csv")],
                            expect=1)
        assert "TSC_SEED" in stderr

    def test_invalid_env_seed_ignored_with_flag(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSC_SEED", "lucky")
        out = tmp_path / "labels.csv"
        run_cli(capsys, ["label", "--prices", str(workdir["prices"]), "--k", "4",
                         "--seed", "7", "--out", str(out)])
        assert out.exists()
