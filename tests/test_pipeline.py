"""Pipeline tests: splitting, staged fitting, evaluation, config, artifacts."""

import datetime as dt
import hashlib
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BLOB_CENTERS, blob_targets, records_of, widths, write_prices_csv
import tscnet
from tscnet import autonet, cli, ingest, kmeans, pipeline
from tscnet.autonet import DenseNetwork, LayerSpec, TrainHistory, load_model
from tscnet.autonet import count_parameters
from tscnet.errors import PipelineError, TscnetError
from tscnet.features import build_feature_table
from tscnet.ingest import load_price_table
from tscnet.rng import Xorshift64Star
from tscnet.pipeline import (
    AUTO,
    EVAL_CSV,
    LABELS_CSV,
    LOSS_COLUMNS,
    LOSS_CSV,
    MODEL_FILE,
    SCATTER_AUTONET_SVG,
    SCATTER_KMEANS_SVG,
    SWEEP_CSV,
    PipelineConfig,
    Records,
    evaluate,
    evaluation_csv,
    label_accuracy,
    load_table,
    loss_csv,
    parse_config,
    read_csv,
    run_pipeline,
    split,
    stage1_label,
    stage2_train,
    write_files,
)


def make_records(n, cluster_of=lambda i: i % 4):
    return records_of((f"T{i:03d}", 0.1 + 0.01 * i, 0.02 * i, cluster_of(i)) for i in range(n))


def linear_net(w_vol, w_ret, bias):
    return DenseNetwork([LayerSpec(2, 1, "linear")], [w_vol, w_ret, bias])


@pytest.fixture(scope="module")
def blob_features(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    targets = blob_targets(seed=5)
    path = root / "prices.csv"
    write_prices_csv(path, targets)
    tickers, points, _ = load_table(path, None, None)
    return (tickers, points), targets


class TestRecords:
    def test_columns_must_align(self):
        with pytest.raises(TscnetError, match=r"^1 tickers vs features \(2, 2\), clusters \(1,\)$"):
            Records(("A",), np.zeros((2, 2)), np.zeros(1, dtype=np.int64))
        with pytest.raises(TscnetError, match=r"^2 tickers vs features \(2, 2\), clusters \(3,\)$"):
            Records(("A", "B"), np.zeros((2, 2)), np.zeros(3, dtype=np.int64))

class TestSplit:
    def test_fraction_bounds(self):
        split(make_records(4), 0.33, 7)
        for fraction in (0.0, 1.0, -0.2):
            with pytest.raises(TscnetError, match=rf"^test_fraction must be in \(0, 1\), got {fraction}$"):
                split(make_records(4), fraction, 7)

    def test_seventy_at_third_gives_24_test(self):
        train_recs, test_recs = split(make_records(70), 0.33, 7)
        assert len(test_recs) == 24
        assert len(train_recs) == 46

    def test_ceiling_on_exact_half(self):
        train_recs, test_recs = split(make_records(4), 0.5, 7)
        assert len(test_recs) == 2
        assert len(train_recs) == 2

    def test_partition_no_loss_no_overlap(self):
        records = make_records(31)
        train_recs, test_recs = split(records, 0.4, 3)
        combined = sorted(train_recs.tickers + test_recs.tickers)
        assert combined == sorted(records.tickers)

    def test_deterministic(self):
        records = make_records(25)
        a = split(records, 0.33, 11)
        b = split(records, 0.33, 11)
        for part_a, part_b in zip(a, b):
            assert part_a.tickers == part_b.tickers
            assert np.array_equal(part_a.features, part_b.features)
            assert np.array_equal(part_a.clusters, part_b.clusters)

    def test_seed_changes_membership(self):
        records = make_records(40)
        _, test_a = split(records, 0.33, 1)
        _, test_b = split(records, 0.33, 2)
        assert set(test_a.tickers) != set(test_b.tickers)

    def test_too_small(self):
        with pytest.raises(TscnetError, match=r"^need at least 2 records to split, got 1$"):
            split(make_records(1), 0.33, 7)
        with pytest.raises(TscnetError, match=r"^need at least 2 records to split, got 0$"):
            split(make_records(0), 0.33, 7)

    def test_no_training_record_left(self):
        with pytest.raises(TscnetError, match=r"^test_fraction 0\.999 leaves no training record of 500$"):
            split(make_records(500), 0.999, 7)
        with pytest.raises(TscnetError, match=r"^test_fraction 0\.6 leaves no training record of 2$"):
            split(make_records(2), 0.6, 7)
        train_recs, _ = split(make_records(2), 0.5, 7)
        assert len(train_recs) == 1

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=2, max_value=80),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_partition_property(self, n, fraction, seed):
        records = make_records(n)
        if math.ceil(fraction * n) == n:
            with pytest.raises(TscnetError, match=r"leaves no training record"):
                split(records, fraction, seed)
            return
        train_recs, test_recs = split(records, fraction, seed)
        assert len(test_recs) == math.ceil(fraction * n)
        assert sorted(train_recs.tickers + test_recs.tickers) == sorted(records.tickers)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.integers(0, 5)),
            min_size=2,
            max_size=60,
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_split_keeps_rows_aligned(self, rows, seed):
        records = records_of((f"T{i:02d}", v, r, c) for i, (v, r, c) in enumerate(rows))
        train_recs, test_recs = split(records, 0.33, seed)
        assert sorted([*train_recs.rows(), *test_recs.rows()]) == sorted(records.rows())


class TestStage1:
    def test_blob_labels_recover_truth(self, blob_features):
        features, targets = blob_features
        records, model, _ = stage1_label(*features, k=4, seed=7)
        assert model.k == 4
        assert len(records) == 70
        truth = {t: min(range(4), key=lambda c: (BLOB_CENTERS[c][0] - v) ** 2 + (BLOB_CENTERS[c][1] - r) ** 2)
                 for t, v, r in targets}
        by_pair = {}
        for ticker, cluster in zip(records.tickers, records.clusters.tolist()):
            by_pair.setdefault((truth[ticker], cluster), 0)
            by_pair[truth[ticker], cluster] += 1
        # each true blob maps to exactly one fitted cluster
        fitted_of = {}
        for (true_c, fit_c), _count in by_pair.items():
            assert fitted_of.setdefault(true_c, fit_c) == fit_c
        assert len(set(fitted_of.values())) == 4

    def test_auto_k_picks_four(self, blob_features):
        features, _ = blob_features
        records, model, _ = stage1_label(*features, k=AUTO, seed=7)
        assert model.k == 4
        assert model.silhouette is not None
        assert set(records.clusters.tolist()) == {0, 1, 2, 3}

    def test_sweep_only_for_auto_k(self, blob_features):
        features, _ = blob_features
        _, model, sweep = stage1_label(*features, k=AUTO, seed=7, k_max=6)
        assert [k for k, _ in sweep] == [2, 3, 4, 5, 6]
        assert dict(sweep)[model.k] == model.silhouette
        assert stage1_label(*features, k=4, seed=7)[2] is None

    def test_records_sorted_by_ticker(self, blob_features):
        features, _ = blob_features
        records, _, _ = stage1_label(*features, k=4, seed=7)
        assert list(records.tickers) == sorted(records.tickers)

    def test_canonical_orders_clusters_by_return(self, blob_features):
        # seed 7's raw k-means++ numbering on this fixture is not
        # return-monotone, at k = 4 and at the k = 4 the sweep picks
        features, _ = blob_features
        for k in (4, AUTO):
            records, model, _ = stage1_label(*features, k=k, seed=7)
            means = {}
            for _, _, ret, cluster in records.rows():
                means.setdefault(cluster, []).append(ret)
            ordered = [np.mean(means[c]) for c in sorted(means)]
            assert len(ordered) == 4
            assert ordered == sorted(ordered, reverse=True)
            assert list(model.centroids[:, 1]) == sorted(model.centroids[:, 1], reverse=True)

    def test_k_exceeding_tickers_rejected(self, blob_features):
        features, _ = blob_features
        with pytest.raises(TscnetError, match=r"^k=71 outside \[1, 70\]$"):
            stage1_label(*features, k=71, seed=7)

    def test_bogus_k_rejected(self, blob_features):
        features, _ = blob_features
        with pytest.raises(TscnetError, match=r"^k must be an integer >= 2 or 'auto', got 'five'$"):
            stage1_label(*features, k="five", seed=7)

    @pytest.mark.parametrize("k, k_min, k_max", [(4, 9, 3), (AUTO, 1, 10)])
    def test_k_range_refused_as_by_a_config(self, blob_features, tmp_path, k, k_min, k_max):
        features, _ = blob_features
        with pytest.raises(TscnetError) as refused:
            PipelineConfig(prices_path=tmp_path / "p.csv", k=k, k_min=k_min, k_max=k_max)
        with pytest.raises(TscnetError, match=f"^{re.escape(str(refused.value))}$"):
            stage1_label(*features, k=k, seed=7, k_min=k_min, k_max=k_max)

    def test_short_series_dropped_at_ingest(self, tmp_path):
        path = tmp_path / "prices.csv"
        rows = ["ticker,date,adj_close"]
        for i, day in enumerate(("2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07")):
            rows.append(f"AAA,{day},{100 + i}")
            rows.append(f"BBB,{day},{200 - i}")
            rows.append(f"CCC,{day},{150 + 2 * i}")
        # two rows yield a single return, too short to feature
        rows.append("SHT,2020-01-02,10")
        rows.append("SHT,2020-01-03,11")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tickers, points, warnings = load_table(path, None, None)
        records, _, _ = stage1_label(tickers, points, k=2, seed=7)
        assert set(records.tickers) == {"AAA", "BBB", "CCC"}
        assert any(w.startswith("SHT:") for w in warnings)


class TestStage2:
    def test_parameter_budget(self):
        net, _ = stage2_train(make_records(8), num_clusters=4, epochs=1, seed=7)
        assert count_parameters(net) == 12805

    def test_history_matches_epochs(self):
        _, history = stage2_train(make_records(8), num_clusters=4, epochs=3, seed=7)
        assert len(history.losses) == 3

    def test_blobs_reach_low_loss(self, blob_features):
        features, _ = blob_features
        records, _, _ = stage1_label(*features, k=4, seed=7)
        train_recs, test_recs = split(records, 0.33, 7)
        net, history = stage2_train(train_recs, num_clusters=4, epochs=1000, seed=7)
        assert history.final_loss() < 0.05
        report = evaluate(net, test_recs, num_clusters=4)
        assert report.accuracy >= 0.90


class TestLabelAccuracy:
    def test_exact_fraction(self):
        assert label_accuracy([1, 2, 3, 0], [1, 2, 3, 0]) == 1.0
        assert label_accuracy([1, 2, 3, 0], [1, 2, 0, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(TscnetError, match=r"^no labels to compare$"):
            label_accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(TscnetError, match=r"^label shapes differ: \(2,\) vs \(1,\)$"):
            label_accuracy([1, 2], [1])

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
           st.integers(min_value=0, max_value=10**6))
    def test_permutation_invariant(self, labels, seed):
        gen = Xorshift64Star(seed)
        order = list(range(len(labels)))
        gen.shuffle(order)
        ref = [labels[i] for i in order]
        pred = [(labels[i] + 1) % 4 for i in order]
        base = label_accuracy([(v + 1) % 4 for v in labels], labels)
        assert label_accuracy(pred, ref) == base


class TestEvaluate:
    def test_twenty_one_of_twenty_four(self):
        # raw output equals the return column; returns land at cluster + 0.1
        net = linear_net(0.0, 1.0, 0.0)
        records = []
        for i in range(24):
            want = i % 4
            kmeans_label = want if i < 21 else (want + 1) % 4
            records.append((f"T{i:03d}", 0.2, want + 0.1, kmeans_label))
        report = evaluate(net, records_of(records), num_clusters=4)
        assert report.accuracy == 0.875
        missed = np.flatnonzero(report.predicted != report.records.clusters)
        assert missed.tolist() == [21, 22, 23]

    def test_perfect_agreement(self):
        net = linear_net(0.0, 1.0, 0.0)
        records = records_of((f"T{i}", 0.3, float(i % 3), i % 3) for i in range(9))
        report = evaluate(net, records, num_clusters=3)
        assert report.accuracy == 1.0
        assert np.array_equal(report.predicted, records.clusters)

    def test_raw_outputs_recorded(self):
        net = linear_net(2.0, 0.0, 0.5)
        records = records_of([("A", 0.25, 9.9, 1)])
        report = evaluate(net, records, num_clusters=4)
        assert report.raw[0] == pytest.approx(1.0, abs=1e-15)
        assert report.predicted[0] == 1

    def test_empty_rejected(self):
        with pytest.raises(TscnetError, match=r"^no test records$"):
            evaluate(linear_net(0.0, 1.0, 0.0), make_records(0), num_clusters=4)

    def test_network_with_two_outputs_rejected(self):
        # a second output column is refused, not silently ignored
        net = DenseNetwork([LayerSpec(2, 2, "sigmoid"), LayerSpec(2, 2, "linear")], np.zeros(12))
        with pytest.raises(TscnetError, match=r"^label prediction expects a 1-wide output, got 2$"):
            evaluate(net, make_records(8), num_clusters=4)


class TestCsvWriters:
    def test_evaluation_round_trip_text(self, tmp_path):
        net = linear_net(0.0, 1.0, 0.0)
        records = records_of([("AAA", 0.31, 1.07, 1), ("BBB", 0.11, 2.9, 2)])
        report = evaluate(net, records, num_clusters=4)
        path = tmp_path / "evaluation.csv"
        path.write_text(evaluation_csv(report), encoding="utf-8")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "ticker,volatility,return,raw_output,predicted,kmeans,missed"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "AAA"
        assert float(first[1]) == pytest.approx(0.31, rel=1e-11)
        assert first[4] == "1" and first[5] == "1" and first[6] == "0"

    def test_loss_round_trip(self, tmp_path):
        losses = (3.25, 1.0 / 3.0, 0.125e-5)
        history = TrainHistory(losses=losses)
        path = tmp_path / "loss.csv"
        path.write_text(loss_csv(history), encoding="utf-8")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,loss"
        assert lines[1].startswith("1,")
        assert read_csv(path, LOSS_COLUMNS) == [(1, 3.25), (2, 1.0 / 3.0), (3, 0.125e-5)]

    def test_loss_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("epoch,loss\none,0.5\n", encoding="utf-8")
        message = f"{path} line 2: invalid literal for int() with base 10: 'one'"
        with pytest.raises(TscnetError, match=f"^{re.escape(message)}$"):
            read_csv(path, LOSS_COLUMNS)

    def test_loss_csv_rejects_extra_field(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("epoch,loss\n1,0.5\n\n2,0.25,9\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=r"loss\.csv line 4: expected 2 fields, got 3$"):
            read_csv(path, LOSS_COLUMNS)

    def test_loss_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("loss,epoch\n0.5,1\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=r"loss\.csv: bad header 'loss,epoch', expected 'epoch,loss'$"):
            read_csv(path, LOSS_COLUMNS)


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_full_config(self, tmp_path):
        (tmp_path / "prices.csv").write_text("ticker,date,close\n", encoding="utf-8")
        cfg = parse_config(self.write(tmp_path, "\n".join([
            "# nightly run",
            "prices_path = prices.csv",
            "k = auto",
            "k_min = 2",
            "k_max = 8",
            "seed = 11",
            "epochs = 50",
            "batch_size = 64",
            "test_fraction = 0.25",
            "trading_days = 252",
            "out_dir = artifacts",
        ])))
        assert cfg.prices_path == tmp_path / "prices.csv"
        assert cfg.k == AUTO
        assert cfg.k_max == 8
        assert cfg.seed == 11
        assert cfg.test_fraction == 0.25
        assert cfg.out_dir == tmp_path / "artifacts"

    def test_minimal_config_uses_defaults(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "prices_path = p.csv\n"))
        assert cfg.k == AUTO
        assert cfg.epochs == 1000
        assert cfg.batch_size == 1024
        assert cfg.test_fraction == 0.33
        assert cfg.seed == 7
        assert cfg.trading_days == 252

    def test_integer_k(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "prices_path = p.csv\nk = 5\n"))
        assert cfg.k == 5

    def test_missing_prices_path(self, tmp_path):
        with pytest.raises(TscnetError, match=r"run\.cfg: config is missing required key 'prices_path'$"):
            parse_config(self.write(tmp_path, "k = 3\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(TscnetError, match=r"run\.cfg: line 2: unknown key 'shoes'$"):
            parse_config(self.write(tmp_path, "prices_path = p.csv\nshoes = 2\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(TscnetError, match=r"run\.cfg: line 3: duplicate key 'seed'$"):
            parse_config(self.write(tmp_path, "prices_path = p.csv\nseed = 1\nseed = 2\n"))

    def test_bad_values(self, tmp_path):
        for line, message in (
            ("seed = -1", "seed must be >= 0, got -1"),
            ("epochs = 0", "epochs and batch_size must be >= 1"),
            ("test_fraction = 1.5", "test_fraction must be in (0, 1), got 1.5"),
            ("k = 0", "k must be an integer >= 2 or 'auto', got 0"),
            ("batch_size = none", "batch_size must be an integer, got 'none'"),
            ("start_date = 2020/01/01", "start_date must be YYYY-MM-DD, got '2020/01/01'"),
            ("k_min = 1", "need 2 <= k_min <= k_max, got [1, 10]"),
            ("test_fraction = half", "test_fraction must be a number, got 'half'"),
        ):
            path = self.write(tmp_path, f"prices_path = p.csv\n{line}\n")
            with pytest.raises(TscnetError, match=f"^{re.escape(f'{path}: {message}')}$"):
                parse_config(path)

    def test_empty_value_rejected(self, tmp_path):
        with pytest.raises(TscnetError, match=r"run\.cfg: line 2: empty value for 'seed'$"):
            parse_config(self.write(tmp_path, "prices_path = p.csv\nseed =\n"))

    def test_line_without_separator_rejected(self, tmp_path):
        with pytest.raises(TscnetError, match=r"run\.cfg: line 2: expected 'key = value', got 'just words'$"):
            parse_config(self.write(tmp_path, "prices_path = p.csv\njust words\n"))

    def test_colon_separator_rejected(self, tmp_path):
        # `=` is the one separator, so a colon line is a line without one
        with pytest.raises(TscnetError, match=r"run\.cfg: line 2: expected 'key = value', got 'k: auto'$"):
            parse_config(self.write(tmp_path, "prices_path = p.csv\nk: auto\n"))

    def test_colon_line_holding_an_equals_sign_rejected(self, tmp_path):
        # the line splits at the `=` in the path, but its key part is no key
        with pytest.raises(TscnetError, match=(
                r"run\.cfg: line 1: expected 'key = value', got 'prices_path: /data/a=b/prices\.csv'$")):
            parse_config(self.write(tmp_path, "prices_path: /data/a=b/prices.csv\n"))

    def test_equals_sign_in_a_path(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "prices_path = a=b/p.csv\nout_dir = out#1\n"))
        assert cfg.prices_path == tmp_path / "a=b" / "p.csv"
        assert cfg.out_dir == tmp_path / "out#1"

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.cfg"
        with pytest.raises(TscnetError, match=f"^cannot read config {re.escape(str(path))}: .*No such file"):
            parse_config(path)

    def test_tickers_path_resolved_relative(self, tmp_path):
        cfg = parse_config(self.write(
            tmp_path, "prices_path = p.csv\ntickers_path = lists/keep.txt\n"))
        assert cfg.tickers_path == tmp_path / "lists" / "keep.txt"


class TestPipelineConfigValidation:
    def test_defaults_valid(self, tmp_path):
        PipelineConfig(prices_path=tmp_path / "p.csv")

    def test_rejects_bad_fields(self, tmp_path):
        base = dict(prices_path=tmp_path / "p.csv")
        for kwargs, message in (
            (dict(k=0), "k must be an integer >= 2 or 'auto', got 0"),
            (dict(k=1), "k must be an integer >= 2 or 'auto', got 1"),
            (dict(k="sometimes"), "k must be an integer >= 2 or 'auto', got 'sometimes'"),
            (dict(k_min=1), "need 2 <= k_min <= k_max, got [1, 10]"),
            (dict(k_min=9, k_max=3), "need 2 <= k_min <= k_max, got [9, 3]"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
            (dict(epochs=0), "epochs and batch_size must be >= 1"),
            (dict(batch_size=0), "epochs and batch_size must be >= 1"),
            (dict(test_fraction=0.0), "test_fraction must be in (0, 1), got 0.0"),
            (dict(trading_days=0), "trading_days must be >= 1, got 0"),
        ):
            with pytest.raises(TscnetError, match=f"^{re.escape(message)}$"):
                PipelineConfig(**base, **kwargs)


class TestRunPipeline:
    @pytest.fixture()
    def prices(self, tmp_path):
        path = tmp_path / "prices.csv"
        write_prices_csv(path, blob_targets(seed=5))
        return path

    def run_config(self, prices, out_dir, **overrides):
        kwargs = dict(
            prices_path=prices,
            out_dir=out_dir,
            k=4,
            epochs=40,
            batch_size=1024,
            test_fraction=0.33,
            seed=7,
        )
        kwargs.update(overrides)
        return PipelineConfig(**kwargs)

    def test_fixed_k_writes_six_artifacts(self, tmp_path, prices):
        result = run_pipeline(self.run_config(prices, tmp_path / "out"))
        assert sorted(result.artifacts) == sorted(
            [LABELS_CSV, MODEL_FILE, LOSS_CSV, EVAL_CSV,
             SCATTER_KMEANS_SVG, SCATTER_AUTONET_SVG]
        )
        assert len(result.artifacts) == 6
        manifest = result.manifest_path.read_text(encoding="utf-8").splitlines()
        assert len(manifest) == 6
        assert result.sweep is None
        assert result.model.k == 4

    def test_auto_k_adds_sweep(self, tmp_path, prices):
        result = run_pipeline(self.run_config(prices, tmp_path / "out", k=AUTO))
        assert SWEEP_CSV in result.artifacts
        assert len(result.artifacts) == 7
        assert result.model.k == 4
        assert result.sweep is not None

    def test_fixed_k_rerun_removes_stale_sweep(self, tmp_path, prices):
        out = tmp_path / "out"
        run_pipeline(self.run_config(prices, out, k=AUTO))
        assert (out / SWEEP_CSV).exists()
        result = run_pipeline(self.run_config(prices, out, k=3))
        assert not (out / SWEEP_CSV).exists()
        assert SWEEP_CSV not in result.manifest_path.read_text(encoding="utf-8")

    def test_clustering_failure_tagged_label(self, tmp_path, prices):
        with pytest.raises(PipelineError) as exc:
            run_pipeline(self.run_config(prices, tmp_path / "out", k=71))
        assert exc.value.stage == "label"
        assert str(exc.value).startswith("[label] ")
        assert not (tmp_path / "out").exists()

    def test_manifest_hashes_verify(self, tmp_path, prices):
        result = run_pipeline(self.run_config(prices, tmp_path / "out"))
        for line in result.manifest_path.read_text(encoding="utf-8").splitlines():
            digest, name = line.split("  ", 1)
            actual = hashlib.sha256(
                (result.manifest_path.parent / name).read_bytes()).hexdigest()
            assert digest == actual

    def test_names_sorted_in_manifest(self, tmp_path, prices):
        result = run_pipeline(self.run_config(prices, tmp_path / "out"))
        names = [line.split("  ", 1)[1] for line in
                 result.manifest_path.read_text(encoding="utf-8").splitlines()]
        assert names == sorted(names)

    def test_repeat_runs_byte_identical(self, tmp_path, prices):
        a = run_pipeline(self.run_config(prices, tmp_path / "a"))
        b = run_pipeline(self.run_config(prices, tmp_path / "b"))
        for name in (LABELS_CSV, MODEL_FILE, LOSS_CSV, EVAL_CSV):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_rerun_keeps_previous_bundle(self, tmp_path, prices, monkeypatch):
        out = tmp_path / "out"
        run_pipeline(self.run_config(prices, out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def refuse(net, path):
            raise OSError("disk full")

        monkeypatch.setattr(autonet, "save_model", refuse)
        with pytest.raises(PipelineError, match=r"\[emit\] disk full"):
            run_pipeline(self.run_config(prices, out, seed=8))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_missing_prices_fails_in_ingest(self, tmp_path):
        config = PipelineConfig(prices_path=tmp_path / "absent.csv", out_dir=tmp_path / "out")
        with pytest.raises(PipelineError) as exc:
            run_pipeline(config)
        assert exc.value.stage == "ingest"
        assert "[ingest]" in str(exc.value)

    @staticmethod
    def watch_prices(monkeypatch):
        """Weakrefs to every close column that ingest loads; each entry of
        k-means from outside it asserts that all of them are dead."""
        refs, entries = [], []
        load = ingest.load_price_table

        def loading(*args):
            closes, warnings = load(*args)
            refs.extend(weakref.ref(column) for column in closes.values())
            return closes, warnings

        monkeypatch.setattr(ingest, "load_price_table", loading)
        for name in ("select_k", "kmeans_fit"):
            def entering(*args, _fn=getattr(kmeans, name), _name=name, **kwargs):
                entries.append(_name)
                assert all(ref() is None for ref in refs)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(kmeans, name, entering)
        return refs, entries

    @pytest.mark.parametrize("k, entries", [
        (4, ["kmeans_fit"]),
        # the sweep over k = 2..5 fits each k through the module namespace
        (AUTO, ["select_k"] + ["kmeans_fit"] * 4),
    ], ids=["fixed-k", "auto-k"])
    def test_prices_freed_before_k_means(self, tmp_path, prices, monkeypatch, k, entries):
        # nothing after the features reads the price table, which grows as
        # tickers x days, so none of it may live through Stage 1's k-means,
        # in a run and in `label`
        refs, entered = self.watch_prices(monkeypatch)
        run_pipeline(self.run_config(prices, tmp_path / "out", k=k, k_max=5, epochs=2))
        assert cli.main(["label", "--prices", str(prices), "--k", str(k), "--k-max", "5",
                         "--out", str(tmp_path / "labels.csv")]) == 0
        assert len(refs) == 2 * 70
        assert entered == entries * 2

    def test_prices_freed_before_training(self, tmp_path, prices, monkeypatch):
        refs, _ = self.watch_prices(monkeypatch)
        train = autonet.train

        def training(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            return train(*args, **kwargs)

        monkeypatch.setattr(autonet, "train", training)
        run_pipeline(self.run_config(prices, tmp_path / "out"))
        assert len(refs) == 70

    def test_result_exposes_records_and_history(self, tmp_path, prices):
        result = run_pipeline(self.run_config(prices, tmp_path / "out"))
        assert len(result.records) == 70
        assert result.model.k == 4
        assert len(result.history.losses) == 40
        assert len(result.report.records) == 24
        net = load_model(result.artifacts[MODEL_FILE])
        assert widths(net) == [2, 100, 50, 20, 4, 20, 50, 100, 1]


class TestLoadTable:
    def test_ticker_file_and_start_date(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text(
            "ticker,date,adj_close\n"
            "AAA,2020-01-01,1.0\nAAA,2020-01-02,2.0\nAAA,2020-01-03,3.0\nAAA,2020-01-06,4.0\n"
            "BBB,2020-01-02,1.0\nBBB,2020-01-03,2.0\n",
            encoding="utf-8",
        )
        keep = tmp_path / "keep.txt"
        keep.write_text("AAA\n", encoding="utf-8")
        tickers, points, warnings = load_table(prices, keep, dt.date(2020, 1, 2), trading_days=5)
        assert tickers == ("AAA",)
        assert points.tolist() == build_feature_table({"AAA": np.array([2.0, 3.0, 4.0])}, 5)[1].tolist()
        assert warnings == ["BBB: excluded, not in ticker filter"]

    def test_no_filters_loads_everything(self, blob_prices_csv):
        tickers, points, _ = load_table(blob_prices_csv, None, None)
        closes, _ = load_price_table(blob_prices_csv)
        assert tickers == tuple(closes)
        assert points.tolist() == build_feature_table(closes)[1].tolist()
        assert len(tickers) == 70

    def test_non_utf8_ticker_file(self, tmp_path, blob_prices_csv):
        keep = tmp_path / "keep.txt"
        keep.write_bytes(b"T000\n\xff\xfe\n")
        with pytest.raises(TscnetError, match=r"keep\.txt: not UTF-8 text \(invalid start byte\)$"):
            load_table(blob_prices_csv, keep, None)


class TestWriteFiles:
    def test_writes_text_and_callables_in_order(self, tmp_path):
        paths = write_files(tmp_path / "new", {
            "a.txt": "alpha\n",
            "b.txt": lambda p: p.write_text("beta\n", encoding="utf-8"),
        })
        assert list(paths) == ["a.txt", "b.txt"]
        assert paths["a.txt"].read_text(encoding="utf-8") == "alpha\n"
        assert paths["b.txt"].read_text(encoding="utf-8") == "beta\n"

    def test_manifest_hashes_the_new_bytes(self, tmp_path):
        (tmp_path / "a.txt").write_text("old", encoding="utf-8")
        paths = write_files(tmp_path, {"a.txt": "new"}, manifest="m.txt")
        digest = hashlib.sha256(b"new").hexdigest()
        assert paths["m.txt"].read_text(encoding="utf-8") == f"{digest}  a.txt\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "m.txt"]

    def test_failure_keeps_existing_files(self, tmp_path):
        def broken(path):
            path.write_text("half", encoding="utf-8")
            raise OSError("disk full")

        (tmp_path / "a.txt").write_text("old", encoding="utf-8")
        with pytest.raises(OSError, match="disk full"):
            write_files(tmp_path, {"a.txt": "alpha", "b.txt": broken}, manifest="m.txt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text(encoding="utf-8") == "old"

    def test_failure_removes_started_files(self, tmp_path):
        def broken(path):
            path.write_text("half", encoding="utf-8")
            raise OSError("disk full")

        (tmp_path / "keep.txt").write_text("old", encoding="utf-8")
        with pytest.raises(OSError, match="disk full"):
            write_files(tmp_path, {"a.txt": "alpha", "b.txt": broken, "c.txt": "never"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]


def test_public_names_resolve():
    # a star import raises for any name in __all__ that the package lacks
    namespace = {}
    exec("from tscnet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tscnet.__all__)
    assert namespace["Records"] is Records
