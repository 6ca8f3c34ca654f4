"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Every
tolerance is pinned in the assertion that enforces it; timed criteria
measure wall-clock time and include it in the printed detail.

Criterion 4 note: central finite differences are not a valid gradient
oracle at a relu kink (the loss is not differentiable there, and the
two-sided quotient straddles the corner). Candidate networks where any
relu pre-activation comes within 1e-3 of zero are therefore redrawn from
the same deterministic stream until 50 clean candidates have been checked;
the rejection count is reported in the detail.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    BLOB_CENTERS,
    BLOB_SIGMA,
    blob_targets,
    normal,
    parameter_counts,
    records_of,
    relu_kink_margin,
    write_prices_csv,
)
from test_autonet import numeric_gradients
from test_kmeans import exhaustive_best_wcss, oracle_silhouette, reference_lloyd, wcss_non_increasing
from tscnet import kmeans
from tscnet.autonet import (
    ACTIVATIONS,
    DenseNetwork,
    LayerSpec,
    backward,
    build_autoencoder,
    build_network,
    count_parameters,
    forward,
    predict_labels,
    round_labels,
)
from tscnet.kmeans import kmeans_fit, select_k, silhouette
from tscnet.pipeline import (
    AUTO,
    EVAL_CSV,
    LABELS_CSV,
    LOSS_CSV,
    MODEL_FILE,
    PipelineConfig,
    evaluate,
    run_pipeline,
    split,
    stage2_train,
)
from tscnet.rng import Xorshift64Star, derive_seed


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {status}{suffix}"


def _identity_head() -> DenseNetwork:
    return DenseNetwork([LayerSpec(1, 1, "linear")], [1.0, 0.0])


def test_criterion_01_parameter_counts():
    t0 = time.perf_counter()
    net = build_autoencoder(seed=7)
    per_layer = parameter_counts(net)
    total = count_parameters(net)
    elapsed = time.perf_counter() - t0
    ok = (
        per_layer == [300, 5050, 1020, 84, 100, 1050, 5100, 101]
        and total == 12805
        and elapsed < 1.0
    )
    _report(1, "parameter_counts", ok, f"total={total} in {elapsed:.3f}s")


def test_criterion_02_label_rounding():
    fixtures = [
        (7.2130698e-01, 1),
        (-1.8404983e-04, 0),
        (2.4604988, 2),
        (3.0150795, 3),
        (9.9868220e-01, 1),
    ]
    raw = [v for v, _ in fixtures]
    want = [lab for _, lab in fixtures]
    direct = [int(v) for v in round_labels(raw, 4)]
    through_net = [int(v) for v in predict_labels(_identity_head(), [[v] for v in raw], 4)[1]]
    ok = direct == want and through_net == want
    _report(2, "label_rounding", ok, f"direct={direct} via_net={through_net}")


def test_criterion_03_accuracy_fraction():
    # raw output reads the return column; returns sit at cluster + 0.1,
    # and exactly 3 of the 24 reference labels are shifted off by one
    net = DenseNetwork([LayerSpec(2, 1, "linear")], [0.0, 1.0, 0.0])
    records = []
    for i in range(24):
        want = i % 4
        reference = want if i < 21 else (want + 1) % 4
        records.append((f"T{i:03d}", 0.2, want + 0.1, reference))
    report = evaluate(net, records_of(records), num_clusters=4)
    ok = report.accuracy == 0.875 and int(np.sum(report.predicted != report.records.clusters)) == 3
    _report(3, "accuracy_fraction", ok, f"accuracy={report.accuracy!r}")


def _draw_gradcheck_candidate(index: int):
    gen = Xorshift64Star(derive_seed(3000, index))
    n_layers = 1 + gen.below(4)
    widths = [1 + gen.below(10) for _ in range(n_layers + 1)]
    acts = [ACTIVATIONS[gen.below(3)] for _ in range(n_layers)]
    specs = [LayerSpec(widths[i], widths[i + 1], acts[i]) for i in range(n_layers)]
    net = build_network(specs, seed=derive_seed(3000, index) & 0xFFFFFFFF)
    batch = 1 + gen.below(5)
    X = np.array([[gen.uniform(-1, 1) for _ in range(widths[0])] for _ in range(batch)])
    y = np.array([[gen.uniform(-1, 1) for _ in range(widths[-1])] for _ in range(batch)])
    return net, X, y


def test_criterion_04_gradient_check():
    t0 = time.perf_counter()
    checked = 0
    rejected = 0
    index = 0
    failures: list[int] = []
    while checked < 50:
        net, X, y = _draw_gradcheck_candidate(index)
        index += 1
        _, acts = forward(net, X)
        if relu_kink_margin(net, acts) < 1e-3:
            rejected += 1
            continue
        analytic = [g for pair in net.views(backward(net, acts, y)) for g in pair]
        numeric = numeric_gradients(net, X, y, eps=1e-5)
        for a, n in zip(analytic, numeric):
            if not np.all(np.abs(a - n) <= np.maximum(1e-4 * np.abs(n), 1e-7)):
                failures.append(index - 1)
                break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        4,
        "gradient_check",
        ok,
        f"50 nets, {rejected} kink rejections, failures={failures}, {elapsed:.2f}s",
    )


def test_criterion_05_kmeans_optimality():
    """The per-pass wcss comes from the reference Lloyd loop, once each
    restart is shown equal to the program's; that check is not timed."""
    restarts = 20
    elapsed = 0.0
    hits = 0
    monotone = 0
    same = 0
    for inst in range(100):
        gen = Xorshift64Star(derive_seed(2000, inst))
        k = 1 + gen.below(3)
        n_lo = max(k + 1, 3)
        n = n_lo + gen.below(8 - n_lo + 1)
        X = np.array([[gen.random(), gen.random()] for _ in range(n)])
        t0 = time.perf_counter()
        model = kmeans_fit(X, k, seed=inst, restarts=restarts)
        opt = exhaustive_best_wcss(X, k)
        elapsed += time.perf_counter() - t0
        if opt == 0.0:
            hits += model.wcss <= 1e-12
        else:
            hits += (model.wcss - opt) / opt <= 1e-9
        all_monotone = True
        for r in range(restarts):
            # centroids, labels, wcss and iterations, each compared exactly
            got = kmeans._lloyd(X, k, Xorshift64Star(derive_seed(inst, r)))
            *want, history = reference_lloyd(X, k, Xorshift64Star(derive_seed(inst, r)))
            same += all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
            all_monotone &= wcss_non_increasing(history)
        monotone += all_monotone
    ok = hits >= 95 and monotone == 100 and same == 100 * restarts and elapsed < 60.0
    _report(
        5,
        "kmeans_optimality",
        ok,
        f"{hits}/100 optimal, {monotone}/100 monotone, "
        f"{same}/{100 * restarts} restarts equal the reference, {elapsed:.2f}s",
    )


def test_criterion_06_silhouette_oracle():
    checked = 0
    index = 0
    max_err = 0.0
    in_bounds = True
    while checked < 100:
        gen = Xorshift64Star(derive_seed(4000, index))
        index += 1
        n = 4 + gen.below(12)
        k = 2 + gen.below(3)
        labels = [gen.below(k) for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        pts = np.array([[gen.random(), gen.random()] for _ in range(n)])
        got = silhouette(pts, labels)
        want = oracle_silhouette(pts, labels)
        max_err = max(max_err, abs(got - want))
        in_bounds = in_bounds and -1.0 <= got <= 1.0
        checked += 1
    ok = max_err <= 1e-12 and in_bounds
    _report(6, "silhouette_oracle", ok, f"100 labelings, max |err|={max_err:.3e}")


def test_criterion_07_k_selection():
    # blob centers are >= 10 sigma apart (BLOB_SIGMA vs BLOB_CENTERS spacing)
    t0 = time.perf_counter()
    correct = 0
    for seed in range(100):
        gen = Xorshift64Star(derive_seed(1000, seed))
        pts = []
        for cx, cy in BLOB_CENTERS:
            for _ in range(10):
                pts.append((cx + BLOB_SIGMA * normal(gen), cy + BLOB_SIGMA * normal(gen)))
        best, _ = select_k(np.array(pts), 2, 10, seed=seed)
        correct += best.k == 4
    elapsed = time.perf_counter() - t0
    ok = correct >= 95
    _report(7, "k_selection", ok, f"{correct}/100 seeds chose k=4, {elapsed:.2f}s")


def test_criterion_08_end_to_end_training():
    t0 = time.perf_counter()
    gen = Xorshift64Star(42)
    sizes = (18, 18, 17, 17)
    pts = [
        (cx + BLOB_SIGMA * normal(gen), cy + BLOB_SIGMA * normal(gen))
        for (cx, cy), m in zip(BLOB_CENTERS, sizes)
        for _ in range(m)
    ]
    X = np.array(pts)
    model = kmeans_fit(X, 4, seed=7)
    records = records_of(
        (f"T{i:03d}", x, y, lab) for i, ((x, y), lab) in enumerate(zip(pts, model.assignments))
    )
    train_recs, test_recs = split(records, 0.33, 7)
    net, history = stage2_train(
        train_recs, num_clusters=4, epochs=1000, batch_size=1024, seed=7
    )
    report = evaluate(net, test_recs, num_clusters=4)
    elapsed = time.perf_counter() - t0
    ok = (
        len(records) == 70
        and len(test_recs) == 24
        and history.final_loss() < 0.05
        and report.accuracy >= 0.90
        and elapsed < 120.0
    )
    _report(
        8,
        "end_to_end_training",
        ok,
        f"loss={history.final_loss():.3e} accuracy={report.accuracy:.3f} in {elapsed:.1f}s",
    )


def test_criterion_09_reproducible_runs(tmp_path):
    prices = tmp_path / "prices.csv"
    write_prices_csv(prices, blob_targets(seed=5))

    def one_run(tag: str):
        config = PipelineConfig(
            prices_path=prices,
            out_dir=tmp_path / tag,
            k=4,
            epochs=1000,
            batch_size=1024,
            test_fraction=0.33,
            seed=7,
        )
        return run_pipeline(config)

    one_run("a")
    one_run("b")
    compared = {}
    for name in (LABELS_CSV, MODEL_FILE, LOSS_CSV, EVAL_CSV):
        compared[name] = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ok = all(compared.values())
    mismatched = sorted(name for name, same in compared.items() if not same)
    _report(9, "reproducible_runs", ok, "byte-identical" if ok else f"differ: {mismatched}")


def test_criterion_10_replication_harness(tmp_path):
    """Replication on user-supplied data: reports figures, asserts nothing about them.

    Point TSC_REPLICATION_PRICES at a real prices CSV to run the full
    pipeline on it; the criterion passes when the run completes and leaves
    a manifest, whatever the numbers come out to be.
    """
    prices = os.environ.get("TSC_REPLICATION_PRICES")
    if not prices:
        print("criterion 10 replication_harness: SKIP (set TSC_REPLICATION_PRICES to a prices CSV)")
        pytest.skip("no replication dataset provided")
    config = PipelineConfig(
        prices_path=Path(prices),
        out_dir=tmp_path / "replication",
        k=AUTO,
        epochs=1000,
        batch_size=1024,
        test_fraction=0.33,
        seed=7,
    )
    result = run_pipeline(config)
    silhouette_score = result.model.silhouette
    detail = (
        f"k={result.model.k}"
        f" silhouette={silhouette_score:.4f}"
        f" final_loss={result.history.final_loss():.4e}"
        f" accuracy={result.report.accuracy:.4f}"
        f" records={len(result.records)}"
    )
    ok = result.manifest_path.exists() and all(p.exists() for p in result.artifacts.values())
    _report(10, "replication_harness", ok, detail)
