"""Clustering engine tests.

Oracles here are independent of the implementation: the silhouette oracle is
a direct transcription of the definition in pure Python loops, and small
instances are checked against exhaustive enumeration of all partitions. The
streamed silhouette and the per-dimension Lloyd step are also held bit for
bit to the NumPy code they replaced.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_blob_points
from tscnet import kmeans
from tscnet.errors import TscnetError
from tscnet.features import build_feature_table
from tscnet.ingest import load_price_table
from tscnet.kmeans import KMeansModel, kmeans_fit, relabel_by_return, select_k, silhouette
from tscnet.pipeline import SWEEP_COLUMNS, read_csv, sweep_csv
from tscnet.rng import Xorshift64Star, derive_seed


def oracle_silhouette(points, labels):
    """Direct transcription of the definition: mean of (b - a) / max(a, b)."""
    n = len(points)

    def dist(i, j):
        return math.sqrt(sum((points[i][d] - points[j][d]) ** 2 for d in range(len(points[i]))))

    clusters = {}
    for i, lab in enumerate(labels):
        clusters.setdefault(lab, []).append(i)
    total = 0.0
    for i in range(n):
        own = clusters[labels[i]]
        if len(own) == 1:
            continue
        a = sum(dist(i, j) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(dist(i, j) for j in members) / len(members)
            for lab, members in clusters.items()
            if lab != labels[i]
        )
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / n


def reference_silhouette(points, labels):
    """The per-point silhouette loop over a full n x n distance matrix.

    Each cluster's distances from point i are masked out of row i and summed
    with ``np.sum``; the scores are added in index order.
    """
    X = np.asarray(points, dtype=float)
    lab = np.asarray(labels)
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    masks = {int(u): lab == u for u in np.unique(lab)}
    sizes = {u: int(m.sum()) for u, m in masks.items()}
    total = 0.0
    for i in range(len(X)):
        own = int(lab[i])
        if sizes[own] == 1:
            continue
        a = dist[i][masks[own]].sum() / (sizes[own] - 1)
        b = min(dist[i][masks[u]].mean() for u in sizes if u != own)
        m = max(a, b)
        if m > 0.0:
            total += (b - a) / m
    return float(total / len(X))


def reference_assign_all(X, centroids):
    """Labels and own squared distances from an (n, k, d) difference array."""
    d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(X)), labels]


def reference_repair_empty(X, centroids, labels, own_d2, k):
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        p = int(np.argmax(own_d2))
        centroids[j] = X[p]
        labels[p] = j
        own_d2[p] = 0.0
        counts[j] = 1
    return labels, own_d2


# the stopping rule the reference keeps: once the centroids move less than
# TOL, a restart had POLISH_BUDGET more passes to reach an exact fixed point
TOL = 1e-4
POLISH_BUDGET = 100


def reference_kmeanspp_init(X, k, rng):
    """k-means++ seeding with each point's squared distance from ``np.sum``."""
    n = len(X)
    centroids = np.empty((k, X.shape[1]), dtype=float)
    centroids[0] = X[rng.below(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        else:
            idx = rng.below(n)
        centroids[j] = X[idx]
        np.minimum(d2, np.sum((X - centroids[j]) ** 2, axis=1), out=d2)
    return centroids


def reference_lloyd(X, k, rng):
    """One restart as the (n, k, d) assignment and per-cluster mean loop ran it:
    (centroids, labels, wcss, iterations, history)."""
    centroids = reference_kmeanspp_init(X, k, rng)
    history = []
    polish = None
    iterations = 0
    for _ in range(kmeans.MAX_ITER):
        iterations += 1
        labels, own_d2 = reference_assign_all(X, centroids)
        labels, own_d2 = reference_repair_empty(X, centroids, labels, own_d2, k)
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            new_centroids[j] = X[labels == j].mean(axis=0)
        diffs = X - new_centroids[labels]
        history.append(float(np.sum(diffs * diffs)))
        shift = float(np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift == 0.0:
            break
        if shift < TOL:
            polish = POLISH_BUDGET if polish is None else polish - 1
            if polish == 0:
                break
    labels, own_d2 = reference_assign_all(X, centroids)
    labels, own_d2 = reference_repair_empty(X, centroids, labels, own_d2, k)
    return centroids, labels, float(own_d2.sum()), iterations, tuple(history)


def random_points(seed, n, d=2):
    gen = Xorshift64Star(seed)
    return np.array([[gen.random() for _ in range(d)] for _ in range(n)])


def random_labels(seed, n, values):
    gen = Xorshift64Star(seed)
    return [values[gen.below(len(values))] for _ in range(n)]


def exhaustive_best_wcss(X, kmax):
    """Minimum wcss over every partition of X into at most kmax parts."""
    n = len(X)
    best = math.inf

    def wcss_of(rgs, blocks):
        w = 0.0
        for b in range(blocks):
            members = X[[j for j in range(n) if rgs[j] == b]]
            c = members.mean(axis=0)
            w += float(np.sum((members - c) ** 2))
        return w

    def rec(i, rgs, mx):
        nonlocal best
        if i == n:
            best = min(best, wcss_of(rgs, mx + 1))
            return
        for b in range(min(mx + 1, kmax - 1) + 1):
            rgs[i] = b
            rec(i + 1, rgs, max(mx, b))

    rec(1, [0] * n, 0)
    return best


def check_model_invariants(X, model: KMeansModel):
    assert model.centroids.shape == (model.k, X.shape[1])
    assert len(model.assignments) == len(X)
    counts = np.bincount(model.assignments, minlength=model.k)
    assert np.all(counts > 0), "every cluster must be non-empty"
    for j in range(model.k):
        members = X[model.assignments == j]
        assert np.max(np.abs(members.mean(axis=0) - model.centroids[j])) < 1e-9
    d2 = np.sum((X[:, None, :] - model.centroids[None, :, :]) ** 2, axis=2)
    own = d2[np.arange(len(X)), model.assignments]
    assert np.all(own <= d2.min(axis=1) + 1e-12), "each point nearest its own centroid"
    assert model.wcss == pytest.approx(float(own.sum()), rel=1e-12)


class TestKmeansFit:
    def test_recovers_blobs(self):
        X, truth = make_blob_points(seed=1)
        model = kmeans_fit(X, 4, seed=7)
        check_model_invariants(X, model)
        # one fitted cluster per true blob, up to renaming
        mapping = {}
        for lab, t in zip(model.assignments, truth):
            mapping.setdefault(t, set()).add(int(lab))
        assert all(len(s) == 1 for s in mapping.values())
        assert len({s.pop() for s in mapping.values()}) == 4

    def test_k1_centroid_is_global_mean(self):
        X, _ = make_blob_points(seed=2)
        model = kmeans_fit(X, 1, seed=7)
        assert np.max(np.abs(model.centroids[0] - X.mean(axis=0))) < 1e-12
        assert model.silhouette is None

    def test_k_equals_n_on_distinct_points(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        model = kmeans_fit(X, 4, seed=7)
        assert model.wcss == pytest.approx(0.0, abs=1e-24)
        assert sorted(model.assignments) == [0, 1, 2, 3]

    def test_deterministic(self):
        X, _ = make_blob_points(seed=3)
        a = kmeans_fit(X, 4, seed=11)
        b = kmeans_fit(X, 4, seed=11)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.wcss == b.wcss
        assert a.iterations_run == b.iterations_run

    def test_bad_k(self):
        X = np.zeros((5, 2))
        with pytest.raises(TscnetError, match=r"^k=0 outside \[1, 5\]$"):
            kmeans_fit(X, 0, seed=7)
        with pytest.raises(TscnetError, match=r"^k=6 outside \[1, 5\]$"):
            kmeans_fit(X, 6, seed=7)
        with pytest.raises(TscnetError, match=r"^restarts must be >= 1, got 0$"):
            kmeans_fit(X, 2, seed=7, restarts=0)
        with pytest.raises(TscnetError, match=r"^expected a non-empty 2-D point array, got shape \(5, 0\)$"):
            kmeans_fit(np.zeros((5, 0)), 1, seed=7)

    def test_non_finite_points(self):
        with pytest.raises(TscnetError, match=r"^points contain NaN or infinity$"):
            kmeans_fit(np.array([[0.0, np.nan], [1.0, 2.0]]), 1, seed=7)

    def test_k_above_distinct_points_rejected(self):
        # two distinct points, one of them also written with a -0.0
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(TscnetError, match=r"^k=3 is above the 2 distinct points$"):
            kmeans_fit(X, 3, seed=7)
        assert kmeans_fit(X, 2, seed=7).wcss == 0.0

    def test_underflowing_distances_refused(self):
        # the points are distinct, but at 1e-165 every squared distance is 0:
        # no point lies off its centroid to refill an empty cluster
        X, _ = make_blob_points(seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TscnetError, match=r"^k=3: every point's squared distance to its centroid "
                                                  r"underflows to 0, so an empty cluster cannot be refilled$"):
                kmeans_fit(X * 1e-165, 3, seed=7)
            model = kmeans_fit(X * 1e-150, 3, seed=7)
        check_model_invariants(X * 1e-150, model)
        assert np.bincount(model.assignments).min() > 0

    def test_duplicate_points_handled(self):
        X = np.array([[1.0, 1.0]] * 6 + [[5.0, 5.0]] * 2)
        model = kmeans_fit(X, 2, seed=7)
        check_model_invariants(X, model)
        assert model.wcss == pytest.approx(0.0, abs=1e-24)

    def test_model_is_the_lowest_wcss_restart(self):
        # restarts 3, 4, 7 and 9 tie on the lowest wcss after 3, 5, 9 and 6
        # passes, so the last restart and the last tied one both differ
        X, _ = make_blob_points(seed=6, per_cluster=50)
        restarts = 10
        fits = [kmeans._lloyd(X, 5, Xorshift64Star(derive_seed(7, r))) for r in range(restarts)]
        low = min(wcss for _, _, wcss, _ in fits)
        tied = [r for r, (_, _, wcss, _) in enumerate(fits) if wcss == low]
        centroids, labels, wcss, iterations = fits[tied[0]]
        assert fits[tied[-1]][3] != iterations
        assert fits[-1][3] != iterations
        model = kmeans_fit(X, 5, seed=7, restarts=restarts)
        assert (model.wcss, model.iterations_run) == (wcss, iterations)
        assert np.array_equal(model.centroids, centroids)
        assert np.array_equal(model.assignments, labels)

    def test_small_instances_hit_exhaustive_optimum(self):
        for inst in range(20):
            gen = Xorshift64Star(derive_seed(500, inst))
            k = 1 + gen.below(3)
            n = k + 1 + gen.below(6 - k)
            X = np.array([[gen.random(), gen.random()] for _ in range(n)])
            model = kmeans_fit(X, k, seed=inst, restarts=20)
            check_model_invariants(X, model)
            opt = exhaustive_best_wcss(X, k)
            assert model.wcss <= opt * (1 + 1e-9) + 1e-12


class TestSilhouette:
    def test_matches_oracle_on_random_labelings(self):
        gen = Xorshift64Star(33)
        for _ in range(25):
            n = 4 + gen.below(9)
            k = 2 + gen.below(min(3, n - 1))
            pts = [[gen.random(), gen.random()] for _ in range(n)]
            labels = [gen.below(k) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0], labels[1] = 0, 1
            got = silhouette(np.array(pts), labels)
            want = oracle_silhouette(pts, labels)
            assert got == pytest.approx(want, abs=1e-12)
            assert -1.0 <= got <= 1.0

    def test_hand_case_with_singleton(self):
        pts = [[0.0, 0.0], [0.0, 1.0], [10.0, 0.0]]
        labels = [0, 0, 1]
        assert silhouette(np.array(pts), labels) == oracle_silhouette(pts, labels)

    def test_well_separated_blobs_near_one(self):
        X, truth = make_blob_points(seed=4)
        assert silhouette(X, truth) > 0.8

    def test_single_cluster_rejected(self):
        with pytest.raises(TscnetError, match=r"^silhouette needs at least 2 distinct labels$"):
            silhouette(np.zeros((4, 2)), [1, 1, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(TscnetError, match=r"^4 points vs 2 labels$"):
            silhouette(np.zeros((4, 2)), [0, 1])

    def test_all_singletons_scores_zero(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert silhouette(X, [0, 1, 2]) == 0.0


class TestSilhouetteMatchesReference:
    """The row-block silhouette returns the per-point loop's float exactly."""

    def test_several_row_blocks(self):
        # 1600 points: 655 rows per 8 MiB block, so two full blocks and a partial one
        X, truth = make_blob_points(seed=12, per_cluster=400)
        for labels in (truth, random_labels(1, len(X), [0, 1, 2, 3, 4])):
            assert silhouette(X, labels) == reference_silhouette(X, labels)

    def test_fitted_sweep_labelings(self):
        X, _ = make_blob_points(seed=13, per_cluster=60)
        for k in range(2, 11):
            labels = kmeans_fit(X, k, seed=7, restarts=2).assignments
            assert silhouette(X, labels) == reference_silhouette(X, labels)

    def test_singleton_clusters(self):
        X = random_points(2, 40)
        labels = random_labels(3, 40, [0, 1])
        labels[5], labels[17] = 2, 3
        assert silhouette(X, labels) == reference_silhouette(X, labels)

    def test_duplicate_points(self):
        # clusters 0 and 1 sit on one point, so a = b = 0 there
        X = np.array([[1.0, 1.0]] * 7 + [[2.0, 3.0]] * 5 + [[2.0, 3.5]])
        labels = [0, 1, 0, 1, 0, 1, 0, 2, 2, 3, 2, 3, 3]
        assert silhouette(X, labels) == reference_silhouette(X, labels)

    def test_non_contiguous_label_values(self):
        X = random_points(4, 120)
        labels = random_labels(5, 120, [0, 3, 7])
        assert silhouette(X, labels) == reference_silhouette(X, labels)

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions(self, d):
        X = random_points(6 + d, 150, d)
        labels = random_labels(8, 150, [0, 1, 2, 3])
        assert silhouette(X, labels) == reference_silhouette(X, labels)

    def test_memory_bounded(self):
        # a full 6000 x 6000 x 2 difference array alone would take 576 MB
        X = random_points(9, 6000)
        labels = random_labels(10, 6000, [0, 1, 2, 3, 4])
        tracemalloc.start()
        try:
            silhouette(X, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def wcss_non_increasing(history):
    return all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))


class TestLloydMatchesReference:
    """Every restart of the per-dimension Lloyd equals the reference exactly,
    which seeds with ``np.sum`` distances and stops by the former tolerance
    and polish rule: on these inputs every restart reaches an exact fixed
    point either way. The reference's per-pass wcss never rises."""

    @staticmethod
    def check(X, k, seed, restarts=3):
        X = np.asarray(X, dtype=float)
        for r in range(restarts):
            got_centroids, got_labels, got_wcss, got_iterations = kmeans._lloyd(
                X, k, Xorshift64Star(derive_seed(seed, r)))
            centroids, labels, wcss, iterations, history = reference_lloyd(
                X, k, Xorshift64Star(derive_seed(seed, r)))
            assert np.all(got_centroids == centroids)
            assert np.all(got_labels == labels)
            assert got_wcss == wcss
            assert got_iterations == iterations
            assert wcss_non_increasing(history)

    @pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
    def test_blobs_every_sweep_k(self, seed):
        X, _ = make_blob_points(seed=seed, per_cluster=50)
        for k in range(2, 11):
            self.check(X, k, seed)

    def test_fixture_features(self, blob_prices_csv):
        closes, _ = load_price_table(blob_prices_csv)
        _, X = build_feature_table(closes)
        for k in range(2, 11):
            self.check(X, k, seed=7)

    def test_three_dimensions(self):
        X = random_points(14, 300, d=3)
        for k in (2, 5, 9):
            self.check(X, k, seed=15)

    def test_duplicate_heavy(self):
        # 200 points on 6 distinct values, one of them written as -0.0
        gen = Xorshift64Star(16)
        values = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 1.0], [0.5, 0.2], [2.0, 0.0],
                           [0.5, 0.3], [1.5, 1.5]])
        X = values[[gen.below(len(values)) for _ in range(200)]]
        assert kmeans.count_distinct(X) == 6
        for k in range(1, 7):
            self.check(X, k, seed=17, restarts=5)

    def test_empty_cluster_reseeded(self, monkeypatch):
        # 33 draws from 8 random points; restart 0 of seed 5 at k = 4 empties a cluster
        gen = Xorshift64Star(3222)
        m = 3 + gen.below(8)
        values = np.array([[gen.random(), gen.random()] for _ in range(m)])
        X = values[[gen.below(m) for _ in range(m + gen.below(40))]]
        empty = []
        repair = kmeans._repair_empty

        def spy(X, centroids, labels, own_d2, counts):
            empty.append(int(np.sum(counts == 0)))
            repair(X, centroids, labels, own_d2, counts)

        monkeypatch.setattr(kmeans, "_repair_empty", spy)
        self.check(X, 4, seed=5, restarts=1)
        assert max(empty) > 0


class TestSelectK:
    def test_finds_four_blobs(self):
        X, _ = make_blob_points(seed=6)
        best, table = select_k(X, 2, 10, seed=7)
        assert best.k == 4
        assert [k for k, _ in table] == list(range(2, 11))

    def test_best_is_smallest_argmax(self):
        X, _ = make_blob_points(seed=8)
        best, table = select_k(X, 2, 8, seed=7)
        scores = [s for _, s in table]
        assert best.k == min(k for k, s in table if s == max(scores))

    def test_best_model_is_the_direct_fit(self):
        X, _ = make_blob_points(seed=6)
        best, _ = select_k(X, 2, 6, seed=7, restarts=3)
        direct = kmeans_fit(X, best.k, seed=7, restarts=3)
        assert np.array_equal(best.centroids, direct.centroids)
        assert np.array_equal(best.assignments, direct.assignments)
        assert (best.wcss, best.silhouette) == (direct.wcss, direct.silhouette)

    def test_preconditions(self):
        X, _ = make_blob_points(seed=9)  # 40 points
        with pytest.raises(TscnetError, match=(
            r"^need 2 <= k_min <= min\(k_max, n-1, distinct points\); "
            r"got k_min=1, k_max=5, n=40, 40 distinct points$"
        )):
            select_k(X, 1, 5, seed=7)
        with pytest.raises(TscnetError, match=r"got k_min=5, k_max=4, n=40, 40 distinct points$"):
            select_k(X, 5, 4, seed=7)
        with pytest.raises(TscnetError, match=r"got k_min=2, k_max=4, n=4, 1 distinct points$"):
            select_k(np.zeros((4, 2)), 2, 4, seed=7)
        with pytest.raises(TscnetError, match=r"^expected a non-empty 2-D point array, got shape \(0,\)$"):
            select_k([], 2, 4, seed=7)

    def test_k_max_clamped(self):
        # 4 points: k stops at n - 1 = 3; 5 points on 3 values: at 3 distinct points
        _, table = select_k(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), 2, 10, seed=7)
        assert [k for k, _ in table] == [2, 3]
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 0.0]])
        _, table = select_k(X, 2, 10, seed=7)
        assert [k for k, _ in table] == [2, 3]


class TestRelabel:
    def test_orders_by_descending_return(self):
        X, _ = make_blob_points(seed=10)
        model = relabel_by_return(kmeans_fit(X, 4, seed=7))
        means = [X[model.assignments == j][:, 1].mean() for j in range(4)]
        assert all(means[j] >= means[j + 1] for j in range(3))

    def test_geometry_unchanged(self):
        X, _ = make_blob_points(seed=10)
        base = kmeans_fit(X, 4, seed=7)
        canon = relabel_by_return(base)
        assert canon.wcss == base.wcss
        assert canon.silhouette == base.silhouette
        assert sorted(map(tuple, canon.centroids)) == sorted(map(tuple, base.centroids))
        check_model_invariants(X, canon)


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        table = [(2, 0.41231), (3, 0.5), (4, 0.564123456789)]
        path = tmp_path / "sweep.csv"
        path.write_text(sweep_csv(table), encoding="utf-8")
        assert path.read_text(encoding="utf-8").splitlines()[0] == "k,silhouette"
        back = read_csv(path, SWEEP_COLUMNS)
        assert [k for k, _ in back] == [2, 3, 4]
        assert back[2][1] == pytest.approx(0.564123456789, rel=1e-11)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=r"bad\.csv: bad header 'a,b', expected 'k,silhouette'$"):
            read_csv(path, SWEEP_COLUMNS)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=1, max_value=3),
)
def test_fit_invariants_property(seed, n, k):
    gen = Xorshift64Star(seed)
    X = np.array([[gen.random(), gen.random()] for _ in range(n)])
    model = kmeans_fit(X, k, seed=seed)
    check_model_invariants(X, model)
    if k >= 2:
        assert -1.0 <= model.silhouette <= 1.0


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_silhouette_label_permutation_invariant(seed):
    gen = Xorshift64Star(seed)
    n = 6 + gen.below(8)
    pts = np.array([[gen.random(), gen.random()] for _ in range(n)])
    labels = [gen.below(3) for _ in range(n)]
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    perm = [2, 0, 1]
    permuted = [perm[lab] for lab in labels]
    assert silhouette(pts, labels) == silhouette(pts, permuted)
