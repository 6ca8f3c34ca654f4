"""Lloyd's k-means with silhouette validation and an optimal-k sweep.

The engine is dimension-generic but is exercised on 2-D <volatility, ret>
points. Distances are Euclidean throughout. Each restart seeds centroids with
distance-weighted probabilistic sampling (k-means++ style) from its own
deterministic random stream, so restarts are order-independent and a fixed
(seed, restarts) pair reproduces the fitted model bit for bit.

Convergence: a restart stops when an assignment pass leaves every centroid
unchanged (an exact Lloyd fixed point; recomputed means of an identical
partition are bitwise identical). Once the largest centroid displacement
falls below ``TOL`` the restart is treated as converged and given a short
polish budget to reach the exact fixed point, which makes the fitted-model
invariants (centroid == mean of members, every point nearest its centroid)
hold exactly rather than within TOL. No restart runs more than ``MAX_ITER``
assignment passes.

Each Lloyd step works a dimension at a time. The assignment sums squared
differences into one (k, n) buffer, dimension by dimension from left to
right, which is the order ``np.sum`` takes over fewer than 8 dimensions; a
running minimum over the centroids then keeps the first nearest one, as
``argmin`` does. The update is ``np.bincount(labels, weights=X[:, j]) /
counts`` per dimension: like ``X[labels == j].mean(axis=0)``, it adds each
cluster's members in index order, one at a time, and divides by the count,
so a centroid is the same float either way. k may not exceed the number of
distinct points: a k above it leaves a cluster with no point to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TscnetError
from .rng import Xorshift64Star, derive_seed

DEFAULT_RESTARTS = 10
MAX_ITER = 300
TOL = 1e-4

_POLISH_BUDGET = 100  # extra iterations allowed to turn TOL-convergence into an exact fixed point
_BLOCK_BYTES = 8 << 20  # size of each silhouette distance buffer


@dataclass(frozen=True)
class KMeansModel:
    """A fitted k-means model. Treat as immutable.

    ``wcss_history`` holds the winning restart's within-cluster sum of squares
    after each (assign, update) pair; it is non-increasing up to float noise.
    ``silhouette`` is None when k == 1 (undefined).
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    wcss: float
    silhouette: float | None
    iterations_run: int
    wcss_history: tuple[float, ...]


def _assign_all(cols: np.ndarray, centroids: np.ndarray, d2: np.ndarray, tmp: np.ndarray):
    """Labels plus each point's squared distance to its own centroid.

    ``cols`` is the points' transpose; ``d2`` and ``tmp`` are (k, n) buffers.
    """
    np.subtract(cols[0], centroids[:, :1], out=d2)
    np.multiply(d2, d2, out=d2)
    for j in range(1, len(cols)):
        np.subtract(cols[j], centroids[:, j:j + 1], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(d2, tmp, out=d2)
    # a running minimum over the centroids; the first nearest wins a tie, as with argmin
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    own_d2 = d2[0].copy()
    for c in range(1, len(d2)):
        labels[d2[c] < own_d2] = c
        np.minimum(own_d2, d2[c], out=own_d2)
    return labels, own_d2


def _repair_empty(X, centroids, labels, own_d2, counts):
    """Reseed each empty cluster at the point farthest from its centroid.

    ``counts`` holds the cluster sizes and is kept up to date.
    """
    for j in np.flatnonzero(counts == 0):
        p = int(np.argmax(own_d2))
        counts[labels[p]] -= 1
        centroids[j] = X[p]
        labels[p] = j
        own_d2[p] = 0.0
        counts[j] = 1


def _kmeanspp_init(X: np.ndarray, k: int, rng: Xorshift64Star) -> np.ndarray:
    n = len(X)
    centroids = np.empty((k, X.shape[1]), dtype=float)
    centroids[0] = X[rng.below(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        else:
            # remaining points coincide with chosen centroids
            idx = rng.below(n)
        centroids[j] = X[idx]
        np.minimum(d2, np.sum((X - centroids[j]) ** 2, axis=1), out=d2)
    return centroids


@dataclass
class _Restart:
    centroids: np.ndarray
    labels: np.ndarray
    wcss: float
    iterations: int
    history: tuple[float, ...]


def _lloyd(X: np.ndarray, k: int, rng: Xorshift64Star) -> _Restart:
    centroids = _kmeanspp_init(X, k, rng)
    cols = X.T.copy()
    d2, tmp = np.empty((k, len(X))), np.empty((k, len(X)))
    history = []
    polish = None
    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        labels, own_d2 = _assign_all(cols, centroids, d2, tmp)
        counts = np.bincount(labels, minlength=k)
        _repair_empty(X, centroids, labels, own_d2, counts)
        new_centroids = np.empty_like(centroids)
        for j, col in enumerate(cols):
            new_centroids[:, j] = np.bincount(labels, weights=col, minlength=k) / counts
        diffs = X - new_centroids[labels]
        history.append(float(np.sum(diffs * diffs)))
        shift = float(np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift == 0.0:
            break
        if shift < TOL:
            polish = _POLISH_BUDGET if polish is None else polish - 1
            if polish == 0:
                break
    # make labels consistent with the final centroids (no-op when the loop
    # ended on an exact fixed point)
    labels, own_d2 = _assign_all(cols, centroids, d2, tmp)
    _repair_empty(X, centroids, labels, own_d2, np.bincount(labels, minlength=k))
    return _Restart(centroids, labels, float(own_d2.sum()), iterations, tuple(history))


def count_distinct(points) -> int:
    """Number of distinct rows of ``points``, compared by value (-0.0 equals 0.0)."""
    X = np.asarray(points, dtype=float)
    # sorted rows put equal ones side by side; np.unique(axis=0) would import numpy.ma
    rows = X[np.lexsort(X.T)]
    return min(len(X), 1) + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))


def kmeans_fit(points, k: int, seed: int = 7, restarts: int = DEFAULT_RESTARTS) -> KMeansModel:
    """Best-of-restarts Lloyd fit, ranked by lowest wcss.

    Deterministic for fixed (points, k, seed, restarts): restart r draws from
    its own stream derived from (seed, r), and ties keep the earliest restart.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise TscnetError(f"expected a non-empty 2-D point array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise TscnetError("points contain NaN or infinity")
    n = len(X)
    if k < 1 or k > n:
        raise TscnetError(f"k={k} outside [1, {n}]")
    if restarts < 1:
        raise TscnetError(f"restarts must be >= 1, got {restarts}")
    distinct = count_distinct(X)
    if k > distinct:
        raise TscnetError(f"k={k} is above the {distinct} distinct points")

    best: _Restart | None = None
    for r in range(restarts):
        rng = Xorshift64Star(derive_seed(seed, r))
        cand = _lloyd(X, k, rng)
        if best is None or cand.wcss < best.wcss:
            best = cand

    score = silhouette(X, best.labels) if k >= 2 else None
    return KMeansModel(
        k=k,
        centroids=best.centroids,
        assignments=best.labels,
        wcss=best.wcss,
        silhouette=score,
        iterations_run=best.iterations,
        wcss_history=best.history,
    )


def silhouette(points, labels) -> float:
    """Mean silhouette score under Euclidean distance.

    Per point: a = mean distance to its own cluster (excluding itself),
    b = smallest mean distance to any other cluster, score = (b - a) / max(a, b).
    Points alone in their cluster contribute 0, as does a point whose a and b
    are both zero. Result is in [-1, 1].

    Distances are built in blocks of rows, in two buffers of
    ``_BLOCK_BYTES`` each, so memory stays near 17 MB at any n instead of
    growing as n². For points of fewer than 8 dimensions the result equals,
    bit for bit, the per-point loop over a full distance matrix (``np.sum``
    of each cluster's masked distances, scores added in index order); from
    8 dimensions on, NumPy's pairwise sum over the coordinates may round
    differently in the last bit.
    """
    X = np.asarray(points, dtype=float)
    lab = np.asarray(labels)
    if len(X) != len(lab):
        raise ValueError(f"{len(X)} points vs {len(lab)} labels")
    _, own, sizes = np.unique(lab, return_inverse=True, return_counts=True)
    if len(sizes) < 2:
        raise TscnetError("silhouette needs at least 2 distinct labels")

    # columns sorted by cluster, members in index order: one run per cluster
    n = len(X)
    cols = X[np.argsort(own, kind="stable")].T.copy()
    ends = np.cumsum(sizes)
    runs = list(zip(ends - sizes, ends))
    rows = min(n, max(1, _BLOCK_BYTES // (8 * n)))
    dist, tmp = np.empty((rows, n)), np.empty((rows, n))
    sums = np.empty((len(sizes), rows))
    scores = np.zeros(n)
    for lo in range(0, n, rows):
        block = X[lo:lo + rows]
        r = len(block)
        D, T, S = dist[:r], tmp[:r], sums[:, :r]
        # squared differences summed one dimension at a time, left to right
        np.subtract(block[:, :1], cols[0], out=D)
        np.multiply(D, D, out=D)
        for j in range(1, len(cols)):
            np.subtract(block[:, j:j + 1], cols[j], out=T)
            np.multiply(T, T, out=T)
            np.add(D, T, out=D)
        np.sqrt(np.maximum(D, 0.0, out=D), out=D)
        for c, (start, stop) in enumerate(runs):
            np.sum(D[:, start:stop], axis=1, out=S[c])
        mine, at = own[lo:lo + r], np.arange(r)
        size = sizes[mine]
        a = S[mine, at] / np.maximum(size - 1, 1)  # dist[i, i] == 0 drops out
        means = S / sizes[:, None]
        means[mine, at] = np.inf
        b = means.min(axis=0)
        m = np.maximum(a, b)
        np.divide(b - a, m, out=scores[lo:lo + r], where=(size > 1) & (m > 0.0))
    return float(np.add.accumulate(scores)[-1] / n)


def select_k(
    points,
    k_min: int = 2,
    k_max: int = 10,
    seed: int = 7,
    restarts: int = DEFAULT_RESTARTS,
) -> tuple[KMeansModel, list[tuple[int, float]]]:
    """Fit every k in [k_min, k_max], return (best model, full (k, silhouette) table).

    The best model maximizes silhouette; ties go to the smallest k. It is the
    fit ``kmeans_fit(points, best.k, seed, restarts)`` returns, so callers
    need not refit it.
    """
    n = len(points)
    if not 2 <= k_min <= k_max <= n - 1:
        raise TscnetError(f"need 2 <= k_min <= k_max <= {n - 1}, got [{k_min}, {k_max}]")
    table = []
    best = None
    for k in range(k_min, k_max + 1):
        model = kmeans_fit(points, k, seed=seed, restarts=restarts)
        table.append((k, model.silhouette))
        if best is None or model.silhouette > best.silhouette:
            best = model
    return best, table


def relabel_by_return(model: KMeansModel) -> KMeansModel:
    """Renumber clusters by descending mean return (feature dimension 1).

    Cluster 0 becomes the highest-mean-return cluster. Geometry, wcss, and
    silhouette are unchanged; only the numbering moves.
    """
    order = np.argsort(-model.centroids[:, 1], kind="stable")
    mapping = np.empty(model.k, dtype=int)
    mapping[order] = np.arange(model.k)
    return replace(model, centroids=model.centroids[order], assignments=mapping[model.assignments])

