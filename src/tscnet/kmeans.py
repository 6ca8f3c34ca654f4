"""Lloyd's k-means with silhouette validation and an optimal-k sweep.

The engine is dimension-generic but is exercised on 2-D <volatility, ret>
points. Distances are Euclidean throughout. Each restart seeds centroids with
distance-weighted probabilistic sampling (k-means++ style) from its own
deterministic random stream, so restarts are order-independent and a fixed
(seed, restarts) pair reproduces the fitted model bit for bit.

Convergence: a restart runs until an exact Lloyd fixed point, a pass whose
recomputed centroid array equals the one it assigned to (recomputed means of
an identical partition are bitwise identical), so the fitted-model invariants
(centroid == mean of members, every point nearest its centroid) hold exactly.
No restart runs more than ``MAX_ITER`` assignment passes; a final assignment
makes the labels agree with the centroids a restart cut there ends with.

Every squared distance, in the seeding, the assignment and the silhouette,
comes from :func:`_sq_dists`, which sums squared differences one dimension
at a time from left to right: the order ``np.sum`` takes over fewer than 8
dimensions. The assignment keeps a running minimum over the centroids, so
the first nearest one wins a tie, as with ``argmin``. The update is
``np.bincount(labels, weights=X[:, j]) / counts`` per dimension: like
``X[labels == j].mean(axis=0)``, it adds each cluster's members in index
order, one at a time, and divides by the count, so a centroid is the same
float either way. k may not exceed the number of distinct points: a k above
it leaves a cluster with no point to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .defaults import K_MAX, K_MIN, SEED
from .errors import TscnetError
from .rng import Xorshift64Star, derive_seed

DEFAULT_RESTARTS = 10
MAX_ITER = 300

# size of each silhouette distance buffer; 1 MB ran fastest of 0.5, 1 and 2 MB
# when measured on a 2-vCPU VM, and is not tuned for any other machine
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class KMeansModel:
    """A fitted k-means model: the lowest-wcss restart. Treat as immutable.

    ``iterations_run`` counts that restart's assignment passes.
    ``silhouette`` is None when k == 1 (undefined).
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    wcss: float
    silhouette: float | None
    iterations_run: int


def _sq_dists(rows: np.ndarray, cols: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out[i, j]`` = squared distance from ``rows[i]`` to point ``cols[:, j]``.

    ``rows`` is (m, d), ``cols`` is (d, n), and ``out`` and ``tmp`` are
    (m, n) buffers. The squares are added one dimension at a time, left to
    right.
    """
    np.subtract(rows[:, :1], cols[0], out=out)
    np.multiply(out, out, out=out)
    for j in range(1, len(cols)):
        np.subtract(rows[:, j:j + 1], cols[j], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def _assign_all(cols: np.ndarray, centroids: np.ndarray, d2: np.ndarray, tmp: np.ndarray):
    """Labels plus each point's squared distance to its own centroid.

    ``cols`` is the points' transpose; ``d2`` and ``tmp`` are (k, n) buffers.
    """
    _sq_dists(centroids, cols, d2, tmp)
    # a running minimum over the centroids; the first nearest wins a tie, as with argmin
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    own_d2 = d2[0].copy()
    for c in range(1, len(d2)):
        labels[d2[c] < own_d2] = c
        np.minimum(own_d2, d2[c], out=own_d2)
    return labels, own_d2


def _repair_empty(X, centroids, labels, own_d2, counts):
    """Reseed each empty cluster at the point farthest from its centroid.

    ``counts`` holds the cluster sizes and is kept up to date. With at least
    k distinct points some point lies off its centroid, unless its squared
    distance underflows to 0: then no point can fill the cluster, and a
    TscnetError says so.
    """
    for j in np.flatnonzero(counts == 0):
        p = int(np.argmax(own_d2))
        if own_d2[p] == 0.0:
            raise TscnetError(
                f"k={len(centroids)}: every point's squared distance to its centroid underflows to 0, "
                "so an empty cluster cannot be refilled"
            )
        counts[labels[p]] -= 1
        centroids[j] = X[p]
        labels[p] = j
        own_d2[p] = 0.0
        counts[j] = 1


def _kmeanspp_init(cols: np.ndarray, k: int, rng: Xorshift64Star) -> np.ndarray:
    """k seeds drawn from the points ``cols`` (d, n), each with probability
    proportional to its squared distance to the nearest seed so far."""
    n = cols.shape[1]
    centroids = np.empty((k, len(cols)), dtype=float)
    centroids[0] = cols[:, rng.below(n)]
    new, tmp = np.empty((1, n)), np.empty((1, n))
    d2 = _sq_dists(centroids[:1], cols, np.empty((1, n)), tmp)[0]
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        else:
            # remaining points coincide with chosen centroids
            idx = rng.below(n)
        centroids[j] = cols[:, idx]
        np.minimum(d2, _sq_dists(centroids[j:j + 1], cols, new, tmp)[0], out=d2)
    return centroids


def _lloyd(X: np.ndarray, k: int, rng: Xorshift64Star):
    """One restart, seeded from ``rng``: (centroids, labels, wcss, iterations)."""
    cols = X.T.copy()
    centroids = _kmeanspp_init(cols, k, rng)
    d2, tmp = np.empty((k, len(X))), np.empty((k, len(X)))
    for iterations in range(1, MAX_ITER + 1):
        labels, own_d2 = _assign_all(cols, centroids, d2, tmp)
        counts = np.bincount(labels, minlength=k)
        _repair_empty(X, centroids, labels, own_d2, counts)
        new_centroids = np.empty_like(centroids)
        for j, col in enumerate(cols):
            new_centroids[:, j] = np.bincount(labels, weights=col, minlength=k) / counts
        done = np.array_equal(new_centroids, centroids)
        centroids = new_centroids
        if done:
            break
    # make labels consistent with the final centroids (no-op when the loop
    # ended on an exact fixed point)
    labels, own_d2 = _assign_all(cols, centroids, d2, tmp)
    _repair_empty(X, centroids, labels, own_d2, np.bincount(labels, minlength=k))
    return centroids, labels, float(own_d2.sum()), iterations


def count_distinct(points) -> int:
    """Number of distinct rows of ``points``, compared by value (-0.0 equals 0.0)."""
    X = np.asarray(points, dtype=float)
    # sorted rows put equal ones side by side; np.unique(axis=0) would import numpy.ma
    rows = X[np.lexsort(X.T)]
    return min(len(X), 1) + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise TscnetError(f"expected a non-empty 2-D point array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise TscnetError("points contain NaN or infinity")
    return X


def kmeans_fit(points, k: int, seed: int = SEED, restarts: int = DEFAULT_RESTARTS) -> KMeansModel:
    """Best-of-restarts Lloyd fit, ranked by lowest wcss.

    Deterministic for fixed (points, k, seed, restarts): restart r draws from
    its own stream derived from (seed, r), and ties keep the earliest restart.
    """
    X = _as_points(points)
    n = len(X)
    if k < 1 or k > n:
        raise TscnetError(f"k={k} outside [1, {n}]")
    if restarts < 1:
        raise TscnetError(f"restarts must be >= 1, got {restarts}")
    distinct = count_distinct(X)
    if k > distinct:
        raise TscnetError(f"k={k} is above the {distinct} distinct points")

    # min keeps the first of equal wcss values, so a tie keeps the earliest restart
    centroids, labels, wcss, iterations = min(
        (_lloyd(X, k, Xorshift64Star(derive_seed(seed, r))) for r in range(restarts)),
        key=lambda fit: fit[2],
    )
    score = silhouette(X, labels) if k >= 2 else None
    return KMeansModel(k, centroids, labels, wcss, score, iterations)


def silhouette(points, labels) -> float:
    """Mean silhouette score under Euclidean distance.

    Per point: a = mean distance to its own cluster (excluding itself),
    b = smallest mean distance to any other cluster, score = (b - a) / max(a, b).
    Points alone in their cluster contribute 0, as does a point whose a and b
    are both zero. Result is in [-1, 1].

    Distances are built in blocks of rows, in two buffers of
    ``_BLOCK_BYTES`` each, so memory stays near 2·max(``_BLOCK_BYTES``, 8·n)
    bytes instead of growing as n²: 2 MB up to n = 131072, after which a block
    is a single row. For points of fewer than 8 dimensions the result equals,
    bit for bit, the per-point loop over a full distance matrix (``np.sum``
    of each cluster's masked distances, scores added in index order); from
    8 dimensions on, NumPy's pairwise sum over the coordinates may round
    differently in the last bit.
    """
    X = np.asarray(points, dtype=float)
    lab = np.asarray(labels)
    if len(X) != len(lab):
        raise TscnetError(f"{len(X)} points vs {len(lab)} labels")
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
        _sq_dists(block, cols, D, T)
        np.sqrt(D, out=D)  # a sum of squares: never negative
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
    k_min: int = K_MIN,
    k_max: int = K_MAX,
    seed: int = SEED,
    restarts: int = DEFAULT_RESTARTS,
) -> tuple[KMeansModel, list[tuple[int, float]]]:
    """Fit every k in [k_min, min(k_max, n-1, distinct points)], return
    (best model, full (k, silhouette) table).

    ``k_max`` is clamped: a silhouette needs a cluster with two points, and
    each cluster needs a distinct point. A ``k_min`` below 2 or above the
    clamped top raises a TscnetError. The best model maximizes silhouette;
    ties go to the smallest k. It is the fit ``kmeans_fit(points, best.k,
    seed, restarts)`` returns, so callers need not refit it.
    """
    X = _as_points(points)
    n, distinct = len(X), count_distinct(X)
    top = min(k_max, n - 1, distinct)
    if not 2 <= k_min <= top:
        raise TscnetError(
            f"need 2 <= k_min <= min(k_max, n-1, distinct points); "
            f"got k_min={k_min}, k_max={k_max}, n={n}, {distinct} distinct points"
        )
    table = []
    best = None
    for k in range(k_min, top + 1):
        model = kmeans_fit(X, k, seed=seed, restarts=restarts)
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

