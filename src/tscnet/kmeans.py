"""Lloyd's k-means with silhouette validation and an optimal-k sweep.

The engine is dimension-generic but is exercised on 2-D <volatility, ret>
points. Distances are Euclidean throughout. Each restart seeds centroids with
distance-weighted probabilistic sampling (k-means++ style) from its own
deterministic random stream, so restarts are order-independent and a fixed
(seed, restarts) pair reproduces the fitted model bit for bit.

Convergence: a restart stops when an assignment pass leaves every centroid
unchanged (an exact Lloyd fixed point; recomputed means of an identical
partition are bitwise identical). Once the largest centroid displacement
falls below ``tol`` the restart is treated as converged and given a short
polish budget to reach the exact fixed point, which makes the fitted-model
invariants (centroid == mean of members, every point nearest its centroid)
hold exactly rather than within tol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadK, NonFinitePoint, SingleCluster
from .ingest import read_pairs_csv
from .rng import Xorshift64Star, derive_seed

DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-4

_POLISH_BUDGET = 100  # extra iterations allowed to turn tol-convergence into an exact fixed point


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
    seed: int
    iterations_run: int
    wcss_history: tuple[float, ...]


def _assign_all(X: np.ndarray, centroids: np.ndarray):
    """Labels plus each point's squared distance to its own centroid."""
    d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(X)), labels]


def _repair_empty(X, centroids, labels, own_d2, k):
    """Reseed each empty cluster at the point farthest from its centroid."""
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        p = int(np.argmax(own_d2))
        centroids[j] = X[p]
        labels[p] = j
        own_d2[p] = 0.0
        counts[j] = 1
    return labels, own_d2


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


def _lloyd(X: np.ndarray, k: int, rng: Xorshift64Star, max_iter: int, tol: float) -> _Restart:
    n = len(X)
    centroids = _kmeanspp_init(X, k, rng)
    labels = np.zeros(n, dtype=int)
    history = []
    polish = None
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        labels, own_d2 = _assign_all(X, centroids)
        labels, own_d2 = _repair_empty(X, centroids, labels, own_d2, k)
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            new_centroids[j] = X[labels == j].mean(axis=0)
        diffs = X - new_centroids[labels]
        history.append(float(np.sum(diffs * diffs)))
        shift = float(np.sqrt(np.max(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift == 0.0:
            break
        if shift < tol:
            polish = _POLISH_BUDGET if polish is None else polish - 1
            if polish == 0:
                break
    # make labels consistent with the final centroids (no-op when the loop
    # ended on an exact fixed point)
    labels, own_d2 = _assign_all(X, centroids)
    labels, own_d2 = _repair_empty(X, centroids, labels, own_d2, k)
    return _Restart(centroids, labels, float(own_d2.sum()), iterations, tuple(history))


def kmeans_fit(
    points,
    k: int,
    seed: int = 7,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> KMeansModel:
    """Best-of-restarts Lloyd fit, ranked by lowest wcss.

    Deterministic for fixed (points, k, seed, restarts): restart r draws from
    its own stream derived from (seed, r), and ties keep the earliest restart.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise BadK(f"expected a non-empty 2-D point array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFinitePoint("points contain NaN or infinity")
    n = len(X)
    if k < 1 or k > n:
        raise BadK(f"k={k} outside [1, {n}]")
    if restarts < 1:
        raise BadK(f"restarts must be >= 1, got {restarts}")

    best: _Restart | None = None
    for r in range(restarts):
        rng = Xorshift64Star(derive_seed(seed, r))
        cand = _lloyd(X, k, rng, max_iter, tol)
        if best is None or cand.wcss < best.wcss:
            best = cand

    score = silhouette(X, best.labels) if k >= 2 else None
    return KMeansModel(
        k=k,
        centroids=best.centroids,
        assignments=best.labels,
        wcss=best.wcss,
        silhouette=score,
        seed=seed,
        iterations_run=best.iterations,
        wcss_history=best.history,
    )


def silhouette(points, labels) -> float:
    """Mean silhouette score under Euclidean distance.

    Per point: a = mean distance to its own cluster (excluding itself),
    b = smallest mean distance to any other cluster, score = (b - a) / max(a, b).
    Points alone in their cluster contribute 0, as does a point whose a and b
    are both zero. Result is in [-1, 1].
    """
    X = np.asarray(points, dtype=float)
    lab = np.asarray(labels)
    if len(X) != len(lab):
        raise ValueError(f"{len(X)} points vs {len(lab)} labels")
    uniq = np.unique(lab)
    if len(uniq) < 2:
        raise SingleCluster("silhouette needs at least 2 distinct labels")

    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    masks = {int(u): lab == u for u in uniq}
    sizes = {u: int(m.sum()) for u, m in masks.items()}

    total = 0.0
    n = len(X)
    for i in range(n):
        own = int(lab[i])
        if sizes[own] == 1:
            continue  # singleton contributes 0
        a = dist[i][masks[own]].sum() / (sizes[own] - 1)  # dist[i, i] == 0 drops out
        b = min(dist[i][masks[u]].mean() for u in sizes if u != own)
        m = max(a, b)
        if m > 0.0:
            total += (b - a) / m
    return float(total / n)


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
        raise BadK(f"need 2 <= k_min <= k_max <= {n - 1}, got [{k_min}, {k_max}]")
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


def write_sweep_csv(table, path) -> None:
    """Write a ``k,silhouette`` score table (the optimal-k sweep data)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,silhouette\n")
        for k, score in table:
            fh.write(f"{k},{score:.12g}\n")


def read_sweep_csv(path) -> list[tuple[int, float]]:
    """Read a ``k,silhouette`` table back; malformed lines raise FormatError."""
    return read_pairs_csv(path, "k,silhouette")
