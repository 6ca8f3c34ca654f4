"""Independent checks of one `run` + `report` bundle.

Nothing here imports tscnet: every expected value is recomputed from the
generator's targets and from the bundle's own text files with plain NumPy.
:func:`check_bundle` returns a list of ``(check, message)`` failures; an
empty list means the bundle passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

TOL = 1e-9
TEST_FRACTION = 0.33
RUN_FILES = {"labels.csv", "model.tscnet", "loss.csv", "evaluation.csv",
             "scatter_kmeans.svg", "scatter_autoencoder.svg"}
SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def read_targets(path: Path):
    rows = _rows(path)[1:]
    tickers = [r[0] for r in rows]
    points = np.array([[float(r[1]), float(r[2])] for r in rows])
    blobs = np.array([int(r[3]) for r in rows])
    return tickers, points, blobs


def silhouette(points: np.ndarray, labels: np.ndarray, block: int = 256) -> float:
    """Mean silhouette (Rousseeuw 1987), distances computed in row blocks."""
    uniq, lab = np.unique(labels, return_inverse=True)
    onehot = np.zeros((len(points), len(uniq)))
    onehot[np.arange(len(points)), lab] = 1.0
    sizes = onehot.sum(axis=0)
    total = 0.0
    for lo in range(0, len(points), block):
        diff = points[lo:lo + block, None, :] - points[None, :, :]
        sums = np.sqrt(np.sum(diff * diff, axis=2)) @ onehot
        own = lab[lo:lo + block]
        rows = np.arange(len(own))
        own_size = sizes[own]
        a = sums[rows, own] / np.maximum(own_size - 1, 1)
        means = sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)
        m = np.maximum(a, b)
        s = np.where((own_size > 1) & (m > 0), (b - a) / np.where(m > 0, m, 1.0), 0.0)
        total += float(s.sum())
    return total / len(points)


def read_model(path: Path) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """Layers of a ``tscnet v1`` text model as (weights, biases, activation)."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if lines[0] != "tscnet v1" or not lines[1].startswith("layers "):
        raise CheckFailed("model", "bad header")
    pos, layers = 2, []
    for _ in range(int(lines[1].split()[1])):
        _, width_in, width_out, act = lines[pos].split()
        width_in, width_out = int(width_in), int(width_out)
        weights = np.array([[float(v) for v in lines[pos + 1 + r].split()] for r in range(width_out)])
        biases = np.array([float(v) for v in lines[pos + 1 + width_out].split()])
        if weights.shape != (width_out, width_in) or biases.shape != (width_out,):
            raise CheckFailed("model", f"layer {len(layers)} has the wrong shape")
        layers.append((weights, biases, act))
        pos += width_out + 2
    return layers


def forward(layers, x: np.ndarray) -> np.ndarray:
    a = x
    for weights, biases, act in layers:
        z = a @ weights.T + biases
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
    return a[:, 0]


def _expect(ok: bool, check: str, message: str) -> None:
    if not ok:
        raise CheckFailed(check, message)


def check_bundle(out: Path, run_stdout: str, targets, k_expected: int,
                 auto_k: bool, accuracy_floor: float) -> list[tuple[str, str]]:
    """Every failed check of one bundle."""
    failures = []
    for check in (_labels, _sweep, _model, _loss, _manifest, _svgs):
        try:
            check(out, run_stdout, targets, k_expected, auto_k, accuracy_floor)
        except CheckFailed as exc:
            failures.append((exc.check, str(exc)))
        except (OSError, ValueError, IndexError, KeyError, ET.ParseError) as exc:
            failures.append((check.__name__.lstrip("_"), f"{type(exc).__name__}: {exc}"))
    return failures


def _labels_table(out: Path):
    rows = _rows(out / "labels.csv")
    if rows[0] != ["ticker", "volatility", "return", "cluster"]:
        raise CheckFailed("labels", f"bad header {rows[0]}")
    rows = rows[1:]
    return ([r[0] for r in rows], np.array([[float(r[1]), float(r[2])] for r in rows]),
            np.array([int(r[3]) for r in rows]))


def stdout_value(run_stdout: str, key: str) -> str:
    for token in run_stdout.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    raise CheckFailed("stdout", f"no {key}= in the run's output")


def _labels(out, run_stdout, targets, k_expected, auto_k, floor):
    tickers, points, clusters = _labels_table(out)
    t_tickers, t_points, blobs = targets
    _expect(tickers == t_tickers, "features", "tickers differ from the generated ones")
    err = float(np.max(np.abs(points - t_points)))
    _expect(err <= TOL, "features", f"largest feature error {err:.3g} > {TOL}")

    k = int(stdout_value(run_stdout, "k"))
    _expect(sorted(set(clusters.tolist())) == list(range(k)), "partition",
            f"cluster ids are not 0..{k - 1}")
    _expect(k == k_expected, "partition", f"chose k={k}, expected {k_expected}")
    pairs = set(zip(clusters.tolist(), blobs.tolist()))
    _expect(len(pairs) == k == len(set(blobs.tolist())), "partition",
            "clusters differ from the generated blobs up to renumbering")

    means = np.array([points[clusters == c].mean(axis=0) for c in range(k)])
    d2 = np.sum((points[:, None, :] - means[None, :, :]) ** 2, axis=2)
    own = d2[np.arange(len(points)), clusters]
    _expect(bool(np.all(own <= d2.min(axis=1))), "nearest-mean",
            f"{int(np.sum(own > d2.min(axis=1)))} points nearer another cluster's mean")


def _sweep(out, run_stdout, targets, k_expected, auto_k, floor):
    path = out / "k_sweep.csv"
    if not auto_k:
        _expect(not path.exists(), "silhouette", "fixed-k run wrote k_sweep.csv")
        return
    rows = _rows(path)
    _expect(rows[0] == ["k", "silhouette"], "silhouette", f"bad header {rows[0]}")
    ks = [int(r[0]) for r in rows[1:]]
    scores = np.array([float(r[1]) for r in rows[1:]])
    _, points, clusters = _labels_table(out)
    k = int(stdout_value(run_stdout, "k"))
    _expect(k == ks[int(np.argmax(scores))], "silhouette", f"k={k} is not the first argmax of the sweep")
    mine = silhouette(points, clusters)
    theirs = float(scores[ks.index(k)])
    _expect(abs(mine - theirs) <= TOL, "silhouette", f"k={k}: sweep says {theirs!r}, recomputed {mine!r}")


def _model(out, run_stdout, targets, k_expected, auto_k, floor):
    layers = read_model(out / "model.tscnet")
    rows = _rows(out / "evaluation.csv")
    _expect(rows[0] == ["ticker", "volatility", "return", "raw_output", "predicted", "kmeans", "missed"],
            "model", f"bad evaluation header {rows[0]}")
    rows = rows[1:]
    tickers, _, clusters = _labels_table(out)
    _expect(len(rows) == math.ceil(TEST_FRACTION * len(tickers)), "model",
            f"{len(rows)} test rows for {len(tickers)} tickers")
    cluster_of = dict(zip(tickers, clusters.tolist()))
    x = np.array([[float(r[1]), float(r[2])] for r in rows])
    raw = forward(layers, x)
    err = float(np.max(np.abs(raw - np.array([float(r[3]) for r in rows]))))
    _expect(err <= TOL, "model", f"forward pass differs from raw_output by {err:.3g}")
    k = int(stdout_value(run_stdout, "k"))
    predicted = np.clip(np.abs(np.rint(raw)), 0, k - 1).astype(int)
    kmeans = np.array([cluster_of[r[0]] for r in rows])
    _expect(predicted.tolist() == [int(r[4]) for r in rows], "model", "predicted does not follow raw_output")
    _expect(kmeans.tolist() == [int(r[5]) for r in rows], "model", "kmeans column differs from labels.csv")
    missed = predicted != kmeans
    _expect(missed.astype(int).tolist() == [int(r[6]) for r in rows], "model", "missed column is wrong")
    accuracy = 1.0 - float(missed.mean())
    printed = float(stdout_value(run_stdout, "accuracy"))
    _expect(abs(printed - accuracy) <= TOL, "model", f"printed accuracy {printed} != {accuracy}")
    _expect(accuracy > floor, "accuracy", f"accuracy {accuracy:.4f} <= floor {floor}")


def _loss(out, run_stdout, targets, k_expected, auto_k, floor):
    rows = _rows(out / "loss.csv")
    _expect(rows[0] == ["epoch", "loss"], "loss", f"bad header {rows[0]}")
    losses = np.array([float(r[1]) for r in rows[1:]])
    _expect([int(r[0]) for r in rows[1:]] == list(range(1, len(losses) + 1)), "loss", "epochs not 1..E")
    _expect(bool(np.all(np.isfinite(losses))), "loss", "non-finite loss")
    _expect(losses[-1] < losses[0], "loss", f"last loss {losses[-1]} not below first {losses[0]}")


def _manifest(out, run_stdout, targets, k_expected, auto_k, floor):
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    entries = [line.split("  ", 1) for line in lines]
    names = [name for _, name in entries]
    expected = RUN_FILES | ({"k_sweep.csv"} if auto_k else set())
    _expect(names == sorted(expected), "manifest", f"lists {names}")
    for digest, name in entries:
        fresh = hashlib.sha256((out / name).read_bytes()).hexdigest()
        _expect(fresh == digest, "manifest", f"{name}: sha256 {fresh} != {digest}")


def _svgs(out, run_stdout, targets, k_expected, auto_k, floor):
    svgs = sorted(p.name for p in out.glob("*.svg"))
    expected = ["loss.svg", "scatter_autoencoder.svg", "scatter_kmeans.svg"]
    _expect(svgs == sorted(expected + (["k_sweep.svg"] if auto_k else [])), "svg", f"found {svgs}")
    rows = _rows(out / "scatter_points.csv")
    _expect(rows[0] == ["ticker", "volatility", "return", "kmeans", "predicted", "missed"],
            "svg", f"bad scatter_points header {rows[0]}")
    missed = sum(int(r[5]) for r in rows[1:])
    for name in svgs:
        root = ET.parse(out / name).getroot()
        _expect(root.tag == SVG_NS + "svg", "svg", f"{name}: root is {root.tag}")
        if name.startswith("scatter"):
            marks = sum(1 for el in root.iter() if el.get("class") == "miss")
            _expect(marks == missed, "svg", f"{name}: {marks} miss markers, {missed} missed rows")
