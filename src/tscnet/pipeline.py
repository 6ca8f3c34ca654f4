"""End-to-end orchestration of the two clustering stages.

Stage I turns each ticker's closing prices into ⟨volatility, ret⟩ features
and k-means cluster labels, numbered by descending mean return. Stage II
splits the labeled :class:`Records`, trains the autoencoder to regress the
label, and scores the held-out records against their k-means labels.

:func:`run_pipeline` drives both stages from a parsed config and emits the
artifact bundle: labels CSV, model file, k-sweep CSV (auto-k runs only),
loss CSV, evaluation CSV, and two scatter SVGs, plus a checksum manifest.
Artifacts carry no timestamps and all numbers use fixed formats, so a rerun
with the same config reproduces every file byte for byte. Failures in any
stage surface as :class:`PipelineError` tagged with the stage name and
carrying the ingest warnings.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autonet, features, ingest, kmeans, svgplot
from .defaults import AUTO, BATCH_SIZE, EPOCHS, K_MAX, K_MIN, SEED, TEST_FRACTION, TRADING_DAYS, check_settings
from .errors import PipelineError, TscnetError, naming, reading_utf8
from .rng import Xorshift64Star

LABELS_CSV = "labels.csv"
MODEL_FILE = "model.tscnet"
SWEEP_CSV = "k_sweep.csv"
LOSS_CSV = "loss.csv"
EVAL_CSV = "evaluation.csv"
SCATTER_KMEANS_SVG = "scatter_kmeans.svg"
SCATTER_AUTONET_SVG = "scatter_autoencoder.svg"
MANIFEST_FILE = "manifest.txt"

# artifact CSVs that are read back: column name -> field type
LABELS_COLUMNS = {"ticker": str, "volatility": float, "return": float, "cluster": int}
SWEEP_COLUMNS = {"k": int, "silhouette": float}
LOSS_COLUMNS = {"epoch": int, "loss": float}
EVAL_HEADER = ("ticker", "volatility", "return", "raw_output", "predicted", "kmeans", "missed")


@dataclass(frozen=True, eq=False)
class Records:
    """Tickers with their ⟨volatility, ret⟩ features and cluster ids, one
    column each.

    Row i is ticker ``tickers[i]``, with ``features[i]`` = (volatility, ret)
    in an (n, 2) float64 array and cluster id ``clusters[i]`` in an (n,)
    int64 array.
    """

    tickers: tuple[str, ...]
    features: np.ndarray
    clusters: np.ndarray

    def __post_init__(self):
        n = len(self.tickers)
        if self.features.shape != (n, 2) or self.clusters.shape != (n,):
            raise TscnetError(
                f"{n} tickers vs features {self.features.shape}, clusters {self.clusters.shape}"
            )

    def __len__(self) -> int:
        return len(self.tickers)

    def take(self, idx) -> Records:
        """The rows at positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return Records(tuple(self.tickers[i] for i in idx.tolist()), self.features[idx], self.clusters[idx])

    def rows(self):
        """(ticker, volatility, ret, cluster) per row, as Python scalars."""
        return zip(self.tickers, *self.features.T.tolist(), self.clusters.tolist())


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Network predictions for ``records`` against their k-means labels.

    ``raw`` holds the network's (n,) raw outputs and ``predicted`` the
    labels :func:`autonet.round_labels` makes of them; a record is missed
    where ``predicted`` differs from ``records.clusters``.
    """

    records: Records
    raw: np.ndarray
    predicted: np.ndarray
    accuracy: float


def load_table(
    prices_path, tickers_path, start_date, trading_days: int = TRADING_DAYS
) -> tuple[tuple[str, ...], np.ndarray, list[str]]:
    """The ⟨volatility, ret⟩ features of a prices CSV, keeping the symbols in
    ``tickers_path`` when given and the rows from ``start_date`` on when
    given.

    Returns (tickers, features, warnings): ``tickers`` in ascending order,
    row i of the (n, 2) ``features`` that of ``tickers[i]``
    (:func:`features.build_feature_table`), and the warnings of
    :func:`ingest.load_price_table`. The closes, which grow as tickers x
    days, are freed before it returns, so none is alive in Stage 1's
    k-means.
    """
    tickers = None
    if tickers_path is not None:
        with reading_utf8(tickers_path), naming(tickers_path):
            tickers = ingest.parse_ticker_list(Path(tickers_path).read_text(encoding="utf-8"))
    start = start_date if start_date is not None else dt.date.min
    closes, warnings = ingest.load_price_table(prices_path, tickers, start)
    return (*features.build_feature_table(closes, trading_days), warnings)


def stage1_label(
    tickers: tuple[str, ...],
    points: np.ndarray,
    k: int | str = AUTO,
    seed: int = SEED,
    k_min: int = K_MIN,
    k_max: int = K_MAX,
) -> tuple[Records, kmeans.KMeansModel, list[tuple[int, float]] | None]:
    """k-means labels for the features :func:`load_table` gives: ``points``
    is (n, 2), row i the ⟨volatility, ret⟩ pair of ``tickers[i]``.

    Returns (records, fitted model, sweep), the records in the order of
    ``tickers``. ``k`` is an integer or "auto"; auto sweeps [k_min,
    min(k_max, n-1, distinct points)], keeps the silhouette maximizer and
    returns the (k, silhouette) table as ``sweep``, which is None for a
    fixed k. ``k``, ``k_min``, ``k_max`` and ``seed`` must pass
    :func:`defaults.check_settings`, as in a :class:`PipelineConfig`.

    Clusters are numbered by descending mean return
    (:func:`kmeans.relabel_by_return`): cluster 0 has the highest return, so
    the id Stage II regresses falls as return rises. This orders the target
    along return only: two clusters that differ only in volatility get
    adjacent ids in no geometric order, and the target can still fold there.
    """
    model, sweep = _resolve_k(points, k, k_min, k_max, seed)
    model = kmeans.relabel_by_return(model)
    return Records(tickers, points, model.assignments.astype(np.int64)), model, sweep


def _resolve_k(points, k, k_min, k_max, seed) -> tuple[kmeans.KMeansModel, list[tuple[int, float]] | None]:
    """(fitted model, sweep): a fixed k >= 2 is fitted once with no sweep;
    "auto" runs the silhouette sweep and keeps its best fit.
    """
    check_settings(k=k, k_min=k_min, k_max=k_max, seed=seed)
    if k == AUTO:
        return kmeans.select_k(points, k_min, k_max, seed=seed)
    return kmeans.kmeans_fit(points, k, seed=seed), None


def split(records: Records, test_fraction: float, seed: int) -> tuple[Records, Records]:
    """Seeded-shuffle partition into (train, test); |test| = ceil(test_fraction * n).

    ``test_fraction`` and ``seed`` must pass :func:`defaults.check_settings`.
    """
    check_settings(test_fraction=test_fraction, seed=seed)
    n = len(records)
    if n < 2:
        raise TscnetError(f"need at least 2 records to split, got {n}")
    test_size = math.ceil(test_fraction * n)
    if test_size == n:
        raise TscnetError(f"test_fraction {test_fraction} leaves no training record of {n}")
    idx = list(range(n))
    Xorshift64Star(seed).shuffle(idx)
    return records.take(idx[test_size:]), records.take(idx[:test_size])


def stage2_train(
    train_records: Records,
    num_clusters: int,
    epochs: int = EPOCHS,
    batch_size: int = BATCH_SIZE,
    seed: int = SEED,
) -> tuple[autonet.DenseNetwork, autonet.TrainHistory]:
    """Train the autoencoder to regress cluster ids from ⟨volatility, ret⟩.

    Targets are the records' cluster ids as floats (the output layer is one
    unit wide); the latent width equals ``num_clusters``. Records from
    :func:`stage1_label` carry return-ordered ids; a labels file is taken
    with whatever numbering it has.
    """
    y = train_records.clusters.astype(float).reshape(-1, 1)
    net = autonet.build_autoencoder(2, autonet.ENCODER_WIDTHS, num_clusters, 1, seed=seed)
    history = autonet.train(net, train_records.features, y, epochs=epochs, batch_size=batch_size, seed=seed)
    return net, history


def label_accuracy(predicted, reference) -> float:
    """Fraction of positions where the two label sequences agree.

    Invariant under any simultaneous relabeling applied to both sequences.
    """
    p = np.asarray(predicted)
    r = np.asarray(reference)
    if p.shape != r.shape:
        raise TscnetError(f"label shapes differ: {p.shape} vs {r.shape}")
    if p.size == 0:
        raise TscnetError("no labels to compare")
    return float(np.mean(p == r))


def evaluate(
    net: autonet.DenseNetwork,
    test_records: Records,
    num_clusters: int,
) -> EvaluationReport:
    """Score network label predictions against the k-means reference labels.

    Raw outputs and labels come from :func:`autonet.predict_labels`, so a
    network with more than one output raises a TscnetError.
    """
    if not len(test_records):
        raise TscnetError("no test records")
    raw, predicted = autonet.predict_labels(net, test_records.features, num_clusters)
    accuracy = label_accuracy(predicted, test_records.clusters)
    return EvaluationReport(records=test_records, raw=raw, predicted=predicted, accuracy=accuracy)


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed run configuration; defaults follow the paper's study setup."""

    prices_path: Path
    out_dir: Path = Path("out")
    tickers_path: Path | None = None
    start_date: dt.date | None = None
    k: int | str = AUTO
    k_min: int = K_MIN
    k_max: int = K_MAX
    seed: int = SEED
    epochs: int = EPOCHS
    batch_size: int = BATCH_SIZE
    test_fraction: float = TEST_FRACTION
    trading_days: int = TRADING_DAYS

    def __post_init__(self):
        check_settings(k=self.k, k_min=self.k_min, k_max=self.k_max, seed=self.seed, epochs=self.epochs,
                       batch_size=self.batch_size, test_fraction=self.test_fraction,
                       trading_days=self.trading_days)


def parse_config(path) -> PipelineConfig:
    """Parse a key-value config file of ``key = value`` lines, each split at
    its first ``=``.

    Blank lines and lines that start with ``#`` are ignored; a ``#`` after a
    value is part of it, as a path may hold one. Relative paths resolve
    against the config file's directory. The keys are the field names of
    PipelineConfig; unknown or duplicate keys are rejected. Every error
    names the config file.
    """
    path = Path(path)
    try:
        with reading_utf8(path):
            text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TscnetError(f"cannot read config {path}: {exc}") from exc
    with naming(path):
        return _config_from(text, path.resolve().parent)


def _config_from(text: str, base: Path) -> PipelineConfig:
    known = {f.name for f in fields(PipelineConfig)}
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        # a key is one word, so `prices_path: a=b.csv` is no `key = value` line
        if not sep or not key.isidentifier():
            raise TscnetError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        value = value.strip()
        if key not in known:
            raise TscnetError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise TscnetError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise TscnetError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    if "prices_path" not in raw:
        raise TscnetError("config is missing required key 'prices_path'")

    def _path(key: str) -> Path:
        p = Path(raw[key])
        return p if p.is_absolute() else base / p

    def _int(key: str) -> int:
        try:
            return int(raw[key])
        except ValueError as exc:
            raise TscnetError(f"{key} must be an integer, got {raw[key]!r}") from exc

    kwargs: dict = {"prices_path": _path("prices_path")}
    if "out_dir" in raw:
        kwargs["out_dir"] = _path("out_dir")
    if "tickers_path" in raw:
        kwargs["tickers_path"] = _path("tickers_path")
    if "start_date" in raw:
        try:
            kwargs["start_date"] = dt.date.fromisoformat(raw["start_date"])
        except ValueError as exc:
            raise TscnetError(f"start_date must be YYYY-MM-DD, got {raw['start_date']!r}") from exc
    if "k" in raw:
        kwargs["k"] = AUTO if raw["k"].lower() == AUTO else _int("k")
    for key in ("k_min", "k_max", "seed", "epochs", "batch_size", "trading_days"):
        if key in raw:
            kwargs[key] = _int(key)
    if "test_fraction" in raw:
        try:
            kwargs["test_fraction"] = float(raw["test_fraction"])
        except ValueError as exc:
            raise TscnetError(f"test_fraction must be a number, got {raw['test_fraction']!r}") from exc
    return PipelineConfig(**kwargs)


@dataclass
class PipelineResult:
    """Everything a run produced, with artifact paths keyed by file name."""

    records: Records
    model: kmeans.KMeansModel
    sweep: list[tuple[int, float]] | None
    history: autonet.TrainHistory
    report: EvaluationReport
    warnings: list[str]
    artifacts: dict[str, Path]
    manifest_path: Path


def _stage(name: str, warnings, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a failure is re-raised as a PipelineError
    tagged ``name`` that carries the ``warnings`` gathered so far."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, exc, warnings) from exc


def scatter_charts(records: Records, predicted, num_clusters: int) -> dict[str, str]:
    """The k-means and autoencoder scatter SVGs, keyed by file name.

    Records whose predicted label differs from their k-means label are
    marked as misses in both. The legend lists max(num_clusters, largest
    k-means label + 1) clusters.
    """
    clusters = records.clusters.tolist()
    predicted = np.asarray(predicted).tolist()
    legend_k = max(num_clusters, max(clusters) + 1)
    misses = [p != c for p, c in zip(predicted, clusters)]
    vols, rets = records.features.T.tolist()
    charts = {}
    for name, title, labels in (
        (SCATTER_KMEANS_SVG, "KMeans clustering", clusters),
        (SCATTER_AUTONET_SVG, "Autoencoder clustering", predicted),
    ):
        charts[name] = svgplot.scatter_chart(
            zip(vols, rets, labels, misses),
            title,
            "annualized volatility",
            "annualized return",
            legend_k,
        )
    return charts


def csv_text(header, lines) -> str:
    """A CSV document: the ``header`` names, then each of ``lines``, LF-terminated."""
    return "".join(f"{line}\n" for line in (",".join(header), *lines))


def labels_csv(records: Records) -> str:
    """``ticker,volatility,return,cluster`` rows; floats carry 12 significant digits."""
    return csv_text(LABELS_COLUMNS, (f"{t},{v:.12g},{r:.12g},{c}" for t, v, r, c in records.rows()))


def sweep_csv(sweep) -> str:
    """The ``k,silhouette`` table of an auto-k sweep."""
    return csv_text(SWEEP_COLUMNS, (f"{k},{score:.12g}" for k, score in sweep))


def loss_csv(history: autonet.TrainHistory) -> str:
    """The per-epoch loss curve as ``epoch,loss`` (epochs 1-based)."""
    return csv_text(LOSS_COLUMNS, (f"{e},{loss:.16e}" for e, loss in enumerate(history.losses, start=1)))


def evaluation_csv(report: EvaluationReport) -> str:
    """Per-record evaluation rows; ``missed`` is 0/1."""
    return csv_text(EVAL_HEADER, (
        f"{t},{v:.12g},{r:.12g},{raw:.16e},{p},{c},{int(p != c)}"
        for (t, v, r, c), raw, p in zip(report.records.rows(), report.raw.tolist(), report.predicted.tolist())
    ))


def _parse_field(kind, text: str):
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    if kind is int and value < 0:
        raise ValueError(f"negative value {text!r}")
    return value


def read_csv(path, columns) -> list[tuple]:
    """Rows of a comma-separated file whose header line names ``columns``.

    ``columns`` maps each column name to its field type: str, int (>= 0) or
    float (finite). LF and CRLF line ends are accepted and blank lines are
    skipped. A bad header or row, or no row at all, raises TscnetError naming
    the path and the line; non-UTF-8 bytes raise it naming the path.
    """
    expected = ",".join(columns)
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh, reading_utf8(path):
        found = fh.readline().rstrip("\r\n")
        if found != expected:
            raise TscnetError(f"{path}: bad header {found!r}, expected {expected!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != len(columns):
                raise TscnetError(f"{path} line {lineno}: expected {len(columns)} fields, got {len(fields)}")
            try:
                rows.append(tuple(_parse_field(kind, text) for kind, text in zip(columns.values(), fields)))
            except ValueError as exc:
                raise TscnetError(f"{path} line {lineno}: {exc}") from None
    if not rows:
        raise TscnetError(f"{path}: no rows under {expected!r}")
    return rows


def read_labels_csv(path) -> Records:
    """The records of a labels CSV.

    A cluster id must be below the file's row count, the bound k <= n that
    k-means puts on a fit; a larger id raises TscnetError naming the path.
    """
    rows = read_csv(path, LABELS_COLUMNS)
    for row in rows:
        if row[3] >= len(rows):
            raise TscnetError(f"{path}: cluster id {row[3]} is not below the row count {len(rows)}")
    return Records(
        tuple(row[0] for row in rows),
        np.array([row[1:3] for row in rows], dtype=float),
        np.array([row[3] for row in rows], dtype=np.int64),
    )


def write_files(out_dir, writers, manifest: str | None = None) -> dict[str, Path]:
    """Create ``out_dir`` and write each file of ``writers``, in order.

    ``writers`` maps a file name to its text, written as UTF-8 with LF line
    ends, or to a callable that writes the file at the path it is given.
    When ``manifest`` names a file, it is written last by
    :func:`write_manifest` and lists every other file. Each file is written
    under a temporary name in ``out_dir`` and renamed into place only after
    every write has succeeded, so a failed write leaves the files already
    there untouched. Before the first rename every target must be absent or
    a regular file, else OSError names it and nothing is renamed. Returns
    the final paths by name. On any failure the temporary files are removed
    and the error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged: dict[str, Path] = {}
    try:
        for name, write in writers.items():
            staged[name] = out / f".{name}.tmp"
            if isinstance(write, str):
                staged[name].write_text(write, encoding="utf-8", newline="\n")
            else:
                write(staged[name])
        if manifest is not None:
            artifacts = dict(staged)
            staged[manifest] = out / f".{manifest}.tmp"
            write_manifest(artifacts, staged[manifest])
        for name in staged:
            if (out / name).exists() and not (out / name).is_file():
                raise OSError(f"cannot replace {out / name}: not a regular file")
        for name, path in staged.items():
            os.replace(path, out / name)
    except BaseException:
        for path in staged.values():
            path.unlink(missing_ok=True)
        raise
    return {name: out / name for name in staged}


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute Stage I and Stage II and emit the artifact bundle.

    ``config`` fixes the whole run: the same config writes the same bytes.

    All stages run before any file is written, and a failed write leaves
    the files already in ``out_dir`` as they were (see :func:`write_files`).
    The manifest lists every artifact as ``<sha256>  <name>``, sorted by
    name. A fixed-k run removes a ``k_sweep.csv`` left in ``out_dir`` by an
    earlier auto-k run.
    """
    tickers, points, warnings = _stage(
        "ingest", (), load_table, config.prices_path, config.tickers_path, config.start_date, config.trading_days
    )
    records, model, sweep = _stage(
        "label",
        warnings,
        stage1_label,
        tickers,
        points,
        k=config.k,
        seed=config.seed,
        k_min=config.k_min,
        k_max=config.k_max,
    )
    train_set, test_set = _stage("split", warnings, split, records, config.test_fraction, config.seed)
    net, history = _stage(
        "train",
        warnings,
        stage2_train,
        train_set,
        num_clusters=model.k,
        epochs=config.epochs,
        batch_size=config.batch_size,
        seed=config.seed,
    )
    report = _stage("evaluate", warnings, evaluate, net, test_set, model.k)

    def emit():
        _, predicted = autonet.predict_labels(net, records.features, model.k)
        writers = {
            LABELS_CSV: labels_csv(records),
            MODEL_FILE: lambda path: autonet.save_model(net, path),
        }
        if sweep is not None:
            writers[SWEEP_CSV] = sweep_csv(sweep)
        writers[LOSS_CSV] = loss_csv(history)
        writers[EVAL_CSV] = evaluation_csv(report)
        writers.update(scatter_charts(records, predicted, model.k))
        paths = write_files(config.out_dir, writers, manifest=MANIFEST_FILE)
        if sweep is None:
            (config.out_dir / SWEEP_CSV).unlink(missing_ok=True)
        return {name: paths[name] for name in writers}, paths[MANIFEST_FILE]

    artifacts, manifest_path = _stage("emit", warnings, emit)
    return PipelineResult(
        records=records,
        model=model,
        sweep=sweep,
        history=history,
        report=report,
        warnings=warnings,
        artifacts=artifacts,
        manifest_path=manifest_path,
    )


def write_manifest(artifacts: dict[str, Path], path) -> None:
    """Write ``<sha256>  <name>`` lines, sorted by artifact name."""
    lines = (f"{hashlib.sha256(artifacts[n].read_bytes()).hexdigest()}  {n}\n" for n in sorted(artifacts))
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")
