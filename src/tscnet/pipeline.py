"""End-to-end orchestration of the two clustering stages.

Stage I turns a price table into ⟨volatility, ret⟩ features and k-means
cluster labels. Stage II splits the labeled records, trains the autoencoder
to regress the numeric label, and scores the held-out records against their
k-means labels.

:func:`run_pipeline` drives both stages from a parsed config and emits the
artifact bundle: labels CSV, model file, k-sweep CSV (auto-k runs only),
loss CSV, evaluation CSV, and two scatter SVGs, plus a checksum manifest.
Artifacts carry no timestamps and all numbers use fixed formats, so a rerun
with the same config reproduces every file byte for byte. Failures in any
stage surface as :class:`PipelineError` tagged with the stage name.
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autonet, features, ingest, kmeans, svgplot
from .errors import BadConfig, BadK, EmptyDataset, PipelineError, reading_utf8
from .rng import Xorshift64Star

AUTO = "auto"

LABELS_CSV = "labels.csv"
MODEL_FILE = "model.tscnet"
SWEEP_CSV = "k_sweep.csv"
LOSS_CSV = "loss.csv"
EVAL_CSV = "evaluation.csv"
SCATTER_KMEANS_SVG = "scatter_kmeans.svg"
SCATTER_AUTONET_SVG = "scatter_autoencoder.svg"
MANIFEST_FILE = "manifest.txt"

EVAL_HEADER = ["ticker", "volatility", "return", "raw_output", "predicted", "kmeans", "missed"]

DEFAULT_ENCODER_WIDTHS = (100, 50, 20)


@dataclass(frozen=True)
class LabeledRecord:
    """One ticker's features plus its k-means cluster id."""

    ticker: str
    volatility: float
    ret: float
    cluster: int


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split; test size is ceil(test_fraction * n)."""

    test_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise BadConfig(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class EvalRow:
    """One held-out record's raw output and the two labels being compared."""

    ticker: str
    volatility: float
    ret: float
    raw_output: float
    predicted: int
    kmeans: int
    missed: bool


@dataclass(frozen=True)
class EvaluationReport:
    """Per-record comparison of network predictions against k-means labels."""

    rows: tuple[EvalRow, ...]
    accuracy: float
    disagreements: tuple[EvalRow, ...]


def feature_matrix(rows) -> np.ndarray:
    """Stack rows with ``.volatility`` and ``.ret`` as an (n, 2) array."""
    return np.array([[r.volatility, r.ret] for r in rows], dtype=float)


def load_table(prices_path, tickers_path, start_date) -> tuple[ingest.PriceTable, list[str]]:
    """Load a prices CSV, keeping the symbols in ``tickers_path`` when given
    and the rows from ``start_date`` on when given. Returns (table, warnings).
    """
    tickers = None
    if tickers_path is not None:
        with reading_utf8(tickers_path):
            tickers = ingest.parse_ticker_list(Path(tickers_path).read_text(encoding="utf-8"))
    start = start_date if start_date is not None else dt.date.min
    return ingest.load_price_table(prices_path, tickers, start)


def _records_from(feats, model: kmeans.KMeansModel) -> list[LabeledRecord]:
    return [
        LabeledRecord(f.ticker, f.volatility, f.ret, int(label))
        for f, label in zip(feats, model.assignments)
    ]


def stage1_label(
    table: ingest.PriceTable,
    k: int | str = AUTO,
    seed: int = 7,
    trading_days: int = features.TRADING_DAYS,
    k_min: int = 2,
    k_max: int = 10,
    restarts: int = kmeans.DEFAULT_RESTARTS,
    canonical: bool = False,
    warn_sink: list[str] | None = None,
) -> tuple[list[LabeledRecord], kmeans.KMeansModel, list[tuple[int, float]] | None]:
    """Features plus k-means labels for every usable ticker, in ticker order.

    Returns (records, fitted model, sweep). ``k`` is an integer or "auto";
    auto sweeps [k_min, min(k_max, n-1)], keeps the silhouette maximizer and
    returns the (k, silhouette) table as ``sweep``, which is None for a fixed
    k. ``canonical`` renumbers clusters by descending mean return. Tickers
    dropped for short series are reported into ``warn_sink`` when given.
    """
    feats, warnings = features.build_feature_table(table, trading_days)
    if warn_sink is not None:
        warn_sink.extend(warnings)
    model, sweep = _resolve_k(feature_matrix(feats), k, k_min, k_max, seed, restarts)
    if canonical:
        model = kmeans.relabel_by_return(model)
    return _records_from(feats, model), model, sweep


def _resolve_k(points, k, k_min, k_max, seed, restarts) -> tuple[kmeans.KMeansModel, list[tuple[int, float]] | None]:
    """(fitted model, sweep): a fixed k is fitted once with no sweep; "auto"
    runs the silhouette sweep and keeps its best fit.
    """
    if k == AUTO:
        n = len(points)
        hi = min(k_max, n - 1)
        if k_min > hi:
            raise BadK(f"auto-k needs k_min <= min(k_max, n-1); got k_min={k_min}, n={n}")
        return kmeans.select_k(points, k_min, hi, seed=seed, restarts=restarts)
    if not isinstance(k, int):
        raise BadK(f"k must be an integer or {AUTO!r}, got {k!r}")
    return kmeans.kmeans_fit(points, k, seed=seed, restarts=restarts), None


def split(
    records: list[LabeledRecord],
    spec: SplitSpec,
    stratify: bool = False,
) -> tuple[list[LabeledRecord], list[LabeledRecord]]:
    """Seeded-shuffle partition into (train, test); |test| = ceil(fraction * n).

    Unstratified by default. With ``stratify`` the same total test size is
    apportioned across clusters by largest remainder, so class balance is
    approximately preserved.
    """
    n = len(records)
    if n < 2:
        raise EmptyDataset(f"need at least 2 records to split, got {n}")
    test_size = math.ceil(spec.test_fraction * n)
    rng = Xorshift64Star(spec.seed)
    if not stratify:
        idx = list(range(n))
        rng.shuffle(idx)
        test_idx = idx[:test_size]
        train_idx = idx[test_size:]
    else:
        test_idx, train_idx = _stratified_indices(records, test_size, rng)
    return [records[i] for i in train_idx], [records[i] for i in test_idx]


def _stratified_indices(records, test_size, rng):
    groups: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.cluster, []).append(i)
    labels = sorted(groups)
    n = len(records)
    quotas = {lab: test_size * len(groups[lab]) / n for lab in labels}
    take = {lab: min(int(quotas[lab]), len(groups[lab])) for lab in labels}
    leftover = test_size - sum(take.values())
    # hand out the remainder by largest fractional part, ties to lower label
    by_frac = sorted(labels, key=lambda lab: (-(quotas[lab] - int(quotas[lab])), lab))
    while leftover > 0:
        progressed = False
        for lab in by_frac:
            if leftover == 0:
                break
            if take[lab] < len(groups[lab]):
                take[lab] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break
    test_idx, train_idx = [], []
    for lab in labels:
        members = list(groups[lab])
        rng.shuffle(members)
        test_idx.extend(members[: take[lab]])
        train_idx.extend(members[take[lab] :])
    return test_idx, train_idx


def stage2_train(
    train_records: list[LabeledRecord],
    num_clusters: int,
    encoder_widths: tuple[int, ...] = DEFAULT_ENCODER_WIDTHS,
    epochs: int = 1000,
    batch_size: int = 1024,
    seed: int = 7,
    lr: float = autonet.DEFAULT_LR,
) -> tuple[autonet.DenseNetwork, autonet.TrainHistory]:
    """Train the autoencoder to regress cluster ids from ⟨volatility, ret⟩.

    Targets are the raw integer labels as floats (the output layer is one
    unit wide); the latent width equals ``num_clusters``.
    """
    if not train_records:
        raise EmptyDataset("no training records")
    X = feature_matrix(train_records)
    y = np.array([[float(r.cluster)] for r in train_records], dtype=float)
    net = autonet.build_autoencoder(2, encoder_widths, num_clusters, 1, seed=seed)
    history = autonet.train(net, X, y, epochs=epochs, batch_size=batch_size, seed=seed, lr=lr)
    return net, history


def label_accuracy(predicted, reference) -> float:
    """Fraction of positions where the two label sequences agree.

    Invariant under any simultaneous relabeling applied to both sequences.
    """
    p = np.asarray(predicted)
    r = np.asarray(reference)
    if p.shape != r.shape:
        raise EmptyDataset(f"label shapes differ: {p.shape} vs {r.shape}")
    if p.size == 0:
        raise EmptyDataset("no labels to compare")
    return float(np.mean(p == r))


def evaluate(
    net: autonet.DenseNetwork,
    test_records: list[LabeledRecord],
    num_clusters: int,
) -> EvaluationReport:
    """Score network label predictions against the k-means reference labels."""
    if not test_records:
        raise EmptyDataset("no test records")
    raw, _ = autonet.forward(net, feature_matrix(test_records))
    raw = raw[:, 0]
    predicted = autonet.round_labels(raw, num_clusters)
    rows = tuple(
        EvalRow(
            ticker=rec.ticker,
            volatility=rec.volatility,
            ret=rec.ret,
            raw_output=float(raw[i]),
            predicted=int(predicted[i]),
            kmeans=rec.cluster,
            missed=int(predicted[i]) != rec.cluster,
        )
        for i, rec in enumerate(test_records)
    )
    accuracy = label_accuracy([row.predicted for row in rows], [row.kmeans for row in rows])
    return EvaluationReport(
        rows=rows,
        accuracy=accuracy,
        disagreements=tuple(row for row in rows if row.missed),
    )


def write_evaluation_csv(report: EvaluationReport, path) -> None:
    """Write per-record evaluation rows; ``missed`` is 0/1."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(EVAL_HEADER) + "\n")
        for row in report.rows:
            fh.write(
                f"{row.ticker},{row.volatility:.12g},{row.ret:.12g},"
                f"{row.raw_output:.16e},{row.predicted},{row.kmeans},{int(row.missed)}\n"
            )


def write_loss_csv(history: autonet.TrainHistory, path) -> None:
    """Write the per-epoch loss curve as ``epoch,loss`` (epochs 1-based)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(history.losses, start=1):
            fh.write(f"{epoch},{loss:.16e}\n")


def read_loss_csv(path) -> list[tuple[int, float]]:
    """Read an ``epoch,loss`` curve back; malformed lines raise FormatError."""
    return ingest.read_pairs_csv(path, "epoch,loss")


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed run configuration; defaults follow the canonical study setup."""

    prices_path: Path
    out_dir: Path = Path("out")
    tickers_path: Path | None = None
    start_date: dt.date | None = None
    k: int | str = AUTO
    k_min: int = 2
    k_max: int = 10
    seed: int = 7
    epochs: int = 1000
    batch_size: int = 1024
    test_fraction: float = 0.33
    trading_days: int = features.TRADING_DAYS

    def __post_init__(self):
        if self.k != AUTO:
            if not isinstance(self.k, int) or self.k < 1:
                raise BadConfig(f"k must be a positive integer or {AUTO!r}, got {self.k!r}")
        if not 2 <= self.k_min <= self.k_max:
            raise BadConfig(f"need 2 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.epochs < 1 or self.batch_size < 1:
            raise BadConfig("epochs and batch_size must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise BadConfig(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.trading_days < 1:
            raise BadConfig(f"trading_days must be >= 1, got {self.trading_days}")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed}")


def parse_config(path) -> PipelineConfig:
    """Parse a key-value config file (``key = value`` or ``key: value`` lines).

    Blank lines and ``#`` comments are ignored. Relative paths resolve
    against the config file's directory. The keys are the field names of
    PipelineConfig; unknown or duplicate keys are rejected.
    """
    path = Path(path)
    try:
        with reading_utf8(path):
            text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BadConfig(f"cannot read config {path}: {exc}") from exc
    base = path.resolve().parent
    known = {f.name for f in fields(PipelineConfig)}
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in stripped:
                key, value = stripped.split(sep, 1)
                break
        else:
            raise BadConfig(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise BadConfig(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise BadConfig(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise BadConfig(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    if "prices_path" not in raw:
        raise BadConfig("config is missing required key 'prices_path'")

    def _path(key: str) -> Path:
        p = Path(raw[key])
        return p if p.is_absolute() else base / p

    def _int(key: str) -> int:
        try:
            return int(raw[key])
        except ValueError as exc:
            raise BadConfig(f"{key} must be an integer, got {raw[key]!r}") from exc

    kwargs: dict = {"prices_path": _path("prices_path")}
    if "out_dir" in raw:
        kwargs["out_dir"] = _path("out_dir")
    if "tickers_path" in raw:
        kwargs["tickers_path"] = _path("tickers_path")
    if "start_date" in raw:
        try:
            kwargs["start_date"] = dt.date.fromisoformat(raw["start_date"])
        except ValueError as exc:
            raise BadConfig(f"start_date must be YYYY-MM-DD, got {raw['start_date']!r}") from exc
    if "k" in raw:
        kwargs["k"] = AUTO if raw["k"].lower() == AUTO else _int("k")
    for key in ("k_min", "k_max", "seed", "epochs", "batch_size", "trading_days"):
        if key in raw:
            kwargs[key] = _int(key)
    if "test_fraction" in raw:
        try:
            kwargs["test_fraction"] = float(raw["test_fraction"])
        except ValueError as exc:
            raise BadConfig(f"test_fraction must be a number, got {raw['test_fraction']!r}") from exc
    return PipelineConfig(**kwargs)


@dataclass
class PipelineResult:
    """Everything a run produced, with artifact paths keyed by file name."""

    config: PipelineConfig
    records: list[LabeledRecord]
    model: kmeans.KMeansModel
    sweep: list[tuple[int, float]] | None
    history: autonet.TrainHistory
    report: EvaluationReport
    warnings: list[str]
    artifacts: dict[str, Path]
    manifest_path: Path


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def scatter_charts(records, predicted, num_clusters: int) -> dict[str, str]:
    """The k-means and autoencoder scatter SVGs, keyed by file name.

    Records whose predicted label differs from their k-means label are
    marked as misses in both. The legend lists max(num_clusters, largest
    k-means label + 1) clusters.
    """
    legend_k = max(num_clusters, max(r.cluster for r in records) + 1)
    misses = [int(p) != r.cluster for p, r in zip(predicted, records)]
    charts = {}
    for name, title, labels in (
        (SCATTER_KMEANS_SVG, "KMeans clustering", [r.cluster for r in records]),
        (SCATTER_AUTONET_SVG, "Autoencoder clustering", predicted),
    ):
        charts[name] = svgplot.scatter_chart(
            [(r.volatility, r.ret, int(lab), m) for r, lab, m in zip(records, labels, misses)],
            title,
            "annualized volatility",
            "annualized return",
            legend_k,
        )
    return charts


def write_files(out_dir, writers) -> dict[str, Path]:
    """Create ``out_dir`` and write each file of ``writers``, in order.

    ``writers`` maps a file name to its text or to a callable that writes
    the file at the path it is given. Returns the paths by name. If any
    write fails, every file this call started is removed and the error
    propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    try:
        for name, write in writers.items():
            paths[name] = out / name
            if isinstance(write, str):
                paths[name].write_text(write, encoding="utf-8")
            else:
                write(paths[name])
    except Exception:
        for path in paths.values():
            path.unlink(missing_ok=True)
        raise
    return paths


def run_pipeline(config: PipelineConfig, stratify: bool = False) -> PipelineResult:
    """Execute Stage I and Stage II and emit the artifact bundle.

    All stages run before any file is written; a failure while writing
    removes whatever this run had already created. The manifest lists every
    artifact as ``<sha256>  <name>``, sorted by name. A fixed-k run removes
    a ``k_sweep.csv`` left in ``out_dir`` by an earlier auto-k run.
    """
    table, warnings = _stage(
        "ingest", load_table, config.prices_path, config.tickers_path, config.start_date
    )
    records, model, sweep = _stage(
        "label",
        stage1_label,
        table,
        k=config.k,
        seed=config.seed,
        trading_days=config.trading_days,
        k_min=config.k_min,
        k_max=config.k_max,
        warn_sink=warnings,
    )
    train_set, test_set = _stage(
        "split", split, records, SplitSpec(config.test_fraction, config.seed), stratify
    )
    net, history = _stage(
        "train",
        stage2_train,
        train_set,
        num_clusters=model.k,
        epochs=config.epochs,
        batch_size=config.batch_size,
        seed=config.seed,
    )
    report = _stage("evaluate", evaluate, net, test_set, model.k)

    def emit():
        predicted = autonet.predict_labels(net, feature_matrix(records), model.k)
        writers = {
            LABELS_CSV: functools.partial(features.write_labels_csv, records),
            MODEL_FILE: functools.partial(autonet.save_model, net),
        }
        if sweep is not None:
            writers[SWEEP_CSV] = functools.partial(kmeans.write_sweep_csv, sweep)
        writers[LOSS_CSV] = functools.partial(write_loss_csv, history)
        writers[EVAL_CSV] = functools.partial(write_evaluation_csv, report)
        writers.update(scatter_charts(records, predicted, model.k))
        artifacts = {name: config.out_dir / name for name in writers}
        writers[MANIFEST_FILE] = functools.partial(write_manifest, artifacts)
        manifest_path = write_files(config.out_dir, writers)[MANIFEST_FILE]
        if sweep is None:
            (config.out_dir / SWEEP_CSV).unlink(missing_ok=True)
        return artifacts, manifest_path

    artifacts, manifest_path = _stage("emit", emit)
    return PipelineResult(
        config=config,
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
    lines = []
    for name in sorted(artifacts):
        digest = hashlib.sha256(artifacts[name].read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
