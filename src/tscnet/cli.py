"""Command-line frontend: one verb per pipeline stage plus `run` and `report`.

Exit codes: 0 on success, 1 on data or runtime errors (message on stderr),
2 on usage errors (argparse). The default seed comes from the TSC_SEED
environment variable when set; --seed always wins over it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import autonet, features, kmeans, pipeline, svgplot
from .errors import TscnetError

K_SWEEP_SVG = "k_sweep.svg"
LOSS_SVG = "loss.svg"
SCATTER_POINTS_CSV = "scatter_points.csv"

DEFAULT_SEED = 7


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _k_value(text: str):
    if text.lower() == pipeline.AUTO:
        return pipeline.AUTO
    return _positive_int(text)


def _iso_date(text: str):
    import datetime as dt

    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM-DD, got {text!r}")


def _add_ingest_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prices", required=True, type=Path, help="prices CSV (ticker,date,adj_close)")
    sub.add_argument("--tickers", type=Path, help="optional ticker allowlist file")
    sub.add_argument("--start-date", type=_iso_date, help="drop rows before this date (YYYY-MM-DD)")
    sub.add_argument(
        "--trading-days",
        type=_positive_int,
        default=features.TRADING_DAYS,
        help="annualization factor (default %(default)s)",
    )


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, help="random seed (default: $TSC_SEED or 7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscnet",
        description="Two-stage time-series clustering: k-means labeling plus an autoencoder label predictor.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("label", help="compute features, fit k-means, write the labels CSV")
    _add_ingest_flags(p)
    p.add_argument("--k", type=_k_value, default=pipeline.AUTO, help="cluster count or 'auto' (default)")
    p.add_argument("--k-min", type=_positive_int, default=2, help="sweep lower bound for auto k")
    p.add_argument("--k-max", type=_positive_int, default=10, help="sweep upper bound for auto k")
    _add_seed_flag(p)
    p.add_argument(
        "--canonical-labels",
        action="store_true",
        help="renumber clusters by descending mean return",
    )
    p.add_argument("--out", required=True, type=Path, help="labels CSV to write")

    p = sub.add_parser("select-k", help="silhouette sweep over a k range")
    _add_ingest_flags(p)
    p.add_argument("--k-min", type=_positive_int, default=2, help="lowest k to try")
    p.add_argument("--k-max", type=_positive_int, default=10, help="highest k to try")
    _add_seed_flag(p)
    p.add_argument("--out", type=Path, help="optional k,silhouette CSV to write")

    p = sub.add_parser("train", help="train the autoencoder on a labels CSV")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV from the label step")
    p.add_argument("--k", type=_positive_int, help="cluster count (default: inferred from labels)")
    p.add_argument("--epochs", type=_positive_int, default=1000, help="training epochs (default %(default)s)")
    p.add_argument("--batch", type=_positive_int, default=1024, help="batch size (default %(default)s)")
    _add_seed_flag(p)
    p.add_argument("--out-dir", required=True, type=Path, help="directory for model.tscnet and loss.csv")

    p = sub.add_parser("predict", help="raw and rounded label predictions for labeled records")
    p.add_argument("--model", required=True, type=Path, help="model file from the train step")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV holding the input features")
    p.add_argument("--k", type=_positive_int, help="cluster count (default: the model's latent width)")
    p.add_argument("--out", type=Path, help="output CSV (default: print to stdout)")

    p = sub.add_parser("evaluate", help="score predictions against the k-means labels")
    p.add_argument("--model", required=True, type=Path, help="model file from the train step")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV with reference clusters")
    p.add_argument("--k", type=_positive_int, help="cluster count (default: the model's latent width)")
    p.add_argument("--out", type=Path, help="optional evaluation CSV to write")

    p = sub.add_parser("run", help="execute the full pipeline from a config file")
    p.add_argument("config", type=Path, help="key-value config file")
    p.add_argument("--stratify", action="store_true", help="stratify the train/test split by cluster")

    p = sub.add_parser("report", help="render SVG charts from a run's artifact directory")
    p.add_argument("--out-dir", required=True, type=Path, help="artifact directory from a run")

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    explicit = getattr(args, "seed", None)
    if explicit is not None:
        return explicit
    env = os.environ.get("TSC_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise TscnetError(f"TSC_SEED must be an integer, got {env!r}")


def _warn(messages) -> None:
    for msg in messages:
        print(f"warning: {msg}", file=sys.stderr)


def _records_from_csv(path) -> list[pipeline.LabeledRecord]:
    rows = features.read_labels_csv(path)
    return [pipeline.LabeledRecord(t, v, r, c) for t, v, r, c in rows]


def _infer_clusters(net: autonet.DenseNetwork, override: int | None) -> int:
    if override is not None:
        return override
    sigmoid_widths = [
        layer.spec.output_width for layer in net.layers if layer.spec.activation == "sigmoid"
    ]
    if len(sigmoid_widths) != 1:
        raise TscnetError("cannot infer the cluster count from this model; pass --k")
    return sigmoid_widths[0]


def _stage1(args: argparse.Namespace, k: int | str, canonical: bool = False):
    """Stage 1 on the prices named by the ingest flags: (records, model, sweep).

    Warnings from loading and from featurizing go to stderr as they arise.
    """
    seed = _resolve_seed(args)
    table, warns = pipeline.load_table(args.prices, args.tickers, args.start_date)
    _warn(warns)
    sink: list[str] = []
    result = pipeline.stage1_label(
        table,
        k=k,
        seed=seed,
        trading_days=args.trading_days,
        k_min=args.k_min,
        k_max=args.k_max,
        canonical=canonical,
        warn_sink=sink,
    )
    _warn(sink)
    return result


def _k_line(model: kmeans.KMeansModel) -> str:
    if model.silhouette is None:
        return f"k={model.k}"
    return f"k={model.k} silhouette={model.silhouette:.12g}"


def cmd_label(args: argparse.Namespace) -> int:
    records, model, _ = _stage1(args, args.k, args.canonical_labels)
    features.write_labels_csv(records, args.out)
    print(_k_line(model))
    return 0


def cmd_select_k(args: argparse.Namespace) -> int:
    _, best, sweep = _stage1(args, pipeline.AUTO)
    for k, score in sweep:
        print(f"k={k} silhouette={score:.12g}")
    print(f"best k={best.k}")
    if args.out is not None:
        kmeans.write_sweep_csv(sweep, args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    records = _records_from_csv(args.labels)
    num_clusters = args.k if args.k is not None else max(r.cluster for r in records) + 1
    if num_clusters < 2:
        raise TscnetError(f"need at least 2 clusters, got {num_clusters}")
    net, history = pipeline.stage2_train(
        records,
        num_clusters=num_clusters,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=seed,
    )
    paths = pipeline.write_files(
        args.out_dir,
        {
            pipeline.MODEL_FILE: functools.partial(autonet.save_model, net),
            pipeline.LOSS_CSV: functools.partial(pipeline.write_loss_csv, history),
        },
    )
    print(f"parameters={autonet.count_parameters(net)}")
    print(f"final_loss={history.final_loss():.12g}")
    print(f"model={paths[pipeline.MODEL_FILE]}")
    print(f"loss_csv={paths[pipeline.LOSS_CSV]}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    net = autonet.load_model(args.model)
    records = _records_from_csv(args.labels)
    report = pipeline.evaluate(net, records, _infer_clusters(net, args.k))
    lines = ["ticker,volatility,return,raw_output,predicted"]
    for row in report.rows:
        lines.append(
            f"{row.ticker},{row.volatility:.12g},{row.ret:.12g},{row.raw_output:.16e},{row.predicted}"
        )
    if args.out is None:
        for line in lines:
            print(line)
    else:
        args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"predictions={args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    net = autonet.load_model(args.model)
    records = _records_from_csv(args.labels)
    num_clusters = _infer_clusters(net, args.k)
    report = pipeline.evaluate(net, records, num_clusters)
    if args.out is not None:
        pipeline.write_evaluation_csv(report, args.out)
    print(f"accuracy={report.accuracy:.12g}")
    print(f"disagreements={len(report.disagreements)}")
    for row in report.disagreements:
        print(f"missed {row.ticker}: predicted={row.predicted} kmeans={row.kmeans}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = pipeline.parse_config(args.config)
    result = pipeline.run_pipeline(config, stratify=args.stratify)
    _warn(result.warnings)
    print(_k_line(result.model))
    print(f"train={len(result.records) - len(result.report.rows)} test={len(result.report.rows)}")
    print(f"final_loss={result.history.final_loss():.12g}")
    print(f"accuracy={result.report.accuracy:.12g}")
    for name in sorted(result.artifacts):
        print(f"artifact {name}")
    print(f"manifest={result.manifest_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out: Path = args.out_dir
    labels_path = out / pipeline.LABELS_CSV
    model_path = out / pipeline.MODEL_FILE
    loss_path = out / pipeline.LOSS_CSV
    for required in (labels_path, model_path, loss_path):
        if not required.exists():
            raise TscnetError(f"missing artifact: {required}")

    records = _records_from_csv(labels_path)
    net = autonet.load_model(model_path)
    num_clusters = _infer_clusters(net, None)
    losses = pipeline.read_loss_csv(loss_path)
    sweep_path = out / pipeline.SWEEP_CSV
    sweep = kmeans.read_sweep_csv(sweep_path) if sweep_path.exists() else None
    predicted = autonet.predict_labels(net, pipeline.feature_matrix(records), num_clusters)

    texts: dict[str, str] = {}
    if sweep is not None:
        texts[K_SWEEP_SVG] = svgplot.line_chart(
            [k for k, _ in sweep],
            [s for _, s in sweep],
            "Silhouette by cluster count",
            "k",
            "mean silhouette",
        )
    texts[LOSS_SVG] = svgplot.line_chart(
        [e for e, _ in losses],
        [v for _, v in losses],
        "Training loss",
        "epoch",
        "MSE",
    )
    texts.update(pipeline.scatter_charts(records, predicted, num_clusters))
    point_lines = ["ticker,volatility,return,kmeans,predicted,missed"]
    for rec, p in zip(records, predicted):
        point_lines.append(
            f"{rec.ticker},{rec.volatility:.12g},{rec.ret:.12g},{rec.cluster},{p},{int(p != rec.cluster)}"
        )
    texts[SCATTER_POINTS_CSV] = "\n".join(point_lines) + "\n"

    paths = pipeline.write_files(out, texts)
    if sweep is None:
        (out / K_SWEEP_SVG).unlink(missing_ok=True)
    for path in paths.values():
        print(f"wrote {path}")
    return 0


_DISPATCH = {
    "label": cmd_label,
    "select-k": cmd_select_k,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.verb](args)
    except (TscnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
