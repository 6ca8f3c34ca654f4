"""Command-line frontend: one verb per pipeline stage plus `run` and `report`.

Exit codes: 0 on success, 1 on data or runtime errors (message on stderr),
2 on usage errors (argparse). A closed stdout also exits 1, but silently:
the reader has gone, so there is no one to report to. The warnings of
ingest go to stderr before the error line when no ticker of a prices file
is usable or when a later stage of `run` fails.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import autonet, features, kmeans, pipeline, svgplot
from .errors import TscnetError

K_SWEEP_SVG = "k_sweep.svg"
LOSS_SVG = "loss.svg"
SCATTER_POINTS_CSV = "scatter_points.csv"
POINTS_HEADER = ("ticker", "volatility", "return", "kmeans", "predicted", "missed")

DEFAULT_SEED = 7


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _seed(text: str) -> int:
    # the config's seed rule, so no verb takes a seed that `run` refuses
    return _int_at_least(text, 0, "non-negative")


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
    sub.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="random seed >= 0 (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscnet",
        description="Two-stage time-series clustering: k-means labeling plus an autoencoder label predictor.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("label", help="compute features, fit k-means, write return-ordered labels")
    _add_ingest_flags(p)
    p.add_argument("--k", type=_k_value, default=pipeline.AUTO, help="cluster count or 'auto' (default)")
    p.add_argument("--k-min", type=_positive_int, default=2, help="sweep lower bound for auto k")
    p.add_argument("--k-max", type=_positive_int, default=10, help="sweep upper bound for auto k")
    _add_seed_flag(p)
    p.add_argument("--out", required=True, type=Path, help="labels CSV to write")

    p = sub.add_parser("select-k", help="silhouette sweep over a k range")
    _add_ingest_flags(p)
    p.add_argument("--k-min", type=_positive_int, default=2, help="lowest k to try")
    p.add_argument("--k-max", type=_positive_int, default=10, help="highest k to try")
    _add_seed_flag(p)
    p.add_argument("--out", type=Path, help="optional k,silhouette CSV to write")

    p = sub.add_parser("train", help="train the autoencoder on a labels CSV")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV from the label step")
    p.add_argument("--epochs", type=_positive_int, default=1000, help="training epochs (default %(default)s)")
    p.add_argument("--batch", type=_positive_int, default=1024, help="batch size (default %(default)s)")
    _add_seed_flag(p)
    p.add_argument("--out-dir", required=True, type=Path, help="directory for model.tscnet and loss.csv")

    p = sub.add_parser("evaluate", help="score predictions against the k-means labels")
    p.add_argument("--model", required=True, type=Path, help="model file from the train step")
    p.add_argument("--labels", required=True, type=Path, help="labels CSV with reference clusters")
    p.add_argument("--out", type=Path, help="optional evaluation CSV to write")

    p = sub.add_parser("run", help="execute the full pipeline from a config file")
    p.add_argument("config", type=Path, help="key-value config file")

    p = sub.add_parser("report", help="render SVG charts from a run's artifact directory")
    p.add_argument("--out-dir", required=True, type=Path, help="artifact directory from a run")

    return parser


def _warn(messages) -> None:
    for msg in messages:
        print(f"warning: {msg}", file=sys.stderr)


def _load_model(path: Path) -> tuple[autonet.DenseNetwork, int]:
    """The model at ``path`` and its cluster count: the width of its one
    sigmoid (latent) layer. It must map the 2 features to 1 output."""
    net = autonet.load_model(path)
    ends = (net.input_width, net.specs[-1].output_width)
    if ends != (2, 1):
        raise TscnetError(f"{path}: expected a network from 2 features to 1 output, got {ends[0]} -> {ends[1]}")
    widths = [spec.output_width for spec in net.specs if spec.activation == "sigmoid"]
    if len(widths) != 1:
        raise TscnetError(f"{path}: cannot infer the cluster count from {len(widths)} sigmoid layers")
    if widths[0] < 2:
        raise TscnetError(f"{path}: a sigmoid layer of width {widths[0]} gives fewer than 2 clusters")
    return net, widths[0]


def _stage1(args: argparse.Namespace, k: int | str):
    """Stage 1 on the prices named by the ingest flags: (records, model, sweep).

    Warnings from loading go to stderr before Stage 1 runs.
    """
    closes, warns = pipeline.load_table(args.prices, args.tickers, args.start_date)
    _warn(warns)
    return pipeline.stage1_label(
        closes,
        k=k,
        seed=args.seed,
        trading_days=args.trading_days,
        k_min=args.k_min,
        k_max=args.k_max,
    )


def _k_line(model: kmeans.KMeansModel) -> str:
    return f"k={model.k} silhouette={model.silhouette:.12g}"


def cmd_label(args: argparse.Namespace) -> int:
    records, model, _ = _stage1(args, args.k)
    pipeline.write_files(args.out.parent, {args.out.name: pipeline.labels_csv(records)})
    print(_k_line(model))
    return 0


def cmd_select_k(args: argparse.Namespace) -> int:
    _, best, sweep = _stage1(args, pipeline.AUTO)
    for k, score in sweep:
        print(f"k={k} silhouette={score:.12g}")
    print(f"best k={best.k}")
    if args.out is not None:
        pipeline.write_files(args.out.parent, {args.out.name: pipeline.sweep_csv(sweep)})
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    records = pipeline.read_labels_csv(args.labels)
    num_clusters = int(records.clusters.max()) + 1
    if num_clusters < 2:
        raise TscnetError(f"need at least 2 clusters, got {num_clusters}")
    net, history = pipeline.stage2_train(
        records,
        num_clusters=num_clusters,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
    )
    paths = pipeline.write_files(
        args.out_dir,
        {
            pipeline.MODEL_FILE: lambda path: autonet.save_model(net, path),
            pipeline.LOSS_CSV: pipeline.loss_csv(history),
        },
    )
    print(f"parameters={autonet.count_parameters(net)}")
    print(f"final_loss={history.final_loss():.12g}")
    print(f"model={paths[pipeline.MODEL_FILE]}")
    print(f"loss_csv={paths[pipeline.LOSS_CSV]}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    net, num_clusters = _load_model(args.model)
    records = pipeline.read_labels_csv(args.labels)
    report = pipeline.evaluate(net, records, num_clusters)
    if args.out is not None:
        pipeline.write_files(args.out.parent, {args.out.name: pipeline.evaluation_csv(report)})
    missed = [
        (t, p, c) for (t, _, _, c), p in zip(records.rows(), report.predicted.tolist()) if p != c
    ]
    print(f"accuracy={report.accuracy:.12g}")
    print(f"disagreements={len(missed)}")
    for ticker, p, c in missed:
        print(f"missed {ticker}: predicted={p} kmeans={c}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = pipeline.parse_config(args.config)
    result = pipeline.run_pipeline(config)
    _warn(result.warnings)
    print(_k_line(result.model))
    test = len(result.report.records)
    print(f"train={len(result.records) - test} test={test}")
    print(f"final_loss={result.history.final_loss():.12g}")
    print(f"accuracy={result.report.accuracy:.12g}")
    for name in sorted(result.artifacts):
        print(f"artifact {name}")
    print(f"manifest={result.manifest_path}")
    return 0


@contextlib.contextmanager
def _charting(source: Path):
    """Re-raise a TscnetError from the block naming the file its values came from."""
    try:
        yield
    except TscnetError as exc:
        raise TscnetError(f"{source}: {exc}") from None


def cmd_report(args: argparse.Namespace) -> int:
    out: Path = args.out_dir
    labels_path = out / pipeline.LABELS_CSV
    model_path = out / pipeline.MODEL_FILE
    loss_path = out / pipeline.LOSS_CSV
    for required in (labels_path, model_path, loss_path):
        if not required.exists():
            raise TscnetError(f"missing artifact: {required}")

    records = pipeline.read_labels_csv(labels_path)
    net, num_clusters = _load_model(model_path)
    losses = pipeline.read_csv(loss_path, pipeline.LOSS_COLUMNS)
    sweep_path = out / pipeline.SWEEP_CSV
    sweep = pipeline.read_csv(sweep_path, pipeline.SWEEP_COLUMNS) if sweep_path.exists() else None
    predicted = autonet.predict_labels(net, records.features, num_clusters)[1].tolist()

    texts: dict[str, str] = {}
    with _charting(sweep_path):
        if sweep is not None:
            texts[K_SWEEP_SVG] = svgplot.line_chart(
                [k for k, _ in sweep],
                [s for _, s in sweep],
                "Silhouette by cluster count",
                "k",
                "mean silhouette",
            )
    with _charting(loss_path):
        texts[LOSS_SVG] = svgplot.line_chart(
            [e for e, _ in losses],
            [v for _, v in losses],
            "Training loss",
            "epoch",
            "MSE",
        )
    with _charting(labels_path):
        texts.update(pipeline.scatter_charts(records, predicted, num_clusters))
    texts[SCATTER_POINTS_CSV] = pipeline.csv_text(POINTS_HEADER, (
        f"{t},{v:.12g},{r:.12g},{c},{p},{int(p != c)}" for (t, v, r, c), p in zip(records.rows(), predicted)
    ))

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
    "evaluate": cmd_evaluate,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _DISPATCH[args.verb](args)
        # a closed stdout must fail here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's exit-time flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (TscnetError, OSError) as exc:
        # NoData says why each ticker was dropped; a PipelineError carries the
        # ingest warnings of `run`
        _warn(getattr(exc, "warnings", ()))
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
