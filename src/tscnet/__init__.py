"""Two-stage time-series clustering.

Stage I derives annualized ⟨volatility, return⟩ features from daily closing
prices and labels them with k-means (silhouette-selected k). Stage II trains
a from-scratch dense autoencoder to predict those cluster labels and scores
it on held-out records.
"""

from .autonet import (
    DenseNetwork,
    TrainHistory,
    build_autoencoder,
    count_parameters,
    forward,
    load_model,
    mse_loss,
    predict_labels,
    save_model,
    train,
)
from .errors import TscnetError
from .features import build_feature_table
from .ingest import load_price_table
from .kmeans import KMeansModel, kmeans_fit, select_k, silhouette
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    Records,
    evaluate,
    parse_config,
    run_pipeline,
    split,
    stage1_label,
    stage2_train,
)

__version__ = "0.1.0"

__all__ = [
    "DenseNetwork",
    "EvaluationReport",
    "KMeansModel",
    "PipelineConfig",
    "Records",
    "TrainHistory",
    "TscnetError",
    "build_autoencoder",
    "build_feature_table",
    "count_parameters",
    "evaluate",
    "forward",
    "kmeans_fit",
    "load_model",
    "load_price_table",
    "mse_loss",
    "parse_config",
    "predict_labels",
    "run_pipeline",
    "save_model",
    "select_k",
    "silhouette",
    "split",
    "stage1_label",
    "stage2_train",
    "train",
    "__version__",
]
