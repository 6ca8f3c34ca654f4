"""Two-stage time-series clustering.

Stage I derives annualized ⟨volatility, return⟩ features from daily closing
prices and labels them with k-means (silhouette-selected k). Stage II trains
a from-scratch dense autoencoder to predict those cluster labels and scores
it on held-out records.

Importing the package loads no stage: each name in ``__all__``, and each
submodule (``tscnet.ingest``, ``tscnet.pipeline``, ...), is imported on first
access (PEP 562). So ``python -m tscnet --help`` starts without NumPy.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    "DenseNetwork": "autonet",
    "EvaluationReport": "pipeline",
    "KMeansModel": "kmeans",
    "PipelineConfig": "pipeline",
    "Records": "pipeline",
    "TrainHistory": "autonet",
    "TscnetError": "errors",
    "build_autoencoder": "autonet",
    "build_feature_table": "features",
    "count_parameters": "autonet",
    "evaluate": "pipeline",
    "forward": "autonet",
    "kmeans_fit": "kmeans",
    "load_model": "autonet",
    "load_price_table": "ingest",
    "mse_loss": "autonet",
    "parse_config": "pipeline",
    "predict_labels": "autonet",
    "run_pipeline": "pipeline",
    "save_model": "autonet",
    "select_k": "kmeans",
    "silhouette": "kmeans",
    "split": "pipeline",
    "stage1_label": "pipeline",
    "stage2_train": "pipeline",
    "train": "autonet",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
        globals()[name] = value
        return value
    # a submodule; the import binds it on the package, so this runs once per name.
    # Underscore names are never tried: importing __main__ would run the CLI.
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    import pkgutil

    submodules = {info.name for info in pkgutil.iter_modules(__path__) if not info.name.startswith("_")}
    return sorted(set(globals()) | set(__all__) | submodules)
