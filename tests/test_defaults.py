"""Each setting's range rule is stated once, in `defaults.check_settings`.

A config and every library call that takes a setting refuse the same values
with the same message, and no other module raises a rule's message itself.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import tscnet
from tscnet import autonet, defaults, features, kmeans, pipeline
from tscnet.errors import TscnetError

SOURCE = Path(tscnet.__file__).resolve().parent

POINTS = np.random.default_rng(0).normal(size=(12, 2))
TICKERS = tuple(f"T{i:02d}" for i in range(len(POINTS)))


def _train(**settings):
    net = autonet.build_autoencoder(2, (4,), 2, 1, seed=7)
    autonet.train(net, [[0.2, 0.1], [0.3, 0.5]], [0.0, 1.0], **settings)


def _split(test_fraction=defaults.TEST_FRACTION, seed=defaults.SEED):
    pipeline.split(pipeline.Records(TICKERS[:4], POINTS[:4], np.arange(4)), test_fraction, seed)


# each library call that checks settings, with the settings it takes
USERS = [
    ({"trading_days"}, lambda **s: features.build_feature_table({}, **s)),
    ({"epochs", "batch_size", "seed"}, _train),
    ({"test_fraction", "seed"}, _split),
    ({"k", "k_min", "k_max", "seed"}, lambda **s: pipeline.stage1_label(TICKERS, POINTS, **s)),
    ({"seed"}, lambda **s: kmeans.kmeans_fit(POINTS, 2, **s)),
    ({"seed"}, lambda **s: kmeans.select_k(POINTS, **s)),
    ({"seed"}, lambda **s: autonet.build_autoencoder(2, (4,), 2, 1, **s)),
    ({"seed"}, lambda **s: autonet.build_network([autonet.LayerSpec(2, 1, "linear")], **s)),
]

BOUNDARIES = [
    dict(trading_days=0),
    dict(trading_days=10**400),
    dict(epochs=0),
    dict(batch_size=0),
    dict(test_fraction=0.0),
    dict(test_fraction=1.0),
    dict(test_fraction=math.nan),
    dict(seed=-1),
    dict(k=1),
    dict(k_min=9, k_max=3),
]
CONTROLS = [
    dict(trading_days=defaults.TRADING_DAYS),
    dict(epochs=defaults.EPOCHS),
    dict(batch_size=defaults.BATCH_SIZE),
    dict(test_fraction=defaults.TEST_FRACTION),
    dict(seed=defaults.SEED),
    dict(k=defaults.AUTO),
    dict(k_min=defaults.K_MIN, k_max=defaults.K_MAX),
]


def refusal(call, **settings):
    """The message of the TscnetError ``call(**settings)`` raises, or None."""
    try:
        call(**settings)
    except TscnetError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("settings", BOUNDARIES + CONTROLS, ids=lambda s: ",".join(f"{k}={v}"[:24] for k, v in s.items()))
def test_config_and_library_refuse_alike(settings, tmp_path):
    expected = refusal(pipeline.PipelineConfig, prices_path=tmp_path / "p.csv", **settings)
    assert (expected is None) == (settings in CONTROLS)
    users = [call for names, call in USERS if set(settings) <= names]
    assert users
    for call in users:
        assert refusal(call, **settings) == expected


def _message_texts(node):
    """Every literal text of the messages the raises under ``node`` build."""
    for raised in ast.walk(node):
        if isinstance(raised, ast.Raise) and raised.exc is not None:
            for part in ast.walk(raised.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


def _rules():
    """The leading literal text of each message that check_settings raises."""
    tree = ast.parse((SOURCE / "defaults.py").read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "check_settings"]
    leads = []
    for raised in ast.walk(fn):
        if isinstance(raised, ast.Raise):
            message = raised.exc.args[0]
            lead = message.values[0] if isinstance(message, ast.JoinedStr) else message
            leads.append(lead.value)
    return leads


def test_no_module_restates_a_rule():
    rules = _rules()
    assert "trading_days is too large to convert to a float" in rules
    restated = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "defaults.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        restated += [(path.name, text) for text in _message_texts(tree) if any(rule in text for rule in rules)]
    assert restated == []
