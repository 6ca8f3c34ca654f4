"""Dense feed-forward autoencoder written from scratch on NumPy arrays.

Everything that matters numerically is hand-authored here: forward pass,
mean-squared-error loss, backpropagation, the Adam update, and the training
loop. The only library facility used is array arithmetic.

Architecture produced by :func:`build_autoencoder`: an encoder of relu
layers, a sigmoid latent layer whose width equals the number of clusters,
the mirrored decoder in relu, and a final linear layer. Weight matrices are
stored as (output_width, input_width); a layer computes ``a = act(x @ W.T + b)``.

During :func:`train` every weight and bias lives in one contiguous float64
vector: ``train`` copies them into it and rebinds each layer's ``weights``
and ``biases`` to reshaped views of that vector, so one Adam update over the
vector updates the whole network.

Initialization is uniform on +/-sqrt(6 / (fan_in + fan_out)) with zero
biases, drawn row-major from the package's deterministic generator, so a
fixed seed yields bitwise-identical networks everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadWidth,
    EmptyDataset,
    ModelFormatError,
    NonFiniteInput,
    ShapeMismatch,
    TscnetError,
    reading_utf8,
)
from .rng import Xorshift64Star

ACTIVATIONS = ("relu", "sigmoid", "linear")

DEFAULT_LR = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

MODEL_HEADER = "tscnet v1"


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer."""

    input_width: int
    output_width: int
    activation: str

    def __post_init__(self):
        if self.input_width < 1 or self.output_width < 1:
            raise BadWidth(f"layer widths must be >= 1, got {self.input_width}->{self.output_width}")
        if self.activation not in ACTIVATIONS:
            raise BadWidth(f"unknown activation {self.activation!r}")


class DenseLayer:
    """One dense layer: weights (output_width, input_width), bias (output_width,)."""

    def __init__(self, spec: LayerSpec, weights: np.ndarray, biases: np.ndarray):
        if weights.shape != (spec.output_width, spec.input_width):
            raise ShapeMismatch(f"weights {weights.shape} do not fit spec {spec}")
        if biases.shape != (spec.output_width,):
            raise ShapeMismatch(f"biases {biases.shape} do not fit spec {spec}")
        self.spec = spec
        self.weights = weights
        self.biases = biases


class DenseNetwork:
    """An ordered stack of dense layers with chained widths.

    ``seed`` records the initialization seed; it is None for networks
    reloaded from disk (the stored weights carry all the information).
    """

    def __init__(self, layers: list[DenseLayer], seed: int | None = None):
        if not layers:
            raise BadWidth("a network needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if prev.spec.output_width != cur.spec.input_width:
                raise BadWidth(
                    f"width chain broken: {prev.spec.output_width} -> {cur.spec.input_width}"
                )
        self.layers = layers
        self.seed = seed

    @property
    def input_width(self) -> int:
        return self.layers[0].spec.input_width


def _glorot_layer(spec: LayerSpec, rng: Xorshift64Star) -> DenseLayer:
    limit = math.sqrt(6.0 / (spec.input_width + spec.output_width))
    flat = [rng.uniform(-limit, limit) for _ in range(spec.output_width * spec.input_width)]
    weights = np.array(flat, dtype=float).reshape(spec.output_width, spec.input_width)
    biases = np.zeros(spec.output_width, dtype=float)
    return DenseLayer(spec, weights, biases)


def build_network(specs: list[LayerSpec], seed: int) -> DenseNetwork:
    """Initialize an arbitrary stack of layers from one seeded stream."""
    rng = Xorshift64Star(seed)
    return DenseNetwork([_glorot_layer(spec, rng) for spec in specs], seed=seed)


def build_autoencoder(
    input_width: int = 2,
    encoder_widths: list[int] | tuple[int, ...] = (100, 50, 20),
    latent_width: int = 4,
    output_width: int = 1,
    seed: int = 7,
) -> DenseNetwork:
    """Encoder (relu), sigmoid latent, mirrored relu decoder, linear head.

    The latent width doubles as the number of clusters the network is asked
    to discriminate; its sigmoid keeps latent activations inside (0, 1).
    """
    if input_width < 1 or latent_width < 1 or output_width < 1 or any(w < 1 for w in encoder_widths):
        raise BadWidth("all widths must be >= 1")
    specs = []
    prev = input_width
    for w in encoder_widths:
        specs.append(LayerSpec(prev, w, "relu"))
        prev = w
    specs.append(LayerSpec(prev, latent_width, "sigmoid"))
    prev = latent_width
    for w in reversed(list(encoder_widths)):
        specs.append(LayerSpec(prev, w, "relu"))
        prev = w
    specs.append(LayerSpec(prev, output_width, "linear"))
    return build_network(specs, seed)


def parameter_counts(net: DenseNetwork) -> list[int]:
    """Trainable-parameter count per layer (weights plus biases)."""
    return [
        layer.spec.input_width * layer.spec.output_width + layer.spec.output_width
        for layer in net.layers
    ]


def count_parameters(net: DenseNetwork) -> int:
    """Total trainable parameters across the network."""
    return sum(parameter_counts(net))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # split by sign so exp never overflows
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return _sigmoid(z)
    return z


def _activation_backward(name: str, delta: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-activation ``z``, given ``delta`` w.r.t. the output ``a``."""
    if name == "relu":
        grad = (z > 0.0).astype(float)
        grad *= delta
        return grad
    if name == "sigmoid":
        return delta * (a * (1.0 - a))
    return delta


@dataclass
class ForwardCache:
    """Pre- and post-activation values captured for backpropagation."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)


def forward(net: DenseNetwork, batch) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch through the network; returns (outputs, cache).

    ``batch`` is (n, input_width); outputs are (n, output_width). Weights
    large enough to overflow give NaN or infinite outputs without a NumPy
    warning; :func:`round_labels` and the training loss check reject them.
    """
    X = np.asarray(batch, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != net.input_width:
        raise ShapeMismatch(f"batch shape {X.shape} does not match input width {net.input_width}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("batch contains NaN or infinity")
    cache = ForwardCache(inputs=X)
    a = X
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in net.layers:
            z = a @ layer.weights.T
            z += layer.biases
            a = _activate(layer.spec.activation, z)
            cache.pre_activations.append(z)
            cache.activations.append(a)
    return a, cache


def mse_loss(pred, target) -> float:
    """Mean over all entries of the squared error."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ShapeMismatch(f"pred {p.shape} vs target {t.shape}")
    diff = p - t
    return float(np.mean(diff * diff))


def backward(net: DenseNetwork, cache: ForwardCache, target) -> list[tuple[np.ndarray, np.ndarray]]:
    """Analytic gradients of mse_loss w.r.t. every weight and bias.

    Returns one (weight_grad, bias_grad) pair per layer, in layer order.
    """
    t = np.asarray(target, dtype=float)
    pred = cache.activations[-1]
    if t.shape != pred.shape:
        raise ShapeMismatch(f"target {t.shape} vs output {pred.shape}")
    # d(mean squared error)/d(pred): mean runs over every entry
    delta = 2.0 * (pred - t) / pred.size
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        z = cache.pre_activations[idx]
        a = cache.activations[idx]
        a_prev = cache.activations[idx - 1] if idx > 0 else cache.inputs
        dz = _activation_backward(layer.spec.activation, delta, z, a)
        grads.append((dz.T @ a_prev, dz.sum(axis=0)))
        if idx > 0:
            delta = dz @ layer.weights
    grads.reverse()
    return grads


class AdamState:
    """First/second-moment accumulators plus the step counter for Adam."""

    def __init__(self, params: list[np.ndarray], lr: float = DEFAULT_LR):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.lr = lr


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied to params in place.

    param <- param - lr * m_hat / (sqrt(v_hat) + eps).
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params, grads, and state must have the same length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param {p.shape} vs grad {g.shape}")
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    return params, state


@dataclass(frozen=True)
class TrainHistory:
    """Epoch-end full-dataset MSE values, one per epoch run."""

    losses: tuple[float, ...]
    epochs: int
    batch_size: int
    seed: int

    def final_loss(self) -> float:
        return self.losses[-1]


def _bind_flat(net: DenseNetwork) -> np.ndarray:
    """Copy every weight and bias into one vector; rebind the layers to views of it.

    Layer order, weights before biases, each array row-major: the order in
    which :func:`train` concatenates the gradients of :func:`backward`.
    """
    theta = np.concatenate(
        [arr.ravel() for layer in net.layers for arr in (layer.weights, layer.biases)], dtype=float
    )
    pos = 0
    for layer in net.layers:
        for attr in ("weights", "biases"):
            arr = getattr(layer, attr)
            setattr(layer, attr, theta[pos : pos + arr.size].reshape(arr.shape))
            pos += arr.size
    return theta


def train(
    net: DenseNetwork,
    X,
    y,
    epochs: int = 1000,
    batch_size: int = 1024,
    seed: int = 7,
    lr: float = DEFAULT_LR,
) -> TrainHistory:
    """Minibatch Adam training; mutates ``net`` and returns the loss history.

    With batch_size >= n the whole dataset forms one batch and the sample
    order is never touched; with smaller batches the row order is reshuffled
    each epoch from a stream seeded once at the start. Either way a fixed
    (seed, data, hyperparameters) tuple reproduces weights bitwise. Non-finite
    targets raise NonFiniteInput up front; a non-finite epoch-end loss stops
    training with a TscnetError naming the epoch.

    The parameters are trained as one vector: each layer's ``weights`` and
    ``biases`` are rebound to views of it, so arrays taken from the layers
    before the call are no longer updated. With one full batch, each
    epoch-end forward pass, which gives the epoch's loss, is also the next
    epoch's training forward, so an epoch costs one forward and one backward.
    """
    Xa = np.asarray(X, dtype=float)
    ya = np.asarray(y, dtype=float)
    if Xa.ndim == 1:
        Xa = Xa.reshape(-1, 1)
    if ya.ndim == 1:
        ya = ya.reshape(-1, 1)
    if len(Xa) == 0:
        raise EmptyDataset("no training samples")
    if len(Xa) != len(ya):
        raise ShapeMismatch(f"{len(Xa)} inputs vs {len(ya)} targets")
    if not np.all(np.isfinite(ya)):
        raise NonFiniteInput("targets contain NaN or infinity")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")

    n = len(Xa)
    theta = _bind_flat(net)
    state = AdamState([theta], lr=lr)
    rng = Xorshift64Star(seed)
    single_batch = batch_size >= n

    def step(cache: ForwardCache, target: np.ndarray) -> None:
        grads = backward(net, cache, target)
        adam_step([theta], [np.concatenate([g.ravel() for pair in grads for g in pair])], state)

    losses = []
    # a diverging run overflows before the epoch-end check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        cache = forward(net, Xa)[1] if single_batch else None
        for epoch in range(1, epochs + 1):
            if single_batch:
                step(cache, ya)
            else:
                idx = list(range(n))
                rng.shuffle(idx)
                order = np.array(idx)
                for start in range(0, n, batch_size):
                    rows = order[start : start + batch_size]
                    step(forward(net, Xa[rows])[1], ya[rows])
            # the old cache is freed only once the new one exists; freeing it
            # first lets malloc hand its pages back and fault them in again
            # every epoch, which cost more than the forward this loop saves
            out, cache = forward(net, Xa)
            losses.append(mse_loss(out, ya))
            if not math.isfinite(losses[-1]):
                raise TscnetError(f"training diverged: loss {losses[-1]} at epoch {epoch}")
    return TrainHistory(losses=tuple(losses), epochs=epochs, batch_size=batch_size, seed=seed)


def round_labels(raw, num_clusters: int) -> np.ndarray:
    """Map raw network outputs to labels: |round half to even|, clamp to [0, C-1].

    The absolute value folds the symmetric output range back onto valid
    labels; the clamp covers outputs past either end. NaN or infinite
    outputs raise NonFiniteInput.
    """
    if num_clusters < 2:
        raise ValueError(f"num_clusters must be >= 2, got {num_clusters}")
    if not np.all(np.isfinite(raw)):
        raise NonFiniteInput("raw network outputs contain NaN or infinity")
    rounded = np.abs(np.rint(np.asarray(raw, dtype=float)))
    return np.clip(rounded, 0, num_clusters - 1).astype(int)


def predict_labels(net: DenseNetwork, X, num_clusters: int) -> np.ndarray:
    """Integer labels for a batch, via :func:`round_labels` on the raw outputs."""
    out, _ = forward(net, X)
    if out.shape[1] != 1:
        raise ShapeMismatch(f"label prediction expects a 1-wide output, got {out.shape[1]}")
    return round_labels(out[:, 0], num_clusters)


def save_model(net: DenseNetwork, path) -> None:
    """Write the versioned text model format (weights at 17 significant digits)."""
    lines = [MODEL_HEADER, f"layers {len(net.layers)}"]
    for layer in net.layers:
        spec = layer.spec
        lines.append(f"layer {spec.input_width} {spec.output_width} {spec.activation}")
        for row in layer.weights:
            lines.append(" ".join(f"{w:.16e}" for w in row))
        lines.append(" ".join(f"{b:.16e}" for b in layer.biases))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(line: str, count: int, what: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != count:
        raise ModelFormatError(f"expected {count} values for {what}, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts], dtype=float)
    except ValueError as exc:
        raise ModelFormatError(f"bad float in {what}: {exc}") from exc


def load_model(path) -> DenseNetwork:
    """Read a model saved by :func:`save_model`; predictions round-trip bitwise."""
    with open(path, "r", encoding="utf-8") as fh, reading_utf8(path):
        lines = [line.rstrip("\n") for line in fh]
    lines = [line for line in lines if line.strip() != ""]
    if not lines or lines[0].strip() != MODEL_HEADER:
        raise ModelFormatError(f"missing '{MODEL_HEADER}' header")
    if len(lines) < 2 or not lines[1].startswith("layers "):
        raise ModelFormatError("missing layer count line")
    try:
        n_layers = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise ModelFormatError("unreadable layer count") from exc
    if n_layers < 1:
        raise ModelFormatError("layer count must be >= 1")

    pos = 2
    layers = []
    for li in range(n_layers):
        if pos >= len(lines) or not lines[pos].startswith("layer "):
            raise ModelFormatError(f"missing 'layer' line for layer {li}")
        parts = lines[pos].split()
        if len(parts) != 4:
            raise ModelFormatError(f"malformed layer line: {lines[pos]!r}")
        try:
            width_in, width_out = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ModelFormatError(f"bad widths in {lines[pos]!r}") from exc
        activation = parts[3]
        try:
            spec = LayerSpec(width_in, width_out, activation)
        except BadWidth as exc:
            raise ModelFormatError(str(exc)) from exc
        pos += 1
        if pos + width_out + 1 > len(lines):
            raise ModelFormatError(f"truncated weights for layer {li}")
        rows = [_parse_floats(lines[pos + r], width_in, f"layer {li} row {r}") for r in range(width_out)]
        pos += width_out
        biases = _parse_floats(lines[pos], width_out, f"layer {li} biases")
        pos += 1
        layers.append(DenseLayer(spec, np.vstack(rows).reshape(width_out, width_in), biases))
    if pos != len(lines):
        raise ModelFormatError(f"{len(lines) - pos} trailing lines after the last layer")
    return DenseNetwork(layers, seed=None)
