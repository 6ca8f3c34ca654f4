"""Dense feed-forward autoencoder written from scratch on NumPy arrays.

Everything that matters numerically is hand-authored here: forward pass,
mean-squared-error loss, backpropagation, the Adam update, and the training
loop. The only library facility used is array arithmetic.

Architecture produced by :func:`build_autoencoder`: an encoder of relu
layers, a sigmoid latent layer whose width equals the number of clusters,
the mirrored decoder in relu, and a final linear layer. Weight matrices are
stored as (output_width, input_width); a layer computes ``a = act(x @ W.T + b)``.

A network is its layer specs plus one parameter vector:
``DenseNetwork(specs, theta)``, where ``theta`` holds every layer's weights
then biases, in layer order, each array row-major. ``net.layers`` gives
each spec with its ``weights`` and ``biases`` as views of ``theta``, so
:func:`backward` returns one gradient vector in the same layout and one
Adam update over ``theta`` updates the whole network. :func:`forward`
given a :class:`Workspace` is a training pass: it writes every activation
into the workspace and returns ``[X, a1, ..., aL]`` for :func:`backward`.
Given none it is a prediction pass, which keeps only the outputs.

Precision is a property of ``theta``: a network computes in float32 when
``theta`` is float32 and in float64 otherwise, and its workspace and Adam
state follow. Every network a caller builds or loads is float64, so every
prediction pass is float64. Only :func:`train` works in ``TRAIN_DTYPE``
(float32), on a copy of the network that it writes back when it ends;
float32 halves the bytes of every matmul and Adam vector, and the trained
parameters are then float32 values held exactly in float64.

Initialization is uniform on +/-sqrt(6 / (fan_in + fan_out)) with zero
biases, drawn row-major from the package's deterministic generator, so a
fixed seed yields bitwise-identical networks everywhere. Training
reproduces bit for bit on one machine and BLAS build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .defaults import BATCH_SIZE, EPOCHS, SEED, check_settings
from .errors import TscnetError, reading_utf8
from .rng import Xorshift64Star

ACTIVATIONS = ("relu", "sigmoid", "linear")

# the paper's encoder; the decoder mirrors it
ENCODER_WIDTHS = (100, 50, 20)

LR = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

MODEL_HEADER = "tscnet v1"

# the precision of training; everything else computes in float64
TRAIN_DTYPE = np.float32


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer."""

    input_width: int
    output_width: int
    activation: str

    def __post_init__(self):
        if self.input_width < 1 or self.output_width < 1:
            raise TscnetError(f"layer widths must be >= 1, got {self.input_width}->{self.output_width}")
        if self.activation not in ACTIVATIONS:
            raise TscnetError(f"unknown activation {self.activation!r}")


class Layer(NamedTuple):
    """One layer of a :class:`DenseNetwork`: its spec and views of the network's ``theta``."""

    spec: LayerSpec
    weights: np.ndarray
    biases: np.ndarray


class DenseNetwork:
    """Dense layers with chained widths whose parameters are one vector, ``theta``.

    The constructor checks the width chain and that ``theta`` holds exactly
    the layers' parameters, and keeps its own copy of ``theta``: float32 if
    ``theta`` is float32, float64 otherwise. ``layers`` pairs each spec with
    (weights, biases) views of that copy.
    """

    def __init__(self, specs: list[LayerSpec] | tuple[LayerSpec, ...], theta) -> None:
        self.specs = tuple(specs)
        if not self.specs:
            raise TscnetError("a network needs at least one layer")
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.output_width != cur.input_width:
                raise TscnetError(f"width chain broken: {prev.output_width} -> {cur.input_width}")
        theta = np.asarray(theta)
        self.theta = np.array(theta, dtype=np.float32 if theta.dtype == np.float32 else float)
        size = sum(spec.output_width * (spec.input_width + 1) for spec in self.specs)
        if self.theta.shape != (size,):
            raise TscnetError(f"theta {self.theta.shape} does not hold the {size} parameters of the layers")
        self.layers = tuple(Layer(spec, *pair) for spec, pair in zip(self.specs, self.views(self.theta)))

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weights, biases) views of a vector laid out like ``theta``."""
        out, pos = [], 0
        for spec in self.specs:
            rows, cols = spec.output_width, spec.input_width
            end = pos + rows * cols
            out.append((vec[pos:end].reshape(rows, cols), vec[end : end + rows]))
            pos = end + rows
        return out

    @property
    def input_width(self) -> int:
        return self.specs[0].input_width


def build_network(specs: list[LayerSpec], seed: int) -> DenseNetwork:
    """Initialize an arbitrary stack of layers from one seeded stream; ``seed``
    must pass :func:`defaults.check_settings`."""
    check_settings(seed=seed)
    rng = Xorshift64Star(seed)

    def theta():
        for spec in specs:
            limit = math.sqrt(6.0 / (spec.input_width + spec.output_width))
            yield from (rng.uniform(-limit, limit) for _ in range(spec.output_width * spec.input_width))
            yield from itertools.repeat(0.0, spec.output_width)

    return DenseNetwork(specs, np.fromiter(theta(), dtype=float))


def build_autoencoder(
    input_width: int = 2,
    encoder_widths: list[int] | tuple[int, ...] = ENCODER_WIDTHS,
    latent_width: int = 4,
    output_width: int = 1,
    seed: int = SEED,
) -> DenseNetwork:
    """Encoder (relu), sigmoid latent, mirrored relu decoder, linear head.

    The latent width doubles as the number of clusters the network is asked
    to discriminate; its sigmoid keeps latent activations inside (0, 1).
    """
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


def count_parameters(net: DenseNetwork) -> int:
    """Total trainable parameters across the network."""
    return net.theta.size


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation to the pre-activation ``z`` in place; returns ``z``."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "sigmoid":
        # split by sign so exp never overflows
        pos = z >= 0
        ez = np.exp(z[~pos])
        z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        z[~pos] = ez / (1.0 + ez)
    return z


def _activation_backward(name: str, delta: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-activation, given ``delta`` w.r.t. the output
    ``a``, written into ``out``, an array shaped like ``a``.

    For relu, ``a > 0`` holds exactly where the pre-activation is > 0.
    """
    if name == "relu":
        np.greater(a, 0.0, out=out)
        out *= delta
    elif name == "sigmoid":
        np.multiply(delta, a * (1.0 - a), out=out)
    else:
        np.copyto(out, delta)
    return out


class Workspace:
    """The arrays of training passes of up to ``rows`` rows: each layer's
    activation, which :func:`forward` writes, and two flat buffers for
    :func:`backward`'s gradients w.r.t. pre-activations and layer inputs.

    A step that reuses them allocates nothing as wide as a hidden layer, so
    the allocator never hands those pages back to be faulted in again at
    the next step. The arrays a pass returns are overwritten by the next
    pass that writes into the same workspace.
    """

    def __init__(self, net: DenseNetwork, rows: int) -> None:
        dtype = net.theta.dtype
        self.acts = [np.empty((rows, spec.output_width), dtype) for spec in net.specs]
        size = rows * max(spec.output_width for spec in net.specs)
        self.deltas = (np.empty(size, dtype), np.empty(size, dtype))

    def delta(self, which: int, rows: int, width: int) -> np.ndarray:
        """A (rows, width) array over the start of flat buffer ``which``."""
        return self.deltas[which][: rows * width].reshape(rows, width)


def forward(net: DenseNetwork, batch, ws: Workspace | None = None) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Run a batch through the network; returns (outputs, acts).

    ``batch`` is (n, input_width); outputs are (n, output_width). Weights
    large enough to overflow give NaN or infinite outputs without a NumPy
    warning; :func:`round_labels` and the training loss check reject them.

    With a :class:`Workspace` this is a training pass: each layer's
    activation is written into its first n rows of ``ws.acts``, and
    ``acts`` is ``[X, a1, ..., aL]``, so ``acts[i]`` is the input of layer
    ``i`` and ``acts[-1]`` is ``outputs``. Without one it is a prediction
    pass: ``acts`` is None and each layer's input is dropped once its output
    exists, so at most two adjacent layers' activations live at once. Either
    way the outputs are the same bits. The pass computes in the dtype of
    ``net.theta``, and the batch is cast to it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # a value past a float32 network's range casts to inf, refused below
        X = np.asarray(batch, dtype=net.theta.dtype)
        if X.ndim != 2 or X.shape[1] != net.input_width:
            raise TscnetError(f"batch shape {X.shape} does not match input width {net.input_width}")
        if not np.all(np.isfinite(X)):
            raise TscnetError("batch contains NaN or infinity")
        a, acts = X, None if ws is None else [X]
        for i, layer in enumerate(net.layers):
            # without a workspace, rebinding ``a`` drops the layer's input
            a = np.matmul(a, layer.weights.T, out=None if ws is None else ws.acts[i][: len(X)])
            a += layer.biases
            _activate(layer.spec.activation, a)
            if acts is not None:
                acts.append(a)
    return a, acts


def mse_loss(pred, target) -> float:
    """Mean over all entries of the squared error."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise TscnetError(f"pred {p.shape} vs target {t.shape}")
    diff = p - t
    return float(np.mean(diff * diff))


def backward(net: DenseNetwork, acts: list[np.ndarray], target, ws: Workspace) -> np.ndarray:
    """Gradient of mse_loss w.r.t. ``net.theta``, laid out like it, from the
    ``acts`` of a training :func:`forward` pass.

    The per-layer gradients w.r.t. pre-activations and inputs are written
    into the flat buffers of ``ws``, which must hold ``len(acts[0])`` rows.
    """
    t = np.asarray(target, dtype=net.theta.dtype)
    pred = acts[-1]
    if t.shape != pred.shape:
        raise TscnetError(f"target {t.shape} vs output {pred.shape}")
    # d(mean squared error)/d(pred): mean runs over every entry
    delta = 2.0 * (pred - t) / pred.size
    grad = np.empty_like(net.theta)
    views = net.views(grad)
    n = len(pred)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        spec = layer.spec
        # dz goes to the first buffer, then the next delta, made from it, to the second
        dz = _activation_backward(spec.activation, delta, acts[idx + 1], ws.delta(0, n, spec.output_width))
        grad_w, grad_b = views[idx]
        np.matmul(dz.T, acts[idx], out=grad_w)
        np.sum(dz, axis=0, out=grad_b)
        if idx > 0:
            delta = np.matmul(dz, layer.weights, out=ws.delta(1, n, spec.input_width))
    return grad


class AdamState:
    """First/second-moment vectors, the step counter, and two scratch
    vectors that each step writes its temporaries into, all of ``dtype``,
    which is that of the ``theta`` the state updates."""

    def __init__(self, size: int, dtype=np.float64):
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)
        self.t = 0
        self.scratch = (np.empty(size, dtype), np.empty(size, dtype))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``theta`` in place.

    theta <- theta - LR * m_hat / (sqrt(v_hat) + eps), where a first moment
    below the dtype's smallest normal number counts as zero. Every temporary
    is written into ``state.scratch``, so a step allocates nothing as large
    as ``theta``.
    """
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise TscnetError(f"theta {theta.shape}, grad {grad.shape} and state {state.m.shape} differ")
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    m, v = state.m, state.v
    a, b = state.scratch
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=a)
    # a dead unit's zero gradient shrinks its first moment by BETA1 a step
    # into float32's subnormal range, where arithmetic is many times slower;
    # such a moment moves theta by less than 1e-31, so it is set to zero
    np.copyto(m, 0.0, where=np.abs(m, out=a) < np.finfo(m.dtype).tiny)
    v *= BETA2
    v += np.multiply(np.multiply(grad, grad, out=a), 1.0 - BETA2, out=a)
    np.multiply(np.divide(m, c1, out=a), LR, out=a)
    np.add(np.sqrt(np.divide(v, c2, out=b), out=b), EPS, out=b)
    theta -= np.divide(a, b, out=a)


@dataclass(frozen=True)
class TrainHistory:
    """Epoch-end full-dataset MSE values, one per epoch run."""

    losses: tuple[float, ...]

    def final_loss(self) -> float:
        return self.losses[-1]


def train(
    net: DenseNetwork,
    X,
    y,
    epochs: int = EPOCHS,
    batch_size: int = BATCH_SIZE,
    seed: int = SEED,
) -> TrainHistory:
    """Minibatch Adam training in ``TRAIN_DTYPE``; mutates ``net`` and returns
    the loss history.

    With batch_size >= n the whole dataset forms one batch and the sample
    order is never touched; with smaller batches the row order is reshuffled
    each epoch from a stream seeded once at the start. Either way a fixed
    (seed, data, hyperparameters) tuple reproduces weights bit for bit on
    one machine and BLAS build. Non-finite targets, inputs or targets past
    the float32 range, or settings :func:`defaults.check_settings` refuses,
    raise a TscnetError up front, and a non-finite epoch-end loss one naming
    the epoch; either way ``net`` is left as it was.

    Training runs on a float32 copy of ``net``, the inputs and the targets,
    and writes the trained parameters back into ``net.theta`` once at the
    end, which holds them exactly. Each epoch's loss is the float64
    :func:`mse_loss` of the copy's outputs against the float32 targets.

    Each step is one Adam update of the copy's ``theta``. Every training
    pass writes its activations and gradients into one :class:`Workspace`
    allocated per call. With one full batch, each epoch-end forward pass,
    which gives the epoch's loss, is also the next epoch's training pass,
    so an epoch costs one forward and one backward. With minibatches the
    epoch-end pass is a prediction pass, which keeps only its outputs, so
    no full-data activations live through the next epoch's steps.
    """
    Xa = np.asarray(X, dtype=float)
    ya = np.asarray(y, dtype=float)
    if ya.ndim == 1:
        ya = ya.reshape(-1, 1)
    if len(Xa) == 0:
        raise TscnetError("no training samples")
    if len(Xa) != len(ya):
        raise TscnetError(f"{len(Xa)} inputs vs {len(ya)} targets")
    if not np.all(np.isfinite(ya)):
        raise TscnetError("targets contain NaN or infinity")
    check_settings(epochs=epochs, batch_size=batch_size, seed=seed)
    limit = float(np.finfo(TRAIN_DTYPE).max)
    for name, arr in (("inputs", Xa), ("targets", ya)):
        # NaN and infinite inputs are left to forward's check
        big = arr[np.isfinite(arr) & (np.abs(arr) > limit)]
        if big.size:
            raise TscnetError(f"{name} hold {big[0]:.6g}, past the float32 range of training, +/-{limit:.6g}")

    work = DenseNetwork(net.specs, net.theta.astype(TRAIN_DTYPE))
    Xa, ya = Xa.astype(TRAIN_DTYPE), ya.astype(TRAIN_DTYPE)
    n = len(Xa)
    state = AdamState(work.theta.size, TRAIN_DTYPE)
    rng = Xorshift64Star(seed)
    single_batch = batch_size >= n
    ws = Workspace(work, min(batch_size, n))

    def step(acts: list[np.ndarray], target: np.ndarray) -> None:
        adam_step(work.theta, backward(work, acts, target, ws), state)

    losses = []
    # a diverging run overflows before the epoch-end check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        acts = forward(work, Xa, ws)[1] if single_batch else None
        for epoch in range(1, epochs + 1):
            if single_batch:
                step(acts, ya)
            else:
                idx = list(range(n))
                rng.shuffle(idx)
                order = np.array(idx)
                for start in range(0, n, batch_size):
                    rows = order[start : start + batch_size]
                    step(forward(work, Xa[rows], ws)[1], ya[rows])
            # one full batch: the step has read the acts, so the pass may write
            # over them; minibatches never read the full-data acts
            out, acts = forward(work, Xa, ws if single_batch else None)
            losses.append(mse_loss(out, ya))
            if not math.isfinite(losses[-1]):
                raise TscnetError(f"training diverged: loss {losses[-1]} at epoch {epoch}")
    net.theta[:] = work.theta
    return TrainHistory(losses=tuple(losses))


def round_labels(raw, num_clusters: int) -> np.ndarray:
    """Map raw network outputs to labels: |round half to even|, clamp to [0, C-1].

    The absolute value folds the symmetric output range back onto valid
    labels; the clamp covers outputs past either end. NaN or infinite
    outputs raise TscnetError.
    """
    if num_clusters < 2:
        raise TscnetError(f"num_clusters must be >= 2, got {num_clusters}")
    if not np.all(np.isfinite(raw)):
        raise TscnetError("raw network outputs contain NaN or infinity")
    rounded = np.abs(np.rint(np.asarray(raw, dtype=float)))
    return np.clip(rounded, 0, num_clusters - 1).astype(int)


def predict_labels(net: DenseNetwork, X, num_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """(raw, labels) for a batch: the network's (n,) raw outputs and the
    integer labels :func:`round_labels` makes of them. The network must have
    one output. It runs a prediction pass, which keeps no hidden
    activations."""
    out, _ = forward(net, X)
    if out.shape[1] != 1:
        raise TscnetError(f"label prediction expects a 1-wide output, got {out.shape[1]}")
    raw = out[:, 0]
    return raw, round_labels(raw, num_clusters)


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


def load_model(path) -> DenseNetwork:
    """Read a model saved by :func:`save_model`; predictions round-trip bitwise.

    Blank lines are skipped and every weight and bias must be finite. An
    error names ``path`` and the physical line at fault, or ``path`` alone
    when the file ends early.
    """
    with open(path, "r", encoding="utf-8") as fh, reading_utf8(path):
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    specs, arrays, pos = [], [], -1  # pos indexes the line last taken

    def take(what: str) -> list[str]:
        nonlocal pos
        pos += 1
        if pos == len(lines):
            raise TscnetError(f"file ends before {what}")
        return lines[pos][1].split()

    def take_floats(count: int, what: str) -> None:
        parts = take(what)
        if len(parts) != count:
            raise TscnetError(f"expected {count} values for {what}, got {len(parts)}")
        values = np.array([float(p) for p in parts])
        if not np.all(np.isfinite(values)):
            raise TscnetError(f"non-finite value in {what}")
        arrays.append(values)

    try:
        if take("the header") != MODEL_HEADER.split():
            raise TscnetError(f"missing '{MODEL_HEADER}' header")
        tag, *count = take("the layer count")
        if tag != "layers" or len(count) != 1 or int(count[0]) < 1:
            raise TscnetError("expected 'layers <count>' with a count >= 1")
        for li in range(int(count[0])):
            tag, *shape = take(f"layer {li}")
            if tag != "layer" or len(shape) != 3:
                raise TscnetError(f"expected 'layer <inputs> <outputs> <activation>' for layer {li}")
            spec = LayerSpec(int(shape[0]), int(shape[1]), shape[2])
            if specs and specs[-1].output_width != spec.input_width:
                raise TscnetError(f"width chain broken: {specs[-1].output_width} -> {spec.input_width}")
            specs.append(spec)
            for r in range(spec.output_width):
                take_floats(spec.input_width, f"layer {li} row {r}")
            take_floats(spec.output_width, f"layer {li} biases")
        if pos + 1 < len(lines):
            pos += 1
            raise TscnetError(f"{len(lines) - pos} trailing lines after the last layer")
    except (ValueError, TscnetError) as exc:
        where = f" line {lines[pos][0]}" if pos < len(lines) else ""
        raise TscnetError(f"{path}{where}: {exc}") from None
    return DenseNetwork(specs, np.concatenate(arrays))
