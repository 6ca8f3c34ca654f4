"""Autoencoder tests: construction, forward, gradients, Adam, training, I/O.

The forward oracle below evaluates the network neuron by neuron with
scalar math, sharing no array code with the implementation. Gradients are
checked against central finite differences; Adam against a hand-unrolled
recurrence. Training is checked bit for bit against ``reference_train``,
the per-array loop that ran two forward passes per full-batch epoch and
writes out its own Adam, so it shares no training code with the module.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_blob_points, parameter_counts, relu_kink_margin, widths

from tscnet import autonet
from tscnet.autonet import (
    AdamState,
    DenseNetwork,
    LayerSpec,
    TrainHistory,
    adam_step,
    backward,
    build_autoencoder,
    build_network,
    count_parameters,
    forward,
    load_model,
    mse_loss,
    predict_labels,
    round_labels,
    save_model,
    train,
    Workspace,
)
from tscnet.errors import TscnetError
from tscnet.rng import Xorshift64Star, derive_seed


def oracle_forward(net, X):
    """Per-neuron scalar evaluation of the network, no shared array code."""
    outputs = []
    for sample in X:
        a = list(sample)
        for layer in net.layers:
            z = []
            for o in range(layer.spec.output_width):
                acc = float(layer.biases[o])
                for i in range(layer.spec.input_width):
                    acc += float(layer.weights[o][i]) * a[i]
                z.append(acc)
            if layer.spec.activation == "relu":
                a = [max(0.0, v) for v in z]
            elif layer.spec.activation == "sigmoid":
                a = [1.0 / (1.0 + math.exp(-v)) for v in z]
            else:
                a = z
        outputs.append(a)
    return np.array(outputs)


def numeric_gradients(net, X, y, eps=1e-5):
    grads = []
    for layer in net.layers:
        for arr in (layer.weights, layer.biases):
            g = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = mse_loss(forward(net, X)[0], y)
                flat[i] = orig - eps
                down = mse_loss(forward(net, X)[0], y)
                flat[i] = orig
                gflat[i] = (up - down) / (2.0 * eps)
            grads.append(g)
    return grads


def flat_gradients(net, X, y):
    _, acts = forward(net, X)
    return [g for pair in net.views(backward(net, acts, y)) for g in pair]


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(net, batch):
    """(pre-activations, activations), each layer written out as ``z = a @ W.T + b``."""
    zs, acts = [], []
    a = batch
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        if layer.spec.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.spec.activation == "sigmoid":
            a = reference_sigmoid(z)
        else:
            a = z
        zs.append(z)
        acts.append(a)
    return zs, acts


def reference_grads(net, batch, target):
    """Per-array gradients in layer order, weights before biases.

    The relu gradient is a 0/1 float mask of ``z > 0`` and the linear one a
    ones mask.
    """
    zs, acts = reference_forward(net, batch)
    delta = 2.0 * (acts[-1] - target) / acts[-1].size
    out = []
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        if layer.spec.activation == "relu":
            gate = (zs[idx] > 0.0).astype(float)
        elif layer.spec.activation == "sigmoid":
            gate = acts[idx] * (1.0 - acts[idx])
        else:
            gate = np.ones_like(zs[idx])
        dz = delta * gate
        a_prev = acts[idx - 1] if idx > 0 else batch
        out[:0] = [dz.T @ a_prev, dz.sum(axis=0)]
        if idx > 0:
            delta = dz @ layer.weights
    return out


def reference_train(net, X, y, epochs, batch_size, seed, lr=0.001):
    """The per-array training loop; returns the epoch-end losses.

    Every epoch runs a training forward per batch and then a full-data
    forward for the loss, so a full-batch epoch runs the same forward twice.
    Adam updates each of the layers' own weight and bias arrays in turn,
    with one first- and second-moment array per parameter array.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    Xa = np.asarray(X, dtype=float)
    ya = np.asarray(y, dtype=float).reshape(len(Xa), -1)
    n = len(Xa)
    params = [arr for layer in net.layers for arr in (layer.weights, layer.biases)]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    t = 0
    rng = Xorshift64Star(seed)
    order = np.arange(n)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            if batch_size < n:
                idx = list(range(n))
                rng.shuffle(idx)
                order = np.array(idx)
            for start in range(0, n, batch_size):
                rows = order[start : start + batch_size]
                t += 1
                c1, c2 = 1.0 - b1**t, 1.0 - b2**t
                for p, g, m, v in zip(params, reference_grads(net, Xa[rows], ya[rows]), ms, vs):
                    m *= b1
                    m += (1.0 - b1) * g
                    v *= b2
                    v += (1.0 - b2) * (g * g)
                    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            losses.append(mse_loss(reference_forward(net, Xa)[1][-1], ya))
    return tuple(losses)


class TestConstruction:
    def test_canonical_architecture(self):
        net = build_autoencoder(seed=7)
        assert widths(net) == [2, 100, 50, 20, 4, 20, 50, 100, 1]
        acts = [layer.spec.activation for layer in net.layers]
        assert acts == ["relu", "relu", "relu", "sigmoid", "relu", "relu", "relu", "linear"]
        assert parameter_counts(net) == [300, 5050, 1020, 84, 100, 1050, 5100, 101]
        assert count_parameters(net) == 12805

    def test_minimal_network(self):
        net = build_autoencoder(1, [1], 1, 1, seed=7)
        assert widths(net) == [1, 1, 1, 1, 1]
        assert len(net.layers) == 4

    def test_mirror_arithmetic(self):
        net = build_autoencoder(3, [5], 2, 1, seed=7)
        assert count_parameters(net) == 3 * 5 + 5 + 5 * 2 + 2 + 2 * 5 + 5 + 5 * 1 + 1 == 53

    def test_bad_widths(self):
        with pytest.raises(TscnetError, match=r"^layer widths must be >= 1, got 0->5$"):
            build_autoencoder(0, [5], 2, 1, seed=7)
        with pytest.raises(TscnetError, match=r"^layer widths must be >= 1, got 5->0$"):
            build_autoencoder(2, [5, 0], 2, 1, seed=7)
        with pytest.raises(TscnetError, match=r"^unknown activation 'tanh'$"):
            LayerSpec(1, 1, "tanh")

    def test_layers_are_views_of_theta(self):
        net = build_autoencoder(2, (4, 3), 2, 1, seed=7)
        joined = [arr.ravel() for layer in net.layers for arr in (layer.weights, layer.biases)]
        assert np.concatenate(joined).tobytes() == net.theta.tobytes()
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.theta)
            assert np.shares_memory(layer.biases, net.theta)
        X = np.array([[0.3, -0.2]])
        before = forward(net, X)[0][0, 0]
        net.theta[-1] += 1.0  # the linear head's bias
        assert forward(net, X)[0][0, 0] == before + 1.0

    def test_arrays_passed_in_are_copied(self):
        theta = np.array([2.0, 0.5])
        net = DenseNetwork([LayerSpec(1, 1, "linear")], theta)
        theta[:] = [100.0, -7.0]
        assert net.theta.tolist() == [2.0, 0.5]
        assert forward(net, [[1.0]])[0][0, 0] == 2.5

    def test_width_chain_enforced(self):
        with pytest.raises(TscnetError, match=r"^width chain broken: 3 -> 4$"):
            DenseNetwork([LayerSpec(2, 3, "relu"), LayerSpec(4, 1, "linear")], np.zeros(9 + 5))
        with pytest.raises(TscnetError, match=r"^a network needs at least one layer$"):
            DenseNetwork([], [])

    @pytest.mark.parametrize("shape", [(52,), (54,), (53, 1), ()])
    def test_theta_of_wrong_size_rejected(self, shape):
        specs = build_autoencoder(3, [5], 2, 1, seed=7).specs  # 53 parameters
        message = f"theta {shape} does not hold the 53 parameters of the layers"
        with pytest.raises(TscnetError, match=f"^{re.escape(message)}$"):
            DenseNetwork(specs, np.zeros(shape))

    def test_network_from_specs_and_theta_is_independent(self):
        # a second network from the first's specs and theta owns its own
        # copy: training the first moves its outputs and leaves the second
        X, truth = make_blob_points(seed=3, per_cluster=3)
        first = build_autoencoder(2, (6, 4), 2, 1, seed=3)
        second = DenseNetwork(first.specs, first.theta)
        assert second.theta.tobytes() == first.theta.tobytes()
        frozen = second.theta.tobytes()
        before = forward(first, X)[0]
        history = train(first, X, truth, epochs=50, seed=3)
        assert history.losses[-1] < history.losses[0]
        assert not np.array_equal(forward(first, X)[0], before)
        assert second.theta.tobytes() == frozen
        assert np.array_equal(forward(second, X)[0], before)

    def test_init_bounds_and_zero_biases(self):
        net = build_autoencoder(seed=7)
        for layer in net.layers:
            limit = math.sqrt(6.0 / (layer.spec.input_width + layer.spec.output_width))
            assert np.all(np.abs(layer.weights) <= limit)
            assert np.all(layer.biases == 0.0)

    def test_init_deterministic(self):
        a = build_autoencoder(seed=42)
        b = build_autoencoder(seed=42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_seeds_differ(self):
        a = build_autoencoder(seed=1)
        b = build_autoencoder(seed=2)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


class TestForward:
    def test_zero_network_outputs_zero(self):
        specs = [LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "sigmoid"), LayerSpec(2, 1, "linear")]
        net = DenseNetwork(specs, np.zeros(9 + 8 + 3))
        out, acts = forward(net, [[5.0, -3.0], [0.1, 0.2]])
        # final linear layer sees sigmoid(0) = 0.5 inputs against zero weights
        assert np.all(out == 0.0)
        assert np.all(acts[2] == 0.5)
        assert acts[-1] is out

    def test_relu_gates_negative_input(self):
        net = DenseNetwork([LayerSpec(1, 1, "relu")] * 2, [1.0, 0.0, 1.0, 0.0])
        out, _ = forward(net, [[-3.0]])
        assert out[0][0] == 0.0

    def test_matches_scalar_oracle(self):
        for trial in range(10):
            gen = Xorshift64Star(derive_seed(600, trial))
            widths = [1 + gen.below(6) for _ in range(1 + gen.below(4) + 1)]
            acts = [("relu", "sigmoid", "linear")[gen.below(3)] for _ in range(len(widths) - 1)]
            specs = [LayerSpec(widths[i], widths[i + 1], acts[i]) for i in range(len(widths) - 1)]
            net = build_network(specs, seed=trial)
            X = np.array([[gen.uniform(-2, 2) for _ in range(widths[0])] for _ in range(4)])
            got, _ = forward(net, X)
            want = oracle_forward(net, X)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_shape_conservation(self):
        net = build_autoencoder(seed=7)
        for n in (1, 3, 17):
            out, acts = forward(net, np.zeros((n, 2)))
            assert out.shape == (n, 1)
            assert [a.shape for a in acts] == [(n, w) for w in widths(net)]

    def test_wrong_width_rejected(self):
        net = build_autoencoder(seed=7)
        with pytest.raises(TscnetError, match=r"^batch shape \(4, 3\) does not match input width 2$"):
            forward(net, np.zeros((4, 3)))

    def test_one_dimensional_batch_rejected(self):
        # a single sample is a (1, width) batch; a bare row is not reshaped
        net = build_autoencoder(seed=7)
        with pytest.raises(TscnetError, match=r"^batch shape \(2,\) does not match input width 2$"):
            forward(net, np.zeros(2))

    def test_non_finite_rejected(self):
        net = build_autoencoder(seed=7)
        with pytest.raises(TscnetError, match=r"^batch contains NaN or infinity$"):
            forward(net, [[np.nan, 0.0]])

    def test_latent_layer_in_unit_interval(self):
        net = build_autoencoder(seed=7)
        gen = Xorshift64Star(8)
        X = np.array([[gen.uniform(-5, 5), gen.uniform(-5, 5)] for _ in range(64)])
        _, acts = forward(net, X)
        latent = acts[4]
        assert np.all(latent > 0.0)
        assert np.all(latent < 1.0)


class TestMseLoss:
    def test_zero_when_equal(self):
        x = np.arange(6.0).reshape(3, 2)
        assert mse_loss(x, x.copy()) == 0.0

    def test_constant_offset(self):
        pred = np.full((4, 2), 3.0)
        target = np.full((4, 2), 1.0)
        assert mse_loss(pred, target) == 4.0

    def test_matches_direct_summation(self):
        gen = Xorshift64Star(77)
        pred = np.array([[gen.uniform(-2, 2) for _ in range(3)] for _ in range(5)])
        target = np.array([[gen.uniform(-2, 2) for _ in range(3)] for _ in range(5)])
        direct = sum(
            (float(pred[i, j]) - float(target[i, j])) ** 2 for i in range(5) for j in range(3)
        ) / 15.0
        assert mse_loss(pred, target) == pytest.approx(direct, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(TscnetError, match=r"^pred \(2, 2\) vs target \(2, 3\)$"):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = build_autoencoder(2, (4, 3), 2, 1, seed=7)
        X = np.array([[0.3, -0.2], [1.0, 0.5]])
        out, acts = forward(net, X)
        grad = backward(net, acts, out.copy())
        assert grad.shape == net.theta.shape
        for dw, db in net.views(grad):
            assert np.all(dw == 0.0)
            assert np.all(db == 0.0)

    def test_single_linear_layer_closed_form(self):
        w, b, x, y = 0.7, -0.3, 1.9, 0.25
        net = DenseNetwork([LayerSpec(1, 1, "linear")], [w, b])
        _, acts = forward(net, [[x]])
        (dw, db), = net.views(backward(net, acts, [[y]]))
        err = w * x + b - y
        assert dw[0][0] == pytest.approx(2.0 * err * x, rel=1e-14)
        assert db[0] == pytest.approx(2.0 * err, rel=1e-14)

    def test_target_shape_mismatch(self):
        net = build_autoencoder(seed=7)
        _, acts = forward(net, np.zeros((3, 2)))
        with pytest.raises(TscnetError, match=r"^target \(4, 1\) vs output \(3, 1\)$"):
            backward(net, acts, np.zeros((4, 1)))

    def test_canonical_net_matches_finite_differences(self):
        net = build_autoencoder(seed=3)
        gen = Xorshift64Star(92)
        X = np.array([[gen.uniform(-1, 1), gen.uniform(-1, 1)] for _ in range(8)])
        y = np.array([[float(gen.below(4))] for _ in range(8)])
        # central differences are only a valid oracle away from relu kinks:
        # every relu pre-activation must clear the 1e-5 step by a wide margin
        _, acts = forward(net, X)
        assert relu_kink_margin(net, acts) >= 1e-4
        analytic = flat_gradients(net, X, y)
        numeric = numeric_gradients(net, X, y)
        for a, n in zip(analytic, numeric):
            assert np.all(np.abs(a - n) <= np.maximum(1e-4 * np.abs(n), 1e-7))

    def test_vector_joins_reference_gradients(self):
        X, truth = make_blob_points(seed=17, per_cluster=5)
        y = np.array(truth, dtype=float).reshape(-1, 1)
        net = build_autoencoder(seed=11)
        grad = backward(net, forward(net, X)[1], y)
        want = np.concatenate([g.ravel() for g in reference_grads(net, X, y)])
        assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("activations", [
        ("relu", "relu", "sigmoid", "relu", "linear"),
        # a hidden linear layer passes its delta through unchanged
        ("linear", "sigmoid", "linear", "relu", "relu"),
    ])
    def test_workspace_gives_the_same_bits(self, activations):
        widths = (2, 9, 6, 3, 7, 1)
        specs = [LayerSpec(i, o, a) for i, o, a in zip(widths, widths[1:], activations)]
        net = build_network(specs, seed=5)
        ws = Workspace(net, 40)
        gen = Xorshift64Star(4)
        for n in (40, 17, 1):
            X = np.array([[gen.uniform(-2, 2), gen.uniform(-2, 2)] for _ in range(n)])
            y = np.array([[gen.uniform(-1, 1)] for _ in range(n)])
            out, acts = forward(net, X)
            ws_out, ws_acts = forward(net, X, ws=ws)
            assert [a.tobytes() for a in ws_acts] == [a.tobytes() for a in acts]
            assert np.shares_memory(ws_out, ws.acts[-1])
            assert backward(net, ws_acts, y, ws=ws).tobytes() == backward(net, acts, y).tobytes()

    def test_workspace_passes_allocate_no_hidden_width(self):
        # a step's forward and backward into a workspace allocate less than
        # one 100-wide hidden activation; without one, each allocates more
        net = build_autoencoder(seed=7)
        n = 1024
        X = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 2))
        y = np.random.default_rng(6).uniform(0.0, 3.0, (n, 1))
        ws = Workspace(net, n)

        def peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        acts, with_ws = peak(lambda: forward(net, X, ws=ws)[1])
        _, backward_with_ws = peak(lambda: backward(net, acts, y, ws=ws))
        acts, without = peak(lambda: forward(net, X)[1])
        _, backward_without = peak(lambda: backward(net, acts, y))
        hidden = 100 * 8 * n
        assert max(with_ws, backward_with_ws) < hidden < min(without, backward_without)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        theta = np.array([1.0, -2.0, 3.0])
        state = AdamState(theta.size)
        adam_step(theta, np.zeros(3), state)
        assert state.t == 1
        assert np.array_equal(theta, [1.0, -2.0, 3.0])

    def test_first_step_magnitude_is_lr(self):
        g = 0.37
        theta = np.array([5.0])
        state = AdamState(theta.size)
        adam_step(theta, np.array([g]), state)
        # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
        expected = 5.0 - 0.001 * g / (abs(g) + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=5e-15)
        assert abs(5.0 - theta[0]) == pytest.approx(0.001, rel=1e-6)

    def test_two_steps_match_unrolled_recurrence(self):
        g1, g2 = 0.4, -1.3
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        theta = np.array([2.0])
        state = AdamState(theta.size)
        adam_step(theta, np.array([g1]), state)
        adam_step(theta, np.array([g2]), state)

        p = 2.0
        m = v = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p -= lr * m_hat / (math.sqrt(v_hat) + eps)
        assert theta[0] == pytest.approx(p, abs=1e-12)
        assert state.t == 2

    def test_second_moments_non_negative(self):
        theta = np.array([0.0, 0.0])
        state = AdamState(theta.size)
        adam_step(theta, np.array([-3.0, 2.0]), state)
        assert np.all(state.v >= 0.0)
        assert state.m.shape == theta.shape

    def test_shape_mismatch(self):
        state = AdamState(2)
        with pytest.raises(TscnetError, match=r"^theta \(2,\), grad \(3,\) and state \(2,\) differ$"):
            adam_step(np.zeros(2), np.zeros(3), state)
        with pytest.raises(TscnetError, match=r"^theta \(3,\), grad \(3,\) and state \(2,\) differ$"):
            adam_step(np.zeros(3), np.zeros(3), state)


class TestTrain:
    def test_already_fit_data_stays_at_zero(self):
        net = DenseNetwork([LayerSpec(2, 1, "linear")], [0.5, -0.25, 0.1])
        X = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        y, _ = forward(net, X)
        history = train(net, X, y.copy(), epochs=1, batch_size=16, seed=7)
        assert history.losses[0] == pytest.approx(0.0, abs=1e-20)

    def test_history_length_and_type(self):
        net = build_autoencoder(2, (6, 4), 2, 1, seed=7)
        X = np.array([[0.1, 0.9], [0.4, -0.3], [0.7, 0.2]])
        y = np.array([[0.0], [1.0], [1.0]])
        history = train(net, X, y, epochs=5, batch_size=8, seed=7)
        assert isinstance(history, TrainHistory)
        assert len(history.losses) == 5
        assert all(loss >= 0.0 for loss in history.losses)
        assert history.final_loss() == history.losses[-1]

    def test_oversized_batch_equals_exact_batch(self):
        X = np.array([[0.1 * i, 0.05 * i] for i in range(10)])
        y = np.array([[float(i % 3)] for i in range(10)])
        a = build_autoencoder(2, (5,), 2, 1, seed=9)
        b = build_autoencoder(2, (5,), 2, 1, seed=9)
        train(a, X, y, epochs=20, batch_size=1024, seed=7)
        train(b, X, y, epochs=20, batch_size=10, seed=7)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)

    def test_minibatch_training_deterministic(self):
        X = np.array([[0.1 * i, -0.03 * i] for i in range(20)])
        y = np.array([[float(i % 4)] for i in range(20)])
        results = []
        for _ in range(2):
            net = build_autoencoder(2, (8, 4), 4, 1, seed=5)
            history = train(net, X, y, epochs=12, batch_size=6, seed=5)
            results.append((history.losses, [layer.weights.copy() for layer in net.layers]))
        assert results[0][0] == results[1][0]
        for wa, wb in zip(results[0][1], results[1][1]):
            assert np.array_equal(wa, wb)

    def test_descent_on_linear_target(self):
        gen = Xorshift64Star(13)
        X = np.array([[gen.uniform(0, 1), gen.uniform(-1, 1)] for _ in range(30)])
        y = (X @ np.array([[1.5], [-0.75]])) + 0.25
        net = build_autoencoder(seed=7)
        history = train(net, X, y, epochs=1000, batch_size=1024, seed=7)
        assert history.losses[-1] < history.losses[0]
        assert history.losses[-1] < 0.05

    def test_empty_dataset(self):
        net = build_autoencoder(seed=7)
        with pytest.raises(TscnetError, match=r"^no training samples$"):
            train(net, np.zeros((0, 2)), np.zeros((0, 1)), epochs=1, batch_size=4, seed=7)

    @pytest.mark.parametrize("batch_size", [4, 2])
    def test_one_dimensional_inputs_rejected(self, batch_size):
        # a 1-D y is one target per sample; a 1-D X is not reshaped into a column
        net = build_autoencoder(2, (4,), 2, 1, seed=7)
        # the full batch (4) and a minibatch (2) both reach forward's shape check
        with pytest.raises(TscnetError, match=rf"^batch shape \({batch_size},\) does not match input width 2$"):
            train(net, np.zeros(4), np.zeros(4), epochs=1, batch_size=batch_size, seed=7)

    def test_mismatched_lengths(self):
        net = build_autoencoder(seed=7)
        with pytest.raises(TscnetError, match=r"^3 inputs vs 2 targets$"):
            train(net, np.zeros((3, 2)), np.zeros((2, 1)), epochs=1, batch_size=4, seed=7)

    @pytest.mark.parametrize("epochs, batch_size", [(0, 4), (1, 0), (-1, 4)])
    def test_epochs_and_batch_size_below_one_rejected(self, epochs, batch_size):
        net = build_autoencoder(2, (4,), 2, 1, seed=7)
        before = net.theta.copy()
        with pytest.raises(TscnetError, match=r"^epochs and batch_size must be >= 1$"):
            train(net, [[0.2, 0.1], [0.3, 0.5]], [0.0, 1.0], epochs=epochs, batch_size=batch_size)
        assert net.theta.tobytes() == before.tobytes()

    def test_divergence_names_first_non_finite_epoch(self):
        # a finite but huge target squares past the float range, so the first
        # epoch-end loss is inf. NumPy's overflow warnings would print before
        # the error, so none may escape.
        net = build_autoencoder(2, (8,), 2, 1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TscnetError, match=r"loss inf at epoch 1$"):
                train(net, [[0.2, 0.1], [0.3, 0.5]], [0.0, 1e200], epochs=5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_rejected_before_training(self, bad):
        # bad input, not a diverging run: the network is left as it was
        net = build_autoencoder(2, (8,), 2, 1, seed=0)
        before = [layer.weights.copy() for layer in net.layers]
        with pytest.raises(TscnetError, match=r"^targets contain NaN or infinity$"):
            train(net, [[0.2, 0.1], [0.3, 0.5]], [0.0, bad], epochs=5)
        for layer, weights in zip(net.layers, before):
            assert np.array_equal(layer.weights, weights)


class TestTrainMatchesReference:
    """One flat Adam vector and the reused full-batch forward give the reference loop's bits."""

    @staticmethod
    def assert_matches(per_cluster, latent=4, batch_sizes=(1024,), epochs=25):
        X, truth = make_blob_points(seed=17, per_cluster=per_cluster)
        y = np.array(truth, dtype=float)
        net = build_autoencoder(2, (100, 50, 20), latent, 1, seed=11)
        ref = build_autoencoder(2, (100, 50, 20), latent, 1, seed=11)
        for call, batch_size in enumerate(batch_sizes):
            history = train(net, X, y, epochs=epochs, batch_size=batch_size, seed=5 + call)
            assert history.losses == reference_train(ref, X, y, epochs, batch_size, seed=5 + call)
            for got, want in zip(net.layers, ref.layers):
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.biases.tobytes() == want.biases.tobytes()

    def test_batch_larger_than_n(self):
        self.assert_matches(10, batch_sizes=(1024,))

    def test_batch_equal_to_n(self):
        self.assert_matches(10, batch_sizes=(40,))

    def test_minibatches_with_short_last_batch(self):
        # 23 rows in batches of 5: four full batches and one of 3
        self.assert_matches((6, 5, 6, 6), batch_sizes=(5,), epochs=10)

    @pytest.mark.parametrize("latent", [2, 4, 10])
    def test_latent_widths(self, latent):
        self.assert_matches(8, latent=latent)

    def test_second_call_trains_the_rebound_views(self):
        # each later call starts from the theta the earlier ones left
        self.assert_matches(10, batch_sizes=(1024, 7, 1024), epochs=12)


class TestTrainCallPath:
    """train reaches forward, backward and adam_step through the module namespace.

    The benchmark's tracer counts calls by wrapping those module attributes.
    """

    @staticmethod
    def counted_train(monkeypatch, epochs, batch_size):
        counts = dict.fromkeys(("forward", "backward", "adam_step"), 0)
        for name in counts:
            original = getattr(autonet, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(autonet, name, counting)
        X, truth = make_blob_points(seed=3, per_cluster=3)
        net = build_autoencoder(2, (6, 4), 2, 1, seed=3)
        train(net, X, truth, epochs=epochs, batch_size=batch_size, seed=3)
        return counts

    @pytest.mark.parametrize("batch_size", [12, 1024])
    def test_single_batch_forward_is_reused(self, monkeypatch, batch_size):
        epochs = 7
        counts = self.counted_train(monkeypatch, epochs, batch_size)
        assert counts == {"forward": epochs + 1, "backward": epochs, "adam_step": epochs}

    def test_minibatches_add_the_epoch_end_forward(self, monkeypatch):
        # 12 rows in batches of 5: B = 3 batches per epoch
        epochs, batches = 5, 3
        counts = self.counted_train(monkeypatch, epochs, 5)
        assert counts == {
            "forward": epochs * (batches + 1),
            "backward": epochs * batches,
            "adam_step": epochs * batches,
        }

    def test_minibatches_drop_the_epoch_end_acts(self, monkeypatch):
        # 12 rows in batches of 5: only the epoch-end pass sees all 12 rows.
        # It keeps no hidden activations, and its outputs give the epoch's
        # loss; every step writes its products into one workspace of 5 rows
        X, truth = make_blob_points(seed=3, per_cluster=3)
        full_passes, workspaces = [], []

        def tracking(net, batch, **kwargs):
            out, acts = forward(net, batch, **kwargs)
            if len(batch) == len(X):
                full_passes.append(acts)
            else:
                workspaces.append(kwargs["ws"])
                # the sigmoid makes a new array of its layer's product
                shared = [np.shares_memory(a, buf) for a, buf in zip(acts[1:], kwargs["ws"].acts)]
                assert shared == [spec.activation != "sigmoid" for spec in net.specs]
            return out, acts

        monkeypatch.setattr(autonet, "forward", tracking)
        net = build_autoencoder(2, (6, 4), 2, 1, seed=3)
        train(net, X, truth, epochs=4, batch_size=5, seed=3)
        assert full_passes == [None] * 4
        assert len(workspaces) == 4 * 3 and all(ws is workspaces[0] for ws in workspaces)
        assert [buf.shape for buf in workspaces[0].acts] == [(5, w) for w in widths(net)[1:]]


class TestRoundLabels:
    def test_half_to_even_and_clamp(self):
        raw = [0.5, 1.5, -0.5, -1.5, 7.9, -9.2, 0.49999]
        assert list(round_labels(raw, 4)) == [0, 2, 0, 2, 3, 3, 0]

    def test_num_clusters_validation(self):
        with pytest.raises(TscnetError, match=r"^num_clusters must be >= 2, got 1$"):
            round_labels([0.1], 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TscnetError, match=r"^raw network outputs contain NaN or infinity$"):
            round_labels([0.4, bad], 4)

    def test_predict_labels_through_identity_net(self):
        net = DenseNetwork([LayerSpec(1, 1, "linear")], [1.0, 0.0])
        X = [[0.72130698], [-0.00018404983], [2.4604988], [3.0150795], [0.99868220]]
        raw, labels = predict_labels(net, X, 4)
        assert raw.tolist() == [row[0] for row in X]
        assert list(labels) == [1, 0, 2, 3, 1]

    def test_predict_labels_keeps_no_hidden_activations(self):
        # all of forward's activations are 2 + 100 + 50 + 20 + 4 + 20 + 50 +
        # 100 + 1 = 347 floats a record; one layer's input and output at a
        # time are at most 100 + 50
        net = build_autoencoder(seed=7)
        n = 20_000
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (n, 2))
        tracemalloc.start()
        try:
            raw, labels = predict_labels(net, X, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n) < 200
        out, acts = forward(net, X, keep_acts=False)
        assert acts is None
        assert out.tobytes() == forward(net, X)[0].tobytes() == raw.tobytes()
        assert labels.tolist() == round_labels(raw, 4).tolist()

    def test_predict_labels_needs_single_output(self):
        net = DenseNetwork([LayerSpec(2, 2, "linear")], np.zeros(6))
        with pytest.raises(TscnetError, match=r"^label prediction expects a 1-wide output, got 2$"):
            predict_labels(net, [[1.0, 2.0]], 4)


class TestModelFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        net = build_autoencoder(2, (7, 3), 4, 1, seed=21)
        path = tmp_path / "model.tscnet"
        save_model(net, path)
        loaded = load_model(path)
        assert widths(loaded) == widths(net)
        for la, lb in zip(net.layers, loaded.layers):
            assert la.spec == lb.spec
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)
        assert loaded.theta.tobytes() == net.theta.tobytes()
        X = np.array([[0.123, -4.56], [7.0, 0.0]])
        assert np.array_equal(forward(net, X)[0], forward(loaded, X)[0])

    def test_header_first_line(self, tmp_path):
        net = build_autoencoder(1, [1], 2, 1, seed=7)
        path = tmp_path / "model.tscnet"
        save_model(net, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "tscnet v1"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tscnet"
        path.write_text("nope v9\nlayers 1\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 1: missing 'tscnet v1' header$"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        net = build_autoencoder(1, [1], 2, 1, seed=7)
        path = tmp_path / "model.tscnet"
        save_model(net, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))}: file ends before layer 3 row 0$"):
            load_model(path)

    def test_bad_float(self, tmp_path):
        net = build_autoencoder(1, [1], 2, 1, seed=7)
        path = tmp_path / "model.tscnet"
        save_model(net, path)
        text = path.read_text(encoding="utf-8")
        first_value = text.splitlines()[3]
        path.write_text(text.replace(first_value, "not-a-number", 1), encoding="utf-8")
        message = f"{path} line 4: could not convert string to float: 'not-a-number'"
        with pytest.raises(TscnetError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        net = build_autoencoder(1, [1], 2, 1, seed=7)
        path = tmp_path / "model.tscnet"
        save_model(net, path)
        path.write_text(path.read_text(encoding="utf-8") + "\n0.0 0.0\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 17: 1 trailing lines"):
            load_model(path)

    @pytest.mark.parametrize("line, text, message", [
        (1, "nope v9", "missing 'tscnet v1' header"),
        (2, "layers 0", "expected 'layers <count>' with a count >= 1"),
        (4, "0.5 0.5", "expected 1 values for layer 0 row 0, got 2"),
        (6, "layer 1 2 softmax", "unknown activation 'softmax'"),
        (7, "abc", "could not convert string to float: 'abc'"),
        (9, "1e999 0.0", "non-finite value in layer 1 biases"),
        (10, "layer 3 1 relu", "width chain broken: 2 -> 3"),
        (11, "0.5 nan", "non-finite value in layer 2 row 0"),
        (14, "-inf", "non-finite value in layer 3 row 0"),
    ])
    def test_errors_name_the_file_and_physical_line(self, tmp_path, line, text, message):
        # two blank lines lead the file and one follows saved line 5, so saved
        # line i is physical line i + 2 up to line 5 and i + 3 after it
        path = tmp_path / "model.tscnet"
        save_model(build_autoencoder(1, [1], 2, 1, seed=7), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 15
        lines[line - 1] = text
        path.write_text("\n\n" + "\n".join(lines[:5]) + "\n\n" + "\n".join(lines[5:]) + "\n",
                        encoding="utf-8")
        with pytest.raises(TscnetError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path} line {line + 2 if line <= 5 else line + 3}: {message}"

    def test_bad_activation_tag(self, tmp_path):
        path = tmp_path / "bad.tscnet"
        path.write_text("tscnet v1\nlayers 1\nlayer 1 1 softmax\n0.0\n0.0\n", encoding="utf-8")
        with pytest.raises(TscnetError, match=f"^{re.escape(str(path))} line 3: unknown activation 'softmax'$"):
            load_model(path)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6))
def test_parameter_count_formula(widths):
    specs = [LayerSpec(widths[i], widths[i + 1], "relu") for i in range(len(widths) - 1)]
    net = build_network(specs, seed=1)
    hand = sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))
    assert count_parameters(net) == hand


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=10**6),
)
def test_latent_always_in_unit_interval(batch, seed):
    # closed bounds: extreme pre-activations round the sigmoid to exactly 0 or 1
    gen = Xorshift64Star(seed)
    net = build_autoencoder(2, (5,), 3, 1, seed=seed & 0xFFFF)
    X = np.array([[gen.uniform(-100, 100), gen.uniform(-100, 100)] for _ in range(batch)])
    _, acts = forward(net, X)
    latent = acts[2]
    assert np.all((latent >= 0.0) & (latent <= 1.0))
