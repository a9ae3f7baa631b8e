import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semarm.autonet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NetworkShape,
    TrainedAutoencoder,
    TrainingConfig,
    load_model,
    model_from_doc,
    model_to_doc,
    save_model,
    _initial_parameters,
    train,
)
from semarm.transact import EncodedMatrix, GroupLayout

from oracles import (
    bce_loss,
    group_slice,
    initialize_network,
    loss_gradients,
    oracle_loss_and_grads,
)


def toy_shape(counts=(2, 3, 2), dims=(4, 3, 2)):
    layout = GroupLayout(counts)
    return NetworkShape(layout.width, dims, (dims[1], dims[0], layout.width), layout)


def scalar_forward_oracle(net, x):
    """Straight-line reimplementation: explicit loops, math.tanh / math.exp."""
    a = list(x)
    for layer in range(5):
        w, b = net.weights[layer], net.biases[layer]
        a = [
            math.tanh(sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[j])
            for j in range(w.shape[1])
        ]
    w, b = net.weights[5], net.biases[5]
    z = [sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])]
    out = [0.0] * len(z)
    layout = net.shape.group_layout
    for feature in range(layout.n_features):
        sl = group_slice(layout, feature)
        group = z[sl]
        exps = [math.exp(v) for v in group]
        total = sum(exps)
        out[sl] = [e / total for e in exps]
    return out


def scalar_bce_oracle(recon, target):
    eps = 1e-12
    total = 0.0
    for p, y in zip(recon, target):
        p = min(max(p, eps), 1.0 - eps)
        total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return total / len(recon)


def finite_difference_grads(net, x, y, h=1e-5):
    grads_w, grads_b = [], []
    for tensors, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for tensor in tensors:
            fd = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = tensor[idx]
                tensor[idx] = original + h
                up = bce_loss(net.forward_batch(x), y)
                tensor[idx] = original - h
                down = bce_loss(net.forward_batch(x), y)
                tensor[idx] = original
                fd[idx] = (up - down) / (2.0 * h)
            grads.append(fd)
    return grads_w, grads_b


def max_tensor_relative_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
        worst = max(worst, np.linalg.norm(a - b) / scale)
    return worst


class TestForward:
    def test_feature_groups_sum_to_one(self):
        rng = np.random.default_rng(0)
        net = initialize_network(toy_shape((2, 3, 4), (5, 4, 3)), seed=1)
        layout = net.shape.group_layout
        for _ in range(50):
            out = net.forward(rng.random(layout.width))
            for feature in range(layout.n_features):
                assert abs(out[group_slice(layout, feature)].sum() - 1.0) < 1e-9
            assert np.all((out > 0.0) & (out < 1.0))

    def test_zero_parameters_give_uniform_groups(self):
        shape = toy_shape((2, 3), (3, 2, 2))
        net = TrainedAutoencoder(
            shape,
            [np.zeros((i, j)) for i, j in zip(shape.layer_dims[:-1], shape.layer_dims[1:])],
            [np.zeros(j) for j in shape.layer_dims[1:]],
            TrainingConfig(),
            rng_seed=0,
        )
        out = net.forward(np.array([1.0, 0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            net = initialize_network(toy_shape((3, 2, 2), (4, 3, 2)), seed=seed)
            x = rng.random(net.shape.input_dim)
            expected = scalar_forward_oracle(net, x)
            np.testing.assert_allclose(net.forward(x), expected, rtol=0, atol=1e-12)

    def test_input_validation(self):
        net = initialize_network(toy_shape(), seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(net.shape.input_dim + 1))
        bad = np.zeros(net.shape.input_dim)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            net.forward(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_batch_rejects_non_finite_input(self, value):
        net = initialize_network(toy_shape(), seed=0)
        batch = np.zeros((3, net.shape.input_dim))
        batch[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            net.forward_batch(batch)
        with pytest.raises(ValueError, match="non-finite"):
            net.forward_batch(np.full((2, net.shape.input_dim), value))

    def test_batch_width_validation(self):
        net = initialize_network(toy_shape(), seed=0)
        with pytest.raises(ValueError):
            net.forward_batch(np.zeros((2, net.shape.input_dim + 1)))
        with pytest.raises(ValueError):
            net.forward_batch(np.zeros(net.shape.input_dim))

    @settings(max_examples=25, deadline=None)
    @given(counts=st.lists(st.integers(1, 5), min_size=2, max_size=6),
           seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 150),
           scale=st.sampled_from([0.1, 1.0, 4.0]))
    def test_batch_rows_are_forward_bit_for_bit(self, counts, seed, n_rows, scale):
        layout = GroupLayout(tuple(counts))
        assume(layout.width >= 3)  # the smallest code size is 2
        rng = np.random.default_rng(seed)
        net = initialize_network(NetworkShape.default_for(layout), seed=seed)
        net.weights = [w + rng.normal(0.0, scale, w.shape) for w in net.weights]
        net.biases = [b + rng.normal(0.0, scale, b.shape) for b in net.biases]
        x = rng.random((n_rows, layout.width))
        x[rng.random(x.shape) < 0.3] = 0.0

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        batch = net.forward_batch(x)
        assert batch.shape == x.shape
        np.testing.assert_array_equal(bits(batch), bits([net.forward(row) for row in x]))
        perm = rng.permutation(n_rows)
        np.testing.assert_array_equal(bits(net.forward_batch(x[perm])), bits(batch[perm]))
        filler = rng.random((63, layout.width))
        for offset in range(64):  # row i of x at place (offset + i) % 64 of its block
            shifted = net.forward_batch(np.vstack([filler[:offset], x]))
            np.testing.assert_array_equal(bits(shifted[offset:]), bits(batch))

    def test_empty_batch(self):
        net = initialize_network(toy_shape(), seed=0)
        empty = np.zeros((0, net.shape.input_dim))
        assert net.forward_batch(empty).shape == empty.shape


class TestShape:
    def test_under_completeness_enforced(self):
        layout = GroupLayout((2, 2))
        with pytest.raises(ValueError, match="code size"):
            NetworkShape(4, (4, 4, 4), (4, 4, 4), layout)

    def test_decoder_must_return_to_input_dim(self):
        layout = GroupLayout((2, 2))
        with pytest.raises(ValueError):
            NetworkShape(4, (3, 2, 2), (2, 3, 5), layout)

    def test_default_shape_scales_with_input(self):
        layout = GroupLayout((4,) * 10)
        shape = NetworkShape.default_for(layout)
        assert shape.encoder_dims == (20, 10, 5)
        assert shape.decoder_dims == (10, 20, 40)
        assert shape.code_size < shape.input_dim


class TestBceLoss:
    def test_near_perfect_reconstruction_is_near_zero(self):
        eps = 1e-12
        assert bce_loss([1 - eps, eps], [1.0, 0.0]) < 1e-10

    def test_uniform_reconstruction_is_ln2(self):
        assert abs(bce_loss([0.5, 0.5], [1.0, 0.0]) - math.log(2)) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            recon = rng.uniform(0.001, 0.999, n)
            target = rng.integers(0, 2, n).astype(float)
            assert abs(bce_loss(recon, target) - scalar_bce_oracle(recon, target)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss([0.5], [1.0, 0.0])


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for seed in range(3):
            net = initialize_network(toy_shape((2, 2, 2), (4, 3, 2)), seed=seed)
            x = rng.random((2, net.shape.input_dim))
            y = rng.random((2, net.shape.input_dim))
            _, gw, gb = loss_gradients(net, x, y)
            fw, fb = finite_difference_grads(net, x, y)
            assert max_tensor_relative_error(gw + gb, fw + fb) < 1e-4

    def test_loss_value_matches_bce_of_forward(self):
        net = initialize_network(toy_shape(), seed=3)
        rng = np.random.default_rng(4)
        x = rng.random((3, net.shape.input_dim))
        y = rng.random((3, net.shape.input_dim))
        loss, _, _ = loss_gradients(net, x, y)
        assert abs(loss - bce_loss(net.forward_batch(x), y)) < 1e-14


def tiny_matrix(rows=24, counts=(2, 3, 2), seed=0):
    rng = np.random.default_rng(seed)
    layout = GroupLayout(counts)
    data = np.zeros((rows, layout.width))
    for f, count in enumerate(counts):
        picks = rng.integers(0, count, rows)
        data[np.arange(rows), layout.offsets[f] + picks] = 1.0
    return EncodedMatrix(layout, data)


def reference_train(matrix, shape, config):
    """Per-tensor Adam oracle: one moment pair and one update call per
    weight and bias tensor. Returns (weights, biases, final_loss)."""
    rng = np.random.default_rng(config.rng_seed)
    weights, biases = _initial_parameters(shape, rng)

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    data = matrix.data
    n = matrix.n_rows
    epoch_loss = math.nan

    def adam_update(param, grad, m, v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**step)
        v_hat = v / (1.0 - ADAM_BETA2**step)
        param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if config.weight_decay:
            param -= config.learning_rate * config.weight_decay * param

    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            clean = data[idx]
            noisy = np.clip(clean + rng.normal(0.0, config.noise_factor, clean.shape), 0.0, 1.0)
            loss, grads_w, grads_b = oracle_loss_and_grads(weights, biases, shape.group_layout,
                                                           noisy, clean)
            step += 1
            for i in range(6):
                adam_update(weights[i], grads_w[i], m_w[i], v_w[i])
                adam_update(biases[i], grads_b[i], m_b[i], v_b[i])
            loss_sum += loss * len(idx)
        epoch_loss = loss_sum / n
    return weights, biases, epoch_loss


@st.composite
def training_cases(draw):
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    assume(sum(counts) >= 2)
    n_rows = draw(st.integers(1, 150))
    divisors = [d for d in range(1, n_rows + 1) if n_rows % d == 0]
    batch_size = draw(
        st.one_of(
            st.sampled_from(divisors),
            st.integers(1, n_rows),
            st.integers(n_rows + 1, n_rows + 64),
        )
    )
    layout = GroupLayout(counts)
    code = draw(st.integers(1, layout.width - 1))
    hidden = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    shape = NetworkShape(layout.width, (*hidden, code), (hidden[1], hidden[0], layout.width), layout)
    config = TrainingConfig(
        learning_rate=draw(st.sampled_from([1e-3, 5e-3, 0.05])),
        epochs=draw(st.integers(1, 3)),
        weight_decay=draw(st.sampled_from([0.0, 2e-8, 1e-3])),
        noise_factor=draw(st.sampled_from([0.0, 0.5])),
        batch_size=batch_size,
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )
    matrix = tiny_matrix(n_rows, counts, seed=draw(st.integers(0, 2**32 - 1)))
    return matrix, shape, config


class TestTrain:
    @given(training_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_tensor_adam_reference_bit_for_bit(self, case):
        matrix, shape, config = case
        weights, biases, final_loss = reference_train(matrix, shape, config)
        net = train(matrix, shape, config)
        for got, want in zip(net.weights + net.biases, weights + biases, strict=True):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert net.final_loss == final_loss


    def test_memorizing_a_repeated_row_reduces_loss(self):
        layout = GroupLayout((2, 3))
        row = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        matrix = EncodedMatrix(layout, np.tile(row, (32, 1)))
        shape = NetworkShape(5, (4, 3, 2), (3, 4, 5), layout)
        config = TrainingConfig(epochs=1, rng_seed=0, noise_factor=0.2)
        first = train(matrix, shape, config)
        config_long = TrainingConfig(epochs=30, rng_seed=0, noise_factor=0.2)
        longer = train(matrix, shape, config_long)
        assert longer.final_loss < first.final_loss

    def test_training_is_deterministic(self):
        matrix = tiny_matrix()
        shape = NetworkShape.default_for(matrix.layout)
        config = TrainingConfig(epochs=2, rng_seed=11)
        first = train(matrix, shape, config)
        second = train(matrix, shape, config)
        for a, b in zip(first.weights + first.biases, second.weights + second.biases):
            assert np.array_equal(a, b)
        assert first.final_loss == second.final_loss

    def test_layout_mismatch_rejected(self):
        matrix = tiny_matrix(counts=(2, 3, 2))
        wrong = NetworkShape.default_for(GroupLayout((2, 2, 2)))
        with pytest.raises(ValueError):
            train(matrix, wrong)

    def test_empty_matrix_rejected(self):
        matrix = EncodedMatrix(GroupLayout((2,)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            train(matrix, None, TrainingConfig(epochs=1))

    def test_parameters_are_finite(self):
        net = train(tiny_matrix(), None, TrainingConfig(epochs=2, rng_seed=5))
        for tensor in net.weights + net.biases:
            assert np.isfinite(tensor).all()

    def test_training_leaves_the_matrix_unchanged(self):
        matrix = tiny_matrix(rows=40)
        before = matrix.data.tobytes()
        train(matrix, None, TrainingConfig(epochs=2, batch_size=7, rng_seed=3))
        assert matrix.data.tobytes() == before

    def test_non_finite_loss_names_its_step(self):
        # the first update overflows every parameter, so the second step's loss is NaN;
        # errstate keeps numpy's overflow warning from failing the test first
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="at step 2: "):
            train(tiny_matrix(), None, TrainingConfig(learning_rate=1e308))

    def test_epoch_losses_end_with_the_final_loss(self):
        net = train(tiny_matrix(), None, TrainingConfig(epochs=4, rng_seed=6))
        assert len(net.epoch_losses) == 4
        assert net.epoch_losses[-1] == net.final_loss
        single = train(tiny_matrix(), None, TrainingConfig(epochs=1, rng_seed=6))
        assert single.epoch_losses == net.epoch_losses[:1]


class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        net = train(tiny_matrix(), None, TrainingConfig(epochs=1, rng_seed=2))
        path = tmp_path / "model.json"
        save_model(net, path)
        loaded = load_model(path)
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
        x = np.random.default_rng(0).random(net.shape.input_dim)
        assert np.array_equal(net.forward(x), loaded.forward(x))
        assert loaded.config == net.config
        assert loaded.final_loss == net.final_loss

    def test_doc_round_trip(self):
        net = initialize_network(toy_shape(), seed=8)
        clone = model_from_doc(model_to_doc(net))
        assert clone.shape == net.shape

    def test_training_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(noise_factor=-0.1)
