"""Variational classifier tests: circuit semantics, losses, gradients,
and end-to-end training."""

import math

import numpy as np
import pytest

from qknn import qnn
from qknn.qnn import (
    EPS,
    QnnArchitecture,
    TrainConfig,
    _cross_entropy,
    _embed_batch,
    _forward_batch,
    _loss_grad_wrt_z,
    _probabilities,
    batch_loss,
    gradient,
    init_architecture,
    predict_proba,
    softmax,
    train,
)
from qknn.sim import MAX_QUBITS, Gate, ResourceLimitError, _apply_matrix, gate_matrix

from oracles import (
    bce_loss,
    cce_loss,
    finite_difference_gradient,
    onehot,
    qnn_forward,
    qnn_loss_grad_wrt_z,
    qnn_train_history,
)


def arch_with(params, n_classes=2):
    return QnnArchitecture(n_classes, np.atleast_2d(np.asarray(params, dtype=float)))


class TestArchitecture:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            arch_with(np.zeros((1, 0)))
        with pytest.raises(ValueError, match="at least two classes"):
            arch_with([[0.0]], n_classes=1)
        with pytest.raises(ValueError, match="readout"):
            QnnArchitecture(3, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            arch_with([[np.nan]])

    @pytest.mark.parametrize("shape", [(0, 2), (2,), (1, 2, 2)])
    def test_params_must_be_layers_by_qubits(self, shape):
        with pytest.raises(ValueError, match=r"\[layers, qubits\].*at least one layer"):
            QnnArchitecture(2, np.zeros(shape))

    def test_shape_is_read_from_the_params(self):
        arch = QnnArchitecture(3, np.zeros((2, 4)))
        assert (arch.n_layers, arch.n_qubits) == (2, 4)
        wider = arch.with_params(np.zeros((1, 5)))
        assert (wider.n_layers, wider.n_qubits, wider.n_classes) == (1, 5, 3)

    def test_readout_width(self):
        assert arch_with(np.zeros((1, 3)), n_classes=2).n_readout == 1
        assert arch_with(np.zeros((1, 3)), n_classes=3).n_readout == 3

    def test_init_bounds_and_determinism(self):
        a = init_architecture(3, 2, 2, seed=7, init_scale=0.05)
        b = init_architecture(3, 2, 2, seed=7, init_scale=0.05)
        assert np.array_equal(a.params, b.params)
        assert np.all(np.abs(a.params) <= 0.05)
        assert a.params.shape == (2, 3)

    def test_register_beyond_the_simulator_limit_is_rejected(self):
        # Raised in validation, before any [batch, 2**n] stack exists.
        n = MAX_QUBITS + 1
        with pytest.raises(ResourceLimitError, match=f"{n} qubits") as info:
            init_architecture(n, 1, 2)
        # The limit is fixed, so the error names no setting to raise it.
        assert "max_qubits" not in str(info.value)


class TestForward:
    def test_zero_input_zero_params_reads_plus_one(self):
        # |0> is untouched by RY(0) and CNOTs, so <Z> = +1
        arch = arch_with(np.zeros((2, 2)))
        z = _forward_batch(arch, np.zeros((1, 2)))[0]
        np.testing.assert_allclose(z, [1.0], atol=1e-12)

    def test_pi_embedding_flips_the_qubit(self):
        # RY(pi)|0> = |1> on a single qubit: <Z> = -1
        arch = arch_with([[0.0]])
        z = _forward_batch(arch, np.array([[math.pi]]))[0]
        assert z[0] == pytest.approx(-1.0, abs=1e-12)

    def test_expectations_stay_in_range(self, rng):
        arch = init_architecture(3, 2, 3, seed=3, init_scale=2.0)
        z = _forward_batch(arch, rng.uniform(0, math.pi, size=(10, 3)))
        assert np.all(np.abs(z) <= 1.0 + 1e-12)

    def test_two_qubit_dense_oracle(self, rng):
        # independent dense realization of embed + RY layer + ring CNOTs
        params = rng.normal(size=(1, 2))
        x = rng.uniform(0, math.pi, 2)
        arch = arch_with(params)

        def ry(theta):
            return gate_matrix(Gate.RY, theta)

        state = np.kron(ry(x[0]) @ [1, 0], ry(x[1]) @ [1, 0])
        layer = np.kron(ry(params[0, 0]), ry(params[0, 1]))
        cnot01 = gate_matrix(Gate.CNOT)
        swap = np.eye(4)[[0, 2, 1, 3]]
        cnot10 = swap @ cnot01 @ swap  # control on qubit 1, target on qubit 0
        state = cnot10 @ (cnot01 @ (layer @ state))
        probs = np.abs(state) ** 2
        expected_z0 = probs[0] + probs[1] - probs[2] - probs[3]
        z = _forward_batch(arch, x[None, :])[0]
        assert z[0] == pytest.approx(expected_z0, abs=1e-12)

    def test_batch_path_matches_per_instance_path(self, rng):
        # the training fast path must agree with the plain simulator, with
        # and without a ring pair and with several readout qubits
        for n_qubits, n_classes in ((1, 2), (2, 2), (3, 3), (4, 2)):
            arch = init_architecture(n_qubits, 2, n_classes, seed=11, init_scale=1.5)
            X = rng.uniform(0, math.pi, size=(5, n_qubits))
            batch = _forward_batch(arch, X)
            for i, x in enumerate(X):
                np.testing.assert_allclose(batch[i], qnn_forward(arch, x), atol=1e-12)

    def test_batch_shape_validation(self):
        arch = arch_with(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="feature matrix"):
            _forward_batch(arch, np.zeros((3, 5)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        arch = arch_with(np.zeros((1, 2)))
        X = np.array([[value, 0.1], [0.2, 0.3]])
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="non-finite"):
            predict_proba(arch, X)
        with pytest.raises(ValueError, match="non-finite"):
            batch_loss(arch, X, y)
        with pytest.raises(ValueError, match="non-finite"):
            gradient(arch, X, y)


class TestRealStack:
    """Every matrix of the circuit is real, so the stack runs in float64."""

    def test_embedding_forward_and_gradient_stay_float64(self, rng, monkeypatch):
        arch = init_architecture(3, 2, 3, seed=4, init_scale=1.0)
        X = rng.uniform(0, math.pi, size=(6, 3))
        y = np.array([0, 1, 2, 0, 1, 2])
        assert _embed_batch(X, 3).dtype == np.float64
        dtypes = []

        def recording(amps, matrix, targets):
            out = _apply_matrix(amps, matrix, targets)
            dtypes.extend((amps.dtype, matrix.dtype, out.dtype))
            return out

        monkeypatch.setattr(qnn, "_apply_matrix", recording)
        assert _forward_batch(arch, X).dtype == np.float64
        gradient(arch, X, y)
        batch_loss(arch, X, y)
        # 2 layers x (3 RY + 3 CNOT) per forward; the gradient runs
        # 1 + 2 * 2 * 3 forwards and the loss one more.
        assert len(dtypes) == 3 * 12 * (1 + 13 + 1)
        assert all(dtype == np.float64 for dtype in dtypes)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_loss_history_matches_the_per_instance_oracle(self, rng, n_classes):
        X = rng.uniform(0, math.pi, size=(12, 3))
        y = np.arange(12) % n_classes
        arch = init_architecture(3, 2, n_classes, seed=5, init_scale=0.5)
        _, history = train(arch, X, y, TrainConfig(learning_rate=0.3, epochs=3))
        expected = qnn_train_history(arch, X, y, learning_rate=0.3, epochs=3)
        assert len(history) == 3
        np.testing.assert_allclose(history, expected, rtol=0, atol=1e-12)


class TestLosses:
    def test_softmax_examples(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-12)
        p = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-12)

    def test_softmax_shift_invariance_and_stability(self):
        z = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-12)
        big = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(big).all()
        with pytest.raises(ValueError, match="non-finite"):
            softmax(np.array([np.inf, 0.0]))

    def test_binary_known_values(self):
        # z = 0 reads p = 1/2: either label costs ln 2
        arch = arch_with([[0.0]])
        p = _probabilities(arch, np.zeros((2, 1)))
        np.testing.assert_array_equal(p, [[0.5, 0.5], [0.5, 0.5]])
        assert _cross_entropy(p, np.array([0, 1])) == pytest.approx(math.log(2))
        # RY(pi/2)|0> reads z ~ 0 through the whole batch path
        loss = batch_loss(arch, np.array([[math.pi / 2]]), np.array([1]))
        assert loss == pytest.approx(math.log(2))

    def test_multiclass_known_values(self):
        arch = arch_with(np.zeros((1, 3)), n_classes=3)
        uniform = _probabilities(arch, np.zeros((1, 3)))
        assert _cross_entropy(uniform, np.array([0])) == pytest.approx(math.log(3))
        assert _cross_entropy(np.array([[1.0, 0.0, 0.0]]), np.array([0])) == 0.0

    def test_perfect_prediction_costs_nothing(self):
        # |0> reads z = +1, so p(class 1) = 1
        arch = arch_with([[0.0]])
        assert batch_loss(arch, np.zeros((1, 1)), np.array([1])) == 0.0


class TestOneReadout:
    """The one readout map and cross entropy give the bits the separate
    binary and categorical losses of ``oracles`` gave."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_loss_and_gradient_match_the_two_loss_reference(self, rng, n_classes, monkeypatch):
        for case in range(20):
            arch = init_architecture(3, 2, n_classes, seed=case, init_scale=1.0)
            X = rng.uniform(0, math.pi, size=(7, 3))
            y = rng.integers(0, n_classes, size=7)
            z = _forward_batch(arch, X)
            if n_classes == 2:
                p_one = (1.0 + z[:, 0]) / 2.0
                assert np.all((p_one > 1e-6) & (p_one < 1 - 1e-6))
                expected = bce_loss(y, p_one)
            else:
                expected = cce_loss(onehot(y, n_classes), softmax(z))
            assert batch_loss(arch, X, y) == expected
            dldz = _loss_grad_wrt_z(arch, z, y)
            assert dldz.tobytes() == qnn_loss_grad_wrt_z(arch, z, y).tobytes()
            grad = gradient(arch, X, y)
            with monkeypatch.context() as patch:
                patch.setattr(qnn, "_loss_grad_wrt_z", qnn_loss_grad_wrt_z)
                assert grad.tobytes() == gradient(arch, X, y).tobytes()

    @pytest.mark.parametrize("p_one, y", [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)])
    def test_clamped_extremes_stay_finite(self, p_one, y):
        # RY(pi)|0> = |1> reads z = -1 and |0> reads z = +1, putting p(class 1)
        # at 0 and 1, where both clamps act.
        arch = arch_with([[0.0]])
        X = np.array([[math.pi if p_one == 0.0 else 0.0]])
        z = _forward_batch(arch, X)
        assert z[0, 0] == 2.0 * p_one - 1.0
        labels = np.array([y])
        loss, expected = batch_loss(arch, X, labels), bce_loss(labels, [p_one])
        assert math.isfinite(loss) and math.isfinite(expected)
        if p_one != y:
            # A confident miss costs the clamp, -log(EPS), on either class.
            assert loss == -math.log(EPS)
        if p_one == y or y == 1:
            assert abs(loss - expected) <= 1e-12
        else:
            # On class 0 the reference clamps p to fl(1 - EPS) and takes
            # log(1 - p) = log(0.99998 * EPS), where the one cross entropy
            # clamps 1 - p to EPS itself.
            assert loss == pytest.approx(expected, rel=1e-6)
        dldz = _loss_grad_wrt_z(arch, z, labels)
        assert np.array_equal(dldz, qnn_loss_grad_wrt_z(arch, z, labels))
        assert np.all(dldz == 0.0)


class TestPredict:
    def test_binary_probabilities_complement(self, rng):
        arch = init_architecture(2, 2, 2, seed=5, init_scale=1.0)
        p = predict_proba(arch, rng.uniform(0, math.pi, size=(6, 2)))
        assert p.shape == (6, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)

    def test_multiclass_probabilities_normalized(self, rng):
        arch = init_architecture(3, 2, 3, seed=5, init_scale=1.0)
        p = predict_proba(arch, rng.uniform(0, math.pi, size=(4, 3)))
        assert p.shape == (4, 3)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_label_validation(self):
        arch = arch_with(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="labels"):
            batch_loss(arch, np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError, match="labels for"):
            batch_loss(arch, np.zeros((2, 2)), np.array([0]))


class TestGradient:
    @pytest.mark.parametrize(
        "n_qubits,n_layers,n_classes",
        [(1, 1, 2), (2, 2, 2), (3, 1, 3), (4, 2, 2)],
        ids=["1-1-2-ring", "2-2-2-ring", "3-1-3-ring", "4-2-2-ring"],
    )
    def test_parameter_shift_matches_finite_differences(
        self, n_qubits, n_layers, n_classes, rng
    ):
        arch = init_architecture(n_qubits, n_layers, n_classes, seed=9, init_scale=0.8)
        X = rng.uniform(0, math.pi, size=(6, n_qubits))
        y = rng.integers(0, n_classes, size=6)
        y[:n_classes] = np.arange(n_classes)
        analytic = gradient(arch, X, y)

        def loss_fn(params):
            return batch_loss(arch.with_params(params), X, y)

        numeric = finite_difference_gradient(loss_fn, arch.params)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_duplicate_rows_double_nothing(self, rng):
        # mean losses: duplicating the batch leaves loss and gradient alone
        arch = init_architecture(2, 1, 2, seed=4, init_scale=0.5)
        X = rng.uniform(0, math.pi, size=(3, 2))
        y = np.array([0, 1, 1])
        X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
        assert batch_loss(arch, X, y) == pytest.approx(batch_loss(arch, X2, y2), abs=1e-12)
        np.testing.assert_allclose(
            gradient(arch, X, y), gradient(arch, X2, y2), atol=1e-12
        )


def two_blobs(rng, n_per=12):
    a = rng.normal([0.6, 0.6], 0.25, size=(n_per, 2))
    b = rng.normal([2.4, 2.4], 0.25, size=(n_per, 2))
    X = np.clip(np.vstack([a, b]), 0.0, math.pi)
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


class TestTraining:
    def test_loss_decreases_on_separable_blobs(self, rng):
        X, y = two_blobs(rng)
        arch = init_architecture(2, 2, 2, seed=0, init_scale=0.01)
        cfg = TrainConfig(learning_rate=0.5, epochs=60)
        trained, history = train(arch, X, y, cfg)
        assert len(history) == 60
        assert history[-1] < history[0]
        accuracy = float(np.mean(np.argmax(predict_proba(trained, X), axis=1) == y))
        assert accuracy >= 0.9

    def test_history_is_mostly_monotone(self, rng):
        X, y = two_blobs(rng)
        arch = init_architecture(2, 2, 2, seed=0, init_scale=0.01)
        _, history = train(arch, X, y, TrainConfig(learning_rate=0.3, epochs=50))
        rises = sum(1 for a, b in zip(history, history[1:]) if b > a + 1e-12)
        assert rises <= 5

    def test_zero_epochs_returns_initial_params(self, rng):
        X, y = two_blobs(rng, n_per=4)
        arch = init_architecture(2, 1, 2, seed=1)
        trained, history = train(arch, X, y, TrainConfig(epochs=0))
        assert history == []
        assert np.array_equal(trained.params, arch.params)

    def test_training_is_deterministic(self, rng):
        X, y = two_blobs(rng, n_per=6)
        arch = init_architecture(2, 1, 2, seed=2)
        cfg = TrainConfig(learning_rate=0.2, epochs=8)
        t1, h1 = train(arch, X, y, cfg)
        t2, h2 = train(arch, X, y, cfg)
        assert h1 == h2
        assert np.array_equal(t1.params, t2.params)

    def test_three_class_training_runs(self, rng):
        centers = np.array([[0.5, 0.5, 0.5], [1.5, 2.5, 1.0], [2.8, 0.8, 2.2]])
        X = np.clip(
            np.vstack([rng.normal(c, 0.2, size=(8, 3)) for c in centers]), 0, math.pi
        )
        y = np.repeat(np.arange(3), 8)
        arch = init_architecture(3, 2, 3, seed=3, init_scale=0.05)
        trained, history = train(arch, X, y, TrainConfig(learning_rate=0.4, epochs=40))
        assert history[-1] < history[0]
        assert float(np.mean(np.argmax(predict_proba(trained, X), axis=1) == y)) > 0.5

    def test_config_validation(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning rate"):
                TrainConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="init scale"):
                init_architecture(2, 1, 2, init_scale=bad)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)

    # True used to run as 1 epoch or layer and 2.0 to fail deep inside
    # train or init_architecture; a bool rate or scale ran as 1.0.
    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_epochs_must_be_an_int(self, bad):
        with pytest.raises(TypeError, match=rf"epochs must be an int, got {bad!r}"):
            TrainConfig(epochs=bad)

    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_n_layers_must_be_an_int(self, bad):
        with pytest.raises(TypeError, match=rf"n_layers must be an int, got {bad!r}"):
            init_architecture(2, bad, 2)

    @pytest.mark.parametrize("bad", [True, "0.3", None])
    def test_learning_rate_must_be_a_real(self, bad):
        with pytest.raises(TypeError, match=rf"learning_rate must be a real, got {bad!r}"):
            TrainConfig(learning_rate=bad)
        assert TrainConfig(learning_rate=1).learning_rate == 1

    @pytest.mark.parametrize("bad", [True, "0.3", None])
    def test_init_scale_must_be_a_real(self, bad):
        with pytest.raises(TypeError, match=rf"init_scale must be a real, got {bad!r}"):
            init_architecture(2, 1, 2, init_scale=bad)
        assert init_architecture(2, 1, 2, init_scale=1).params.shape == (1, 2)

    def test_init_needs_at_least_one_layer(self):
        with pytest.raises(ValueError, match="need at least one layer, got 0"):
            init_architecture(2, 0, 2)
