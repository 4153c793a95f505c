"""Variational circuit classifier: angle embedding, entangling layers,
Pauli-Z readout, cross-entropy training via the parameter-shift rule.

Circuit shape: RY(x_i) embeds the (pre-scaled) features, then each of L
layers applies one RY rotation per qubit followed by the CNOT ring
0->1->...->n-1->0 (a single qubit has no ring pair).

The layers rotate about Y because an RZ layer is diagonal and CNOTs only
permute basis states, so Z readout and the loss would not depend on the
parameters at all.

Readout: binary problems read one qubit and map z -> (1+z)/2 as the
positive-class probability; C-class problems read C qubits and apply
softmax.  That one map (``_probabilities``) feeds the predictions, the
one cross entropy the model trains on, and its derivative in z.  The
circuit shape is read from the parameters: ``params`` is [layers, qubits].

Every gate here is real, so training evaluates the batch as one float64
[batch, 2**n] amplitude matrix, each gate applied to every row at once by
the simulator's one contraction routine; a unit test pins it to a
per-instance, gate-by-gate reference run on the plain complex simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import Gate, _apply_matrix, _check_size, gate_matrix

#: Probability clamp for the cross entropy.
EPS = 1e-12

#: Half-width of the uniform draw of fresh parameters.
DEFAULT_INIT_SCALE = 0.01

#: Layers of the benchmark's circuit.
BENCH_LAYERS = 4


@dataclass
class QnnArchitecture:
    """Class count and trainable parameters, one row of RY angles per layer."""

    n_classes: int
    params: np.ndarray

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=float)
        if self.params.ndim != 2 or self.params.shape[0] < 1:
            raise ValueError(
                f"params must be a [layers, qubits] array with at least one layer, "
                f"got shape {self.params.shape}"
            )
        # The batch path holds a [batch, 2**n] stack, so the simulator's
        # register limit applies here too.
        _check_size(self.n_qubits)
        if self.n_classes < 2:
            raise ValueError(f"need at least two classes, got {self.n_classes}")
        if self.n_classes > 2 and self.n_classes > self.n_qubits:
            raise ValueError(
                f"{self.n_classes} classes need {self.n_classes} readout qubits "
                f"but only {self.n_qubits} are available"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError("params contain non-finite values")

    @property
    def n_layers(self) -> int:
        return self.params.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.params.shape[1]

    @property
    def n_readout(self) -> int:
        """Binary problems read a single qubit; C-class problems read C."""
        return 1 if self.n_classes == 2 else self.n_classes

    def with_params(self, params: np.ndarray) -> "QnnArchitecture":
        return QnnArchitecture(self.n_classes, params)


def _check_type(name: str, value, real: bool = False) -> None:
    """Raise TypeError unless ``value`` is an int, or with ``real`` a real."""
    # bool subclasses int, but True is not a count or a rate.
    if isinstance(value, bool) or not isinstance(value, (int, float) if real else int):
        raise TypeError(f"{name} must be {'a real' if real else 'an int'}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient descent settings."""

    learning_rate: float = 0.3
    epochs: int = 100

    def __post_init__(self) -> None:
        _check_type("learning_rate", self.learning_rate, real=True)
        _check_type("epochs", self.epochs)
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")


def init_architecture(
    n_qubits: int,
    n_layers: int,
    n_classes: int,
    seed: int = 0,
    init_scale: float = DEFAULT_INIT_SCALE,
) -> QnnArchitecture:
    """Fresh architecture with parameters ~ uniform(-init_scale, init_scale),
    from an int of at least one layer and a positive, finite real scale."""
    _check_type("n_layers", n_layers)
    _check_type("init_scale", init_scale, real=True)
    if n_layers < 1:
        raise ValueError(f"need at least one layer, got {n_layers}")
    if not 0.0 < init_scale < math.inf:
        raise ValueError(f"init scale must be positive and finite, got {init_scale}")
    rng = np.random.default_rng(seed)
    params = rng.uniform(-init_scale, init_scale, size=(n_layers, n_qubits))
    return QnnArchitecture(n_classes, params)


def _entangle_pairs(n_qubits: int) -> list[tuple[int, int]]:
    """CNOT ring 0->1->...->n-1->0; a single qubit has no pair."""
    return [(i, (i + 1) % n_qubits) for i in range(n_qubits)] if n_qubits > 1 else []


def _embed_batch(X: np.ndarray, n_qubits: int) -> np.ndarray:
    """RY(x_i)|0> per qubit, as a real [batch, 2**n] product-state stack."""
    X = np.asarray(X, dtype=float)
    amps = np.ones((X.shape[0], 1))
    for i in range(n_qubits):
        half = X[:, i] / 2.0
        qubit = np.stack([np.cos(half), np.sin(half)], axis=1)
        amps = (amps[:, :, None] * qubit[:, None, :]).reshape(X.shape[0], -1)
    return amps


def _forward_batch(arch: QnnArchitecture, X: np.ndarray) -> np.ndarray:
    """Readout Z expectations for a whole batch: [batch, n_readout]."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arch.n_qubits:
        raise ValueError(
            f"expected a [batch, {arch.n_qubits}] feature matrix, got shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite values")
    n = arch.n_qubits
    amps = _embed_batch(X, n)
    cnot = gate_matrix(Gate.CNOT).real
    for layer in range(arch.n_layers):
        for qubit, half in enumerate(arch.params[layer] / 2.0):
            c, s = math.cos(half), math.sin(half)
            amps = _apply_matrix(amps, np.array([[c, -s], [s, c]]), (qubit,))
        for pair in _entangle_pairs(n):
            amps = _apply_matrix(amps, cnot, pair)
    probs = amps**2
    indices = np.arange(2**n)
    z = np.empty((X.shape[0], arch.n_readout))
    for q in range(arch.n_readout):
        sign = 1.0 - 2.0 * ((indices >> (n - 1 - q)) & 1)
        z[:, q] = probs @ sign
    return z


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input contains non-finite values")
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _probabilities(arch: QnnArchitecture, z: np.ndarray) -> np.ndarray:
    """Class probabilities [batch, n_classes] from readout expectations z."""
    if arch.n_classes == 2:
        p_one = np.clip((1.0 + z[:, 0]) / 2.0, 0.0, 1.0)
        return np.stack([1.0 - p_one, p_one], axis=1)
    return softmax(z)


def _cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """Mean cross entropy of the true classes' probabilities, clamped at EPS."""
    return float(-np.mean(np.log(np.clip(p[np.arange(y.size), y], EPS, 1.0))))


def predict_proba(arch: QnnArchitecture, X: np.ndarray) -> np.ndarray:
    """Class probabilities, shape [batch, n_classes]."""
    return _probabilities(arch, _forward_batch(arch, X))


def batch_loss(arch: QnnArchitecture, X: np.ndarray, y: np.ndarray) -> float:
    """Cross-entropy loss of the batch."""
    y = np.asarray(y, dtype=int)
    _check_labels(arch, X, y)
    return _cross_entropy(_probabilities(arch, _forward_batch(arch, X)), y)


def _check_labels(arch: QnnArchitecture, X: np.ndarray, y: np.ndarray) -> None:
    X = np.asarray(X)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{y.shape[0]} labels for {X.shape[0]} rows")
    if y.size and (y.min() < 0 or y.max() >= arch.n_classes):
        raise ValueError(
            f"labels must lie in [0, {arch.n_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )


def _loss_grad_wrt_z(arch: QnnArchitecture, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dLoss/dz per instance and readout qubit (analytic chain rule)."""
    batch = z.shape[0]
    p = _probabilities(arch, z)
    if arch.n_classes == 2:
        p_one = p[:, 1]
        # Inside the clamp window the derivative is (p-y)/(p(1-p)) * dp/dz;
        # outside it the loss is clamped, or within EPS of zero, and flat.
        active = (p_one > EPS) & (p_one < 1.0 - EPS)
        p_safe = np.clip(p_one, EPS, 1.0 - EPS)
        grad = (p_safe - y) / (p_safe * (1.0 - p_safe)) * 0.5 / batch
        return np.where(active, grad, 0.0)[:, None]
    p[np.arange(batch), y] -= 1.0
    return p / batch


def gradient(arch: QnnArchitecture, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dLoss/dparams via the parameter-shift rule.

    Each rotation parameter theta gets dz/dtheta = (z(theta + pi/2) -
    z(theta - pi/2)) / 2, combined with the analytic loss derivative with
    respect to the readout expectations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_labels(arch, X, y)
    dldz = _loss_grad_wrt_z(arch, _forward_batch(arch, X), y)
    grad = np.zeros_like(arch.params)
    for layer in range(arch.n_layers):
        for qubit in range(arch.n_qubits):
            shifted = arch.params.copy()
            shifted[layer, qubit] += math.pi / 2.0
            z_plus = _forward_batch(arch.with_params(shifted), X)
            shifted[layer, qubit] -= math.pi
            z_minus = _forward_batch(arch.with_params(shifted), X)
            dz = (z_plus - z_minus) / 2.0
            grad[layer, qubit] = float((dldz * dz).sum())
    return grad


def train(
    arch: QnnArchitecture,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
) -> tuple[QnnArchitecture, list[float]]:
    """Full-batch gradient descent; returns the trained model + loss history.

    The history holds the loss after each epoch's update (length = epochs).
    Deterministic: nothing here draws randomness, so the result depends
    only on the inputs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    _check_labels(arch, X, y)
    params = arch.params.copy()
    history: list[float] = []
    current = arch.with_params(params)
    for epoch in range(cfg.epochs):
        grad = gradient(current, X, y)
        params = params - cfg.learning_rate * grad
        current = current.with_params(params)
        loss = batch_loss(current, X, y)
        if not math.isfinite(loss):
            raise RuntimeError(
                f"training diverged: loss became {loss} at epoch {epoch} "
                f"(learning rate {cfg.learning_rate})"
            )
        history.append(loss)
    return current, history
