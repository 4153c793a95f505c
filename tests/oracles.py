"""Independent reference constructions used to pin implementation results.

Everything here is deliberately written with a different technique than
the library code: dense operators are assembled by explicit bit
arithmetic or from a Kronecker product and a basis permutation instead of
axis reshuffling, AUC is integrated from an ROC curve instead of ranked,
chi-square tables are accumulated with plain Python loops, gradients come
from finite differences, and the exact one-qubit Pauli channel is a Kraus
sum over literal Pauli matrices.  The exceptions are reference paths that
the library once had and now only tests use:

* ``moveaxis_apply_matrix`` and ``choice_sample_basis``, the simulator's
  earlier gate contraction and shot sampler, which the current ones must
  match bit for bit;
* ``tensor_product``, the simulator's earlier register join, which built
  the swap-test register as (|0> (x) a) (x) b before ``swap_test_state``
  wrote a (x) b into one zeroed vector;
* ``qnn_forward``, the variational circuit run one instance at a time,
  gate by gate on the simulator from ``angle_embed`` to ``z_expectation``,
  which the batched ``qnn._forward_batch`` must match, and
  ``qnn_train_history``, full-batch parameter-shift training whose every
  forward is ``qnn_forward``, which ``qnn.train``'s loss history must match;
* ``quantum_distance``, the swap-test distance of one pair, exact from
  ``state_fidelity`` (an ``inner_product``) or sampled from the assembled
  swap-test circuit, and ``ancilla_zero_probability``, its exact marginal;
* ``regularized_gamma_q``, the upper incomplete gamma function by power
  series or Lentz's continued fraction, which the closed-form
  ``data.chi_square_sf`` must match at Q(dof/2, statistic/2).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qknn.classifier import (
    DEFAULT_SHOTS,
    DISTANCE_MODES,
    _sampled_ancilla_zero,
    swap_test_state,
)
from qknn.encoding import EncodedPoint
from qknn.noise import NoiseKind, NoiseSpec, apply_pauli_errors, sample_errors
from qknn.qnn import QnnArchitecture
from qknn.sim import Gate, GateOp, StateVector, apply_gate, new_zero_state

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Kraus weights of each channel, per applied Pauli; the rest stays rho.
_CHANNEL_WEIGHTS = {
    NoiseKind.BIT_FLIP: {"X": 1.0},
    NoiseKind.PHASE_FLIP: {"Z": 1.0},
    NoiseKind.BIT_PHASE_FLIP: {"Y": 1.0},
    NoiseKind.MIXED_PAULI: {"X": 1.0 / 3.0, "Y": 1.0 / 3.0, "Z": 1.0 / 3.0},
}


def dense_operator(gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a small gate matrix into the full 2**n operator.

    Basis convention: qubit 0 is the most significant bit.  Entry
    (row, col) is <row|U|col>; it is the gate entry addressed by the
    target-qubit bits of row/col when all other bits agree, else 0.
    """
    dim = 2**n
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(n) if q not in targets]
    for col in range(dim):
        col_sub = 0
        for t in targets:
            col_sub = (col_sub << 1) | ((col >> (n - 1 - t)) & 1)
        for row_sub in range(2**k):
            row = col
            for pos, t in enumerate(targets):
                bit = (row_sub >> (k - 1 - pos)) & 1
                mask = 1 << (n - 1 - t)
                row = (row & ~mask) | (bit * mask)
            full[row, col] = gate[row_sub, col_sub]
    # sanity: untouched qubits must be untouched
    assert all((q in targets) or (q in others) for q in range(n))
    return full


def apply_dense(
    amplitudes: np.ndarray, gate: np.ndarray, targets: tuple[int, ...], n: int
) -> np.ndarray:
    return dense_operator(gate, targets, n) @ amplitudes


def moveaxis_apply_matrix(
    amplitudes: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """The simulator's earlier gate contraction, kept as a bitwise reference:
    np.moveaxis brings the targets to the front and takes them back."""
    k = len(targets)
    tensor = amplitudes.reshape((2,) * num_qubits)
    moved = np.moveaxis(tensor, targets, tuple(range(k)))
    block = moved.reshape(2**k, -1)
    out = (matrix @ block).reshape((2,) * num_qubits)
    out = np.moveaxis(out, tuple(range(k)), targets)
    return np.ascontiguousarray(out).reshape(2**num_qubits)


def choice_sample_basis(
    state: StateVector, shots: int, seed: int | np.random.Generator
) -> np.ndarray:
    """The simulator's earlier shot sampler, kept as a bitwise reference:
    one ``Generator.choice`` draw per shot, counted per basis index.  A
    Generator ``seed`` is drawn from as it is, as ``sample_basis`` does."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = state.probabilities()
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"state is not normalised (sum of probabilities = {total})")
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs / total)
    return np.bincount(outcomes, minlength=probs.size)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Join two registers; the qubits of ``a`` become the high-order qubits."""
    joint = np.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return StateVector(a.num_qubits + b.num_qubits, joint)


def kron_operator(gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Full 2**n operator as P^T (gate kron I) P.

    ``gate kron I`` acts on the basis ordered with the targets as the high
    bits; P is the permutation matrix that maps each basis index to that
    order, built bit by bit.
    """
    k = len(targets)
    order = list(targets) + [q for q in range(n) if q not in targets]
    perm = np.zeros((2**n, 2**n))
    for index in range(2**n):
        moved = 0
        for q in order:
            moved = (moved << 1) | ((index >> (n - 1 - q)) & 1)
        perm[moved, index] = 1.0
    return perm.T @ np.kron(gate, np.eye(2 ** (n - k))) @ perm


def trapezoid_auc(y_positive: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve by explicit threshold sweep + trapezoids."""
    y_positive = np.asarray(y_positive, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(y_positive.sum())
    n_neg = int((~y_positive).sum())
    thresholds = np.unique(scores)[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        predicted = scores >= t
        tpr = (predicted & y_positive).sum() / n_pos
        fpr = (predicted & ~y_positive).sum() / n_neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def chi2_bruteforce(
    column: np.ndarray, labels: np.ndarray, n_classes: int, bins: int
) -> tuple[float, int]:
    """Chi-square statistic and dof from a hand-built contingency table."""
    lo = min(column)
    hi = max(column)
    if hi <= lo:
        return 0.0, 0
    width = (hi - lo) / bins
    counts: dict[tuple[int, int], int] = {}
    for value, label in zip(column, labels):
        b = int((value - lo) / width)
        if b >= bins:
            b = bins - 1
        counts[(b, int(label))] = counts.get((b, int(label)), 0) + 1
    occupied_bins = sorted({b for b, _ in counts})
    occupied_classes = sorted({c for _, c in counts})
    total = sum(counts.values())
    row_totals = {
        b: sum(counts.get((b, c), 0) for c in occupied_classes) for b in occupied_bins
    }
    col_totals = {
        c: sum(counts.get((b, c), 0) for b in occupied_bins) for c in occupied_classes
    }
    statistic = 0.0
    for b in occupied_bins:
        for c in occupied_classes:
            expected = row_totals[b] * col_totals[c] / total
            observed = counts.get((b, c), 0)
            statistic += (observed - expected) ** 2 / expected
    dof = (len(occupied_bins) - 1) * (len(occupied_classes) - 1)
    return statistic, dof


def _regularized_gamma_p_series(s: float, x: float) -> float:
    # Lower regularized gamma by power series; converges fast for x < s + 1.
    term = 1.0 / s
    total = term
    k = s
    for _ in range(10_000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _regularized_gamma_q_contfrac(s: float, x: float) -> float:
    # Upper regularized gamma by Lentz's continued fraction; for x >= s + 1.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h


def regularized_gamma_q(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) for s > 0, x >= 0."""
    if s <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _regularized_gamma_p_series(s, x)
    return _regularized_gamma_q_contfrac(s, x)


def finite_difference_gradient(loss_fn, params: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function of a parameter array."""
    grad = np.zeros_like(params)
    it = np.nditer(params, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = params.copy()
        plus[idx] += h
        minus = params.copy()
        minus[idx] -= h
        grad[idx] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
        it.iternext()
    return grad


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random normalized amplitude vector."""
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def run_trajectory_batch(
    state: StateVector,
    spec: NoiseSpec,
    qubits: Sequence[int],
    shots: int,
    seed: int,
) -> np.ndarray:
    """Density matrix averaged over ``shots`` trajectories of the library's
    error draws; deterministic per seed."""
    rng = np.random.default_rng(seed)
    dim = 2**state.num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for _ in range(shots):
        amps = apply_pauli_errors(state, sample_errors(spec, qubits, rng)).amplitudes
        rho += np.outer(amps, amps.conj())
    return rho / shots


def expected_density_effect(spec: NoiseSpec, state: StateVector) -> np.ndarray:
    """Exact output density matrix of the channel on a one-qubit state:
    (1 - p) rho + p * sum_K w_K K rho K^dagger."""
    if state.num_qubits != 1:
        raise ValueError(
            f"exact channel action is only provided for 1 qubit, got {state.num_qubits}"
        )
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    out = (1.0 - spec.p) * rho
    for pauli, weight in _CHANNEL_WEIGHTS[spec.kind].items():
        k = _PAULI[pauli]
        out = out + spec.p * weight * (k @ rho @ k.conj().T)
    return out


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"register sizes differ: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    return abs(inner_product(a, b)) ** 2


def z_expectation(state: StateVector, qubit: int) -> float:
    """Expectation of Pauli-Z on one qubit: P(bit=0) - P(bit=1)."""
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    probs = state.probabilities()
    indices = np.arange(probs.size)
    bits = (indices >> (state.num_qubits - 1 - qubit)) & 1
    return float(probs[bits == 0].sum() - probs[bits == 1].sum())


def angle_embed(x: np.ndarray, n_qubits: int) -> StateVector:
    """RY-rotate each qubit by its feature value: amplitude-balance encoding."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != n_qubits:
        raise ValueError(
            f"expected {n_qubits} features for {n_qubits} qubits, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("feature vector contains non-finite values")
    state = new_zero_state(n_qubits)
    for i, value in enumerate(x):
        state = apply_gate(state, GateOp(Gate.RY, (i,), float(value)))
    return state


def qnn_forward(arch: QnnArchitecture, x: np.ndarray) -> np.ndarray:
    """Readout Z expectations of one instance: RY embedding, then per layer
    an RY on every qubit and the CNOT ring 0->1->...->n-1->0, one gate at
    a time on the simulator."""
    n = arch.n_qubits
    ring = [(q, (q + 1) % n) for q in range(n)] if n > 1 else []
    state = angle_embed(np.asarray(x, dtype=float), n)
    for layer in range(arch.n_layers):
        for qubit in range(n):
            state = apply_gate(
                state, GateOp(Gate.RY, (qubit,), float(arch.params[layer, qubit]))
            )
        for control, target in ring:
            state = apply_gate(state, GateOp(Gate.CNOT, (control, target)))
    return np.array([z_expectation(state, q) for q in range(arch.n_readout)])


def qnn_train_history(
    arch: QnnArchitecture, X: np.ndarray, y: np.ndarray, learning_rate: float, epochs: int
) -> list[float]:
    """Loss after each full-batch gradient step, every forward through
    ``qnn_forward``: dz/dtheta by the parameter shift (z(theta + pi/2) -
    z(theta - pi/2)) / 2, and the chain rule through the readout loss
    written out here.  Binary problems map z -> (1+z)/2 into binary cross
    entropy; C-class problems take the softmax into categorical cross
    entropy.  Assumes every probability stays inside the 1e-12 clamp."""
    y = np.asarray(y, dtype=int)
    onehot = np.eye(arch.n_classes)[y]

    def readout(params: np.ndarray) -> np.ndarray:
        shifted = arch.with_params(params)
        return np.array([qnn_forward(shifted, x) for x in X])

    def loss_and_dldz(z: np.ndarray) -> tuple[float, np.ndarray]:
        if arch.n_classes == 2:
            p = (1.0 + z[:, 0]) / 2.0
            loss = -np.mean(y * np.log(p) + (1 - y) * np.log(1.0 - p))
            return float(loss), ((p - y) / (p * (1.0 - p)) / 2.0 / len(y))[:, None]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        loss = -np.mean(np.log(p[np.arange(len(y)), y]))
        return float(loss), (p - onehot) / len(y)

    params = arch.params.copy()
    history = []
    for _ in range(epochs):
        _, dldz = loss_and_dldz(readout(params))
        grad = np.zeros_like(params)
        for idx in np.ndindex(*params.shape):
            plus, minus = params.copy(), params.copy()
            plus[idx] += math.pi / 2.0
            minus[idx] -= math.pi / 2.0
            grad[idx] = float((dldz * (readout(plus) - readout(minus)) / 2.0).sum())
        params = params - learning_rate * grad
        history.append(loss_and_dldz(readout(params))[0])
    return history


def quantum_distance(
    a: EncodedPoint,
    b: EncodedPoint,
    mode: str = "exact",
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> float:
    """Swap-test distance D = 0.5 * (1 + |<a|b>|^2); higher = more similar.

    Exact mode computes D from amplitudes.  Sampled mode measures the
    assembled swap-test circuit, as the classifier's sampled mode does,
    and returns the raw empirical P(ancilla=0).
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"distance mode must be one of {DISTANCE_MODES}, got {mode!r}")
    if mode == "exact":
        return 0.5 * (1.0 + state_fidelity(a.state, b.state))
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    return _sampled_ancilla_zero(swap_test_state(a.state, b.state), shots, seed)


def ancilla_zero_probability(swap_state: StateVector) -> float:
    """P(ancilla = 0) of a swap-test output state (ancilla is qubit 0)."""
    half = swap_state.amplitudes.size // 2
    return float(swap_state.probabilities()[:half].sum())
