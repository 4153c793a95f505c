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
* ``basis_state`` and ``bit_value``, the simulator's basis-state
  constructor and bit reader, which only the circuit-level repetition
  code below and the tests still use;
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
  ``data.chi_square_sf`` must match at Q(dof/2, statistic/2);
* ``cknn_find_neighbors``/``cknn_classify`` and ``qknn_classify``, the
  neighbour ranking, vote and scores each classifier carried as its own
  copy before both used the one k-NN rule of ``cknn``, which that rule
  must match bit for bit, one row at a time.  Their vote-tie sums are
  ``np.bincount``'s running sums in rank order, the sums qknn's scores
  divide; the copies summed each tied class with ``ndarray.sum``, which
  NumPy sums pairwise from 8 values on, so on an exact tie of 8 or more
  neighbours per class their label could disagree with their own scores;
* ``bce_loss``, ``cce_loss``, ``onehot`` and ``qnn_loss_grad_wrt_z``, the
  qnn's two losses and its dLoss/dz before one readout map and one cross
  entropy replaced them, which ``qnn.batch_loss`` and ``qnn.gradient``
  must match bit for bit inside the probability clamp;
* ``apply_pauli_errors``, ``sample_errors``, ``physical_code_errors``,
  ``inject`` and ``encode_rows``, the noisy trajectory encoded row by row
  with two per-qubit draw loops (one per mitigation mode), joined by an
  injector that applied each drawn error as a gate, before one loop
  (``classifier._draw_paulis``) drew both into a Pauli frame and
  ``noise._apply_paulis`` applied each row of it;
  ``classifier._encode_rows`` must draw the same streams and
  give bitwise-equal states, and the Pauli frames of
  ``classifier._frame_angles`` the same streams and fidelities within
  1e-12; ``pauli_frame`` writes such drawn names as the [rows, 2d] Pauli
  frame the library draws into;
* ``encode_logical``, ``measure_syndrome`` (with ``Syndrome`` and
  ``BasisStateError``), ``decode_flips``, ``correct``, ``readout_bits``
  and ``majority_decode``, the repetition code run as a circuit on basis
  states of any odd length n >= 3, and ``circuit_corrected_flip``, the
  whole path for one X-flip pattern, which decoded every code block
  before ``qec.code_corrected_flip`` returned the majority in closed form;
  the closed form must match it on every pattern, and
  ``physical_code_errors`` decodes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qknn.classifier import (
    DEFAULT_SHOTS,
    DISTANCE_MODES,
    QknnConfig,
    _sampled_ancilla_zero,
    swap_test_state,
)
from qknn.encoding import EncodedPoint, apply_feature_map, encode_point
from qknn.noise import NoiseKind, NoiseSpec, draw_pauli
from qknn.qec import CODE_LENGTH
from qknn.qnn import EPS, QnnArchitecture, softmax
from qknn.sim import (
    Gate,
    GateOp,
    StateVector,
    _check_size,
    _shared_op,
    apply_gate,
    new_zero_state,
)

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: The gate of each drawn Pauli name.
_PAULI_KIND = {"X": Gate.X, "Y": Gate.Y, "Z": Gate.Z}

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


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Return the computational basis state |index> (qubit 0 = MSB)."""
    _check_size(num_qubits)
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def bit_value(index: int, qubit: int, num_qubits: int) -> int:
    """Bit of ``qubit`` in basis ``index`` under the MSB-first convention."""
    return (index >> (num_qubits - 1 - qubit)) & 1


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


def apply_pauli_errors(
    state: StateVector, errors: Sequence[tuple[int, str]]
) -> StateVector:
    """Apply sampled Pauli errors as gates."""
    for qubit, pauli in errors:
        state = apply_gate(state, _shared_op(_PAULI_KIND[pauli], (qubit,)))
    return state


def pauli_frame(paulis: Sequence[Sequence[str | None]]) -> np.ndarray:
    """Per-row Pauli names, ``paulis[row][qubit]`` (None for the identity),
    as a [rows, 2d] frame: the x bits of qubits 0..d-1, then their z bits."""
    return np.array(
        [[int(p in ("X", "Y")) for p in row] + [int(p in ("Z", "Y")) for p in row]
         for row in paulis],
        dtype=np.int64,
    )


def sample_errors(
    spec: NoiseSpec, qubits: Sequence[int], rng: np.random.Generator
) -> list[tuple[int, str]]:
    """One trajectory's error draw: (qubit, pauli) pairs in qubit order."""
    errors = []
    for q in qubits:
        pauli = draw_pauli(spec, rng)
        if pauli is not None:
            errors.append((int(q), pauli))
    return errors


class BasisStateError(ValueError):
    """Raised when an operation requires a computational basis state."""


@dataclass(frozen=True)
class Syndrome:
    """Adjacent-pair Z parities, each +1 or -1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError(f"syndrome entries must be +/-1, got {self.values}")


def encode_logical(bit: int, n: int) -> StateVector:
    """Encode a classical bit as |b>^n."""
    if bit not in (0, 1):
        raise ValueError(f"logical bit must be 0 or 1, got {bit}")
    index = (2**n - 1) if bit else 0
    return basis_state(n, index)


def _basis_index(state: StateVector) -> int:
    """The single basis index carrying all probability, else BasisStateError."""
    probs = state.probabilities()
    top = int(np.argmax(probs))
    if probs[top] < 1.0 - 1e-10:
        raise BasisStateError(
            "syndrome readout requires a computational basis state; "
            f"largest probability is only {probs[top]:.6f}"
        )
    return top


def measure_syndrome(state: StateVector, n: int) -> Syndrome:
    """Read the Z_i Z_{i+1} parities of an n-qubit basis state
    (non-destructive)."""
    if state.num_qubits != n:
        raise ValueError(
            f"state has {state.num_qubits} qubits but the code needs {n}"
        )
    index = _basis_index(state)
    z = [1 - 2 * bit_value(index, q, n) for q in range(n)]
    return Syndrome(tuple(z[i] * z[i + 1] for i in range(n - 1)))


def decode_flips(syndrome: Syndrome, n: int) -> tuple[int, ...]:
    """Minimum-weight X-flip set consistent with the syndrome of an n-qubit
    code.

    The syndrome fixes the bit pattern up to global complement; of the two
    candidates the lighter one is returned (n odd, so no tie is possible).
    """
    if len(syndrome.values) != n - 1:
        raise ValueError(
            f"syndrome has {len(syndrome.values)} entries but the code needs {n - 1}"
        )
    bits = [0]
    for s in syndrome.values:
        bits.append(bits[-1] ^ (1 if s == -1 else 0))
    weight = sum(bits)
    if weight > n - weight:
        bits = [1 - b for b in bits]
    return tuple(i for i, b in enumerate(bits) if b)


def correct(state: StateVector, syndrome: Syndrome, n: int) -> StateVector:
    """Apply the decoder's X flips to the n-qubit state."""
    for q in decode_flips(syndrome, n):
        state = apply_gate(state, GateOp(Gate.X, (q,)))
    return state


def readout_bits(state: StateVector, n: int) -> list[int]:
    """The physical bit values of a (corrected) n-qubit basis state."""
    index = _basis_index(state)
    return [bit_value(index, q, n) for q in range(n)]


def majority_decode(bits: Sequence[int]) -> int:
    """Majority vote over an odd number of classical bits."""
    bits = list(bits)
    if len(bits) % 2 == 0 or not bits:
        raise ValueError(f"majority vote needs an odd number of bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    return int(sum(bits) * 2 > len(bits))


def circuit_corrected_flip(flip_bits: Sequence[int], n: int) -> int:
    """Whether a physical X-flip pattern survives the n-qubit code as a
    logical flip, by the circuit: encode logical |0>, apply X wherever
    ``flip_bits`` is set, read the syndrome, correct, and majority-decode
    the readout."""
    flip_bits = list(flip_bits)
    if len(flip_bits) != n:
        raise ValueError(f"expected {n} flip bits, got {len(flip_bits)}")
    state = encode_logical(0, n)
    for qubit, flip in enumerate(flip_bits):
        if flip:
            state = apply_gate(state, GateOp(Gate.X, (qubit,)))
    state = correct(state, measure_syndrome(state, n), n)
    return majority_decode(readout_bits(state, n))


def physical_code_errors(
    spec: NoiseSpec,
    qubits: Sequence[int],
    rng: np.random.Generator,
) -> list[tuple[int, str]]:
    """Channel draw for each qubit filtered through the repetition code.

    Each data qubit is treated as logically encoded across ``CODE_LENGTH``
    physical qubits, each of which suffers an independent channel draw.
    The X component of the draws runs through the circuit-level
    encode/syndrome/correct/decode path of ``circuit_corrected_flip``; a
    surviving majority becomes a logical X.  Z
    components combine by parity (the bit-flip code offers no phase
    protection).  Both surviving -> Y (= XZ up to global phase).
    """
    errors = []
    for q in qubits:
        draws = [draw_pauli(spec, rng) for _ in range(CODE_LENGTH)]
        flips = [1 if d in ("X", "Y") else 0 for d in draws]
        logical_x = circuit_corrected_flip(flips, CODE_LENGTH) if any(flips) else 0
        logical_z = sum(1 for d in draws if d in ("Z", "Y")) % 2
        if logical_x and logical_z:
            errors.append((int(q), "Y"))
        elif logical_x:
            errors.append((int(q), "X"))
        elif logical_z:
            errors.append((int(q), "Z"))
    return errors


def inject(
    state: StateVector, cfg: QknnConfig, rng: np.random.Generator
) -> StateVector:
    qubits = range(state.num_qubits)
    if cfg.mitigation == "physical-code":
        errors = physical_code_errors(cfg.noise, qubits, rng)
    else:
        errors = sample_errors(cfg.noise, qubits, rng)
    return apply_pauli_errors(state, errors)


def encode_rows(
    features: np.ndarray, cfg: QknnConfig, rng: np.random.Generator
) -> list[EncodedPoint]:
    """Encode rows; with noise, each point gets one trajectory after the map."""
    noisy = cfg.noise is not None and cfg.noise.p > 0.0
    points = []
    for row_index, row in enumerate(features):
        point = encode_point(row, cfg.encoding, source_row=row_index)
        if cfg.use_feature_map:
            point = apply_feature_map(point)
        if noisy:
            point.state = inject(point.state, cfg, rng)
        points.append(point)
    return points


def run_trajectory_batch(
    state: StateVector,
    spec: NoiseSpec,
    qubits: Sequence[int],
    shots: int,
    seed: int,
) -> np.ndarray:
    """Density matrix averaged over ``shots`` trajectories of
    ``sample_errors``; deterministic per seed."""
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


def bce_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean binary cross entropy; probabilities clamped to [EPS, 1-EPS]."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    p = np.clip(y_hat, EPS, 1.0 - EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def cce_loss(y_onehot: np.ndarray, p: np.ndarray) -> float:
    """Mean categorical cross entropy over instances."""
    y_onehot = np.asarray(y_onehot, dtype=float)
    p = np.asarray(p, dtype=float)
    if y_onehot.shape != p.shape:
        raise ValueError(f"shape mismatch: {y_onehot.shape} vs {p.shape}")
    clamped = np.clip(p, EPS, 1.0)
    return float(-np.mean((y_onehot * np.log(clamped)).sum(axis=-1)))


def onehot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.size, n_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def qnn_loss_grad_wrt_z(arch: QnnArchitecture, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dLoss/dz per instance and readout qubit (analytic chain rule)."""
    batch = z.shape[0]
    if arch.n_classes == 2:
        p = (1.0 + z[:, 0]) / 2.0
        # Inside the clamp window the BCE derivative is (p-y)/(p(1-p)) * dp/dz;
        # at a clamped endpoint the loss is locally flat in z.
        active = (p > EPS) & (p < 1.0 - EPS)
        p_safe = np.clip(p, EPS, 1.0 - EPS)
        grad = (p_safe - y) / (p_safe * (1.0 - p_safe)) * 0.5 / batch
        return np.where(active, grad, 0.0)[:, None]
    return (softmax(z) - onehot(y, arch.n_classes)) / batch


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


def cknn_find_neighbors(model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest rows (ascending distance)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.train_features.shape[1],):
        raise ValueError(
            f"expected {model.train_features.shape[1]} features, got shape {x.shape}"
        )
    distances = np.sqrt(np.sum((model.train_features - x) ** 2, axis=1))
    order = np.lexsort((np.arange(distances.size), distances))
    chosen = order[: model.k]
    return chosen, distances[chosen]


def cknn_classify(model, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Majority vote among the k nearest; scores are plain vote shares."""
    indices, distances = cknn_find_neighbors(model, x)
    neighbor_labels = model.labels[indices]
    votes = np.bincount(neighbor_labels, minlength=model.n_classes).astype(float)
    candidates = np.flatnonzero(votes == votes.max())
    if candidates.size > 1:
        sums = np.bincount(
            neighbor_labels, weights=distances, minlength=model.n_classes
        )[candidates]
        candidates = candidates[sums == sums.min()]
    return int(candidates[0]), votes / model.k


def qknn_classify(model, fids: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Neighbour indices, label and scores of the swap-test classifier,
    given the fidelities of every training point to the test point."""
    order = np.lexsort((np.arange(fids.size), -fids))
    chosen = order[: model.config.k]
    kept = fids[chosen]
    neighbor_labels = model.labels[chosen]
    votes = np.bincount(neighbor_labels, minlength=model.n_classes).astype(float)
    candidates = np.flatnonzero(votes == votes.max())
    if candidates.size > 1:
        sums = np.bincount(
            neighbor_labels, weights=kept, minlength=model.n_classes
        )[candidates]
        candidates = candidates[sums == sums.max()]
    label = int(candidates[0])
    total = kept.sum()
    if total > 1e-12:
        scores = (
            np.bincount(
                neighbor_labels,
                weights=kept,
                minlength=model.n_classes,
            )
            / total
        )
    else:
        scores = votes / votes.sum()
    return chosen, label, scores
