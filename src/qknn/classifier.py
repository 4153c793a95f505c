"""Nearest-neighbour classification with swap-test state fidelities.

The distance statistic is the swap test's ancilla-zero probability
D = 0.5 * (1 + F) where F = |<a|b>|^2, so D lives in [0.5, 1.0] and
*increases* with similarity.  Neighbours are therefore the k training
points with the highest fidelity.  (Describing D as something to
minimise, as "distance" suggests, would invert the ranking; the
closeness semantics win here and the convention is pinned by tests.)
Ranking and voting follow the k-NN rule of ``cknn``, with fidelity as
the closeness, so qknn and the classical baseline differ only in their
similarity; ``_fidelity_knn`` is that rule on a fidelity matrix, and
``fit_predict`` and ``classify`` both end in it.

Two evaluation modes are provided:

* exact: F computed directly from the stored amplitudes, per test row
  one product of the [rows, 2**d] training matrix with the conjugated
  test state.  This is the default for benchmarks since the simulator
  has amplitude access.
* sampled: the explicit swap-test circuit (ancilla + H + controlled
  SWAPs + H) is built and measured for a configured number of shots;
  the empirical ancilla-zero frequency estimates D.  Controlled-SWAP is
  decomposed as CNOT.Toffoli.CNOT so only library gates are used.
  Each test row draws the shots of all its pairs, in training order,
  from one stream seeded (config seed, row + 1), so its estimates do not
  depend on the order in which rows are classified.

Optional Pauli noise is injected per trajectory into every encoded
state after the feature map; one loop, ``_draw_paulis``, draws each row's
Paulis, in qubit order, into the one form a drawn trajectory takes, a
[rows, 2d] Pauli frame (see ``noise``).  Noisy runs have one mitigation
mode, the paper's repetition encoding, "physical-code": each data qubit's
channel draw is passed through the three-qubit repetition code
(``qec.CODE_LENGTH``) with syndrome correction before the surviving
logical error touches the state (``_code_pauli`` draws one qubit's block
and decodes its flips in closed form).

A noisy ``fit_predict`` with exact distances, with the map off or at a
map angle where CNOT.IsingXY is Clifford (multiples of pi/2, the default
included), builds no states.  The Pauli P drawn after the map U equals
U times U^dag P U, a Pauli on the product encoding, so each row's frame
is pulled back through one cached GF(2) matrix (``_pullback``) to
angles theta' = (-1)**x * (theta + z * pi) (``_frame_angles``), and the
fidelities are the product kernel of those angles (``_frame_fidelities``).
Every other noisy encoding (sampled distances, whose swap tests need
states, other map angles, and ``fit``) encodes each row as a noiseless
run does and applies the row's frame to its state (``noise._apply_paulis``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .cknn import DEFAULT_K, _check_schema, _check_training, _nearest, _vote
from .data import Dataset, _check_type
from .encoding import (
    EncodedPoint,
    EncodingConfig,
    _check_features,
    apply_feature_map,
    encode_point,
)
from .noise import _PAULI_BITS, NoiseSpec, _apply_paulis, draw_pauli
from .qec import CODE_LENGTH, code_corrected_flip
from .sim import (
    MAX_QUBITS,
    Gate,
    GateOp,
    ResourceLimitError,
    StateVector,
    _check_size,
    _shared_op,
    _trusted_state,
    apply_gate,
    gate_matrix,
    sample_basis,
)

DEFAULT_SHOTS = 4096
DISTANCE_MODES = ("exact", "sampled")
MITIGATION_MODES = ("none", "physical-code")


@dataclass(frozen=True)
class QknnConfig:
    """Everything a nearest-neighbour experiment needs to be replayable."""

    k: int = DEFAULT_K
    encoding: EncodingConfig = field(default_factory=EncodingConfig)
    use_feature_map: bool = True
    distance_mode: str = "exact"
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    noise: NoiseSpec | None = None
    mitigation: str = "none"

    def __post_init__(self) -> None:
        for name in ("k", "shots", "seed"):
            _check_type(name, getattr(self, name), "int")
        _check_type("use_feature_map", self.use_feature_map, "bool")
        if not isinstance(self.encoding, EncodingConfig):
            raise TypeError(f"encoding must be an EncodingConfig, got {self.encoding!r}")
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise TypeError(f"noise must be None or a NoiseSpec, got {self.noise!r}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError(
                f"distance mode must be one of {DISTANCE_MODES}, got {self.distance_mode!r}"
            )
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.mitigation not in MITIGATION_MODES:
            raise ValueError(
                f"mitigation must be one of {MITIGATION_MODES}, got {self.mitigation!r}"
            )


def check_register(cfg: QknnConfig, n_features: int) -> None:
    """Reject more features than the largest register ``cfg`` builds can
    hold: one qubit per feature, or, for sampled swap tests, an ancilla
    plus two ``n_features``-qubit states."""
    if cfg.distance_mode == "exact":
        _check_size(n_features)
    elif 2 * n_features + 1 > MAX_QUBITS:
        raise ResourceLimitError(
            f"sampled distances on {n_features} features need a swap-test register "
            f"of {2 * n_features + 1} qubits, over the limit of {MAX_QUBITS}; use at "
            f"most {(MAX_QUBITS - 1) // 2} features or exact distances"
        )


@dataclass
class QknnModel:
    """Encoded training set plus the config it was fitted with.

    ``train_states`` holds the training rows' states as one complex
    [rows, 2**d] matrix, row i the state of training row i; it is the
    only copy the model keeps.
    """

    train_states: np.ndarray
    labels: np.ndarray
    n_classes: int
    config: QknnConfig

    def __post_init__(self) -> None:
        shape = np.shape(self.train_states)
        if len(shape) != 2 or shape[1] != 2**self.num_qubits:
            raise ValueError(f"training states must form a [rows, 2**d] matrix, got {shape}")
        self.labels = _check_training(
            self.labels, len(self.train_states), self.n_classes, self.config.k
        )
        check_register(self.config, self.num_qubits)

    @property
    def num_qubits(self) -> int:
        return self.train_states.shape[1].bit_length() - 1


@functools.cache
def _swap_test_ops(d: int) -> tuple[GateOp, ...]:
    """The 3*d + 2 gates of the swap test on two d-qubit states, in order.
    Callers check the 2*d + 1 qubit register first, so few widths exist."""
    hadamard = _shared_op(Gate.H, (0,))
    ops = [hadamard]
    for i in range(d):
        qa, qb = 1 + i, 1 + d + i
        cnot = _shared_op(Gate.CNOT, (qb, qa))
        ops += [cnot, _shared_op(Gate.TOFFOLI, (0, qa, qb)), cnot]
    ops.append(hadamard)
    return tuple(ops)


def swap_test_state(a: StateVector, b: StateVector) -> StateVector:
    """Assemble and run the swap-test circuit, returning the final state.

    Register layout: qubit 0 is the ancilla, qubits 1..d hold ``a`` and
    qubits d+1..2d hold ``b``.  Each controlled-SWAP is decomposed as
    CNOT(b,a) Toffoli(anc,a,b) CNOT(b,a).
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"register sizes differ: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    d = a.num_qubits
    n = 2 * d + 1
    _check_size(n)
    # |0> (x) a (x) b: the ancilla-zero half holds a (x) b, the rest is zero.
    amplitudes = np.zeros(2**n, dtype=complex)
    ancilla_zero = amplitudes[: 2 ** (2 * d)].reshape(2**d, 2**d)
    np.outer(a.amplitudes, b.amplitudes, out=ancilla_zero)
    joint = _trusted_state(n, amplitudes)
    for op in _swap_test_ops(d):
        joint = apply_gate(joint, op)
    return joint


def _sampled_ancilla_zero(
    swap_state: StateVector, shots: int, seed: int | np.random.Generator
) -> float:
    """Empirical P(ancilla=0) from full-register basis samples."""
    half = swap_state.amplitudes.size // 2
    return sample_basis(swap_state, shots, seed)[:half].sum() / shots


def _pair_fidelities(model: QknnModel, amplitudes: np.ndarray, source_row: int) -> np.ndarray:
    """Fidelity estimates of the test state ``amplitudes`` of row
    ``source_row`` against every training state, clamped to [0, 1]."""
    cfg = model.config
    if cfg.distance_mode == "exact":
        return np.abs(model.train_states @ amplitudes.conj()) ** 2
    # One stream per test row draws every pair's shots in training order.
    rng = np.random.default_rng([cfg.seed, source_row + 1])
    test = _trusted_state(model.num_qubits, amplitudes)
    fids = np.empty(len(model.train_states))
    for j, train in enumerate(model.train_states):
        swap_state = swap_test_state(_trusted_state(test.num_qubits, train), test)
        fids[j] = 2.0 * _sampled_ancilla_zero(swap_state, cfg.shots, rng) - 1.0
    return np.clip(fids, 0.0, 1.0)


def find_neighbors(model: QknnModel, test: EncodedPoint) -> tuple[np.ndarray, np.ndarray]:
    """Indices and fidelities of the k highest-fidelity training points,
    by descending fidelity; ties broken by lower index."""
    if test.state.num_qubits != model.num_qubits:
        raise ValueError(
            f"test point has {test.state.num_qubits} qubits, "
            f"training set has {model.num_qubits}"
        )
    # The row seeds the sampled swap tests' stream, so it is checked here,
    # in both modes, rather than inside NumPy's seeding.
    row = test.source_row
    _check_type("source_row", row, "int")
    if row < -1:
        raise ValueError(f"source_row must be -1 (ad hoc) or a row index, got {row}")
    fids = _pair_fidelities(model, test.state.amplitudes, row)
    chosen = _nearest(fids, model.config.k)
    return chosen, fids[chosen]


def _fidelity_knn(
    fidelities: np.ndarray, labels: np.ndarray, k: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """``cknn``'s k-NN rule on a [queries, rows] fidelity matrix: each
    query's majority label among its k highest-fidelity rows, and its
    fidelity-weighted vote share per class, or its plain count share when
    those k fidelities sum to ~0."""
    chosen = _nearest(fidelities, k)
    fidelities = np.take_along_axis(fidelities, chosen, axis=1)
    predicted, votes, sums = _vote(labels[chosen], fidelities, n_classes)
    # Row sums, not running ones: NumPy sums 8 or more values pairwise.
    total = fidelities.sum(axis=1, keepdims=True)
    weighted = total > 1e-12
    shares = np.where(weighted, sums, votes) / np.where(weighted, total, fidelities.shape[1])
    return predicted, shares


def classify(model: QknnModel, test: EncodedPoint) -> tuple[int, np.ndarray]:
    """Majority vote among the k neighbours.

    Vote ties are broken by the larger summed fidelity among the tied
    classes, then by the lower class index.  The returned score vector is
    the fidelity-weighted vote share per class (sums to 1); when every
    neighbour fidelity is ~0 the plain count share is used instead.
    """
    indices, fids = find_neighbors(model, test)
    # The neighbours come ranked, so the rule's ranking keeps their order.
    labels, scores = _fidelity_knn(
        fids[np.newaxis], model.labels[indices], model.config.k, model.n_classes
    )
    return int(labels[0]), scores[0]


def _code_pauli(spec: NoiseSpec, rng: np.random.Generator) -> tuple[int, int]:
    """One data qubit's channel draw filtered through the repetition code:
    the (x, z) bits of the surviving logical Pauli.

    The qubit is treated as logically encoded across ``CODE_LENGTH``
    physical qubits, each of which suffers an independent channel draw,
    in order.  The X components of the draws are decoded by
    ``code_corrected_flip`` (called only when some draw flips); a
    surviving majority becomes a logical X.  Z components combine by parity (the bit-flip code offers
    no phase protection).  Both surviving -> Y (= XZ up to global phase).
    """
    flips, z_parity = [], 0
    for _ in range(CODE_LENGTH):
        x, z = _PAULI_BITS[draw_pauli(spec, rng)]
        flips.append(x)
        z_parity ^= z
    logical_x = code_corrected_flip(flips) if any(flips) else 0
    return logical_x, z_parity


def _noisy(cfg: QknnConfig) -> bool:
    """Whether ``cfg`` draws noise: a noise level of 0 draws nothing."""
    return cfg.noise is not None and cfg.noise.p > 0.0


def _draw_paulis(
    rows: int, d: int, cfg: QknnConfig, rng: np.random.Generator
) -> np.ndarray:
    """One noisy trajectory per row as a [rows, 2d] Pauli frame: row by
    row, per qubit in qubit order, one channel draw from ``rng``, or with
    "physical-code" the logical Pauli of the qubit's code block."""
    coded = cfg.mitigation == "physical-code"
    frame = np.empty((rows, 2 * d), dtype=np.int64)
    for bits in frame:
        drawn = [
            _code_pauli(cfg.noise, rng) if coded
            else _PAULI_BITS[draw_pauli(cfg.noise, rng)]
            for _ in range(d)
        ]
        bits[:d], bits[d:] = zip(*drawn)
    return frame


def _encode_rows(
    features: np.ndarray, cfg: QknnConfig, rng: np.random.Generator
) -> np.ndarray:
    """The encoded rows' states as one [rows, 2**d] matrix; with noise,
    each row's state then takes the trajectory ``_draw_paulis`` draws for
    it, every row's drawn before any row is encoded."""
    features = _check_features(features, ndim=2)
    rows, d = features.shape
    _check_size(d)
    frame = _draw_paulis(rows, d, cfg, rng) if _noisy(cfg) else None
    amplitudes = np.empty((rows, 2**d), dtype=complex)
    for row_index, row in enumerate(features):
        point = encode_point(row, cfg.encoding)
        if cfg.use_feature_map:
            point = apply_feature_map(point)
        state = point.state if frame is None else _apply_paulis(point.state, frame[row_index])
        amplitudes[row_index] = state.amplitudes
    return amplitudes


@functools.lru_cache(maxsize=64)
def _pullback(d: int, angle: float | None) -> np.ndarray | None:
    """The 2d x 2d GF(2) matrix that pulls a Pauli drawn after the feature
    map on d qubits back through it, or None when the map at ``angle`` is
    not Clifford; ``angle`` None (the map off) gives the identity.

    A Pauli is its frame (x_0..x_{d-1}, z_0..z_{d-1}), and the pulled-back
    Pauli U^dag P U, up to a global phase, has frame ``pullback @ frame % 2``.
    U applies g = CNOT . IsingXY(angle) to the pairs (0, 1), (1, 2), ... in
    order, so the pair (0, 1) conjugates last.  Column j of g's 4 x 4 table
    holds the bits of g^dag P g for the j-th generator P of a pair's bits
    (x_a, x_b, z_a, z_b), which must be a Pauli times a phase within 1e-12.
    Read-only.
    """
    pullback = np.eye(2 * d, dtype=np.int64)
    if angle is not None and d > 1:
        gate = gate_matrix(Gate.CNOT) @ gate_matrix(Gate.ISING_XY, angle)
        x, z = gate_matrix(Gate.X), gate_matrix(Gate.Z)
        single = np.array([[np.eye(2), z], [x, x @ z]])  # single[x, z] = X^x Z^z
        # The 16 two-qubit Paulis, qubit a the high bit, in the order of
        # their bits; the generators' bits are rows 8, 4, 2 and 1.
        bits = np.array(list(itertools.product((0, 1), repeat=4)))
        x_a, x_b, z_a, z_b = bits.T
        paulis = np.einsum("pij,pkl->pikjl", single[x_a, z_a], single[x_b, z_b])
        paulis = paulis.reshape(16, 4, 4)
        conjugates = gate.conj().T @ paulis[[8, 4, 2, 1]] @ gate
        # A Pauli's coefficient in a 4 x 4 matrix M is tr(P^dag M) / 4.
        coefficients = np.einsum("pij,gij->gp", paulis.conj(), conjugates) / 4
        match = np.abs(coefficients).argmax(axis=1)
        fitted = coefficients[np.arange(4), match, np.newaxis, np.newaxis] * paulis[match]
        if np.abs(conjugates - fitted).max() >= 1e-12:
            return None
        for i in range(d - 1):
            pair, axes = np.eye(2 * d, dtype=np.int64), [i, i + 1, d + i, d + i + 1]
            pair[np.ix_(axes, axes)] = bits[match].T
            pullback = pullback @ pair % 2
    pullback.setflags(write=False)
    return pullback


def _frame_angles(
    features: np.ndarray, cfg: QknnConfig, rng: np.random.Generator, pullback: np.ndarray
) -> np.ndarray:
    """Each row's qubit angles once its ``_draw_paulis`` frame is pulled
    back onto the product encoding, as a [rows, d] array.

    On the phase-encoded qubit RZ(theta) H |0>, X maps theta to -theta and
    Z maps theta to theta + pi, up to a global phase, so the pulled-back
    bits (x, z) give theta' = (-1)**x * (theta + z * pi).
    """
    features = _check_features(features, ndim=2)
    rows, d = features.shape
    _check_size(d)
    pulled = _draw_paulis(rows, d, cfg, rng) @ pullback.T % 2
    x, z = pulled[:, :d], pulled[:, d:]
    return np.where(x == 1, -1.0, 1.0) * (float(cfg.encoding.angle_scale) * features + np.pi * z)


def _frame_fidelities(test_angles: np.ndarray, train_angles: np.ndarray) -> np.ndarray:
    """The [test, train] fidelities of product encodings at the given
    angles: prod_i cos^2((theta_a,i - theta_b,i) / 2) per pair."""
    # One [test, train, d] buffer, worked in place.
    factors = test_angles[:, np.newaxis, :] - train_angles[np.newaxis, :, :]
    factors /= 2
    np.cos(factors, out=factors)
    factors *= factors
    return factors.prod(axis=2)


def _fit(train: Dataset, cfg: QknnConfig, rng: np.random.Generator) -> QknnModel:
    return QknnModel(_encode_rows(train.features, cfg, rng), train.labels, train.n_classes, cfg)


def fit(train: Dataset, cfg: QknnConfig) -> QknnModel:
    """Encode a training dataset into a ready-to-classify model."""
    return _fit(train, cfg, np.random.default_rng(cfg.seed))


def fit_predict(
    train: Dataset, test: Dataset, cfg: QknnConfig
) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end pipeline: encode both sets, classify every test row.

    Returns (predicted labels, score matrix [n_test, n_classes]).  With a
    noise spec each encoded state receives one trajectory draw, so one
    call is one trajectory; rerun with different seeds to average.
    Deterministic for a fixed config.

    One [test, train] fidelity matrix goes through ``_fidelity_knn``.  Its
    rows come from ``_pair_fidelities`` on the encoded states, except in a
    noisy run with exact distances whose map is off or Clifford, which
    builds no states: each row's trajectory is pulled back onto the
    product encoding (``_frame_angles``), and the matrix is the product
    kernel of the pulled-back angles.
    """
    _check_schema(train, test)
    # The training rows, then the test rows, draw from one noise stream.
    rng = np.random.default_rng(cfg.seed)
    pullback = None
    if _noisy(cfg) and cfg.distance_mode == "exact":
        angle = cfg.encoding.feature_map_angle if cfg.use_feature_map else None
        pullback = _pullback(train.n_features, angle)
    if pullback is not None:
        # Training draws (after their width check), QknnModel's label checks, test draws.
        train_angles = _frame_angles(train.features, cfg, rng, pullback)
        _check_training(train.labels, len(train_angles), train.n_classes, cfg.k)
        fidelities = _frame_fidelities(
            _frame_angles(test.features, cfg, rng, pullback), train_angles
        )
    else:
        model = _fit(train, cfg, rng)
        states = _encode_rows(test.features, cfg, rng)
        fidelities = np.reshape(
            [_pair_fidelities(model, state, row) for row, state in enumerate(states)],
            (len(states), len(train.labels)),
        )
    return _fidelity_knn(fidelities, train.labels, cfg.k, train.n_classes)
