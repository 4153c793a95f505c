"""Dense state-vector simulator for small quantum registers.

The simulator stores the full complex amplitude vector of an n-qubit
register (length 2**n) and applies gates by reshaping that vector into a
rank-n tensor, transposing the targeted axes to the front and contracting
them with a small gate matrix in one matmul, to one state or, with one
matrix shared by every row, to each row of a [batch, 2**n] stack.  A
fixed gate whose matrix has one nonzero entry per row (X, Y, Z, CNOT,
Toffoli, selected from the matrices at import) maps each amplitude to
one other times a phase, so ``apply_gate`` runs it as one cached index
gather and, where a phase is not 1, one multiply.  No 2**n x 2**n
operator is ever materialised, and no register holds more than
``MAX_QUBITS`` qubits.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the computational basis index,
  so for two qubits the amplitude order is |00>, |01>, |10>, |11>, and X
  on qubit 0 of |00> gives |10>, the amplitude at index 2.
* Multi-qubit gate matrices are written in the same ordering: the first
  target supplies the high bit of the row/column index.  For CNOT the
  first target is the control.
* Angles are radians.  RZ(theta) = diag(exp(-i theta/2), exp(+i theta/2))
  and RY(theta) = exp(-i theta Y / 2).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Registers above this size are refused; 2**14 complex amplitudes is the
#: largest register the benchmarks need (ancilla + two 6-qubit states).
MAX_QUBITS = 14

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class ResourceLimitError(ValueError):
    """Raised when a requested register exceeds ``MAX_QUBITS``."""


class Gate(Enum):
    """Supported gate kinds."""

    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    RZ = "RZ"
    RY = "RY"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    ISING_XY = "ISING_XY"

    # Members are singletons, so identity is a valid hash; it keeps the
    # Python-level Enum.__hash__ out of every per-gate table lookup.
    __hash__ = object.__hash__


#: Number of target qubits each gate kind acts on.
GATE_ARITY: dict[Gate, int] = {
    Gate.H: 1,
    Gate.X: 1,
    Gate.Y: 1,
    Gate.Z: 1,
    Gate.RZ: 1,
    Gate.RY: 1,
    Gate.CNOT: 2,
    Gate.TOFFOLI: 3,
    Gate.ISING_XY: 2,
}

#: Gate kinds that take an angle parameter.
PARAMETRIC_GATES = frozenset({Gate.RZ, Gate.RY, Gate.ISING_XY})

_FIXED_MATRICES: dict[Gate, np.ndarray] = {
    Gate.H: np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex),
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Gate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Gate.CNOT: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

# Toffoli: identity except |110> <-> |111> (first two targets are controls).
_TOFFOLI = np.eye(8, dtype=complex)
_TOFFOLI[6, 6] = _TOFFOLI[7, 7] = 0
_TOFFOLI[6, 7] = _TOFFOLI[7, 6] = 1
_FIXED_MATRICES[Gate.TOFFOLI] = _TOFFOLI

# Every op of a fixed kind shares its kind's array, so none may write to it.
for _matrix in _FIXED_MATRICES.values():
    _matrix.setflags(write=False)


def _rz_phases(theta: float) -> tuple[complex, complex]:
    """The diagonal of RZ(theta); cmath.exp gives the same bits as np.exp
    on a Python complex."""
    return cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)


def _parametric_matrix(kind: Gate, theta: float) -> np.ndarray:
    """Fresh matrix of a parametric kind at angle ``theta``."""
    if kind is Gate.RZ:
        m = np.zeros((2, 2), dtype=complex)
        m[0, 0], m[1, 1] = _rz_phases(theta)
        return m
    if kind is Gate.RY:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    # exp(-i theta/2 (XX + YY)): identity on |00>,|11>, a rotation mixing
    # |01> and |10>.
    c, s = math.cos(theta), math.sin(theta)
    m = np.eye(4, dtype=complex)
    m[1, 1] = m[2, 2] = c
    m[1, 2] = m[2, 1] = -1j * s
    return m


def _checked_kernel(kind: Gate, angle: float | None) -> np.ndarray:
    """Read-only matrix of ``kind``: the shared array of a fixed kind, or a
    fresh array of a parametric kind at a finite ``angle``.

    Parametric kinds (RZ, RY, ISING_XY) require ``angle``; fixed kinds
    reject one.
    """
    if kind not in PARAMETRIC_GATES:
        if angle is not None:
            raise ValueError(f"gate {kind.value} takes no angle")
        return _FIXED_MATRICES[kind]
    if angle is None:
        raise ValueError(f"gate {kind.value} requires an angle")
    if not math.isfinite(angle):
        raise ValueError(f"gate angle must be finite, got {angle}")
    kernel = _parametric_matrix(kind, float(angle))
    kernel.setflags(write=False)
    return kernel


def gate_matrix(kind: Gate, angle: float | None = None) -> np.ndarray:
    """Return the unitary matrix of ``kind`` as a fresh, writable complex
    array, under the angle rules of ``_checked_kernel``."""
    matrix = _checked_kernel(kind, angle)
    if kind not in PARAMETRIC_GATES:
        return matrix.copy()
    # A parametric matrix is fresh and held by nothing else.
    matrix.setflags(write=True)
    return matrix


@dataclass(frozen=True)
class GateOp:
    """A gate application: kind, target qubits, optional angle.

    For CNOT the target order is (control, target); for Toffoli it is
    (control, control, target).  The op builds its matrix once, read-only,
    so one op can be applied any number of times and shared.
    """

    kind: Gate
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        kind = self.kind
        targets = tuple(map(int, self.targets))
        object.__setattr__(self, "targets", targets)
        arity = GATE_ARITY[kind]
        if len(targets) != arity:
            raise ValueError(
                f"gate {kind.value} needs {arity} target(s), got {len(targets)}"
            )
        if len(set(targets)) != arity:
            raise ValueError(f"gate targets must be distinct, got {targets}")
        if min(targets) < 0:
            raise ValueError(f"gate targets must be non-negative, got {targets}")
        object.__setattr__(self, "_kernel", _checked_kernel(kind, self.angle))


@functools.lru_cache(maxsize=4096)
def _shared_op(kind: Gate, targets: tuple[int, ...], angle: float | None = None) -> GateOp:
    """The one frozen op of (kind, targets, angle), for gates that repeat."""
    return GateOp(kind, targets, angle)


@dataclass
class StateVector:
    """An n-qubit pure state: 2**n complex amplitudes, qubit 0 = MSB, with
    at most ``MAX_QUBITS`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        _check_size(self.num_qubits)
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({2**self.num_qubits},)"
            )

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _trusted_state(num_qubits: int, amplitudes: np.ndarray) -> StateVector:
    """Wrap amplitudes that are complex and of length 2**num_qubits by
    construction, without re-running the checks of ``StateVector``."""
    state = object.__new__(StateVector)
    state.num_qubits = num_qubits
    state.amplitudes = amplitudes
    return state


def _check_size(num_qubits: int) -> None:
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise ResourceLimitError(
            f"{num_qubits} qubits exceeds the limit of {MAX_QUBITS} "
            f"(2**{num_qubits} amplitudes)"
        )


def new_zero_state(num_qubits: int) -> StateVector:
    """Return |0...0> on ``num_qubits`` qubits."""
    _check_size(num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return _trusted_state(num_qubits, amps)


@functools.lru_cache(maxsize=4096)
def _axis_orders(
    targets: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Shapes and axis orders of a gate on ``targets`` of amplitudes shaped
    ``shape`` = (*batch, 2**n).

    Returns the tensor shape (*batch, 2, ..., 2); the order that puts the
    batch axes first, then the targets, then the other qubits; the block
    shape (*batch, 2**k, -1); the shape of ``matrix.dot(block)``, whose
    axes are (targets, batch, others); and the order that undoes it.
    """
    *batch, size = shape
    b, n, k = len(batch), size.bit_length() - 1, len(targets)
    tensor = (*batch, *(2,) * n)
    qubits = targets + tuple(q for q in range(n) if q not in targets)
    order = tuple(range(b)) + tuple(b + q for q in qubits)
    product = order[b : b + k] + order[:b] + order[b + k :]
    inverse = tuple(sorted(range(b + n), key=product.__getitem__))
    return tensor, order, (*batch, 2**k, -1), tuple(tensor[a] for a in product), inverse


def _apply_matrix(
    amplitudes: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...]
) -> np.ndarray:
    """Contract the [2**k, 2**k] ``matrix`` onto the target qubits of a
    state, or of each row of a stack, with amplitudes shaped [*batch, 2**n].

    Bringing the target axes forward costs at most one copy, one ``dot``
    applies the gate to every row at once, and at most one more copy
    restores the axis order; the result is a new C-contiguous array of the
    input's shape, whose dtype follows the inputs' (float64 for a real
    stack and matrix).  A stack's rows may differ from the single states'
    results in the last bit.
    """
    shape = amplitudes.shape
    tensor, order, block, product, inverse = _axis_orders(targets, shape)
    block = amplitudes.reshape(tensor).transpose(order).reshape(block)
    out = matrix.dot(block).reshape(product).transpose(inverse)
    # When a gate spans every qubit of a stack, the reshape alone would
    # return a strided view (batch strides inside the product's layout).
    return np.ascontiguousarray(out.reshape(shape))


#: Fixed kinds whose matrix has one nonzero entry per row: each output
#: amplitude is one input amplitude times a phase, so the gate is a gather.
_PERMUTATION_KINDS = frozenset(
    kind
    for kind, matrix in _FIXED_MATRICES.items()
    if all(np.count_nonzero(row) == 1 for row in matrix)
)


# Worst case 128 entries x 384 KiB (an 8-byte source index and a 16-byte
# phase per amplitude at MAX_QUBITS) = 48 MiB.
@functools.lru_cache(maxsize=128)
def _gather(
    kind: Gate, targets: tuple[int, ...], num_qubits: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Read-only source indices and phases of a permutation gate: the gate
    maps amplitudes ``a`` to ``a[source] * phases``; ``phases`` is None
    when every phase is 1."""
    matrix = _FIXED_MATRICES[kind]
    size = 2**num_qubits
    # The kernel itself, run on the basis indices with the matrix's 0/1
    # pattern and on all-ones with the matrix, reads off both arrays.
    source = _apply_matrix(np.arange(size, dtype=complex), np.abs(matrix), targets)
    source = source.real.astype(np.intp)
    phases = _apply_matrix(np.ones(size, dtype=complex), matrix, targets)
    source.setflags(write=False)
    phases.setflags(write=False)
    return source, None if (phases == 1).all() else phases


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate and return the new state; the input is not modified.

    Permutation kinds are one gather and at most one phase multiply; every
    other gate goes through the matrix kernel.
    """
    n = state.num_qubits
    if max(op.targets) >= n:
        q = next(q for q in op.targets if q >= n)
        raise ValueError(f"gate targets qubit {q} but the register has {n} qubits")
    if op.kind in _PERMUTATION_KINDS:
        source, phases = _gather(op.kind, op.targets, n)
        out = state.amplitudes[source]
        if phases is not None:
            out *= phases
        return _trusted_state(n, out)
    return _trusted_state(n, _apply_matrix(state.amplitudes, op._kernel, op.targets))


def sample_basis(
    state: StateVector, shots: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw ``shots`` computational-basis outcomes; deterministic per seed.

    ``seed`` is anything ``np.random.default_rng`` takes.  A Generator is
    used as it is, so calls that share one continue its stream, each
    taking ``shots`` uniforms from it.  Returns the shot count of every
    basis index: an integer array of length 2**n that sums to ``shots``.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = state.probabilities()
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"state is not normalised (sum of probabilities = {total})")
    # Generator.choice's own draw, without its per-call checks of p: uniform
    # u lands on index i when cdf[i-1] <= u < cdf[i].  Counting per index
    # needs no outcome array: with the uniforms sorted, the count of i is
    # the number of uniforms below cdf[i] less the number below cdf[i-1].
    cdf = np.cumsum(probs / total)
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(seed).random(shots)
    uniforms.sort()
    counts = uniforms.searchsorted(cdf, side="left")
    counts[1:] -= counts[:-1]
    return counts
