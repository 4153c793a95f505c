"""Pauli noise channels realised as Monte-Carlo trajectories.

Each channel acts independently on each targeted qubit.  The three
single-Pauli channels map rho -> (1-p) rho + p K rho K with K in
{X, Z, Y} (bit flip, phase flip, bit-phase flip); the mixed channel
applies each of X, Z, Y with probability p/3.

A trajectory realisation keeps the state pure: per qubit one Pauli is
drawn (or none) and applied as a gate.  Averaging the trajectory density
matrices over many shots converges to the channel output; the exact
channel action on one qubit is available from ``expected_density_effect``
for use as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .sim import Gate, GateOp, StateVector, apply_gate, gate_matrix


class NoiseKind(Enum):
    BIT_FLIP = "bit_flip"
    PHASE_FLIP = "phase_flip"
    BIT_PHASE_FLIP = "bit_phase_flip"
    MIXED_PAULI = "mixed_pauli"


class InjectionPoint(Enum):
    """Where in the encoding pipeline a channel is applied."""

    AFTER_ENCODING = "after-encoding"
    AFTER_FEATURE_MAP = "after-feature-map"
    BOTH = "both"


#: The Pauli applied by each single-Pauli channel.
_CHANNEL_PAULI: dict[NoiseKind, str] = {
    NoiseKind.BIT_FLIP: "X",
    NoiseKind.PHASE_FLIP: "Z",
    NoiseKind.BIT_PHASE_FLIP: "Y",
}

#: Draw order for the mixed channel (equal weight, order fixes the rng stream).
_MIXED_PAULIS = ("X", "Z", "Y")

_PAULI_GATE = {"X": Gate.X, "Y": Gate.Y, "Z": Gate.Z}


@dataclass(frozen=True)
class NoiseSpec:
    """A noise channel: kind plus error probability per qubit."""

    kind: NoiseKind
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability must lie in [0, 1], got {self.p}")


def draw_pauli(spec: NoiseSpec, rng: np.random.Generator) -> str | None:
    """Sample the Pauli applied to one qubit, or None for the identity."""
    if rng.random() >= spec.p:
        return None
    if spec.kind is NoiseKind.MIXED_PAULI:
        return _MIXED_PAULIS[rng.integers(3)]
    return _CHANNEL_PAULI[spec.kind]


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


def apply_pauli_errors(
    state: StateVector, errors: Sequence[tuple[int, str]]
) -> StateVector:
    """Apply sampled Pauli errors as gates."""
    for qubit, pauli in errors:
        state = apply_gate(state, GateOp(_PAULI_GATE[pauli], (qubit,)))
    return state


def apply_noise(
    state: StateVector,
    spec: NoiseSpec,
    qubits: Sequence[int],
    rng: np.random.Generator,
) -> StateVector:
    """Apply one trajectory realisation of the channel to the given qubits."""
    return apply_pauli_errors(state, sample_errors(spec, qubits, rng))


@dataclass
class TrajectoryBatch:
    """Bookkeeping for a batch of noise trajectories on one input state."""

    shots: int
    seed: int
    error_log: list[list[tuple[int, str]]] = field(default_factory=list)

    def error_counts(self, qubit: int) -> int:
        """How many trajectories applied any Pauli to ``qubit``."""
        return sum(1 for errs in self.error_log if any(q == qubit for q, _ in errs))


def trajectory_states(
    state: StateVector,
    spec: NoiseSpec,
    qubits: Sequence[int],
    shots: int,
    seed: int,
    batch: TrajectoryBatch | None = None,
) -> Iterator[StateVector]:
    """Yield ``shots`` independent trajectory states; deterministic per seed.

    If a ``batch`` is supplied each trajectory's error draw is appended to
    its log.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = np.random.default_rng(seed)
    for _ in range(shots):
        errors = sample_errors(spec, qubits, rng)
        if batch is not None:
            batch.error_log.append(errors)
        yield apply_pauli_errors(state, errors)


def run_trajectory_batch(
    state: StateVector,
    spec: NoiseSpec,
    qubits: Sequence[int],
    shots: int,
    seed: int,
) -> tuple[TrajectoryBatch, np.ndarray]:
    """Run a batch and return (batch log, averaged density matrix)."""
    batch = TrajectoryBatch(shots=shots, seed=seed)
    dim = 2**state.num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for traj in trajectory_states(state, spec, qubits, shots, seed, batch):
        rho += np.outer(traj.amplitudes, traj.amplitudes.conj())
    return batch, rho / shots


def expected_density_effect(spec: NoiseSpec, state: StateVector) -> np.ndarray:
    """Exact single-qubit channel output density matrix (test oracle).

    Only defined for one-qubit states; multi-qubit channel action is
    exercised through trajectory averaging instead.
    """
    if state.num_qubits != 1:
        raise ValueError(
            f"exact channel action is only provided for 1 qubit, got {state.num_qubits}"
        )
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    if spec.kind is NoiseKind.MIXED_PAULI:
        out = (1.0 - spec.p) * rho
        for pauli in _MIXED_PAULIS:
            k = gate_matrix(_PAULI_GATE[pauli])
            out = out + (spec.p / 3.0) * (k @ rho @ k.conj().T)
        return out
    k = gate_matrix(_PAULI_GATE[_CHANNEL_PAULI[spec.kind]])
    return (1.0 - spec.p) * rho + spec.p * (k @ rho @ k.conj().T)
