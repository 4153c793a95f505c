"""Pauli noise channels realised as Monte-Carlo trajectories.

Each channel acts independently on each targeted qubit.  The three
single-Pauli channels map rho -> (1-p) rho + p K rho K with K in
{X, Z, Y} (bit flip, phase flip, bit-phase flip); the mixed channel
applies each of X, Z, Y with probability p/3.

A trajectory realisation keeps the state pure: per qubit one Pauli is
drawn (or none) by ``draw_pauli``.  The one loop that draws whole
trajectories, ``classifier._draw_paulis``, writes them through
``_PAULI_BITS`` as a Pauli frame: a [rows, 2d] array whose row holds the x
bits of qubits 0..d-1, then their z bits.  ``_apply_paulis`` applies one
row of a frame to one state, each Pauli a gate through ``apply_gate``.
Averaging the trajectory density matrices over many shots converges to
the channel output; the trajectory average, the exact one-qubit channel
used to check it and ``apply_pauli_errors``, which applies one state's
errors from their names, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sim import Gate, StateVector, _shared_op, apply_gate


class NoiseKind(Enum):
    BIT_FLIP = "bit_flip"
    PHASE_FLIP = "phase_flip"
    BIT_PHASE_FLIP = "bit_phase_flip"
    MIXED_PAULI = "mixed_pauli"


#: The Pauli applied by each single-Pauli channel.
_CHANNEL_PAULI: dict[NoiseKind, str] = {
    NoiseKind.BIT_FLIP: "X",
    NoiseKind.PHASE_FLIP: "Z",
    NoiseKind.BIT_PHASE_FLIP: "Y",
}

#: Draw order for the mixed channel (equal weight, order fixes the rng stream).
_MIXED_PAULIS = ("X", "Z", "Y")

#: The (x, z) bits of each drawn Pauli X^x Z^z (Y up to a global phase), None the identity.
_PAULI_BITS = {None: (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}

#: The gate of each Pauli by its frame code x + 2z; the identity, 0, has none.
_PAULI_GATE = {1: Gate.X, 2: Gate.Z, 3: Gate.Y}


@dataclass(frozen=True)
class NoiseSpec:
    """A noise channel: kind plus error probability per qubit."""

    kind: NoiseKind
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NoiseKind):
            raise TypeError(f"noise kind must be a NoiseKind, got {self.kind!r}")
        # bool subclasses int, but True is not a probability.
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise TypeError(f"noise probability p must be a real number, got {self.p!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability must lie in [0, 1], got {self.p}")


def draw_pauli(spec: NoiseSpec, rng: np.random.Generator) -> str | None:
    """Sample the Pauli applied to one qubit, or None for the identity."""
    if rng.random() >= spec.p:
        return None
    if spec.kind is NoiseKind.MIXED_PAULI:
        return _MIXED_PAULIS[rng.integers(3)]
    return _CHANNEL_PAULI[spec.kind]


def _apply_paulis(state: StateVector, bits: np.ndarray) -> StateVector:
    """Apply one row ``bits`` of a Pauli frame to ``state``: each qubit's
    Pauli, in qubit order, as a gate; the input is not modified."""
    d = len(bits) // 2
    for qubit, code in enumerate((bits[:d] + 2 * bits[d:]).tolist()):
        if code:
            state = apply_gate(state, _shared_op(_PAULI_GATE[code], (qubit,)))
    return state
