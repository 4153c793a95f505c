"""Bit-flip repetition code: encoding, syndrome readout, correction.

A logical bit b is stored as the n-fold product state |b...b> (n odd).
Adjacent-pair parities Z_i Z_{i+1} form the syndrome; on a computational
basis state they are +1 when the two bits agree and -1 otherwise.  The
decoder picks the minimum-weight set of X flips consistent with the
syndrome, which for odd n is always unique and has weight at most
(n-1)/2, so every syndrome is correctable and errors on more than
(n-1)/2 qubits decode to a logical flip rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sim import Gate, StateVector, _shared_op, apply_gate, basis_state, bit_value


class BasisStateError(ValueError):
    """Raised when an operation requires a computational basis state."""


@dataclass(frozen=True)
class RepetitionCode:
    """Distance-n repetition code; n must be odd and at least 3."""

    n: int = 3

    def __post_init__(self) -> None:
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"repetition code length must be odd and >= 3, got {self.n}")


@dataclass(frozen=True)
class Syndrome:
    """Adjacent-pair Z parities, each +1 or -1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError(f"syndrome entries must be +/-1, got {self.values}")


def encode_logical(bit: int, code: RepetitionCode) -> StateVector:
    """Encode a classical bit as |b>^n."""
    if bit not in (0, 1):
        raise ValueError(f"logical bit must be 0 or 1, got {bit}")
    index = (2**code.n - 1) if bit else 0
    return basis_state(code.n, index)


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


def measure_syndrome(state: StateVector, code: RepetitionCode) -> Syndrome:
    """Read the Z_i Z_{i+1} parities of a basis state (non-destructive)."""
    if state.num_qubits != code.n:
        raise ValueError(
            f"state has {state.num_qubits} qubits but the code needs {code.n}"
        )
    index = _basis_index(state)
    z = [1 - 2 * bit_value(index, q, code.n) for q in range(code.n)]
    return Syndrome(tuple(z[i] * z[i + 1] for i in range(code.n - 1)))


def decode_flips(syndrome: Syndrome, code: RepetitionCode) -> tuple[int, ...]:
    """Minimum-weight X-flip set consistent with the syndrome.

    The syndrome fixes the bit pattern up to global complement; of the two
    candidates the lighter one is returned (n odd, so no tie is possible).
    """
    if len(syndrome.values) != code.n - 1:
        raise ValueError(
            f"syndrome has {len(syndrome.values)} entries but the code needs {code.n - 1}"
        )
    bits = [0]
    for s in syndrome.values:
        bits.append(bits[-1] ^ (1 if s == -1 else 0))
    weight = sum(bits)
    if weight > code.n - weight:
        bits = [1 - b for b in bits]
    return tuple(i for i, b in enumerate(bits) if b)


def correct(state: StateVector, syndrome: Syndrome, code: RepetitionCode) -> StateVector:
    """Apply the decoder's X flips to the state."""
    for q in decode_flips(syndrome, code):
        state = apply_gate(state, _shared_op(Gate.X, (q,)))
    return state


def readout_bits(state: StateVector, code: RepetitionCode) -> list[int]:
    """The physical bit values of a (corrected) basis state."""
    index = _basis_index(state)
    return [bit_value(index, q, code.n) for q in range(code.n)]


def majority_decode(bits: Sequence[int]) -> int:
    """Majority vote over an odd number of classical bits."""
    bits = list(bits)
    if len(bits) % 2 == 0 or not bits:
        raise ValueError(f"majority vote needs an odd number of bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    return int(sum(bits) * 2 > len(bits))


def code_corrected_flip(flip_bits: Sequence[int], code: RepetitionCode) -> int:
    """Whether a physical X-flip pattern survives the code as a logical flip.

    Encodes logical |0>, applies X wherever ``flip_bits`` is set, runs
    syndrome readout and correction, and majority-decodes the result.
    Patterns of weight <= (n-1)/2 return 0; heavier patterns return 1.
    """
    flip_bits = list(flip_bits)
    if len(flip_bits) != code.n:
        raise ValueError(f"expected {code.n} flip bits, got {len(flip_bits)}")
    state = encode_logical(0, code)
    for qubit, flip in enumerate(flip_bits):
        if flip:
            state = apply_gate(state, _shared_op(Gate.X, (qubit,)))
    state = correct(state, measure_syndrome(state, code), code)
    return majority_decode(readout_bits(state, code))
