"""Bit-flip repetition code, decoded in closed form.

A logical bit b is stored as the n-fold product state |b...b> (n odd).
Adjacent-pair parities Z_i Z_{i+1} form the syndrome, and the decoder
applies the minimum-weight set of X flips consistent with it, which for
odd n is unique and has weight at most (n-1)/2.  On a basis state hit by
an X-flip pattern, syndrome readout, correction and readout therefore
always leave the majority value: patterns of weight <= (n-1)/2 are
corrected, heavier ones become a logical flip (Nielsen & Chuang, section
10.1).  ``code_corrected_flip`` returns that majority directly, reading n
from the pattern; the circuit-level encode/syndrome/correct/decode path
it stands for is kept in ``tests/oracles.py`` as its oracle.  The
classifier's "physical-code" mitigation encodes each data qubit in the
paper's three-qubit code, ``CODE_LENGTH``.
"""

from __future__ import annotations

from typing import Sequence

# Not used here: the benchmark's wrapper test (perfbench/tests) still
# checks ``qec.apply_gate`` as one of the places ``apply_gate`` is bound.
from .sim import apply_gate  # noqa: F401

#: Physical qubits per logical qubit under "physical-code".
CODE_LENGTH = 3


def code_corrected_flip(flip_bits: Sequence[int]) -> int:
    """Whether a physical X-flip pattern on logical |0> survives syndrome
    correction as a logical flip: 1 when more than (n-1)/2 of its n
    entries (n odd, at least 3; each 0 or 1) are set, else 0."""
    n = len(flip_bits)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"a repetition code needs an odd number >= 3 of flip bits, got {n}")
    if any(bit not in (0, 1) for bit in flip_bits):
        raise ValueError(f"flip bits must be 0 or 1, got {list(flip_bits)}")
    return int(2 * sum(flip_bits) > n)
