"""Bit-flip repetition code, decoded in closed form.

A logical bit b is stored as the n-fold product state |b...b> (n odd).
Adjacent-pair parities Z_i Z_{i+1} form the syndrome, and the decoder
applies the minimum-weight set of X flips consistent with it, which for
odd n is unique and has weight at most (n-1)/2.  On a basis state hit by
an X-flip pattern, syndrome readout, correction and readout therefore
always leave the majority value: patterns of weight <= (n-1)/2 are
corrected, heavier ones become a logical flip (Nielsen & Chuang, section
10.1).  ``code_corrected_flip`` returns that majority directly; the
circuit-level encode/syndrome/correct/decode path it stands for is kept
in ``tests/oracles.py`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# Not used here: the benchmark's wrapper test (perfbench/tests) still
# checks ``qec.apply_gate`` as one of the places ``apply_gate`` is bound.
from .sim import apply_gate  # noqa: F401


@dataclass(frozen=True)
class RepetitionCode:
    """Distance-n repetition code; n must be an odd int, at least 3."""

    n: int = 3

    def __post_init__(self) -> None:
        # bool subclasses int, but True is not a code length.
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise TypeError(f"repetition code length must be an int, got {self.n!r}")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"repetition code length must be odd and >= 3, got {self.n}")


def code_corrected_flip(flip_bits: Sequence[int], code: RepetitionCode) -> int:
    """Whether a physical X-flip pattern on logical |0> survives syndrome
    correction as a logical flip: 1 when more than (n-1)/2 of the ``code.n``
    entries (each 0 or 1) are set, else 0."""
    if len(flip_bits) != code.n:
        raise ValueError(f"expected {code.n} flip bits, got {len(flip_bits)}")
    if any(bit not in (0, 1) for bit in flip_bits):
        raise ValueError(f"flip bits must be 0 or 1, got {list(flip_bits)}")
    return int(2 * sum(flip_bits) > code.n)
