"""Repetition-code tests: the closed-form decoder, and the circuit-level
syndrome/decode/correct path in ``oracles`` that it must match."""

import itertools

import numpy as np
import pytest

from qknn.qec import code_corrected_flip
from qknn.sim import Gate, GateOp, apply_gate

from oracles import (
    BasisStateError,
    Syndrome,
    basis_state,
    circuit_corrected_flip,
    correct,
    decode_flips,
    encode_logical,
    majority_decode,
    measure_syndrome,
    readout_bits,
)


def flip(state, qubits):
    for q in qubits:
        state = apply_gate(state, GateOp(Gate.X, (q,)))
    return state


class TestCode:
    def test_syndrome_entries_validated(self):
        with pytest.raises(ValueError, match=r"\+/-1"):
            Syndrome((1, 0))


class TestEncoding:
    def test_logical_zero_and_one(self):
        n = 3
        np.testing.assert_array_equal(
            encode_logical(0, n).amplitudes, basis_state(3, 0).amplitudes
        )
        np.testing.assert_array_equal(
            encode_logical(1, n).amplitudes, basis_state(3, 7).amplitudes
        )

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0 or 1"):
            encode_logical(2, 3)


class TestSyndrome:
    def test_clean_codewords_have_trivial_syndrome(self):
        n = 3
        for bit in (0, 1):
            syndrome = measure_syndrome(encode_logical(bit, n), n)
            assert syndrome.values == (1, 1)

    def test_three_qubit_single_flip_table(self):
        # each single X gives a distinct syndrome
        n = 3
        table = {}
        for q in range(3):
            state = flip(encode_logical(0, n), [q])
            table[q] = measure_syndrome(state, n).values
        assert table == {0: (-1, 1), 1: (-1, -1), 2: (1, -1)}

    def test_syndrome_is_flip_invariant_under_logical_value(self):
        n = 5
        for pattern in ([1], [0, 3], [2, 4]):
            s0 = measure_syndrome(flip(encode_logical(0, n), pattern), n)
            s1 = measure_syndrome(flip(encode_logical(1, n), pattern), n)
            assert s0.values == s1.values

    def test_requires_matching_qubit_count(self):
        with pytest.raises(ValueError, match="needs 3"):
            measure_syndrome(basis_state(2, 0), 3)

    def test_rejects_superpositions(self):
        n = 3
        state = apply_gate(encode_logical(0, n), GateOp(Gate.H, (0,)))
        with pytest.raises(BasisStateError, match="basis state"):
            measure_syndrome(state, n)


class TestDecoder:
    def test_three_qubit_decode_table(self):
        n = 3
        assert decode_flips(Syndrome((1, 1)), n) == ()
        assert decode_flips(Syndrome((-1, 1)), n) == (0,)
        assert decode_flips(Syndrome((-1, -1)), n) == (1,)
        assert decode_flips(Syndrome((1, -1)), n) == (2,)

    def test_five_qubit_weight_two_case(self):
        # flips on qubits 0 and 2 -> parities (-1,-1,-1,1) -> decode {0,2}
        n = 5
        state = flip(encode_logical(0, n), [0, 2])
        syndrome = measure_syndrome(state, n)
        assert syndrome.values == (-1, -1, -1, 1)
        assert decode_flips(syndrome, n) == (0, 2)

    def test_decoded_weight_never_exceeds_half(self):
        n = 5
        for values in itertools.product((1, -1), repeat=4):
            flips = decode_flips(Syndrome(values), n)
            assert len(flips) <= 2

    def test_decode_matches_the_injected_error_exhaustively(self):
        # for every correctable pattern the decoder returns exactly that pattern
        n = 5
        for weight in (0, 1, 2):
            for pattern in itertools.combinations(range(5), weight):
                state = flip(encode_logical(0, n), pattern)
                syndrome = measure_syndrome(state, n)
                assert decode_flips(syndrome, n) == pattern

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            decode_flips(Syndrome((1, 1, 1)), 3)


class TestCorrection:
    def test_single_errors_fully_corrected(self):
        n = 3
        for bit in (0, 1):
            for q in range(3):
                state = flip(encode_logical(bit, n), [q])
                fixed = correct(state, measure_syndrome(state, n), n)
                assert readout_bits(fixed, n) == [bit] * 3

    def test_two_errors_become_a_logical_flip(self):
        n = 3
        for pair in itertools.combinations(range(3), 2):
            state = flip(encode_logical(0, n), pair)
            fixed = correct(state, measure_syndrome(state, n), n)
            assert readout_bits(fixed, n) == [1, 1, 1]

    def test_corrected_state_is_a_codeword(self):
        n = 5
        state = flip(encode_logical(1, n), [1, 4])
        fixed = correct(state, measure_syndrome(state, n), n)
        bits = readout_bits(fixed, n)
        assert bits in ([0] * 5, [1] * 5)


class TestMajority:
    def test_basic_votes(self):
        assert majority_decode([0, 0, 1]) == 0
        assert majority_decode([1, 0, 1]) == 1
        assert majority_decode([1, 1, 1, 0, 0]) == 1

    def test_rejects_even_counts_and_non_bits(self):
        with pytest.raises(ValueError, match="odd"):
            majority_decode([0, 1])
        with pytest.raises(ValueError, match="odd"):
            majority_decode([])
        with pytest.raises(ValueError, match="0 or 1"):
            majority_decode([0, 2, 1])


class TestEndToEnd:
    def test_correctable_patterns_return_zero(self):
        for pattern in ([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]):
            assert code_corrected_flip(pattern) == 0

    def test_heavy_patterns_return_one(self):
        for pattern in ([1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]):
            assert code_corrected_flip(pattern) == 1

    def test_five_qubit_threshold(self):
        for pattern in itertools.product((0, 1), repeat=5):
            expected = int(sum(pattern) > 2)
            assert code_corrected_flip(list(pattern)) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_length_check(self, n):
        # The code length is the pattern's: an even or short one is no
        # repetition code block.
        with pytest.raises(ValueError, match=f"odd number >= 3 of flip bits, got {n}"):
            code_corrected_flip([0] * n)

    @pytest.mark.parametrize(
        "pattern", [[2, 0, 0], [-1, 0, -1], [0.5, 0, 1], [0, None, 1], ["1", 0, 0]]
    )
    def test_rejects_entries_other_than_zero_and_one(self, pattern):
        # The closed form counts flips, so a truthy non-bit must not count.
        with pytest.raises(ValueError, match="0 or 1"):
            code_corrected_flip(pattern)

    def test_bools_and_numpy_bits_are_flips(self):
        assert code_corrected_flip([True, False, True]) == 1
        assert code_corrected_flip([False, True, False]) == 0
        assert code_corrected_flip(np.array([1, 1, 0])) == 1


class TestClosedFormMatchesTheCircuit:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_every_flip_pattern(self, n):
        # The circuit encodes |0>, flips, reads the syndrome, corrects and
        # majority-decodes; the closed form must agree on all 2^n patterns.
        for pattern in itertools.product((0, 1), repeat=n):
            assert code_corrected_flip(pattern) == circuit_corrected_flip(
                pattern, n
            ), pattern
