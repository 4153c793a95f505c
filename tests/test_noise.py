"""Noise channel tests: trajectory sampling against the exact channel."""

import math

import numpy as np
import pytest

from qknn.classifier import QknnConfig, _encode_rows
from qknn.encoding import EncodingConfig, apply_feature_map, encode_point
from qknn.noise import NoiseKind, NoiseSpec, _apply_paulis, draw_pauli
from qknn.sim import StateVector, new_zero_state

from oracles import (
    apply_pauli_errors,
    expected_density_effect,
    pauli_frame,
    random_state,
    run_trajectory_batch,
)

ALL_KINDS = tuple(NoiseKind)


def plus_state() -> StateVector:
    return StateVector(1, np.array([1, 1], dtype=complex) / math.sqrt(2))


def random_sv(n: int, rng) -> StateVector:
    return StateVector(n, random_state(n, rng))


class TestSpec:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseSpec(NoiseKind.BIT_FLIP, 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseSpec(NoiseKind.BIT_FLIP, -0.01)

    @pytest.mark.parametrize("kind", ["mixed_pauli", "X", None, 0])
    def test_rejects_a_kind_that_is_not_a_noise_kind(self, kind):
        # A string kind used to construct, then fail with a KeyError on the
        # first drawn error (or draw nothing at all while nothing hit).
        with pytest.raises(TypeError, match="must be a NoiseKind"):
            NoiseSpec(kind, 0.2)

    @pytest.mark.parametrize("p", [True, False, "0.1", None, 0.1j])
    def test_rejects_a_probability_that_is_not_a_real_number(self, p):
        # True used to construct as p = 1, and "0.1" failed with a bare
        # comparison error.
        with pytest.raises(TypeError, match="noise probability p must be a real number"):
            NoiseSpec(NoiseKind.BIT_FLIP, p)

    @pytest.mark.parametrize("p", [0, 1, 0.25, np.float64(0.5), np.float32(0.5)])
    def test_accepts_real_probabilities(self, p):
        assert NoiseSpec(NoiseKind.BIT_FLIP, p).p == p

    def test_enum_values_are_the_wire_names(self):
        assert NoiseKind.BIT_FLIP.value == "bit_flip"
        assert NoiseKind.MIXED_PAULI.value == "mixed_pauli"


class TestDraws:
    def test_p_zero_never_errors(self, rng):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.0)
        assert all(draw_pauli(spec, rng) is None for _ in range(200))

    def test_p_one_always_errors_with_channel_pauli(self, rng):
        for kind, pauli in [
            (NoiseKind.BIT_FLIP, "X"),
            (NoiseKind.PHASE_FLIP, "Z"),
            (NoiseKind.BIT_PHASE_FLIP, "Y"),
        ]:
            spec = NoiseSpec(kind, 1.0)
            assert all(draw_pauli(spec, rng) == pauli for _ in range(50))

    def test_mixed_draw_frequencies(self):
        rng = np.random.default_rng(7)
        spec = NoiseSpec(NoiseKind.MIXED_PAULI, 1.0)
        draws = [draw_pauli(spec, rng) for _ in range(30000)]
        for pauli in ("X", "Y", "Z"):
            assert draws.count(pauli) / 30000 == pytest.approx(1 / 3, abs=0.02)

    def test_error_rate_matches_p(self):
        rng = np.random.default_rng(11)
        spec = NoiseSpec(NoiseKind.PHASE_FLIP, 0.3)
        hits = sum(draw_pauli(spec, rng) is not None for _ in range(50000))
        assert hits / 50000 == pytest.approx(0.3, abs=0.01)

    def test_trajectory_draws_one_pauli_per_qubit_in_qubit_order(self, rng):
        # Mixed Pauli at p = 1 puts a draw on every qubit; seed 0 draws
        # Z, X, X, Y, so the encoded state pins which draw landed where.
        spec = NoiseSpec(NoiseKind.MIXED_PAULI, 1.0)
        cfg = QknnConfig(encoding=EncodingConfig(angle_scale=math.pi), noise=spec)
        row = rng.uniform(0, 1, size=4)
        [state] = _encode_rows(row[None, :], cfg, np.random.default_rng(0))
        stream = np.random.default_rng(0)
        errors = [(q, draw_pauli(spec, stream)) for q in range(4)]
        assert [pauli for _, pauli in errors] == ["Z", "X", "X", "Y"]
        clean = apply_feature_map(encode_point(row, cfg.encoding, source_row=0)).state
        expected = apply_pauli_errors(clean, errors).amplitudes
        np.testing.assert_array_equal(state, expected)


def apply_to_one(state: StateVector, paulis: list[str | None]) -> np.ndarray:
    """``_apply_paulis`` of the frame row of ``paulis`` on ``state``."""
    return _apply_paulis(state, pauli_frame([paulis])[0]).amplitudes


class TestApply:
    def test_certain_bit_flip_flips_the_basis_state(self, rng):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 1.0)
        paulis = [draw_pauli(spec, rng) for _ in (0, 1)]
        out = apply_to_one(new_zero_state(2), paulis)
        np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)

    def test_phase_flip_leaves_zero_state_invariant(self, rng):
        spec = NoiseSpec(NoiseKind.PHASE_FLIP, 1.0)
        out = apply_to_one(new_zero_state(1), [draw_pauli(spec, rng)])
        np.testing.assert_allclose(out, [1, 0], atol=1e-15)

    def test_errors_apply_as_gates(self):
        out = apply_to_one(plus_state(), ["Z"])
        np.testing.assert_allclose(out, np.array([1, -1]) / math.sqrt(2), atol=1e-12)

    def test_norm_preserved(self, rng):
        out = apply_to_one(random_sv(3, rng), ["X", "Y", "Z"])
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_each_row_gets_its_own_errors_bitwise_as_gates(self, rng):
        # Frame rows that drew nothing, one Pauli, or one on every qubit:
        # each row's state must be bitwise what applying its errors gate by
        # gate gives, and the input state must be left as it was.
        n, choices = 3, [None, "X", "Y", "Z"]
        paulis = [[None] * n, ["Y"] * n, ["X", None, "Z"]]
        paulis += [[choices[i] for i in rng.integers(4, size=n)] for _ in range(9)]
        for drawn, bits in zip(paulis, pauli_frame(paulis)):
            state = random_sv(n, rng)
            before = state.amplitudes.copy()
            out = _apply_paulis(state, bits).amplitudes
            errors = [(q, pauli) for q, pauli in enumerate(drawn) if pauli is not None]
            assert out.tobytes() == apply_pauli_errors(state, errors).amplitudes.tobytes()
            assert state.amplitudes.tobytes() == before.tobytes()
        assert _apply_paulis(state, pauli_frame([[None] * n])[0]) is state


class TestTrajectories:
    def test_same_seed_same_stream(self):
        spec = NoiseSpec(NoiseKind.MIXED_PAULI, 0.4)
        first, second = np.random.default_rng(5), np.random.default_rng(5)
        a = [draw_pauli(spec, first) for _ in range(60)]
        b = [draw_pauli(spec, second) for _ in range(60)]
        assert a == b
        assert any(a) and not all(a)


class TestChannelConvergence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_average_density_matches_exact_channel(self, kind, p, rng):
        spec = NoiseSpec(kind, p)
        state = random_sv(1, rng)
        avg_rho = run_trajectory_batch(state, spec, [0], 40000, seed=31)
        exact = expected_density_effect(spec, state)
        assert np.max(np.abs(avg_rho - exact)) < 0.015

    def test_p_zero_batch_is_exactly_the_input(self, rng):
        state = random_sv(2, rng)
        spec = NoiseSpec(NoiseKind.MIXED_PAULI, 0.0)
        avg_rho = run_trajectory_batch(state, spec, [0, 1], 50, seed=1)
        pure = np.outer(state.amplitudes, state.amplitudes.conj())
        np.testing.assert_allclose(avg_rho, pure, atol=1e-12)

    def test_p_one_bit_flip_is_the_conjugated_state(self, rng):
        state = random_sv(1, rng)
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 1.0)
        avg_rho = run_trajectory_batch(state, spec, [0], 50, seed=1)
        np.testing.assert_allclose(avg_rho, expected_density_effect(spec, state), atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_channel_preserves_trace(self, kind, rng):
        spec = NoiseSpec(kind, 0.37)
        rho = expected_density_effect(spec, random_sv(1, rng))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(rho).imag) < 1e-12
        # channel outputs stay Hermitian positive-semidefinite
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_exact_channel_requires_single_qubit(self):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.1)
        with pytest.raises(ValueError, match="1 qubit"):
            expected_density_effect(spec, new_zero_state(2))
