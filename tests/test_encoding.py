"""Encoding tests: phase encoding closed forms, feature map, embedding."""

import math

import numpy as np
import pytest

from qknn.encoding import (
    DEFAULT_ANGLE_SCALE,
    EncodingConfig,
    apply_feature_map,
    encode_point,
)
from qknn.sim import Gate, gate_matrix

from oracles import angle_embed, dense_operator, inner_product


def phase_qubit(x: float, scale: float) -> np.ndarray:
    """Independent closed form: RZ(scale*x) H |0>."""
    theta = scale * x
    return np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)]) / math.sqrt(2.0)


def single_feature_fidelity(x: float, y: float, scale: float) -> float:
    """cos^2(scale * (x - y) / 2), the analytic phase-encoding overlap."""
    return math.cos(scale * (x - y) / 2.0) ** 2


class TestEncodePoint:
    def test_single_feature_matches_closed_form(self):
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            point = encode_point(np.array([x]))
            np.testing.assert_allclose(
                point.state.amplitudes, phase_qubit(x, DEFAULT_ANGLE_SCALE), atol=1e-12
            )

    def test_multi_feature_is_the_product_state(self):
        x = np.array([0.2, 0.7, 0.5])
        point = encode_point(x)
        expected = phase_qubit(x[0], DEFAULT_ANGLE_SCALE)
        for value in x[1:]:
            expected = np.kron(expected, phase_qubit(value, DEFAULT_ANGLE_SCALE))
        np.testing.assert_allclose(point.state.amplitudes, expected, atol=1e-12)

    def test_pairwise_fidelity_closed_form(self, rng):
        scale = 2.0
        config = EncodingConfig(angle_scale=scale)
        for _ in range(20):
            x, y = rng.uniform(0, 1, size=2)
            a = encode_point(np.array([x]), config)
            b = encode_point(np.array([y]), config)
            fidelity = abs(inner_product(a.state, b.state)) ** 2
            np.testing.assert_allclose(
                fidelity, single_feature_fidelity(x, y, scale), atol=1e-12
            )

    def test_default_scale_aliases_the_endpoints(self):
        # cos^2(pi * (1 - 0)) = 1: x=0 and x=1 are the same state at scale 2*pi.
        a = encode_point(np.array([0.0]))
        b = encode_point(np.array([1.0]))
        assert abs(inner_product(a.state, b.state)) ** 2 == pytest.approx(1.0, abs=1e-12)
        # a smaller scale separates them
        config = EncodingConfig(angle_scale=math.pi)
        a = encode_point(np.array([0.0]), config)
        b = encode_point(np.array([1.0]), config)
        assert abs(inner_product(a.state, b.state)) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        x = np.array([0.3, 0.6])
        a = encode_point(x)
        b = encode_point(x)
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)

    def test_source_row_is_kept(self):
        point = encode_point(np.array([0.1]), source_row=17)
        assert point.source_row == 17

    def test_rejects_out_of_range_features(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_point(np.array([0.5, 1.2]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_point(np.array([-0.1]))

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="non-empty"):
            encode_point(np.array([]))
        with pytest.raises(ValueError, match="finite"):
            encode_point(np.array([np.nan]))


class TestFeatureMap:
    def test_matches_dense_chain_construction(self, rng):
        # independent realization: dense IsingXY then CNOT on each pair
        config = EncodingConfig()
        x = rng.uniform(0, 1, size=3)
        point = encode_point(x, config)
        mapped = apply_feature_map(point)
        expected = point.state.amplitudes.copy()
        for i in range(2):
            ising = dense_operator(
                gate_matrix(Gate.ISING_XY, config.feature_map_angle), (i, i + 1), 3
            )
            cnot = dense_operator(gate_matrix(Gate.CNOT), (i, i + 1), 3)
            expected = cnot @ (ising @ expected)
        np.testing.assert_allclose(mapped.state.amplitudes, expected, atol=1e-12)

    def test_single_qubit_passthrough(self):
        point = encode_point(np.array([0.4]))
        mapped = apply_feature_map(point)
        np.testing.assert_array_equal(mapped.state.amplitudes, point.state.amplitudes)

    def test_preserves_pairwise_fidelities(self, rng):
        # the map is one shared unitary, so |<a|b>|^2 cannot change
        for _ in range(10):
            xa, xb = rng.uniform(0, 1, size=(2, 4))
            a, b = encode_point(xa), encode_point(xb)
            before = abs(inner_product(a.state, b.state)) ** 2
            am, bm = apply_feature_map(a), apply_feature_map(b)
            after = abs(inner_product(am.state, bm.state)) ** 2
            assert before == pytest.approx(after, abs=1e-12)

    def test_norm_preserved(self, rng):
        point = encode_point(rng.uniform(0, 1, size=5))
        assert abs(np.linalg.norm(apply_feature_map(point).state.amplitudes) - 1.0) < 1e-12


class TestAngleEmbed:
    """The qnn's reference RY embedding in ``oracles``."""

    def test_matches_closed_form_product(self, rng):
        x = rng.uniform(0, math.pi, size=3)
        state = angle_embed(x, 3)
        expected = np.array([math.cos(x[0] / 2), math.sin(x[0] / 2)])
        for value in x[1:]:
            expected = np.kron(expected, [math.cos(value / 2), math.sin(value / 2)])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_zero_features_give_zero_state(self):
        state = angle_embed(np.zeros(2), 2)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            angle_embed(np.array([0.1, 0.2]), 3)


class TestConfig:
    def test_rejects_non_finite_angles(self):
        with pytest.raises(ValueError, match="finite"):
            EncodingConfig(angle_scale=float("inf"))

    @pytest.mark.parametrize("field", ["angle_scale", "feature_map_angle"])
    @pytest.mark.parametrize(
        "value", [True, False, "1.0", None, 1j, np.float32(0.5), np.int64(3)]
    )
    def test_rejects_angles_that_are_not_real_numbers(self, field, value):
        # angle_scale=True used to encode as a scale of 1.0.  NumPy scalars
        # other than np.float64 are refused, as by every other setting.
        with pytest.raises(TypeError, match=f"{field} must be a real number"):
            EncodingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["angle_scale", "feature_map_angle"])
    @pytest.mark.parametrize("value", [2, np.float64(0.5)])
    def test_accepts_real_angles(self, field, value):
        assert getattr(EncodingConfig(**{field: value}), field) == value
