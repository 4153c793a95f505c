"""Classical-to-quantum feature encoding.

Phase encoding (used by the nearest-neighbour classifier): each feature
x_i in [0, 1] is written onto its own qubit as RZ(scale * x_i) H |0>,
i.e. an equal superposition whose relative phase carries the value.
With the default scale of 2*pi the single-feature state fidelity is
cos(pi * (x - y))**2, so the encoding is periodic and x = 0 and x = 1
land on the same state.  Callers that need to distinguish the endpoints
should pass a smaller ``angle_scale``.  (The variational classifier's
RY angle embedding is built in closed form by ``qnn``.)

An optional entangling feature map walks a linear chain of qubit pairs
(0,1), (1,2), ... applying an XX+YY interaction followed by CNOT.

``encode_point`` and ``apply_feature_map`` build one state at a time;
``_encode_stack`` runs the same gates on a [rows, 2**d] stack of rows at
once, with states bitwise equal to theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sim import (
    Gate,
    GateOp,
    StateVector,
    _apply_matrix,
    _apply_to_rows,
    _rz_kernels,
    _shared_op,
    apply_gate,
    new_zero_state,
)

DEFAULT_ANGLE_SCALE = 2.0 * math.pi
DEFAULT_FEATURE_MAP_ANGLE = math.pi / 2.0


@dataclass(frozen=True)
class EncodingConfig:
    """Parameters of the phase encoding and its entangling map."""

    angle_scale: float = DEFAULT_ANGLE_SCALE
    feature_map_angle: float = DEFAULT_FEATURE_MAP_ANGLE

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle_scale):
            raise ValueError(f"angle_scale must be finite, got {self.angle_scale}")
        if not math.isfinite(self.feature_map_angle):
            raise ValueError(
                f"feature_map_angle must be finite, got {self.feature_map_angle}"
            )


@dataclass
class EncodedPoint:
    """A feature vector realised as a quantum state.

    ``source_row`` keeps the row index of the originating dataset instance
    (-1 for ad-hoc points) so downstream sampling can derive stable seeds.
    """

    state: StateVector
    source_row: int = -1
    config: EncodingConfig = field(default_factory=EncodingConfig)


def _check_features(x: np.ndarray, ndim: int = 1) -> np.ndarray:
    """``x`` as floats: a feature vector (``ndim`` 1) or a [rows, d] matrix
    of them (``ndim`` 2), with d >= 1 and every value finite and in [0, 1].
    A matrix's errors read as those of its rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] < 1:
        raise ValueError(
            f"expected a non-empty 1-D feature vector, got shape {x.shape[ndim - 1:]}"
        )
    if not np.isfinite(x).all():
        raise ValueError("feature vector contains non-finite values")
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        bad = x[(x < 0.0) | (x > 1.0)]
        raise ValueError(f"features must lie in [0, 1]; offending values: {bad[:5]}")
    return x


def encode_point(
    x: np.ndarray, config: EncodingConfig | None = None, source_row: int = -1
) -> EncodedPoint:
    """Phase-encode a feature vector in [0, 1]**d onto d qubits."""
    config = config or EncodingConfig()
    x = _check_features(x)
    state = new_zero_state(x.size)
    scale = config.angle_scale
    for i, value in enumerate(x.tolist()):
        state = apply_gate(state, _shared_op(Gate.H, (i,)))
        state = apply_gate(state, GateOp(Gate.RZ, (i,), scale * value))
    return EncodedPoint(state=state, source_row=source_row, config=config)


def apply_feature_map(point: EncodedPoint) -> EncodedPoint:
    """Entangle adjacent qubits: IsingXY(angle) then CNOT on each chain pair.

    Single-qubit registers have no pairs and pass through unchanged.
    """
    state = point.state
    angle = point.config.feature_map_angle
    for i in range(state.num_qubits - 1):
        state = apply_gate(state, _shared_op(Gate.ISING_XY, (i, i + 1), angle))
        state = apply_gate(state, _shared_op(Gate.CNOT, (i, i + 1)))
    return EncodedPoint(state=state, source_row=point.source_row, config=point.config)


def _encode_stack(
    features: np.ndarray, config: EncodingConfig, use_feature_map: bool
) -> np.ndarray:
    """The states of ``encode_point`` and, with ``use_feature_map``,
    ``apply_feature_map`` for each row of a checked [rows, d] feature
    matrix, as one [rows, 2**d] stack.

    Each gate of the single-state circuit, in the same order, acts on
    every row at once through ``sim._apply_to_rows``, and each qubit's RZ
    takes one kernel per row, so every row is bitwise equal to its state.
    """
    rows, d = features.shape
    amplitudes = np.zeros((rows, 2**d), dtype=complex)
    amplitudes[:, 0] = 1.0
    # encode_point's angle, float(scale * value), as a Python float.
    scale = float(config.angle_scale)
    for i, column in enumerate(features.T.tolist()):
        amplitudes = _apply_to_rows(amplitudes, _shared_op(Gate.H, (i,)))
        amplitudes = _apply_matrix(amplitudes, _rz_kernels([scale * v for v in column]), (i,))
    if use_feature_map:
        angle = config.feature_map_angle
        for i in range(d - 1):
            amplitudes = _apply_to_rows(amplitudes, _shared_op(Gate.ISING_XY, (i, i + 1), angle))
            amplitudes = _apply_to_rows(amplitudes, _shared_op(Gate.CNOT, (i, i + 1)))
    return amplitudes
