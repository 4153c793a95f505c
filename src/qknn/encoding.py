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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _check_type
from .sim import Gate, GateOp, StateVector, _shared_op, apply_gate, new_zero_state

DEFAULT_ANGLE_SCALE = 2.0 * math.pi
DEFAULT_FEATURE_MAP_ANGLE = math.pi / 2.0


@dataclass(frozen=True)
class EncodingConfig:
    """Parameters of the phase encoding and its entangling map."""

    angle_scale: float = DEFAULT_ANGLE_SCALE
    feature_map_angle: float = DEFAULT_FEATURE_MAP_ANGLE

    def __post_init__(self) -> None:
        for name in ("angle_scale", "feature_map_angle"):
            _check_type(name, getattr(self, name), "float")


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

