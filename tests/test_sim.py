"""Simulator tests: gate algebra, kernels vs dense oracle, invariants."""

import copy
import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qknn.sim import (
    GATE_ARITY,
    MAX_QUBITS,
    _FIXED_MATRICES,
    _PERMUTATION_KINDS,
    _apply_matrix,
    _gather,
    _shared_op,
    Gate,
    GateOp,
    ResourceLimitError,
    StateVector,
    apply_gate,
    gate_matrix,
    new_zero_state,
    sample_basis,
)

from oracles import (
    apply_dense,
    basis_state,
    bit_value,
    choice_sample_basis,
    inner_product,
    kron_operator,
    moveaxis_apply_matrix,
    pauli_frame,
    random_state,
    tensor_product,
    z_expectation,
)

ALL_GATES = list(Gate)
FIXED_GATES = [g for g in ALL_GATES if g not in (Gate.RZ, Gate.RY, Gate.ISING_XY)]
PARAMETRIC_GATES = [Gate.RZ, Gate.RY, Gate.ISING_XY]
SELF_INVERSE = [Gate.H, Gate.X, Gate.Y, Gate.Z, Gate.CNOT, Gate.TOFFOLI]


def _random_op(rng, n):
    kind = ALL_GATES[rng.integers(len(ALL_GATES))]
    from qknn.sim import GATE_ARITY

    arity = GATE_ARITY[kind]
    targets = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
    angle = None
    if kind in PARAMETRIC_GATES:
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    return GateOp(kind, targets, angle)


class TestGateMatrices:
    def test_hadamard_on_zero_gives_equal_superposition(self):
        state = apply_gate(new_zero_state(1), GateOp(Gate.H, (0,)))
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_rz_is_the_phase_diagonal(self):
        theta = 0.7
        m = gate_matrix(Gate.RZ, theta)
        expected = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_ry_rotates_zero_to_cos_sin(self):
        theta = 1.1
        state = apply_gate(new_zero_state(1), GateOp(Gate.RY, (0,), theta))
        expected = np.array([math.cos(theta / 2), math.sin(theta / 2)])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_cnot_flips_target_only_when_control_set(self):
        # first target is the control (MSB of the gate's index pair)
        state = apply_gate(basis_state(2, 0b10), GateOp(Gate.CNOT, (0, 1)))
        np.testing.assert_allclose(state.amplitudes, basis_state(2, 0b11).amplitudes)
        state = apply_gate(basis_state(2, 0b01), GateOp(Gate.CNOT, (0, 1)))
        np.testing.assert_allclose(state.amplitudes, basis_state(2, 0b01).amplitudes)

    def test_toffoli_flips_only_on_both_controls(self):
        op = GateOp(Gate.TOFFOLI, (0, 1, 2))
        assert np.argmax(np.abs(apply_gate(basis_state(3, 0b110), op).amplitudes)) == 0b111
        assert np.argmax(np.abs(apply_gate(basis_state(3, 0b100), op).amplitudes)) == 0b100

    def test_ising_xy_zero_angle_is_identity(self):
        np.testing.assert_allclose(gate_matrix(Gate.ISING_XY, 0.0), np.eye(4), atol=1e-15)

    def test_ising_xy_mixes_mid_block_only(self):
        theta = 0.9
        m = gate_matrix(Gate.ISING_XY, theta)
        assert m[0, 0] == 1 and m[3, 3] == 1
        np.testing.assert_allclose(m[1, 1], math.cos(theta))
        np.testing.assert_allclose(m[1, 2], -1j * math.sin(theta))

    def test_ising_xy_matches_hamiltonian_exponential(self):
        # independent construction from exp(-i theta/2 (XX + YY))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        ham = np.kron(x, x) + np.kron(y, y)
        theta = 1.3
        eigvals, eigvecs = np.linalg.eigh(ham)
        expm = eigvecs @ np.diag(np.exp(-0.5j * theta * eigvals)) @ eigvecs.conj().T
        np.testing.assert_allclose(gate_matrix(Gate.ISING_XY, theta), expm, atol=1e-12)

    def test_unitarity_of_every_gate(self, rng):
        for gate in FIXED_GATES:
            m = gate_matrix(gate)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-10)
        for gate in PARAMETRIC_GATES:
            for _ in range(20):
                m = gate_matrix(gate, float(rng.uniform(-10, 10)))
                np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-10)

    def test_parametric_gates_require_angle_and_fixed_reject_it(self):
        with pytest.raises(ValueError):
            gate_matrix(Gate.RZ)
        with pytest.raises(ValueError):
            gate_matrix(Gate.H, 0.5)

    @pytest.mark.parametrize("kind", PARAMETRIC_GATES, ids=lambda g: g.value)
    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_is_rejected(self, kind, angle):
        # The same rule as GateOp's: a NaN or infinite angle is no gate.
        with pytest.raises(ValueError, match="gate angle must be finite"):
            gate_matrix(kind, angle)


class TestApplyGate:
    def test_matches_dense_oracle_on_random_circuits(self, rng):
        from qknn.sim import GATE_ARITY

        for _ in range(60):
            n = int(rng.integers(1, 5))
            amps = random_state(n, rng)
            kinds = [g for g in ALL_GATES if GATE_ARITY[g] <= n]
            kind = kinds[rng.integers(len(kinds))]
            targets = tuple(
                int(q) for q in rng.choice(n, size=GATE_ARITY[kind], replace=False)
            )
            angle = None
            if kind in PARAMETRIC_GATES:
                angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            op = GateOp(kind, targets, angle)
            result = apply_gate(StateVector(n, amps.copy()), op)
            expected = apply_dense(amps, gate_matrix(op.kind, op.angle), op.targets, n)
            np.testing.assert_allclose(result.amplitudes, expected, atol=1e-10)

    def test_norm_preserved_over_many_applications(self, rng):
        n = 5
        state = StateVector(n, random_state(n, rng))
        for _ in range(300):
            op = _random_op(rng, n)
            state = apply_gate(state, op)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_self_inverse_gates_square_to_identity(self, rng):
        n = 3
        amps = random_state(n, rng)
        for gate in SELF_INVERSE:
            from qknn.sim import GATE_ARITY

            targets = tuple(range(GATE_ARITY[gate]))
            state = StateVector(n, amps.copy())
            op = GateOp(gate, targets)
            state = apply_gate(apply_gate(state, op), op)
            np.testing.assert_allclose(state.amplitudes, amps, atol=1e-10)

    def test_input_state_is_not_mutated(self):
        state = new_zero_state(2)
        before = state.amplitudes.copy()
        apply_gate(state, GateOp(Gate.H, (0,)))
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_gate_beyond_register_is_rejected(self):
        with pytest.raises(ValueError, match="register has 2"):
            apply_gate(new_zero_state(2), GateOp(Gate.H, (2,)))


class TestKernel:
    """``_apply_matrix`` against the moveaxis contraction it replaced (bit
    for bit) and a dense Kronecker-product operator, on every ordered
    target tuple of arity 1-3, for single states and for stacks."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_target_tuple_matches_both_oracles(self, n):
        rng = np.random.default_rng(n)
        amps = random_state(n, rng)
        before = amps.copy()
        for k in range(1, min(n, 3) + 1):
            gate = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            for targets in itertools.permutations(range(n), k):
                out = _apply_matrix(amps, gate, targets)
                assert out.flags.c_contiguous
                assert out.tobytes() == moveaxis_apply_matrix(amps, gate, targets, n).tobytes()
                np.testing.assert_allclose(
                    out, kron_operator(gate, targets, n) @ amps, rtol=0, atol=1e-12
                )
                assert amps.tobytes() == before.tobytes()

    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_row_of_a_stack_matches_the_single_state_kernel(self, n, batch):
        rng = np.random.default_rng(10 * n + len(batch))
        amps = np.stack([random_state(n, rng) for _ in range(math.prod(batch))])
        amps = amps.reshape(*batch, 2**n)
        before = amps.copy()
        for k in range(1, min(n, 3) + 1):
            gate = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            for targets in itertools.permutations(range(n), k):
                out = _apply_matrix(amps, gate, targets)
                assert out.shape == amps.shape and out.flags.c_contiguous
                dense = kron_operator(gate, targets, n)
                for row in np.ndindex(*batch):
                    np.testing.assert_allclose(
                        out[row], _apply_matrix(amps[row], gate, targets), rtol=0, atol=1e-14
                    )
                    np.testing.assert_allclose(out[row], dense @ amps[row], rtol=0, atol=1e-12)
                assert amps.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_real_stack_stays_real_and_equals_the_complex_contraction(self, n):
        # The qnn contracts a float64 stack with the real parts of RY and
        # CNOT: every RY target and every ring pair, (n-1, 0) included.
        rng = np.random.default_rng(60 + n)
        amps = rng.normal(size=(7, 2**n))
        before = amps.copy()
        cases = [(gate_matrix(Gate.RY, rng.uniform(-math.pi, math.pi)), (q,)) for q in range(n)]
        cases += [(gate_matrix(Gate.CNOT), (q, (q + 1) % n)) for q in range(n)]
        for matrix, targets in cases:
            out = _apply_matrix(amps, matrix.real, targets)
            assert out.dtype == np.float64
            assert out.shape == amps.shape and out.flags.c_contiguous
            full = _apply_matrix(amps.astype(complex), matrix, targets)
            assert out.tobytes() == full.real.tobytes()
            assert amps.tobytes() == before.tobytes()

    def test_sixteen_qubit_register(self, rng):
        # No state holds 16 qubits; the kernel itself still contracts them.
        n = 16
        zero = np.zeros(2**n, dtype=complex)
        zero[0] = 1.0
        with pytest.raises(ResourceLimitError, match="16 qubits exceeds the limit of 14"):
            StateVector(n, zero)
        amps = random_state(n, rng)
        gate = gate_matrix(Gate.ISING_XY, 0.7)
        out = _apply_matrix(amps, gate, (12, 3))
        assert out.tobytes() == moveaxis_apply_matrix(amps, gate, (12, 3), n).tobytes()

    def test_permutation_kinds_are_the_fixed_kinds_with_one_entry_per_row(self):
        assert _PERMUTATION_KINDS == {Gate.X, Gate.Y, Gate.Z, Gate.CNOT, Gate.TOFFOLI}
        assert set(_FIXED_MATRICES) - _PERMUTATION_KINDS == {Gate.H}

    @staticmethod
    def _check_gather(amps, kind, targets, n, dense=True):
        # Only the sign of a zero amplitude may differ from the matrix
        # kernel, so values compare equal and probabilities bit for bit.
        out = apply_gate(StateVector(n, amps), GateOp(kind, targets)).amplitudes
        kernel = _apply_matrix(amps, _FIXED_MATRICES[kind], targets)
        assert np.array_equal(out, kernel)
        assert (np.abs(out) ** 2).tobytes() == (np.abs(kernel) ** 2).tobytes()
        if dense:
            oracle = kron_operator(_FIXED_MATRICES[kind], targets, n) @ amps
            np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gather_matches_the_kernel_on_every_target_tuple(self, n):
        rng = np.random.default_rng(100 + n)
        amps = random_state(n, rng)
        # Zero amplitudes on half the basis, where a gather and a matrix
        # product may disagree on the sign of zero.
        sparse = np.where(rng.random(2**n) < 0.5, 0.0, amps)
        before = amps.copy()
        for kind in sorted(_PERMUTATION_KINDS, key=lambda g: g.value):
            for targets in itertools.permutations(range(n), GATE_ARITY[kind]):
                self._check_gather(amps, kind, targets, n)
                self._check_gather(sparse, kind, targets, n)
        assert amps.tobytes() == before.tobytes()

    def test_gather_on_swap_test_and_largest_registers(self, rng):
        n, d = 9, 4
        amps = random_state(n, rng)
        for i in range(d):
            qa, qb = 1 + i, 1 + d + i
            self._check_gather(amps, Gate.CNOT, (qb, qa), n)
            self._check_gather(amps, Gate.TOFFOLI, (0, qa, qb), n)
        n = MAX_QUBITS
        amps = random_state(n, rng)
        # No dense operator at this size: the matrix kernel is the oracle.
        for kind, targets in [
            (Gate.X, (0,)), (Gate.Y, (7,)), (Gate.Z, (13,)),
            (Gate.CNOT, (13, 0)), (Gate.CNOT, (2, 9)), (Gate.TOFFOLI, (11, 0, 5)),
        ]:
            self._check_gather(amps, kind, targets, n, dense=False)

    def test_gather_cache_is_bounded(self):
        # The cache's comment: maxsize x the largest entry at MAX_QUBITS.
        largest = 0
        for kind in _PERMUTATION_KINDS:
            source, phases = _gather(kind, tuple(range(GATE_ARITY[kind])), MAX_QUBITS)
            largest = max(largest, source.nbytes + (0 if phases is None else phases.nbytes))
        worst = _gather.cache_info().maxsize * largest
        assert worst == 128 * (8 + 16) * 2**MAX_QUBITS == 48 * 2**20
        assert worst <= 64 * 2**20
        # No register above the limit exists to be gathered.
        n = MAX_QUBITS + 1
        with pytest.raises(ResourceLimitError, match="15 qubits exceeds the limit of 14"):
            StateVector(n, np.eye(1, 2**n, dtype=complex)[0])

    def test_tensor_product_equals_kron_bitwise(self, rng):
        for na, nb in itertools.product(range(1, 5), repeat=2):
            a = StateVector(na, random_state(na, rng))
            b = StateVector(nb, random_state(nb, rng))
            joint = tensor_product(a, b).amplitudes
            assert joint.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()


class TestGateOpValidation:
    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="needs 2"):
            GateOp(Gate.CNOT, (0,))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            GateOp(Gate.CNOT, (1, 1))

    def test_angle_on_fixed_gate(self):
        with pytest.raises(ValueError, match="takes no angle"):
            GateOp(Gate.X, (0,), 0.3)

    def test_missing_angle(self):
        with pytest.raises(ValueError, match="requires an angle"):
            GateOp(Gate.RY, (0,))

    def test_non_finite_angle(self):
        with pytest.raises(ValueError, match="finite"):
            GateOp(Gate.RZ, (0,), float("nan"))

    @pytest.mark.parametrize(
        "kind,targets,message",
        [
            (Gate.CNOT, (0,), "gate CNOT needs 2 target(s), got 1"),
            (Gate.CNOT, (1, 1), "gate targets must be distinct, got (1, 1)"),
            (Gate.TOFFOLI, (2, 0, 2), "gate targets must be distinct, got (2, 0, 2)"),
            (Gate.CNOT, (0, -1), "gate targets must be non-negative, got (0, -1)"),
        ],
    )
    def test_messages_are_unchanged(self, kind, targets, message):
        with pytest.raises(ValueError) as exc:
            GateOp(kind, targets)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "targets,qubit", [((3, 5), 3), ((0, 5), 5), ((2, 1), 2), ((1, 4), 4)]
    )
    def test_out_of_range_message_names_the_first_offender(self, targets, qubit):
        with pytest.raises(ValueError) as exc:
            apply_gate(new_zero_state(2), GateOp(Gate.CNOT, targets))
        assert str(exc.value) == f"gate targets qubit {qubit} but the register has 2 qubits"

    def test_targets_become_python_ints(self):
        op = GateOp(Gate.CNOT, [np.int64(2), np.int32(0)])
        assert op.targets == (2, 0)
        assert all(type(q) is int for q in op.targets)


class TestImmutableOps:
    """Each op builds its matrix once, read-only; repeated gates share one
    frozen op; ``gate_matrix`` hands out writable copies."""

    @pytest.mark.parametrize("kind", ALL_GATES, ids=lambda g: g.value)
    def test_kernel_is_read_only_and_copies_are_writable(self, kind):
        from qknn.sim import GATE_ARITY

        angle = 0.37 if kind in PARAMETRIC_GATES else None
        op = GateOp(kind, tuple(range(GATE_ARITY[kind])), angle)
        assert not op._kernel.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            op._kernel[0, 0] = 2.0
        for fresh in (gate_matrix(op.kind, op.angle), gate_matrix(kind, angle)):
            assert fresh.flags.writeable and fresh.dtype == complex
            assert not np.shares_memory(fresh, op._kernel)
            assert fresh.tobytes() == op._kernel.tobytes()
            fresh[0, 0] = 2.0
        assert gate_matrix(op.kind, op.angle)[0, 0] != 2.0
        assert gate_matrix(kind, angle)[0, 0] != 2.0
        assert op._kernel[0, 0] != 2.0

    def test_fixed_kinds_share_one_array(self):
        assert GateOp(Gate.X, (0,))._kernel is GateOp(Gate.X, (3,))._kernel
        assert GateOp(Gate.CNOT, (0, 1))._kernel is GateOp(Gate.CNOT, (2, 0))._kernel

    def test_rz_matches_the_numpy_exp_form_bitwise(self):
        grid = np.concatenate(
            [np.linspace(-4 * math.pi, 4 * math.pi, 40_001), [0.0, -0.0, 1e-300, 1e6, -1e6]]
        )
        for theta in grid.tolist():
            old = np.array(
                [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
            )
            assert gate_matrix(Gate.RZ, theta).tobytes() == old.tobytes(), theta

    def test_shared_ops_are_one_frozen_object(self):
        h = _shared_op(Gate.H, (0,))
        assert h is _shared_op(Gate.H, (0,))
        assert _shared_op(Gate.ISING_XY, (1, 2), 0.5) is _shared_op(Gate.ISING_XY, (1, 2), 0.5)
        assert _shared_op(Gate.ISING_XY, (1, 2), 0.5) is not _shared_op(Gate.ISING_XY, (1, 2), 0.6)
        assert h == GateOp(Gate.H, (0,))
        with pytest.raises(FrozenInstanceError):
            h.targets = (1,)
        with pytest.raises(FrozenInstanceError):
            h._kernel = np.eye(2)

    def test_encoding_swap_test_noise_and_qec_use_shared_ops(self):
        from qknn import classifier, encoding, noise, qec

        def lookups():
            info = _shared_op.cache_info()
            return info.hits + info.misses

        x = np.array([0.1, 0.7, 0.4])
        classifier._swap_test_ops.cache_clear()
        before = lookups()
        point = encoding.apply_feature_map(encoding.encode_point(x))
        classifier.swap_test_state(point.state, point.state)
        noise._apply_paulis(point.state, pauli_frame([["X", "Y", "Z"]])[0])
        # Lookups: 3 H + 2 IsingXY + 2 CNOT; the swap test's H (applied
        # twice) and per qubit pair one CNOT (applied twice) and one Toffoli;
        # 3 Paulis.
        assert lookups() - before == 7 + 7 + 3
        # The repetition code decodes in closed form and builds no gate.
        before = lookups()
        assert qec.code_corrected_flip([1, 0, 1]) == 1
        assert lookups() == before
        # The swap test builds its gates once per width.
        before = lookups()
        classifier.swap_test_state(point.state, point.state)
        assert lookups() == before

    def test_apply_gate_result_is_a_fresh_contiguous_complex_vector(self, rng):
        for n in (1, 4, 9):
            state = StateVector(n, random_state(n, rng))
            ops = [
                GateOp(Gate.H, (n - 1,)),
                GateOp(Gate.RZ, (0,), 0.3),
                GateOp(Gate.X, (n - 1,)),
                GateOp(Gate.Y, (0,)),
            ]
            if n > 2:
                ops += [GateOp(Gate.CNOT, (n - 1, 0)), GateOp(Gate.TOFFOLI, (1, n - 1, 0))]
            for op in ops:
                out = apply_gate(state, op)
                assert type(out) is StateVector and out.num_qubits == n
                assert out.amplitudes.dtype == complex
                assert out.amplitudes.shape == (2**n,)
                assert out.amplitudes.flags.c_contiguous
                assert not np.shares_memory(out.amplitudes, state.amplitudes)
                if op.kind in _PERMUTATION_KINDS:
                    source, phases = _gather(op.kind, op.targets, n)
                    for cached in (source, phases):
                        if cached is not None:
                            assert not cached.flags.writeable
                            assert not np.shares_memory(out.amplitudes, cached)
                            with pytest.raises(ValueError, match="read-only"):
                                cached[0] = 0


class TestStates:
    def test_zero_state_is_all_zero_basis(self):
        state = new_zero_state(3)
        assert state.amplitudes[0] == 1.0
        assert np.linalg.norm(state.amplitudes) == 1.0

    def test_basis_state_msb_convention(self):
        # index 2 on two qubits means qubit 0 (the MSB) is |1>
        state = basis_state(2, 2)
        flipped = apply_gate(new_zero_state(2), GateOp(Gate.X, (0,)))
        np.testing.assert_array_equal(flipped.amplitudes, state.amplitudes)
        assert z_expectation(state, 0) == -1.0
        assert z_expectation(state, 1) == 1.0
        assert bit_value(2, 0, 2) == 1
        assert bit_value(2, 1, 2) == 0

    def test_register_size_limit(self):
        message = "15 qubits exceeds the limit of 14 (2**15 amplitudes)"
        for build in (
            lambda: new_zero_state(MAX_QUBITS + 1),
            lambda: basis_state(MAX_QUBITS + 1, 0),
            lambda: tensor_product(new_zero_state(8), basis_state(7, 5)),
        ):
            with pytest.raises(ResourceLimitError) as exc:
                build()
            assert str(exc.value) == message
        assert new_zero_state(MAX_QUBITS).num_qubits == MAX_QUBITS
        joint = tensor_product(new_zero_state(7), basis_state(7, 5))
        assert joint.num_qubits == MAX_QUBITS and joint.amplitudes[5] == 1.0

    def test_tensor_product_highbits_first(self):
        joint = tensor_product(basis_state(1, 1), basis_state(2, 0))
        np.testing.assert_allclose(joint.amplitudes, basis_state(3, 0b100).amplitudes)

    def test_bad_basis_index(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(2, 4)

    def test_amplitude_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            StateVector(2, np.ones(3, dtype=complex))


class TestObservables:
    """The observables that the reference paths in ``oracles`` read out."""

    def test_inner_product_conjugate_symmetry(self, rng):
        a = StateVector(3, random_state(3, rng))
        b = StateVector(3, random_state(3, rng))
        assert inner_product(a, b) == np.conj(inner_product(b, a))

    def test_inner_product_of_orthogonal_basis_states(self):
        assert inner_product(basis_state(2, 1), basis_state(2, 2)) == 0.0

    def test_inner_product_size_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            inner_product(new_zero_state(1), new_zero_state(2))

    def test_z_expectation_of_superposition(self):
        state = apply_gate(new_zero_state(2), GateOp(Gate.H, (0,)))
        assert abs(z_expectation(state, 0)) < 1e-15
        assert abs(z_expectation(state, 1) - 1.0) < 1e-12

    def test_z_expectation_bad_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            z_expectation(new_zero_state(2), 2)


class TestSampling:
    def test_deterministic_per_seed(self):
        state = apply_gate(new_zero_state(3), GateOp(Gate.H, (1,)))
        a = sample_basis(state, 500, seed=9)
        b = sample_basis(state, 500, seed=9)
        np.testing.assert_array_equal(a, b)
        c = sample_basis(state, 500, seed=10)
        assert not np.array_equal(a, c)

    def test_counts_sum_to_shots_and_respect_support(self):
        state = apply_gate(new_zero_state(2), GateOp(Gate.H, (0,)))
        counts = sample_basis(state, 2000, seed=3)
        assert counts.shape == (4,)
        assert counts.sum() == 2000
        assert set(np.flatnonzero(counts)) <= {0b00, 0b10}

    def test_frequencies_approach_probabilities(self):
        state = apply_gate(new_zero_state(1), GateOp(Gate.RY, (0,), 1.0))
        p1 = math.sin(0.5) ** 2
        counts = sample_basis(state, 100_000, seed=11)
        assert abs(counts[1] / 100_000 - p1) < 0.01

    def test_basis_state_sampling_is_certain(self):
        counts = sample_basis(basis_state(2, 3), 50, seed=0)
        np.testing.assert_array_equal(counts, [0, 0, 0, 50])

    def test_invalid_shots(self):
        with pytest.raises(ValueError, match="positive"):
            sample_basis(new_zero_state(1), 0, seed=0)

    def test_non_normalised_state_rejected(self):
        with pytest.raises(ValueError, match="not normalised"):
            sample_basis(StateVector(1, np.array([1.0, 1.0])), 10, seed=0)

    def test_a_generator_seed_continues_its_stream(self):
        rng = np.random.default_rng(17)
        rng.random(5)
        clone = copy.deepcopy(rng)
        states = [
            StateVector(3, random_state(3, np.random.default_rng(seed))) for seed in (1, 2)
        ]
        for state, shots in zip(states, (700, 333)):
            np.testing.assert_array_equal(
                sample_basis(state, shots, rng), choice_sample_basis(state, shots, clone)
            )
        assert rng.random() == clone.random()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_equal_generator_choice(self, n):
        # 60 seeds per register size, 540 in all; every third state has
        # zero-probability entries so empty and trailing bins are covered.
        rng = np.random.default_rng(100 + n)
        for seed in range(60):
            amps = random_state(n, rng)
            if seed % 3 == 0:
                amps[rng.random(2**n) < 0.5] = 0.0
                amps[-1] = 0.0
                if not amps.any():
                    amps[0] = 1.0
                amps /= np.linalg.norm(amps)
            state = StateVector(n, amps)
            shots = int(rng.integers(1, 4097))
            counts = sample_basis(state, shots, seed)
            expected = choice_sample_basis(state, shots, seed)
            assert counts.dtype == expected.dtype and counts.shape == (2**n,)
            np.testing.assert_array_equal(counts, expected)
