"""Classifier tests: swap-test distances, neighbour ranking, voting,
noise mitigation, and the classical baseline."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qknn import cknn, classifier
from qknn.classifier import (
    QknnConfig,
    QknnModel,
    _code_pauli,
    _encode_rows,
    _fidelity_knn,
    _pair_fidelities,
    classify,
    find_neighbors,
    fit,
    fit_predict,
    swap_test_state,
)
from qknn.encoding import EncodingConfig, apply_feature_map, encode_point
from qknn.noise import NoiseKind, NoiseSpec, draw_pauli
from qknn.qec import CODE_LENGTH
from qknn.sim import Gate, GateOp, ResourceLimitError, StateVector, apply_gate, new_zero_state

from oracles import (
    ancilla_zero_probability,
    apply_dense,
    choice_sample_basis,
    circuit_corrected_flip,
    cknn_classify,
    cknn_find_neighbors,
    encode_rows,
    pauli_frame,
    qknn_classify,
    quantum_distance,
    random_state,
    state_fidelity,
    tensor_product,
)


def feature_for_fidelity(f: float) -> float:
    """Inverse of the single-feature overlap at angle scale pi.

    With one feature and scale pi, F(x, 0) = cos^2(pi * x / 2); solving
    for x gives the feature value whose fidelity to 0.0 is exactly f.
    """
    return (2.0 / math.pi) * math.acos(math.sqrt(f))


PI_SCALE = EncodingConfig(angle_scale=math.pi)


def point(x, config=PI_SCALE, row=-1):
    return encode_point(np.asarray(x, dtype=float), config, source_row=row)


class TestQuantumDistance:
    """The reference swap-test distance in ``oracles`` that C08 reads."""

    def test_identical_states_give_one(self):
        a = point([0.3, 0.8])
        assert quantum_distance(a, point([0.3, 0.8])) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states_give_half(self):
        # fidelity cos^2(pi/2) = 0 at scale pi for features 0 and 1
        d = quantum_distance(point([0.0]), point([1.0]))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_intermediate_fidelity_maps_affinely(self):
        x = feature_for_fidelity(0.5)
        d = quantum_distance(point([0.0]), point([x]))
        assert d == pytest.approx(0.75, abs=1e-12)

    def test_range_is_half_to_one(self, rng):
        for _ in range(25):
            a, b = rng.uniform(0, 1, size=(2, 3))
            d = quantum_distance(point(a), point(b))
            assert 0.5 - 1e-12 <= d <= 1.0 + 1e-12

    def test_symmetry(self, rng):
        a, b = point(rng.uniform(0, 1, 2)), point(rng.uniform(0, 1, 2))
        assert quantum_distance(a, b) == pytest.approx(
            quantum_distance(b, a), abs=1e-12
        )

    def test_rejects_bad_mode_and_shots(self):
        a = point([0.1])
        with pytest.raises(ValueError, match="distance mode"):
            quantum_distance(a, a, mode="euclidean")
        with pytest.raises(ValueError, match="shots"):
            quantum_distance(a, a, mode="sampled", shots=0)


class TestSwapTestCircuit:
    def test_ancilla_zero_matches_closed_form(self, rng):
        # the circuit realization must agree with 0.5 * (1 + F)
        for _ in range(10):
            a, b = point(rng.uniform(0, 1, 2)), point(rng.uniform(0, 1, 2))
            swap = swap_test_state(a.state, b.state)
            expected = 0.5 * (1.0 + state_fidelity(a.state, b.state))
            assert ancilla_zero_probability(swap) == pytest.approx(expected, abs=1e-10)

    def test_register_width(self):
        swap = swap_test_state(point([0.2]).state, point([0.7]).state)
        assert swap.num_qubits == 3
        wide = point([0.5] * 7).state
        with pytest.raises(ResourceLimitError, match="15 qubits exceeds the limit of 14"):
            swap_test_state(wide, wide)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_circuit_matches_the_gate_by_gate_reference(self, d):
        # The register joined by tensor products and every gate built
        # afresh; only the sign of a zero amplitude may differ.
        rng = np.random.default_rng(50 + d)
        a, b = (StateVector(d, random_state(d, rng)) for _ in range(2))
        joint = tensor_product(tensor_product(new_zero_state(1), a), b)
        ops = [GateOp(Gate.H, (0,))]
        for i in range(d):
            qa, qb = 1 + i, 1 + d + i
            ops += [GateOp(Gate.CNOT, (qb, qa)), GateOp(Gate.TOFFOLI, (0, qa, qb)),
                    GateOp(Gate.CNOT, (qb, qa))]
        for op in ops + [GateOp(Gate.H, (0,))]:
            joint = apply_gate(joint, op)
        swap = swap_test_state(a, b)
        assert np.array_equal(swap.amplitudes, joint.amplitudes)
        assert swap.probabilities().tobytes() == joint.probabilities().tobytes()

    def test_mismatched_registers_rejected(self):
        with pytest.raises(ValueError, match="register sizes"):
            swap_test_state(point([0.2]).state, point([0.2, 0.3]).state)

    def test_sampled_mode_converges(self):
        a, b = point([0.0], row=0), point([0.4], row=1)
        exact = quantum_distance(a, b)
        sampled = quantum_distance(a, b, mode="sampled", shots=200_000, seed=11)
        assert sampled == pytest.approx(exact, abs=0.005)


def build_model(features, labels, k=1, config=PI_SCALE):
    states = np.stack([point(row, config).state.amplitudes for row in features])
    return QknnModel(
        train_states=states,
        labels=np.asarray(labels),
        n_classes=int(np.max(labels)) + 1,
        config=QknnConfig(k=k, encoding=config),
    )


class TestNeighbors:
    def test_ranking_follows_constructed_fidelities(self):
        # training features chosen so fidelities to the test point 0.0
        # are exactly 0.9, 0.5, 0.2
        xs = [feature_for_fidelity(f) for f in (0.5, 0.9, 0.2)]
        model = build_model([[x] for x in xs], [0, 0, 0], k=3)
        indices, fidelities = find_neighbors(model, point([0.0]))
        np.testing.assert_array_equal(indices, [1, 0, 2])
        np.testing.assert_allclose(fidelities, [0.9, 0.5, 0.2], atol=1e-10)

    def test_fidelity_ties_break_by_lower_index(self):
        model = build_model([[0.4], [0.4], [0.4]], [0, 1, 2], k=2)
        indices, _ = find_neighbors(model, point([0.4]))
        np.testing.assert_array_equal(indices, [0, 1])

    def test_qubit_count_mismatch(self):
        model = build_model([[0.1, 0.2]], [0])
        with pytest.raises(ValueError, match="qubits"):
            find_neighbors(model, point([0.1]))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_source_row_must_be_an_int_of_at_least_minus_one(self, mode):
        # The row seeds a sampled test's stream, so a bad one is refused by
        # name in both modes, not inside NumPy's seeding.
        model = build_model([[0.0], [0.5]], [0, 1])
        model.config = replace(model.config, distance_mode=mode, shots=16)
        bad = [(-2, ValueError), (1.5, TypeError), (True, TypeError), ("3", TypeError),
               (None, TypeError), (np.int64(3), TypeError)]
        for row, error in bad:
            with pytest.raises(error, match="source_row"):
                find_neighbors(model, point([0.1], row=row))
            with pytest.raises(error, match="source_row"):
                classify(model, point([0.1], row=row))
        for row in (-1, 0):
            assert classify(model, point([0.1], row=row))[0] == 0

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 0), (2, 2, 4)])
    def test_training_states_must_form_a_state_matrix(self, shape):
        with pytest.raises(ValueError, match=r"\[rows, 2\*\*d\] matrix"):
            QknnModel(np.zeros(shape, dtype=complex), [0, 0], 1, QknnConfig(k=1))


class TestClassify:
    def test_nearest_label_wins_k1(self):
        model = build_model([[0.0], [0.5]], [0, 1], k=1)
        label, scores = classify(model, point([0.1]))
        assert label == 0
        assert scores[0] == pytest.approx(1.0)

    def test_majority_beats_single_closest(self):
        # two moderately near class-1 points outvote one exact class-0 match
        xs = [0.0, 0.15, 0.2]
        model = build_model([[x] for x in xs], [0, 1, 1], k=3)
        label, _ = classify(model, point([0.05]))
        assert label == 1

    def test_vote_tie_goes_to_larger_fidelity_sum(self):
        # k=2, one vote each; class 1's neighbour is nearer
        model = build_model([[0.5], [0.1]], [0, 1], k=2)
        label, _ = classify(model, point([0.0]))
        assert label == 1

    def test_full_tie_goes_to_lower_class_index(self):
        model = build_model([[0.2], [0.2]], [1, 0], k=2)
        label, _ = classify(model, point([0.2]))
        assert label == 0

    def test_scores_are_fidelity_weighted_and_normalized(self):
        xs = [feature_for_fidelity(f) for f in (0.8, 0.4)]
        model = build_model([[x] for x in xs], [0, 1], k=2)
        _, scores = classify(model, point([0.0]))
        np.testing.assert_allclose(scores, [0.8 / 1.2, 0.4 / 1.2], atol=1e-10)
        assert scores.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_fidelities_fall_back_to_count_shares(self):
        # both training states orthogonal to the test state at scale pi
        model = build_model([[1.0], [1.0]], [0, 1], k=2)
        _, scores = classify(model, point([0.0]))
        np.testing.assert_allclose(scores, [0.5, 0.5], atol=1e-12)


def toy_dataset(features, labels, make_dataset, n_classes=None):
    return make_dataset(
        np.asarray(features, dtype=float), np.asarray(labels), n_classes=n_classes
    )


class TestFitPredict:
    def test_two_prototype_toy_problem(self, make_dataset):
        train = toy_dataset([[0.0], [0.5]], [0, 1], make_dataset)
        test = toy_dataset([[0.1], [0.45]], [0, 1], make_dataset)
        cfg = QknnConfig(k=1, encoding=PI_SCALE)
        preds, scores = fit_predict(train, test, cfg)
        np.testing.assert_array_equal(preds, [0, 1])
        assert scores.shape == (2, 2)

    def test_resubstitution_with_k1_is_perfect(self, rng, make_dataset):
        features = rng.uniform(0, 1, size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]  # ensure every class appears
        data = toy_dataset(features, labels, make_dataset)
        preds, _ = fit_predict(data, data, QknnConfig(k=1, encoding=PI_SCALE))
        np.testing.assert_array_equal(preds, data.labels)

    def test_training_order_does_not_change_predictions(self, rng, make_dataset):
        features = rng.uniform(0, 1, size=(10, 2))
        labels = rng.integers(0, 2, size=10)
        labels[:2] = [0, 1]
        test = toy_dataset(rng.uniform(0, 1, size=(6, 2)), [0] * 6, make_dataset, n_classes=2)
        cfg = QknnConfig(k=3, encoding=PI_SCALE)
        base, _ = fit_predict(toy_dataset(features, labels, make_dataset), test, cfg)
        perm = rng.permutation(10)
        shuffled, _ = fit_predict(
            toy_dataset(features[perm], labels[perm], make_dataset), test, cfg
        )
        np.testing.assert_array_equal(base, shuffled)

    def test_deterministic_across_calls(self, rng, make_dataset):
        features = rng.uniform(0, 1, size=(8, 2))
        labels = np.array([0, 1] * 4)
        train = toy_dataset(features, labels, make_dataset)
        test = toy_dataset(rng.uniform(0, 1, size=(4, 2)), [0] * 4, make_dataset, n_classes=2)
        cfg = QknnConfig(k=3, encoding=PI_SCALE, distance_mode="sampled", shots=256)
        p1, s1 = fit_predict(train, test, cfg)
        p2, s2 = fit_predict(train, test, cfg)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(s1, s2)

    def test_matches_classical_knn_on_one_dimension(self, rng, make_dataset):
        # on one feature in [0, 0.5] the fidelity ranking at scale pi is
        # the reverse of the euclidean ranking, so predictions coincide
        features = rng.uniform(0, 0.5, size=(14, 1))
        labels = rng.integers(0, 2, size=14)
        labels[:2] = [0, 1]
        train = toy_dataset(features, labels, make_dataset)
        test = toy_dataset(rng.uniform(0, 0.5, size=(8, 1)), [0] * 8, make_dataset, n_classes=2)
        q_preds, _ = fit_predict(train, test, QknnConfig(k=3, encoding=PI_SCALE))
        c_preds, _ = cknn.fit_predict(train, test, k=3)
        np.testing.assert_array_equal(q_preds, c_preds)

    def test_sampled_mode_matches_exact_at_high_shots(self, rng, make_dataset):
        # A pair's estimate is 2 * Binomial(shots, p0) / shots - 1 with
        # p0 = (1 + F) / 2, so its sd is 2 * sqrt(p0 (1 - p0) / shots).
        features = rng.uniform(0, 1, size=(6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])
        train = toy_dataset(features, labels, make_dataset)
        test = toy_dataset(rng.uniform(0, 1, size=(4, 2)), [0] * 4, make_dataset, n_classes=2)
        k, shots = 3, 20000
        exact_cfg = QknnConfig(k=k, encoding=PI_SCALE)
        sampled_cfg = replace(exact_cfg, distance_mode="sampled", shots=shots)
        exact, _ = fit_predict(train, test, exact_cfg)
        sampled, _ = fit_predict(train, test, sampled_cfg)
        exact_model, sampled_model = fit(train, exact_cfg), fit(train, sampled_cfg)
        separated = 0
        for i, row in enumerate(test.features):
            test_point = apply_feature_map(point(row, row=i))
            fids = _pair_fidelities(exact_model, test_point.state.amplitudes, i)
            estimates = _pair_fidelities(sampled_model, test_point.state.amplitudes, i)
            p0 = (1.0 + fids) / 2.0
            sd = 2.0 * np.sqrt(p0 * (1.0 - p0) / shots)
            assert np.all(np.abs(estimates - fids) <= 5.0 * sd)
            # With every estimate within 5 sd, a gap of 10 sd between the
            # k-th and (k+1)-th exact fidelities keeps the same k neighbours.
            ranked = np.sort(fids)[::-1]
            if ranked[k - 1] - ranked[k] > 10.0 * sd.max():
                separated += 1
                assert sampled[i] == exact[i]
        assert separated >= 2

    def test_sampled_row_draws_every_pair_from_one_stream(self, rng, make_dataset):
        # The swap-test circuit measured by Generator.choice, one generator
        # seeded (seed, row + 1) drawing the pairs in training order.
        train = toy_dataset(rng.uniform(0, 1, size=(7, 2)), [0, 1] * 3 + [0], make_dataset)
        cfg = QknnConfig(k=3, encoding=PI_SCALE, distance_mode="sampled", shots=300, seed=8)
        model = fit(train, cfg)
        row = 5
        test_point = apply_feature_map(point(rng.uniform(0, 1, size=2), row=row))
        stream = np.random.default_rng([cfg.seed, row + 1])
        expected = []
        for train_state in model.train_states:
            swap = swap_test_state(StateVector(2, train_state), test_point.state)
            counts = choice_sample_basis(swap, cfg.shots, stream)
            p_zero = counts[: counts.size // 2].sum() / cfg.shots
            expected.append(min(max(2.0 * p_zero - 1.0, 0.0), 1.0))
        assert _pair_fidelities(model, test_point.state.amplitudes, row).tolist() == expected

    def test_schema_mismatches_rejected(self, make_dataset):
        train = toy_dataset([[0.1, 0.2]], [0], make_dataset)
        narrow = toy_dataset([[0.1]], [0], make_dataset)
        with pytest.raises(ValueError, match="feature count"):
            fit_predict(train, narrow, QknnConfig(k=1))

    # Noisy at the default map angle, pi/2, is the frame path: no row is
    # encoded there, so every encoding, frame and kernel step must not run.
    @pytest.mark.parametrize(
        "noise", [None, NoiseSpec(NoiseKind.MIXED_PAULI, 0.1)], ids=["noiseless", "noisy"]
    )
    def test_schema_is_checked_before_any_row_is_encoded(
        self, rng, make_dataset, monkeypatch, noise
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the schema check")

        for step in ("encode_point", "_encode_rows", "_draw_paulis", "_frame_angles",
                     "_frame_fidelities"):
            monkeypatch.setattr(classifier, step, refuse)
        train = toy_dataset(rng.uniform(0, 1, size=(50, 2)), [0, 1] * 25, make_dataset)
        wider = toy_dataset(rng.uniform(0, 1, size=(5, 3)), [0] * 5, make_dataset, n_classes=2)
        cfg = QknnConfig(k=1, noise=noise)
        assert cfg.encoding.feature_map_angle == math.pi / 2
        with pytest.raises(ValueError, match="feature count"):
            fit_predict(train, wider, cfg)

    def test_empty_training_set_rejected(self, make_dataset):
        import qknn.data as data_mod

        empty = data_mod.Dataset(
            name="toy",
            features=np.zeros((0, 1)),
            labels=np.zeros(0, dtype=int),
            feature_names=("f0",),
            class_names=("0", "1"),
        )
        test = toy_dataset([[0.1]], [0], make_dataset, n_classes=2)
        with pytest.raises(ValueError, match="empty"):
            fit_predict(empty, test, QknnConfig(k=1))

    def test_fit_builds_usable_model(self, make_dataset):
        train = toy_dataset([[0.0], [0.5]], [0, 1], make_dataset)
        model = fit(train, QknnConfig(k=1, encoding=PI_SCALE))
        label, _ = classify(model, point([0.05]))
        assert label == 0

    def test_sampled_fit_rejects_a_swap_register_over_the_limit(self, make_dataset):
        # 7 features need a 2*7+1 = 15-qubit swap test: refused at fit time,
        # before any pair is measured.  Exact mode never builds that register.
        wide = toy_dataset(np.full((2, 7), 0.5), [0, 1], make_dataset)
        with pytest.raises(ResourceLimitError, match="register of 15 qubits") as info:
            fit(wide, QknnConfig(k=1, distance_mode="sampled"))
        assert "max_qubits" not in str(info.value)
        assert fit(wide, QknnConfig(k=1)).labels.size == 2
        narrow = toy_dataset(np.full((2, 6), 0.5), [0, 1], make_dataset)
        assert fit(narrow, QknnConfig(k=1, distance_mode="sampled")).labels.size == 2

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_fit_then_classify_matches_fit_predict(self, rng, make_dataset, mode):
        train = toy_dataset(rng.uniform(0, 1, size=(10, 2)), [0, 1] * 5, make_dataset)
        test = toy_dataset(rng.uniform(0, 1, size=(5, 2)), [0] * 5, make_dataset, n_classes=2)
        cfg = QknnConfig(k=3, encoding=PI_SCALE, distance_mode=mode, shots=128)
        labels, scores = fit_predict(train, test, cfg)
        model = fit(train, cfg)
        for i, row in enumerate(test.features):
            label, row_scores = classify(model, apply_feature_map(point(row, row=i)))
            assert label == labels[i]
            np.testing.assert_array_equal(row_scores, scores[i])

    def test_encoded_states_are_held_once(self, make_dataset):
        # At d = 10 on a wdbc-sized split, the traced peak of fit stays near
        # its one [rows, 2**d] matrix, and that of fit_predict near the
        # train and test matrices: no stacked second copy of either.
        rng = np.random.default_rng(5)
        d, n_train, n_test = 10, 455, 114
        train = toy_dataset(rng.uniform(0, 1, (n_train, d)), rng.integers(0, 2, n_train),
                            make_dataset)
        test = toy_dataset(rng.uniform(0, 1, (n_test, d)), rng.integers(0, 2, n_test),
                           make_dataset, n_classes=2)
        state_bytes = 2**d * np.dtype(complex).itemsize
        cfg = QknnConfig()
        tracemalloc.start()
        try:
            model = fit(train, cfg)
            fit_peak = tracemalloc.get_traced_memory()[1]
            del model
            tracemalloc.reset_peak()
            fit_predict(train, test, cfg)
            pipeline_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit_peak < 1.25 * n_train * state_bytes
        assert pipeline_peak < 1.25 * (n_train + n_test) * state_bytes


class TestConfigValidation:
    def test_repeat_vote_is_not_a_mitigation_mode(self):
        # The paper mitigates by repetition encoding only, so a mode that
        # regroups ancilla shots is refused, with sampled distances too.
        with pytest.raises(
            ValueError, match=r"one of \('none', 'physical-code'\), got 'repeat-vote'"
        ):
            QknnConfig(mitigation="repeat-vote", distance_mode="sampled")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="k must"):
            QknnConfig(k=0)
        with pytest.raises(ValueError, match="mitigation"):
            QknnConfig(mitigation="zne")
        with pytest.raises(ValueError, match="distance mode"):
            QknnConfig(distance_mode="fuzzy")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 2.5), ("k", True), ("k", "3"),
            ("shots", 2.5), ("shots", True),
            ("seed", 1.5), ("seed", False), ("seed", None),
        ],
    )
    def test_counts_and_seeds_must_be_ints(self, field, value):
        # k=2.5 used to fail inside the neighbour ranking, shots=2.5 and
        # seed=1.5 mid-run; each is refused here, naming the field.
        with pytest.raises(TypeError, match=rf"{field} must be an int, got {value!r}"):
            QknnConfig(**{field: value})

    @pytest.mark.parametrize("value", ["x", "bit_flip", NoiseKind.BIT_FLIP, 0.1])
    def test_noise_must_be_a_noise_spec(self, value):
        with pytest.raises(TypeError, match="noise must be None or a NoiseSpec"):
            QknnConfig(noise=value)

    @pytest.mark.parametrize("value", [None, {"angle_scale": 1.0}, math.pi])
    def test_encoding_must_be_an_encoding_config(self, value):
        # None used to run noiseless with the default encoding but fail in
        # fit_predict once noise was on, and a dict failed mid-run.
        with pytest.raises(TypeError, match="encoding must be an EncodingConfig"):
            QknnConfig(encoding=value)

    @pytest.mark.parametrize("value", [1, 0, "yes", None])
    def test_use_feature_map_must_be_a_bool(self, value):
        with pytest.raises(TypeError, match="use_feature_map must be a bool"):
            QknnConfig(use_feature_map=value)


NOISE_CFG = dict(k=3, encoding=PI_SCALE, seed=5)


def noisy_accuracy(train, test, p, trials, make_dataset, **cfg_kwargs):
    hits = 0
    for trial in range(trials):
        cfg = QknnConfig(
            noise=NoiseSpec(NoiseKind.BIT_FLIP, p),
            **{**NOISE_CFG, **cfg_kwargs, "seed": 100 + trial},
        )
        preds, _ = fit_predict(train, test, cfg)
        hits += int(np.sum(preds == test.labels))
    return hits / (trials * test.n_instances)


class TestNoiseAndMitigation:
    @pytest.fixture()
    def separated_problem(self, rng, make_dataset):
        # two tight 3-d clusters around 0.3 and 0.7 per feature; clean
        # accuracy is 1.0 and single bit flips compound across qubits,
        # so the channel visibly hurts
        c0, c1 = np.full(3, 0.3), np.full(3, 0.7)
        train_x = np.clip(
            np.vstack([rng.normal(c0, 0.05, (10, 3)), rng.normal(c1, 0.05, (10, 3))]),
            0,
            1,
        )
        test_x = np.clip(
            np.vstack([rng.normal(c0, 0.05, (5, 3)), rng.normal(c1, 0.05, (5, 3))]),
            0,
            1,
        )
        train = make_dataset(train_x, np.array([0] * 10 + [1] * 10))
        test = make_dataset(test_x, np.array([0] * 5 + [1] * 5))
        return train, test

    def test_zero_probability_noise_is_a_no_op(self, separated_problem):
        train, test = separated_problem
        clean_cfg = QknnConfig(**NOISE_CFG)
        noisy_cfg = replace(clean_cfg, noise=NoiseSpec(NoiseKind.BIT_FLIP, 0.0))
        clean, _ = fit_predict(train, test, clean_cfg)
        noisy, _ = fit_predict(train, test, noisy_cfg)
        np.testing.assert_array_equal(clean, noisy)

    def test_noise_degrades_accuracy(self, separated_problem, make_dataset):
        train, test = separated_problem
        clean = noisy_accuracy(train, test, 0.0, 1, make_dataset)
        noisy = noisy_accuracy(train, test, 0.5, 8, make_dataset)
        assert clean == 1.0
        assert noisy < 0.9

    def test_physical_code_beats_unmitigated(self, separated_problem, make_dataset):
        train, test = separated_problem
        p = 0.3
        plain = noisy_accuracy(train, test, p, 12, make_dataset)
        coded = noisy_accuracy(
            train, test, p, 12, make_dataset, mitigation="physical-code"
        )
        assert coded > plain

    def test_noise_lands_after_the_feature_map(self, separated_problem):
        # A certain bit flip draws X on every qubit, so each fitted state is
        # fixed; injecting before the map would give an orthogonal state.
        train, _ = separated_problem
        cfg = QknnConfig(**NOISE_CFG, noise=NoiseSpec(NoiseKind.BIT_FLIP, 1.0))
        model = fit(train, cfg)
        n = train.n_features
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)

        def flip_all(amps):
            for q in range(n):
                amps = apply_dense(amps, pauli_x, (q,), n)
            return amps

        for i, row in enumerate(train.features):
            clean = encode_point(row, cfg.encoding, source_row=i)
            after = flip_all(apply_feature_map(clean).state.amplitudes)
            flipped = StateVector(n, flip_all(clean.state.amplitudes))
            before = apply_feature_map(replace(clean, state=flipped)).state.amplitudes
            got = model.train_states[i]
            np.testing.assert_allclose(got, after, atol=1e-12)
            assert abs(np.vdot(before, got)) ** 2 < 1e-12

    @pytest.mark.parametrize("mitigation", ["none", "physical-code"])
    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_one_draw_loop_matches_the_two_loop_oracle(
        self, separated_problem, kind, mitigation
    ):
        # The oracle draws each trajectory with a per-mode loop and injects
        # each drawn error as a gate; the states must be bitwise equal, and
        # both must leave the stream at the same place.
        train, test = separated_problem
        rng = np.random.default_rng(3)
        narrow = rng.uniform(0, 1, (20, 1)), rng.uniform(0, 1, (10, 1))
        wide = rng.uniform(0, 1, (20, 6)), rng.uniform(0, 1, (10, 6))
        rows = train.features, test.features
        # (train rows, test rows, config changes)
        variants = [
            (*rows, {}),
            (*rows, {"use_feature_map": False}),
            (*rows, {"encoding": replace(PI_SCALE, feature_map_angle=0.7)}),
            (*narrow, {}),
            (*wide, {}),
        ]
        for p in (0.1, 0.5):
            for seed in (0, 5, 19):
                cfg = QknnConfig(
                    **{**NOISE_CFG, "seed": seed}, noise=NoiseSpec(kind, p),
                    mitigation=mitigation,
                )
                reference = encode_rows(train.features, cfg, np.random.default_rng(seed))
                expected = np.stack([point.state.amplitudes for point in reference])
                assert np.array_equal(fit(train, cfg).train_states, expected)
                for train_x, test_x, changes in variants:
                    variant = replace(cfg, **changes)
                    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                    for features in (train_x, test_x):
                        got = _encode_rows(features, variant, ours)
                        want = encode_rows(features, variant, theirs)
                        assert got.dtype == complex
                        assert len(got) == len(want) == len(features)
                        # Row i of the matrix is the state of source row i.
                        for row, b in enumerate(want):
                            assert got[row].tobytes() == b.state.amplitudes.tobytes()
                            assert b.source_row == row
                        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("noise_p", [0.0, 0.3])
    def test_rows_are_checked_with_encode_points_messages(self, noise_p):
        # The whole matrix is checked once, before any draw, with the
        # messages encode_point gives a single row.
        cfg = QknnConfig(**NOISE_CFG, noise=NoiseSpec(NoiseKind.BIT_FLIP, noise_p))
        rng = np.random.default_rng(0)
        bad = np.full((3, 2), 0.5)
        bad[1, 0] = 1.5
        message = r"features must lie in \[0, 1\]; offending values: \[1.5\]"
        with pytest.raises(ValueError, match=message):
            _encode_rows(bad, cfg, rng)
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="feature vector contains non-finite values"):
            _encode_rows(bad, cfg, rng)
        with pytest.raises(ValueError, match=r"non-empty 1-D feature vector, got shape \(0,\)"):
            _encode_rows(np.zeros((3, 0)), cfg, rng)
        assert _encode_rows(np.zeros((0, 2)), cfg, rng).shape == (0, 4)

    @pytest.mark.parametrize(
        "mitigation,p,per_qubit",
        [("none", 0.3, 1), ("physical-code", 0.3, CODE_LENGTH), ("physical-code", 0.0, 0)],
    )
    def test_draws_per_qubit_follow_the_mitigation(
        self, monkeypatch, mitigation, p, per_qubit
    ):
        # One channel draw per qubit without mitigation, one per physical
        # qubit of the three-qubit code with it, none at a noise level of 0.
        # The draws make one trajectory per encoded row: one frame row of
        # (x, z) bits per row, or no frame at all at a noise level of 0.
        calls, frames = [], []

        def counting_draw(spec, rng):
            calls.append(spec)
            return noise_draw(spec, rng)

        def recording_frames(*args):
            frames.append(draw_paulis(*args))
            return frames[-1]

        noise_draw, draw_paulis = classifier.draw_pauli, classifier._draw_paulis
        monkeypatch.setattr(classifier, "draw_pauli", counting_draw)
        monkeypatch.setattr(classifier, "_draw_paulis", recording_frames)
        cfg = QknnConfig(
            **NOISE_CFG, noise=NoiseSpec(NoiseKind.MIXED_PAULI, p), mitigation=mitigation
        )
        _encode_rows(np.full((5, 2), 0.5), cfg, np.random.default_rng(0))
        assert len(calls) == 5 * 2 * per_qubit
        assert [frame.shape for frame in frames] == ([(5, 2 * 2)] if p else [])

    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_a_code_block_is_three_draws_in_order(self, kind):
        # The paper's code: each block takes CODE_LENGTH = 3 draws from the
        # stream, in order; X parts go to the majority, Z parts to parity.
        assert CODE_LENGTH == 3
        spec = NoiseSpec(kind, 0.4)
        ours, theirs = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(200):
            draws = [draw_pauli(spec, theirs) for _ in range(3)]
            x = int(sum(d in ("X", "Y") for d in draws) >= 2)
            z = sum(d in ("Z", "Y") for d in draws) % 2
            assert _code_pauli(spec, ours) == (x, z)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("p", [0.1, 0.3])
    @pytest.mark.parametrize(
        "kind,z_share", [(NoiseKind.PHASE_FLIP, 1.0), (NoiseKind.MIXED_PAULI, 2.0 / 3.0)]
    )
    def test_physical_code_amplifies_phase_errors(self, kind, z_share, p):
        # The bit-flip code leaves a logical Z whenever an odd number of the
        # n physical draws carry a Z part (probability q_z each), so the
        # logical phase-error rate rises to (1 - (1 - 2 q_z)^n) / 2
        # (Nielsen & Chuang, section 10.1).
        draws, n = 20_000, CODE_LENGTH
        spec, rng = NoiseSpec(kind, p), np.random.default_rng(7)
        paulis = [_code_pauli(spec, rng) for _ in range(draws)]
        rate = sum(z for _, z in paulis) / draws
        expected = (1.0 - (1.0 - 2.0 * z_share * p) ** n) / 2.0
        assert expected > z_share * p
        z = (rate - expected) / math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(z) < 4.0

    @pytest.mark.parametrize("p", [0.1, 0.3])
    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_physical_code_draws_match_the_enumerated_code_channel(self, kind, p):
        # Every one of the 4^n physical Pauli patterns, with its probability:
        # the X parts decode through the circuit-level code path of
        # ``oracles``, the Z parts combine by parity, and the pair names
        # the logical Pauli.
        single = {
            NoiseKind.BIT_FLIP: {"X": p},
            NoiseKind.PHASE_FLIP: {"Z": p},
            NoiseKind.BIT_PHASE_FLIP: {"Y": p},
            NoiseKind.MIXED_PAULI: {"X": p / 3, "Y": p / 3, "Z": p / 3},
        }[kind]
        single["I"] = 1.0 - p
        n = CODE_LENGTH
        logical = {"I": 0.0, "X": 0.0, "Y": 0.0, "Z": 0.0}
        names = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        for pattern in itertools.product(single, repeat=n):
            weight = math.prod(single[pauli] for pauli in pattern)
            flip = circuit_corrected_flip([int(pauli in "XY") for pauli in pattern], n)
            parity = sum(pauli in "ZY" for pauli in pattern) % 2
            logical[names[flip, parity]] += weight
        assert math.isclose(sum(logical.values()), 1.0, rel_tol=1e-12)
        draws = 20_000
        spec, rng = NoiseSpec(kind, p), np.random.default_rng(11)
        counts = {pauli: 0 for pauli in logical}
        for _ in range(draws):
            counts[names[_code_pauli(spec, rng)]] += 1
        for pauli, prob in logical.items():
            if prob == 0.0:
                assert counts[pauli] == 0, pauli
                continue
            z = (counts[pauli] - draws * prob) / math.sqrt(draws * prob * (1.0 - prob))
            assert abs(z) < 4.0, (pauli, counts[pauli], draws * prob)


#: Map angles at which CNOT . IsingXY is Clifford, and None for the map off.
FRAME_ANGLES = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, -math.pi / 2, None]


class TestPauliFrames:
    """A noisy exact run at a Clifford map angle, or with the map off,
    pulls each trajectory back onto the product encoding; its fidelities
    must be those of the ``_encode_rows`` states on the same draws."""

    @staticmethod
    def config(d, angle, scale, mitigation="none"):
        encoding = EncodingConfig(angle_scale=scale, feature_map_angle=angle or 0.0)
        return QknnConfig(
            k=1, encoding=encoding, use_feature_map=angle is not None, seed=d,
            noise=NoiseSpec(NoiseKind.MIXED_PAULI, 0.5), mitigation=mitigation,
        )

    @staticmethod
    def both_fidelities(train_x, test_x, cfg, angle):
        """(frame fidelities, state fidelities) with each path drawing from
        its own generator at the config seed, and both generators after."""
        d = train_x.shape[1]
        ours, theirs = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
        pullback = classifier._pullback(d, angle)
        train_angles = classifier._frame_angles(train_x, cfg, ours, pullback)
        test_angles = classifier._frame_angles(test_x, cfg, ours, pullback)
        frames = classifier._frame_fidelities(test_angles, train_angles)
        model = QknnModel(
            classifier._encode_rows(train_x, cfg, theirs), np.zeros(len(train_x), int), 1, cfg
        )
        test_states = classifier._encode_rows(test_x, cfg, theirs)
        states = np.array(
            [_pair_fidelities(model, t, row) for row, t in enumerate(test_states)]
        )
        return frames, states, ours, theirs

    @pytest.mark.parametrize("scale", [2 * math.pi, math.pi, 0.7])
    @pytest.mark.parametrize("angle", FRAME_ANGLES)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_single_qubit_pauli_matches_the_states(self, d, angle, scale, monkeypatch):
        # Training row 3q + j carries Pauli "XYZ"[j] on qubit q alone; the
        # test rows carry none, then random patterns.
        rng = np.random.default_rng(100 + d)
        single = [
            [pauli if qubit == q else None for qubit in range(d)]
            for q in range(d) for pauli in "XYZ"
        ]
        random_rows = [list(rng.choice(["X", "Y", "Z", None], size=d)) for _ in range(4)]
        train_x, test_x = rng.uniform(0, 1, (3 * d, d)), rng.uniform(0, 1, (5, d))
        fixed = {len(train_x): single, len(test_x): [[None] * d] + random_rows}
        monkeypatch.setattr(
            classifier, "_draw_paulis", lambda rows, d, cfg, rng: pauli_frame(fixed[rows])
        )
        frames, states, _, _ = self.both_fidelities(
            train_x, test_x, self.config(d, angle, scale), angle
        )
        np.testing.assert_allclose(frames, states, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mitigation", ["none", "physical-code"])
    @pytest.mark.parametrize("scale", [2 * math.pi, math.pi, 0.7])
    @pytest.mark.parametrize("angle", FRAME_ANGLES)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_drawn_trajectories_match_the_states(self, d, angle, scale, mitigation):
        rng = np.random.default_rng(200 + d)
        train_x, test_x = rng.uniform(0, 1, (12, d)), rng.uniform(0, 1, (6, d))
        cfg = self.config(d, angle, scale, mitigation)
        frames, states, ours, theirs = self.both_fidelities(train_x, test_x, cfg, angle)
        np.testing.assert_allclose(frames, states, rtol=0, atol=1e-12)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("d", range(2, 7))
    def test_the_builder_refuses_a_non_clifford_angle(self, d):
        assert classifier._pullback(d, 0.7) is None
        assert classifier._pullback(d, math.pi / 2) is not None
        np.testing.assert_array_equal(classifier._pullback(d, None), np.eye(2 * d))

    def test_the_map_spreads_a_pauli_along_the_staircase(self):
        # At d = 4 and pi/2, an X drawn on qubit 0 pulls back to a Pauli on
        # 2 qubits, and a Z drawn on qubit 3 to one on all 4.
        d = 4
        pullback = classifier._pullback(d, math.pi / 2)
        for drawn, weight in ((pauli_frame([["X", None, None, None]]), 2),
                              (pauli_frame([[None, None, None, "Z"]]), 4)):
            pulled = pullback @ drawn[0] % 2
            assert np.count_nonzero(pulled[:d] | pulled[d:]) == weight

    @pytest.mark.parametrize("use_feature_map", [True, False])
    def test_small_differences_give_the_euclidean_limit(self, use_feature_map):
        # For |delta_i| ~ 1e-3, -log F = (s**2 / 4) |delta|**2 to first
        # order: the limit in which qknn ranks neighbours as cknn does.
        rng = np.random.default_rng(5)
        cfg = QknnConfig(use_feature_map=use_feature_map)
        scale = cfg.encoding.angle_scale
        a = rng.uniform(0.2, 0.8, (6, 4))
        delta = rng.choice([-1.0, 1.0], a.shape) * rng.uniform(0.5e-3, 1.5e-3, a.shape)
        fidelities = [
            abs(np.vdot(*classifier._encode_rows(np.stack([x, x + dx]), cfg, None))) ** 2
            for x, dx in zip(a, delta)
        ]
        np.testing.assert_allclose(
            -np.log(fidelities), scale**2 / 4 * np.sum(delta**2, axis=1), rtol=1e-5
        )

    @pytest.mark.parametrize("mitigation", ["none", "physical-code"])
    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_fit_predict_matches_the_state_path(
        self, kind, mitigation, make_dataset, monkeypatch
    ):
        # The same run with the pull-back withheld encodes states; labels
        # agree and scores to rounding.
        rng = np.random.default_rng(7)
        train = toy_dataset(rng.uniform(0, 1, (30, 4)), rng.integers(0, 3, 30), make_dataset, 3)
        test = toy_dataset(rng.uniform(0, 1, (12, 4)), rng.integers(0, 3, 12), make_dataset, 3)
        for seed in range(4):
            cfg = QknnConfig(
                seed=seed, noise=NoiseSpec(kind, 0.3), mitigation=mitigation
            )
            frames = fit_predict(train, test, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(classifier, "_pullback", lambda d, angle: None)
                states = fit_predict(train, test, cfg)
            np.testing.assert_array_equal(frames[0], states[0])
            np.testing.assert_allclose(frames[1], states[1], rtol=0, atol=1e-12)


class TestNoiselessProductKernel:
    """Without noise the feature map is one unitary on every row, so it
    keeps every overlap: at any map angle, Clifford or not, the state
    fidelities are the product kernel of the scaled features."""

    @pytest.mark.parametrize("scale", [2 * math.pi, math.pi, 0.7])
    @pytest.mark.parametrize("angle", [0.0, math.pi / 4, 0.7, math.pi / 2, math.pi, None])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_state_fidelities_are_the_kernel_of_the_scaled_features(self, d, angle, scale):
        rng = np.random.default_rng(300 + d)
        train_x, test_x = rng.uniform(0, 1, (12, d)), rng.uniform(0, 1, (6, d))
        cfg = QknnConfig(
            k=1, encoding=EncodingConfig(angle_scale=scale, feature_map_angle=angle or 0.0),
            use_feature_map=angle is not None,
        )
        model = QknnModel(_encode_rows(train_x, cfg, None), np.zeros(len(train_x), int), 1, cfg)
        states = np.array([
            _pair_fidelities(model, t, row)
            for row, t in enumerate(_encode_rows(test_x, cfg, None))
        ])
        kernel = classifier._frame_fidelities(scale * test_x, scale * train_x)
        np.testing.assert_allclose(kernel, states, rtol=0, atol=1e-12)


class TestCknn:
    def test_neighbors_sorted_ascending_with_index_ties(self, make_dataset):
        # Training rows 0.4, 0.1 and 0.4 seen from 0.0: nearest first, the
        # tied pair in index order, for one query or a stack of them.
        distances = np.array([[0.4, 0.1, 0.4]])
        chosen = cknn._nearest(-distances, 3)
        np.testing.assert_array_equal(chosen, [[1, 0, 2]])
        np.testing.assert_allclose(
            np.take_along_axis(distances, chosen, axis=1), [[0.1, 0.4, 0.4]], atol=1e-12
        )
        np.testing.assert_array_equal(cknn._nearest(-np.stack([distances] * 2), 2), [[[1, 0]]] * 2)
        train = toy_dataset([[0.4], [0.1], [0.4]], [0, 1, 2], make_dataset)
        labels, scores = cknn.fit_predict(train, toy_dataset([[0.0]], [0], make_dataset, 3), k=3)
        assert labels.tolist() == [1]  # a three-way vote tie: the nearest row's class
        np.testing.assert_allclose(scores, [[1 / 3] * 3], atol=1e-12)

    def test_vote_and_tie_breaks(self, make_dataset):
        train = toy_dataset([[0.0], [0.3], [0.35]], [0, 1, 1], make_dataset)
        labels, scores = cknn.fit_predict(train, toy_dataset([[0.2]], [0], make_dataset, 2), k=3)
        assert labels.tolist() == [1]
        np.testing.assert_allclose(scores, [[1 / 3, 2 / 3]], atol=1e-12)
        # vote tie: class with smaller summed distance wins
        tie_train = toy_dataset([[0.5], [0.1]], [0, 1], make_dataset)
        labels, _ = cknn.fit_predict(tie_train, toy_dataset([[0.0]], [0], make_dataset, 2), k=2)
        assert labels.tolist() == [1]

    def test_fit_predict_resubstitution(self, rng, make_dataset):
        features = rng.uniform(0, 1, size=(10, 2))
        labels = rng.integers(0, 2, size=10)
        labels[:2] = [0, 1]
        data = make_dataset(features, labels)
        preds, _ = cknn.fit_predict(data, data, k=1)
        np.testing.assert_array_equal(preds, labels)

    def test_schema_mismatches_rejected(self, make_dataset):
        train = toy_dataset([[0.1], [0.2]], [0, 1], make_dataset)
        wider = toy_dataset([[0.1], [0.2]], [0, 1], make_dataset, n_classes=3)
        narrow = toy_dataset([[0.1, 0.2]], [0], make_dataset)
        with pytest.raises(ValueError, match="class mismatch"):
            cknn.fit_predict(train, wider, k=1)
        with pytest.raises(ValueError, match="class mismatch"):
            fit_predict(train, wider, QknnConfig(k=1))
        with pytest.raises(ValueError, match="feature count"):
            cknn.fit_predict(train, narrow, k=1)

    def test_an_empty_test_set_gives_empty_outputs(self, make_dataset):
        train = toy_dataset([[0.0], [1.0]], [0, 1], make_dataset)
        empty = toy_dataset(np.zeros((0, 1)), np.zeros(0, int), make_dataset, 2)
        for labels, scores in (cknn.fit_predict(train, empty, k=1),
                               fit_predict(train, empty, QknnConfig(k=1))):
            assert labels.shape == (0,) and scores.shape == (0, 2)

    def test_validation(self, make_dataset):
        empty = toy_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), make_dataset, 2)
        train = toy_dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), make_dataset, 2)
        with pytest.raises(ValueError, match="non-empty"):
            cknn.fit_predict(empty, train, k=3)
        short = toy_dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), make_dataset, 2)
        short.labels = np.zeros(2, dtype=int)  # a Dataset itself rejects this
        with pytest.raises(ValueError, match="2 labels for 3 rows"):
            cknn.fit_predict(short, train, k=3)
        with pytest.raises(ValueError, match="k must"):
            cknn.fit_predict(train, train, k=4)

    @pytest.mark.parametrize("k", [True, 2.5, "2"])
    def test_k_must_be_an_int(self, k, make_dataset):
        # k=True used to run as k=1.
        train = toy_dataset([[0.0], [0.5], [1.0]], [0, 1, 1], make_dataset)
        with pytest.raises(TypeError, match=rf"k must be an int, got {k!r}"):
            cknn.fit_predict(train, train, k=k)


class TestSharedKnnRule:
    """The one k-NN rule of ``cknn``, run on a [queries, rows] closeness
    matrix, gives, row by row and bit for bit, what each classifier's own
    copy of it gave (``oracles``), on tie-heavy cases.  The qknn cases
    feed fidelities to ``_fidelity_knn``, the tail that ``fit_predict``
    and ``classify`` both end in, whatever computes their fidelities."""

    CASES = 600
    #: Repeated fidelities, so ranks and vote sums tie often.
    FIDELITIES = (0.0, 0.125, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0)
    #: An exact 8-8 vote tie at k = 16, in rank order: the classes' sums
    #: are both 25/6, and NumPy's pairwise sum of each class rounds them
    #: equal where the running sums do not.
    TIE_LABELS = (0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0)
    TIE_FIDELITIES = (1.0, 1.0, 1.0, 1.0, 2.0 / 3.0, 0.5, 0.5, 0.5, 0.5,
                      1.0 / 3.0, 1.0 / 3.0, 0.25, 0.25, 0.25, 0.125, 0.125)

    @staticmethod
    def draw_case(rng):
        # Up to k = 20, so that classes of 8 or more neighbours, which
        # NumPy sums pairwise, are drawn.
        n_train = int(rng.integers(1, 25))
        k = int(rng.integers(1, min(20, n_train) + 1))
        n_classes = int(rng.integers(2, 5))
        labels = rng.integers(0, n_classes, size=n_train)
        return n_train, k, n_classes, labels, int(rng.integers(1, 6))

    def test_euclidean_rule_matches_the_reference(self, rng, make_dataset):
        for _ in range(self.CASES):
            n_train, k, n_classes, labels, n_test = self.draw_case(rng)
            # Integer-grid features: equal distances are common.
            d = int(rng.integers(1, 4))
            train = toy_dataset(rng.integers(0, 4, size=(n_train, d)), labels, make_dataset,
                                n_classes)
            test = toy_dataset(rng.integers(0, 4, size=(n_test, d)), np.zeros(n_test, int),
                               make_dataset, n_classes)
            model = SimpleNamespace(train_features=train.features, labels=labels,
                                    n_classes=n_classes, k=k)
            distances = np.array(
                [np.sqrt(np.sum((train.features - x) ** 2, axis=1)) for x in test.features]
            )
            chosen = cknn._nearest(-distances, k)
            predicted, scores = cknn.fit_predict(train, test, k=k)
            for row, x in enumerate(test.features):
                ref_indices, ref_distances = cknn_find_neighbors(model, x)
                ref_label, ref_scores = cknn_classify(model, x)
                assert chosen[row].tolist() == ref_indices.tolist()
                assert distances[row, chosen[row]].tobytes() == ref_distances.tobytes()
                assert predicted[row] == ref_label
                assert scores[row].tobytes() == ref_scores.tobytes()

    @staticmethod
    def reference_model(labels, n_classes, k):
        return SimpleNamespace(labels=np.asarray(labels), n_classes=n_classes,
                               config=SimpleNamespace(k=k))

    def test_fidelity_rule_matches_the_reference(self, rng):
        fallbacks = 0
        for case in range(self.CASES):
            n_train, k, n_classes, labels, n_test = self.draw_case(rng)
            fids = rng.choice(self.FIDELITIES, size=(n_test, n_train))
            if case % 10 == 0:
                fids[0] = 0.0  # every neighbour orthogonal: count shares
            model = self.reference_model(labels, n_classes, k)
            predicted, scores = _fidelity_knn(fids, labels, k, n_classes)
            # find_neighbors' ranking.
            chosen = cknn._nearest(fids, k)
            for row in range(n_test):
                ref_indices, ref_label, ref_scores = qknn_classify(model, fids[row])
                fallbacks += fids[row, ref_indices].sum() <= 1e-12
                assert chosen[row].tolist() == ref_indices.tolist()
                assert predicted[row] == ref_label
                assert scores[row].tobytes() == ref_scores.tobytes()

                # What classify passes on: one row's k neighbours, ranked.
                label, one_scores = _fidelity_knn(
                    fids[row, chosen[row]][np.newaxis], labels[chosen[row]], k, n_classes
                )
                assert label.tolist() == [ref_label]
                assert one_scores[0].tobytes() == ref_scores.tobytes()
        assert fallbacks >= self.CASES // 10

    def test_a_vote_tie_of_eight_per_class_goes_to_the_larger_score(self):
        # The label is the tied class with the larger fidelity share, and
        # the oracles agree; a per-class ndarray.sum gave class 0 here.
        fids = np.array([self.TIE_FIDELITIES])
        predicted, scores = _fidelity_knn(fids, np.array(self.TIE_LABELS), 16, 2)
        assert predicted.tolist() == [1]
        assert scores[0, 1] > scores[0, 0]
        _, ref_label, ref_scores = qknn_classify(
            self.reference_model(self.TIE_LABELS, 2, 16), fids[0]
        )
        assert ref_label == 1
        assert scores[0].tobytes() == ref_scores.tobytes()

    def test_positive_fidelities_summing_below_the_threshold_get_count_shares(self):
        # Unequal, nonzero, but together below 1e-12: the fidelity weights
        # would give [5/8, 3/8], the count share is [2/3, 1/3].
        fids = np.array([[4e-13, 1e-13, 3e-13]])
        predicted, scores = _fidelity_knn(fids, np.array([0, 0, 1]), 3, 2)
        assert predicted.tolist() == [0]
        assert scores[0].tolist() == [2 / 3, 1 / 3]
        _, ref_label, ref_scores = qknn_classify(self.reference_model([0, 0, 1], 2, 3), fids[0])
        assert ref_label == 0
        assert scores[0].tobytes() == ref_scores.tobytes()

    @pytest.mark.parametrize("mode", ["exact", "noisy", "sampled"])
    def test_fit_predict_and_classify_are_the_rule_on_their_own_fidelities(
        self, make_dataset, mode
    ):
        # Each run's fidelities, computed here: the product kernel of the
        # scaled features (noiseless exact), the noisy rows' states (exact
        # with noise, where fit_predict pulls the frames back instead), or
        # each test row's swap-test estimates from its own stream (sampled).
        # Labels must match exactly, scores within 1e-12.
        rng = np.random.default_rng(17)
        train_x, test_x = rng.uniform(0, 1, (24, 3)), rng.uniform(0, 1, (8, 3))
        train = toy_dataset(train_x, rng.integers(0, 3, 24), make_dataset, n_classes=3)
        test = toy_dataset(test_x, [0] * 8, make_dataset, n_classes=3)
        cfg = QknnConfig(
            k=5, encoding=PI_SCALE, seed=4, shots=64,
            distance_mode="sampled" if mode == "sampled" else "exact",
            noise=NoiseSpec(NoiseKind.MIXED_PAULI, 0.2) if mode == "noisy" else None,
        )
        model = fit(train, cfg)
        if mode == "exact":
            fids = np.prod(np.cos(math.pi * (test_x[:, None] - train_x[None]) / 2) ** 2, axis=2)
        elif mode == "noisy":
            # The training rows' trajectories, then the test rows', from one stream.
            stream = np.random.default_rng(cfg.seed)
            train_states = _encode_rows(train_x, cfg, stream)
            fids = np.abs(_encode_rows(test_x, cfg, stream).conj() @ train_states.T) ** 2
        else:
            fids = np.array([
                _pair_fidelities(model, apply_feature_map(point(x, row=row)).state.amplitudes, row)
                for row, x in enumerate(test_x)
            ])
        expected_labels, expected_scores = _fidelity_knn(fids, train.labels, cfg.k, 3)
        labels, scores = fit_predict(train, test, cfg)
        assert labels.tolist() == expected_labels.tolist()
        np.testing.assert_allclose(scores, expected_scores, rtol=0, atol=1e-12)
        if mode == "noisy":
            return  # classify takes noiseless test points
        for row, x in enumerate(test_x):
            label, row_scores = classify(model, apply_feature_map(point(x, row=row)))
            assert label == expected_labels[row]
            np.testing.assert_allclose(row_scores, expected_scores[row], rtol=0, atol=1e-12)
