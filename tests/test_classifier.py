"""Classifier tests: swap-test distances, neighbour ranking, voting,
noise mitigation, and the classical baseline."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from qknn import cknn
from qknn.classifier import (
    NeighborSet,
    QknnConfig,
    QknnModel,
    _physical_code_errors,
    _voted_fidelities,
    classify,
    find_neighbors,
    fit,
    fit_predict,
    swap_test_state,
)
from qknn.encoding import EncodingConfig, apply_feature_map, encode_point
from qknn.noise import NoiseKind, NoiseSpec
from qknn.qec import RepetitionCode, code_corrected_flip
from qknn.sim import ResourceLimitError, StateVector

from oracles import ancilla_zero_probability, apply_dense, quantum_distance, state_fidelity


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

    def test_mismatched_registers_rejected(self):
        with pytest.raises(ValueError, match="register sizes"):
            swap_test_state(point([0.2]).state, point([0.2, 0.3]).state)

    def test_sampled_mode_converges(self):
        a, b = point([0.0], row=0), point([0.4], row=1)
        exact = quantum_distance(a, b)
        sampled = quantum_distance(a, b, mode="sampled", shots=200_000, seed=11)
        assert sampled == pytest.approx(exact, abs=0.005)


def build_model(features, labels, k=1, config=PI_SCALE):
    encoded = [point(row, config, row=i) for i, row in enumerate(features)]
    return QknnModel(
        encoded_train=encoded,
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
        neighbors = find_neighbors(model, point([0.0]))
        np.testing.assert_array_equal(neighbors.indices, [1, 0, 2])
        np.testing.assert_allclose(neighbors.fidelities, [0.9, 0.5, 0.2], atol=1e-10)

    def test_distances_are_affine_in_fidelity(self):
        xs = [feature_for_fidelity(f) for f in (0.8, 0.3)]
        model = build_model([[x] for x in xs], [0, 0], k=2)
        neighbors = find_neighbors(model, point([0.0]))
        np.testing.assert_allclose(
            neighbors.distances, 0.5 * (1.0 + neighbors.fidelities), atol=1e-12
        )
        assert np.all(np.diff(neighbors.fidelities) <= 1e-12)

    def test_fidelity_ties_break_by_lower_index(self):
        model = build_model([[0.4], [0.4], [0.4]], [0, 1, 2], k=2)
        neighbors = find_neighbors(model, point([0.4]))
        np.testing.assert_array_equal(neighbors.indices, [0, 1])

    def test_qubit_count_mismatch(self):
        model = build_model([[0.1, 0.2]], [0])
        with pytest.raises(ValueError, match="qubits"):
            find_neighbors(model, point([0.1]))


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
        features = rng.uniform(0, 1, size=(6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])
        train = toy_dataset(features, labels, make_dataset)
        test = toy_dataset(rng.uniform(0, 1, size=(4, 2)), [0] * 4, make_dataset, n_classes=2)
        exact, _ = fit_predict(train, test, QknnConfig(k=3, encoding=PI_SCALE))
        sampled, _ = fit_predict(
            train,
            test,
            QknnConfig(k=3, encoding=PI_SCALE, distance_mode="sampled", shots=20000),
        )
        np.testing.assert_array_equal(exact, sampled)

    def test_schema_mismatches_rejected(self, make_dataset):
        train = toy_dataset([[0.1, 0.2]], [0], make_dataset)
        narrow = toy_dataset([[0.1]], [0], make_dataset)
        with pytest.raises(ValueError, match="feature count"):
            fit_predict(train, narrow, QknnConfig(k=1))

    def test_empty_training_set_rejected(self, make_dataset):
        import qknn.data as data_mod

        empty = data_mod.Dataset(
            name="toy",
            features=np.zeros((0, 1)),
            labels=np.zeros(0, dtype=int),
            feature_names=("f0",),
            class_names=("c0", "c1"),
        )
        test = toy_dataset([[0.1]], [0], make_dataset)
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


class TestConfigValidation:
    def test_repeat_vote_requires_sampled_mode(self):
        with pytest.raises(ValueError, match="sampled"):
            QknnConfig(mitigation="repeat-vote", distance_mode="exact")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="k must"):
            QknnConfig(k=0)
        with pytest.raises(ValueError, match="mitigation"):
            QknnConfig(mitigation="zne")
        with pytest.raises(ValueError, match="code length"):
            QknnConfig(code_length=4)
        with pytest.raises(ValueError, match="distance mode"):
            QknnConfig(distance_mode="fuzzy")


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
            got = model.encoded_train[i].state.amplitudes
            np.testing.assert_allclose(got, after, atol=1e-12)
            assert abs(np.vdot(before, got)) ** 2 < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("p", [0.1, 0.3])
    @pytest.mark.parametrize(
        "kind,z_share", [(NoiseKind.PHASE_FLIP, 1.0), (NoiseKind.MIXED_PAULI, 2.0 / 3.0)]
    )
    def test_physical_code_amplifies_phase_errors(self, kind, z_share, p, n):
        # The bit-flip code leaves a logical Z whenever an odd number of the
        # n physical draws carry a Z part (probability q_z each), so the
        # logical phase-error rate rises to (1 - (1 - 2 q_z)^n) / 2
        # (Nielsen & Chuang, section 10.1).
        draws = 20_000
        errors = _physical_code_errors(
            NoiseSpec(kind, p), range(draws), np.random.default_rng(7), RepetitionCode(n)
        )
        rate = sum(1 for _, pauli in errors if pauli in ("Z", "Y")) / draws
        expected = (1.0 - (1.0 - 2.0 * z_share * p) ** n) / 2.0
        assert expected > z_share * p
        z = (rate - expected) / math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(z) < 4.0

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("p", [0.1, 0.3])
    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    def test_physical_code_draws_match_the_enumerated_code_channel(self, kind, p, n):
        # Every one of the 4^n physical Pauli patterns, with its probability:
        # the X parts decode through the qec state path, the Z parts combine
        # by parity, and the pair names the logical Pauli.
        single = {
            NoiseKind.BIT_FLIP: {"X": p},
            NoiseKind.PHASE_FLIP: {"Z": p},
            NoiseKind.BIT_PHASE_FLIP: {"Y": p},
            NoiseKind.MIXED_PAULI: {"X": p / 3, "Y": p / 3, "Z": p / 3},
        }[kind]
        single["I"] = 1.0 - p
        code = RepetitionCode(n)
        logical = {"I": 0.0, "X": 0.0, "Y": 0.0, "Z": 0.0}
        names = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
        for pattern in itertools.product(single, repeat=n):
            weight = math.prod(single[pauli] for pauli in pattern)
            flip = code_corrected_flip([int(pauli in "XY") for pauli in pattern], code)
            parity = sum(pauli in "ZY" for pauli in pattern) % 2
            logical[names[flip, parity]] += weight
        assert math.isclose(sum(logical.values()), 1.0, rel_tol=1e-12)
        draws = 20_000
        errors = _physical_code_errors(
            NoiseSpec(kind, p), range(draws), np.random.default_rng(11), code
        )
        counts = {pauli: 0 for pauli in logical}
        for _, pauli in errors:
            counts[pauli] += 1
        counts["I"] = draws - len(errors)
        for pauli, prob in logical.items():
            if prob == 0.0:
                assert counts[pauli] == 0, pauli
                continue
            z = (counts[pauli] - draws * prob) / math.sqrt(draws * prob * (1.0 - prob))
            assert abs(z) < 4.0, (pauli, counts[pauli], draws * prob)

    @pytest.mark.parametrize("repeats", [3, 5, 9])
    def test_repeat_vote_draws_the_majority_of_the_exact_marginal(self, repeats):
        # A voted shot reads 1 when most of its repeated ancilla bits, each 1
        # with p = (1 - F)/2, are 1; q is enumerated over every bit pattern.
        fids = np.linspace(0.0, 1.0, 11)
        p = (1.0 - fids) / 2.0
        q = np.zeros_like(p)
        for bits in itertools.product((0, 1), repeat=repeats):
            ones = sum(bits)
            if 2 * ones > repeats:
                q += p**ones * (1.0 - p) ** (repeats - ones)
        shots = 100_000
        estimates = _voted_fidelities(fids, shots, repeats, [0, 1])
        # Each estimate is 1 - 2 * Binomial(shots, q) / shots.
        sd = 2.0 * np.sqrt(q * (1.0 - q) / shots)
        assert np.all(np.abs(estimates - (1.0 - 2.0 * q)) <= 5.0 * sd)
        assert estimates[-1] == 1.0

    def test_repeat_vote_sharpens_sampled_estimates(self, rng, make_dataset):
        # per-pair ancilla draws at tiny shot counts are noisy; majority
        # voting per shot pulls the estimate toward the true side
        train = make_dataset(np.array([[0.0], [0.5]]), np.array([0, 1]))
        test = make_dataset(np.array([[0.05]]), np.array([0]), n_classes=2)
        base = dict(k=1, encoding=PI_SCALE, distance_mode="sampled", shots=9)
        plain_hits = 0
        voted_hits = 0
        for seed in range(120):
            plain, _ = fit_predict(train, test, QknnConfig(**base, seed=seed))
            voted, _ = fit_predict(
                train,
                test,
                QknnConfig(**base, seed=seed, mitigation="repeat-vote", code_length=9),
            )
            plain_hits += int(plain[0] == 0)
            voted_hits += int(voted[0] == 0)
        assert voted_hits >= plain_hits


class TestCknn:
    def test_neighbors_sorted_ascending_with_index_ties(self):
        model = cknn.CknnModel(
            train_features=np.array([[0.4], [0.1], [0.4]]),
            labels=np.array([0, 1, 2]),
            n_classes=3,
            k=3,
        )
        indices, distances = cknn.find_neighbors(model, np.array([0.0]))
        np.testing.assert_array_equal(indices, [1, 0, 2])
        np.testing.assert_allclose(distances, [0.1, 0.4, 0.4], atol=1e-12)

    def test_vote_and_tie_breaks(self):
        model = cknn.CknnModel(
            train_features=np.array([[0.0], [0.3], [0.35]]),
            labels=np.array([0, 1, 1]),
            n_classes=2,
            k=3,
        )
        label, scores = cknn.classify(model, np.array([0.2]))
        assert label == 1
        np.testing.assert_allclose(scores, [1 / 3, 2 / 3], atol=1e-12)
        # vote tie: class with smaller summed distance wins
        tie_model = cknn.CknnModel(
            train_features=np.array([[0.5], [0.1]]),
            labels=np.array([0, 1]),
            n_classes=2,
            k=2,
        )
        label, _ = cknn.classify(tie_model, np.array([0.0]))
        assert label == 1

    def test_fit_predict_resubstitution(self, rng, make_dataset):
        features = rng.uniform(0, 1, size=(10, 2))
        labels = rng.integers(0, 2, size=10)
        labels[:2] = [0, 1]
        data = make_dataset(features, labels)
        preds, _ = cknn.fit_predict(data, data, k=1)
        np.testing.assert_array_equal(preds, labels)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            cknn.CknnModel(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError, match="labels"):
            cknn.CknnModel(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError, match="k must"):
            cknn.CknnModel(np.zeros((3, 2)), np.zeros(3, dtype=int), 2, k=4)
