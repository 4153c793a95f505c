"""Data layer tests: UCI loaders, normalization, chi-square selection
and stratified splitting."""

import math
import tracemalloc

import numpy as np
import pytest

from qknn import data
from qknn.data import (
    DataFormatError,
    Dataset,
    chi_square_select,
    chi_square_sf,
    load_dataset,
    min_max_normalize,
    parse_selection_policy,
    split_test_count,
    stratified_indices,
)

from conftest import BANKNOTE_PATH, requires_banknote
from oracles import chi2_bruteforce, regularized_gamma_q

IRIS_ROWS = """\
5.1,3.5,1.4,0.2,Iris-setosa
4.9,3.0,1.4,0.2,Iris-setosa
7.0,3.2,4.7,1.4,Iris-versicolor
6.4,3.2,4.5,1.5,Iris-versicolor
6.3,3.3,6.0,2.5,Iris-virginica
5.8,2.7,5.1,1.9,Iris-virginica
"""
IRIS_EXPECTED = "expected 'Iris-setosa', 'Iris-versicolor' or 'Iris-virginica'"

WDBC_ROWS = (
    "842302,M," + ",".join(str(1.0 + 0.1 * i) for i in range(30)) + "\n"
    "842517,B," + ",".join(str(2.0 + 0.1 * i) for i in range(30)) + "\n"
)

BANKNOTE_ROWS = """\
3.6216,8.6661,-2.8073,-0.44699,0
4.5459,8.1674,-2.4586,-1.4621,0
-3.5637,-8.3827,12.393,-1.2823,1
-2.5419,-0.65804,2.6842,1.1952,1
"""


class TestLoaders:
    def test_iris_format(self, tmp_path):
        path = tmp_path / "iris.data"
        path.write_text(IRIS_ROWS)
        d = load_dataset(path, "iris")
        assert d.name == "iris"
        assert d.features.shape == (6, 4)
        assert d.class_names == ("Iris-setosa", "Iris-versicolor", "Iris-virginica")
        np.testing.assert_array_equal(d.labels, [0, 0, 1, 1, 2, 2])
        assert d.features[0, 0] == 5.1

    def test_iris_class_names_sorted_regardless_of_file_order(self, tmp_path):
        path = tmp_path / "iris.data"
        path.write_text(
            "1,1,1,1,Iris-virginica\n2,2,2,2,Iris-setosa\n"
        )
        d = load_dataset(path, "iris")
        assert d.class_names == ("Iris-setosa", "Iris-versicolor", "Iris-virginica")
        np.testing.assert_array_equal(d.labels, [2, 0])

    def test_misspelled_iris_class_is_rejected_with_its_line(self, tmp_path):
        # A misspelled token used to become a fourth class, and the run then
        # failed at the split stage instead of at the line that holds it.
        path = tmp_path / "iris.data"
        path.write_text(IRIS_ROWS.replace("3.0,1.4,0.2,Iris-setosa", "3.0,1.4,0.2,Iris-setosaa"))
        with pytest.raises(DataFormatError, match="line 2: unknown class 'Iris-setosaa'"):
            load_dataset(path, "iris")

    def test_wdbc_format(self, tmp_path):
        path = tmp_path / "wdbc.data"
        path.write_text(WDBC_ROWS)
        d = load_dataset(path, "wdbc")
        assert d.features.shape == (2, 30)
        assert d.class_names == ("B", "M")
        np.testing.assert_array_equal(d.labels, [1, 0])  # M maps to 1
        assert d.feature_names[0] == "mean_radius"
        assert d.features[0, 0] == 1.0  # the id column is discarded

    def test_banknote_format(self, tmp_path):
        path = tmp_path / "banknote.txt"
        path.write_text(BANKNOTE_ROWS)
        d = load_dataset(path, "banknote")
        assert d.features.shape == (4, 4)
        assert d.class_names == ("0", "1")
        np.testing.assert_array_equal(d.labels, [0, 0, 1, 1])

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "iris.data"
        path.write_text(IRIS_ROWS + "\n\n")
        assert load_dataset(path, "iris").n_instances == 6

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset format"):
            load_dataset(tmp_path / "x.data", "sonar")

    def test_field_count_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "iris.data"
        path.write_text("5.1,3.5,1.4,0.2,Iris-setosa\n1,2,3,Iris-setosa\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(path, "iris")

    def test_bad_number_reported_with_line(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("1,2,3,4,0\n1,two,3,4,1\n")
        with pytest.raises(DataFormatError, match="line 2.*'two'"):
            load_dataset(path, "banknote")

    def test_wdbc_bad_diagnosis(self, tmp_path):
        path = tmp_path / "wdbc.data"
        path.write_text("1,X," + ",".join(["1"] * 30) + "\n")
        with pytest.raises(DataFormatError, match="unknown class 'X'"):
            load_dataset(path, "wdbc")

    def test_banknote_bad_class(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("1,2,3,4,2\n")
        with pytest.raises(DataFormatError, match=r"unknown class '2' \(expected '0' or '1'\)"):
            load_dataset(path, "banknote")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_dataset(path, "iris")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("1,inf,3,4,0\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_dataset(path, "banknote")

    @pytest.mark.parametrize(
        "fmt,text,message",
        [
            ("iris", "\n", "file contains no data rows"),
            ("iris", "\n  \n\n", "file contains no data rows"),
            ("iris", "1,2,3,4,Iris-setosa\n\n1,2,3,a\n", "line 3: expected 5 fields, got 4"),
            ("iris", "1,2,3,4,\n", f"line 1: unknown class '' ({IRIS_EXPECTED})"),
            ("banknote", "1,2,3,4,0\n1,two,3,4,1\n", "line 2: 'two' is not a number"),
            ("banknote", "1,nan,3,4,0\n", "line 1: non-finite value 'nan'"),
            ("banknote", "1,2,3,4,0\n1,2,3,4,2\n", "line 2: unknown class '2' (expected '0' or '1')"),
            ("wdbc", "1,B,2\n",
             "line 1: expected 32 fields (id, diagnosis, 30 features), got 3"),
            ("wdbc", "1,X," + ",".join(["1"] * 30) + "\n",
             "line 1: unknown class 'X' (expected 'B' or 'M')"),
        ],
    )
    def test_error_messages_are_unchanged(self, tmp_path, fmt, text, message):
        path = tmp_path / "file.data"
        path.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            load_dataset(path, fmt)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "fmt,text,message",
        [
            ("iris", "1,two,3,4,\n", f"line 1: unknown class '' ({IRIS_EXPECTED})"),
            ("banknote", "1,two,3,4,2\n", "line 1: unknown class '2' (expected '0' or '1')"),
            ("wdbc", "1,X,two," + ",".join(["1"] * 29) + "\n",
             "line 1: unknown class 'X' (expected 'B' or 'M')"),
        ],
        ids=["iris", "banknote", "wdbc"],
    )
    def test_bad_label_is_reported_before_a_bad_number(self, tmp_path, fmt, text, message):
        path = tmp_path / "file.data"
        path.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            load_dataset(path, fmt)
        assert str(exc.value) == f"{path}: {message}"


class TestRealFiles:
    def test_iris_shipped_file(self, data_dir):
        d = load_dataset(data_dir / "iris.data", "iris")
        assert (d.n_instances, d.n_features, d.n_classes) == (150, 4, 3)
        counts = np.bincount(d.labels)
        np.testing.assert_array_equal(counts, [50, 50, 50])

    def test_wdbc_shipped_file(self, data_dir):
        d = load_dataset(data_dir / "wdbc.data", "wdbc")
        assert (d.n_instances, d.n_features, d.n_classes) == (569, 30, 2)
        assert int(np.sum(d.labels == 1)) == 212  # malignant count

    @pytest.mark.parametrize("name,fmt", [("iris.data", "iris"), ("wdbc.data", "wdbc")])
    def test_loads_match_a_plain_parse_bitwise(self, data_dir, name, fmt):
        text = (data_dir / name).read_text()
        lines = [line.split(",") for line in text.splitlines() if line.strip()]
        if fmt == "iris":
            features = [[float(t) for t in row[:4]] for row in lines]
            names = sorted({row[4] for row in lines})
            labels = [names.index(row[4]) for row in lines]
        else:
            features = [[float(t) for t in row[2:]] for row in lines]
            labels = [int(row[1] == "M") for row in lines]
        d = load_dataset(data_dir / name, fmt)
        assert d.features.tobytes() == np.array(features).tobytes()
        assert d.labels.tolist() == labels

    def test_wdbc_load_holds_one_row_of_tokens_at_a_time(self, data_dir):
        # The file is 125 KB of text; holding every row's tokens peaked at
        # about 1.75 MB, streaming them keeps the load well under 1 MB.
        load_dataset(data_dir / "wdbc.data", "wdbc")  # warm imports and caches
        tracemalloc.start()
        try:
            load_dataset(data_dir / "wdbc.data", "wdbc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_wdbc_load_builds_the_path_text_once(self, data_dir, monkeypatch):
        # Every token's error context is the same string, not a fresh
        # str(path) per token.
        names = []
        parse = data._parse_float

        def recording(token, line_no, path):
            names.append(path)
            return parse(token, line_no, path)

        monkeypatch.setattr(data, "_parse_float", recording)
        load_dataset(data_dir / "wdbc.data", "wdbc")
        assert len(names) == 569 * 30
        assert names[0] == str(data_dir / "wdbc.data")
        assert all(name is names[0] for name in names)

    @requires_banknote
    def test_banknote_file_when_present(self):
        d = load_dataset(BANKNOTE_PATH, "banknote")
        assert (d.n_instances, d.n_features, d.n_classes) == (1372, 4, 2)


class TestDatasetStructure:
    def test_subset_rows_and_features(self, make_dataset):
        d = make_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1])
        rows = d.subset_rows([0, 2])
        np.testing.assert_array_equal(rows.labels, [0, 0])
        assert rows.features.shape == (2, 3)
        cols = d.subset_features([2, 0])
        assert cols.feature_names == ("f2", "f0")
        np.testing.assert_array_equal(cols.features[:, 1], d.features[:, 0])

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset("x", np.zeros(3), np.zeros(3, dtype=int), ("f",), ("a", "b"))
        with pytest.raises(ValueError, match="labels for"):
            Dataset("x", np.zeros((2, 1)), np.zeros(3, dtype=int), ("f",), ("a", "b"))
        with pytest.raises(ValueError, match="feature names"):
            Dataset("x", np.zeros((2, 2)), np.zeros(2, dtype=int), ("f",), ("a", "b"))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(
                "x", np.array([[np.inf]]), np.zeros(1, dtype=int), ("f",), ("a", "b")
            )
        with pytest.raises(ValueError, match="labels must lie"):
            Dataset("x", np.zeros((1, 1)), np.array([5]), ("f",), ("a", "b"))


class TestNormalization:
    def test_simple_column_maps_to_unit_interval(self, make_dataset):
        d = make_dataset(np.array([[2.0], [4.0], [6.0]]), [0, 1, 0])
        out, params = min_max_normalize(d, [0, 1, 2])
        np.testing.assert_allclose(out.features[:, 0], [0.0, 0.5, 1.0], atol=1e-15)
        assert params["kept_indices"] == [0]
        assert params["mins"][0] == 2.0 and params["maxs"][0] == 6.0

    def test_rows_outside_fit_are_clamped(self, make_dataset):
        d = make_dataset(np.array([[0.0], [10.0], [-5.0], [20.0]]), [0, 1, 0, 1])
        out, _ = min_max_normalize(d, [0, 1])
        np.testing.assert_allclose(out.features[:, 0], [0.0, 1.0, 0.0, 1.0])

    def test_constant_features_dropped_with_warning(self, make_dataset):
        d = make_dataset(np.array([[1.0, 3.0], [1.0, 5.0]]), [0, 1])
        with pytest.warns(UserWarning, match="constant feature"):
            out, params = min_max_normalize(d, [0, 1])
        assert out.n_features == 1
        assert out.feature_names == ("f1",)
        assert params["dropped_indices"] == [0]

    def test_all_constant_rejected(self, make_dataset):
        d = make_dataset(np.array([[1.0], [1.0]]), [0, 1])
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="all features are constant"):
                min_max_normalize(d, [0, 1])

    def test_empty_fit_rows_rejected(self, make_dataset):
        d = make_dataset(np.array([[1.0], [2.0]]), [0, 1])
        with pytest.raises(ValueError, match="empty row set"):
            min_max_normalize(d, [])

    def test_params_serialize(self, make_dataset):
        d = make_dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 1])
        _, doc = min_max_normalize(d, [0, 1])
        assert doc["kept_indices"] == [0, 1]
        assert doc["mins"] == [1.0, 2.0]
        assert doc["maxs"] == [3.0, 4.0]


class TestGammaQ:
    def test_closed_forms(self):
        # Q(1, x) = exp(-x); Q(2, x) = exp(-x)(1 + x); Q(1/2, x) = erfc(sqrt(x))
        for x in (0.1, 0.7, 1.5, 4.0, 9.0):
            assert regularized_gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)
            assert regularized_gamma_q(2.0, x) == pytest.approx(
                math.exp(-x) * (1 + x), rel=1e-12
            )
            assert regularized_gamma_q(0.5, x) == pytest.approx(
                math.erfc(math.sqrt(x)), rel=1e-10
            )

    def test_boundaries_and_monotonicity(self):
        assert regularized_gamma_q(2.5, 0.0) == 1.0
        xs = np.linspace(0.01, 20, 50)
        qs = [regularized_gamma_q(3.0, float(x)) for x in xs]
        assert all(a >= b for a, b in zip(qs, qs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="shape"):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            regularized_gamma_q(1.0, -1.0)


class TestChiSquareSf:
    def test_critical_value_table(self):
        # canonical alpha = 0.05 / 0.01 critical values
        for statistic, dof, alpha in [
            (3.841, 1, 0.05),
            (5.991, 2, 0.05),
            (9.488, 4, 0.05),
            (6.635, 1, 0.01),
            (9.210, 2, 0.01),
        ]:
            assert chi_square_sf(statistic, dof) == pytest.approx(alpha, abs=1e-3)

    def test_dof_two_closed_form(self):
        # with two degrees of freedom the tail is exactly exp(-x/2)
        for stat in (0.5, 2.0, 7.3):
            assert chi_square_sf(stat, 2) == pytest.approx(
                math.exp(-stat / 2), rel=1e-12
            )

    def test_gamma_closed_forms_at_dof_twice_the_shape(self):
        # chi_square_sf(2x, 2s) = Q(s, x): erfc(sqrt(x)), exp(-x), exp(-x)(1 + x)
        for x in (0.1, 0.7, 1.5, 4.0, 9.0):
            assert chi_square_sf(2 * x, 1) == pytest.approx(
                math.erfc(math.sqrt(x)), rel=1e-12
            )
            assert chi_square_sf(2 * x, 2) == pytest.approx(math.exp(-x), rel=1e-12)
            assert chi_square_sf(2 * x, 4) == pytest.approx(
                math.exp(-x) * (1 + x), rel=1e-12
            )

    def test_matches_the_incomplete_gamma_oracle(self):
        worst = 0.0
        for dof in range(61):
            for statistic in np.linspace(0.0, 300.0, 241):
                got = chi_square_sf(float(statistic), dof)
                want = regularized_gamma_q(dof / 2, statistic / 2) if dof else 1.0
                worst = max(worst, abs(got - want) / want if want else abs(got))
        assert worst < 1e-12

    def test_large_dof_stays_a_probability(self):
        for dof in (999, 2999):
            for statistic in np.linspace(0.0, 6000.0, 121):
                p = chi_square_sf(float(statistic), dof)
                assert math.isfinite(p) and 0.0 <= p <= 1.0

    def test_zero_dof_reports_no_significance(self):
        assert chi_square_sf(5.0, 0) == 1.0
        assert chi_square_sf(0.0, 0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_square_sf(1.0, -1)
        with pytest.raises(ValueError, match="non-negative"):
            chi_square_sf(-0.5, 2)


class TestPolicyParsing:
    def test_valid_policies(self):
        assert parse_selection_policy("topk=4") == ("topk", 4.0)
        assert parse_selection_policy("alpha=0.05") == ("alpha", 0.05)
        assert parse_selection_policy("TopK=2") == ("topk", 2.0)

    def test_invalid_policies(self):
        for bad in ("topk", "best=3", "topk=0", "alpha=0", "alpha=1.5"):
            with pytest.raises(ValueError):
                parse_selection_policy(bad)

    @pytest.mark.parametrize("bad", ["topk=abc", "topk=2.5", "topk=", "alpha=x", "alpha="])
    def test_unparsable_value_names_the_policy_form(self, bad):
        # Not Python's own "invalid literal for int()" text.
        with pytest.raises(ValueError) as exc:
            parse_selection_policy(bad)
        assert str(exc.value) == (
            f"policy must look like 'topk=4' or 'alpha=0.05', got {bad!r}"
        )

    @pytest.mark.parametrize("bad", [["topk=2"], 4, None])
    def test_policy_must_be_a_string(self, bad):
        with pytest.raises(TypeError) as exc:
            parse_selection_policy(bad)
        assert str(exc.value) == f"policy must be a string, got {bad!r}"


class TestChiSquareSelect:
    def test_matches_bruteforce_oracle(self, rng, make_dataset):
        features = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        labels[:3] = [0, 1, 2]
        d = make_dataset(features, labels, n_classes=3)
        result = chi_square_select(d, bins=5, policy="topk=3")
        for f in range(3):
            stat, dof = chi2_bruteforce(features[:, f], labels, 3, 5)
            assert result.chi2_scores[f] == pytest.approx(stat, abs=1e-9)
            assert result.p_values[f] == pytest.approx(
                chi_square_sf(stat, dof), abs=1e-12
            )

    def test_perfectly_separating_binary_feature(self, make_dataset):
        # 2x2 table [[20,0],[0,20]] has statistic n = 40
        column = np.array([0.0] * 20 + [1.0] * 20)
        d = make_dataset(column.reshape(-1, 1), np.array([0] * 20 + [1] * 20))
        result = chi_square_select(d, bins=2, policy="topk=1")
        assert result.chi2_scores[0] == pytest.approx(40.0, abs=1e-9)
        assert result.p_values[0] < 1e-9

    def test_label_independent_feature_scores_zero(self, make_dataset):
        # feature value identical across classes -> observed == expected
        column = np.tile([1.0, 2.0], 10)
        labels = np.array([0] * 10 + [1] * 10)
        d = make_dataset(column.reshape(-1, 1), labels)
        result = chi_square_select(d, bins=2, policy="topk=1")
        assert result.chi2_scores[0] == pytest.approx(0.0, abs=1e-12)
        assert result.p_values[0] == pytest.approx(1.0)

    def test_correlated_feature_outranks_noise(self, rng, make_dataset):
        labels = np.array([0] * 40 + [1] * 40)
        informative = labels + rng.normal(0, 0.1, size=80)
        noise = rng.normal(0, 1.0, size=80)
        d = make_dataset(np.column_stack([noise, informative]), labels)
        result = chi_square_select(d, bins=6, policy="topk=1")
        assert result.kept_indices == (1,)
        assert result.chi2_scores[1] > result.chi2_scores[0]

    def test_alpha_policy_keeps_only_significant(self, rng, make_dataset):
        labels = np.array([0] * 40 + [1] * 40)
        informative = labels + rng.normal(0, 0.1, size=80)
        noise = rng.normal(0, 1.0, size=80)
        d = make_dataset(np.column_stack([informative, noise]), labels)
        result = chi_square_select(d, bins=6, policy="alpha=0.001")
        assert 0 in result.kept_indices
        assert 1 not in result.kept_indices

    def test_kept_indices_sorted_by_descending_score(self, rng, make_dataset):
        features = rng.normal(size=(50, 4))
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        d = make_dataset(features, labels)
        result = chi_square_select(d, bins=4, policy="topk=4")
        kept_scores = [result.chi2_scores[i] for i in result.kept_indices]
        assert kept_scores == sorted(kept_scores, reverse=True)

    def test_empty_bins_reduce_effective_count(self, make_dataset):
        # values cluster at the range ends; middle bins stay empty
        column = np.array([0.0] * 10 + [10.0] * 10)
        d = make_dataset(column.reshape(-1, 1), np.array([0] * 10 + [1] * 10))
        result = chi_square_select(d, bins=10, policy="topk=1")
        assert result.effective_bins[0] == 2

    def test_memory_follows_the_rows_not_the_bins(self, data_dir):
        # A table over every bin took 16 MB per feature at a million bins
        # (31.5 MB peak on iris); one row per occupied bin takes a few KB.
        d = load_dataset(data_dir / "iris.data", "iris")
        chi_square_select(d, bins=10**6)  # warm imports and caches
        tracemalloc.start()
        try:
            result = chi_square_select(d, bins=10**6, policy="topk=4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        for f in range(d.n_features):
            stat, dof = chi2_bruteforce(d.features[:, f], d.labels, 3, 10**6)
            assert result.chi2_scores[f] == pytest.approx(stat, rel=1e-12)
            assert result.effective_bins[f] == dof // 2 + 1

    def test_constant_feature_reports_single_bin(self, make_dataset):
        d = make_dataset(
            np.column_stack([np.ones(10), np.arange(10.0)]),
            np.array([0, 1] * 5),
        )
        result = chi_square_select(d, bins=4, policy="topk=2")
        assert result.chi2_scores[0] == 0.0
        assert result.p_values[0] == 1.0
        assert result.effective_bins[0] == 1

    def test_topk_caps_at_feature_count(self, make_dataset):
        d = make_dataset(np.random.default_rng(0).normal(size=(10, 2)), [0, 1] * 5)
        result = chi_square_select(d, bins=3, policy="topk=10")
        assert len(result.kept_indices) == 2

    def test_summary_lines_name_every_feature(self, make_dataset):
        d = make_dataset(np.random.default_rng(0).normal(size=(10, 2)), [0, 1] * 5)
        result = chi_square_select(d, bins=3, policy="topk=1")
        lines = result.summary_lines(d.feature_names)
        assert lines[0] == "policy: topk=1"
        assert len(lines) == 3
        assert "[kept]" in lines[1] and "[dropped]" in lines[2]

    def test_validation(self, make_dataset):
        d = make_dataset(np.zeros((2, 1)), [0, 1])
        with pytest.raises(ValueError, match="at least 2 bins"):
            chi_square_select(d, bins=1)
        with pytest.raises(ValueError, match="policy"):
            chi_square_select(d, policy="bogus")


class TestStratifiedSplit:
    def test_iris_like_proportions(self):
        labels = np.repeat([0, 1, 2], 50)
        train_idx, test_idx = stratified_indices(labels, 0.2, seed=3)
        assert train_idx.size == 120 and test_idx.size == 30
        for cls in range(3):
            assert int(np.sum(labels[test_idx] == cls)) == 10

    def test_disjoint_and_complete(self):
        labels = np.array([0] * 7 + [1] * 9)
        train_idx, test_idx = stratified_indices(labels, 0.3, seed=1)
        combined = np.concatenate([train_idx, test_idx])
        assert len(set(combined.tolist())) == 16
        np.testing.assert_array_equal(np.sort(combined), np.arange(16))

    def test_deterministic_per_seed(self):
        labels = np.repeat([0, 1], 20)
        a = stratified_indices(labels, 0.25, seed=9)
        b = stratified_indices(labels, 0.25, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = stratified_indices(labels, 0.25, seed=10)
        assert not np.array_equal(a[1], c[1])

    def test_labels_with_gaps_split_as_before(self):
        # Classes are visited in ascending order, so gaps in the label
        # values do not change the random draws.
        labels = np.array([5, 0, 2, 2, 5, 0, 5, 2, 0, 5, 2, 0, 2, 5, 0, 2])
        train_idx, test_idx = stratified_indices(labels, 0.34, seed=7)
        assert train_idx.tolist() == [0, 3, 5, 7, 9, 10, 11, 13, 14, 15]
        assert test_idx.tolist() == [1, 2, 4, 6, 8, 12]
        dense = np.searchsorted([0, 2, 5], labels)
        for got, want in zip(stratified_indices(dense, 0.34, seed=7), (train_idx, test_idx)):
            np.testing.assert_array_equal(got, want)

    def test_outputs_sorted(self):
        labels = np.repeat([0, 1], 10)
        train_idx, test_idx = stratified_indices(labels, 0.3, seed=4)
        assert np.all(np.diff(train_idx) > 0)
        assert np.all(np.diff(test_idx) > 0)

    def test_every_class_keeps_a_training_row(self):
        # rounding would send the whole class to test; the clamp prevents it
        labels = np.array([0, 0, 1, 1, 1, 1])
        train_idx, _ = stratified_indices(labels, 0.9, seed=0)
        assert int(np.sum(labels[train_idx] == 0)) >= 1
        assert int(np.sum(labels[train_idx] == 1)) >= 1

    def test_class_test_counts_follow_split_test_count(self):
        labels = np.repeat([0, 1, 2], [7, 12, 3])
        for fraction in (0.1, 0.25, 0.5, 0.9):
            _, test_idx = stratified_indices(labels, fraction, seed=2)
            counts = np.bincount(labels[test_idx], minlength=3).tolist()
            assert counts == [split_test_count(n, fraction) for n in (7, 12, 3)]
        assert split_test_count(50, 0.2) == 10
        assert split_test_count(4, 0.9) == 3  # a training row always remains

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            stratified_indices(np.array([0, 1, 1]), 0.5, seed=0)

    def test_fraction_validated(self):
        labels = np.repeat([0, 1], 5)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="test fraction"):
                stratified_indices(labels, bad, seed=0)
