"""Smoke tests for the scripts under ``scripts/``, which import private
library names and so break silently when those change."""

from qknn.bench import BenchConfig

from conftest import DATA_DIR, load_script


def test_mitigation_budget_repeat_vote_accuracies_replay():
    # One trial per level (p = 0, 0.1, 0.2) of the script's repeat-vote
    # mode: the library's noise draws and sampled-distance vote, pinned.
    budget = load_script("mitigation_budget")
    config = BenchConfig(
        dataset="iris", features=4, seed=0, distance="sampled", shots=1024,
        data_dir=str(DATA_DIR),
    )
    accuracies = budget._voted_accuracies(config, 1)
    assert accuracies.tolist() == [[0.9], [0.7666666666666667], [0.7]]
