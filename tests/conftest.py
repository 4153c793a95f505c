"""Shared fixtures: repository paths and dataset availability guards."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"

sys.path.insert(0, str(Path(__file__).resolve().parent))

BANKNOTE_PATH = DATA_DIR / "data_banknote_authentication.txt"
BANKNOTE_REASON = (
    "banknote dataset file not present (no network and no offline source; "
    "run scripts/fetch_data.py or place the file manually)"
)

requires_banknote = pytest.mark.skipif(
    not BANKNOTE_PATH.exists(), reason=BANKNOTE_REASON
)


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module, from its path."""
    path = REPO_ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _make_dataset(features, labels, n_classes=None, name="toy"):
    """Small helper to build a Dataset without repeating the naming."""
    from qknn.data import Dataset

    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return Dataset(
        name=name,
        features=features,
        labels=labels,
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
        class_names=tuple(str(c) for c in range(n_classes)),
    )


@pytest.fixture()
def make_dataset():
    return _make_dataset
