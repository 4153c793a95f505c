"""One value-type rule for every setting, whichever entry point takes it.

The same bad scalars go through every config and function that takes a
setting, and each kind fails with one exception type and one message:
a bool is only a bool, an int is a valid real, a real must be finite as
a float, and NumPy scalars other than np.float64 are refused.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from qknn import cknn
from qknn.bench import BenchConfig, noise_grid, run_noise_sweep
from qknn.classifier import QknnConfig, find_neighbors, fit
from qknn.data import parse_selection_policy
from qknn.encoding import EncodingConfig, encode_point
from qknn.noise import NoiseKind, NoiseSpec
from qknn.qnn import QnnArchitecture, TrainConfig, init_architecture

from conftest import _make_dataset

TOY = _make_dataset([[0.1, 0.2], [0.8, 0.9]], [0, 1])


def _sweep_trials(value):
    # The data directory does not exist: a value that passed would fail to load.
    cfg = BenchConfig(data_dir="missing", shots=64)
    return run_noise_sweep(cfg, [0.1], trials=value)


def _source_row(value):
    model = fit(TOY, QknnConfig(k=1))
    return find_neighbors(model, encode_point(np.array([0.1, 0.2]), source_row=value))


#: Entry point -> (the setting's name in messages, its kind, a call with one value).
SETTINGS = {
    **{
        f"BenchConfig.{f.name}": (f.name, f.type, lambda v, n=f.name: BenchConfig(**{n: v}))
        for f in fields(BenchConfig)
    },
    **{
        f"QknnConfig.{name}": (name, kind, lambda v, n=name: QknnConfig(**{n: v}))
        for name, kind in (("k", "int"), ("shots", "int"), ("seed", "int"),
                           ("use_feature_map", "bool"))
    },
    **{
        f"EncodingConfig.{name}": (name, "float", lambda v, n=name: EncodingConfig(**{n: v}))
        for name in ("angle_scale", "feature_map_angle")
    },
    "NoiseSpec.p": ("noise probability p", "float",
                    lambda v: NoiseSpec(NoiseKind.BIT_FLIP, v)),
    "TrainConfig.learning_rate": ("learning_rate", "float",
                                  lambda v: TrainConfig(learning_rate=v)),
    "TrainConfig.epochs": ("epochs", "int", lambda v: TrainConfig(epochs=v)),
    "init_architecture.n_qubits": ("n_qubits", "int", lambda v: init_architecture(v, 1, 2)),
    "init_architecture.n_layers": ("n_layers", "int", lambda v: init_architecture(2, v, 2)),
    "init_architecture.n_classes": ("n_classes", "int", lambda v: init_architecture(2, 1, v)),
    "init_architecture.seed": ("seed", "int", lambda v: init_architecture(2, 1, 2, seed=v)),
    "QnnArchitecture.n_classes": ("n_classes", "int",
                                  lambda v: QnnArchitecture(v, np.zeros((1, 2)))),
    "init_architecture.init_scale": ("init_scale", "float",
                                     lambda v: init_architecture(2, 1, 2, init_scale=v)),
    "cknn.fit_predict.k": ("k", "int", lambda v: cknn.fit_predict(TOY, TOY, v)),
    "noise_grid.p_start": ("p_start", "float", lambda v: noise_grid(v, 1, 0.5)),
    "noise_grid.p_stop": ("p_stop", "float", lambda v: noise_grid(0, v, 0.5)),
    "noise_grid.p_step": ("p_step", "float", lambda v: noise_grid(0, 1, v)),
    "run_noise_sweep.trials": ("trials", "int", _sweep_trials),
    "find_neighbors.source_row": ("source_row", "int", _source_row),
    "parse_selection_policy": ("policy", "str", parse_selection_policy),
}

#: Kind -> the values of the wrong type that every setting of it refuses.
BAD_TYPES = {
    "int": [True, 1.5, "1", None, np.int64(1)],
    "float": [True, "1", None, np.float32(0.5)],
    "bool": [1, 0, "true", None, np.bool_(True)],
    "str": [1, None, b"iris", ["iris"]],
}

#: Reals that are not finite as a float, ints past the float range included,
#: each with how its message shows it: a 401-digit int is cut to 40 characters,
#: and one past the interpreter's 4300-digit limit is not written out at all.
NON_FINITE = {math.nan: "nan", math.inf: "inf", -math.inf: "-inf",
              10**400: "1" + "0" * 17 + "..." + "0" * 19,
              10**5000: "an int of over 4300 digits"}

#: Good reals, each valid wherever a real setting is.
GOOD_REALS = [1, 0.5, np.float64(0.5)]

NOUNS = {"int": "an int", "float": "a real number", "bool": "a bool", "str": "a string"}


def _show(value):
    try:
        return repr(value)
    except ValueError:  # an int past the digit limit has no repr
        return NON_FINITE[value]


def _cases(kinds, values_of):
    return [
        pytest.param(entry, value, id=f"{entry}-{_show(value)}"[:60])
        for entry, (_, kind, _) in SETTINGS.items() if kind in kinds
        for value in values_of(kind)
    ]


@pytest.mark.parametrize("entry, value", _cases(NOUNS, BAD_TYPES.get))
def test_a_value_of_the_wrong_type_is_a_type_error(entry, value):
    name, kind, call = SETTINGS[entry]
    message = f"{name} must be {NOUNS[kind]}, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry, value", _cases({"float"}, lambda kind: NON_FINITE))
def test_a_real_that_is_not_finite_is_a_value_error(entry, value):
    name, _, call = SETTINGS[entry]
    message = f"{name} must be finite, got {NON_FINITE[value]}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry, value", _cases({"float"}, lambda kind: GOOD_REALS))
def test_an_int_or_a_finite_float_is_a_real(entry, value):
    SETTINGS[entry][2](value)
