"""The config dataclasses check their leaves as the CLI does: one declaration per leaf."""

import math

import numpy as np
import pytest

from giftnn.checks import leaves
from giftnn.cli import SCHEMA
from giftnn.data import Dataset
from giftnn.gift import GiftConfig
from giftnn.model import Architecture, Hyperrectangle
from giftnn.trainer import TrainConfig, train

ARCH = Architecture((1, 1))
DATA = Dataset(np.zeros((4, 1)), np.zeros((4, 1)))

LEAVES = [pytest.param(cls, name, default, id=f"{cls.__name__}.{name}")
          for cls in (TrainConfig, GiftConfig) for name, (default, _) in leaves(cls).items()]


def test_schema_sections_are_the_classes_leaves():
    assert SCHEMA["train"] == leaves(TrainConfig)
    assert SCHEMA["gift"] == leaves(GiftConfig)
    assert "seed" not in SCHEMA["train"]  # train's per-run argument, not a config leaf


@pytest.mark.parametrize("cls, name, default", LEAVES)
def test_every_leaf_rejects_a_value_of_another_type(cls, name, default):
    # the value tests/test_cli.py sends through the CLI for the same leaf
    bad = 5 if default is None or isinstance(default, str) else "x"
    with pytest.raises(ValueError, match=f"^{name}: "):
        cls(**{name: bad})


@pytest.mark.parametrize("build, name", [
    (lambda: TrainConfig(s0=0.2, tau=math.inf), "tau"),
    (lambda: TrainConfig(s0=0.2, epochs=2.5), "epochs"),
    (lambda: GiftConfig(eta=0.02, k1=True, k2=2), "k1"),
    (lambda: GiftConfig(eta=-0.1), "eta"),
    (lambda: TrainConfig(projection={"w_min": 1.0}), "projection"),
    # the seed is train's argument, checked as the constructors check their leaves
    (lambda: train(ARCH, TrainConfig(epochs=1), DATA, 2.5), "seed"),
    (lambda: train(ARCH, TrainConfig(epochs=1), DATA, "x"), "seed"),
    (lambda: train(ARCH, TrainConfig(epochs=1), DATA, True), "seed"),
])
def test_values_the_cli_rejects_are_rejected_by_the_constructors(build, name):
    with pytest.raises(ValueError, match=f"^{name}: "):
        build()


def test_leaves_come_back_in_the_form_the_program_uses():
    cfg = TrainConfig(s0=1, epochs=3.0, projection={"w_min": -1, "w_max": 1, "b_min": -2, "b_max": 2})
    assert (cfg.s0, cfg.epochs) == (1.0, 3)
    assert type(cfg.s0) is float and type(cfg.epochs) is int
    assert cfg.projection == Hyperrectangle(-1.0, 1.0, -2.0, 2.0)
    box = Hyperrectangle(-0.1, 0.1, -0.2, 0.2)
    assert TrainConfig(projection=box).projection is box
    assert type(GiftConfig(k1=4.0).k1) is int


def test_numpy_numbers_come_back_as_python_numbers():
    cfg = TrainConfig(epochs=np.int64(3), s0=np.float32(0.25))
    assert (cfg.epochs, cfg.s0) == (3, 0.25)
    assert type(cfg.epochs) is int and type(cfg.s0) is float
    assert train(ARCH, cfg, DATA, np.uint32(7))[0].vector.tobytes() == train(ARCH, cfg, DATA, 7)[0].vector.tobytes()
    assert type(GiftConfig(k1=np.int64(5)).k1) is int
    assert type(GiftConfig(eta=np.float16(0.5)).eta) is float
    for build in (lambda: TrainConfig(epochs=np.bool_(True)), lambda: TrainConfig(s0=np.bool_(True)),
                  lambda: TrainConfig(epochs=np.float32(2.5)), lambda: GiftConfig(eta=np.float64("nan"))):
        with pytest.raises(ValueError, match="^(epochs|s0|eta): "):
            build()

