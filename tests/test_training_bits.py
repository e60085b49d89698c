"""Training bits pinned: a small pretraining run and a 2-epoch prompt tuning
on its encoder.

The pins in data/training_bits_pins.json hold every logged metric as
float.hex and the trained parameters' params_hash. A change that claims to
keep the order of arithmetic in the forward, backward or Adam step must keep
all of them, so this test fails if any bit moves.
"""

import json
import os

import numpy as np

from stepasm.datagen import gen_multimer_set, make_source_dataset, make_target_dataset
from stepasm.nn.model import params_hash
from stepasm.pretrain import PretrainConfig, pretrain
from stepasm.prompt import PromptTuneConfig, build_items, prompt_tune
from stepasm.training import TrainConfig

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "training_bits_pins.json")


def _hex_log(log):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in e.items()} for e in log]


def training_bits():
    """The pinned values, as JSON-ready data."""
    ms = gen_multimer_set({3: 3, 4: 3, 5: 2}, seed=71)
    multimers = {m.name: m for m in ms}
    source = make_source_dataset(ms, 6, seed=72)
    cfg = PretrainConfig(
        train=TrainConfig(lr=0.003, epochs=4, batch_size=16, patience=4),
        hidden_dim=16, head_hidden=32, dropout=0.2, seed=73)
    gin, head, pre_log = pretrain(source, multimers, cfg)
    pretrained = params_hash({**gin.named(), **head.named()})

    records = [r for i, m in enumerate(ms[3:6])
               for r in make_target_dataset(m, np.random.default_rng([74, i]), starts=m.n)]
    items = build_items(records, multimers)
    tune = PromptTuneConfig(
        train=TrainConfig(lr=0.001, epochs=2, batch_size=32, patience=2, loss="bce"),
        mlp_hidden=32, seed=75)
    tuned, tune_log = prompt_tune(items, gin, head, tune)
    return {"pretrain_log": _hex_log(pre_log), "pretrained": pretrained,
            "items": len(items), "prompt_log": _hex_log(tune_log),
            "prompt": params_hash(tuned.named())}


def test_training_bits_are_pinned():
    with open(PINS) as fh:
        want = json.load(fh)
    got = training_bits()
    for key in ("pretrain_log", "pretrained", "items", "prompt_log", "prompt"):
        assert got[key] == want[key], key
