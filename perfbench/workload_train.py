"""train: the release gate's training pipeline at reduced length.

Shaped like ``tests/test_acceptance.py::end_to_end`` on seeded data built in
set-up: pretraining (hidden 64, batch 32, dropout 0), two prompt-tuning
stages (hidden 512, batch 128, BCE, dropout 0), ``meta_prompt`` with the CLI
default meta and prompt configs except for fewer meta epochs, on items that
include an N=8 complex so ``adapt`` runs, then greedy inference and
evaluation on the held-in 4-chain complexes. Forward, backward and Adam all
run here; geometry and the oracle only run in set-up.
"""

import dataclasses

import numpy as np

from common import subseed
from stepasm import datagen, inference, meta, pretrain, prompt
from stepasm.config import RunConfig
from stepasm.graphs import is_labeled_tree
from stepasm.nn.model import params_hash
from stepasm.training import TrainConfig, group_split

SCALES = {
    "full": {"source": {3: 30, 4: 30, 5: 30}, "samples": 16,
             "target": {3: 2, 4: 10, 5: 2, 6: 1, 7: 1, 8: 1},
             "small_items": 768, "large_items": 128,
             "pretrain_epochs": 5, "stage1_epochs": 2, "stage2_epochs": 1, "meta_epochs": 2},
    "smoke": {"source": {3: 2, 4: 2, 5: 2}, "samples": 4,
              "target": {4: 2, 8: 1}, "small_items": 16, "large_items": 8,
              "pretrain_epochs": 1, "stage1_epochs": 1, "stage2_epochs": 1, "meta_epochs": 1},
}
CORRECT_Y = 0.99  # a docking action counts as correct above this label (KEEP_THRESHOLD)
PRETRAIN_SEED = 1  # as end_to_end
MAX_EXTRA_COMPLEXES = 20

PHASES = (("phase1_ms", "pretrain", "graph-epoch"),
          ("phase2_ms", "prompt", "item-epoch"),
          ("phase3_ms", "meta", "task"))
NAMED = (("pretrain_graphs_per_s", "pretrain", "rate", "graphs/s"),
         ("prompt_items_per_s", "prompt", "rate", "items/s"),
         ("meta_tasks_per_s", "meta", "rate", "tasks/s"))


def _pretrain_config(epochs):
    return pretrain.PretrainConfig(
        train=TrainConfig(lr=0.001, epochs=epochs, batch_size=32, patience=epochs),
        dropout=0.0, seed=PRETRAIN_SEED)


def _prompt_config(lr, epochs):
    return prompt.PromptTuneConfig(
        train=TrainConfig(lr=lr, epochs=epochs, batch_size=128, patience=epochs,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=512, dropout=0.0)


def _grow(m, seed, i, small_pool, large_pool):
    """Target records of one complex, grown as the release gate grows them."""
    small = m.n <= datagen.SMALL_SCALE_MAX
    records = datagen.make_target_dataset(
        m, np.random.default_rng([subseed(seed, 4), i]), starts=m.n if small else 1)
    (small_pool if small else large_pool).extend(records)


def _draw(rng, records, count):
    """``count`` of ``records`` without replacement, in their original order."""
    return [records[i] for i in np.sort(rng.choice(len(records), count, replace=False))]


class Workload:
    def __init__(self, scale):
        self.size = SCALES[scale]

    def setup(self, seed, workdir):
        size = self.size
        source_ms = datagen.gen_multimer_set(size["source"], subseed(seed, 1))
        source = datagen.make_source_dataset(source_ms, size["samples"], subseed(seed, 2))
        target_ms = datagen.gen_multimer_set(size["target"], subseed(seed, 3), prefix="tgt")
        held_in = [m for m in target_ms if m.n == 4]
        small_pool, large_pool = [], []
        for i, m in enumerate(target_ms):
            _grow(m, seed, i, small_pool, large_pool)
        # A fixed number of items of each scale, drawn from the seed's records,
        # so that every seed asks the same tuning and meta work. Growth yields
        # a seed-dependent number of records; complexes are added until both
        # scales have enough.
        for extra in range(MAX_EXTRA_COMPLEXES + 1):
            short_small = len(small_pool) < size["small_items"]
            if not short_small and len(large_pool) >= size["large_items"]:
                break
            if extra == MAX_EXTRA_COMPLEXES:
                raise RuntimeError(f"seed {seed}: too few target records")
            n = 4 if short_small else datagen.SMALL_SCALE_MAX + 1
            m = datagen.gen_synthetic_multimer(n, subseed(seed, 6, extra),
                                               name=f"tgt-extra-{extra:02d}-n{n}")
            target_ms.append(m)
            _grow(m, seed, len(target_ms) - 1, small_pool, large_pool)
        multimers = {m.name: m for m in source_ms + target_ms}
        rng = np.random.default_rng(subseed(seed, 5))
        small_recs = _draw(rng, small_pool, size["small_items"])
        large_recs = _draw(rng, large_pool, size["large_items"])
        small = prompt.build_items(small_recs, multimers)
        items = small + prompt.build_items(large_recs, multimers)
        keys = [inst.multimer for inst in source]
        train_idx, _ = group_split(keys, _pretrain_config(1).train.val_fraction,
                                   np.random.default_rng([PRETRAIN_SEED, 1]))
        return {"source": source, "multimers": multimers, "items": items, "small": small,
                "records": small_recs,
                "n_pretrain": train_idx.size,
                "held_in": held_in}

    def cycle(self, state, clock, index):
        epochs = self.size  # epochs per stage
        with clock.timed("pretrain") as box:
            gin, head, pre_log = pretrain.pretrain(
                state["source"], state["multimers"], _pretrain_config(epochs["pretrain_epochs"]))
            box["units"] = state["n_pretrain"] * len(pre_log)
        gin.set_trainable(False)
        head.set_trainable(False)
        frozen = params_hash({**gin.named(), **head.named()})

        small = state["small"]
        with clock.timed("prompt") as box:
            stage1, log1 = prompt.prompt_tune(
                small, gin, head, _prompt_config(0.001, epochs["stage1_epochs"]))
            tuned, log2 = prompt.prompt_tune(
                small, gin, head, _prompt_config(0.00025, epochs["stage2_epochs"]), init=stage1)
            box["units"] = len(small) * (len(log1) + len(log2))
        after_prompt = params_hash({**gin.named(), **head.named()})

        defaults = RunConfig()
        meta_cfg = dataclasses.replace(defaults.meta_config(), epochs=epochs["meta_epochs"])
        with clock.timed("meta") as box:
            _, _, meta_log = meta.meta_prompt(
                state["items"], gin, head, meta_cfg, defaults.prompt_config())
            box["units"] = meta_cfg.epochs * meta_cfg.task_batch
        after_meta = params_hash({**gin.named(), **head.named()})

        with clock.timed("greedy") as box:
            pipe = inference.ScoringPipeline(gin, head, tuned)
            paths, preds = [], []
            for m in state["held_in"]:
                path = inference.infer_path(m.chain_features, pipe, dimers=m.dimers)
                paths.append(path)
                preds.append(inference.predict_structure(m.chains, m.dimers, path))
            report = inference.evaluate(preds, [m.gt_coords for m in state["held_in"]])
            box["units"] = len(paths)
        return {"gin": gin, "head": head, "tuned": tuned,
                "logs": {"pretrain": pre_log, "prompt": log1 + log2, "meta": meta_log},
                "hashes": (frozen, after_prompt, after_meta),
                "paths": paths, "report": report}

    def check(self, state, out, tally):
        for stage, log in out["logs"].items():
            values = [v for e in log for k, v in e.items() if k != "epoch" and v is not None]
            tally.op(bool(values) and bool(np.all(np.isfinite(values))),
                     f"{stage}: non-finite loss")
        frozen, after_prompt, after_meta = out["hashes"]
        tally.op(after_prompt == frozen, "prompt_tune changed the encoder or head")
        tally.op(after_meta == frozen, "meta_prompt changed the encoder or head")
        for m, path in zip(state["held_in"], out["paths"]):
            tally.op(is_labeled_tree(range(m.n), path.edges())
                     and path.per_step_evals == inference.expected_step_evals(m.n),
                     f"{m.name}: greedy path")

    def quality(self, state, out):
        """Deterministic for a seed: they show a refactor that changes results."""
        probs = prompt.pipeline_forward_batch(
            state["small"], out["gin"], out["head"], out["tuned"]
        ).data.ravel()
        groups = {}
        for rec, p in zip(state["records"], probs):
            groups.setdefault((rec.multimer, rec.cond_nodes, rec.cond_edges), []).append((p, rec.y))
        ranked = [max(g)[1] > CORRECT_Y for g in groups.values()
                  if any(y > CORRECT_Y for _, y in g)]
        return {
            "pretrain_val_mae": (min(e["val_mae"] for e in out["logs"]["pretrain"]), "mae"),
            "prompt_top1": (float(np.mean(ranked)), "share"),
            "greedy_tm_mean": (out["report"].tm_mean, "tm"),
        }
