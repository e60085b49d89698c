"""Command-line entry points.

Every artifact embeds the active config hash and seed; all file writes are
atomic (temp file + rename), so interrupted runs never leave partial output.
"""

import argparse
import json
import os
import sys
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import datagen
from .chainio import parse_chain_coords, write_chain_file
from .checkpoint import load_models, save_models
from .config import DataConfig, RunConfig, config_from_dict, config_hash, load_config
from .diagnostics import batched_gradcheck, gradcheck
from .errors import ConfigError, LengthMismatchError, NoValidGrowthWarning, StepasmError
from .graphs import ChainStructure, best_assembly, enumerate_scores
from .inference import ScoringPipeline, evaluate, infer_path, predict_structure
from .ioutil import atomic_write_text
from .meta import meta_prompt
from .pretrain import pretrain
from .prompt import build_items, prompt_tune

GRADCHECK_TOL = 1e-4


def _load_run_config(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = config_from_dict({"seed": args.seed}, cfg)
    return cfg


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def _stamp(cfg):
    return {"config_hash": config_hash(cfg), "seed": cfg.seed}


def _common(sub):
    sub.add_argument("--config", help="JSON run configuration")
    sub.add_argument("--seed", type=int, help="override the config seed")


@contextmanager
def _passed_on(category):
    """A list that, when the block ends, holds the warnings of ``category``
    raised in it, whatever the warning filters say. Every warning raised in
    the block is then passed on to the filters, as it was raised."""
    caught, counted = [], []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", category)
            yield counted
    finally:
        counted.extend(w for w in caught if issubclass(w.category, category))
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)


def cmd_gen_data(args):
    cfg = _load_run_config(args)
    # --n/--count pass the checks a config's data.counts passes
    counts = DataConfig({args.n: args.count}).counts if args.n is not None else cfg.data.counts
    os.makedirs(args.out, exist_ok=True)
    multimers = datagen.gen_multimer_set(counts, cfg.seed)
    seeds = {m.name: cfg.seed for m in multimers}
    lo, hi = datagen.SOURCE_CHAIN_RANGE
    source_pool = [m for m in multimers if lo <= m.n <= hi]
    source = datagen.make_source_dataset(
        source_pool, cfg.data.samples_per_multimer, cfg.seed
    ) if source_pool else []
    target = []
    with _passed_on(NoValidGrowthWarning) as dead_ends:
        for idx, m in enumerate(multimers):
            target.extend(
                datagen.make_target_dataset(
                    m, np.random.default_rng([cfg.seed, 1000 + idx]), starts=cfg.data.starts
                )
            )
    paths = {
        "multimers": os.path.join(args.out, "multimers.jsonl"),
        "source": os.path.join(args.out, "source.jsonl"),
        "target": os.path.join(args.out, "target.jsonl"),
    }
    datagen.save_multimers(paths["multimers"], multimers, seeds)
    datagen.save_dataset(paths["source"], source)
    datagen.save_dataset(paths["target"], target)
    split = datagen.split_by_scale(target)
    _write_json(os.path.join(args.out, "manifest.json"), {
        **_stamp(cfg),
        "generator_version": datagen.GENERATOR_VERSION,
        "counts": {str(k): v for k, v in counts.items()},
        "n_multimers": len(multimers),
        "n_source": len(source),
        "n_target": len(target),
        "n_target_small": len(split.small),
        "n_target_large": len(split.large),
        "no_valid_growth": len(dead_ends),
        "target_records_by_condition_size": {
            str(size): count for size, count in sorted(
                Counter(len(r.cond_nodes) for r in target).items())},
        "files": {k: os.path.basename(v) for k, v in paths.items()},
    })
    print(f"wrote {len(multimers)} multimers, {len(source)} source / "
          f"{len(target)} target records to {args.out}")


def cmd_pretrain(args):
    cfg = _load_run_config(args)
    multimers = datagen.load_multimers(os.path.join(args.data, "multimers.jsonl"))
    instances = datagen.load_source_dataset(os.path.join(args.data, "source.jsonl"), multimers)
    gin, head, log = pretrain(instances, multimers, cfg.pretrain_config())
    save_models(args.out, gin, head, meta={**_stamp(cfg), "stage": "pretrain"})
    _write_json(args.out + ".log.json", {**_stamp(cfg), "epochs": log})
    final = log[-1]
    print(f"pretrained {len(instances)} instances, "
          f"final train MAE {final['train_mae']:.4f}, "
          f"val MAE {final['val_mae'] if final['val_mae'] is not None else 'n/a'}")


def _load_frozen(path):
    gin, head, prompts, meta = load_models(path)
    gin.set_trainable(False)
    head.set_trainable(False)
    return gin, head, prompts, meta


def _load_target_items(args):
    """Frozen encoder and head of ``--ckpt`` and the prompt items of ``--data``."""
    multimers = datagen.load_multimers(os.path.join(args.data, "multimers.jsonl"))
    instances = datagen.load_target_dataset(os.path.join(args.data, "target.jsonl"),
                                            multimers)
    gin, head, _, _ = _load_frozen(args.ckpt)
    return gin, head, build_items(instances, multimers)


def cmd_prompt_tune(args):
    cfg = _load_run_config(args)
    gin, head, items = _load_target_items(args)
    prompt, log = prompt_tune(items, gin, head, cfg.prompt_config())
    save_models(args.out, gin, head, prompts={"prompt": prompt},
                meta={**_stamp(cfg), "stage": "prompt-tune"})
    _write_json(args.out + ".log.json", {**_stamp(cfg), "epochs": log})
    print(f"tuned prompt on {len(items)} actions, "
          f"final train MAE {log[-1]['train_mae']:.4f}")


def cmd_meta_train(args):
    cfg = _load_run_config(args)
    gin, head, items = _load_target_items(args)
    pi_meta, pi_star, log = meta_prompt(
        items, gin, head, cfg.meta_config(), cfg.prompt_config()
    )
    save_models(args.out, gin, head,
                prompts={"prompt_meta": pi_meta, "prompt_star": pi_star},
                meta={**_stamp(cfg), "stage": "meta-train"})
    _write_json(args.out + ".log.json", {**_stamp(cfg), "epochs": log})
    print(f"meta-trained on {len(items)} actions, "
          f"final query loss {log[-1]['query_loss']:.4f}")


def _pick_multimer(path, name):
    """``datagen.load_multimer``, with a missing record as a ConfigError."""
    m = datagen.load_multimer(path, name)
    if m is None:
        raise ConfigError(f"{path}: no multimers" if name is None
                          else f"multimer {name!r} not in {path}")
    return m


def cmd_infer(args):
    cfg = _load_run_config(args)
    m = _pick_multimer(args.multimers, args.name)
    gin, head, prompts, _ = _load_frozen(args.ckpt)
    small = prompts.get("prompt_meta") or prompts.get("prompt")
    large = prompts.get("prompt_star") or small
    if small is None:
        raise ConfigError("checkpoint holds no prompt parameters; tune or meta-train first")
    small_pipe = ScoringPipeline(gin, head, small)
    # one prompt, one pipeline: what it keeps carries past the switch at 7 chains
    large_pipe = small_pipe if large is small else ScoringPipeline(gin, head, large)
    # everything that can fail on the input comes before the first write
    path = infer_path(m.chain_features, small_pipe, large_pipe, dimers=m.dimers)
    coords = predict_structure(m.chains, m.dimers, path)
    predicted = [
        ChainStructure(c.chain_id, c.sequence, x) for c, x in zip(m.chains, coords)
    ]
    atomic_write_text(args.out + ".path.txt", path.to_text())
    write_chain_file(args.out + ".structure.txt", predicted)
    _write_json(args.out + ".report.json", {
        **_stamp(cfg),
        "multimer": m.name,
        "n_chains": m.n,
        "actions": [list(a) for a in path.actions],
        "probs": list(path.probs),
        "per_step_evals": list(path.per_step_evals),
        "margins": list(path.margins),
        "fallbacks": path.fallbacks,
    })
    print(f"{m.name}: {len(path.actions)} actions -> {args.out}.path.txt")


def cmd_eval(args):
    cfg = _load_run_config(args)
    if len(args.pred) != len(args.gt):
        raise ConfigError("need one --gt file per --pred file")
    preds, gts, names = [], [], []
    for p, g in zip(args.pred, args.gt):
        # chains pair by id, in the ground truth's order
        pred = {c.chain_id: c.coords for c in parse_chain_coords(p)}
        gt = parse_chain_coords(g)
        unmatched = set(pred) ^ {c.chain_id for c in gt}
        if unmatched:
            raise ConfigError(f"chain ids in only one of {p} and {g}: {sorted(unmatched)}")
        uneven = [c.chain_id for c in gt if len(pred[c.chain_id]) != len(c)]
        if uneven:
            raise LengthMismatchError(f"{p} and {g} differ in the length of chains {uneven}")
        preds.append([pred[c.chain_id] for c in gt])
        gts.append([c.coords for c in gt])
        names.append(os.path.basename(p))
    report = evaluate(preds, gts, names)
    sys.stdout.write(report.to_text())
    if args.out:
        _write_json(args.out, {**_stamp(cfg), **report.to_dict()})


def cmd_enumerate_oracle(args):
    cfg = _load_run_config(args)
    m = _pick_multimer(args.multimers, args.name)
    scored = enumerate_scores(m)
    edges, score = best_assembly(m, scored)
    print(f"{m.name}: {len(scored)} trees, best score {score:.6f}, edges {edges}")
    if args.out:
        payload = {
            **_stamp(cfg),
            "multimer": m.name,
            "best_edges": [list(e) for e in edges],
            "best_score": score,
            "n_trees": len(scored),
        }
        if args.all:
            payload["scores"] = [
                {"edges": [list(e) for e in ed], "score": s} for ed, s in scored
            ]
        _write_json(args.out, payload)


def cmd_grad_check(args):
    cfg = _load_run_config(args)
    if args.graphs < 1:
        raise ConfigError(f"--graphs must be positive, got {args.graphs}")
    worst = gradcheck(num_graphs=args.graphs, seed=cfg.seed)
    batched = batched_gradcheck(seed=cfg.seed)
    print(f"max relative error: single {worst:.3e}, batched {batched:.3e} "
          f"(tolerance {GRADCHECK_TOL:.0e})")
    if args.out:
        _write_json(args.out, {**_stamp(cfg), "single": worst, "batched": batched,
                               "tolerance": GRADCHECK_TOL})
    return 0 if max(worst, batched) < GRADCHECK_TOL else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepasm",
        description="Step-wise multimer assembly: data generation, training, inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic multimers + datasets")
    _common(p)
    p.add_argument("--n", type=int, help="single chain count (with --count)")
    p.add_argument("--count", type=int, default=10, help="multimers for --n")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train encoder + head on source graphs")
    _common(p)
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("prompt-tune", help="tune the prompt model, encoder frozen")
    _common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="pretrained checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prompt_tune)

    p = sub.add_parser("meta-train", help="meta-initialize + adapt the prompt")
    _common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("infer", help="greedy docking path + assembled structure")
    _common(p)
    p.add_argument("--multimers", required=True, help="multimers.jsonl file")
    p.add_argument("--name", help="multimer name (default: first in file)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    _common(p)
    p.add_argument("--pred", action="append", required=True, help="chain file (repeatable)")
    p.add_argument("--gt", action="append", required=True)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("enumerate-oracle", help="exhaustive best assembly (N <= 6)")
    _common(p)
    p.add_argument("--multimers", required=True)
    p.add_argument("--name")
    p.add_argument("--all", action="store_true", help="include every tree's score")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate_oracle)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    _common(p)
    p.add_argument("--graphs", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    # a missing or unreadable file is reported like any other bad input
    except (StepasmError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
