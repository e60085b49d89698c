"""infer: greedy docking inference, forward only, as ``stepasm infer`` runs it.

A fixed-seed pipeline with the CLI defaults (encoder hidden 64, prompt MLP
hidden 1024) and distinct small and large prompts scores every candidate
action. Three parts, each run once per cycle: ``infer_path`` +
``predict_structure`` on a slice of the 4-chain complexes of a release-scale
multimers file, all of them every SLICES cycles (per-call overhead: 12
scoring calls per assembly), ``infer_path`` on an N=30 complex (MLP rows:
5 336 candidates), and the CLI ``infer`` call on one 4-chain complex of that
file, the latency a user waits for, most of it spent parsing the file.
"""

import json
import os

import numpy as np

from common import quiet, subseed
from stepasm import cli, datagen, inference
from stepasm.checkpoint import save_models
from stepasm.config import RunConfig
from stepasm.graphs import AssemblyGraph, is_labeled_tree
from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams, gin_encode
from stepasm.prompt import PromptParams, pipeline_forward

SCALES = {
    # the release gate's 300 source + 36 target multimers
    "full": {"source": {3: 100, 4: 100, 5: 100}, "target": {3: 6, 4: 20, 5: 6, 6: 2, 7: 2}},
    "smoke": {"source": {4: 3}, "target": {4: 1}},
}
# The 4-chain assemblies all cost about the same, so their samples are pooled:
# a cycle runs one of SLICES slices and stays short enough for the N=30 and
# CLI parts to be repeated several times in a run.
SLICES = 3
LARGE_N = 30
MODEL_SEED = 7
PROB_TOL = 1e-12
CHECKED_N4_PER_CYCLE = 5  # paths re-scored item by item through pipeline_forward

PHASES = (("phase1_ms", "n4", "assembly"),
          ("phase2_ms", "n30", "assembly"),
          ("phase3_ms", "cli", "call"))
NAMED = (("infer_n4_p50_ms", "n4", "p50", "ms"),
         ("infer_n4_p90_ms", "n4", "p90", "ms"),
         ("infer_n30_p50_s", "n30", "p50", "s"),
         ("cli_infer_s", "cli", "p50", "s"))


def _models(four):
    """Encoder, head and two prompts from fixed seeds with the CLI's shapes."""
    cfg = RunConfig()
    gin = GINParams.init(GINConfig(hidden_dim=cfg.model.hidden_dim,
                                   num_layers=cfg.model.num_layers,
                                   dropout=cfg.model.dropout), [MODEL_SEED, 10])
    head = TaskHeadParams.init(gin.config.input_dim, cfg.model.head_hidden, [MODEL_SEED, 11])
    rows = gin_encode(np.concatenate([m.chain_features for m in four]), [], gin).data
    prompts = []
    for k in (20, 21):
        p = PromptParams.init(gin.config.input_dim, cfg.prompt.mlp_hidden, [MODEL_SEED, k],
                              heads=cfg.prompt.heads, multi_head=cfg.prompt.multi_head,
                              dropout=cfg.model.dropout)
        p.standardize_from(rows)
        prompts.append(p)
    return gin, head, prompts[0], prompts[1]


class Workload:
    def __init__(self, scale):
        self.size = SCALES[scale]

    def setup(self, seed, workdir):
        size = self.size
        release = (datagen.gen_multimer_set(size["source"], subseed(seed, 1))
                   + datagen.gen_multimer_set(size["target"], subseed(seed, 2), prefix="tgt"))
        multimers_path = os.path.join(workdir, "multimers.jsonl")
        datagen.save_multimers(multimers_path, release)
        four = [m for m in release if m.n == 4]
        large = datagen.gen_synthetic_multimer(LARGE_N, subseed(seed, 3), name="big")
        for m in four + [large]:
            m.chain_features  # cached property: computed here, not in a timed call
        gin, head, small, big = _models(four)
        ckpt = os.path.join(workdir, "model.npz")
        save_models(ckpt, gin, head, prompts={"prompt_meta": small, "prompt_star": big})
        return {"workdir": workdir, "multimers_path": multimers_path, "ckpt": ckpt,
                "four": four, "large": large, "cli_multimer": four[-1],
                "gin": gin, "head": head, "small": small, "big": big,
                "pipes": (inference.ScoringPipeline(gin, head, small),
                          inference.ScoringPipeline(gin, head, big))}

    def cycle(self, state, clock, index):
        small_pipe, large_pipe = state["pipes"]
        four = state["four"][index % SLICES::SLICES]
        paths4 = []
        for m in four:
            with clock.timed("n4"):
                path = inference.infer_path(m.chain_features, small_pipe, large_pipe,
                                            dimers=m.dimers)
                inference.predict_structure(m.chains, m.dimers, path)
            paths4.append(path)
        m = state["large"]
        with clock.timed("n30", m.name):
            path30 = inference.infer_path(m.chain_features, small_pipe, large_pipe,
                                          dimers=m.dimers)
        prefix = os.path.join(state["workdir"], "cli-infer")
        with clock.timed("cli"):
            code = quiet(cli.main, ["infer", "--multimers", state["multimers_path"],
                                    "--name", state["cli_multimer"].name,
                                    "--ckpt", state["ckpt"], "--out", prefix])
        return {"four": list(zip(four, paths4)), "large": [(m, path30)],
                "cli": (code, prefix)}

    def check(self, state, out, tally):
        pairs = out["four"] + out["large"]
        for i, (m, path) in enumerate(pairs):
            ok = (is_labeled_tree(range(m.n), path.edges())
                  and path.per_step_evals == inference.expected_step_evals(m.n))
            if i < CHECKED_N4_PER_CYCLE or m.n == LARGE_N:
                ok = ok and _probs_match(state, m, path.actions, path.probs)
            tally.op(ok, f"{m.name}: greedy path")
        code, prefix = out["cli"]
        m = state["cli_multimer"]
        ok = code == 0
        if ok:
            with open(prefix + ".report.json") as fh:
                report = json.load(fh)
            actions = [tuple(a) for a in report["actions"]]
            ok = (is_labeled_tree(range(m.n), actions)
                  and tuple(report["per_step_evals"]) == inference.expected_step_evals(m.n)
                  and _probs_match(state, m, actions, report["probs"]))
        tally.op(ok, "stepasm infer: report")

    def quality(self, state, out):
        return {}


def _probs_match(state, m, actions, probs):
    """Each chosen action's probability against the single-item pipeline_forward."""
    docked, edges = [], []
    for (d, u), p in zip(actions, probs):
        post_size = len(docked) + 1 if docked else 2
        prompt = state["small"] if post_size <= inference.SMALL_ASSEMBLY_MAX else state["big"]
        nodes = tuple(sorted(docked)) if docked else (d,)
        cond = AssemblyGraph(nodes, tuple(edges), m.chain_features[list(nodes)])
        ref = pipeline_forward(cond, d, u, m.chain_features[u], state["gin"], state["head"], prompt)
        if abs(ref - p) > PROB_TOL:
            return False
        docked = sorted(set(docked) | {d, u})
        edges.append((min(d, u), max(d, u)))
    return True
