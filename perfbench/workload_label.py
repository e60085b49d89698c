"""label: oracle labelling, the three ways stepasm builds its data.

Phases share increasing amounts of placement work: random source trees share
almost none, level-wise target growth shares every condition's placements,
and the exhaustive oracle over all 6^4 = 1296 trees of an N=6 complex shares
the most. The oracle runs in process through ``stepasm enumerate-oracle``, as a user
would call it, on the N=6 complex of a small multimers file, once per cycle.
"""

import json
import os

import numpy as np

from common import quiet, subseed
from stepasm import cli, datagen

# Every cycle labels all the inputs, in SLICES slices timed apart, so each
# slice is repeated once per cycle; every slice holds each N.
SLICES = 3
SCALES = {
    "full": {"source": {3: 15, 4: 15, 5: 15}, "samples": 16,
             "target": {4: 3, 5: 3, 6: 3, 7: 3}},
    "smoke": {"source": {3: 3, 4: 3, 5: 3}, "samples": 4, "target": {4: 3}},
}
ORACLE_N = 6
ORACLE_SPANNING_MIN = 0.999  # as the acceptance oracle criterion

# (end-to-end slot, phase, unit of work)
PHASES = (("phase1_ms", "source", "tree"),
          ("phase2_ms", "target", "record"),
          ("phase3_ms", "oracle", "tree"))
NAMED = (("source_trees_per_s", "source", "rate", "trees/s"),
         ("target_records_per_s", "target", "rate", "records/s"),
         ("oracle_trees_per_s", "oracle", "rate", "trees/s"))


class Workload:
    def __init__(self, scale):
        self.size = SCALES[scale]

    def setup(self, seed, workdir):
        size = self.size
        source = datagen.gen_multimer_set(size["source"], subseed(seed, 1))
        target = datagen.gen_multimer_set(size["target"], subseed(seed, 2), prefix="tgt")
        oracle = datagen.gen_multimer_set({ORACLE_N: 1}, subseed(seed, 3), prefix="orc")
        for m in source + target:
            m.chain_features  # cached; labelling reads it through subgraph()
        path = os.path.join(workdir, "oracle_multimers.jsonl")
        datagen.save_multimers(path, oracle)
        return {"seed": seed, "workdir": workdir, "source": source, "target": target,
                "oracle_path": path, "oracle": oracle}

    def cycle(self, state, clock, index):
        seed = state["seed"]
        src, tgt, outs = [], [], []
        for k in range(SLICES):
            with clock.timed("source", k) as box:
                part = datagen.make_source_dataset(state["source"][k::SLICES],
                                                   self.size["samples"], seed)
                box["units"] = len(part)
            src.extend(part)
        for k in range(SLICES):
            with clock.timed("target", k) as box:
                part = []
                for i, m in enumerate(state["target"][k::SLICES]):
                    part.extend(datagen.make_target_dataset(
                        m, np.random.default_rng([seed, k, i]), starts=m.n))
                box["units"] = len(part)
            tgt.extend(part)
        for m in state["oracle"]:
            out = os.path.join(state["workdir"], f"oracle-{m.name}.json")
            with clock.timed("oracle", m.name) as box:
                code = quiet(cli.main, ["enumerate-oracle", "--multimers", state["oracle_path"],
                                        "--name", m.name, "--all", "--out", out])
                box["units"] = ORACLE_N ** (ORACLE_N - 2)
            outs.append((m, code, out))
        return {"source": src, "target": tgt, "oracle": outs}

    def check(self, state, out, tally):
        tally.ops((0.0 < r.y <= 1.0 for r in out["source"]), "source label outside (0, 1]")
        tally.ops((0.0 < r.y <= 1.0 for r in out["target"]), "target label outside (0, 1]")
        for m, code, path in out["oracle"]:
            tally.op(code == 0 and _oracle_ok(m, path), f"{m.name}: oracle criterion")

    def quality(self, state, out):
        return {}


def _oracle_ok(m, path):
    with open(path) as fh:
        report = json.load(fh)
    contact, other = [], []
    for tree in report["scores"]:
        edges = [tuple(e) for e in tree["edges"]]
        (contact if all(e in m.contact_edges for e in edges) else other).append(tree["score"])
    scores = contact + other
    return (
        report["n_trees"] == ORACLE_N ** (ORACLE_N - 2) == len(scores)
        and all(0.0 < s <= 1.0 for s in scores)
        and all(tuple(e) in m.contact_edges for e in report["best_edges"])
        and report["best_score"] >= ORACLE_SPANNING_MIN
        and bool(contact) and (not other or max(other) < min(contact))
    )
