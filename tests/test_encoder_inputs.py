"""Encoder inputs pinned: the packed pretraining batch, the stage-1 union that
query_embeddings encodes, and the eval-mode linking probabilities built on it.

The pins in data/encoder_input_pins.json were written by the code before
query_embeddings packed through pack_graphs; a change to how either lays out
a batch (row order, edge order, segment ids) shows here first.
"""

import hashlib
import json
import os

import numpy as np

from stepasm import prompt
from stepasm.datagen import gen_multimer_set, make_source_dataset, make_target_dataset
from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams, pack_graphs
from stepasm.pretrain import source_graphs
from stepasm.prompt import PromptParams, build_items, pipeline_forward_batch

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "encoder_input_pins.json")
PROB_TOL = 1e-12


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _packed(features, edges, seg=None):
    out = {"features": _sha(np.asarray(features, dtype=np.float64)),
           "edges": _sha(np.asarray(edges, dtype=np.int64).reshape(-1, 2))}
    if seg is not None:
        out["segments"] = _sha(np.asarray(seg, dtype=np.int64))
    return out


def encoder_inputs():
    """The pinned values, as JSON-ready data."""
    ms = gen_multimer_set({3: 2, 4: 2, 5: 2}, seed=61)
    multimers = {m.name: m for m in ms}
    graphs = source_graphs(make_source_dataset(ms, 8, seed=62), multimers)
    batch = np.random.default_rng(63).permutation(len(graphs))[:32]
    feats, edges, seg, count = pack_graphs([graphs[i][:2] for i in batch])
    pretrain_batch = {**_packed(feats, edges, seg), "count": count}

    records = [r for i, m in enumerate(ms[2:])
               for r in make_target_dataset(m, np.random.default_rng([64, i]), starts=m.n)]
    pick = np.random.default_rng(65).permutation(len(records))[:48]
    items = build_items([records[i] for i in pick], multimers)

    gin = GINParams.init(GINConfig(hidden_dim=16), 66)
    head = TaskHeadParams.init(gin.config.input_dim, 16, 67)
    encoded = []
    encode = prompt.gin_encode

    def captured(features, edges, gin, **kw):
        encoded.append((np.array(features), list(edges)))
        return encode(features, edges, gin, **kw)

    prompt.gin_encode = captured
    try:
        h, d_rows, u_rows = prompt.query_embeddings(items, gin)
    finally:
        prompt.gin_encode = encode
    (union_feats, union_edges), = encoded
    union = {**_packed(union_feats, union_edges), "rows": len(union_feats),
             "d_rows": d_rows.tolist(), "u_rows": u_rows.tolist()}

    probs = {}
    for name, kw in (("single", {}), ("multi", {"heads": 4, "multi_head": True})):
        p = PromptParams.init(gin.config.input_dim, 32, 68, dropout=0.2, **kw)
        p.standardize_from(h.data[np.concatenate([d_rows, u_rows])])
        probs[name] = pipeline_forward_batch(items, gin, head, p).data.ravel().tolist()
    return json.loads(json.dumps(
        {"pretrain_batch": pretrain_batch, "query_union": union, "probs": probs}))


def test_encoder_inputs_are_pinned():
    with open(PINS) as fh:
        want = json.load(fh)
    got = encoder_inputs()
    assert got["pretrain_batch"] == want["pretrain_batch"]
    assert got["query_union"] == want["query_union"]
    assert got["probs"].keys() == want["probs"].keys()
    for name, pinned in want["probs"].items():
        assert len(got["probs"][name]) == len(pinned)
        assert np.max(np.abs(np.subtract(got["probs"][name], pinned))) <= PROB_TOL, name
