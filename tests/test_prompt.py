"""Prompted link prediction: path construction, frozen stages, tuning."""

import numpy as np
import pytest

from stepasm.datagen import KEEP_THRESHOLD, gen_synthetic_multimer, make_target_dataset
from stepasm.errors import (
    EmptyDatasetError,
    NodeCollisionError,
    ShapeMismatchError,
)
from stepasm.nn import model as model_module
from stepasm.nn.model import (
    GINConfig,
    GINParams,
    TaskHeadParams,
    forward_batch,
    gin_encode,
    named_union,
    params_hash,
)
from stepasm.nn.tensor import (
    Tensor,
    add,
    bce_loss,
    concat_rows,
    gather_rows,
    listwise_loss,
    mul,
)
from stepasm.prompt import (
    LISTWISE_TEMPERATURE,
    LISTWISE_WEIGHT,
    OUTPUT_SCALE,
    PROMPT_EDGES,
    PromptGraph,
    PromptParams,
    PromptTuneConfig,
    _head_weight_rows,
    build_items,
    build_prompt_graph,
    compute_node_embeddings,
    decision_key,
    pipeline_forward,
    pipeline_forward_batch,
    prompt_embeddings,
    prompt_tune,
    query_embeddings,
    score_paths,
)
from stepasm.training import TrainConfig

DIM = 13


@pytest.fixture(scope="module")
def setup():
    m = gen_synthetic_multimer(4, np.random.default_rng(40))
    instances = make_target_dataset(m, np.random.default_rng(41), starts=2)
    mdict = {m.name: m}
    gin = GINParams.init(GINConfig(dropout=0.0), 42)
    head = TaskHeadParams.init(DIM, 16, 43)
    items = build_items(instances, mdict)
    return m, mdict, instances, gin, head, items


def _fresh_prompt(seed=44, **kw):
    p = PromptParams.init(DIM, 32, seed, dropout=0.0, **kw)
    rows = np.random.default_rng(45).normal(0.3, 0.2, size=(64, DIM))
    p.standardize_from(rows)
    return p


def test_prompt_graph_is_a_4_node_path():
    feats = Tensor(np.random.default_rng(0).random((4, DIM)))
    pg = PromptGraph(features=feats)
    assert pg.features.data.shape == (4, DIM)
    assert pg.edges == PROMPT_EDGES == ((0, 1), (1, 2), (2, 3))
    assert len(pg.edges) == 3
    assert pg.roles[0] == "d" and pg.roles[-1] == "u"


def test_prompt_graph_rejects_wrong_shapes():
    bad = Tensor(np.zeros((3, DIM)))
    with pytest.raises(ShapeMismatchError, match="4 node rows"):
        PromptGraph(features=bad)
    good = Tensor(np.zeros((4, DIM)))
    with pytest.raises(ShapeMismatchError, match="fixed path"):
        PromptGraph(features=good, edges=((0, 1), (0, 2), (0, 3)))
    with pytest.raises(ShapeMismatchError, match="path ends"):
        PromptGraph(features=good, roles=("x", "d", "u", "y"))


def test_build_prompt_graph_stacks_role_rows():
    rng = np.random.default_rng(1)
    rows = [Tensor(rng.random((1, DIM))) for _ in range(4)]
    pg = build_prompt_graph(*rows)
    for i, r in enumerate(rows):
        assert np.array_equal(pg.features.data[i], r.data[0])


def test_build_items_wires_condition_and_query(setup):
    m, mdict, instances, *_ , items = setup
    for inst, it in zip(instances, items):
        cond = inst.condition(m)
        assert np.array_equal(it.cond_features, cond.attrs)
        assert it.cond_edges == cond.local_edges()
        assert cond.nodes[it.d_local] == inst.v_d
        assert np.array_equal(it.u_feature, m.chain_features[inst.v_u])
        assert it.y == inst.y and it.n == m.n


def test_build_items_group_records_as_greedy_inference_decides():
    m = gen_synthetic_multimer(5, np.random.default_rng(46))
    other = gen_synthetic_multimer(4, np.random.default_rng(47), name="other")
    instances = make_target_dataset(m, np.random.default_rng(48), starts=m.n)
    instances += make_target_dataset(other, np.random.default_rng(49), starts=other.n)
    items = build_items(instances, {m.name: m, other.name: other})
    decisions = {}
    for inst, it in zip(instances, items):
        assert it.decision == decision_key(inst)
        decisions.setdefault(it.decision, []).append(inst)
    for key, members in decisions.items():
        if len(members[0].cond_nodes) == 1:
            # infer_path's first step: one argmax over every ordered pair
            mm = m if members[0].multimer == m.name else other
            assert key == (mm.name,)
            assert sorted((i.v_d, i.v_u) for i in members) == [
                (d, u) for d in range(mm.n) for u in range(mm.n) if u != d
            ]
        else:
            assert {(i.multimer, i.cond_nodes, i.cond_edges) for i in members} == {key}
    assert {k for k in decisions if len(k) == 1} == {(m.name,), (other.name,)}


def test_tuning_batches_hold_whole_decisions(setup, monkeypatch):
    import stepasm.prompt as prompt_mod

    _, _, _, gin, head, items = setup
    batches = []
    fit = prompt_mod.fit

    def recording_fit(labels, keys, forward_fn, *args, **kwargs):
        def forward(indices, training, rng):
            if rng is not None:  # a training batch; validation runs without an rng
                batches.append([items[i].decision for i in indices])
            return forward_fn(indices, training, rng)

        return fit(labels, keys, forward, *args, **kwargs)

    monkeypatch.setattr(prompt_mod, "fit", recording_fit)
    cfg = PromptTuneConfig(
        train=TrainConfig(lr=0.003, epochs=2, batch_size=8, patience=2,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=16,
        dropout=0.0,
    )
    prompt_tune(items, gin, head, cfg)
    sizes = {}
    for it in items:
        sizes[it.decision] = sizes.get(it.decision, 0) + 1
    assert len({k for b in batches for k in b}) == len(sizes) > 2
    for batch in batches:
        for key in set(batch):
            assert batch.count(key) == sizes[key]


def test_compute_node_embeddings_row_map(setup):
    m, _, instances, gin, *_ = setup
    inst = next(i for i in instances if len(i.cond_nodes) >= 2)
    cond = inst.condition(m)
    h, rows = compute_node_embeddings(cond, inst.v_u, m.chain_features[inst.v_u], gin)
    assert h.data.shape == (len(cond.nodes) + 1, DIM)
    assert rows[inst.v_u] == len(cond.nodes)
    assert sorted(rows) == sorted(cond.nodes + (inst.v_u,))


def test_compute_node_embeddings_rejects_docked_candidate(setup):
    m, _, instances, gin, *_ = setup
    inst = instances[0]
    cond = inst.condition(m)
    with pytest.raises(NodeCollisionError):
        compute_node_embeddings(cond, inst.v_d, m.chain_features[inst.v_d], gin)


def test_query_embeddings_match_single_item_path(setup):
    m, _, instances, gin, _, items = setup
    h, d_rows, u_rows = query_embeddings(items[:6], gin)
    for i, (inst, it) in enumerate(zip(instances[:6], items[:6])):
        cond = inst.condition(m)
        one, rows = compute_node_embeddings(cond, inst.v_u, it.u_feature, gin)
        assert np.allclose(h.data[d_rows[i]], one.data[rows[inst.v_d]], atol=1e-12)
        assert np.allclose(h.data[u_rows[i]], one.data[rows[inst.v_u]], atol=1e-12)


def test_middle_nodes_swap_their_sources():
    # with one attention head the softmax weight is identically 1, so the
    # x-node is a function of the u-embedding alone and vice versa
    prompt = _fresh_prompt()
    rng = np.random.default_rng(2)
    h_d = rng.normal(0.3, 0.1, size=(5, DIM))
    h_u = rng.normal(0.3, 0.1, size=(5, DIM))
    h_x, h_y = prompt_embeddings(h_d, h_u, prompt)
    assert np.allclose(h_x.data, prompt.transform(Tensor(h_u)).data, atol=1e-12)
    assert np.allclose(h_y.data, prompt.transform(Tensor(h_d)).data, atol=1e-12)


def test_transform_output_stays_inside_encoder_domain():
    prompt = _fresh_prompt()
    x = np.random.default_rng(3).normal(0.0, 5.0, size=(50, DIM))
    out = prompt.transform(Tensor(x)).data
    assert np.all(out > 0.0) and np.all(out < OUTPUT_SCALE)


def test_prompt_embeddings_rejects_wrong_width():
    prompt = _fresh_prompt()
    with pytest.raises(ShapeMismatchError):
        prompt_embeddings(np.zeros((2, DIM + 1)), np.zeros((2, DIM + 1)), prompt)
    with pytest.raises(ShapeMismatchError):
        prompt_embeddings(np.zeros((2, DIM)), np.zeros((3, DIM)), prompt)


def test_multi_head_weights_are_a_block_softmax():
    prompt = _fresh_prompt(multi_head=True, heads=4)
    rng = np.random.default_rng(4)
    h_d = rng.normal(size=(6, DIM))
    h_u = rng.normal(size=(6, DIM))
    w = _head_weight_rows(h_d, h_u, prompt)
    assert w.shape == (6, DIM)
    assert np.all(w > 0.0) and np.all(w < 1.0)
    # one shared weight per block, and the four block weights sum to 1
    for row in w:
        block_weights = [row[blk[0]] for blk in prompt.head_blocks()]
        for blk in prompt.head_blocks():
            assert np.allclose(row[blk], row[blk[0]])
        assert np.isclose(sum(block_weights), 1.0)


def test_multi_head_changes_the_embeddings():
    single = _fresh_prompt()
    multi = _fresh_prompt(multi_head=True, heads=4)
    rng = np.random.default_rng(5)
    h_d = rng.normal(0.3, 0.2, size=(4, DIM))
    h_u = rng.normal(0.3, 0.2, size=(4, DIM))
    x1, _ = prompt_embeddings(h_d, h_u, single)
    x4, _ = prompt_embeddings(h_d, h_u, multi)
    assert not np.allclose(x1.data, x4.data)


def test_batched_pipeline_matches_single(setup):
    m, _, instances, gin, head, items = setup
    prompt = _fresh_prompt()
    batch = pipeline_forward_batch(items[:8], gin, head, prompt).data.ravel()
    for i, inst in enumerate(instances[:8]):
        one = pipeline_forward(
            inst.condition(m), inst.v_d, inst.v_u,
            m.chain_features[inst.v_u], gin, head, prompt,
        )
        assert batch[i] == pytest.approx(one, abs=1e-10)


def scatter_paths(h_d, h_x, h_y, h_u, gin, head):
    """Reference stage 2: the B paths as a general disjoint union, with
    explicit edges and segment ids."""
    b = h_d.data.shape[0]
    feats = concat_rows([h_d, h_x, h_y, h_u])
    edges = [(r * b + i, s * b + i) for r, s in PROMPT_EDGES for i in range(b)]
    return forward_batch(feats, edges, np.tile(np.arange(b), 4), b, gin, head)


# stage 2 is frozen and has only an eval mode, which the ids name
@pytest.mark.parametrize("b", [1, 2, 7, 128], ids=lambda b: f"eval-{b}")
def test_score_paths_is_the_scatter_bit_for_bit(b):
    # compared as uint64, so a +0.0 where the scatter gives -0.0 fails too
    gin = GINParams.init(GINConfig(dropout=0.2), 46)
    head = TaskHeadParams.init(DIM, 16, 47)
    params = named_union(gin.named(), head.named())
    rng = np.random.default_rng(b)
    data = [rng.uniform(0.0, 0.7, size=(b, DIM)) for _ in range(4)]
    for x in data:
        x[rng.random(x.shape) < 0.2] = -0.0
    seed = rng.normal(size=(b, 1))
    seed[rng.random(b) < 0.3] = -0.0
    results = []
    for stage2 in (score_paths, scatter_paths):
        for t in params.values():
            t.grad = None
        hs = [Tensor(x.copy(), requires_grad=True) for x in data]
        out = stage2(*hs, gin, head)
        out.backward(seed)
        results.append([out.data] + [h.grad for h in hs]
                       + [params[k].grad for k in sorted(params)])
    for got, want in zip(*results):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_single_item_reference_runs_without_block_sums(setup, monkeypatch):
    # pipeline_forward stays on the general scatter, so the benchmark's check
    # of greedy probabilities against it does not rest on the block sums
    m, _, instances, gin, head, _ = setup
    prompt = _fresh_prompt()
    inst = instances[0]
    args = (inst.condition(m), inst.v_d, inst.v_u, m.chain_features[inst.v_u],
            gin, head, prompt)
    want = pipeline_forward(*args)

    def refuse(*_args, **_kwargs):
        raise AssertionError("block_sum called")

    monkeypatch.setattr(model_module, "block_sum", refuse)
    assert pipeline_forward(*args) == want
    h = Tensor(np.full((1, DIM), 0.3))
    with pytest.raises(AssertionError, match="block_sum called"):
        score_paths(h, h, h, h, gin, head)


def per_item_forward(items, gin, head, prompt):
    """Reference: each item's condition graph and candidate get rows of their
    own, and the prompt MLP runs on both query rows of every item."""
    feats, edges, d_rows, u_rows = [], [], [], []
    offset = 0
    for it in items:
        k = it.cond_features.shape[0]
        feats += [it.cond_features, np.asarray(it.u_feature)[None, :]]
        edges.extend((a + offset, b + offset) for a, b in it.cond_edges)
        d_rows.append(offset + it.d_local)
        u_rows.append(offset + k)
        offset += k + 1
    h = gin_encode(np.concatenate(feats), edges, gin)
    h_d, h_u = gather_rows(h, d_rows), gather_rows(h, u_rows)
    h_x, h_y = prompt_embeddings(h_d, h_u, prompt)
    return score_paths(h_d, h_x, h_y, h_u, gin, head)


def _row_keys(items):
    """Identity of every query row: (multimer, condition graph, node); a
    candidate is the singleton graph over its chain."""
    keys = set()
    for it in items:
        keys.add((it.multimer, it.cond_nodes, it.cond_edges, it.cond_nodes[it.d_local]))
        keys.add((it.multimer, (it.v_u,), (), it.v_u))
    return keys


def _tuning_grads(forward, items, gin, head, prompt):
    ids = {}
    groups = [ids.setdefault(it.decision, len(ids)) for it in items]
    labels = np.array([it.y for it in items])
    pred = forward(items, gin, head, prompt)
    loss = add(bce_loss(pred, labels), mul(listwise_loss(
        pred, labels, groups, KEEP_THRESHOLD, LISTWISE_TEMPERATURE), LISTWISE_WEIGHT))
    for t in prompt.trainable_named().values():
        t.grad = None
    loss.backward()
    return {k: t.grad.copy() for k, t in prompt.trainable_named().items()}


def test_repeated_rows_predict_as_the_per_item_reference(setup):
    *_, gin, head, items = setup
    assert len(_row_keys(items)) < 2 * len(items)  # the batch repeats rows
    prompt = _fresh_prompt()
    got = pipeline_forward_batch(items, gin, head, prompt).data
    assert np.array_equal(got, per_item_forward(items, gin, head, prompt).data)


def test_repeated_rows_give_the_per_item_gradients(setup):
    *_, gin, head, items = setup
    prompt = _fresh_prompt()
    got = _tuning_grads(pipeline_forward_batch, items, gin, head, prompt)
    want = _tuning_grads(per_item_forward, items, gin, head, prompt)
    for name, g in want.items():
        assert np.linalg.norm(got[name] - g) <= 1e-12 * np.linalg.norm(g), name


def test_prompt_mlp_sees_each_distinct_row_once(setup, monkeypatch):
    *_, gin, head, items = setup
    prompt = _fresh_prompt()
    seen = []
    transform = PromptParams.transform

    def counting(self, x, **kwargs):
        seen.append(x.data.shape[0])
        return transform(self, x, **kwargs)

    monkeypatch.setattr(PromptParams, "transform", counting)
    pipeline_forward_batch(items, gin, head, prompt)
    assert seen == [len(_row_keys(items))]
    # the encoder, too, sees each distinct condition graph and candidate once
    graphs = {(it.multimer, it.cond_nodes, it.cond_edges) for it in items}
    graphs |= {(it.multimer, (it.v_u,), ()) for it in items}
    h, _, _ = query_embeddings(items, gin)
    assert h.data.shape[0] == sum(len(nodes) for _, nodes, _ in graphs)


def test_standardize_from_sets_whitening_buffers():
    prompt = PromptParams.init(DIM, 16, 6)
    assert np.array_equal(prompt.in_shift.data, np.zeros(DIM))
    assert np.array_equal(prompt.in_scale.data, np.ones(DIM))
    rows = np.random.default_rng(7).normal(2.0, 0.5, size=(200, DIM))
    prompt.standardize_from(rows)
    assert np.allclose(prompt.in_shift.data, rows.mean(axis=0))
    assert np.allclose(prompt.in_scale.data, 1.0 / rows.std(axis=0))
    # whitening buffers are buffers, not weights
    assert "prompt.in_shift" not in prompt.trainable_named()
    assert "prompt.in_shift" in prompt.named()


def test_copy_is_independent():
    prompt = _fresh_prompt()
    clone = prompt.copy()
    assert params_hash(prompt.named()) == params_hash(clone.named())
    clone.mlp.weights[0].data += 1.0
    assert params_hash(prompt.named()) != params_hash(clone.named())


def test_tuning_trains_only_the_prompt(setup):
    _, _, _, gin, head, items = setup
    gin_before = params_hash(gin.named())
    head_before = params_hash(head.named())
    cfg = PromptTuneConfig(
        train=TrainConfig(lr=0.003, epochs=25, batch_size=64, patience=25,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=32,
        dropout=0.0,
        seed=8,
    )
    prompt, log = prompt_tune(items, gin, head, cfg)
    assert params_hash(gin.named()) == gin_before
    assert params_hash(head.named()) == head_before
    assert log[-1]["train_mae"] < log[0]["train_mae"]
    # whitening was fit from the data, not left at the identity
    assert not np.array_equal(prompt.in_shift.data, np.zeros(DIM))


def test_tuning_warm_start_resumes(setup):
    _, _, _, gin, head, items = setup
    cfg = PromptTuneConfig(
        train=TrainConfig(lr=0.003, epochs=5, batch_size=64, patience=5,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=32,
        dropout=0.0,
        seed=9,
    )
    first, _ = prompt_tune(items, gin, head, cfg)
    resumed, log = prompt_tune(items, gin, head, cfg, init=first)
    # warm start begins from the given weights (and keeps its buffers), so the
    # first epoch sits near the previous endpoint rather than a fresh init
    assert np.array_equal(resumed.in_shift.data, first.in_shift.data)
    fresh, fresh_log = prompt_tune(items, gin, head, cfg)
    assert log[0]["train_mae"] < fresh_log[0]["train_mae"]


def _short_tune(epochs, **kw):
    return PromptTuneConfig(
        train=TrainConfig(lr=0.003, epochs=epochs, batch_size=8, patience=epochs,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=16, dropout=0.0, **kw)


def test_frozen_layers_ignore_their_dropout(setup):
    # the encoder and head are frozen, so they run in eval mode while the
    # prompt tunes: their dropout rate changes no weight and no log entry
    *_, items = setup
    tuned = []
    for rate in (0.2, 0.0):
        gin = GINParams.init(GINConfig(dropout=rate), 42)
        head = TaskHeadParams.init(DIM, 16, 43)
        prompt, log = prompt_tune(items, gin, head, _short_tune(4))
        tuned.append((prompt, log))
    (noisy, noisy_log), (clean, clean_log) = tuned
    assert [float.hex(e["train_mae"]) for e in noisy_log] == \
        [float.hex(e["train_mae"]) for e in clean_log]
    for name, t in clean.named().items():
        assert np.array_equal(noisy.named()[name].data.view(np.uint64),
                              t.data.view(np.uint64)), name


@pytest.mark.parametrize("warm", [False, True], ids=["init-none", "init-given"])
def test_tuning_encodes_stage_one_once(setup, monkeypatch, warm):
    import stepasm.prompt as prompt_mod

    *_, gin, head, items = setup
    init = prompt_tune(items, gin, head, _short_tune(1))[0] if warm else None
    calls = []
    encode = prompt_mod.gin_encode

    def counting(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompt_mod, "gin_encode", counting)
    _, log = prompt_tune(items, gin, head, _short_tune(3), init=init)
    assert len(log) == 3 and len(items) > 8  # several minibatches per epoch
    assert len(calls) == 1


def test_tune_config_defaults_to_bce():
    cfg = PromptTuneConfig()
    assert cfg.train.loss == "bce"
    assert cfg.train.lr == pytest.approx(0.001)


@pytest.mark.parametrize("rate", [1.5, 1.0, -0.1])
def test_tune_config_rejects_dropout_outside_unit_interval(rate):
    # at rate >= 1 every dropout mask is zero or negative: tuning trains
    # nothing but the MLP's last bias, or every loss is NaN
    with pytest.raises(ValueError, match="dropout"):
        PromptTuneConfig(dropout=rate)


def test_empty_items_rejected(setup):
    _, _, _, gin, head, _ = setup
    with pytest.raises(EmptyDatasetError):
        prompt_tune([], gin, head)
    with pytest.raises(EmptyDatasetError):
        query_embeddings([], gin)
