"""Meta-initialization and adaptation of the prompt, plus the vector-objective core."""

import numpy as np
import pytest

from stepasm.datagen import gen_synthetic_multimer, make_target_dataset
from stepasm.errors import InsufficientDataError, ShapeMismatchError
from stepasm.meta import (
    MetaConfig,
    VectorObjective,
    adapt,
    maml_outer_gradient,
    meta_initialize,
    meta_prompt,
    prompt_objective,
    sample_task_pool,
)
from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams, params_hash
from stepasm.prompt import (
    PromptParams,
    PromptTuneConfig,
    build_items,
    pipeline_forward_batch,
    query_embeddings,
)
from stepasm.nn.tensor import bce_loss

DIM = 13


def quartic_objective(centers):
    """loss_i(v) = mean((v - c_i)^4): smooth, non-constant Hessian."""
    centers = np.asarray(centers, dtype=np.float64)

    def loss(vec, idx):
        diffs = vec[None, :] - centers[idx]
        return float(np.mean(diffs**4))

    def grad(vec, idx):
        diffs = vec[None, :] - centers[idx]
        return np.mean(4.0 * diffs**3, axis=0) / centers.shape[1]

    return VectorObjective(loss, grad, centers.shape[1], centers.shape[0])


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(50)
    centers = rng.normal(size=(20, 6))
    return quartic_objective(centers), rng.normal(size=6)


def full_maml_loss(objective, vec, support, query, alpha):
    adapted = vec - alpha * objective.grad(vec, support)
    return objective.loss(adapted, query)


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return g


def test_zero_inner_rate_reduces_to_plain_query_gradient(toy):
    objective, vec = toy
    support, query = np.arange(8), np.arange(8, 16)
    got = maml_outer_gradient(objective, vec, support, query, alpha=0.0,
                              first_order=False)
    assert np.allclose(got, objective.grad(vec, query), atol=1e-12)
    # and adaptation with alpha = 0 is the identity
    assert np.array_equal(adapt(objective, vec, alpha=0.0), vec)


def test_exact_outer_gradient_matches_numeric_full_maml(toy):
    objective, vec = toy
    support, query = np.arange(10), np.arange(10, 20)
    alpha = 0.05
    exact = maml_outer_gradient(objective, vec, support, query, alpha,
                                first_order=False)
    numeric = numeric_grad(
        lambda v: full_maml_loss(objective, v, support, query, alpha), vec
    )
    rel = np.linalg.norm(exact - numeric) / np.linalg.norm(numeric)
    assert rel < 1e-3
    # the first-order estimate drops the Hessian correction and differs
    fo = maml_outer_gradient(objective, vec, support, query, alpha,
                             first_order=True)
    assert np.linalg.norm(fo - numeric) / np.linalg.norm(numeric) > rel


def test_first_order_gradient_is_query_grad_at_adapted_point(toy):
    objective, vec = toy
    support, query = np.arange(5), np.arange(5, 12)
    alpha = 0.03
    adapted = vec - alpha * objective.grad(vec, support)
    got = maml_outer_gradient(objective, vec, support, query, alpha,
                              first_order=True)
    assert np.allclose(got, objective.grad(adapted, query), atol=1e-12)


def test_exact_mode_rejects_multiple_inner_steps(toy):
    objective, vec = toy
    with pytest.raises(ValueError, match="single inner step"):
        maml_outer_gradient(objective, vec, np.arange(4), np.arange(4, 8),
                            alpha=0.1, inner_steps=2, first_order=False)


def test_adapt_never_increases_the_loss(toy):
    objective, vec = toy
    idx = np.arange(objective.n_examples)
    base = objective.loss(vec, idx)
    # an absurd rate must degrade to smaller moves, not diverge
    for alpha in (1e-3, 0.5, 50.0):
        out = adapt(objective, vec, alpha, steps=3)
        assert objective.loss(out, idx) <= base + 1e-12


def test_sample_task_pool_disjoint_and_deterministic():
    cfg = MetaConfig(support_size=4, query_size=3, pool_size=5)
    a = sample_task_pool(20, cfg, seed=51)
    b = sample_task_pool(20, cfg, seed=51)
    assert len(a) == 5
    for (sa, qa), (sb, qb) in zip(a, b):
        assert np.array_equal(sa, sb) and np.array_equal(qa, qb)
        assert len(sa) == 4 and len(qa) == 3
        assert not set(sa.tolist()) & set(qa.tolist())
    with pytest.raises(InsufficientDataError):
        sample_task_pool(6, cfg, seed=52)


def test_meta_initialize_improves_adapted_query_loss(toy):
    objective, vec = toy
    cfg = MetaConfig(inner_lr=0.05, outer_lr=0.05, task_batch=4,
                     support_size=6, query_size=6, epochs=30, pool_size=8,
                     seed=53)
    out, log = meta_initialize(objective, vec, cfg)
    assert len(log) == 30
    assert log[-1]["query_loss"] < log[0]["query_loss"]
    assert out.shape == vec.shape


def test_meta_config_validation():
    with pytest.raises(ValueError, match="positive"):
        MetaConfig(outer_lr=0.0)
    with pytest.raises(ValueError, match="positive"):
        MetaConfig(inner_lr=-0.1)
    with pytest.raises(ValueError, match="positive"):
        MetaConfig(task_batch=0)


# ---------------------------------------------------------------------------
# the same machinery on the real prompt pipeline


@pytest.fixture(scope="module")
def real():
    m_small = gen_synthetic_multimer(4, np.random.default_rng(54))
    m_large = gen_synthetic_multimer(8, np.random.default_rng(55))
    mdict = {m_small.name: m_small, m_large.name: m_large}
    small = make_target_dataset(m_small, np.random.default_rng(56), starts=2)
    large = make_target_dataset(m_large, np.random.default_rng(57), starts=1)
    gin = GINParams.init(GINConfig(dropout=0.0), 58)
    head = TaskHeadParams.init(DIM, 16, 59)
    return mdict, small, large, gin, head


def test_prompt_objective_matches_direct_loss(real):
    mdict, small, _, gin, head = real
    items = build_items(small[:12], mdict)
    template = PromptParams.init(DIM, 16, 60, dropout=0.0)
    objective, vec0, layout = prompt_objective(
        query_embeddings(items, gin), [it.y for it in items], gin, head, template)
    idx = np.arange(6)
    got = objective.loss(vec0, idx)
    pred = pipeline_forward_batch([items[i] for i in idx], gin, head, template)
    want = float(bce_loss(pred, np.array([items[i].y for i in idx])).data)
    assert got == pytest.approx(want, abs=1e-12)
    kept = vec0.copy()
    g = objective.grad(vec0, idx)
    assert g.shape == vec0.shape and np.linalg.norm(g) > 0.0
    assert np.array_equal(vec0.view(np.uint64), kept.view(np.uint64))  # read, never written


def test_prompt_objective_gradient_against_finite_differences(real):
    mdict, small, _, gin, head = real
    items = build_items(small[:6], mdict)
    template = PromptParams.init(DIM, 4, 61, dropout=0.0)
    objective, vec0, _ = prompt_objective(
        query_embeddings(items, gin), [it.y for it in items], gin, head, template)
    idx = np.arange(len(items))
    analytic = objective.grad(vec0, idx)
    numeric = numeric_grad(lambda v: objective.loss(v, idx), vec0, eps=1e-5)
    rel = np.linalg.norm(analytic - numeric) / (
        np.linalg.norm(analytic) + np.linalg.norm(numeric)
    )
    assert rel < 1e-5


def test_prompt_objective_reads_its_table_as_constants(real):
    mdict, small, _, gin, head = real
    items = build_items(small[:6], mdict)
    gin.set_trainable(True)
    table = query_embeddings(items, gin)
    assert table[0].requires_grad  # encoded while the encoder could learn
    template = PromptParams.init(DIM, 4, 61, dropout=0.0)
    objective, vec0, _ = prompt_objective(
        table, [it.y for it in items], gin, head, template)
    assert np.linalg.norm(objective.grad(vec0, np.arange(len(items)))) > 0.0
    # the gradient stops at the table: no backward pass runs into its rows
    assert table[0].grad is None


def test_prompt_objective_rejects_labels_of_another_length(real):
    mdict, small, _, gin, head = real
    items = build_items(small[:6], mdict)
    template = PromptParams.init(DIM, 4, 61, dropout=0.0)
    with pytest.raises(ShapeMismatchError):
        prompt_objective(query_embeddings(items, gin), [it.y for it in items[:5]],
                         gin, head, template)


def test_adaptation_never_increases_large_split_loss(real):
    mdict, _, large, gin, head = real
    items = build_items(large, mdict)
    template = PromptParams.init(DIM, 16, 62, dropout=0.0)
    objective, vec0, _ = prompt_objective(
        query_embeddings(items, gin), [it.y for it in items], gin, head, template)
    all_idx = np.arange(objective.n_examples)
    base = objective.loss(vec0, all_idx)
    for alpha in (0.01, 1.0, 25.0):
        after = objective.loss(adapt(objective, vec0, alpha, steps=2), all_idx)
        assert after <= base + 1e-12


def test_meta_prompt_freezes_encoder_and_head(real):
    mdict, small, large, gin, head = real
    items = build_items(small + large, mdict)
    gin_hash = params_hash(gin.named())
    head_hash = params_hash(head.named())
    meta_cfg = MetaConfig(epochs=2, pool_size=4, task_batch=2,
                          support_size=8, query_size=8, seed=63)
    tune_cfg = PromptTuneConfig(mlp_hidden=16, dropout=0.0)
    pi_meta, pi_star, log = meta_prompt(items, gin, head, meta_cfg, tune_cfg)
    assert params_hash(gin.named()) == gin_hash
    assert params_hash(head.named()) == head_hash
    assert len(log) == 2
    # adaptation on the large split moved the vector
    assert params_hash(pi_meta.named()) != params_hash(pi_star.named())
    # both prompts share the whitening buffers fit before meta-training
    assert np.array_equal(pi_meta.in_shift.data, pi_star.in_shift.data)


def test_meta_prompt_encodes_stage_one_once(real, monkeypatch):
    import stepasm.prompt as prompt_mod

    mdict, small, large, gin, head = real
    items = build_items(small + large, mdict)
    calls = []
    encode = prompt_mod.gin_encode

    def counting(*args, **kwargs):
        calls.append(1)
        return encode(*args, **kwargs)

    monkeypatch.setattr(prompt_mod, "gin_encode", counting)
    meta_cfg = MetaConfig(epochs=2, pool_size=4, task_batch=2,
                          support_size=8, query_size=8, seed=63)
    meta_prompt(items, gin, head, meta_cfg, PromptTuneConfig(mlp_hidden=16, dropout=0.0))
    # one table for the whitening, the small-scale and the large-scale objectives
    assert len(calls) == 1


def test_meta_prompt_without_large_items_skips_adaptation(real):
    mdict, small, _, gin, head = real
    items = build_items(small, mdict)
    meta_cfg = MetaConfig(epochs=1, pool_size=2, task_batch=1,
                          support_size=4, query_size=4, seed=64)
    tune_cfg = PromptTuneConfig(mlp_hidden=8, dropout=0.0)
    pi_meta, pi_star, _ = meta_prompt(items, gin, head, meta_cfg, tune_cfg)
    assert params_hash(pi_meta.named()) == params_hash(pi_star.named())
    # loaded from one vector, yet each prompt owns writable arrays of its own
    for a, b in zip(pi_meta.named().values(), pi_star.named().values()):
        assert not np.shares_memory(a.data, b.data)
        assert a.data.flags.writeable and b.data.flags.writeable


def test_meta_prompt_requires_small_scale_items(real):
    mdict, _, large, gin, head = real
    items = build_items(large, mdict)
    with pytest.raises(InsufficientDataError, match="small-scale"):
        meta_prompt(items, gin, head, MetaConfig(epochs=1),
                    PromptTuneConfig(mlp_hidden=8))
