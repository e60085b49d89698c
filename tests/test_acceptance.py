"""Release gate: one test per exit criterion, tolerances pinned at the top.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion. The end-to-end criterion trains the full stack from scratch and
dominates the wall time (several minutes); everything else is fast.
"""

import time

import numpy as np
import pytest

from stepasm.datagen import (
    gen_multimer_set,
    gen_synthetic_multimer,
    make_source_dataset,
    make_target_dataset,
)
from stepasm.diagnostics import batched_gradcheck, gradcheck
from stepasm.geometry import (
    RigidTransform,
    kabsch_align,
    random_rotation,
    rmsd,
    tm_d0,
    tm_score,
)
from stepasm.graphs import best_assembly, enumerate_scores, enumerate_uca, is_labeled_tree, random_uca_edges
from stepasm.inference import (
    ScoringPipeline,
    cka_similarity,
    evaluate,
    expected_step_evals,
    infer_path,
    predict_structure,
)
from stepasm.meta import MetaConfig, adapt, maml_outer_gradient, meta_prompt, prompt_objective
from stepasm.nn.model import (
    GINConfig,
    GINParams,
    TaskHeadParams,
    params_hash,
    readout_regress,
)
from stepasm.pretrain import PretrainConfig, constant_mean_mae, pretrain
from stepasm.prompt import (
    PROMPT_EDGES,
    PromptGraph,
    PromptParams,
    PromptTuneConfig,
    build_items,
    prompt_tune,
    query_embeddings,
)
from stepasm.nn.tensor import Tensor
from stepasm.training import TrainConfig

# ---- pinned tolerances and budgets ----------------------------------------
TM_SELF_TOL = 1e-12          # tm_score(x, x) == 1
RIGID_TOL = 1e-6             # score invariance under rigid motion
KABSCH_TOL = 1e-6            # rotation recovery
D0_REF, D0_TOL = 2.2565, 1e-3  # normalization constant at length 50
GEOMETRY_BUDGET_S = 1.0

CAYLEY_RANGE = range(2, 8)   # enumeration count check, n^(n-2)
UNIFORM_SAMPLES = 50_000     # random 4-chain trees must cover all 16 shapes
GRAPH_BUDGET_S = 30.0

ORACLE_MULTIMERS = {3: 7, 4: 7, 5: 6}   # 20 complexes
ORACLE_SPANNING_MIN = 0.999
ORACLE_BUDGET_S = 120.0

GRAD_GRAPHS = 50
GRAD_TOL = 1e-4
GRAD_BUDGET_S = 60.0

PERM_TOL = 1e-9

E2E_SOURCE_COUNTS = {3: 100, 4: 100, 5: 100}   # 300 multimers
E2E_TARGET_COUNTS = {3: 6, 4: 20, 5: 6, 6: 2, 7: 2}
E2E_BASELINE_FRACTION = 0.70   # val MAE at least 30% under the constant mean
E2E_TM_FLOOR = 0.95            # mean TM of greedy paths vs the oracle optimum
E2E_BUDGET_S = 900.0           # end-to-end wall clock

MAML_TOY_TOL = 1e-3

SCALING_SIZES = (5, 10, 20, 30)

CKA_SELF_TOL = 1e-12
CKA_ORTHO_TOL = 1e-6
CKA_INDEP_MAX = 0.2
CKA_ROWS = 2000

DIM = 13


def test_criterion_geometry_suite():
    rng = np.random.default_rng(90)
    start = time.monotonic()
    for pts in (60, 97, 150):
        x = rng.normal(scale=12.0, size=(pts, 3))
        assert tm_score(x, x) == pytest.approx(1.0, abs=TM_SELF_TOL)
        rot = random_rotation(rng)
        shift = rng.normal(scale=40.0, size=3)
        moved = x @ rot.T + shift
        y = x + rng.normal(scale=2.0, size=x.shape)
        assert tm_score(moved, y @ rot.T + shift) == pytest.approx(
            tm_score(x, y), abs=RIGID_TOL
        )
        assert rmsd(moved, y @ rot.T + shift) == pytest.approx(
            rmsd(x, y), abs=RIGID_TOL
        )
        transform = kabsch_align(moved, x)
        assert np.allclose(transform.rotation, rot, atol=KABSCH_TOL)
        assert np.allclose(transform.apply(x), moved, atol=KABSCH_TOL)
        assert transform.is_proper()
    assert tm_d0(50) == pytest.approx(D0_REF, abs=D0_TOL)
    elapsed = time.monotonic() - start
    assert elapsed < GEOMETRY_BUDGET_S
    print(f"geometry criterion: PASS ({elapsed:.2f}s)")


def test_criterion_graph_suite():
    start = time.monotonic()
    for n in CAYLEY_RANGE:
        trees = list(enumerate_uca(n))
        assert len(trees) == n ** (n - 2)
        assert len(set(trees)) == len(trees)
    rng = np.random.default_rng(901)
    seen = set()
    for _ in range(UNIFORM_SAMPLES):
        edges = random_uca_edges(4, rng)
        assert is_labeled_tree(range(4), edges)
        seen.add(edges)
    assert len(seen) == 16
    elapsed = time.monotonic() - start
    assert elapsed < GRAPH_BUDGET_S
    print(f"graph criterion: PASS ({elapsed:.1f}s, covered {len(seen)} trees)")


def test_criterion_assembly_oracle_suite():
    start = time.monotonic()
    multimers = gen_multimer_set(ORACLE_MULTIMERS, seed=91, prefix="oracle")
    assert len(multimers) == 20
    for m in multimers:
        contact_scores, other_scores = [], []
        for edges, score in enumerate_scores(m):
            if all(e in m.contact_edges for e in edges):
                contact_scores.append(score)
            else:
                other_scores.append(score)
        assert contact_scores, f"{m.name}: contacts must admit a spanning tree"
        assert min(contact_scores) >= ORACLE_SPANNING_MIN
        assert max(other_scores) < min(contact_scores)
        edges, score = best_assembly(m)
        assert all(e in m.contact_edges for e in edges)
        assert score >= ORACLE_SPANNING_MIN
    elapsed = time.monotonic() - start
    assert elapsed < ORACLE_BUDGET_S
    print(f"assembly-oracle criterion: PASS ({elapsed:.1f}s, 20 complexes)")


def test_criterion_gradient_suite():
    start = time.monotonic()
    worst = gradcheck(num_graphs=GRAD_GRAPHS, seed=0)
    fused = batched_gradcheck(seed=0)
    elapsed = time.monotonic() - start
    assert worst < GRAD_TOL
    assert fused < GRAD_TOL
    assert elapsed < GRAD_BUDGET_S
    print(f"gradient criterion: PASS (single {worst:.2e}, batched {fused:.2e}, {elapsed:.1f}s)")


def test_criterion_permutation_invariance():
    rng = np.random.default_rng(92)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 8))
        gin = GINParams.init(GINConfig(dropout=0.0), [92, trial])
        head = TaskHeadParams.init(DIM, 16, [93, trial])
        feats = rng.uniform(0.0, 0.7, size=(n, DIM))
        edges = random_uca_edges(n, rng)
        base = readout_regress(feats, edges, gin, head)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        permuted = readout_regress(
            feats[perm], [(int(inv[a]), int(inv[b])) for a, b in edges], gin, head
        )
        worst = max(worst, abs(base - permuted))
    assert worst <= PERM_TOL
    print(f"permutation criterion: PASS (max drift {worst:.2e})")


@pytest.fixture(scope="session")
def end_to_end():
    """Full pipeline at release scale, timed from data generation to inference."""
    t0 = time.monotonic()
    ms_src = gen_multimer_set(E2E_SOURCE_COUNTS, seed=11)
    src = make_source_dataset(ms_src, 16, seed=12)
    ms_tgt = gen_multimer_set(E2E_TARGET_COUNTS, seed=21, prefix="tgt")
    tgt = []
    for i, m in enumerate(ms_tgt):
        tgt.extend(
            make_target_dataset(m, np.random.default_rng([13, i]),
                                starts=len(m.chains))
        )
    mdict = {m.name: m for m in ms_src + ms_tgt}

    gin, head, log = pretrain(src, mdict, PretrainConfig(
        train=TrainConfig(lr=0.001, epochs=600, batch_size=32, patience=600),
        dropout=0.0,
        seed=1,
    ))
    baseline = constant_mean_mae([inst.y for inst in src])
    best_val = min(e["val_mae"] for e in log)

    items = build_items(tgt, mdict)
    stage1, _ = prompt_tune(items, gin, head, PromptTuneConfig(
        train=TrainConfig(lr=0.001, epochs=600, batch_size=128, patience=600,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=512,
        dropout=0.0,
    ))
    prompt, _ = prompt_tune(items, gin, head, PromptTuneConfig(
        train=TrainConfig(lr=0.00025, epochs=200, batch_size=128, patience=200,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=512,
        dropout=0.0,
    ), init=stage1)

    pipeline = ScoringPipeline(gin, head, prompt)
    held_in = [m for m in ms_tgt if len(m.chains) == 4]
    predictions, truths, names, oracle_scores = [], [], [], []
    for m in held_in:
        path = infer_path(m.chain_features, pipeline, dimers=m.dimers)
        predictions.append(predict_structure(m.chains, m.dimers, path))
        truths.append(m.gt_coords)
        names.append(m.name)
        oracle_scores.append(best_assembly(m)[1])
    report = evaluate(predictions, truths, names)
    elapsed = time.monotonic() - t0
    return {
        "n_source_multimers": len(ms_src),
        "n_source": len(src),
        "n_target": len(tgt),
        "baseline": baseline,
        "best_val": best_val,
        "report": report,
        "oracle_mean": float(np.mean(oracle_scores)),
        "n_eval": len(held_in),
        "elapsed": elapsed,
    }


def test_criterion_end_to_end_learning(end_to_end):
    r = end_to_end
    assert r["n_source_multimers"] == 300
    assert r["n_eval"] == 20
    ratio = r["best_val"] / r["baseline"]
    assert ratio <= E2E_BASELINE_FRACTION, (
        f"validation MAE {r['best_val']:.4f} is only {100 * (1 - ratio):.0f}% "
        f"under the constant-mean baseline {r['baseline']:.4f}"
    )
    assert r["oracle_mean"] >= ORACLE_SPANNING_MIN
    wrong = ", ".join(
        f"{name} {tm:.3f}" for name, tm, _ in r["report"].rows if tm < ORACLE_SPANNING_MIN
    )
    assert r["report"].tm_mean >= E2E_TM_FLOOR * r["oracle_mean"], (
        f"mean TM {r['report'].tm_mean:.4f} is under {E2E_TM_FLOOR} x oracle mean "
        f"{r['oracle_mean']:.4f}; complexes under {ORACLE_SPANNING_MIN}: {wrong or 'none'}"
    )
    assert r["elapsed"] < E2E_BUDGET_S, (
        f"end-to-end run took {r['elapsed']:.0f}s, budget {E2E_BUDGET_S:.0f}s"
    )
    print(
        f"end-to-end criterion: PASS (val/baseline {ratio:.3f}, "
        f"mean TM {r['report'].tm_mean:.4f} vs oracle {r['oracle_mean']:.4f}, "
        f"{r['elapsed']:.0f}s)"
    )


def test_criterion_prompt_shape_and_frozen_stages():
    # shape: the rewritten action is a 4-node path with query nodes at the ends
    pg = PromptGraph(features=Tensor(np.zeros((4, DIM))))
    assert pg.features.data.shape[0] == 4
    assert pg.edges == PROMPT_EDGES and len(pg.edges) == 3
    assert pg.roles[0] == "d" and pg.roles[-1] == "u"

    # freeze: tuning and meta operations leave encoder and head bit-identical
    m_small = gen_synthetic_multimer(4, np.random.default_rng(94))
    m_large = gen_synthetic_multimer(8, np.random.default_rng(95))
    mdict = {m_small.name: m_small, m_large.name: m_large}
    instances = make_target_dataset(m_small, np.random.default_rng(96), starts=2)
    instances += make_target_dataset(m_large, np.random.default_rng(97))
    items = build_items(instances, mdict)
    gin = GINParams.init(GINConfig(dropout=0.0), 98)
    head = TaskHeadParams.init(DIM, 16, 99)
    gin_hash, head_hash = params_hash(gin.named()), params_hash(head.named())

    tune_cfg = PromptTuneConfig(
        train=TrainConfig(lr=0.003, epochs=4, batch_size=64, patience=4,
                          val_fraction=0.0, loss="bce"),
        mlp_hidden=16,
        dropout=0.0,
    )
    prompt_tune(items, gin, head, tune_cfg)
    assert params_hash(gin.named()) == gin_hash
    assert params_hash(head.named()) == head_hash

    meta_prompt(items, gin, head,
                MetaConfig(epochs=2, pool_size=4, task_batch=2,
                           support_size=8, query_size=8),
                PromptTuneConfig(mlp_hidden=16, dropout=0.0))
    assert params_hash(gin.named()) == gin_hash
    assert params_hash(head.named()) == head_hash
    print("prompt-shape criterion: PASS (4-node path; encoder/head hashes stable)")


def test_criterion_maml_suite():
    # toy objective with a non-constant Hessian: loss_i(v) = mean((v - c_i)^4)
    from stepasm.meta import VectorObjective

    centers = np.random.default_rng(100).normal(size=(20, 6))

    def loss(vec, idx):
        return float(np.mean((vec[None, :] - centers[idx]) ** 4))

    def grad(vec, idx):
        return np.mean(4.0 * (vec[None, :] - centers[idx]) ** 3, axis=0) / 6.0

    objective = VectorObjective(loss, grad, 6, 20)
    vec = np.random.default_rng(101).normal(size=6)
    support, query = np.arange(10), np.arange(10, 20)

    # alpha = 0: the outer gradient is exactly the plain query gradient
    got = maml_outer_gradient(objective, vec, support, query, alpha=0.0,
                              first_order=False)
    assert np.array_equal(got, objective.grad(vec, query))
    assert np.array_equal(adapt(objective, vec, alpha=0.0), vec)

    # exact second-order outer gradient vs numeric differentiation of the
    # full adapted-query objective
    alpha = 0.05
    exact = maml_outer_gradient(objective, vec, support, query, alpha,
                                first_order=False)
    numeric = np.zeros_like(vec)
    for i in range(vec.size):
        step = np.zeros_like(vec)
        step[i] = 1e-6
        up = objective.loss(vec + step - alpha * objective.grad(vec + step, support), query)
        dn = objective.loss(vec - step - alpha * objective.grad(vec - step, support), query)
        numeric[i] = (up - dn) / 2e-6
    rel = np.linalg.norm(exact - numeric) / np.linalg.norm(numeric)
    assert rel < MAML_TOY_TOL

    # adaptation on the large split never ends above the starting loss
    m_large = gen_synthetic_multimer(8, np.random.default_rng(102))
    mdict = {m_large.name: m_large}
    items = build_items(make_target_dataset(m_large, np.random.default_rng(103)), mdict)
    gin = GINParams.init(GINConfig(dropout=0.0), 104)
    head = TaskHeadParams.init(DIM, 16, 105)
    template = PromptParams.init(DIM, 16, 106, dropout=0.0)
    real, vec0, _ = prompt_objective(
        query_embeddings(items, gin), [it.y for it in items], gin, head, template)
    all_idx = np.arange(real.n_examples)
    base = real.loss(vec0, all_idx)
    for alpha in (0.01, 1.0, 25.0):
        assert real.loss(adapt(real, vec0, alpha, steps=2), all_idx) <= base + 1e-12
    print(f"maml criterion: PASS (outer-gradient rel err {rel:.1e})")


def test_criterion_scaling_step_counts():
    class CountingPipeline:
        def __init__(self):
            self.eval_count = 0

        def score_actions(self, chain_features, cond_nodes, cond_edges, pairs):
            self.eval_count += len(pairs)
            return np.array([
                float(np.sin(5.3 * d + 11.7 * u)) for d, u in pairs
            ])

    for n in SCALING_SIZES:
        expect = tuple([n * (n - 1)] + [k * (n - k) for k in range(2, n)])
        assert expected_step_evals(n) == expect
        pipe = CountingPipeline()
        path = infer_path(np.zeros((n, DIM)), pipe, large_pipeline=pipe)
        assert path.per_step_evals == expect
        assert pipe.eval_count == sum(expect)
        assert len(path.actions) == n - 1
    print(f"scaling criterion: PASS (exact step counts for N in {SCALING_SIZES})")


def test_criterion_cka_suite():
    rng = np.random.default_rng(107)
    h = rng.normal(size=(CKA_ROWS, 32))
    assert cka_similarity(h, h) == pytest.approx(1.0, abs=CKA_SELF_TOL)
    q, _ = np.linalg.qr(rng.normal(size=(32, 32)))
    assert cka_similarity(h, 2.5 * (h @ q)) == pytest.approx(1.0, abs=CKA_ORTHO_TOL)
    other = rng.normal(size=(CKA_ROWS, 32))
    indep = cka_similarity(h, other)
    assert indep < CKA_INDEP_MAX
    print(f"cka criterion: PASS (independent similarity {indep:.3f})")
