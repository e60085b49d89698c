"""Autodiff engine, GIN forward/backward, optimizer, training-loop pieces."""

import numpy as np
import pytest

from stepasm.errors import LengthMismatchError
from stepasm.nn.model import (
    GINConfig,
    GINParams,
    TaskHeadParams,
    _directed_edges,
    flatten_named,
    grad_vector,
    gin_encode,
    load_vector,
    named_union,
    pack_graphs,
    params_hash,
    readout_regress,
)
from stepasm.nn.optim import Adam
from stepasm.nn.tensor import (
    Tensor,
    add,
    adds,
    bce_loss,
    concat_rows,
    dropout,
    gather_rows,
    listwise_loss,
    mae_loss,
    matmul,
    mean,
    mul,
    muls,
    neighbor_sum,
    relu,
    segment_sum,
    sigmoid,
    sub,
    tensor_abs,
)
from stepasm.training import TrainConfig, fit, group_split


LISTWISE_Y = np.array([0.995, 1.0, 0.4, 0.2, 0.3, 0.1, 0.7, 1.0, 0.6, 0.0, 0.2, 0.9])
LISTWISE_GROUPS = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        x.data[i] += eps
        hi = float(f().data)
        x.data[i] -= 2 * eps
        lo = float(f().data)
        x.data[i] += eps
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


@pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul", "relu", "sigmoid",
                                "abs", "mean", "adds", "muls", "gather",
                                "concat", "neighbor", "segment", "listwise"])
def test_op_gradients_match_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = Tensor(rng.normal(size=(4, 3)) + 0.3, requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def build():
        if op == "add":
            out = add(a, b)
        elif op == "sub":
            out = sub(a, b)
        elif op == "mul":
            out = mul(a, b)
        elif op == "matmul":
            out = matmul(a, w)
        elif op == "relu":
            out = relu(a)  # offset keeps entries away from the kink
        elif op == "sigmoid":
            out = sigmoid(a)
        elif op == "abs":
            out = tensor_abs(a)
        elif op == "mean":
            return mean(a)
        elif op == "adds":
            out = adds(a, 1.7)
        elif op == "muls":
            out = muls(a, -2.5)
        elif op == "gather":
            out = gather_rows(a, [2, 0, 2])
        elif op == "concat":
            out = concat_rows([a, b])
        elif op == "neighbor":
            out = neighbor_sum(a, np.array([0, 1, 2]), np.array([1, 2, 3]), 4)
        elif op == "segment":
            out = segment_sum(a, np.array([0, 1, 0, 1]), 2)
        elif op == "listwise":
            # three interleaved decisions; decision 2 has no label above 0.99
            return listwise_loss(sigmoid(a), LISTWISE_Y, LISTWISE_GROUPS, 0.99, 0.05)
        return mean(mul(out, out))  # scalarize smoothly

    loss = build()
    loss.backward()
    for t in (a, b, w):
        if t.grad is None:
            continue
        num = numeric_grad(build, t)
        assert np.abs(t.grad - num).max() < 1e-7, op


def test_backward_accumulates_shared_nodes():
    x = Tensor(np.array([[2.0]]), requires_grad=True)
    y = add(mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    y.backward()
    assert x.grad[0, 0] == pytest.approx(5.0)


def test_gin_gradient_suite_end_to_end():
    # analytic vs central differences through encode -> readout -> loss,
    # 50 random small graphs, relative error within 1e-4
    rng = np.random.default_rng(99)
    cfg = GINConfig(input_dim=5, hidden_dim=8, num_layers=2, dropout=0.0)
    worst = 0.0
    for trial in range(50):
        gin = GINParams.init(cfg, [99, trial])
        head = TaskHeadParams.init(5, 6, [98, trial])
        n = int(rng.integers(2, 6))
        feats = rng.uniform(0.1, 0.9, size=(n, 5))
        edges = [(i, i + 1) for i in range(n - 1)]
        label = rng.uniform(0.2, 0.8)
        named = named_union(gin.named(), head.named())

        def forward():
            seg = np.zeros(n, dtype=np.intp)
            from stepasm.nn.model import forward_batch

            out = forward_batch(feats, edges, seg, 1, gin, head)
            return mae_loss(out, Tensor(np.array([[label]])))

        loss = forward()
        for t in named.values():
            t.grad = None
        loss.backward()
        # spot-check a handful of coordinates per trial to keep runtime sane
        for name in ("gin.eps0", "gin.layer1.w1", "head.w0"):
            t = named[name]
            flat = t.data.reshape(-1)
            idx = int(rng.integers(flat.size))
            eps = 1e-6
            flat[idx] += eps
            hi = float(forward().data)
            flat[idx] -= 2 * eps
            lo = float(forward().data)
            flat[idx] += eps
            num = (hi - lo) / (2 * eps)
            ana = t.grad.reshape(-1)[idx]
            scale = max(abs(num), abs(ana), 1e-4)
            worst = max(worst, abs(num - ana) / scale)
    assert worst < 1e-4


def test_readout_permutation_invariant():
    rng = np.random.default_rng(7)
    cfg = GINConfig(input_dim=6, hidden_dim=10, num_layers=2, dropout=0.0)
    gin = GINParams.init(cfg, 1)
    head = TaskHeadParams.init(6, 8, 2)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        feats = rng.uniform(size=(n, 6))
        edges = [(i, int(rng.integers(i + 1, n))) for i in range(n - 1)]
        edges = [(a, b) for a, b in edges]
        base = readout_regress(feats, edges, gin, head)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        pfeats = feats[perm]
        pedges = [(int(inv[a]), int(inv[b])) for a, b in edges]
        assert readout_regress(pfeats, pedges, gin, head) == pytest.approx(
            base, abs=1e-9
        )


def test_directed_edges_match_the_sorted_tuple_reference():
    # neighbor_sum accumulates in this order, so it must be exactly the
    # (dst, src) order of Python's tuple sort, duplicates and self-loops too
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        edges = [tuple(int(v) for v in rng.integers(0, n, 2))
                 for _ in range(int(rng.integers(1, 40)))]
        pairs = sorted((d, s) for a, b in edges for s, d in ((a, b), (b, a)))
        src, dst = _directed_edges(edges)
        assert src.tolist() == [s for _, s in pairs]
        assert dst.tolist() == [d for d, _ in pairs]


def test_isolated_nodes_get_self_only_update():
    cfg = GINConfig(input_dim=3, hidden_dim=4, num_layers=1, dropout=0.0)
    gin = GINParams.init(cfg, 0)
    feats = np.array([[0.2, 0.4, 0.6], [0.9, 0.1, 0.5]])
    both = gin_encode(feats, [], gin).data
    solo0 = gin_encode(feats[:1], [], gin).data
    assert np.allclose(both[0], solo0[0])


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_two_node_graph_nodes_distinguishable(seed):
    # with eps = 0 both rows of a connected 2-node graph collapse to the same
    # embedding and downstream scoring cannot tell the endpoints apart; the
    # shipped nonzero init must keep them separated at production width
    # (narrow toy layers can lose the gap to relu clipping)
    cfg = GINConfig(dropout=0.0)
    gin = GINParams.init(cfg, seed)
    feats = np.random.default_rng(7).uniform(0.0, 1.0, size=(2, cfg.input_dim))
    h = gin_encode(feats, [(0, 1)], gin).data
    assert np.linalg.norm(h[0] - h[1]) > 1e-3
    for e in gin.eps:
        e.data = np.zeros(())
    h0 = gin_encode(feats, [(0, 1)], gin).data
    assert np.linalg.norm(h0[0] - h0[1]) < 1e-12


@pytest.mark.parametrize("frozen", ["a", "b"])
def test_matmul_skips_the_product_of_a_frozen_operand(frozen):
    rng = np.random.default_rng(12)
    a_data, b_data = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
    a = Tensor(a_data, requires_grad=frozen != "a")
    b = Tensor(b_data, requires_grad=frozen != "b")
    seed = rng.normal(size=(5, 4))
    matmul(a, b).backward(seed)
    frozen_t, trained = (a, b) if frozen == "a" else (b, a)
    assert frozen_t.grad is None
    # the trainable operand gets the product the full backward computed
    want = a_data.T @ seed if frozen == "a" else seed @ b_data.T
    assert np.array_equal(trained.grad, np.zeros_like(want) + want)


def test_adam_first_step_closed_form():
    # after one step with constant grad g: m_hat = g, v_hat = g^2,
    # update = -lr * g / (|g| + eps) = -lr * sign(g) (approx)
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([0.5, -0.25, 4.0])
    before = p.data.copy()
    opt.step()
    expect = before - 0.1 * np.sign([0.5, -0.25, 4.0]) * (
        np.abs([0.5, -0.25, 4.0]) / (np.abs([0.5, -0.25, 4.0]) + 1e-8)
    )
    assert np.allclose(p.data, expect, atol=1e-9)


def test_adam_skips_parameters_without_grad():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.5)
    p.grad = np.ones(2)
    q.grad = None
    opt.step()
    assert not np.allclose(p.data, np.ones(2))
    assert np.allclose(q.data, np.ones(2))


def test_dropout_train_vs_eval():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    kept = dropout(x, 0.3, rng, training=True)
    zeros = np.mean(kept.data == 0.0)
    assert 0.2 < zeros < 0.4
    # inverted scaling keeps the expectation
    assert np.mean(kept.data) == pytest.approx(1.0, abs=0.05)
    assert np.array_equal(dropout(x, 0.3, rng, training=False).data, x.data)


def _listwise_of_logits(z, groups, temperature=0.05):
    return float(listwise_loss(1.0 / (1.0 + np.exp(-z)), LISTWISE_Y, groups,
                               0.99, temperature).data)


def test_listwise_loss_ignores_a_shift_within_one_group():
    z = np.random.default_rng(5).normal(size=12)
    base = _listwise_of_logits(z, LISTWISE_GROUPS)
    for g in range(3):
        shifted = z + 1.5 * (LISTWISE_GROUPS == g)
        assert _listwise_of_logits(shifted, LISTWISE_GROUPS) == pytest.approx(base, abs=1e-10)
    # a shift of one candidate alone does change the loss
    assert _listwise_of_logits(z + 1.5 * (np.arange(12) == 0), LISTWISE_GROUPS) != \
        pytest.approx(base, abs=1e-6)


def test_listwise_loss_is_invariant_to_group_order_and_labels():
    rng = np.random.default_rng(6)
    z = rng.normal(size=12)
    base = _listwise_of_logits(z, LISTWISE_GROUPS)
    perm = rng.permutation(12)
    relabel = np.array([7, -3, 40])[LISTWISE_GROUPS]
    got = float(listwise_loss(1.0 / (1.0 + np.exp(-z[perm])), LISTWISE_Y[perm],
                              relabel[perm], 0.99, 0.05).data)
    assert got == pytest.approx(base, abs=1e-12)


def test_listwise_loss_without_a_correct_candidate_is_finite():
    # no label above the threshold: the target is a sharp softmax of the labels
    pred = Tensor(np.array([[0.3], [1.0 - 1e-12], [1e-12], [0.6]]), requires_grad=True)
    loss = listwise_loss(pred, np.array([0.5, 0.1, 0.9, 0.2]), np.zeros(4), 0.99, 0.01)
    loss.backward()
    assert np.isfinite(loss.data) and np.all(np.isfinite(pred.grad))
    # the best-labelled candidate is pulled up, the others down
    assert pred.grad[2, 0] < 0.0 and np.all(pred.grad[[0, 1, 3], 0] > 0.0)
    with pytest.raises(LengthMismatchError):
        listwise_loss(pred, np.zeros(3), np.zeros(4), 0.99, 0.01)


def test_mae_loss_value_and_grad():
    pred = Tensor(np.array([[0.2], [0.8]]), requires_grad=True)
    loss = mae_loss(pred, np.array([0.5, 0.5]))
    assert float(loss.data) == pytest.approx(0.3)
    loss.backward()
    assert np.allclose(pred.grad, [[-0.5], [0.5]])


def test_bce_loss_matches_formula_and_survives_saturation():
    pred = Tensor(np.array([[0.9], [0.1]]), requires_grad=True)
    y = np.array([1.0, 0.0])
    loss = bce_loss(pred, y)
    expect = -(np.log(0.9) + np.log(0.9)) / 2
    assert float(loss.data) == pytest.approx(expect)
    loss.backward()
    # (p - y) / (p (1 - p)) / n
    assert pred.grad[0, 0] == pytest.approx((0.9 - 1.0) / (0.9 * 0.1) / 2)
    # saturated prediction against an opposing label keeps a finite gradient
    sat = Tensor(np.array([[1.0 - 1e-12]]), requires_grad=True)
    bl = bce_loss(sat, np.array([0.0]))
    bl.backward()
    assert np.isfinite(bl.data) and np.isfinite(sat.grad[0, 0])
    assert sat.grad[0, 0] > 0.0


def test_params_hash_detects_any_change():
    gin = GINParams.init(GINConfig(input_dim=3, hidden_dim=4, num_layers=2, dropout=0.0), 0)
    h1 = params_hash(gin.named())
    gin.mlps[0].weights[0].data[0, 0] += 1e-12
    assert params_hash(gin.named()) != h1


def test_flatten_load_roundtrip():
    gin = GINParams.init(GINConfig(input_dim=3, hidden_dim=4, num_layers=2, dropout=0.0), 1)
    named = gin.named()
    vec, layout = flatten_named(named)
    vec2 = vec * 2.0
    load_vector(named, layout, vec2)
    out, _ = flatten_named(named)
    assert np.allclose(out, vec2)
    g = grad_vector(named, layout)  # no grads -> zeros
    assert g.shape == vec.shape and not g.any()


def test_named_union_rejects_collisions():
    gin = GINParams.init(GINConfig(input_dim=3, hidden_dim=4, num_layers=1, dropout=0.0), 0)
    with pytest.raises(ValueError):
        named_union(gin.named(), gin.named())


def test_pack_graphs_offsets():
    feats, edges, seg, g = pack_graphs([
        (np.ones((2, 3)), [(0, 1)]),
        (np.zeros((3, 3)), [(0, 2)]),
    ])
    assert feats.shape == (5, 3)
    assert edges == [(0, 1), (2, 4)]
    assert seg.tolist() == [0, 0, 1, 1, 1]
    assert g == 2


def test_group_split_keeps_groups_whole():
    keys = ["a"] * 5 + ["b"] * 5 + ["c"] * 5 + ["d"] * 5
    tr, va = group_split(keys, 0.25, np.random.default_rng(0))
    val_groups = {keys[i] for i in va}
    train_groups = {keys[i] for i in tr}
    assert val_groups and not (val_groups & train_groups)
    assert len(tr) + len(va) == 20


@pytest.mark.parametrize("groups,fraction,n_val", [(2, 0.9, 1), (3, 0.99, 2), (4, 0.5, 2)])
def test_group_split_keeps_a_training_group(groups, fraction, n_val):
    keys = [i % groups for i in range(4 * groups)]
    tr, va = group_split(keys, fraction, np.random.default_rng(0))
    assert len({keys[i] for i in va}) == n_val
    assert len({keys[i] for i in tr}) == groups - n_val


def test_fit_batches_keep_groups_whole():
    keys = [i % 7 for i in range(60)]  # seven interleaved groups of 8-9 rows
    batches = []
    w = Tensor(np.array([[0.0]]), requires_grad=True)

    def forward(idx, training, rng):
        if training:
            batches.append(list(idx))
        return sigmoid(matmul(Tensor(np.ones((len(idx), 1))), w))

    fit(np.full(60, 0.6), ["g"] * 60, forward, {"w": w},
        TrainConfig(lr=0.05, epochs=3, batch_size=16, patience=3,
                    val_fraction=0.0, loss="bce"),
        seed=0, batch_keys=keys)
    # any two groups reach 16 rows: each epoch is three pairs and a lone group
    assert len(batches) == 3 * 4
    assert all(len(b) >= 16 for i, b in enumerate(batches) if i % 4 != 3)
    for batch in batches:
        for k in {keys[i] for i in batch}:
            assert sorted(i for i in batch if keys[i] == k) == \
                [i for i in range(60) if keys[i] == k]
    for epoch in range(3):
        rows = sum(batches[4 * epoch : 4 * epoch + 4], [])
        assert sorted(rows) == list(range(60))


def test_fit_default_batches_are_shuffled_slices():
    # without batch_keys every row is its own group: full batches, one remainder
    batches = []
    w = Tensor(np.array([[0.0]]), requires_grad=True)

    def forward(idx, training, rng):
        if training:
            batches.append(list(idx))
        return sigmoid(matmul(Tensor(np.ones((len(idx), 1))), w))

    fit(np.full(50, 0.6), ["g"] * 50, forward, {"w": w},
        TrainConfig(lr=0.05, epochs=2, batch_size=16, patience=2,
                    val_fraction=0.0, loss="bce"),
        seed=0)
    assert [len(b) for b in batches] == [16, 16, 16, 2] * 2
    for epoch in range(2):
        assert sorted(sum(batches[4 * epoch : 4 * epoch + 4], [])) == list(range(50))
    assert batches[0] != list(range(16))


def test_train_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.1, loss="huber")


def test_fit_learns_trivial_mapping():
    # one linear weight fits y = 0.6 exactly under both losses
    for loss in ("mae", "bce"):
        w = Tensor(np.array([[0.0]]), requires_grad=True)

        def forward(idx, training, rng):
            return sigmoid(matmul(Tensor(np.ones((len(idx), 1))), w))

        log = fit(
            np.full(32, 0.6), ["g"] * 32, forward, {"w": w},
            TrainConfig(lr=0.05, epochs=200, batch_size=8, patience=200,
                        val_fraction=0.0, loss=loss),
            seed=0,
        )
        assert log[-1]["train_mae"] < 0.01, loss
