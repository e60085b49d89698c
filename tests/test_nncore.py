"""Autodiff engine, GIN forward/backward, optimizer, training-loop pieces."""

import numpy as np
import pytest

from stepasm.errors import LengthMismatchError, ShapeMismatchError
from stepasm.nn import tensor as tensor_module
from stepasm.nn.model import (
    GINConfig,
    GINParams,
    Neighbours,
    PackedGraphs,
    TaskHeadParams,
    flatten_named,
    forward_batch,
    forward_blocks,
    grad_vector,
    gin_encode,
    load_vector,
    named_union,
    neighbour_slots,
    pack_graphs,
    params_hash,
    readout_regress,
    readout_slots,
)
from stepasm.nn.optim import Adam
from stepasm.nn.tensor import (
    Tensor,
    add,
    as_tensor,
    bce_loss,
    concat_rows,
    dropout,
    gather_rows,
    listwise_loss,
    mae_loss,
    matmul,
    mul,
    relu,
    sigmoid,
    slot_sum,
    sub,
)
from stepasm.prompt import PATH_NEIGHBOURS
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


def smooth_scalar(out):
    """mean(out * out), as mae_loss of out * out against -1: the difference
    stays at 1 or more, away from the kink of the absolute value."""
    return mae_loss(mul(out, out), np.full(out.data.size, -1.0))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul", "relu", "sigmoid",
                                "add_scalar", "mul_scalar", "gather", "concat",
                                "message_passing", "segment", "abs", "mean", "mae",
                                "listwise"])
def test_op_gradients_match_finite_differences(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = Tensor(rng.normal(size=(4, 3)) + 0.3, requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    # each target 0.5 away from its prediction, clear of the kink
    mae_target = a.data.ravel() + np.where(rng.random(12) < 0.5, -0.5, 0.5)
    above_a = a.data.ravel() + 0.5
    below_sum = (a.data + b.data).ravel() - 0.5

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
        elif op == "add_scalar":
            out = add(a, 1.7)
        elif op == "mul_scalar":
            out = mul(a, -2.5)
        elif op == "gather":
            out = gather_rows(a, [2, 0, 2])
        elif op == "concat":
            out = concat_rows([a, b])
        elif op == "message_passing":
            # row i sums its neighbours' rows, as gin_encode does; node 1 has three
            slots = neighbour_slots([(0, 1), (1, 2), (1, 3)], 4)
            out = slot_sum(a, slots, slots)
        elif op == "segment":
            out = slot_sum(a, *readout_slots([0, 1, 0, 1], 2))
        elif op == "abs":
            # every difference negative: the absolute value's flipped branch
            return mae_loss(a, above_a)
        elif op == "mean":
            # every difference positive: the mean alone, through add to both operands
            return mae_loss(add(a, b), below_sum)
        elif op == "mae":
            return mae_loss(a, mae_target)
        elif op == "listwise":
            # three interleaved decisions; decision 2 has no label above 0.99
            return listwise_loss(sigmoid(a), LISTWISE_Y, LISTWISE_GROUPS, 0.99, 0.05)
        return smooth_scalar(out)

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


def directed_edges(edges):
    """Reference: (src, dst) of both directions of each edge, in the (dst,
    src) order of Python's tuple sort, duplicates and self-loops too."""
    pairs = sorted((d, s) for a, b in edges for s, d in ((a, b), (b, a)))
    return (np.array([s for _, s in pairs], dtype=np.intp),
            np.array([d for d, _ in pairs], dtype=np.intp))


# isolated nodes (the highest-numbered among them), a star of degree 4, a
# repeated edge, a self-loop, and no edges at all
SLOT_GRAPHS = [
    (6, [(0, 1), (1, 2)]),
    (7, [(2, 0), (2, 1), (2, 3), (2, 4), (0, 1)]),
    (5, [(0, 1), (0, 1), (3, 3), (1, 3)]),
    (4, []),
]


def test_directed_edges_match_the_sorted_tuple_reference():
    # message passing adds each node's neighbours in this order, so column i
    # of the neighbour table must list them exactly in the (dst, src) order
    # of Python's tuple sort; every pad is n, the zero row slot_sum appends
    # (a pad of max(src) + 1 would read a real row when the last nodes are
    # isolated)
    rng = np.random.default_rng(19)
    graphs = list(SLOT_GRAPHS)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        graphs.append((n, [tuple(int(v) for v in rng.integers(0, n, 2))
                           for _ in range(int(rng.integers(1, 40)))]))
    for n, edges in graphs:
        slots = neighbour_slots(edges, n)
        src, dst = directed_edges(edges)
        assert slots.shape == (np.bincount(dst, minlength=n).max(initial=0), n)
        for i in range(n):
            listed = src[dst == i].tolist()
            assert slots[:len(listed), i].tolist() == listed
            assert (slots[len(listed):, i] == n).all()


def scatter_reference(data, src, dst, num_out, g):
    """Explicit np.add.at into zeros: out[dst[k]] += data[src[k]], and the
    gradient of data, grad[src[k]] += g[dst[k]]."""
    out = np.zeros((num_out,) + data.shape[1:])
    np.add.at(out, dst, data[src])
    grad = np.zeros_like(data)
    np.add.at(grad, src, g[dst])
    return out, grad


def with_signed_zeros(rng, shape):
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.3] = -0.0
    return x


def assert_same_bits(got, want):
    for x, y in zip(got, want):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("n, edges", SLOT_GRAPHS)
def test_slot_sum_is_the_scatter_bit_for_bit(n, edges):
    rng = np.random.default_rng(n + len(edges))
    data = with_signed_zeros(rng, (n, 3))
    g = with_signed_zeros(rng, (n, 3))
    slots = neighbour_slots(edges, n)
    a = Tensor(data.copy(), requires_grad=True)
    out = slot_sum(a, slots, slots)
    out.backward(g)
    assert_same_bits((out.data, a.grad), scatter_reference(data, *directed_edges(edges), n, g))
    # the readout: graphs of interleaved rows, one of them empty
    seg = rng.integers(0, 3, n)
    a = Tensor(data.copy(), requires_grad=True)
    out = slot_sum(a, *readout_slots(seg, 4))
    out.backward(g[:4])
    assert_same_bits((out.data, a.grad),
                     scatter_reference(data, np.arange(n), seg, 4, g[:4]))


def test_packed_batch_equals_pack_graphs():
    rng = np.random.default_rng(23)
    graphs = []
    for n in rng.integers(1, 6, 40):
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        graphs.append((rng.normal(size=(n, 5)), edges if rng.random() < 0.8 else []))
    packed = PackedGraphs(graphs)
    for indices in (rng.permutation(40)[:13], [39], [5, 0], rng.permutation(40)):
        feats, neighbours, seg, count = packed.batch(indices)
        want_feats, edges, want_seg, want_count = pack_graphs([graphs[i] for i in indices])
        assert feats.tobytes() == want_feats.tobytes()
        assert np.array_equal(neighbours.slots, neighbour_slots(edges, len(want_feats)))
        assert np.array_equal(seg, want_seg) and count == want_count


def test_neighbour_table_encodes_as_its_edges():
    gin = GINParams.init(GINConfig(input_dim=5, hidden_dim=8), 3)
    head = TaskHeadParams.init(5, 6, 4)
    rng = np.random.default_rng(24)
    graphs = [(rng.normal(size=(n, 5)), [(i - 1, i) for i in range(1, n)]) for n in (3, 1, 4)]
    feats, edges, seg, count = pack_graphs(graphs)
    table = Neighbours(neighbour_slots(edges, len(feats)))
    want = forward_batch(feats, edges, seg, count, gin, head).data
    got = forward_batch(feats, table, seg, count, gin, head).data
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ShapeMismatchError):
        gin_encode(feats[:-1], table, gin)


class NumpyWithoutScatter:
    """numpy, except that np.add.at raises."""

    class add:
        reduce = staticmethod(np.add.reduce)
        reduceat = staticmethod(np.add.reduceat)

        def __new__(cls, *args, **kwargs):
            return np.add(*args, **kwargs)

        @staticmethod
        def at(*args, **kwargs):
            raise AssertionError("np.add.at called")

    def __getattr__(self, name):
        return getattr(np, name)


def test_a_pretraining_step_makes_no_scatter_call(monkeypatch):
    from stepasm import pretrain, training
    from stepasm.datagen import gen_multimer_set, make_source_dataset
    from stepasm.nn import model as model_module, optim as optim_module

    for module in (tensor_module, model_module, optim_module, training, pretrain):
        monkeypatch.setattr(module, "np", NumpyWithoutScatter())
    with pytest.raises(AssertionError, match="np.add.at called"):  # the patch bites
        gather_rows(Tensor(np.ones((2, 1)), requires_grad=True), [0, 0]).backward(np.ones((2, 1)))
    ms = gen_multimer_set({3: 2, 5: 2}, seed=25)
    cfg = pretrain.PretrainConfig(
        train=TrainConfig(lr=0.01, epochs=2, batch_size=4, patience=2), hidden_dim=8,
        head_hidden=8)
    _, _, log = pretrain.pretrain(make_source_dataset(ms, 3, seed=26),
                                  {m.name: m for m in ms}, cfg)
    assert len(log) == 2


def test_forward_blocks_rejects_rows_that_do_not_fill_the_blocks():
    gin = GINParams.init(GINConfig(input_dim=3, hidden_dim=4), 0)
    head = TaskHeadParams.init(3, 4, 1)
    assert forward_blocks(np.ones((8, 3)), 2, PATH_NEIGHBOURS, gin, head).shape == (2, 1)
    for rows in (7, 9, 0):
        with pytest.raises(ShapeMismatchError):
            forward_blocks(np.ones((rows, 3)), 2, PATH_NEIGHBOURS, gin, head)


@pytest.mark.parametrize("edge", [(-1, 0), (0, -3), (0, 3), (5, 1)])
def test_gin_encode_rejects_edge_indices_out_of_range(edge):
    # a negative index would wrap around to a node at the end of the array
    gin = GINParams.init(GINConfig(input_dim=13, hidden_dim=4, num_layers=1), 0)
    with pytest.raises(ShapeMismatchError, match="out of range"):
        gin_encode(np.ones((3, 13)), [(0, 1), edge], gin)


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


@pytest.mark.parametrize("constant", ["scalar", "frozen"])
def test_mul_skips_the_product_of_a_constant_operand(monkeypatch, constant):
    # a python scalar or a frozen tensor takes no gradient, so mul's backward
    # forms only the trainable operand's product, as matmul's does
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = 2.5 if constant == "scalar" else Tensor(rng.normal(size=(5, 3)))
    routed = []
    real = tensor_module._unbroadcast
    monkeypatch.setattr(tensor_module, "_unbroadcast",
                        lambda g, shape: routed.append(shape) or real(g, shape))
    seed = rng.normal(size=(5, 3))
    mul(a, b).backward(seed)
    assert routed == [(5, 3)]
    assert np.array_equal(a.grad, seed * as_tensor(b).data + 0.0)


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


def test_adam_steps_a_parameter_whose_data_was_rebound():
    # parameters live as views into Adam's flat buffer; rebinding .data (as
    # restoring a saved state does) must still be stepped, from the new values
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = Tensor(np.array([[0.5]]), requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.1)
    ref = Adam({"p": Tensor(np.array([3.0, 4.0]), requires_grad=True),
                "q": Tensor(np.array([[0.5]]), requires_grad=True)}, lr=0.1)
    p.data = np.array([3.0, 4.0])
    for t in (p, q, *ref.params.values()):
        t.grad = np.full(t.data.shape, 0.25)
    opt.step()
    ref.step()
    assert p.data.tobytes() == ref.params["p"].data.tobytes()
    assert q.data.tobytes() == ref.params["q"].data.tobytes()
    p.grad = np.zeros(3)
    with pytest.raises(ShapeMismatchError):
        opt.step()


def test_dropout_train_vs_eval():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    kept = dropout(x, 0.3, rng)
    zeros = np.mean(kept.data == 0.0)
    assert 0.2 < zeros < 0.4
    # inverted scaling keeps the expectation
    assert np.mean(kept.data) == pytest.approx(1.0, abs=0.05)
    # eval mode is rng=None
    assert np.array_equal(dropout(x, 0.3, None).data, x.data)


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
