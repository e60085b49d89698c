"""Property-based tests: tree checks, Prufer decoding, file round-trips,
superposition invariants, and malformed inputs reaching the CLI."""

import dataclasses
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stepasm import cli
from stepasm.chainio import MIN_CHAIN_LEN, write_chain_file
from stepasm.datagen import (
    gen_synthetic_multimer,
    multimer_from_dict,
    multimer_to_dict,
    save_multimers,
)
from stepasm.geometry import (
    RigidTransform,
    aligned_rmsd,
    kabsch_align,
    random_rotation,
    rmsd,
    superposed_scores,
    tm_score,
)
from stepasm.graphs import (
    ChainStructure,
    DimerLibrary,
    Oracle,
    assembly_correctness,
    edges_from_prufer,
    is_labeled_tree,
    place_chains,
    random_uca_edges,
)
from stepasm.inference import DockingPath
from stepasm.nn.optim import BETA1, BETA2, EPS, Adam
from stepasm.nn.tensor import Tensor


def bfs_connected(nodes, edges):
    """Reference: every endpoint is a node and the nodes form one component."""
    nodes = set(nodes)
    if not nodes or any(v not in nodes for e in edges for v in e):
        return False
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == nodes


def edge_lists(lo, hi, max_size=8):
    return st.lists(st.tuples(st.integers(lo, hi), st.integers(lo, hi)), max_size=max_size)


@given(nodes=st.sets(st.integers(0, 6), max_size=6), edges=edge_lists(-2, 8))
def test_is_labeled_tree_matches_bfs_reference(nodes, edges):
    expect = len(edges) == len(nodes) - 1 and bfs_connected(nodes, edges)
    assert is_labeled_tree(sorted(nodes), edges) == expect


@pytest.fixture(scope="module")
def m5():
    return gen_synthetic_multimer(5, np.random.default_rng(120))


@given(edges=edge_lists(-2, 7, max_size=10))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_contact_check_matches_bfs_reference(m5, edges):
    if bfs_connected(range(m5.n), edges):
        back = dataclasses.replace(m5, contact_edges=frozenset(edges))
        assert back.contact_edges == {(min(a, b), max(a, b)) for a, b in edges}
    else:
        with pytest.raises(ValueError, match="contact edges"):
            dataclasses.replace(m5, contact_edges=frozenset(edges))


@given(st.integers(2, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1),
                                             min_size=n - 2, max_size=n - 2))))
def test_prufer_decoding_gives_a_tree(case):
    n, seq = case
    edges = edges_from_prufer(seq, n)
    assert len(edges) == n - 1 and bfs_connected(range(n), edges)


@st.composite
def docking_paths(draw):
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    actions = []
    for i in range(1, n):
        d = order[draw(st.integers(0, i - 1))]
        actions.append((d, order[i]) if draw(st.booleans()) else (order[i], d))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    return DockingPath(tuple(actions), tuple(probs))


@given(docking_paths())
def test_docking_path_text_roundtrip(path):
    """The path text `stepasm infer` writes names each action and its exact
    probability, one tab-separated line per step."""
    rows = [line.split("\t") for line in path.to_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, path.n))
    assert [(int(r[1]), int(r[2])) for r in rows] == list(path.actions)
    assert [float(r[3]).hex() for r in rows] == [p.hex() for p in path.probs]


@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_multimer_dict_roundtrip_through_json(n, seed):
    m = gen_synthetic_multimer(n, seed, name=f"m{seed}")
    back = multimer_from_dict(json.loads(json.dumps(multimer_to_dict(m))))
    assert (back.name, back.contact_edges) == (m.name, m.contact_edges)
    for x, y in zip(back.chains, m.chains):
        assert (x.chain_id, x.sequence) == (y.chain_id, y.sequence)
        assert np.array_equal(x.coords, y.coords)
    assert all(np.array_equal(x, y) for x, y in zip(back.gt_coords, m.gt_coords))
    assert back.dimers.pairs() == m.dimers.pairs()
    for a, b in m.dimers.pairs():
        assert all(np.array_equal(x, y)
                   for x, y in zip(back.dimers.get(a, b), m.dimers.get(a, b)))


# ---------------------------------------------------------------------------
# superposition: rigid-motion invariance, Kabsch optimality, placement
# equivariance


def rigid_motion(rng, spread=30.0):
    return RigidTransform(random_rotation(rng), rng.normal(scale=spread, size=3))


@st.composite
def noisy_pairs(draw):
    """(pred, gt, rng): gt a random cloud, pred gt plus noise in its own frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 80))
    gt = rng.normal(scale=12.0, size=(n, 3))
    noisy = gt + rng.normal(scale=draw(st.floats(0.0, 8.0)), size=gt.shape)
    return rigid_motion(rng).apply(noisy), gt, rng


@given(noisy_pairs())
@settings(max_examples=30, deadline=None)
def test_scores_invariant_under_rigid_motion(case):
    pred, gt, rng = case
    tm, rms = tm_score(pred, gt), aligned_rmsd(pred, gt)
    for a, b in ((rigid_motion(rng).apply(pred), gt), (pred, rigid_motion(rng).apply(gt))):
        assert tm_score(a, b) == pytest.approx(tm, abs=1e-9)
        assert aligned_rmsd(a, b) == pytest.approx(rms, abs=1e-9)
        assert superposed_scores(a, b) == pytest.approx((tm, rms), abs=1e-9)


@given(noisy_pairs(), st.floats(1e-3, np.pi), st.floats(0.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_kabsch_is_optimal(case, angle, shift):
    pred, gt, rng = case
    t = kabsch_align(gt, pred)
    best = rmsd(gt, t.apply(pred))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    turn = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    worse = RigidTransform(turn @ t.rotation, t.translation + shift * rng.normal(size=3))
    assert rmsd(gt, worse.apply(pred)) >= best - 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_placement_equivariant_to_moving_each_dimer(m5, seed):
    rng = np.random.default_rng(seed)
    graph = m5.graph_over(random_uca_edges(m5.n, rng))
    moved = DimerLibrary()
    for a, b in m5.dimers.pairs():
        motion = rigid_motion(rng)
        moved.add(a, b, *(motion.apply(x) for x in m5.dimers.get(a, b)))
    tm = assembly_correctness(graph, m5)
    assert assembly_correctness(graph, dataclasses.replace(m5, dimers=moved)) == (
        pytest.approx(tm, abs=1e-9))


# ---------------------------------------------------------------------------
# the oracle against the sequential placement it composes: every edge fits the
# stored dimer onto its chain as placed so far


def reference_order(graph):
    """(placed, new) edges breadth-first from the lowest endpoint of the lowest
    edge, neighbours in ascending order."""
    adj = graph.neighbors()
    root = graph.edges[0][0]
    seen, order, queue = {root}, [], deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append((v, w))
                queue.append(w)
    return order


def reference_place(edge_sequence, dimers):
    placed = {}
    for d, u in edge_sequence:
        if not placed:
            placed[d], placed[u] = dimers.get(d, u)
            continue
        if d not in placed:
            d, u = u, d
        xd, xu = dimers.get(d, u)
        placed[u] = kabsch_align(placed[d], xd).apply(xu)
    return placed


def reference_correctness(graph, m):
    placed = reference_place(reference_order(graph), m.dimers)
    return tm_score(np.concatenate([placed[v] for v in graph.nodes]),
                    np.concatenate([m.gt_coords[v] for v in graph.nodes]))


@pytest.fixture(scope="module")
def oracle_multimers():
    return {n: gen_synthetic_multimer(n, np.random.default_rng(130 + n)) for n in range(3, 7)}


@st.composite
def grown_trees(draw, n):
    """A tree over 2..n of the chains 0..n-1, as (nodes, docking actions):
    each new chain docks onto one already placed, as target data grows its
    condition graphs. Actions may name either chain first."""
    order = draw(st.permutations(range(n)))
    size = draw(st.integers(2, n))
    actions = []
    for i in range(1, size):
        pair = (order[draw(st.integers(0, i - 1))], order[i])
        actions.append(pair if draw(st.booleans()) else pair[::-1])
    return tuple(order[:size]), actions


@given(data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_oracle_matches_sequential_reference(oracle_multimers, data):
    n = data.draw(st.integers(3, 6))
    m = oracle_multimers[n]
    trees = data.draw(st.lists(grown_trees(n), min_size=1, max_size=12))
    graphs = [m.subgraph(nodes, actions) for nodes, actions in trees]
    # one oracle for the batch: its Kabsch fits are shared between the trees
    for graph, y in zip(graphs, Oracle(m).scores([(g.nodes, g.edges) for g in graphs])):
        assert abs(y - reference_correctness(graph, m)) <= 1e-12
    for _, actions in trees:
        placed, want = place_chains(actions, m.dimers), reference_place(actions, m.dimers)
        assert placed.keys() == want.keys()
        for v in want:
            assert np.abs(placed[v] - want[v]).max() <= 1e-9


# ---------------------------------------------------------------------------
# mutated files through the CLI: exit 0 or exit 2 with a JSON error, never a
# traceback


@pytest.fixture(scope="module")
def record():
    m = gen_synthetic_multimer(3, np.random.default_rng(121), name="m3")
    return json.loads(json.dumps(multimer_to_dict(m)))


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 60), st.floats(),
                        st.text(max_size=4), st.lists(st.integers(-3, 9), max_size=3))


@st.composite
def mutations(draw, record):
    out = json.loads(json.dumps(record))
    kind = draw(st.sampled_from(["drop", "value", "contact", "chain", "dimer", "truncate"]))
    if kind == "drop":
        del out[draw(st.sampled_from(sorted(out)))]
    elif kind == "value":
        out[draw(st.sampled_from(sorted(out)))] = draw(JSON_VALUES)
    elif kind == "contact":
        i = draw(st.integers(0, len(out["contacts"]) - 1))
        out["contacts"][i] = draw(st.lists(st.integers(-3, 9), min_size=0, max_size=3))
    elif kind == "chain":
        chain = out["chains"][draw(st.integers(0, len(out["chains"]) - 1))]
        chain[draw(st.sampled_from(sorted(chain)))] = draw(JSON_VALUES)
    elif kind == "dimer":
        key = draw(st.sampled_from(sorted(out["dimers"])))
        out["dimers"][draw(st.sampled_from(["0-9", "a-b", "1", key]))] = draw(JSON_VALUES)
    text = json.dumps(out)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _assert_clean_exit(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        err = json.loads(captured.err)
        assert set(err) == {"error", "message"}


@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_multimer_file_exits_cleanly(record, tmp_path_factory, capsys, data):
    path = tmp_path_factory.mktemp("mut") / "multimers.jsonl"
    path.write_text(data.draw(mutations(record)) + "\n")
    _assert_clean_exit(["enumerate-oracle", "--multimers", str(path)], capsys)


@pytest.fixture(scope="module")
def chain_structures():
    m = gen_synthetic_multimer(3, np.random.default_rng(126), name="m3")
    return [ChainStructure(c.chain_id, c.sequence, g) for c, g in zip(m.chains, m.gt_coords)]


@st.composite
def chain_file_mutations(draw, chains, path):
    """Bytes of a chain file for ``chains`` with one byte flipped, cut short,
    given bytes that are not UTF-8, a coordinate that is not a usable number,
    or its chains cut below 50 residues."""
    kind = draw(st.sampled_from(["flip", "truncate", "not-utf8", "number", "short"]))
    if kind == "short":
        cut = []
        for c in chains:
            k = draw(st.integers(1, MIN_CHAIN_LEN - 1))
            cut.append(dataclasses.replace(c, sequence=c.sequence[:k], coords=c.coords[:k]))
        write_chain_file(path, cut)
        return path.read_bytes()
    write_chain_file(path, chains)
    blob = path.read_bytes()
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        byte = draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
        return blob[:at] + bytes([byte]) + blob[at + 1:]
    if kind == "truncate":
        return blob[:at]
    if kind == "number":
        lines = blob.split(b"\n")
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.count(b" ") == 2]))
        xyz = lines[i].split(b" ")
        xyz[draw(st.integers(0, 2))] = draw(st.sampled_from(
            [b"NaN", b"-inf", b"1e999", b"1e200", b"-3e7", b"1e", b"0x1p3"]))
        return b"\n".join(lines[:i] + [b" ".join(xyz)] + lines[i + 1:])
    bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
    return blob[:at] + bad + blob[at:]


@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("ignore::stepasm.errors.ShortChainWarning")
def test_mutated_chain_file_exits_cleanly(chain_structures, tmp_path_factory, capsys, data):
    root = tmp_path_factory.mktemp("chains")
    gt, pred = root / "gt.txt", root / "pred.txt"
    write_chain_file(gt, chain_structures)
    pred.write_bytes(data.draw(chain_file_mutations(chain_structures, root / "draft.txt")))
    _assert_clean_exit(["eval", "--pred", str(pred), "--gt", str(gt),
                        "--out", str(root / "eval.json")], capsys)


@pytest.fixture(scope="module")
def infer_inputs(tmp_path_factory):
    from stepasm.checkpoint import save_models
    from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams
    from stepasm.prompt import PromptParams

    root = tmp_path_factory.mktemp("infer")
    m = gen_synthetic_multimer(3, np.random.default_rng(122), name="m3")
    save_multimers(root / "multimers.jsonl", [m])
    gin = GINParams.init(GINConfig(hidden_dim=4, dropout=0.0), 123)
    head = TaskHeadParams.init(13, 4, 124)
    prompt = PromptParams.init(13, 4, 125, dropout=0.0)
    save_models(root / "model.npz", gin, head, prompts={"prompt": prompt})
    return root, (root / "model.npz").read_bytes()


@given(cut=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_truncated_checkpoint_exits_cleanly(infer_inputs, tmp_path_factory, capsys, cut):
    root, blob = infer_inputs
    ckpt = tmp_path_factory.mktemp("ckpt") / "model.npz"
    ckpt.write_bytes(blob[: cut % len(blob)])
    _assert_clean_exit(["infer", "--multimers", str(root / "multimers.jsonl"),
                        "--ckpt", str(ckpt), "--out", str(ckpt.parent / "pred")], capsys)


def textbook_adam(params, grads, lr):
    """Reference: the Adam update written out, one fresh array per operation."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    params = {k: x.copy() for k, x in params.items()}
    for t, step in enumerate(grads, start=1):
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for k, g in step.items():
            if g is None:
                g = np.zeros_like(params[k])
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * g * g
            params[k] = params[k] - lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + EPS)
    return params


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6),
       lr=st.floats(1e-5, 1.0), scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
@settings(max_examples=40, deadline=None)
def test_adam_in_place_step_equals_textbook_update(seed, steps, lr, scale):
    rng = np.random.default_rng(seed)
    shapes = {"w": (3, 4), "b": (4,), "eps": ()}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    grads = [
        {k: None if rng.random() < 0.2 else rng.normal(size=s) * scale
         for k, s in shapes.items()}
        for _ in range(steps)
    ]
    params = {k: Tensor(x.copy(), requires_grad=True) for k, x in start.items()}
    opt = Adam(params, lr=lr)
    for step in grads:
        for k, g in step.items():
            params[k].grad = g
        opt.step()
    want = textbook_adam(start, grads, lr)
    for k in shapes:
        assert np.asarray(params[k].data).tobytes() == np.asarray(want[k]).tobytes(), k
