"""Property-based tests: tree checks, Prufer decoding, file round-trips,
superposition invariants, and malformed inputs reaching the CLI."""

import dataclasses
import functools
import json
import pathlib
import tempfile
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stepasm import cli
from stepasm.chainio import MIN_CHAIN_LEN, parse_chain_coords, write_chain_file
from stepasm.config import RunConfig, config_to_dict
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


# the metadata save_models writes for the checkpoint of ``meta_inputs``
TINY_META = {
    "format_version": 1,
    "arch": {
        "gin_config": {"input_dim": 13, "hidden_dim": 4, "num_layers": 2, "dropout": 0.0},
        "head_hidden": 4,
        "prompts": {
            "prompt_meta": {"mlp_hidden": 4, "heads": 2, "multi_head": True, "dropout": 0.2},
            "prompt_star": {"mlp_hidden": 4, "heads": 4, "multi_head": False, "dropout": 0.2},
        },
    },
}


@pytest.fixture(scope="module")
def meta_inputs(tmp_path_factory):
    """A 3-chain multimers file and the arrays of a tiny checkpoint with a
    multi-head and a single-head prompt, whose metadata is TINY_META."""
    from stepasm.checkpoint import load_checkpoint, save_models
    from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams
    from stepasm.prompt import PromptParams

    root = tmp_path_factory.mktemp("meta")
    save_multimers(root / "multimers.jsonl",
                   [gen_synthetic_multimer(3, np.random.default_rng(127), name="m3")])
    gin = GINParams.init(GINConfig(hidden_dim=4, dropout=0.0), 128)
    head = TaskHeadParams.init(13, 4, 129)
    prompts = {"prompt_meta": PromptParams.init(13, 4, 130, heads=2, multi_head=True),
               "prompt_star": PromptParams.init(13, 4, 131)}
    save_models(root / "model.npz", gin, head, prompts=prompts)
    components, meta = load_checkpoint(root / "model.npz")
    assert meta == TINY_META
    return root, {f"{t}/{n}": a for t, named in components.items() for n, a in named.items()}


DEEP = "__deep__"
META_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60), st.floats(), st.text(max_size=4),
    st.sampled_from([10**12, -10**12, 2**63, 10**30, DEEP]),
    st.lists(st.integers(-3, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _key_paths(value, path=()):
    """The path of each key of ``value``'s nested mappings."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield path + (key,)
            yield from _key_paths(inner, path + (key,))


def _meta_text(meta):
    return json.dumps(meta).replace(json.dumps(DEEP), "[" * 50_000 + "]" * 50_000)


def _with(path, value):
    """TINY_META's JSON text with the value at ``path`` replaced."""
    out = json.loads(json.dumps(TINY_META))
    *parents, key = path
    owner = out
    for k in parents:
        owner = owner[k]
    owner[key] = value
    return _meta_text(out)


@st.composite
def meta_mutations(draw):
    """TINY_META's JSON text with one to three keys dropped or given another
    value: another JSON type, a bool, NaN or an infinity, a huge integer, or
    nesting deeper than the stack."""
    out = json.loads(json.dumps(TINY_META))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(out))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        owner = out
        for k in parents:
            owner = owner[k]
        if draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(META_VALUES)
    return _meta_text(out)


@given(text=meta_mutations())
@example(text=_with(("arch", "gin_config", "hidden_dim"), 10**12))
@example(text=_with(("arch", "gin_config", "dropout"), False))
@example(text=_with(("arch", "prompts", "prompt_meta", "heads"), 10**12))
@example(text=_with(("arch", "head_hidden"), DEEP))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_checkpoint_metadata_exits_cleanly(meta_inputs, tmp_path_factory, capsys,
                                                   text):
    root, arrays = meta_inputs
    work = tmp_path_factory.mktemp("ckpt")
    ckpt = work / "model.npz"
    np.savez(ckpt, __meta__=np.array(text), **arrays)
    code = cli.main(["infer", "--multimers", str(root / "multimers.jsonl"),
                     "--ckpt", str(ckpt), "--out", str(work / "pred")])
    captured = capsys.readouterr()
    outputs = [work / f"pred.{kind}" for kind in ("path.txt", "structure.txt", "report.json")]
    assert code in (0, 2)
    if code == 2:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
        assert not any(p.exists() for p in outputs)
    else:
        report = json.loads(outputs[2].read_text())
        assert np.isfinite(report["probs"]).all()
        assert all(m is None or np.isfinite(m) for m in report["margins"])
        assert all(np.isfinite(c.coords).all() for c in parse_chain_coords(outputs[1]))


CONFIG_BYTES = json.dumps(config_to_dict(RunConfig())).encode()
MARK = "\x00mutated\x00"


def _config_paths(node, path=()):
    """The path of every section and value of a config mapping."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _config_paths(value, path + (key,))


CONFIG_PATHS = list(_config_paths(json.loads(CONFIG_BYTES)))


@st.composite
def config_mutations(draw):
    """The default config as JSON bytes with one mutation: a byte flipped, a
    cut, invalid UTF-8 inserted, or one section or value replaced by deep
    nesting, a wrong JSON type, NaN or an infinity, or a huge integer."""
    kind = draw(st.sampled_from(["flip", "truncate", "utf8", "nest", "type", "nonfinite",
                                 "huge"]))
    if kind == "flip":
        out = bytearray(CONFIG_BYTES)
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return CONFIG_BYTES[:draw(st.integers(0, len(CONFIG_BYTES) - 1))]
    if kind == "utf8":
        at = draw(st.integers(0, len(CONFIG_BYTES)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]))
        return CONFIG_BYTES[:at] + bad + CONFIG_BYTES[at:]
    if kind == "nest":
        depth = draw(st.sampled_from([1, 3, 100_000]))
        token = "[" * depth + draw(st.sampled_from(["0", "{}", ""])) + "]" * depth
    elif kind == "type":
        token = json.dumps(draw(JSON_VALUES))
    elif kind == "nonfinite":
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
    else:
        digits = draw(st.sampled_from([19, 40, 309, 400, 4300, 5000]))
        token = draw(st.sampled_from(["", "-"])) + "9" * digits
    data = json.loads(CONFIG_BYTES)
    *parents, key = draw(st.sampled_from(CONFIG_PATHS))
    node = data
    for name in parents:
        node = node[name]
    node[key] = MARK
    return json.dumps(data).replace(json.dumps(MARK), token).encode()


@given(raw=config_mutations())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_config_exits_cleanly(tmp_path_factory, capsys, raw):
    # grad-check is the cheapest command that loads a config
    path = tmp_path_factory.mktemp("config") / "run.json"
    path.write_bytes(raw)
    code = cli.main(["grad-check", "--graphs", "1", "--config", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}


# source and target datasets through the commands that train on them, on a
# tiny checkpoint and a one-epoch config

DATASET_RUN = {"model": {"hidden_dim": 4, "head_hidden": 4, "dropout": 0.0},
               "pretrain": {"epochs": 1, "batch_size": 8},
               "prompt": {"epochs": 1, "batch_size": 16, "mlp_hidden": 4,
                          "val_fraction": 0.0}}


@functools.cache
def dataset_files():
    """Bytes of a multimers file of three small complexes, their source and
    target datasets, a one-epoch run config and a tiny checkpoint to tune."""
    from stepasm.checkpoint import save_models
    from stepasm.datagen import (
        gen_multimer_set,
        make_source_dataset,
        make_target_dataset,
        save_dataset,
    )
    from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams

    ms = gen_multimer_set({3: 2, 4: 1}, seed=140)
    target = [r for i, m in enumerate(ms)
              for r in make_target_dataset(m, np.random.default_rng([142, i]))]
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        save_multimers(root / "multimers.jsonl", ms)
        save_dataset(root / "source.jsonl", make_source_dataset(ms, 3, seed=141))
        save_dataset(root / "target.jsonl", target)
        save_models(root / "model.npz", GINParams.init(GINConfig(hidden_dim=4, dropout=0.0), 143),
                    TaskHeadParams.init(13, 4, 144))
        (root / "run.json").write_text(json.dumps(DATASET_RUN))
        return {p.name: p.read_bytes() for p in root.iterdir()}


def _value_paths(value, path=()):
    """The path of every value nested in ``value``'s lists and mappings."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from _value_paths(inner, path + (key,))


@st.composite
def dataset_mutations(draw, name):
    """How to mutate dataset file ``name``: ("bytes", new file bytes) for a
    byte flipped, a cut or invalid UTF-8 inserted; or ("value", line, path,
    token), the value at ``path`` of the record on that line, the whole
    record for an empty path, written as ``token``: deep nesting, a wrong
    JSON type, NaN or an infinity, or a huge integer."""
    blob = dataset_files()[name]
    kind = draw(st.sampled_from(["flip", "truncate", "utf8", "nest", "type", "nonfinite",
                                 "huge"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "flip":
        return "bytes", blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "truncate":
        return "bytes", blob[:at]
    if kind == "utf8":
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80"]))
        return "bytes", blob[:at] + bad + blob[at:]
    if kind == "nest":
        depth = draw(st.sampled_from([1, 3, 100_000]))
        token = "[" * depth + draw(st.sampled_from(["0", "{}", ""])) + "]" * depth
    elif kind == "type":
        token = json.dumps(draw(JSON_VALUES))
    elif kind == "nonfinite":
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
    else:
        digits = draw(st.sampled_from([19, 40, 309, 400, 4300, 5000]))
        token = draw(st.sampled_from(["", "-"])) + "9" * digits
    lines = blob.decode().splitlines()
    line = draw(st.integers(0, len(lines) - 1))
    path = draw(st.sampled_from([()] + list(_value_paths(json.loads(lines[line])))))
    return "value", line, path, token


def _mutated(name, mutation):
    if mutation[0] == "bytes":
        return mutation[1]
    _, line, path, token = mutation
    lines = dataset_files()[name].decode().splitlines()
    record = json.loads(lines[line])
    if path:
        *parents, key = path
        owner = record
        for k in parents:
            owner = owner[k]
        owner[key] = MARK
    else:
        record = MARK
    lines[line] = json.dumps(record).replace(json.dumps(MARK), token)
    return ("\n".join(lines) + "\n").encode()


def _train_on_mutated(tmp_path_factory, capsys, name, mutation, command, out):
    """Run ``command`` on a data directory whose file ``name`` is mutated,
    prompt-tune from the tiny checkpoint: exit 0 with a finite training log,
    or exit 2 with one JSON line."""
    files = dataset_files()
    work = tmp_path_factory.mktemp("dataset")
    (work / "multimers.jsonl").write_bytes(files["multimers.jsonl"])
    (work / name).write_bytes(_mutated(name, mutation))
    for kept in ("model.npz", "run.json"):
        (work / kept).write_bytes(files[kept])
    ckpt = ["--ckpt", str(work / "model.npz")] if command == "prompt-tune" else []
    code = cli.main([command, *ckpt, "--config", str(work / "run.json"), "--data", str(work),
                     "--out", str(work / out)])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
    else:
        log = json.loads((work / f"{out}.log.json").read_text())
        assert all(np.isfinite(epoch["train_mae"]) for epoch in log["epochs"])


@given(mutation=dataset_mutations("source.jsonl"))
@example(mutation=("value", 0, ("y",), "9" * 400))
@example(mutation=("value", 0, ("edges", 0, 0), "Infinity"))
@example(mutation=("value", 0, ("n",), "9" * 5000))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_source_dataset_exits_cleanly(tmp_path_factory, capsys, mutation):
    _train_on_mutated(tmp_path_factory, capsys, "source.jsonl", mutation, "pretrain",
                      "pretrained.npz")


@given(mutation=dataset_mutations("target.jsonl"))
@example(mutation=("value", 0, ("y",), "-" + "9" * 400))
@example(mutation=("value", 0, ("v_u",), "-Infinity"))
@example(mutation=("value", 0, ("cond_nodes", 0), "9" * 5000))
# a condition over chains 0, 1, 3 with edges (0, 1), (0, 2), whose extension
# by (3, 2) is a tree
@example(mutation=("value", 21, ("cond_edges", 1, 1), "2"))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_target_dataset_exits_cleanly(tmp_path_factory, capsys, mutation):
    _train_on_mutated(tmp_path_factory, capsys, "target.jsonl", mutation, "prompt-tune",
                      "tuned.npz")


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
