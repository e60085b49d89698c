"""Property-based tests: tree checks, Prufer decoding, file round-trips, and
malformed inputs reaching the CLI."""

import dataclasses
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stepasm import cli
from stepasm.datagen import (
    gen_synthetic_multimer,
    multimer_from_dict,
    multimer_to_dict,
    save_multimers,
)
from stepasm.graphs import edges_from_prufer, is_labeled_tree
from stepasm.inference import DockingPath


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
    back = DockingPath.from_text(path.to_text())
    assert back.actions == path.actions
    assert [p.hex() for p in back.probs] == [p.hex() for p in path.probs]


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
