"""Synthetic multimer generation and the source/target dataset builders."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from stepasm.datagen import (
    SMALL_SCALE_MAX,
    SourceInstance,
    TargetInstance,
    gen_multimer_set,
    gen_synthetic_multimer,
    load_multimer,
    load_multimers,
    load_source_dataset,
    load_target_dataset,
    make_source_dataset,
    make_target_dataset,
    multimer_from_dict,
    multimer_to_dict,
    save_dataset,
    save_multimers,
    split_by_scale,
)
from stepasm.errors import EmptyDatasetError, MalformedRecordError, NoValidGrowthWarning
from stepasm.graphs import (
    AssemblyGraph,
    DimerLibrary,
    assembly_correctness,
    best_assembly,
    enumerate_scores,
    is_labeled_tree,
    place_chains,
)
from stepasm.pretrain import source_graphs
from stepasm.prompt import build_items


@pytest.fixture(scope="module")
def m4():
    return gen_synthetic_multimer(4, np.random.default_rng(3))


def test_contact_edges_span_every_chain(m4):
    # the base layout tree is always contained in the contacts; extra
    # acid-base pairs may join it, so assert connectivity, not tree-ness
    assert len(m4.contact_edges) >= m4.n - 1
    reach = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for a, b in m4.contact_edges:
            w = b if a == v else a if b == v else None
            if w is not None and w not in reach:
                reach.add(w)
                frontier.append(w)
    assert reach == set(range(m4.n))


def spanning_tree_within(n, edges):
    """Greedy cycle-free edge subset reaching all n nodes (or None)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    picked = []
    for a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            picked.append((a, b))
    return tuple(picked) if len(picked) == n - 1 else None


def test_gt_assembles_from_a_contact_spanning_tree(m4):
    spanning = spanning_tree_within(m4.n, m4.contact_edges)
    assert spanning is not None
    graph = AssemblyGraph.over(m4.n, spanning)
    assert assembly_correctness(graph, m4) > 0.999


def test_wrong_pose_edges_score_low(m4):
    contacts = m4.contact_edges
    wrong = [
        (a, b)
        for a in range(m4.n)
        for b in range(a + 1, m4.n)
        if (a, b) not in contacts
    ]
    assert wrong, "a 4-chain multimer has non-contact pairs"
    # swap one true contact for a wrong-pose edge; correctness must drop
    base = tuple(sorted(contacts))
    for w in wrong:
        swapped = tuple(sorted(set(base) - {base[-1]} | {w}))
        if is_labeled_tree(range(m4.n), swapped):
            y = assembly_correctness(AssemblyGraph.over(m4.n, swapped), m4)
            assert y < 0.95
            return
    pytest.skip("no tree-preserving swap for this draw")


def test_generated_chains_are_distinct_lengths_and_sequences(m4):
    assert len(m4.chains) == 4
    for c in m4.chains:
        assert 50 <= len(c.sequence) <= 200
        assert c.coords.shape == (len(c.sequence), 3)


def test_acid_base_parity_along_contacts(m4):
    # contacting chains should come from opposite composition classes
    def acidity(seq):
        return (seq.count("D") + seq.count("E")) - (seq.count("K") + seq.count("R"))

    for a, b in m4.contact_edges:
        assert acidity(m4.chains[a].sequence) * acidity(m4.chains[b].sequence) < 0


def test_determinism_same_seed():
    a = gen_synthetic_multimer(3, np.random.default_rng(9))
    b = gen_synthetic_multimer(3, np.random.default_rng(9))
    assert a.contact_edges == b.contact_edges
    assert all(
        np.array_equal(x.coords, y.coords) for x, y in zip(a.chains, b.chains)
    )
    assert [c.sequence for c in a.chains] == [c.sequence for c in b.chains]


def test_gen_multimer_set_names_and_counts():
    ms = gen_multimer_set({3: 2, 5: 1}, seed=4, prefix="t")
    assert [m.n for m in ms] == [3, 3, 5]
    assert [m.name for m in ms] == ["t-0000-n3", "t-0001-n3", "t-0002-n5"]


def test_source_dataset_labels_match_oracle():
    ms = gen_multimer_set({3: 1, 4: 1}, seed=5)
    by_name = {m.name: m for m in ms}
    src = make_source_dataset(ms, 6, seed=6)
    assert src
    for inst in src:
        m = by_name[inst.multimer]
        assert is_labeled_tree(range(inst.n), inst.edges)
        expect = assembly_correctness(AssemblyGraph.over(m.n, inst.edges), m)
        assert inst.y == pytest.approx(expect, abs=1e-12)


def test_source_dataset_deduplicates_graphs():
    ms = gen_multimer_set({3: 1}, seed=7)
    src = make_source_dataset(ms, 50, seed=8)
    keys = [(i.multimer, i.edges) for i in src]
    assert len(keys) == len(set(keys))
    assert len(src) <= 3  # only three labeled trees on 3 nodes


def test_source_dataset_rejects_out_of_range_n():
    ms = gen_multimer_set({6: 1}, seed=9)
    with pytest.raises(ValueError, match="3 <= N <= 5"):
        make_source_dataset(ms, 4, seed=10)


def test_target_dataset_valid_records(m4):
    records = make_target_dataset(m4, np.random.default_rng(11), starts=2)
    assert records
    for r in records:
        assert r.multimer == m4.name
        assert is_labeled_tree(r.cond_nodes, r.cond_edges)
        assert r.v_d in r.cond_nodes
        assert r.v_u not in r.cond_nodes
        expect = assembly_correctness(r.extended(m4), m4)
        assert r.y == pytest.approx(expect, abs=1e-12)


def test_target_dataset_has_negatives_at_every_condition_size(m4):
    records = make_target_dataset(m4, np.random.default_rng(12), starts=4)
    sizes_with_neg = {len(r.cond_nodes) for r in records if r.y < 0.5}
    # wrong actions must appear for singleton starts and for grown conditions
    assert 1 in sizes_with_neg
    assert 2 in sizes_with_neg


def test_target_dataset_deterministic():
    m = gen_synthetic_multimer(4, np.random.default_rng(13))
    a = make_target_dataset(m, np.random.default_rng(14), starts=2)
    b = make_target_dataset(m, np.random.default_rng(14), starts=2)
    assert a == b


def test_target_dataset_rejects_small_multimer():
    m = gen_synthetic_multimer(3, np.random.default_rng(15))
    two = type(m)(
        name="pair",
        chains=m.chains[:2],
        gt_coords=m.gt_coords[:2],
        dimers=m.dimers,
        contact_edges=frozenset([e for e in m.contact_edges if max(e) < 2]) or
        frozenset({(0, 1)}),
    )
    with pytest.raises(ValueError, match="at least 3 chains"):
        make_target_dataset(two, np.random.default_rng(16))


def test_target_instance_validation():
    with pytest.raises(ValueError, match="docked node"):
        TargetInstance("m", 4, (0, 1), ((0, 1),), v_d=2, v_u=3, y=1.0)
    with pytest.raises(ValueError, match="undocked node"):
        TargetInstance("m", 4, (0, 1), ((0, 1),), v_d=0, v_u=1, y=1.0)


def test_split_by_scale_boundary():
    def rec(n):
        return TargetInstance("m", n, (0,), (), v_d=0, v_u=1, y=1.0)

    split = split_by_scale([rec(3), rec(SMALL_SCALE_MAX), rec(SMALL_SCALE_MAX + 1)])
    assert [r.n for r in split.small] == [3, SMALL_SCALE_MAX]
    assert [r.n for r in split.large] == [SMALL_SCALE_MAX + 1]


# ---------------------------------------------------------------------------
# persistence round-trips


def test_multimer_dict_roundtrip(m4):
    back = multimer_from_dict(multimer_to_dict(m4, seed=3))
    assert back.name == m4.name
    assert back.contact_edges == m4.contact_edges
    assert all(
        np.array_equal(x.coords, y.coords) for x, y in zip(back.chains, m4.chains)
    )
    for a, b in m4.dimers.pairs():
        xa, xb = m4.dimers.get(a, b)
        ya, yb = back.dimers.get(a, b)
        assert np.array_equal(xa, ya) and np.array_equal(xb, yb)
    # reconstructed dimers still assemble the complex
    placed = place_chains(tuple(sorted(m4.contact_edges)), back.dimers)
    assert len(placed) == m4.n


def test_multimer_file_roundtrip(tmp_path, m4):
    path = tmp_path / "multimers.jsonl"
    save_multimers(path, [m4], {m4.name: 3})
    loaded = load_multimers(path)
    assert set(loaded) == {m4.name}
    assert loaded[m4.name].contact_edges == m4.contact_edges


# sha256 of the multimers file below; any change to generation or to the
# record encoding (key order, float repr, nesting) shows here
MULTIMERS_FILE_SHA256 = "2c1c5d892ff9946deccdbb835302689fdda0d2f9ffa5f33707fd74f8eb922f82"


def test_multimer_file_bytes_are_pinned(tmp_path):
    ms = gen_multimer_set({3: 2, 4: 1, 6: 1}, seed=41, prefix="pin")
    path = tmp_path / "multimers.jsonl"
    save_multimers(path, ms, {m.name: i for i, m in enumerate(ms)})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MULTIMERS_FILE_SHA256


def test_source_file_roundtrip(tmp_path):
    ms = gen_multimer_set({3: 1}, seed=17)
    src = make_source_dataset(ms, 3, seed=18)
    path = tmp_path / "source.jsonl"
    save_dataset(path, src)
    assert load_source_dataset(path, {ms[0].name: ms[0]}) == src


def test_target_file_roundtrip(tmp_path):
    m = gen_synthetic_multimer(4, np.random.default_rng(19))
    tgt = make_target_dataset(m, np.random.default_rng(20))
    path = tmp_path / "target.jsonl"
    save_dataset(path, tgt)
    assert load_target_dataset(path, {m.name: m}) == tgt
    again = tmp_path / "again.jsonl"
    save_dataset(again, load_target_dataset(path, {m.name: m}))
    assert again.read_bytes() == path.read_bytes()


def test_target_load_sorts_condition_nodes(tmp_path):
    """A record written with its condition nodes out of order joins the
    decision of the other records of its condition."""
    m = gen_synthetic_multimer(5, np.random.default_rng(26))
    tgt = make_target_dataset(m, np.random.default_rng(27), starts=m.n)
    rows = [dataclasses.asdict(r) for r in tgt]
    k = next(i for i, r in enumerate(rows) if len(r["cond_nodes"]) == 3)
    rows[k]["cond_nodes"] = rows[k]["cond_nodes"][::-1]
    path = tmp_path / "target.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    loaded = load_target_dataset(path, {m.name: m})
    assert loaded == tgt
    items = build_items(loaded, {m.name: m})
    siblings = [it for i, it in enumerate(items)
                if i != k and tgt[i].cond_nodes == tgt[k].cond_nodes
                and tgt[i].cond_edges == tgt[k].cond_edges]
    assert siblings
    assert all(it.decision == items[k].decision for it in siblings)


def test_load_source_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_source_dataset(path, {})


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line in ('{"multimer": "m", "n": 3', "[" * 100_000):
        path.write_text(line + "\n")
        with pytest.raises(MalformedRecordError, match="line 1"):
            load_source_dataset(path, {})


def test_readers_reject_a_line_that_is_not_utf8(tmp_path):
    ms = gen_multimer_set({3: 1}, seed=23)
    m = ms[0]
    src = make_source_dataset(ms, 2, seed=24)
    tgt = make_target_dataset(m, np.random.default_rng(25))
    bad = b'{"name": "\xff"}\n'
    for save, load, rows in [
        (save_multimers, lambda p: load_multimers(p), ms),
        (save_dataset, lambda p: load_source_dataset(p, {m.name: m}), src),
        (save_dataset, lambda p: load_target_dataset(p, {m.name: m}), tgt),
    ]:
        path = tmp_path / "records.jsonl"
        save(path, rows)
        path.write_bytes(path.read_bytes() + bad)
        with pytest.raises(MalformedRecordError, match=f"^line {len(rows) + 1}: "):
            load(path)


@pytest.fixture(scope="module")
def named_lines():
    """Records of 3-chain multimers a, b and c, as save_multimers writes them."""
    return [json.dumps(multimer_to_dict(gen_synthetic_multimer(3, 150 + i, name=name)),
                       sort_keys=True).encode()
            for i, name in enumerate("abc")]


def _jsonl(tmp_path, lines, newline=b"\n", end=b"\n"):
    path = tmp_path / "multimers.jsonl"
    path.write_bytes(newline.join(lines) + end)
    return path


def _without_chains(line, **dumps):
    record = json.loads(line)
    del record["chains"]
    return json.dumps(record, **dumps).encode()


def test_named_lookup_skips_the_name_inside_another_record(named_lines, tmp_path):
    record = json.loads(named_lines[0])
    record["chains"][0]["name"] = "b"
    first = json.dumps(record, sort_keys=True).encode()
    assert b'"name": "b"' in first
    m = load_multimer(_jsonl(tmp_path, [first, *named_lines[1:]]), "b")
    assert m.name == "b"


@pytest.mark.parametrize("name", [None, "c"])
def test_last_record_without_a_trailing_newline(named_lines, tmp_path, name):
    lines = named_lines if name else named_lines[:1]
    m = load_multimer(_jsonl(tmp_path, lines, end=b""), name)
    assert m.name == (name or "a")


def test_leading_blank_lines_before_the_first_record(named_lines, tmp_path):
    path = _jsonl(tmp_path, [b"", b" \t", b"", *named_lines])
    assert load_multimer(path).name == "a"
    assert load_multimer(path, "b").name == "b"
    assert list(load_multimers(path)) == ["a", "b", "c"]


def test_empty_multimers_file_has_no_record(tmp_path):
    path = _jsonl(tmp_path, [], end=b"")
    assert load_multimer(path) is None
    assert load_multimer(path, "a") is None
    assert load_multimers(path) == {}


def _text_line_number(path, wanted):
    """The number a text-mode reader (universal newlines) gives the line
    ``wanted``."""
    with open(path, encoding="utf-8") as fh:
        return next(i for i, line in enumerate(fh, start=1)
                    if line.rstrip("\n") == wanted.decode())


@pytest.mark.parametrize("lookup", ["first", "named", "fallback", "all"])
def test_crlf_line_numbers_match_a_text_reader(named_lines, tmp_path, lookup):
    a, b, c = named_lines
    if lookup == "first":
        lines, name = [b"", b"  ", _without_chains(a), b, c], None
    else:
        dumps = {"separators": (",", ":")} if lookup == "fallback" else {"sort_keys": True}
        lines, name = [b"", a, b"  ", b"", _without_chains(b, **dumps), c], "b"
    path = _jsonl(tmp_path, lines, newline=b"\r\n", end=b"\r\n")
    bad = next(line for line in lines if line.strip() and b"chains" not in line)
    expected = _text_line_number(path, bad)
    with pytest.raises(MalformedRecordError, match=f"^line {expected}: "):
        load_multimers(path) if lookup == "all" else load_multimer(path, name)
    assert expected == lines.index(bad) + 1


def test_named_lookup_decodes_one_line(named_lines, tmp_path, monkeypatch):
    # "c" is also a chain id of record a, and a malformed record lies between
    record = json.loads(named_lines[0])
    record["chains"][0]["id"] = "c"
    first = json.dumps(record, sort_keys=True).encode()
    path = _jsonl(tmp_path, [first, b'{"name": "a", "truncated', *named_lines[1:]])
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: decoded.append(s) or loads(s, *a, **k))
    assert load_multimer(path, "c").name == "c"
    assert len(decoded) == 1


def test_named_lookup_reads_past_lines_that_are_not_utf8(named_lines, tmp_path):
    a, b, c = named_lines
    spaced = json.dumps(json.loads(c), separators=(",", ":")).encode()
    path = _jsonl(tmp_path, [b"\xff\xfe", a, b'{"name": "b", "x": "\xff"}', spaced])
    assert load_multimer(path, "a").name == "a"
    assert load_multimer(path, "c").name == "c"  # found by decoding every line
    assert load_multimer(path, "zzz") is None
    with pytest.raises(MalformedRecordError, match="^line 3: "):
        load_multimer(path, "b")
    with pytest.raises(MalformedRecordError, match="^line 1: "):
        load_multimer(path)


def test_source_instance_graph_binds_features():
    ms = gen_multimer_set({3: 1}, seed=21)
    src = make_source_dataset(ms, 2, seed=22)
    g = src[0].graph(ms[0])
    assert g.attrs.shape == (3, ms[0].chain_features.shape[1])
    assert np.array_equal(g.attrs, ms[0].chain_features)


def test_labelling_builds_no_assembly_graph(monkeypatch):
    """The oracle and the dataset builders label plain (nodes, edges) pairs,
    and pretraining batches source records without building a graph."""
    made = []
    original = AssemblyGraph.__post_init__

    def counted(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(AssemblyGraph, "__post_init__", counted)
    ms = gen_multimer_set({3: 1, 4: 1, 5: 1, 6: 1}, seed=23)
    enumerate_scores(ms[-1])
    source = make_source_dataset(ms[:3], 8, seed=24)
    source_graphs(source, {m.name: m for m in ms})
    for i, m in enumerate(ms):
        make_target_dataset(m, np.random.default_rng([25, i]), starts=m.n)
    assert made == []
    AssemblyGraph.over(2, [(0, 1)])
    assert len(made) == 1


# ---------------------------------------------------------------------------
# labelling output pinned: the record keys in order, which set prompt tuning's
# batches, and the labels within 1e-12

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "labelling_pins.json")


def pin_inputs():
    """Four generated complexes, and the 5-chain one again with each dimer's
    second chain moved 4 A, so that target growth meets a dead end."""
    ms = gen_multimer_set({4: 2, 5: 1, 6: 1}, seed=31)
    shifted = DimerLibrary()
    for a, b in ms[2].dimers.pairs():
        xa, xb = ms[2].dimers.get(a, b)
        shifted.add(a, b, xa, xb + np.array([4.0, 0.0, 0.0]))
    return ms + [dataclasses.replace(ms[2], name="shifted", dimers=shifted)]


def labelled(ms):
    """Target records, source records and best trees of ``ms`` as JSON rows,
    each row's label last."""
    target = [[r.multimer, r.cond_nodes, r.cond_edges, r.v_d, r.v_u, r.y]
              for i, m in enumerate(ms)
              for r in make_target_dataset(m, np.random.default_rng([32, i]), starts=m.n)]
    source = [[r.multimer, r.edges, r.y]
              for r in make_source_dataset([m for m in ms if m.n <= 5], 6, seed=33)]
    best = [[m.name, *best_assembly(m)] for m in ms]
    return json.loads(json.dumps({"target": target, "source": source, "best": best}))


def test_labelling_output_is_pinned():
    with open(PINS) as fh:
        want = json.load(fh)
    with pytest.warns(NoValidGrowthWarning, match="shifted"):
        got = labelled(pin_inputs())
    assert got.keys() == want.keys()
    for section in want:
        assert [row[:-1] for row in got[section]] == [row[:-1] for row in want[section]]
        for row, pinned in zip(got[section], want[section]):
            assert abs(row[-1] - pinned[-1]) <= 1e-12, (section, row)
