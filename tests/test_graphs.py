import dataclasses
import json

import numpy as np
import pytest

from stepasm import cli, graphs
from stepasm.datagen import gen_synthetic_multimer, label_actions, save_multimers
from stepasm.errors import (
    DegenerateGeometryError,
    DisconnectedTraversalError,
    LengthMismatchError,
    MissingDimerError,
    TreeTooLargeError,
)
from stepasm.geometry import kabsch_align, kabsch_fits
from stepasm.graphs import (
    AssemblyGraph,
    DimerLibrary,
    assembly_correctness,
    best_assembly,
    canonical_edges,
    edges_from_prufer,
    enumerate_scores,
    enumerate_uca,
    is_labeled_tree,
    place_chains,
    random_uca_edges,
)


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807)])
def test_enumerate_uca_cayley_counts(n, count):
    trees = enumerate_uca(n)
    assert len(trees) == count == n ** (n - 2) if n > 2 else len(trees) == count
    assert len(set(trees)) == count  # each exactly once
    for edges in trees:
        assert is_labeled_tree(range(n), edges)


def test_enumerate_uca_limit():
    with pytest.raises(TreeTooLargeError):
        enumerate_uca(9)


def test_prufer_known_decoding():
    # classic example: sequence (3, 3, 3, 4) on 6 nodes
    edges = edges_from_prufer((3, 3, 3, 4), 6)
    assert edges == ((0, 3), (1, 3), (2, 3), (3, 4), (4, 5))


def test_random_uca_hits_all_16_trees_n4():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(50_000):
        edges = random_uca_edges(4, rng)
        assert is_labeled_tree(range(4), edges)
        seen.add(edges)
    assert len(seen) == 16


def test_random_uca_always_tree():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 9, 17):
        for _ in range(50):
            assert is_labeled_tree(range(n), random_uca_edges(n, rng))


def test_is_labeled_tree_rejects():
    assert not is_labeled_tree(range(3), ((0, 1),))  # too few edges
    assert not is_labeled_tree(range(3), ((0, 1), (0, 1)))  # cycle via dup
    assert not is_labeled_tree(range(4), ((0, 1), (1, 2), (0, 2)))  # cycle
    assert not is_labeled_tree(range(3), ((0, 5), (1, 2)))  # unknown node


def test_canonical_edges_orders_and_rejects_loops():
    assert canonical_edges([(2, 0), (1, 0)]) == ((0, 1), (0, 2))
    with pytest.raises(ValueError):
        canonical_edges([(1, 1)])


def test_assembly_graph_validation():
    with pytest.raises(ValueError):
        AssemblyGraph.over(3, ((0, 1),))  # disconnected
    g = AssemblyGraph((4, 2, 7), ((7, 2), (2, 4)))
    assert g.nodes == (2, 4, 7)
    assert g.edges == ((2, 4), (2, 7))
    assert g.local_edges() == ((0, 1), (0, 2))


def test_dimer_library_orientation():
    lib = DimerLibrary()
    a = np.arange(12.0).reshape(4, 3)
    b = a + 5.0
    lib.add(1, 0, a, b)  # stored flipped internally
    xa, xb = lib.get(0, 1)
    assert np.array_equal(xa, b) and np.array_equal(xb, a)
    xa, xb = lib.get(1, 0)
    assert np.array_equal(xa, a) and np.array_equal(xb, b)
    assert lib.has(0, 1) and not lib.has(0, 2)
    with pytest.raises(MissingDimerError):
        lib.get(0, 2)


def test_place_chains_rejects_disconnected_edge():
    m = gen_synthetic_multimer(4, seed=3)
    order = [(0, 1), (2, 3)]  # second edge touches nothing placed
    if (0, 1) in {tuple(sorted(e)) for e in m.contact_edges}:
        with pytest.raises(DisconnectedTraversalError):
            place_chains(order, m.dimers)


def test_assemble_spanning_contact_tree_matches_gt():
    m = gen_synthetic_multimer(4, seed=11)
    g = m.graph_over(sorted(m.contact_edges)[: m.n - 1]) if is_labeled_tree(
        range(m.n), sorted(m.contact_edges)[: m.n - 1]
    ) else None
    if g is None:
        pytest.skip("first 3 contacts are not a tree for this seed")
    assert assembly_correctness(g, m) > 0.999


def test_best_assembly_is_contact_tree():
    m = gen_synthetic_multimer(4, seed=19)
    edges, score = best_assembly(m)
    assert score > 0.999
    assert set(edges) <= set(m.contact_edges)


def test_assemble_requires_all_dimers():
    m = gen_synthetic_multimer(3, seed=5)
    lib = DimerLibrary()
    lib.add(0, 1, *m.dimers.get(0, 1))
    with pytest.raises(MissingDimerError):
        place_chains(((0, 1), (1, 2)), lib)


def test_subgraph_features_align_with_nodes():
    m = gen_synthetic_multimer(5, seed=23)
    sub = m.subgraph((3, 1), ((1, 3),))
    assert sub.attrs.shape == (2, m.chain_features.shape[1])
    assert np.array_equal(sub.attrs[0], m.chain_features[1])
    assert np.array_equal(sub.attrs[1], m.chain_features[3])


def _counted_fits(monkeypatch):
    """The (references, mobiles) of every stacked fit the placer makes."""
    calls = []
    fit = graphs.kabsch_fits
    monkeypatch.setattr(graphs, "kabsch_fits", lambda *a: calls.append(a) or fit(*a))
    return calls


def _docked_chain(m, references):
    """The chain whose stored dimer copies ``references`` are."""
    (d,) = {d for d in range(m.n) for a in range(m.n) if a != d
            for x in references if m.dimers.get(d, a)[0] is x}
    return d


def test_enumerate_scores_fits_each_kabsch_triple_at_most_once(monkeypatch):
    m = gen_synthetic_multimer(6, seed=29)
    calls = _counted_fits(monkeypatch)
    scored = enumerate_scores(m)
    assert len(scored) == 6 ** 4
    # one fit per (docked chain, its partner, new chain): N(N-1)(N-2), not one
    # per edge of every tree (6^4 trees x 4 fits = 5 184)
    assert sum(len(references) for references, _ in calls) <= 6 * 5 * 4


def test_oracle_fits_once_per_docked_chain_per_call(monkeypatch):
    m = gen_synthetic_multimer(6, seed=29)
    calls = _counted_fits(monkeypatch)
    enumerate_scores(m)
    docked = [_docked_chain(m, references) for references, _ in calls]
    assert len(docked) == len(set(docked)) <= m.n
    # target growth: one Oracle over many calls, each fitting only what the
    # calls before it did not
    oracle = graphs.Oracle(m)
    fitted = set()
    for conditions in ([((0,), ())], [((0, 1), ((0, 1),)), ((0, 2), ((0, 2),))],
                       [((0, 1, 2), ((0, 1), (1, 2)))]):
        calls.clear()
        label_actions(oracle, conditions)
        docked = [_docked_chain(m, references) for references, _ in calls]
        assert len(docked) == len(set(docked)) <= m.n
        pairs = {(id(x), id(y)) for references, mobiles in calls
                 for x, y in zip(references, mobiles)}
        assert not pairs & fitted
        fitted |= pairs


def test_stacked_fit_is_each_pair_fit_bit_for_bit():
    m = gen_synthetic_multimer(5, seed=31)
    for d in range(m.n):
        others = [a for a in range(m.n) if a != d]
        pairs = [(a, w) for a in others for w in others if a != w]
        references = [m.dimers.get(d, a)[0] for a, _ in pairs]
        mobiles = [m.dimers.get(d, w)[0] for _, w in pairs]
        rotations, translations = kabsch_fits(references, mobiles)
        for k, (x, y) in enumerate(zip(references, mobiles)):
            single = kabsch_align(x, y)
            assert rotations[k].tobytes() == single.rotation.tobytes()
            assert translations[k].tobytes() == single.translation.tobytes()


def test_oracle_superposes_each_tree_once(monkeypatch):
    m = gen_synthetic_multimer(5, seed=30)
    trees = [(tuple(range(5)), edges) for edges in enumerate_uca(5)[:40]]
    trees += [((0, 1, 3), ((0, 1), (1, 3))), ((0, 1, 3), ((0, 3), (1, 3)))]
    oracle = graphs.Oracle(m)
    calls = []
    superpose = graphs.tm_scores
    monkeypatch.setattr(graphs, "tm_scores", lambda *a: calls.append(a) or superpose(*a))
    first = oracle.scores(trees)
    assert sum(len(pred) for pred, _ in calls) == len(trees)
    calls.clear()
    # asked again, in another order and with repeats: no superposition at all
    again = trees[::-1] + trees[:3]
    assert oracle.scores(again) == first[::-1] + first[:3]
    assert calls == []
    assert oracle.scores(trees + [trees[0]]) == first + [first[0]]
    assert calls == []


def _without_dimer(m):
    lib = DimerLibrary()
    for a, b in m.dimers.pairs():
        if (a, b) != (1, 2):
            lib.add(a, b, *m.dimers.get(a, b))
    return lib


def _collinear_copy(m):
    """Chain 1's copy in dimer (0, 1) on a line: fitting it onto chain 1's copy
    in (1, 2) has no unique rotation."""
    lib = DimerLibrary()
    for a, b in m.dimers.pairs():
        xa, xb = m.dimers.get(a, b)
        if (a, b) == (0, 1):
            xb = np.outer(np.arange(len(xb), dtype=float), [1.0, 2.0, 3.0])
        lib.add(a, b, xa, xb)
    return lib


def _uneven_copies(m):
    """Chain 1's copy in dimer (1, 2) one residue shorter than its copy in
    (0, 1): each fit that docks onto chain 1 stacks both."""
    lib = DimerLibrary()
    for a, b in m.dimers.pairs():
        xa, xb = m.dimers.get(a, b)
        lib.add(a, b, xa[:-1] if (a, b) == (1, 2) else xa, xb)
    return lib


def _short_copies(m):
    """Every dimer copy of chain 1 one residue shorter than its ground truth:
    the copies agree with each other, so only the ground truth tells."""
    lib = DimerLibrary()
    for a, b in m.dimers.pairs():
        xa, xb = m.dimers.get(a, b)
        lib.add(a, b, xa[:-1] if a == 1 else xa, xb[:-1] if b == 1 else xb)
    return lib


BROKEN_DIMERS = [
    (_without_dimer, MissingDimerError),
    (_collinear_copy, DegenerateGeometryError),
    (_short_copies, LengthMismatchError),
    (_uneven_copies, LengthMismatchError),
]
BROKEN_IDS = ["missing", "collinear", "short", "uneven"]


@pytest.fixture(scope="module")
def m3():
    return gen_synthetic_multimer(3, seed=5, name="m3")


@pytest.mark.parametrize("breaks,error", BROKEN_DIMERS, ids=BROKEN_IDS)
def test_oracle_raises_typed_errors_on_broken_dimers(m3, breaks, error):
    broken = dataclasses.replace(m3, dimers=breaks(m3))
    with pytest.raises(error):
        enumerate_scores(broken)
    # the path 0-1-2 docks 2 onto 1, placed from dimer (0, 1)
    with pytest.raises(error):
        assembly_correctness(broken.graph_over(((0, 1), (1, 2))), broken)
    # placement alone has no ground truth to find short copies against
    if breaks is not _short_copies:
        with pytest.raises(error):
            place_chains(((0, 1), (1, 2)), broken.dimers)


@pytest.mark.parametrize("breaks,error", BROKEN_DIMERS, ids=BROKEN_IDS)
def test_enumerate_oracle_cli_reports_broken_dimers(m3, breaks, error, tmp_path, capsys):
    path = tmp_path / "multimers.jsonl"
    save_multimers(path, [dataclasses.replace(m3, dimers=breaks(m3))])
    assert cli.main(["enumerate-oracle", "--multimers", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__
