"""Greedy path inference, step-count accounting, evaluation, CKA."""

import itertools

import numpy as np
import pytest

from stepasm.datagen import gen_synthetic_multimer
from stepasm.errors import (
    LengthMismatchError,
    MissingDimerError,
    NodeCollisionError,
    ShapeMismatchError,
    UntrainedPipelineError,
    ZeroVarianceError,
)
from stepasm.graphs import AssemblyGraph, DimerLibrary
from stepasm.inference import (
    SMALL_ASSEMBLY_MAX,
    DockingPath,
    EvalReport,
    ScoringPipeline,
    _pick,
    cka_similarity,
    evaluate,
    expected_step_evals,
    infer_path,
    predict_structure,
)
from stepasm.nn.model import GINConfig, GINParams, TaskHeadParams
from stepasm.prompt import PromptParams, pipeline_forward

DIM = 13


def untrained_pipeline(seed=70, **prompt_kw):
    gin = GINParams.init(GINConfig(dropout=0.0), seed)
    head = TaskHeadParams.init(DIM, 8, seed + 1)
    prompt = PromptParams.init(DIM, 8, seed + 2, dropout=0.0, **prompt_kw)
    return ScoringPipeline(gin, head, prompt)


def reference_prob(pipe, feats, nodes, edges, d, u):
    """One action scored alone through the single-item pipeline_forward."""
    cond = AssemblyGraph(nodes, edges, feats[sorted(nodes)])
    return pipeline_forward(cond, d, u, feats[u], pipe.gin, pipe.head, pipe.prompt)


class TablePipeline:
    """Deterministic stand-in scorer: fixed per-pair scores, same bookkeeping."""

    def __init__(self, table):
        self.table = table
        self.eval_count = 0

    def score_actions(self, chain_features, cond_nodes, cond_edges, pairs):
        self.eval_count += len(pairs)
        return np.array([self.table[p] for p in pairs])


def first_step_score(table, d, u):
    """Both orientations of a first action score as the better of the two."""
    return max(table[d, u], table[u, d])


def greedy_reference(n, table):
    """Re-derive the greedy choice sequence straight from the score table."""
    best = max(
        ((d, u) for d in range(n) for u in range(n) if d != u),
        key=lambda p: (first_step_score(table, *p), [-p[0], -p[1]]),
    )
    docked = sorted(best)
    actions = [best]
    while len(docked) < n:
        pairs = [
            (d, u) for d in docked for u in range(n) if u not in docked
        ]
        pick = max(pairs, key=lambda p: (table[p], [-p[0], -p[1]]))
        actions.append(pick)
        docked = sorted(docked + [pick[1]])
    return actions


def test_docking_path_validation():
    path = DockingPath(((0, 1), (1, 2)), (0.9, 0.8))
    assert path.n == 3
    assert path.edges() == ((0, 1), (1, 2))
    with pytest.raises(LengthMismatchError):
        DockingPath(((0, 1),), (0.9, 0.8))
    with pytest.raises(ValueError):
        DockingPath(((0, 1), (0, 1)), (0.9, 0.8))  # repeated edge: not a tree


def test_docking_path_text_roundtrip():
    path = DockingPath(((2, 0), (0, 1), (1, 3)), (0.75, 0.5, 0.25),
                       (12, 4, 3))
    assert path.to_text() == ("# docking path: 4 chains, 3 actions\n"
                              "1\t2\t0\t0.75\n2\t0\t1\t0.5\n3\t1\t3\t0.25\n")


@pytest.mark.parametrize("n", [5, 10, 20, 30])
def test_per_step_eval_counts_match_closed_form(n):
    expect = expected_step_evals(n)
    assert expect[0] == n * (n - 1)
    assert expect[1:] == tuple(k * (n - k) for k in range(2, n))
    table = {
        (d, u): float(np.sin(3.1 * d + 7.7 * u))
        for d in range(n)
        for u in range(n)
        if d != u
    }
    pipe = TablePipeline(table)
    path = infer_path(np.zeros((n, DIM)), pipe, large_pipeline=pipe)
    assert path.per_step_evals == expect
    assert pipe.eval_count == sum(expect)
    assert len(path.actions) == n - 1


def test_real_pipeline_reports_same_counts():
    n = 6
    pipe = untrained_pipeline()
    feats = np.random.default_rng(71).uniform(0.0, 0.6, size=(n, DIM))
    path = infer_path(feats, pipe)
    assert path.per_step_evals == expected_step_evals(n)


@pytest.mark.parametrize("prompt_kw", [{}, {"multi_head": True, "heads": 4}],
                         ids=["single-head", "multi-head"])
@pytest.mark.parametrize("condition", ["singleton", "first-step", "tree"])
def test_score_actions_match_single_item_pipeline(prompt_kw, condition):
    n = 8
    pipe = untrained_pipeline(**prompt_kw)
    feats = np.random.default_rng(80).uniform(0.0, 0.6, size=(n, DIM))
    if condition == "singleton":
        nodes, edges = (3,), ()
        pairs = [(3, u) for u in range(n) if u != 3]
    elif condition == "first-step":
        # infer_path's first call: every ordered pair, the edgeless condition
        # over all chains standing in for each pair's singleton {d}
        nodes, edges = tuple(range(n)), ()
        pairs = [(d, u) for d in range(n) for u in range(n) if u != d]
    else:
        nodes, edges = (0, 2, 3, 5, 6), ((0, 3), (2, 3), (3, 6), (5, 6))
        pairs = [(d, u) for d in nodes for u in range(n) if u not in nodes]
    scores = pipe.score_actions(feats, nodes, edges, pairs)
    assert scores.shape == (len(pairs),)
    for (d, u), p in zip(pairs, scores):
        ref_nodes, ref_edges = ((d,), ()) if condition == "first-step" else (nodes, edges)
        ref = reference_prob(pipe, feats, ref_nodes, ref_edges, d, u)
        assert abs(p - ref) <= 1e-12


def test_score_actions_rejects_pairs_that_are_no_docking_action():
    pipe = untrained_pipeline()
    feats = np.random.default_rng(84).uniform(0.0, 0.6, size=(5, DIM))
    with pytest.raises(ValueError, match="not in the condition graph"):
        pipe.score_actions(feats, (0, 1), ((0, 1),), [(0, 2), (3, 2)])
    with pytest.raises(NodeCollisionError):
        pipe.score_actions(feats, (0, 1), ((0, 1),), [(0, 2), (0, 1)])


def reference_infer_path(feats, small, large):
    """Greedy path straight from pipeline_forward, one action at a time."""
    n = feats.shape[0]
    first = {(d, u): reference_prob(small, feats, (d,), (), d, u)
             for d in range(n) for u in range(n) if u != d}
    best = min(first, key=lambda p: (-max(first[p], first[p[::-1]]), p))
    actions, docked, edges = [best], sorted(best), [tuple(sorted(best))]
    while len(docked) < n:
        pipe = small if len(docked) + 1 <= SMALL_ASSEMBLY_MAX else large
        scores = {(d, u): reference_prob(pipe, feats, tuple(docked), tuple(edges), d, u)
                  for d in docked for u in range(n) if u not in docked}
        d, u = min(scores, key=lambda p: (-scores[p], p))
        actions.append((d, u))
        docked = sorted(docked + [u])
        edges.append((min(d, u), max(d, u)))
    return actions


def test_infer_path_matches_single_item_reference_across_the_switch():
    n = SMALL_ASSEMBLY_MAX + 2  # steps to sizes 8 and 9 use the large prompt
    small = untrained_pipeline()
    large = ScoringPipeline(small.gin, small.head,
                            PromptParams.init(DIM, 8, 90, dropout=0.0))
    feats = np.random.default_rng(81).uniform(0.0, 0.6, size=(n, DIM))
    path = infer_path(feats, small, large_pipeline=large)
    assert list(path.actions) == reference_infer_path(feats, small, large)
    assert path.per_step_evals == expected_step_evals(n)
    docked, edges = [], []
    for step, ((d, u), p) in enumerate(zip(path.actions, path.probs)):
        pipe = small if step < SMALL_ASSEMBLY_MAX - 1 else large
        nodes = tuple(docked) if docked else (d,)
        assert abs(p - reference_prob(pipe, feats, nodes, tuple(edges), d, u)) <= 1e-12
        docked = sorted(set(docked) | {d, u})
        edges.append((min(d, u), max(d, u)))


class FreshChecked(ScoringPipeline):
    """The real pipeline, each call also scored by a fresh pipeline, which
    keeps nothing from earlier steps; records each call whose scores differ."""

    def __init__(self, gin, head, prompt):
        super().__init__(gin, head, prompt)
        self.calls = 0
        self.unequal = []  # (edges, max abs difference) of calls not uint64-equal

    def score_actions(self, chain_features, cond_nodes, cond_edges, pairs):
        got = super().score_actions(chain_features, cond_nodes, cond_edges, pairs)
        fresh = ScoringPipeline(self.gin, self.head, self.prompt).score_actions(
            chain_features, cond_nodes, cond_edges, pairs)
        self.calls += 1
        if not np.array_equal(got.view(np.uint64), fresh.view(np.uint64)):
            self.unequal.append((len(cond_edges), float(np.abs(got - fresh).max())))
        return got


@pytest.mark.parametrize("prompt_kw", [{}, {"multi_head": True, "heads": 4}],
                         ids=["single-head", "multi-head"])
@pytest.mark.parametrize("n", [8, 12, 30])
def test_incremental_steps_score_as_a_fresh_pipeline(n, prompt_kw):
    base = untrained_pipeline(**prompt_kw)
    small = FreshChecked(base.gin, base.head, base.prompt)
    large = FreshChecked(base.gin, base.head,
                         PromptParams.init(DIM, 8, 91, dropout=0.0, **prompt_kw))
    feats = np.random.default_rng(83 + n).uniform(0.0, 0.6, size=(n, DIM))
    path = infer_path(feats, small, large_pipeline=large)
    assert path.per_step_evals == expected_step_evals(n)
    # post-action sizes 2..7 go to the small prompt, 8..n to the large one
    assert (small.calls, large.calls) == (SMALL_ASSEMBLY_MAX - 1, n - SMALL_ASSEMBLY_MAX)
    assert small.unequal == [] and large.unequal == []


def test_incremental_steps_stay_within_rounding_at_wide_layers():
    # With a 512-wide prompt MLP and a 256-wide head, OpenBLAS runs a product
    # of a few rows through another kernel than the same rows among many,
    # so a kept row or probability can differ from a fresh pass in the last
    # bit; the path must not change.
    gin = GINParams.init(GINConfig(dropout=0.0), 92)
    head = TaskHeadParams.init(DIM, 256, 93)
    prompts = [PromptParams.init(DIM, 512, seed, dropout=0.0) for seed in (94, 95)]
    feats = np.random.default_rng(96).uniform(0.0, 0.6, size=(30, DIM))
    for p in prompts:
        p.standardize_from(feats)
    small, large = (FreshChecked(gin, head, p) for p in prompts)
    path = infer_path(feats, small, large_pipeline=large)
    assert max((diff for _, diff in small.unequal + large.unequal), default=0.0) <= 1e-12

    class Fresh:
        def __init__(self, prompt):
            self.prompt = prompt

        def score_actions(self, *args):
            return ScoringPipeline(gin, head, self.prompt).score_actions(*args)

    assert infer_path(feats, *(Fresh(p) for p in prompts)).actions == path.actions


@pytest.mark.parametrize("n", [2, 30])
def test_prompt_changed_between_paths_is_not_reused(n):
    small = untrained_pipeline()
    large = ScoringPipeline(small.gin, small.head, PromptParams.init(DIM, 8, 97, dropout=0.0))
    feats = np.random.default_rng(98).uniform(0.0, 0.6, size=(n, DIM))
    before = infer_path(feats, small, large_pipeline=large)
    for prompt in (small.prompt, large.prompt):
        for t in prompt.named().values():
            t.data *= 1.5  # in place: the arrays a kept row was computed from
    after = infer_path(feats, small, large_pipeline=large)
    fresh = infer_path(feats, ScoringPipeline(small.gin, small.head, small.prompt),
                       ScoringPipeline(large.gin, large.head, large.prompt))
    assert after.probs != before.probs
    assert after == fresh


def test_pick_breaks_ties_by_pair_and_skips_missing_dimers():
    pairs = [(2, 0), (0, 3), (1, 0), (0, 1), (3, 1), (1, 2)]
    scores = np.array([0.5, 0.7, 0.7, 0.7, 0.2, 0.5])
    # (prob desc, v_d asc, v_u asc): (0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (3, 1)
    assert _pick(pairs, scores, None) == ((0, 1), 0.7, 0.0, False)
    coords = np.random.default_rng(99).random((60, 3))
    dimers = DimerLibrary()
    for a, b in itertools.combinations(range(4), 2):
        if (a, b) != (0, 1):
            dimers.add(a, b, coords, coords + 1.0)
    assert _pick(pairs, scores, dimers) == ((0, 3), 0.7, 0.0, True)
    dimers = DimerLibrary()
    for a, b in ((1, 2), (0, 2), (1, 3)):
        dimers.add(a, b, coords, coords + 1.0)
    # the first pair with a dimer is (1, 2); its rival is (0, 1) at 0.7
    pair, prob, margin, fell_back = _pick(pairs, scores, dimers)
    assert (pair, prob, fell_back) == ((1, 2), 0.5, True)
    assert margin == pytest.approx(-0.2)
    rng = np.random.default_rng(100)
    for _ in range(50):
        pairs = [tuple(p) for p in rng.permutation(list(itertools.permutations(range(5), 2)))]
        scores = rng.integers(0, 3, size=len(pairs)) / 4.0
        order = sorted(range(len(pairs)), key=lambda i: (-scores[i], pairs[i]))
        assert _pick(pairs, scores, None)[0] == pairs[order[0]]


def test_first_action_lists_the_smaller_chain_first():
    # p(d, u) and p(u, d) under singleton conditions score one 4-node path
    # and its reverse, so the (prob desc, v_d asc) tie-break must pick
    # (min, max); at feature draw 143 rounding alone scores (max, min) higher
    pipe = untrained_pipeline()
    for seed in range(100, 150):
        feats = np.random.default_rng(seed).uniform(0.0, 0.6, size=(6, DIM))
        d, u = infer_path(feats, pipe).actions[0]
        assert d < u, seed


def test_margins_and_fallbacks_report_how_sure_each_step_was():
    table = {
        (0, 1): 0.6, (1, 0): 0.9, (2, 3): 0.5, (3, 2): 0.4,
        (0, 2): 0.3, (2, 0): 0.3, (0, 3): 0.2, (3, 0): 0.2,
        (1, 2): 0.7, (2, 1): 0.1, (1, 3): 0.1, (3, 1): 0.1,
    }
    path = infer_path(np.zeros((4, DIM)), TablePipeline(table))
    # first step: both orientations of {0, 1} score 0.9, the best other pair
    # {1, 2} scores 0.7; then 0.7 vs (0, 2) and 0.5 vs (0, 3)
    assert path.actions == ((0, 1), (1, 2), (2, 3))
    assert path.probs == (0.9, 0.7, 0.5)
    assert path.margins == pytest.approx((0.2, 0.4, 0.3))
    assert path.fallbacks == 0

    dimers = DimerLibrary()
    coords = np.random.default_rng(82).random((60, 3))
    for a, b in itertools.combinations(range(4), 2):
        if (a, b) != (1, 2):
            dimers.add(a, b, coords, coords + 1.0)
    path = infer_path(np.zeros((4, DIM)), TablePipeline(table), dimers=dimers)
    # step two must skip (1, 2) and settle for (0, 2), 0.4 below it
    assert path.actions == ((0, 1), (0, 2), (2, 3))
    assert path.margins == pytest.approx((0.2, -0.4, 0.3))
    assert path.fallbacks == 1

    two = infer_path(np.zeros((2, DIM)), TablePipeline({(0, 1): 0.4, (1, 0): 0.3}))
    assert two.actions == ((0, 1),) and two.probs == (0.4,)
    assert two.margins == (None,)  # no other pair to compare with


def test_greedy_choices_match_brute_force_reference():
    n = 7
    rng = np.random.default_rng(72)
    table = {
        (d, u): float(rng.random())
        for d in range(n)
        for u in range(n)
        if d != u
    }
    pipe = TablePipeline(table)
    path = infer_path(np.zeros((n, DIM)), pipe)
    assert list(path.actions) == greedy_reference(n, table)
    assert path.probs[0] == first_step_score(table, *path.actions[0])
    for (d, u), p in zip(path.actions[1:], path.probs[1:]):
        assert p == pytest.approx(table[(d, u)])


def test_large_assemblies_switch_to_the_second_pipeline():
    n = SMALL_ASSEMBLY_MAX + 2  # 9 chains: steps beyond size 7 use the adapted prompt
    table = {
        (d, u): float(np.cos(d + 2.0 * u))
        for d in range(n)
        for u in range(n)
        if d != u
    }
    small, large = TablePipeline(table), TablePipeline(table)
    path = infer_path(np.zeros((n, DIM)), small, large_pipeline=large)
    assert len(path.actions) == n - 1
    expect = expected_step_evals(n)
    # post-action sizes 2..7 go to the small pipeline, 8..9 to the large one
    boundary = SMALL_ASSEMBLY_MAX - 1
    assert small.eval_count == sum(expect[:boundary])
    assert large.eval_count == sum(expect[boundary:])
    with pytest.raises(UntrainedPipelineError, match="adapted prompt"):
        infer_path(np.zeros((n, DIM)), small)


def test_missing_dimers_fall_back_to_next_best():
    n = 4
    table = {
        (d, u): 1.0 if (d, u) == (0, 3) else 0.5 - 0.01 * (d + u)
        for d in range(n)
        for u in range(n)
        if d != u
    }
    dimers = DimerLibrary()
    coords = np.random.default_rng(73).random((60, 3))
    for a, b in itertools.combinations(range(n), 2):
        if (a, b) != (0, 3):
            dimers.add(a, b, coords, coords + 1.0)
    pipe = TablePipeline(table)
    path = infer_path(np.zeros((n, DIM)), pipe, dimers=dimers)
    assert path.actions[0] != (0, 3)
    assert (0, 3) not in {tuple(sorted(a)) for a in path.actions}


def test_no_available_dimer_raises():
    pipe = TablePipeline({(0, 1): 1.0, (1, 0): 0.5})
    with pytest.raises(MissingDimerError):
        infer_path(np.zeros((2, DIM)), pipe, dimers=DimerLibrary())


def test_predicted_structure_from_true_contacts_matches_gt():
    m = gen_synthetic_multimer(5, np.random.default_rng(74))
    # walk the contact tree in a valid docking order
    contacts = sorted(m.contact_edges)
    docked = {contacts[0][0]}
    actions = []
    remaining = list(contacts)
    while remaining:
        for e in remaining:
            a, b = e
            if a in docked and b not in docked:
                actions.append((a, b))
            elif b in docked and a not in docked:
                actions.append((b, a))
            else:
                continue
            docked.add(actions[-1][1])
            remaining.remove(e)
            break
    path = DockingPath(tuple(actions), tuple([1.0] * len(actions)))
    pred = predict_structure(m.chains, m.dimers, path)
    report = evaluate([pred], [m.gt_coords], ["m"])
    assert report.tm_mean > 0.999
    assert report.rmsd_mean < 0.5


def test_predict_structure_rejects_wrong_chain_count():
    m = gen_synthetic_multimer(4, np.random.default_rng(75))
    path = DockingPath(((0, 1), (1, 2)), (1.0, 1.0))
    with pytest.raises(LengthMismatchError):
        predict_structure(m.chains, m.dimers, path)


def test_eval_report_aggremates_and_text():
    rows = [("a", 0.9, 1.0), ("b", 0.7, 3.0), ("c", 0.8, 2.0)]
    rep = EvalReport.from_rows(rows)
    assert rep.tm_mean == pytest.approx(0.8)
    assert rep.tm_median == pytest.approx(0.8)
    assert rep.rmsd_mean == pytest.approx(2.0)
    text = rep.to_text()
    assert "mean" in text and "median" in text and "a" in text
    d = rep.to_dict()
    assert d["rows"][0] == {"name": "a", "tm": 0.9, "rmsd": 1.0}


def test_evaluate_requires_matching_counts():
    with pytest.raises(LengthMismatchError):
        evaluate([[np.zeros((3, 3))]], [])
    with pytest.raises(LengthMismatchError):
        evaluate([], [])
    three = [[np.random.default_rng(i).normal(size=(5, 3))] for i in range(3)]
    with pytest.raises(LengthMismatchError, match="1 names for 3 samples"):
        evaluate(three, three, ["only-one"])


# ---------------------------------------------------------------------------
# representation similarity


def test_cka_self_similarity_is_one():
    h = np.random.default_rng(76).normal(size=(100, 16))
    assert cka_similarity(h, h) == pytest.approx(1.0, abs=1e-12)


def test_cka_invariant_to_orthogonal_maps_and_scale():
    rng = np.random.default_rng(77)
    h = rng.normal(size=(200, 24))
    qmat, _ = np.linalg.qr(rng.normal(size=(24, 24)))
    assert cka_similarity(h, 3.7 * (h @ qmat)) == pytest.approx(1.0, abs=1e-6)


def test_cka_low_for_independent_representations():
    rng = np.random.default_rng(78)
    a = rng.normal(size=(2000, 32))
    b = rng.normal(size=(2000, 32))
    assert cka_similarity(a, b) < 0.2


def test_cka_input_validation():
    with pytest.raises(ShapeMismatchError):
        cka_similarity(np.zeros((4, 2)), np.zeros((5, 2)))
    with pytest.raises(ShapeMismatchError):
        cka_similarity(np.zeros(4), np.zeros((4, 2)))
    with pytest.raises(ZeroVarianceError):
        cka_similarity(np.ones((10, 3)), np.random.default_rng(79).normal(size=(10, 3)))
