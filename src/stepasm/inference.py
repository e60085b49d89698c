"""Greedy docking-path inference, structure reconstruction, and evaluation.

Inference runs N-1 steps. The first step scores every ordered chain pair
(d, u) under a singleton condition graph {d}; each later step, with k chains
docked, scores all k(N-k) docked/undocked pairs against the current partial
assembly and appends the argmax action. While the assembly (after the action)
still has at most 7 chains the meta-initialized prompt scores the candidates;
beyond that the large-scale-adapted prompt takes over.

The first step is one scoring call: its condition is the edgeless graph over
all N chains, in which each chain encodes exactly as in its singleton {d}.
That call encodes every chain once, giving each its row h and, in
single-head mode, its prompt row T(h); an undocked chain keeps both for the
rest of the path. A step's new edge changes only the rows of the docked
chains within the encoder's reach of it, so each later step encodes only the
condition graph (k rows), runs the prompt MLP only on the docked rows that
changed, and runs stage 2 (the 4-node prompt path and the head, as block
sums in prompt.score_paths) only on the pairs with such a row; every other
pair keeps its probability from the step before (ScoringPipeline).
``per_step_evals`` still counts every candidate ranked. The encoder, head
and prompts must not change while a path is scored.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .datagen import SMALL_SCALE_MAX
from .errors import (
    LengthMismatchError,
    MissingDimerError,
    ShapeMismatchError,
    UntrainedPipelineError,
    ZeroVarianceError,
)
from .geometry import superposed_scores
from .graphs import AssemblyGraph, canonical_edges, place_chains
# the scorer infer_path takes; the CLI and the package import it from here
from .prompt import ScoringPipeline  # noqa: F401
# not called here; kept because perfbench/spans.py patches this name
from .prompt import pipeline_forward_batch  # noqa: F401

logger = logging.getLogger("stepasm")

# largest post-action size still scored by the meta prompt: the meta prompt is
# trained on the small-scale items
SMALL_ASSEMBLY_MAX = SMALL_SCALE_MAX


@dataclass(frozen=True)
class DockingPath:
    """Ordered assembly actions with their linking probabilities.

    ``margins`` holds, per step, the chosen probability minus the best
    candidate on a different unordered chain pair (None when there is no
    such candidate); ``fallbacks`` counts the steps whose preferred pair had
    no stored dimer.
    """

    actions: tuple  # ((v_d, v_u), ...) in execution order
    probs: tuple
    per_step_evals: tuple = ()
    margins: tuple = ()
    fallbacks: int = 0

    def __post_init__(self):
        if len(self.actions) != len(self.probs):
            raise LengthMismatchError("one probability per action required")
        AssemblyGraph.over(len(self.actions) + 1, self.actions)  # tree check

    @property
    def n(self):
        return len(self.actions) + 1

    def edges(self):
        return canonical_edges(self.actions)

    def to_text(self):
        lines = [f"# docking path: {self.n} chains, {len(self.actions)} actions"]
        for i, ((d, u), p) in enumerate(zip(self.actions, self.probs), start=1):
            lines.append(f"{i}\t{d}\t{u}\t{p!r}")
        return "\n".join(lines) + "\n"


def _pick(pairs, scores, dimers):
    """Argmax with (prob desc, v_d asc, v_u asc) order; skips missing dimers.

    Returns (pair, prob, margin, fell_back): margin is prob minus the best
    score on a different unordered pair (None if there is none), fell_back
    whether a missing dimer was skipped.
    """
    ends = np.asarray(pairs)
    order = np.lexsort((ends[:, 1], ends[:, 0], -np.asarray(scores))).tolist()
    for i in order:
        d, u = pairs[i]
        if dimers is None or dimers.has(d, u):
            break
    else:
        raise MissingDimerError("no candidate action has a stored dimer")
    fell_back = i != order[0]
    if fell_back:
        logger.warning(
            "dimer missing for preferred pair %s; using (%d, %d) instead",
            pairs[order[0]], d, u,
        )
    rival = next((scores[j] for j in order if {*pairs[j]} != {d, u}), None)
    margin = None if rival is None else float(scores[i] - rival)
    return (d, u), float(scores[i]), margin, fell_back


def infer_path(chain_features, small_pipeline, large_pipeline=None, dimers=None):
    """Greedy N-1 step docking path for one multimer.

    ``chain_features`` is the (N, d) chain-embedding matrix. The large-scale
    pipeline is only consulted once the post-action assembly exceeds
    SMALL_ASSEMBLY_MAX chains; omitting it is fine for small complexes.
    """
    chain_features = np.asarray(chain_features, dtype=np.float64)
    n = chain_features.shape[0]
    if n < 2:
        raise ValueError("need at least two chains")
    if n > SMALL_ASSEMBLY_MAX and large_pipeline is None:
        raise UntrainedPipelineError(
            f"assemblies beyond {SMALL_ASSEMBLY_MAX} chains need the adapted prompt"
        )
    actions, probs, evals, margins = [], [], [], []
    fallbacks = 0
    docked = []
    edges = []
    while len(actions) < n - 1:
        post_size = 2 if not docked else len(docked) + 1
        pipe = small_pipeline if post_size <= SMALL_ASSEMBLY_MAX else large_pipeline
        if not docked:
            # first action: every ordered pair (d, u) under its singleton {d}; the
            # edgeless graph over all chains encodes each chain as its singleton
            pairs = [(d, u) for d in range(n) for u in range(n) if u != d]
            scores = pipe.score_actions(chain_features, tuple(range(n)), (), pairs)
            # (d, u) and (u, d) score the same 4-node path reversed, equal up to
            # rounding; scoring both the same lets the tie-break pick (min, max)
            index = {pair: i for i, pair in enumerate(pairs)}
            scores = np.maximum(scores, scores[[index[u, d] for d, u in pairs]])
            (d, u), p, margin, fell_back = _pick(pairs, scores, dimers)
            docked = [d, u] if d < u else [u, d]
        else:
            undocked = [u for u in range(n) if u not in docked]
            pairs = [(d, u) for d in sorted(docked) for u in undocked]
            scores = pipe.score_actions(chain_features, tuple(docked), tuple(edges), pairs)
            (d, u), p, margin, fell_back = _pick(pairs, scores, dimers)
            docked = sorted(docked + [u])
        edges.append((d, u) if d < u else (u, d))
        actions.append((d, u))
        probs.append(p)
        evals.append(len(pairs))
        margins.append(margin)
        fallbacks += fell_back
    return DockingPath(tuple(actions), tuple(probs), tuple(evals), tuple(margins),
                       fallbacks)


def expected_step_evals(n):
    """Closed-form candidates ranked per step: N(N-1) ordered pairs first,
    then k(N-k). Stage 2 runs on fewer of them after the first step, only on
    the pairs the step's new edge can reach."""
    return tuple([n * (n - 1)] + [k * (n - k) for k in range(2, n)])


def predict_structure(chains, dimers, path):
    """Per-chain coordinates from walking the path's actions in order."""
    if path.n != len(chains):
        raise LengthMismatchError(
            f"path covers {path.n} chains, input has {len(chains)}"
        )
    placed = place_chains(path.actions, dimers)
    return [placed[i] for i in range(len(chains))]


@dataclass(frozen=True)
class EvalReport:
    """Per-sample structural scores plus their aggregates."""

    rows: tuple  # (name, tm, rmsd)
    tm_mean: float
    tm_median: float
    rmsd_mean: float
    rmsd_median: float

    @classmethod
    def from_rows(cls, rows):
        tms = np.array([r[1] for r in rows])
        rmsds = np.array([r[2] for r in rows])
        return cls(
            rows=tuple(rows),
            tm_mean=float(tms.mean()),
            tm_median=float(np.median(tms)),
            rmsd_mean=float(rmsds.mean()),
            rmsd_median=float(np.median(rmsds)),
        )

    def to_dict(self):
        return {
            "rows": [
                {"name": n, "tm": t, "rmsd": r} for n, t, r in self.rows
            ],
            "tm_mean": self.tm_mean,
            "tm_median": self.tm_median,
            "rmsd_mean": self.rmsd_mean,
            "rmsd_median": self.rmsd_median,
        }

    def to_text(self):
        lines = [f"{'sample':<24}{'TM':>10}{'RMSD':>12}"]
        for name, tm, rmsd in self.rows:
            lines.append(f"{name:<24}{tm:>10.4f}{rmsd:>12.3f}")
        lines.append(
            f"{'mean':<24}{self.tm_mean:>10.4f}{self.rmsd_mean:>12.3f}"
        )
        lines.append(
            f"{'median':<24}{self.tm_median:>10.4f}{self.rmsd_median:>12.3f}"
        )
        return "\n".join(lines) + "\n"


def evaluate(predictions, ground_truths, names=None):
    """Whole-complex TM and RMSD per sample after one global superposition."""
    if len(predictions) != len(ground_truths):
        raise LengthMismatchError("prediction and ground-truth counts differ")
    if not predictions:
        raise LengthMismatchError("nothing to evaluate")
    names = names or [f"sample-{i}" for i in range(len(predictions))]
    if len(names) != len(predictions):
        raise LengthMismatchError(
            f"{len(names)} names for {len(predictions)} samples")
    rows = []
    for name, pred, gt in zip(names, predictions, ground_truths):
        p = np.concatenate([np.asarray(c) for c in pred])
        g = np.concatenate([np.asarray(c) for c in gt])
        tm, rmsd = superposed_scores(p, g)
        rows.append((name, tm, rmsd))
    return EvalReport.from_rows(rows)


def cka_similarity(h_a, h_b):
    """Linear centered-kernel-alignment similarity between representations.

    Rows are samples (must match); columns may differ. 1 means identical up
    to orthogonal transforms and scaling; independent features approach 0.
    """
    a = np.asarray(h_a, dtype=np.float64)
    b = np.asarray(h_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatchError("CKA expects 2-D matrices")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError(
            f"row counts differ: {a.shape[0]} vs {b.shape[0]}"
        )
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    cross = np.linalg.norm(a.T @ b) ** 2
    norm_a = np.linalg.norm(a.T @ a)
    norm_b = np.linalg.norm(b.T @ b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVarianceError("an input has no variance; CKA undefined")
    return float(cross / (norm_a * norm_b))
