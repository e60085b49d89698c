"""Meta-learned prompt initialization (inner/outer loop) and large-scale adaptation.

The meta logic runs on flat parameter vectors through a small objective
interface, so the same code path drives both the real prompt pipeline and the
tiny analytic problems used to verify it. First-order updates are the
default; the exact second-order outer gradient (for one inner step) is
available and computes its Hessian-vector product by central differences on
the analytic inner gradient.
"""

from dataclasses import dataclass

import numpy as np

from .datagen import split_by_scale
from .errors import EmptyDatasetError, InsufficientDataError
from .nn.model import flatten_named, grad_vector, load_vector
from .nn.tensor import bce_loss
from .prompt import PromptParams, PromptTuneConfig, query_embeddings, query_rows, score_rows
# not called here; kept because perfbench/spans.py patches this name
from .prompt import pipeline_forward_batch  # noqa: F401


@dataclass(frozen=True)
class MetaStageConfig:
    """The meta stage's settings; the run config's ``meta`` section."""

    inner_lr: float = 0.01
    outer_lr: float = 0.001
    task_batch: int = 4
    support_size: int = 8
    query_size: int = 8
    inner_steps: int = 1
    first_order: bool = True
    epochs: int = 40
    pool_size: int = 32
    adapt_steps: int = 1

    def __post_init__(self):
        if self.inner_lr < 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive (inner may be zero)")
        if min(self.task_batch, self.support_size, self.query_size,
               self.inner_steps, self.epochs, self.pool_size) < 1:
            raise ValueError("meta config counts must be positive")
        if self.adapt_steps < 0:
            raise ValueError("adapt_steps must be non-negative (0 skips adaptation)")


@dataclass(frozen=True)
class MetaConfig(MetaStageConfig):
    seed: int = 0


class VectorObjective:
    """A scalar objective over a flat parameter vector, restricted to data subsets.

    loss(vec, idx) and grad(vec, idx) evaluate on the examples selected by
    ``idx``; n_examples bounds the index range.
    """

    def __init__(self, loss_fn, grad_fn, dim, n_examples):
        self._loss = loss_fn
        self._grad = grad_fn
        self.dim = int(dim)
        self.n_examples = int(n_examples)

    def loss(self, vec, idx):
        return float(self._loss(np.asarray(vec, dtype=np.float64), np.asarray(idx)))

    def grad(self, vec, idx):
        g = self._grad(np.asarray(vec, dtype=np.float64), np.asarray(idx))
        return np.asarray(g, dtype=np.float64)


def prompt_objective(items, gin, head, template):
    """VectorObjective over prompt-MLP weights: tuning loss of the pipeline.

    ``template`` supplies architecture and receives the vector on every call;
    forwards run in evaluation mode so the objective is deterministic. The
    frozen encoder's stage-1 rows are therefore constants: they are encoded
    once, here, and each call runs only the prompt MLP and stage 2.
    """
    gin.set_trainable(False)
    head.set_trainable(False)
    work = template.copy()
    work.set_trainable(True)
    # whitening buffers stay out of the vector: they are data statistics, and
    # a vector coordinate the gradient reports as zero must not move the loss
    named = work.trainable_named()
    vec0, layout = flatten_named(named)
    labels = np.array([it.y for it in items])
    h, d_rows, u_rows = query_embeddings(items, gin)

    def run(vec, idx, want_grad):
        load_vector(named, layout, vec)
        pred = score_rows(h, d_rows[idx], u_rows[idx], gin, head, work)
        loss = bce_loss(pred, labels[idx])
        if not want_grad:
            return float(loss.data)
        for t in named.values():
            t.grad = None
        loss.backward()
        return grad_vector(named, layout)

    return (
        VectorObjective(
            lambda v, i: run(v, i, False), lambda v, i: run(v, i, True),
            vec0.size, len(items),
        ),
        vec0,
        layout,
    )


def sample_task_pool(objective_size, cfg, seed):
    """Disjoint support/query index pairs; deterministic for a given seed."""
    need = cfg.support_size + cfg.query_size
    if objective_size < need:
        raise InsufficientDataError(
            f"need {need} examples per task, have {objective_size}"
        )
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(cfg.pool_size):
        picked = rng.choice(objective_size, size=need, replace=False)
        tasks.append((picked[: cfg.support_size], picked[cfg.support_size :]))
    return tasks


def _maml_task(objective, vec, support, query, alpha, inner_steps, first_order):
    """(outer gradient, adapted vector) of one task: see maml_outer_gradient."""
    adapted = vec
    for _ in range(inner_steps):
        adapted = adapted - alpha * objective.grad(adapted, support)
    gq = objective.grad(adapted, query)
    if first_order or alpha == 0.0:
        return gq, adapted
    if inner_steps != 1:
        raise ValueError("exact second-order path supports a single inner step")
    norm = np.linalg.norm(gq)
    if norm == 0.0:
        return gq, adapted
    eps = 1e-6 * (1.0 + np.linalg.norm(vec)) / norm
    hvp = (
        objective.grad(vec + eps * gq, support)
        - objective.grad(vec - eps * gq, support)
    ) / (2.0 * eps)
    return gq - alpha * hvp, adapted


def maml_outer_gradient(objective, vec, support, query, alpha, inner_steps=1,
                        first_order=True):
    """Gradient of the query loss after the inner update, wrt the initial vec.

    First-order mode returns the query gradient at the adapted point. The
    exact mode (single inner step) applies the correction
    (I - alpha * H_support) to it, with the Hessian-vector product taken by
    central differences of the analytic support gradient.
    """
    return _maml_task(objective, vec, support, query, alpha, inner_steps, first_order)[0]


def meta_initialize(objective, vec0, cfg):
    """Meta-train an initialization: B inner adaptations per epoch, one outer step.

    Returns (meta-initialized vector, per-epoch log of mean adapted query loss).
    """
    pool = sample_task_pool(objective.n_examples, cfg, [cfg.seed, 30])
    rng = np.random.default_rng([cfg.seed, 31])
    vec = np.array(vec0, dtype=np.float64)
    log = []
    for epoch in range(cfg.epochs):
        picks = rng.choice(len(pool), size=min(cfg.task_batch, len(pool)), replace=False)
        total = np.zeros_like(vec)
        qloss = 0.0
        for t in picks:
            support, query = pool[t]
            grad, adapted = _maml_task(objective, vec, support, query, cfg.inner_lr,
                                       cfg.inner_steps, cfg.first_order)
            total += grad
            qloss += objective.loss(adapted, query)
        vec = vec - cfg.outer_lr * total
        log.append({"epoch": epoch, "query_loss": qloss / picks.size})
    return vec, log


def adapt(objective, vec, alpha, steps=1):
    """Full-batch gradient steps on all examples; never ends above the start loss.

    Each step halves its rate until the loss stops increasing (up to 20
    times), so a too-aggressive alpha degrades to smaller moves instead of
    diverging. alpha = 0 returns the vector unchanged.
    """
    all_idx = np.arange(objective.n_examples)
    if all_idx.size == 0:
        raise EmptyDatasetError("no adaptation examples")
    out = np.array(vec, dtype=np.float64)
    if alpha == 0.0:
        return out
    for _ in range(steps):
        base = objective.loss(out, all_idx)
        g = objective.grad(out, all_idx)
        rate = alpha
        for _ in range(20):
            cand = out - rate * g
            if objective.loss(cand, all_idx) <= base:
                out = cand
                break
            rate *= 0.5
    return out


def meta_prompt(items, gin, head, meta_cfg=None, tune_cfg=None):
    """End-to-end meta path on real data: returns (pi_meta, pi_adapted, log).

    Small-scale items (N <= 7) drive meta-initialization; large-scale items
    (N >= 8) drive the final adaptation. With no large items the adapted
    prompt equals the meta one.
    """
    meta_cfg = meta_cfg or MetaConfig()
    tune_cfg = tune_cfg or PromptTuneConfig()
    small, large = split_by_scale(items)
    if not small:
        raise InsufficientDataError("meta-initialization needs small-scale items")
    template = PromptParams.init(
        gin.config.input_dim, tune_cfg.mlp_hidden, [meta_cfg.seed, 32],
        heads=tune_cfg.heads, multi_head=tune_cfg.multi_head,
        dropout=tune_cfg.dropout,
    )
    gin.set_trainable(False)
    head.set_trainable(False)
    template.standardize_from(query_rows(items, gin))
    objective, vec0, layout = prompt_objective(small, gin, head, template)
    vec_meta, log = meta_initialize(objective, vec0, meta_cfg)
    pi_meta = template.copy()
    load_vector(pi_meta.named(), layout, vec_meta)
    if large:
        large_obj, _, _ = prompt_objective(large, gin, head, template)
        vec_star = adapt(large_obj, vec_meta, meta_cfg.inner_lr, meta_cfg.adapt_steps)
    else:
        vec_star = vec_meta
    pi_star = template.copy()
    load_vector(pi_star.named(), layout, vec_star)
    return pi_meta, pi_star, log
