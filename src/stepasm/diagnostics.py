"""Finite-difference gradient verification for the full model pipeline."""

import numpy as np

from .nn.model import (
    GINConfig,
    GINParams,
    TaskHeadParams,
    flatten_named,
    forward_batch,
    grad_vector,
    load_vector,
    named_union,
    pack_graphs,
)
from .nn.tensor import mae_loss
from .graphs import random_uca_edges


def central_diff_grad(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return g


def relative_error(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    return num / max(den, 1e-12)


def _check_batch(graphs, targets, cfg, head_hidden, gin_seed, head_seed):
    """Relative error of the analytic gradient of encoder -> readout -> MAE
    loss over one disjoint-union batch of (features, edges) graphs."""
    feats, edges, seg, g = pack_graphs(graphs)
    gin = GINParams.init(cfg, gin_seed)
    head = TaskHeadParams.init(cfg.input_dim, head_hidden, head_seed)
    named = named_union(gin.named(), head.named())
    vec0, layout = flatten_named(named)

    def loss_at(vec):
        load_vector(named, layout, vec)
        pred = forward_batch(feats, edges, seg, g, gin, head)
        return float(mae_loss(pred, targets).data)

    load_vector(named, layout, vec0)
    pred = forward_batch(feats, edges, seg, g, gin, head)
    loss = mae_loss(pred, targets)
    for t in named.values():
        t.grad = None
    loss.backward()
    analytic = grad_vector(named, layout)
    numeric = central_diff_grad(loss_at, vec0)
    return relative_error(analytic, numeric)


def gradcheck(num_graphs=50, seed=0):
    """Max relative error over random graphs, one graph per check.

    Uses tiny layer widths so the flattened parameter vector stays small
    enough for exhaustive coordinate-wise differencing.
    """
    rng = np.random.default_rng(seed)
    cfg = GINConfig(hidden_dim=8, dropout=0.0)
    worst = 0.0
    for trial in range(num_graphs):
        n = int(rng.integers(2, 6))
        edges = random_uca_edges(n, rng)
        feats = rng.standard_normal((n, cfg.input_dim))
        target = rng.random((1, 1))
        err = _check_batch([(feats, edges)], target, cfg, 8,
                           [seed, trial, 0], [seed, trial, 1])
        worst = max(worst, err)
    return worst


def batched_gradcheck(seed=0):
    """Same check with several graphs fused into one disjoint-union batch."""
    rng = np.random.default_rng(seed)
    cfg = GINConfig(hidden_dim=6, dropout=0.0)
    graphs = []
    targets = []
    for _ in range(4):
        n = int(rng.integers(2, 5))
        graphs.append((rng.standard_normal((n, cfg.input_dim)), random_uca_edges(n, rng)))
        targets.append(rng.random())
    return _check_batch(graphs, np.array(targets), cfg, 6, [seed, 100], [seed, 101])
