"""Encoder + task-head training on whole-graph assembly-correctness regression."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError
from .nn.model import (
    GINConfig,
    GINParams,
    TaskHeadParams,
    forward_batch,
    named_union,
    pack_graphs,
)
from .training import TrainConfig, fit


@dataclass(frozen=True)
class PretrainConfig:
    train: TrainConfig = TrainConfig(lr=0.01)
    hidden_dim: int = GINConfig.hidden_dim
    head_hidden: int = 256
    num_layers: int = GINConfig.num_layers
    dropout: float = GINConfig.dropout
    seed: int = 0

    def __post_init__(self):
        self.gin_config()  # GINConfig checks the encoder values
        if self.head_hidden < 1:
            raise ValueError("head_hidden must be positive")

    def gin_config(self):
        return GINConfig(
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            dropout=self.dropout,
        )


def source_graphs(instances, multimers):
    """(features, local_edges, label, multimer) tuples ready for batching.

    A source tree spans all of its multimer's chains, so its features are the
    multimer's chain features and its edges are already local. Records are
    generated, or validated when loaded (``load_source_dataset``).
    """
    return [(multimers[inst.multimer].chain_features, inst.edges, inst.y, inst.multimer)
            for inst in instances]


def _batch_forward(graphs, gin, head):
    def forward(indices, training, rng):
        feats, edges, seg, g = pack_graphs([(graphs[i][0], graphs[i][1]) for i in indices])
        return forward_batch(feats, edges, seg, g, gin, head, rng=rng)

    return forward


def pretrain(instances, multimers, cfg=None):
    """Train encoder and head from scratch; returns (gin, head, log).

    Validation holds out whole multimers (a tenth of them), so graphs of one
    complex never sit on both sides of the split. Early stopping restores the
    best-validation parameters.
    """
    cfg = cfg or PretrainConfig()
    if not instances:
        raise EmptyDatasetError("no source instances")
    graphs = source_graphs(instances, multimers)
    gin = GINParams.init(cfg.gin_config(), [cfg.seed, 10])
    head = TaskHeadParams.init(gin.config.input_dim, cfg.head_hidden, [cfg.seed, 11])
    trainable = named_union(gin.named(), head.named())
    labels = [g[2] for g in graphs]
    keys = [g[3] for g in graphs]
    log = fit(labels, keys, _batch_forward(graphs, gin, head), trainable, cfg.train, cfg.seed)
    return gin, head, log


def evaluate_mae(gin, head, graphs):
    """Evaluation-mode MAE over (features, edges, label, ...) tuples."""
    if not graphs:
        raise EmptyDatasetError("no graphs to evaluate")
    feats, edges, seg, g = pack_graphs([(f, e) for f, e, *_ in graphs])
    pred = forward_batch(feats, edges, seg, g, gin, head).data.ravel()
    labels = np.array([item[2] for item in graphs])
    return float(np.mean(np.abs(pred - labels)))


def constant_mean_mae(labels):
    """MAE of the best constant predictor (the label mean) — a floor baseline."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise EmptyDatasetError("no labels")
    return float(np.mean(np.abs(labels - labels.mean())))
