"""Shared minibatch training loop: Adam, grouped validation split, early stop."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError
from .nn.optim import Adam
from .nn.tensor import add, bce_loss, mae_loss

LOSSES = {"mae": mae_loss, "bce": bce_loss}


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int = 300
    batch_size: int = 512
    patience: int = 20
    val_fraction: float = 0.1
    loss: str = "mae"

    def __post_init__(self):
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("training config values must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {sorted(LOSSES)}")


def group_split(group_keys, val_fraction, rng):
    """Index split where validation holds out whole groups (no group straddles)."""
    groups = sorted(set(group_keys))
    if len(groups) < 2 or val_fraction <= 0.0:
        return np.arange(len(group_keys)), np.zeros(0, dtype=np.intp)
    shuffled = list(groups)
    rng.shuffle(shuffled)
    # at least one group on each side
    n_val = min(max(1, int(round(val_fraction * len(groups)))), len(groups) - 1)
    val_groups = set(shuffled[:n_val])
    keys = list(group_keys)
    train_idx = np.array([i for i, k in enumerate(keys) if k not in val_groups], dtype=np.intp)
    val_idx = np.array([i for i, k in enumerate(keys) if k in val_groups], dtype=np.intp)
    return train_idx, val_idx


def pack_groups(groups, batch_size):
    """Minibatches of whole groups, taken in order; a batch closes once it
    holds at least batch_size rows, so there are never more batches than
    plain slicing would give."""
    rows = np.concatenate(groups)
    ends = np.cumsum([g.size for g in groups])
    cuts = []
    while True:
        k = np.searchsorted(ends, (cuts[-1] if cuts else 0) + batch_size)
        if k >= ends.size - 1:  # the last group closes the last batch
            break
        cuts.append(ends[k])
    return np.split(rows, cuts)


def fit(labels, group_keys, forward_fn, trainable, cfg, seed, *,
        batch_keys=None, aux_loss=None):
    """Minimize cfg.loss of forward_fn against labels; returns the per-epoch log.

    forward_fn(indices, training, rng) must return a (len(indices), 1) tensor
    of predictions. ``trainable`` is the name -> Tensor dict Adam updates;
    parameters end at the epoch with the best validation MAE (train MAE when
    the split leaves no validation groups). The logged metrics stay MAE for
    comparability regardless of the descent loss.

    Minibatches hold whole groups of equal ``batch_keys`` (one key per
    example; by default every example is its own group): each epoch shuffles
    the groups and packs them with pack_groups. ``aux_loss(pred, indices)``,
    when given, returns a scalar tensor added to cfg.loss on every minibatch.
    """
    labels = np.asarray(labels, dtype=np.float64)
    n = labels.size
    if n == 0:
        raise EmptyDatasetError("no training examples")
    loss_fn = LOSSES[cfg.loss]
    rng = np.random.default_rng([seed, 0])
    split_rng = np.random.default_rng([seed, 1])
    train_idx, val_idx = group_split(group_keys, cfg.val_fraction, split_rng)
    if batch_keys is None:
        batch_keys = np.arange(n)
    rows_of = {}
    for i in train_idx:
        rows_of.setdefault(batch_keys[i], []).append(i)
    train_groups = [np.array(rows, dtype=np.intp) for rows in rows_of.values()]
    opt = Adam(trainable, lr=cfg.lr)
    log = []
    best_metric = np.inf
    best_state = None
    stale = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_groups))
        batches = pack_groups([train_groups[i] for i in perm], cfg.batch_size)
        abs_err = 0.0
        for batch in batches:
            pred = forward_fn(batch, True, rng)
            loss = loss_fn(pred, labels[batch])
            if aux_loss is not None:
                loss = add(loss, aux_loss(pred, batch))
            opt.zero_grad()
            loss.backward()
            opt.step()
            abs_err += float(np.sum(np.abs(pred.data.ravel() - labels[batch])))
        train_mae = abs_err / train_idx.size
        if val_idx.size:
            val_pred = forward_fn(val_idx, False, None)
            val_mae = float(np.mean(np.abs(val_pred.data.ravel() - labels[val_idx])))
            metric = val_mae
        else:
            val_mae = None
            metric = train_mae
        log.append({"epoch": epoch, "train_mae": train_mae, "val_mae": val_mae})
        if metric < best_metric - 1e-12:
            best_metric = metric
            best_state = {k: t.data.copy() for k, t in trainable.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if best_state is not None:
        for k, t in trainable.items():
            t.data = best_state[k]
    return log
