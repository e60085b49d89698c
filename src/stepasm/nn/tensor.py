"""Reverse-mode autodiff on numpy arrays.

A Tensor wraps a float64 ndarray and records, per derived value, its parent
tensors plus a closure that routes the output gradient to them. backward()
walks the tape in reverse topological order. Only the operations the models
need are provided, fourteen of them; broadcasting is limited to what those
ops use:

- arithmetic: add, sub, mul (an operand may be a python scalar), matmul;
- activations: relu, sigmoid, and dropout, which is the identity in eval
  mode, that is when its rng is None;
- rows: gather_rows, concat_rows, and slot_sum, which sums the rows an
  index table lists per output row: each node's neighbours (message passing)
  or each graph's nodes (the sum readout); block_sum does both jobs for
  graphs that all share one shape, without a table;
- losses: mae_loss, bce_loss, listwise_loss.
"""

import numpy as np

from ..errors import DisconnectedLossError, LengthMismatchError, ShapeMismatchError

# The probability losses clip predictions into [PROB_CLIP, 1 - PROB_CLIP].
PROB_CLIP = 1e-6


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def backward(self, seed=None):
        """Populate .grad on every requires_grad tensor reachable from here."""
        if not self.requires_grad:
            raise DisconnectedLossError(
                "no trainable tensor feeds this value; nothing to differentiate"
            )
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar")
            seed = np.ones_like(self.data)
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.asarray(seed, dtype=np.float64).reshape(self.data.shape)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a fresh array with the bits of zeros + g (-0.0 becomes +0.0)
        t.grad = g + 0.0
    else:
        t.grad += g


def _unbroadcast(g, shape):
    # collapse gradient of a broadcast result back to the operand's shape
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        # a constant or frozen operand needs no product, as in matmul
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul shapes {a.data.shape} x {b.data.shape} incompatible"
        )
    data = a.data @ b.data

    def backward(g):
        # a frozen operand needs no product; the prompt path runs through
        # frozen encoder weights
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0.0

    def backward(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    # stable two-sided form
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        _accum(a, g * out * (1.0 - out))

    return _make(out, (a,), backward)


def gather_rows(a, index):
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)
    data = a.data[index]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        _accum(a, ga)

    return _make(data, (a,), backward)


def concat_rows(tensors):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[0] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=0)

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            _accum(t, g[start : start + size])
            start += size

    return _make(data, tuple(tensors), backward)


def _slot_sums(x, slots):
    """Row i is 0.0 + x[slots[0, i]] + x[slots[1, i]] + ..., added in slot
    order; the index len(x) reads a zero row. These are the bits of np.add.at
    into zeros: a running sum that starts at +0.0 never becomes -0.0, so the
    +0.0 a padded slot adds changes nothing."""
    if not slots.shape[0]:
        return np.zeros((slots.shape[1],) + x.shape[1:])
    padded = np.concatenate([x, np.zeros((1,) + x.shape[1:])])
    out = padded[slots[0]]
    out += 0.0  # 0.0 + x: a lone -0.0 comes out +0.0
    for s in slots[1:]:
        out += padded[s]
    return out


def slot_sum(a, slots, back):
    """Sums of listed rows: output row i sums the rows of a that column i of
    the (depth, outputs) index table ``slots`` lists, in slot order from 0.0.
    A column shorter than the depth is padded with the row count of a, which
    reads a zero row.

    ``back`` is the table of the transposed sum, (depth, rows of a) and
    padded with the output count, so the backward sums rows of g the same
    way. A graph's neighbour table (column i lists node i's neighbours in
    ascending order) is its own transpose: that is message passing. The sum
    readout lists each graph's nodes, and its transpose is one slot holding
    each node's graph.
    """
    a = as_tensor(a)
    slots = np.asarray(slots, dtype=np.intp)
    back = np.asarray(back, dtype=np.intp)
    rows = a.data.shape[0]
    if slots.ndim != 2 or back.ndim != 2 or back.shape[1] != rows:
        raise ShapeMismatchError(
            f"slot tables {slots.shape} and {back.shape} do not fit {rows} rows"
        )
    data = _slot_sums(a.data, slots)

    def backward(g):
        _accum(a, _slot_sums(g, back))

    return _make(data, (a,), backward)


def _block_sums(blocks, pattern):
    """Stacked output blocks: block j is the sum of the input blocks
    pattern[j], added in order from 0.0, so a -0.0 comes out +0.0 as in
    np.add.at into zeros; a block with no input is zero."""
    out = np.zeros((len(pattern),) + blocks.shape[1:])
    for o, ks in zip(out, pattern):
        if ks:
            np.add(blocks[ks[0]], 0.0, out=o)
        for k in ks[1:]:
            np.add(o, blocks[k], out=o)
    return out


def block_sum(a, width, pattern):
    """Sums of row blocks: a is cut into blocks of ``width`` rows, and output
    block j sums the input blocks listed in pattern[j], in that order.

    a must hold exactly the blocks 0 to the largest index in pattern. For
    ``width`` graphs of one shape stored node-major (row i of node r at
    r * width + i), it is message passing when pattern[r] lists the
    neighbours of node r, and the sum readout when its one entry lists every
    node. The backward is the transposed block sum.
    """
    a = as_tensor(a)
    listed = [k for ks in pattern for k in ks]
    n_in = 1 + max(listed)
    rest = a.data.shape[1:]
    if min(listed) < 0 or width < 0 or a.data.shape[0] != n_in * width:
        raise ShapeMismatchError(
            f"block sum over {n_in} blocks of {width} rows got {a.data.shape[0]} rows"
        )
    transposed = tuple(tuple(j for j, ks in enumerate(pattern) if k in ks) for k in range(n_in))
    data = _block_sums(a.data.reshape((n_in, width) + rest), pattern)

    def backward(g):
        ga = _block_sums(g.reshape((len(pattern), width) + rest), transposed)
        _accum(a, ga.reshape(a.data.shape))

    return _make(data.reshape((len(pattern) * width,) + rest), (a,), backward)


def dropout(a, rate, rng):
    """Inverted dropout; the identity in eval mode (rng is None) or at rate 0."""
    a = as_tensor(a)
    if rng is None or rate == 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep) / keep

    def backward(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def mae_loss(pred, target):
    """Mean absolute error between same-length value lists/tensors."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.data.size != target.data.size:
        raise LengthMismatchError(
            f"prediction count {pred.data.size} != target count {target.data.size}"
        )
    diff = pred.data - target.data.reshape(pred.data.shape)

    def backward(g):
        _accum(pred, g / diff.size * np.sign(diff))

    return _make(np.array(np.abs(diff).mean()), (pred,), backward)


def bce_loss(pred, target):
    """Mean binary cross-entropy; targets may be soft values in [0, 1].

    Probabilities are clipped away from {0, 1} so saturated predictions keep a
    finite pull back toward their labels — an absolute-error loss goes silent
    there because its gradient carries the sigmoid's dying slope.
    """
    pred = as_tensor(pred)
    target = as_tensor(target)
    if pred.data.size != target.data.size:
        raise LengthMismatchError(
            f"prediction count {pred.data.size} != target count {target.data.size}"
        )
    y = target.data.reshape(pred.data.shape)
    p = np.clip(pred.data, PROB_CLIP, 1.0 - PROB_CLIP)
    data = np.array(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))

    def backward(g):
        _accum(pred, g * (p - y) / (p * (1.0 - p)) / p.size)

    return _make(data, (pred,), backward)


def listwise_loss(pred, target, groups, threshold, temperature):
    """Mean over groups of a softmax cross-entropy on the logits of pred (ListNet).

    Rows that share a value in ``groups`` are the candidates of one decision.
    Within a group the model distribution is the softmax of logit(pred); the
    target distribution is uniform over the rows whose target exceeds
    ``threshold``, or softmax(target / temperature) in a group with no such
    row. Probabilities are clipped as in bce_loss, so the logits stay finite.
    """
    pred = as_tensor(pred)
    y = as_tensor(target).data.ravel()
    groups = np.asarray(groups).ravel()
    if not pred.data.size == y.size == groups.size:
        raise LengthMismatchError(
            f"prediction count {pred.data.size}, target count {y.size} and "
            f"group count {groups.size} differ"
        )
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    starts = np.flatnonzero(np.r_[True, sorted_groups[1:] != sorted_groups[:-1]])
    seg = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, groups.size]))

    def log_softmax(v):
        shifted = v - np.maximum.reduceat(v, starts)[seg]
        return shifted - np.log(np.add.reduceat(np.exp(shifted), starts))[seg]

    p = np.clip(pred.data.ravel()[order], PROB_CLIP, 1.0 - PROB_CLIP)
    log_q = log_softmax(np.log(p) - np.log1p(-p))
    ys = y[order]
    good = (ys > threshold).astype(np.float64)
    n_good = np.add.reduceat(good, starts)[seg]
    t = np.where(n_good > 0, good / np.maximum(n_good, 1.0), np.exp(log_softmax(ys / temperature)))
    data = np.array(-np.add.reduceat(t * log_q, starts).mean())

    def backward(g):
        # d/dz of -sum(t log softmax(z)) is softmax(z) - t, as t sums to 1
        dz = (np.exp(log_q) - t) / (p * (1.0 - p)) / starts.size
        grad = np.empty_like(dz)
        grad[order] = g * dz
        _accum(pred, grad.reshape(pred.data.shape))

    return _make(data, (pred,), backward)
