"""Graph isomorphism network encoder, sum readout, and squashed task head.

Node update per layer: H_i <- MLP_k((1 + eps_k) * H_i + sum of neighbor rows).
The final layer projects back to the input feature width so encoder outputs
can be fed to the encoder again as node attributes (the prompting pipeline
relies on this). Graph score: logistic unit over a 2-layer head applied to
the summed node embeddings, giving a value strictly in (0, 1).
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from ..embeddings import EMBED_DIM
from ..errors import ConfigError, ShapeMismatchError
from .tensor import (
    Tensor,
    add,
    as_tensor,
    dropout,
    matmul,
    mul,
    relu,
    sigmoid,
    slot_sum,
)


# At eps = 0 the two nodes of any connected 2-node graph receive identical
# embeddings (both see self + neighbor = the same sum), and downstream scoring
# cannot tell which docked chain an action attaches to. Training barely moves
# eps from its init, so the init itself must carry the asymmetry.
EPS_INIT = 0.5


@dataclass(frozen=True)
class GINConfig:
    input_dim: int = EMBED_DIM
    hidden_dim: int = 64
    num_layers: int = 2
    dropout: float = 0.2

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.num_layers) < 1:
            raise ValueError("encoder widths and layer count must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

    def layer_dims(self):
        dims = []
        for k in range(self.num_layers):
            d_in = self.input_dim if k == 0 else self.hidden_dim
            d_out = self.input_dim if k == self.num_layers - 1 else self.hidden_dim
            dims.append((d_in, self.hidden_dim, d_out))
        return dims


def _init_linear(rng, fan_in, fan_out):
    # fan-in scaled uniform, weights and biases alike
    bound = 1.0 / np.sqrt(fan_in)
    try:
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(fan_out,))
    # widths come from a run config; numpy refuses a size it cannot index
    # with a ValueError
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"a {fan_in} x {fan_out} layer cannot be allocated: {exc}") from None
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


class MLPParams:
    """Stack of linear layers with ReLU (and optional dropout) between them."""

    def __init__(self, weights, biases):
        self.weights = list(weights)
        self.biases = list(biases)

    @classmethod
    def init(cls, dims, rng):
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            w, b = _init_linear(rng, d_in, d_out)
            weights.append(w)
            biases.append(b)
        return cls(weights, biases)

    @property
    def dims(self):
        return tuple(w.data.shape[0] for w in self.weights) + (
            self.weights[-1].data.shape[1],
        )

    def forward(self, x, *, rng=None, drop=0.0):
        h = as_tensor(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = add(matmul(h, w), b)
            if i != last:
                h = relu(h)
                if drop > 0.0:
                    h = dropout(h, drop, rng)
        return h

    def named(self, prefix):
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out

    def copy(self):
        clone = MLPParams(
            [Tensor(w.data.copy(), requires_grad=w.requires_grad) for w in self.weights],
            [Tensor(b.data.copy(), requires_grad=b.requires_grad) for b in self.biases],
        )
        return clone

    def set_trainable(self, flag):
        for t in self.weights + self.biases:
            t.requires_grad = bool(flag)
            t.grad = None


class GINParams:
    """Per-layer learnable eps scalars plus per-layer 2-layer MLPs."""

    def __init__(self, config, eps, mlps):
        self.config = config
        self.eps = list(eps)
        self.mlps = list(mlps)

    @classmethod
    def init(cls, config, seed):
        rng = np.random.default_rng(seed)
        eps = [
            Tensor(np.full((), EPS_INIT), requires_grad=True)
            for _ in range(config.num_layers)
        ]
        mlps = [MLPParams.init(dims, rng) for dims in config.layer_dims()]
        return cls(config, eps, mlps)

    def named(self, prefix="gin"):
        out = {}
        for k, (e, mlp) in enumerate(zip(self.eps, self.mlps)):
            out[f"{prefix}.eps{k}"] = e
            out.update(mlp.named(f"{prefix}.layer{k}"))
        return out

    def set_trainable(self, flag):
        for e in self.eps:
            e.requires_grad = bool(flag)
            e.grad = None
        for m in self.mlps:
            m.set_trainable(flag)


class TaskHeadParams:
    """2-layer scoring head; logistic output keeps predictions inside (0, 1)."""

    def __init__(self, mlp):
        self.mlp = mlp

    @classmethod
    def init(cls, input_dim, hidden_dim, seed):
        rng = np.random.default_rng(seed)
        return cls(MLPParams.init((input_dim, hidden_dim, 1), rng))

    def score(self, pooled, *, rng=None, drop=0.0):
        return sigmoid(self.mlp.forward(pooled, rng=rng, drop=drop))

    def named(self, prefix="head"):
        return self.mlp.named(prefix)

    def set_trainable(self, flag):
        self.mlp.set_trainable(flag)


def _slot_table(rows, cols, num_cols, pad):
    """(depth, num_cols) table for slot_sum: column c lists, in their given
    order, the rows[k] with cols[k] == c, padded with ``pad``. cols must be
    sorted, so that each column's entries keep their order."""
    counts = np.bincount(cols, minlength=num_cols)
    table = np.full((counts.max(initial=0), num_cols), pad, dtype=np.intp)
    first = np.cumsum(counts) - counts
    table[np.arange(cols.size) - first[cols], cols] = rows
    return table


def neighbour_slots(edges, num_nodes):
    """(max degree, num_nodes) neighbour table of a graph: column i lists
    node i's neighbours in ascending order, a repeated edge or a self-loop
    once per direction, padded with num_nodes, the index of the zero row
    slot_sum appends. ``edges`` holds each undirected edge once."""
    ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if not ends.size:
        return np.empty((0, num_nodes), dtype=np.intp)
    if ends.min() < 0 or ends.max() >= num_nodes:
        raise ShapeMismatchError("edge index out of range")
    # both directions of each edge, keyed dst * num_nodes + src and sorted
    keys = np.sort(np.concatenate([ends[:, 1] * num_nodes + ends[:, 0],
                                   ends[:, 0] * num_nodes + ends[:, 1]]))
    dst, src = np.divmod(keys, num_nodes)
    return _slot_table(src, dst, num_nodes, num_nodes)


def readout_slots(segment_ids, num_graphs):
    """slot_sum tables of the sum readout: (members, back). Column s of
    members lists the rows tagged s in ascending order, padded with the row
    count; back is the one slot of the transpose, each row's own tag."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.size and not 0 <= seg.min() <= seg.max() < num_graphs:
        raise ShapeMismatchError(f"segment ids must lie in 0..{num_graphs - 1}")
    order = np.argsort(seg, kind="stable")
    return _slot_table(order, seg[order], num_graphs, seg.size), seg[None, :]


class Neighbours:
    """A graph's neighbour table, as neighbour_slots builds it. gin_encode
    takes it in place of the edge list, so that graphs encoded many times
    build their tables once (PackedGraphs)."""

    __slots__ = ("slots",)

    def __init__(self, slots):
        self.slots = slots


def gin_encode(features, edges, gin, *, rng=None):
    """Per-node embedding matrix for one graph (or a disjoint union of graphs).

    ``features`` is (num_nodes, input_dim); ``edges`` holds each undirected
    edge once as a local index pair, or is the graph's Neighbours table.
    Isolated nodes simply get no neighbor term. With an rng the encoder runs
    in training mode, with dropout.
    """
    h = as_tensor(features)
    if h.data.ndim != 2 or h.data.shape[1] != gin.config.input_dim:
        raise ShapeMismatchError(
            f"node features must be (n, {gin.config.input_dim}), got {h.data.shape}"
        )
    num_nodes = h.data.shape[0]
    if isinstance(edges, Neighbours):
        slots = edges.slots
        if slots.ndim != 2 or slots.shape[1] != num_nodes:
            raise ShapeMismatchError(
                f"neighbour table {slots.shape} does not fit {num_nodes} nodes"
            )
    else:
        slots = neighbour_slots(list(edges), num_nodes)
    for eps, mlp in zip(gin.eps, gin.mlps):
        agg = mul(h, add(eps, 1.0))
        if slots.shape[0]:
            agg = add(agg, slot_sum(h, slots, slots))
        h = mlp.forward(agg, rng=rng, drop=gin.config.dropout)
    return h


def forward_batch(features, edges, segment_ids, num_graphs, gin, head, *, rng=None):
    """(num_graphs, 1) scores for a block-diagonal disjoint union of graphs;
    eval mode unless an rng is given. ``edges`` is as in gin_encode."""
    h = gin_encode(features, edges, gin, rng=rng)
    pooled = slot_sum(h, *readout_slots(segment_ids, num_graphs))
    return head.score(pooled, rng=rng, drop=gin.config.dropout)


def forward_blocks(features, width, neighbours, gin, head):
    """(width, 1) eval-mode scores for ``width`` graphs of one shape, stored
    node-major: row i of node r is graph i's node r, at r * width + i, and
    node r's neighbours are the nodes ``neighbours[r]``, in ascending order.

    The same numbers as forward_batch over the explicit edges and segment
    ids, bit for bit, without an edge list: the slot tables of this layout
    are index arithmetic, so no table is sorted.
    """
    nodes = len(neighbours)
    grid = np.arange(nodes * width).reshape(nodes, width)
    # slot k of node r's rows lists node neighbours[r][k]'s rows
    slots = np.full((max(map(len, neighbours)), nodes, width), grid.size, dtype=np.intp)
    for r, listed in enumerate(neighbours):
        slots[:len(listed), r] = grid[list(listed)]
    h = gin_encode(features, Neighbours(slots.reshape(-1, grid.size)), gin)
    # column i of the grid lists graph i's rows in node order
    back = np.tile(np.arange(width), nodes)[None, :]
    return head.score(slot_sum(h, grid, back))


def readout_regress(features, edges, gin, head):
    """Scalar correctness score in (0, 1) for a single graph, evaluation mode."""
    n = np.asarray(features).shape[0]
    out = forward_batch(features, edges, np.zeros(n, dtype=np.intp), 1, gin, head)
    return float(out.data[0, 0])


def pack_graphs(graphs):
    """Disjoint union of (features, local_edges) pairs for one batched pass:
    (features, edges, segment_ids, num_graphs), graph i's rows tagged i."""
    feats = [np.asarray(f, dtype=np.float64) for f, _ in graphs]
    sizes = [f.shape[0] for f in feats]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    edges = [(a + o, b + o) for o, (_, local) in zip(offsets, graphs) for a, b in local]
    seg = np.repeat(np.arange(len(graphs), dtype=np.intp), sizes)
    return np.concatenate(feats, axis=0), edges, seg, len(graphs)


class PackedGraphs:
    """(features, local_edges) pairs packed once, for many minibatches: the
    features, node offsets and neighbour table of all graphs are arrays, so
    a batch is index arithmetic, with no loop over its graphs.

    ``batch(indices)`` is pack_graphs of those graphs, bit for bit, except
    that its edges come as their Neighbours table.
    """

    def __init__(self, graphs):
        feats = [np.asarray(f, dtype=np.float64) for f, _ in graphs]
        self.sizes = np.array([f.shape[0] for f in feats], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.features = np.concatenate(feats, axis=0)
        self.total = self.features.shape[0]
        edges = [np.asarray(local, dtype=np.intp).reshape(-1, 2) + start
                 for start, (_, local) in zip(self.starts, graphs)]
        # one table over all nodes; a graph's nodes are consecutive, so its
        # neighbours keep their order when the graph moves within a batch
        self.slots = neighbour_slots(np.concatenate(edges), self.total)
        self.degrees = (self.slots < self.total).sum(axis=0)

    def batch(self, indices):
        """(features, Neighbours, segment_ids, num_graphs) of the graphs
        ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        sizes = self.sizes[indices]
        rows = int(sizes.sum())
        # batch row j is node j - shift[j] of all graphs
        shift = np.repeat(np.cumsum(sizes) - sizes - self.starts[indices], sizes)
        nodes = np.arange(rows) - shift
        slots = self.slots[:self.degrees[nodes].max(initial=0), nodes]
        slots = np.where(slots < self.total, slots + shift, rows)
        seg = np.repeat(np.arange(indices.size), sizes)
        return self.features[nodes], Neighbours(slots), seg, indices.size


def named_union(*param_dicts):
    merged = {}
    for d in param_dicts:
        for k, v in d.items():
            if k in merged:
                raise ValueError(f"duplicate parameter name {k}")
            merged[k] = v
    return merged


def params_hash(named):
    """Order-independent digest of parameter names, shapes, and values."""
    h = hashlib.sha256()
    for name in sorted(named):
        t = named[name]
        h.update(name.encode())
        h.update(str(t.data.shape).encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def flatten_named(named):
    """Concatenate parameter values into one vector; returns (vector, layout)."""
    layout = [(name, named[name].data.shape) for name in named]
    vec = np.concatenate([named[name].data.ravel() for name in named]) if named else np.zeros(0)
    return vec, layout


def load_vector(named, layout, vec):
    """Write a flat vector back into parameter tensors following ``layout``."""
    pos = 0
    for name, shape in layout:
        size = int(np.prod(shape, dtype=np.intp)) if shape else 1
        named[name].data = np.array(vec[pos : pos + size], dtype=np.float64).reshape(shape)
        pos += size
    if pos != vec.size:
        raise ShapeMismatchError(f"vector length {vec.size} != layout size {pos}")


def grad_vector(named, layout):
    """Gradients flattened in the same layout; missing grads contribute zeros."""
    parts = []
    for name, shape in layout:
        g = named[name].grad
        parts.append(np.zeros(shape).ravel() if g is None else g.ravel())
    return np.concatenate(parts) if parts else np.zeros(0)
