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
from ..errors import ShapeMismatchError
from .tensor import (
    Tensor,
    add,
    as_tensor,
    dropout,
    gather_rows,
    matmul,
    mul,
    relu,
    segment_sum,
    sigmoid,
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
    w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
    b = Tensor(rng.uniform(-bound, bound, size=(fan_out,)), requires_grad=True)
    return w, b


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


def _directed_edges(edges):
    """Both directions of each undirected edge, sorted by (dst, src)."""
    ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def gin_encode(features, edges, gin, *, rng=None):
    """Per-node embedding matrix for one graph (or a disjoint union of graphs).

    ``features`` is (num_nodes, input_dim); ``edges`` holds each undirected
    edge once as a local index pair. Isolated nodes simply get no neighbor
    term. With an rng the encoder runs in training mode, with dropout.
    """
    h = as_tensor(features)
    if h.data.ndim != 2 or h.data.shape[1] != gin.config.input_dim:
        raise ShapeMismatchError(
            f"node features must be (n, {gin.config.input_dim}), got {h.data.shape}"
        )
    num_nodes = h.data.shape[0]
    edges = list(edges)
    if edges:
        src, dst = _directed_edges(edges)
        if src.size and (src.max() >= num_nodes or dst.max() >= num_nodes):
            raise ShapeMismatchError("edge index out of range")
    for eps, mlp in zip(gin.eps, gin.mlps):
        agg = mul(h, add(eps, 1.0))
        if edges:
            agg = add(agg, segment_sum(gather_rows(h, src), dst, num_nodes))
        h = mlp.forward(agg, rng=rng, drop=gin.config.dropout)
    return h


def forward_batch(features, edges, segment_ids, num_graphs, gin, head, *, rng=None):
    """(num_graphs, 1) scores for a block-diagonal disjoint union of graphs;
    eval mode unless an rng is given."""
    h = gin_encode(features, edges, gin, rng=rng)
    pooled = segment_sum(h, segment_ids, num_graphs)
    return head.score(pooled, rng=rng, drop=gin.config.dropout)


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
