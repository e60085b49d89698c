"""Conditional link prediction through prompting.

A candidate docking action (condition graph, docked node v_d, undocked node
v_u) is rewritten as a 4-node path v_d - v_x - v_y - v_u. The end nodes carry
the frozen encoder's context embeddings of v_d and v_u; the middle nodes are
produced by a trainable MLP from those embeddings. Scoring the path with the
frozen encoder + head yields the linking probability, so only the MLP is
trained on target data.
"""

from dataclasses import dataclass

import numpy as np

from .datagen import KEEP_THRESHOLD
from .errors import (
    EmptyDatasetError,
    NodeCollisionError,
    ShapeMismatchError,
    UntrainedPipelineError,
)
from .nn.model import MLPParams, forward_batch, forward_blocks, gin_encode, pack_graphs
from .nn.tensor import (
    Tensor,
    as_tensor,
    concat_rows,
    gather_rows,
    listwise_loss,
    mul,
    sigmoid,
    sub,
)
from .training import TrainConfig, fit

PROMPT_EDGES = ((0, 1), (1, 2), (2, 3))
# the neighbours of each node of that path, in ascending order
PATH_NEIGHBOURS = ((1,), (0, 2), (1, 3), (2,))

# The frozen encoder only ever saw node features inside [0, ~0.65], so the
# prompt MLP squashes its output into that range; an unbounded output can
# drift into regions where every ReLU in the frozen pass is dead and the
# prompt gradient vanishes identically.
OUTPUT_SCALE = 0.7

# Greedy inference keeps only the argmax of each decision, which pointwise BCE
# never compares across candidates; prompt tuning therefore adds this weight
# times a listwise softmax cross-entropy over the candidates of each decision.
# At weight 3 the release gate assembles all 20 held-in complexes right; at
# weight 1 it assembles two wrong and fails its TM floor (see CHANGES.md).
LISTWISE_WEIGHT = 3.0
# Target softmax temperature, over labels in [0, 1], for a decision with no
# candidate above KEEP_THRESHOLD: sharp enough to favour its best candidates.
LISTWISE_TEMPERATURE = 0.01


@dataclass(frozen=True)
class PromptTuneConfig:
    # cross-entropy keeps saturated-wrong probabilities trainable; an absolute
    # error goes silent there because its gradient carries the sigmoid slope
    train: TrainConfig = TrainConfig(lr=0.001, loss="bce")
    mlp_hidden: int = 1024
    heads: int = 4
    multi_head: bool = False
    dropout: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.mlp_hidden < 1 or self.heads < 1:
            raise ValueError("mlp_hidden and heads must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


class PromptParams:
    """The trainable prompt MLP plus its attention configuration.

    The MLP maps a d-dim context embedding to a d-dim prompt-node feature
    through two hidden layers; a scaled logistic pins the output inside the
    frozen encoder's input domain. Attention between the two context
    embeddings is a softmax over scalar scores: with a single head that
    softmax is over one logit and collapses to weight 1, which is the default
    behavior; the 4-head variant splits dimensions into blocks and reweights
    them.
    """

    def __init__(self, mlp, heads, multi_head, dropout, in_shift=None, in_scale=None):
        self.mlp = mlp
        self.heads = int(heads)
        self.multi_head = bool(multi_head)
        self.dropout = float(dropout)
        d = self.mlp.dims[0]
        self.in_shift = in_shift if in_shift is not None else Tensor(np.zeros(d))
        self.in_scale = in_scale if in_scale is not None else Tensor(np.ones(d))

    @classmethod
    def init(cls, embed_dim, mlp_hidden, seed, heads=PromptTuneConfig.heads,
             multi_head=PromptTuneConfig.multi_head, dropout=PromptTuneConfig.dropout):
        rng = np.random.default_rng(seed)
        mlp = MLPParams.init((embed_dim, mlp_hidden, mlp_hidden, embed_dim), rng)
        return cls(mlp, heads=heads, multi_head=multi_head, dropout=dropout)

    @property
    def dim(self):
        return self.mlp.dims[0]

    def head_blocks(self):
        return np.array_split(np.arange(self.dim), self.heads)

    def standardize_from(self, rows):
        """Set input whitening buffers from stacked query-embedding rows.

        Context embeddings differ across docking actions by far less than
        their absolute scale, so without whitening the MLP barely sees the
        per-action signal.
        """
        rows = np.asarray(rows, dtype=np.float64)
        self.in_shift.data = rows.mean(axis=0)
        self.in_scale.data = 1.0 / np.maximum(rows.std(axis=0), 1e-3)

    def transform(self, x, *, rng=None):
        z = mul(sub(x, self.in_shift), self.in_scale)
        out = self.mlp.forward(z, rng=rng, drop=self.dropout)
        return mul(sigmoid(out), OUTPUT_SCALE)

    def named(self, prefix="prompt"):
        out = self.mlp.named(prefix)
        out[f"{prefix}.in_shift"] = self.in_shift
        out[f"{prefix}.in_scale"] = self.in_scale
        return out

    def trainable_named(self, prefix="prompt"):
        return {k: t for k, t in self.named(prefix).items() if t.requires_grad}

    def copy(self):
        return PromptParams(
            self.mlp.copy(), heads=self.heads, multi_head=self.multi_head,
            dropout=self.dropout,
            in_shift=Tensor(self.in_shift.data.copy()),
            in_scale=Tensor(self.in_scale.data.copy()),
        )

    def set_trainable(self, flag):
        # whitening buffers are data statistics, never optimized
        self.mlp.set_trainable(flag)


@dataclass(frozen=True)
class PromptGraph:
    """4-node path v_d - v_x - v_y - v_u with per-node feature rows."""

    features: Tensor
    edges: tuple = PROMPT_EDGES
    roles: tuple = ("d", "x", "y", "u")

    def __post_init__(self):
        if self.features.data.shape[0] != 4:
            raise ShapeMismatchError("prompt graph needs exactly 4 node rows")
        if tuple(self.edges) != PROMPT_EDGES:
            raise ShapeMismatchError("prompt graph edges must form the fixed path")
        if self.roles[0] != "d" or self.roles[-1] != "u":
            raise ShapeMismatchError("query nodes must sit at the path ends")


def build_prompt_graph(h_d, h_x, h_y, h_u):
    return PromptGraph(features=concat_rows([h_d, h_x, h_y, h_u]))


@dataclass(frozen=True)
class PromptItem:
    """One docking action prepared for the pipeline: condition + query features.

    ``multimer`` with ``cond_nodes`` and ``cond_edges`` names the condition
    graph, and with ``v_u`` the candidate chain, so a batch that shares them
    encodes each once.
    """

    cond_features: np.ndarray
    cond_nodes: tuple
    cond_edges: tuple
    d_local: int
    v_u: int
    u_feature: np.ndarray
    y: float
    multimer: str
    n: int
    decision: tuple  # decision_key of the record: tuning ranks items that share it


def decision_key(inst):
    """Key shared by the target records that one greedy step compares.

    infer_path's first step takes one argmax over every ordered pair under
    every singleton condition {d}, so all singleton-condition records of a
    multimer are one decision; every later step compares the candidates of
    one condition graph.
    """
    if len(inst.cond_nodes) == 1:
        return (inst.multimer,)
    return (inst.multimer, inst.cond_nodes, inst.cond_edges)


def build_items(instances, multimers):
    items = []
    for inst in instances:
        m = multimers[inst.multimer]
        cond = inst.condition(m)
        items.append(
            PromptItem(
                cond_features=cond.attrs,
                cond_nodes=cond.nodes,
                cond_edges=cond.local_edges(),
                d_local=cond.nodes.index(inst.v_d),
                v_u=inst.v_u,
                u_feature=m.chain_features[inst.v_u],
                y=inst.y,
                multimer=inst.multimer,
                n=inst.n,
                decision=decision_key(inst),
            )
        )
    return items


def compute_node_embeddings(cond_graph, v_u, u_feature, gin):
    """Encoder embeddings for condition nodes plus the isolated candidate v_u.

    Returns (H, rows): H has one row per condition node (sorted label order)
    and the candidate's row last; rows maps node label -> row index.
    """
    if v_u in cond_graph.nodes:
        raise NodeCollisionError(f"candidate chain {v_u} already sits in the condition graph")
    if cond_graph.attrs is None:
        raise ShapeMismatchError("condition graph carries no node features")
    features = np.vstack([cond_graph.attrs, np.asarray(u_feature, dtype=np.float64)])
    h = gin_encode(features, cond_graph.local_edges(), gin)
    rows = {v: i for i, v in enumerate(cond_graph.nodes)}
    rows[v_u] = len(cond_graph.nodes)
    return h, rows


def _head_weight_rows(h_d, h_u, prompt):
    """Per-dimension attention weights, one row per instance (constant wrt π)."""
    d_data = as_tensor(h_d).data
    u_data = as_tensor(h_u).data
    weights = np.empty_like(d_data)
    blocks = prompt.head_blocks()
    scores = np.stack(
        [(d_data[:, blk] * u_data[:, blk]).sum(axis=1) for blk in blocks], axis=1
    )
    scores -= scores.max(axis=1, keepdims=True)
    soft = np.exp(scores)
    soft /= soft.sum(axis=1, keepdims=True)
    for k, blk in enumerate(blocks):
        weights[:, blk] = soft[:, k : k + 1]
    return weights


def prompt_embeddings(h_d, h_u, prompt, *, rng=None):
    """Middle-node features (H_x, H_y) from the two query embeddings.

    Default mode mirrors the single-vector attention exactly: the softmax of
    one scalar score is 1, so H_x depends only on H_u and H_y only on H_d.
    """
    h_d = as_tensor(h_d)
    h_u = as_tensor(h_u)
    shape = h_d.data.shape
    if len(shape) != 2 or shape != h_u.data.shape or shape[1] != prompt.dim:
        raise ShapeMismatchError(
            f"query embeddings must be rows of width {prompt.dim}"
        )
    if prompt.multi_head:
        w = Tensor(_head_weight_rows(h_d, h_u, prompt))
        x_in = mul(h_u, w)
        y_in = mul(h_d, w)
    else:
        # softmax over the single scalar score H_d . H_u is identically 1
        x_in = h_u
        y_in = h_d
    h_x = prompt.transform(x_in, rng=rng)
    h_y = prompt.transform(y_in, rng=rng)
    return h_x, h_y


def query_embeddings(items, gin):
    """Stage 1 for a batch of docking actions: (h, d_rows, u_rows).

    One encoder pass over a disjoint union holding each distinct condition
    graph and each distinct candidate chain of the batch once; item i's h_d
    and h_u are rows d_rows[i] and u_rows[i] of h. Graphs are told apart by
    identity (multimer, chain labels, edges), never by feature values. A
    candidate is an isolated chain, which encodes exactly as the singleton
    condition graph over that chain, so the two share one key and one row.
    """
    if not items:
        raise EmptyDatasetError("no items to score")
    keys = [((it.multimer, it.cond_nodes, it.cond_edges), (it.multimer, (it.v_u,), ()))
            for it in items]
    graphs = {}
    for it, (cond, cand) in zip(items, keys):
        graphs.setdefault(cond, (it.cond_features, it.cond_edges))
        graphs.setdefault(cand, (np.asarray(it.u_feature, dtype=np.float64)[None, :], ()))
    feats, edges, seg, count = pack_graphs(list(graphs.values()))
    first = dict(zip(graphs, np.searchsorted(seg, np.arange(count)).tolist()))
    d_rows = np.array([first[cond] + it.d_local for it, (cond, _) in zip(items, keys)],
                      dtype=np.intp)
    u_rows = np.array([first[cand] for _, cand in keys], dtype=np.intp)
    h = gin_encode(feats, edges, gin)
    return h, d_rows, u_rows


def pipeline_forward_batch(items, gin, head, prompt):
    """(B, 1) eval-mode linking probabilities for a batch of docking actions.

    Stage 1 encodes each distinct condition graph and candidate chain once
    (query_embeddings); score_rows runs the prompt MLP and stage 2.
    """
    h, d_rows, u_rows = query_embeddings(items, gin)
    return score_rows(h, d_rows, u_rows, gin, head, prompt)


def score_rows(h, d_rows, u_rows, gin, head, prompt, *, rng=None):
    """(B, 1) probabilities of B actions whose h_d and h_u are rows of h.

    In single-head mode h_x = T(h_u) and h_y = T(h_d), so the prompt MLP T
    runs once per distinct row of h that some action uses, and its rows are
    gathered into the B prompt paths; with an rng the MLP drops out, and the
    actions that share a row share its mask. Stage 2 runs per action, in eval mode.
    """
    d_rows = np.asarray(d_rows, dtype=np.intp)
    u_rows = np.asarray(u_rows, dtype=np.intp)
    h_d, h_u = gather_rows(h, d_rows), gather_rows(h, u_rows)
    if prompt.multi_head:
        # the attention weights depend on the pair, so the MLP input does too
        h_x, h_y = prompt_embeddings(h_d, h_u, prompt, rng=rng)
    else:
        used, where = np.unique(np.concatenate([d_rows, u_rows]), return_inverse=True)
        t = prompt.transform(gather_rows(h, used), rng=rng)
        b = d_rows.size
        h_x, h_y = gather_rows(t, where[b:]), gather_rows(t, where[:b])
    return score_paths(h_d, h_x, h_y, h_u, gin, head)


def score_paths(h_d, h_x, h_y, h_u, gin, head):
    """Stage 2: (B, 1) eval-mode probabilities of B prompt paths d - x - y - u.

    Each argument holds one row per path. The B paths go through the frozen
    encoder as one node-major stack, row i of role r at r * B + i, whose
    neighbour and readout tables are index arithmetic over the fixed path
    (forward_blocks): no edge list to sort. The result is bit-equal to
    forward_batch over the B paths' disjoint union.
    """
    path_feats = concat_rows([h_d, h_x, h_y, h_u])
    b = path_feats.data.shape[0] // 4
    return forward_blocks(path_feats, b, PATH_NEIGHBOURS, gin, head)


class ScoringPipeline:
    """Frozen encoder + head + prompt scoring (v_d, v_u) actions in eval mode,
    one condition graph per call, reusing what it kept by content.

    Each probability equals ``pipeline_forward`` of its pair up to rounding:
    h_d is v_d's row in the condition graph, h_u the row of v_u encoded as an
    isolated chain (in the first step's edgeless condition, its row there),
    and in single-head mode h_x = T(h_u), h_y = T(h_d).

    A pair's probability depends only on its rows h_d and h_u and on the
    model, so what is kept is keyed by content. Each call encodes every row
    it needs, the condition graph and each candidate it ranks as an isolated
    chain, and compares each row bitwise with the chain's kept row. It runs
    T only on the rows that moved, and stage 2 only on the pairs that have
    such a row or no kept probability. NaN marks a row or probability not
    kept, as both are finite for finite inputs. In multi-head mode T depends
    on the pair, so only rows and probabilities are kept.

    One restart rule: a call starts empty unless its condition has more
    edges than the last call's, over the same number of chains. In
    ``infer_path`` that is each path's first call to the pipeline, so a
    model changed in place between two paths is never reused; it must not
    change while one path is scored.
    """

    def __init__(self, gin, head, prompt):
        if gin is None or head is None or prompt is None:
            raise UntrainedPipelineError("encoder, head, and prompt must all be provided")
        self.gin = gin
        self.head = head
        self.prompt = prompt
        self.depth = 0  # edges of the last call's condition
        self.p = np.empty((0, 0))  # nothing kept yet

    def score_actions(self, chain_features, cond_nodes, cond_edges, pairs):
        """Probabilities for candidate (v_d, v_u) actions under one condition graph."""
        gin, head, prompt = self.gin, self.head, self.prompt
        n, dim = chain_features.shape
        nodes = sorted(cond_nodes)
        in_cond = np.zeros(n, dtype=bool)
        in_cond[nodes] = True
        docked = np.zeros(n, dtype=bool)
        docked[np.asarray(cond_edges, dtype=np.intp).ravel()] = True
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        d, u = pairs[:, 0], pairs[:, 1]
        if not in_cond[d].all():
            raise ValueError("a docked node is not in the condition graph")
        if docked[u].any():
            raise NodeCollisionError("a candidate chain is docked in the condition graph")
        if len(cond_edges) <= self.depth or n != len(self.p):
            self.h = np.full((n, dim), np.nan)  # each chain's kept row
            self.t = np.full((n, dim), np.nan)  # its T(h), single-head mode only
            self.p = np.full((n, n), np.nan)  # each pair's kept probability
        self.depth = len(cond_edges)

        rows = nodes + np.unique(u[~in_cond[u]]).tolist()
        pos = {v: i for i, v in enumerate(nodes)}
        local = [(pos[a], pos[b]) for a, b in cond_edges]
        h = gin_encode(chain_features[rows], local, gin).data
        rows = np.asarray(rows, dtype=np.intp)
        changed = (h.view(np.uint64) != self.h[rows].view(np.uint64)).any(axis=1)
        moved = rows[changed]
        if moved.size:
            self.p[moved, :] = np.nan
            self.p[:, moved] = np.nan
            if not prompt.multi_head:
                self.t[moved] = prompt.transform(h[changed]).data
            self.h[moved] = h[changed]

        todo = np.isnan(self.p[d, u])
        if todo.any():
            d_new, u_new = d[todo], u[todo]
            h_d, h_u = self.h[d_new], self.h[u_new]
            if prompt.multi_head:
                h_x, h_y = prompt_embeddings(h_d, h_u, prompt)
            else:
                h_x, h_y = self.t[u_new], self.t[d_new]
            self.p[d_new, u_new] = score_paths(h_d, h_x, h_y, h_u, gin, head).data.ravel()
        return self.p[d, u]


def pipeline_forward(cond_graph, v_d, v_u, u_feature, gin, head, prompt):
    """Linking probability in (0, 1) for a single docking action (eval mode).

    The reference that batched scoring is checked against: its stage 2 runs
    the prompt graph as a general graph (forward_batch over its edges), not
    through the index-arithmetic tables of score_paths.
    """
    if v_d not in cond_graph.nodes:
        raise ValueError(f"docked node {v_d} not in the condition graph")
    h, rows = compute_node_embeddings(cond_graph, v_u, u_feature, gin)
    h_d = gather_rows(h, [rows[v_d]])
    h_u = gather_rows(h, [rows[v_u]])
    h_x, h_y = prompt_embeddings(h_d, h_u, prompt)
    pg = build_prompt_graph(h_d, h_x, h_y, h_u)
    out = forward_batch(pg.features, pg.edges, np.zeros(4, dtype=np.intp), 1, gin, head)
    return float(out.data[0, 0])


def prompt_tune(items, gin, head, cfg=None, init=None):
    """Tune only the prompt MLP on docking-action labels; returns (prompt, log).

    The encoder and head are frozen: set non-trainable on entry, and run in
    eval mode, so their dropout never fires. Stage 1 is encoded once per call
    (query_embeddings), and each minibatch runs only the prompt MLP, with its
    dropout, and stage 2 (score_rows). Validation holds out whole multimers as
    in pre-training. Minibatches hold whole decisions (items of equal
    ``decision``), and the descent loss is cfg.train.loss plus
    LISTWISE_WEIGHT times the listwise loss over each decision's candidates.

    With ``init``, tuning starts from a copy of it (``init.copy()``): the
    prompt's architecture (hidden width, heads, multi-head mode), dropout and
    input standardization all come from ``init``, and cfg.mlp_hidden,
    cfg.heads, cfg.multi_head and cfg.dropout are ignored.
    """
    cfg = cfg or PromptTuneConfig()
    if not items:
        raise EmptyDatasetError("no target items")
    gin.set_trainable(False)
    head.set_trainable(False)
    h, d_rows, u_rows = query_embeddings(items, gin)
    if init is not None:
        prompt = init.copy()
    else:
        prompt = PromptParams.init(
            gin.config.input_dim, cfg.mlp_hidden, [cfg.seed, 20],
            heads=cfg.heads, multi_head=cfg.multi_head, dropout=cfg.dropout,
        )
        prompt.standardize_from(h.data[np.concatenate([d_rows, u_rows])])

    def forward(indices, training, rng):
        return score_rows(h, d_rows[indices], u_rows[indices], gin, head, prompt, rng=rng)

    labels = np.array([it.y for it in items])
    keys = [it.multimer for it in items]
    ids = {}
    decisions = np.array([ids.setdefault(it.decision, len(ids)) for it in items])

    def listwise(pred, indices):
        loss = listwise_loss(pred, labels[indices], decisions[indices],
                             KEEP_THRESHOLD, LISTWISE_TEMPERATURE)
        return mul(loss, LISTWISE_WEIGHT)

    log = fit(labels, keys, forward, prompt.trainable_named(), cfg.train, cfg.seed,
              batch_keys=decisions, aux_loss=listwise)
    return prompt, log
