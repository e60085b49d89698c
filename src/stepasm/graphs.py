"""Assembly graphs (labeled trees over chains) and the rigid-body assembly oracle.

An assembly graph is an undirected, connected, acyclic graph whose nodes are
chain indices and whose edges are assembly actions. Given a dimer library
(relative pose of each chain pair), a graph determines a full multimer
structure: walk the tree, and for each edge superpose the shared chain of the
stored dimer onto its already-placed copy, carrying the partner along.
The assembly correctness of a graph is the TM-score between the structure it
produces and the ground truth.

The oracle computes that walk by composing transforms. Kabsch is
equivariant, so the fit of an edge onto a placed chain is the placed chain's
transform composed with a fit between two stored dimers; that fit depends
only on (docked chain, the partner it was placed through, new chain). An
``Oracle`` keeps those fits for one labelling call, builds each tree's
chains from their transforms, and superposes a batch of trees onto the
ground truth at once. Scoring all 6^4 trees of a 6-chain complex takes at
most 6 * 5 * 4 = 120 Kabsch fits instead of 4 per tree.

The oracle scores generated, trusted ``(nodes, edges)`` pairs. Trees from
outside, such as file records, are validated as ``AssemblyGraph`` on load.
"""

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .embeddings import embed_chain
from .errors import (
    DisconnectedTraversalError,
    LengthMismatchError,
    MissingDimerError,
    TreeTooLargeError,
)
from .geometry import as_coords, kabsch_align, tm_scores
# not called here; kept because perfbench/spans.py patches this name
from .geometry import tm_score  # noqa: F401

ENUMERATION_LIMIT = 8
# Largest complex the exhaustive oracle scores (6^4 = 1 296 trees).
SCORING_LIMIT = 6


def canonical_edges(edges):
    """Sorted tuple of (a, b) pairs with a < b; rejects self-loops."""
    out = []
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-loop on node {a}")
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return tuple(out)


def _join_count(nodes, edges):
    """Union-find over ``nodes``: how many ``edges`` join two components, or
    None when an edge has an endpoint outside ``nodes``."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    joins = 0
    for a, b in edges:
        if a not in parent or b not in parent:
            return None
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joins += 1
    return joins


def is_labeled_tree(nodes, edges):
    """|E| = |V| - 1 edges inside the node set, each joining two components."""
    nodes = list(nodes)
    return len(edges) == len(nodes) - 1 and _join_count(nodes, edges) == len(edges)


def adjacency(edges, nodes=()):
    """{node: ascending neighbours} over ``nodes`` and the endpoints of ``edges``."""
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for neighbours in adj.values():
        neighbours.sort()
    return adj


@dataclass(frozen=True)
class AssemblyGraph:
    """Labeled tree over chain indices, optionally carrying node attributes.

    ``nodes`` is a sorted tuple of chain labels (any subset of a multimer's
    chains); ``attrs``, when present, has one row per node in ``nodes`` order.
    """

    nodes: tuple
    edges: tuple
    attrs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        nodes = tuple(sorted(int(v) for v in self.nodes))
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node labels")
        if not nodes:
            raise ValueError("empty node set")
        edges = canonical_edges(self.edges)
        if not is_labeled_tree(nodes, edges):
            raise ValueError(
                f"edges {edges} do not form a tree over nodes {nodes}"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if self.attrs is not None:
            attrs = np.asarray(self.attrs, dtype=np.float64)
            if attrs.shape[0] != len(nodes):
                raise ValueError("attrs row count != node count")
            object.__setattr__(self, "attrs", attrs)

    @classmethod
    def over(cls, n, edges, attrs=None):
        """Graph on the full label set 0..n-1."""
        return cls(tuple(range(n)), edges, attrs)

    @property
    def n(self):
        return len(self.nodes)

    def local_edges(self):
        """Edges re-indexed into positions within the sorted node tuple."""
        pos = {v: i for i, v in enumerate(self.nodes)}
        return tuple((pos[a], pos[b]) for a, b in self.edges)

    def neighbors(self):
        return adjacency(self.edges, self.nodes)


def as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_uca_edges(n, seed):
    """Random labeled tree on 0..n-1 by uniform attachment.

    Nodes join in uniformly random order; each newcomer attaches to a
    uniformly chosen already-placed node.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = as_rng(seed)
    start = int(rng.integers(n))
    remaining = [i for i in range(n) if i != start]
    placed = [start]
    attach_to = start
    edges = []
    while remaining:
        q = remaining.pop(int(rng.integers(len(remaining))))
        edges.append((attach_to, q))
        placed.append(q)
        attach_to = placed[int(rng.integers(len(placed)))]
    return canonical_edges(edges)


def edges_from_prufer(seq, n):
    """Decode a Prufer sequence (length n-2, entries in 0..n-1) into tree edges."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return canonical_edges(edges)


def enumerate_uca(n):
    """All labeled trees on 0..n-1, each exactly once (n^(n-2) of them)."""
    if n < 2:
        raise ValueError("enumeration defined for n >= 2")
    if n > ENUMERATION_LIMIT:
        raise TreeTooLargeError(
            f"refusing to enumerate {n}^{n - 2} trees (limit n = {ENUMERATION_LIMIT})"
        )
    return [
        edges_from_prufer(seq, n)
        for seq in itertools.product(range(n), repeat=n - 2)
    ]


@dataclass(frozen=True)
class ChainStructure:
    """One chain: residue sequence plus its CA trace in an arbitrary own frame."""

    chain_id: str
    sequence: str
    coords: np.ndarray

    def __post_init__(self):
        coords = as_coords(self.coords, f"chain {self.chain_id}")
        if len(self.sequence) != coords.shape[0]:
            raise ValueError(
                f"chain {self.chain_id}: sequence length {len(self.sequence)} "
                f"!= coordinate count {coords.shape[0]}"
            )
        object.__setattr__(self, "coords", coords)

    def __len__(self):
        return len(self.sequence)


class DimerLibrary:
    """Relative poses for chain pairs: (a, b) -> coordinates of both chains."""

    def __init__(self):
        self._pairs = {}

    def add(self, a, b, coords_a, coords_b):
        a, b = int(a), int(b)
        if a == b:
            raise ValueError("dimer needs two distinct chains")
        xa = as_coords(coords_a)
        xb = as_coords(coords_b)
        if a > b:
            a, b, xa, xb = b, a, xb, xa
        self._pairs[(a, b)] = (xa, xb)

    def has(self, a, b):
        return (min(a, b), max(a, b)) in self._pairs

    def get(self, a, b):
        """Coordinate pair ordered to match the argument order."""
        key = (min(a, b), max(a, b))
        try:
            xa, xb = self._pairs[key]
        except KeyError:
            raise MissingDimerError(f"no dimer stored for chain pair {key}") from None
        return (xa, xb) if a < b else (xb, xa)

    def pairs(self):
        return sorted(self._pairs)

    def __len__(self):
        return len(self._pairs)


@dataclass
class Multimer:
    """A chain set with ground-truth assembled coordinates and a dimer library."""

    name: str
    chains: tuple
    gt_coords: tuple
    dimers: DimerLibrary
    contact_edges: frozenset

    def __post_init__(self):
        self.chains = tuple(self.chains)
        self.gt_coords = tuple(as_coords(c) for c in self.gt_coords)
        if len(self.gt_coords) != len(self.chains):
            raise ValueError("one ground-truth coordinate set per chain required")
        for chain, gt in zip(self.chains, self.gt_coords):
            if len(chain) != gt.shape[0]:
                raise ValueError(
                    f"chain {chain.chain_id}: ground truth length mismatch"
                )
        self.contact_edges = frozenset(
            (min(a, b), max(a, b)) for a, b in self.contact_edges
        )
        if _join_count(range(self.n), self.contact_edges) != self.n - 1:
            raise ValueError(
                f"contact edges must join chains 0..{self.n - 1} into one component"
            )

    @property
    def n(self):
        return len(self.chains)

    @cached_property
    def chain_features(self):
        """(N, 13) matrix of chain-level embeddings, row per chain index."""
        return np.stack([embed_chain(c.sequence) for c in self.chains])

    def graph_over(self, edges):
        feats = self.chain_features
        return AssemblyGraph.over(self.n, edges, feats)

    def subgraph(self, nodes, edges):
        feats = self.chain_features[sorted(int(v) for v in nodes)]
        return AssemblyGraph(tuple(nodes), edges, feats)


def _traversal_order(nodes, edges):
    """Edges as (placed, new) pairs: BFS from the lowest endpoint of the lowest edge."""
    if not edges:
        return []
    adj = adjacency(edges)
    root = edges[0][0]
    seen = {root}
    order = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append((v, w))
                queue.append(w)
    if len(seen) != len(nodes):
        raise DisconnectedTraversalError(
            f"traversal reached {len(seen)} of {len(nodes)} nodes"
        )
    return order


_EYE = np.eye(3)
_ORIGIN = np.zeros(3)
# Trees superposed per batch: bounds the (trees, residues, 3) work arrays.
_SCORE_BATCH = 256


def _compose(edge_sequence, dimers, steps):
    """How ``place_chains`` places each chain: {chain: (copy, partner, rotation,
    translation)}, the chain being its copy in the dimer with ``partner``
    moved by the rigid transform. Kabsch fits are looked up in, and added to,
    ``steps``.

    The first edge's two chains keep their dimer frame. Docking w onto d,
    with d placed as T_d(d's copy in (a, d)), superposes d's copy in (d, w)
    onto that. Kabsch is equivariant, kabsch(T A, B) = T o kabsch(A, B), so
    T_w = T_d o K with K = kabsch(d's copy in (a, d), d's copy in (d, w)),
    which depends only on the triple (d, a, w): ``steps`` keeps it under that
    key.
    """
    poses = {}
    for d, u in edge_sequence:
        if d not in poses and u not in poses:
            if poses:
                raise DisconnectedTraversalError(
                    f"edge ({d}, {u}) touches no placed chain"
                )
            xd, xu = dimers.get(d, u)
            poses[d] = (xd, u, _EYE, _ORIGIN)
            poses[u] = (xu, d, _EYE, _ORIGIN)
            continue
        if d not in poses:
            d, u = u, d
        if u in poses:
            raise DisconnectedTraversalError(f"chain {u} placed twice")
        xd, xu = dimers.get(d, u)
        copy, a, rotation, translation = poses[d]
        step = steps.get((d, a, u))
        if step is None:
            step = steps[d, a, u] = kabsch_align(copy, xd)
        poses[u] = (xu, d, rotation @ step.rotation,
                    rotation @ step.translation + translation)
    return poses


def place_chains(edge_sequence, dimers):
    """Place chains along an edge sequence where each edge extends placed ones.

    The first edge's chains keep their dimer-frame coordinates; every
    subsequent edge (d, u) superposes chain d's copy in the stored (d, u)
    dimer onto the already-placed d, and maps u through that transform.
    Returns {chain index: coordinates}.
    """
    poses = _compose(edge_sequence, dimers, {})
    return {v: copy @ rotation.T + translation
            for v, (copy, _, rotation, translation) in poses.items()}


class Oracle:
    """Correctness of trees over one multimer, for one labelling call.

    Keeps each Kabsch fit its placements compute (see ``_compose``), so scoring
    every tree of an N-chain complex fits at most N(N-1)(N-2) of them, and the
    score of each tree it has scored, so no tree is superposed twice. Make one
    per call and drop it after: fits and scores hold only for the multimer
    they came from.
    """

    def __init__(self, multimer):
        self.multimer = multimer
        self._steps = {}
        self._scores = {}

    def _poses(self, tree):
        nodes, edges = tree
        if len(nodes) == 1:
            only = nodes[0]
            return {only: (self.multimer.chains[only].coords, None, _EYE, _ORIGIN)}
        return _compose(_traversal_order(nodes, edges), self.multimer.dimers, self._steps)

    def scores(self, trees):
        """``assembly_correctness`` of each tree, in order.

        A tree is a ``(nodes, edges)`` pair: a sorted node tuple and its
        ``canonical_edges``. Pairs are generated by the caller and trusted;
        file records are validated as ``AssemblyGraph`` when loaded.

        Only trees not scored before are built, each once, in first-seen
        order. Trees over the same chains are built and superposed onto their
        ground truth in batches: each chain's copies from one dimer are moved
        by the stacked transforms of every tree that places it from that dimer.
        """
        m = self.multimer
        fresh = [tree for tree in dict.fromkeys(trees) if tree not in self._scores]
        by_nodes = {}
        for tree in fresh:
            by_nodes.setdefault(tree[0], []).append(tree)
        for nodes, members in by_nodes.items():
            lengths = [m.gt_coords[v].shape[0] for v in nodes]
            bounds = np.cumsum([0] + lengths).tolist()
            gt = np.concatenate([m.gt_coords[v] for v in nodes])
            for lo in range(0, len(members), _SCORE_BATCH):
                batch = members[lo:lo + _SCORE_BATCH]
                poses = [self._poses(tree) for tree in batch]
                preds = np.empty((len(batch),) + gt.shape)
                for k, v in enumerate(nodes):
                    by_partner = {}
                    for row, pose in enumerate(poses):
                        by_partner.setdefault(pose[v][1], []).append(row)
                    for rows in by_partner.values():
                        copy = poses[rows[0]][v][0]
                        if copy.shape[0] != lengths[k]:
                            raise LengthMismatchError(
                                f"chain {v}: {copy.shape[0]} placed points, "
                                f"{lengths[k]} in the ground truth"
                            )
                        rotations = np.stack([poses[r][v][2] for r in rows])
                        translations = np.stack([poses[r][v][3] for r in rows])
                        preds[rows, bounds[k]:bounds[k + 1]] = (
                            copy @ np.swapaxes(rotations, 1, 2) + translations[:, None]
                        )
                self._scores.update(zip(batch, tm_scores(preds, gt).tolist()))
        return [self._scores[tree] for tree in trees]


def assembly_correctness(graph, multimer):
    """TM-score of the assembled structure against ground truth.

    Residue correspondence is positional per chain, chains concatenated in
    ascending index order.
    """
    return Oracle(multimer).scores([(graph.nodes, graph.edges)])[0]


def enumerate_scores(multimer):
    """(edges, correctness) for every labeled tree over all N <= SCORING_LIMIT chains."""
    if multimer.n > SCORING_LIMIT:
        raise TreeTooLargeError(
            f"exhaustive scoring limited to {SCORING_LIMIT} chains, got {multimer.n}"
        )
    trees = enumerate_uca(multimer.n)
    nodes = tuple(range(multimer.n))
    return list(zip(trees, Oracle(multimer).scores([(nodes, edges) for edges in trees])))


def best_assembly(multimer, scored=None):
    """Highest-correctness tree; ties broken by lowest lexicographic edge list.

    ``scored`` is ``enumerate_scores(multimer)``, enumerated here when not given.
    """
    if scored is None:
        scored = enumerate_scores(multimer)
    best_edges, best_score = scored[0]
    for edges, score in scored[1:]:
        if score > best_score or (score == best_score and edges < best_edges):
            best_edges, best_score = edges, score
    return best_edges, best_score
