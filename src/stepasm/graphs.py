"""Assembly graphs (labeled trees over chains) and the rigid-body assembly oracle.

An assembly graph is an undirected, connected, acyclic graph whose nodes are
chain indices and whose edges are assembly actions. Given a dimer library
(relative pose of each chain pair), a graph determines a full multimer
structure: walk the tree, and for each edge superpose the shared chain of the
stored dimer onto its already-placed copy, carrying the partner along.
The assembly correctness of a graph is the TM-score between the structure it
produces and the ground truth.
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
    MissingDimerError,
    TreeTooLargeError,
)
from .geometry import as_coords, kabsch_align, tm_score

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

    def key(self):
        return (self.nodes, self.edges)

    def local_edges(self):
        """Edges re-indexed into positions within the sorted node tuple."""
        pos = {v: i for i, v in enumerate(self.nodes)}
        return tuple((pos[a], pos[b]) for a, b in self.edges)

    def neighbors(self):
        adj = {v: [] for v in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for v in adj:
            adj[v].sort()
        return adj


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
    if n == 2:
        return [((0, 1),)]
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


def _traversal_order(graph):
    """Edges as (placed, new) pairs: BFS from the lowest endpoint of the lowest edge."""
    if not graph.edges:
        return []
    adj = graph.neighbors()
    root = graph.edges[0][0]
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
    if len(seen) != graph.n:
        raise DisconnectedTraversalError(
            f"traversal reached {len(seen)} of {graph.n} nodes"
        )
    return order


def place_chains(edge_sequence, dimers):
    """Place chains along an edge sequence where each edge extends placed ones.

    The first edge's first endpoint keeps its dimer-frame coordinates; every
    subsequent edge (d, u) superposes chain d's copy in the stored (d, u)
    dimer onto the already-placed d, and maps u through that transform.
    Returns {chain index: coordinates}.
    """
    placed = {}
    for d, u in edge_sequence:
        if d not in placed and u not in placed:
            if placed:
                raise DisconnectedTraversalError(
                    f"edge ({d}, {u}) touches no placed chain"
                )
            xd, xu = dimers.get(d, u)
            placed[d] = xd
            placed[u] = xu
            continue
        if d not in placed:
            d, u = u, d
        if u in placed:
            raise DisconnectedTraversalError(f"chain {u} placed twice")
        xd, xu = dimers.get(d, u)
        transform = kabsch_align(placed[d], xd)
        placed[u] = transform.apply(xu)
    return placed


def assemble(graph, multimer):
    """Coordinates of every chain in ``graph.nodes`` after walking the tree.

    Output frame is the first-placed dimer's frame; compare via superposition.
    """
    for a, b in graph.edges:
        if not multimer.dimers.has(a, b):
            raise MissingDimerError(f"no dimer stored for chain pair ({a}, {b})")
    if graph.n == 1:
        only = graph.nodes[0]
        return [multimer.chains[only].coords]
    placed = place_chains(_traversal_order(graph), multimer.dimers)
    return [placed[v] for v in graph.nodes]


def assembly_correctness(graph, multimer):
    """TM-score of the assembled structure against ground truth.

    Residue correspondence is positional per chain, chains concatenated in
    ascending index order.
    """
    coords = assemble(graph, multimer)
    pred = np.concatenate(coords)
    gt = np.concatenate([multimer.gt_coords[v] for v in graph.nodes])
    return tm_score(pred, gt)


def enumerate_scores(multimer):
    """(edges, correctness) for every labeled tree over all N <= SCORING_LIMIT chains."""
    if multimer.n > SCORING_LIMIT:
        raise TreeTooLargeError(
            f"exhaustive scoring limited to {SCORING_LIMIT} chains, got {multimer.n}"
        )
    out = []
    for edges in enumerate_uca(multimer.n):
        graph = AssemblyGraph.over(multimer.n, edges)
        out.append((edges, assembly_correctness(graph, multimer)))
    return out


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
