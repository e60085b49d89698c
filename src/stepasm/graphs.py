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
only on (docked chain, the partner it was placed through, new chain). One
placer serves ``place_chains`` and the ``Oracle``: it walks edge sequences,
fits the triples they need with one stacked Kabsch call per docked chain,
and composes the transforms of a batch of sequences position by position.
An ``Oracle`` keeps the fits for one labelling call and superposes a batch
of trees onto the ground truth at once. Scoring all 6^4 trees of a 6-chain
complex takes at most 6 * 5 * 4 = 120 Kabsch fits, in 6 stacked calls,
instead of 4 fits per tree.

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
from .geometry import as_coords, kabsch_fits, tm_scores
# not called here; kept because perfbench/spans.py patches this name
from .geometry import kabsch_align  # noqa: F401
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
        pair = self._pairs.get((a, b) if a < b else (b, a))
        if pair is None:
            raise MissingDimerError(
                f"no dimer stored for chain pair {(min(a, b), max(a, b))}")
        return pair if a < b else pair[::-1]

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


# The identity transform as a 3 x 4 block of rotation and translation columns.
_EYE_POSE = np.hstack([np.eye(3), np.zeros((3, 1))])
# Trees placed and superposed per batch: bounds the (trees * chains, 3, 4)
# and (trees, residues, 3) work arrays.
_SCORE_BATCH = 256


class _Steps:
    """Kabsch fits that dock a chain onto a placed one, kept for reuse.

    Docking w onto d, with d placed as T_d(d's copy in (a, d)), superposes
    d's copy in (d, w) onto that. Kabsch is equivariant, kabsch(T A, B) =
    T o kabsch(A, B), so T_w = T_d o K with K = kabsch(d's copy in (a, d),
    d's copy in (d, w)), which depends only on the triple (d, a, w). Fit k
    is ``poses[k]``, its rotation and translation as the columns of one
    3 x 4 block; ``row`` maps each triple to k.
    """

    def __init__(self, dimers):
        self.dimers = dimers
        self.row = {}
        self.poses = np.empty((0, 3, 4))

    def rows(self, triples):
        """The fit of each (d, a, w) triple, fitting those not kept yet: one
        stacked ``kabsch_fits`` per docked chain d."""
        fresh = {}
        for triple in triples:
            if triple not in self.row:
                fresh.setdefault(triple[0], {})[triple] = None
        if fresh:
            get = self.dimers.get
            kept = len(self.row)
            poses = np.empty((kept + sum(map(len, fresh.values())), 3, 4))
            poses[:kept] = self.poses
            for d, todo in fresh.items():
                rotation, translation = kabsch_fits([get(d, a)[0] for _, a, _ in todo],
                                                    [get(d, w)[0] for _, _, w in todo])
                at = slice(len(self.row), len(self.row) + len(todo))
                poses[at, :, :3] = rotation
                poses[at, :, 3] = translation
                for k, triple in enumerate(todo, at.start):
                    self.row[triple] = k
            self.poses = poses
        return [self.row[triple] for triple in triples]


def _walk(orders):
    """How equal-length edge sequences place their chains, before any fit.

    Each edge of a sequence extends the chains placed before it, either
    chain first. Returns (placements, docked, triples): per sequence,
    {chain: (the chain it was placed through, row)}; and per later edge of
    each sequence, in order, the row of the chain it docks onto and the
    ``_Steps`` triple of its fit. Row k * count + i holds the k-th chain
    that sequence i places.
    """
    count = len(orders)
    placements, docked, triples = [], [], []
    for i, order in enumerate(orders):
        (d, u), *rest = order
        placed = {d: (u, i), u: (d, count + i)}
        for d, u in rest:
            if d not in placed:
                if u not in placed:
                    raise DisconnectedTraversalError(
                        f"edge ({d}, {u}) touches no placed chain"
                    )
                d, u = u, d
            elif u in placed:
                raise DisconnectedTraversalError(f"chain {u} placed twice")
            a, row = placed[d]
            triples.append((d, a, u))
            docked.append(row)
            placed[u] = (d, len(placed) * count + i)
        placements.append(placed)
    return placements, docked, triples


def _transforms(walk, steps):
    """The transforms of a ``_walk``, as (rows, 3, 4) blocks of rotation and
    translation columns: chain v of sequence i is its copy in the dimer with
    its partner, moved by the transform in its row.

    The first edge's two chains keep their dimer frame; every later edge
    (d, w) moves w by d's transform composed with the fit of (d, d's
    partner, w). Transforms compose by position in the sequences, every
    sequence at once.
    """
    placements, docked, triples = walk
    count, slots = len(placements), len(placements[0])
    docked = np.array(docked, dtype=np.intp)
    rows = steps.rows(triples)
    fits = steps.poses[rows]
    poses = np.empty((slots * count, 3, 4))
    poses[:2 * count] = _EYE_POSE
    for k in range(slots - 2):
        # docked and fits hold each sequence's later edges as a run of
        # slots - 2 entries, so edge k + 1 of every sequence is every
        # (slots - 2)-th entry from k
        pose = poses[docked[k::slots - 2]]
        fit = fits[k::slots - 2]
        new = poses[(k + 2) * count:(k + 3) * count]
        np.matmul(pose[..., :3], fit[..., :3], out=new[..., :3])
        np.add(np.matmul(pose[..., :3], fit[..., 3:])[..., 0], pose[..., 3], out=new[..., 3])
    return poses


def place_chains(edge_sequence, dimers):
    """Place chains along an edge sequence where each edge extends placed ones.

    The first edge's chains keep their dimer-frame coordinates; every
    subsequent edge (d, u) superposes chain d's copy in the stored (d, u)
    dimer onto the already-placed d, and maps u through that transform.
    Returns {chain index: coordinates}.
    """
    order = list(edge_sequence)
    if not order:
        return {}
    walk = _walk([order])
    poses = _transforms(walk, _Steps(dimers))
    return {v: dimers.get(v, a)[0] @ poses[row, :, :3].T + poses[row, :, 3]
            for v, (a, row) in walk[0][0].items()}


class Oracle:
    """Correctness of trees over one multimer, for one labelling call.

    Keeps each Kabsch fit its placements compute (see ``_Steps``), so scoring
    every tree of an N-chain complex fits at most N(N-1)(N-2) of them, and
    the score of each tree it has scored, so no tree is superposed twice.
    Make one per call and drop it after: fits and scores hold only for the
    multimer they came from.
    """

    def __init__(self, multimer):
        self.multimer = multimer
        self._steps = _Steps(multimer.dimers)
        self._scores = {}

    def scores(self, trees):
        """``assembly_correctness`` of each tree, in order.

        A tree is a ``(nodes, edges)`` pair: a sorted node tuple and its
        ``canonical_edges``. Pairs are generated by the caller and trusted;
        file records are validated as ``AssemblyGraph`` when loaded.

        Only trees not scored before are built, each once, in first-seen
        order. Every tree is walked along its ``_traversal_order`` first,
        and the fits the walks need that are not kept yet are made at once:
        one stacked fit per docked chain. Trees of one size are then placed
        in batches (``_transforms``), and the trees of a batch over the same
        chains superposed onto their ground truth at once: each chain's
        copies from one dimer are moved by the stacked transforms of every
        tree that places it from that dimer.
        """
        fresh = [tree for tree in dict.fromkeys(trees) if tree not in self._scores]
        by_size = {}
        for tree in fresh:
            by_size.setdefault(len(tree[0]), []).append(tree)
        batches = []
        for size, members in by_size.items():
            for lo in range(0, len(members), _SCORE_BATCH):
                batch = members[lo:lo + _SCORE_BATCH]
                walk = None if size == 1 else _walk([_traversal_order(*t) for t in batch])
                batches.append((batch, walk))
        # every fit the walks lack, at once: one stacked fit per docked chain
        self._steps.rows([t for _, walk in batches if walk for t in walk[2]])
        for batch, walk in batches:
            if walk is None:
                placements = [{nodes[0]: (None, 0)} for nodes, _ in batch]
                poses = _EYE_POSE[None]
            else:
                placements, poses = walk[0], _transforms(walk, self._steps)
            by_nodes = {}
            for row, (nodes, _) in enumerate(batch):
                by_nodes.setdefault(nodes, []).append(row)
            for nodes, rows in by_nodes.items():
                scores = self._superposed(nodes, [placements[row] for row in rows], poses)
                self._scores.update(zip((batch[row] for row in rows), scores))
        return [self._scores[tree] for tree in trees]

    def _superposed(self, nodes, placements, poses):
        """TM-scores of trees over ``nodes``, given their ``_walk`` placements
        and the ``_transforms`` of those."""
        m = self.multimer
        lengths = [m.gt_coords[v].shape[0] for v in nodes]
        bounds = np.cumsum([0] + lengths).tolist()
        gt = np.concatenate([m.gt_coords[v] for v in nodes])
        preds = np.empty((len(placements),) + gt.shape)
        for k, v in enumerate(nodes):
            by_partner = {}
            for i, placed in enumerate(placements):
                a, row = placed[v]
                members = by_partner.setdefault(a, ([], []))
                members[0].append(i)
                members[1].append(row)
            for a, (members, rows) in by_partner.items():
                copy = m.chains[v].coords if a is None else m.dimers.get(v, a)[0]
                if copy.shape[0] != lengths[k]:
                    raise LengthMismatchError(
                        f"chain {v}: {copy.shape[0]} placed points, "
                        f"{lengths[k]} in the ground truth"
                    )
                pose = poses[rows]
                preds[members, bounds[k]:bounds[k + 1]] = (
                    copy @ np.swapaxes(pose[..., :3], 1, 2) + pose[:, None, :, 3]
                )
        return tm_scores(preds, gt).tolist()


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
