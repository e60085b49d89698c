"""Synthetic multimers and the source/target training datasets.

The generator builds multimers whose assembly behavior is learnable from
sequence alone: chains carry either an acidic (D/E-rich) or basic (K/R-rich)
composition, assigned by parity along the contact tree, so true contacts are
overwhelmingly acid-base pairs. Dimers for contact pairs are cut from the
ground-truth complex; all other pairs get a deliberately wrong relative pose
(rotated >= 60 degrees, shifted >= 10 A), so any assembly graph that uses a
non-contact edge scores visibly below a spanning tree of true contacts.
"""

import json
import mmap
import os
import stat
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import STANDARD_RESIDUES
from .errors import (
    ConfigError,
    EmptyDatasetError,
    MalformedRecordError,
    NoValidGrowthWarning,
    StepasmError,
)
from .geometry import random_rotation
from .ioutil import atomic_write_text
from .graphs import (
    ChainStructure,
    DimerLibrary,
    Multimer,
    Oracle,
    adjacency,
    as_rng,
    canonical_edges,
    random_uca_edges,
)
# not called here; kept because perfbench/spans.py patches this name
from .graphs import assembly_correctness  # noqa: F401

GENERATOR_VERSION = 1
KEEP_THRESHOLD = 0.99
CONDITION_CAP = 32
SMALL_SCALE_MAX = 7  # small/large split boundary on chain count
CHAIN_COUNT_RANGE = (3, 30)  # chain counts the generator builds
SOURCE_CHAIN_RANGE = (3, 5)  # chain counts of pre-training complexes

_ACIDIC = "DE"
_BASIC = "KR"


@dataclass(frozen=True)
class SourceInstance:
    """Full assembly graph over one multimer plus its correctness label."""

    multimer: str
    n: int
    edges: tuple
    y: float

    def graph(self, multimer):
        return multimer.graph_over(self.edges)


@dataclass(frozen=True)
class TargetInstance:
    """A partial assembly (condition graph), one docking action, and its label."""

    multimer: str
    n: int
    cond_nodes: tuple
    cond_edges: tuple
    v_d: int
    v_u: int
    y: float

    def __post_init__(self):
        if self.v_d not in self.cond_nodes:
            raise ValueError("docked node must lie in the condition graph")
        if self.v_u in self.cond_nodes:
            raise ValueError("undocked node must lie outside the condition graph")

    def condition(self, multimer):
        return multimer.subgraph(self.cond_nodes, self.cond_edges)

    def extended(self, multimer):
        nodes = tuple(sorted(self.cond_nodes + (self.v_u,)))
        edges = self.cond_edges + ((self.v_d, self.v_u),)
        return multimer.subgraph(nodes, edges)


class ScaleSplit(NamedTuple):
    small: tuple  # instances from multimers with N <= 7
    large: tuple  # N >= 8


def split_by_scale(instances):
    small = tuple(i for i in instances if i.n <= SMALL_SCALE_MAX)
    large = tuple(i for i in instances if i.n > SMALL_SCALE_MAX)
    return ScaleSplit(small, large)


def _unit(v):
    return v / np.linalg.norm(v)


def _chain_walk(rng, length, step=3.8, min_sep=3.0):
    """Persistent random walk with a short-range self-avoidance check."""
    pos = np.zeros((length, 3))
    direction = _unit(rng.standard_normal(3))
    for t in range(1, length):
        for _ in range(20):
            nd = _unit(direction + 0.7 * rng.standard_normal(3))
            cand = pos[t - 1] + step * nd
            if t < 2:
                break
            gaps = np.linalg.norm(pos[: t - 1] - cand, axis=1)
            if gaps.min() >= min_sep:
                break
        direction = _unit(cand - pos[t - 1])
        pos[t] = cand
    return pos - pos.mean(axis=0)


def _draw_sequence(rng, length, boost):
    weights = np.ones(len(STANDARD_RESIDUES))
    for aa in boost:
        weights[STANDARD_RESIDUES.index(aa)] = 8.0
    p = weights / weights.sum()
    picks = rng.choice(len(STANDARD_RESIDUES), size=length, p=p)
    return "".join(STANDARD_RESIDUES[i] for i in picks)


def _wrong_pose(rng, coords, min_angle=np.pi / 3.0, min_shift=10.0):
    """Rotate about the centroid by >= min_angle and shift by >= min_shift."""
    axis = _unit(rng.standard_normal(3))
    angle = rng.uniform(min_angle, np.pi)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    shift = _unit(rng.standard_normal(3)) * rng.uniform(min_shift, 25.0)
    centroid = coords.mean(axis=0)
    return (coords - centroid) @ rot.T + centroid + shift


def _rigid_jumble(rng, coord_sets, spread=30.0):
    """One random rigid motion applied to every coordinate set jointly."""
    rot = random_rotation(rng)
    shift = rng.standard_normal(3) * spread
    return [c @ rot.T + shift for c in coord_sets]


def gen_synthetic_multimer(n, seed, name=None):
    """Random n-chain multimer with ground truth, contacts, and a full dimer library."""
    lo, hi = CHAIN_COUNT_RANGE
    if not lo <= n <= hi:
        raise ValueError(f"chain count must be in {lo}..{hi}, got {n}")
    rng = as_rng(seed)
    tree = random_uca_edges(n, rng)
    # depth-first layout order over the contact tree; the parity of a node's
    # depth (0 acidic, 1 basic) sets its composition
    adj = adjacency(tree, range(n))
    order = []
    parity = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in reversed(adj[v]):
            if w not in parity:
                parity[w] = parity[v] ^ 1
                stack.append(w)
    lengths = [int(rng.integers(50, 121)) for _ in range(n)]
    sequences = [
        _draw_sequence(rng, lengths[i], _ACIDIC if parity[i] == 0 else _BASIC)
        for i in range(n)
    ]
    walks = [_chain_walk(rng, lengths[i]) for i in range(n)]
    radii = [float(np.linalg.norm(w, axis=1).max()) for w in walks]

    # lay chains out along the contact tree; neighbors overlap, others pushed apart
    centers = {0: np.zeros(3)}
    for v in order:
        for w in adj[v]:
            if w in centers:
                continue
            gap = 0.55 * (radii[v] + radii[w])
            best, best_score = None, -np.inf
            for _ in range(24):
                cand = centers[v] + _unit(rng.standard_normal(3)) * gap
                score = min(
                    (np.linalg.norm(cand - c) - radii[w] - radii[o]
                     for o, c in centers.items() if o != v),
                    default=np.inf,
                )
                if score > best_score:
                    best, best_score = cand, score
            centers[w] = best
    gt = [walks[i] + centers[i] for i in range(n)]

    # extra contacts: acid-base pairs that ended up genuinely touching
    contacts = set(tree)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in contacts or parity[i] == parity[j]:
                continue
            if np.linalg.norm(centers[i] - centers[j]) > radii[i] + radii[j]:
                continue
            d2 = np.sum((gt[i][:, None, :] - gt[j][None, :, :]) ** 2, axis=2)
            if np.sqrt(d2.min()) < 8.0:
                contacts.add((i, j))

    chains = []
    for i in range(n):
        own = _rigid_jumble(rng, [gt[i]])[0]
        chains.append(ChainStructure(chain_id=str(i), sequence=sequences[i], coords=own))

    dimers = DimerLibrary()
    for i in range(n):
        for j in range(i + 1, n):
            xi, xj = _rigid_jumble(rng, [gt[i], gt[j]])
            if (i, j) not in contacts:
                xj = _wrong_pose(rng, xj)
            dimers.add(i, j, xi, xj)

    return Multimer(
        name=name or f"syn-n{n}",
        chains=tuple(chains),
        gt_coords=tuple(gt),
        dimers=dimers,
        contact_edges=frozenset(contacts),
    )


def gen_multimer_set(counts, seed, prefix="syn"):
    """Batch of multimers; ``counts`` maps chain count -> how many to generate."""
    out = []
    idx = 0
    for n in sorted(counts):
        for _ in range(counts[n]):
            out.append(
                gen_synthetic_multimer(
                    n, np.random.default_rng([seed, idx]), name=f"{prefix}-{idx:04d}-n{n}"
                )
            )
            idx += 1
    return out


def make_source_dataset(multimers, samples_per_multimer, seed):
    """Random deduplicated assembly graphs per multimer, labeled by the oracle."""
    if samples_per_multimer < 1:
        raise ValueError("samples_per_multimer must be positive")
    lo, hi = SOURCE_CHAIN_RANGE
    out = []
    for idx, m in enumerate(multimers):
        if not lo <= m.n <= hi:
            raise ValueError(
                f"{m.name}: pre-training data restricted to {lo} <= N <= {hi}, got {m.n}"
            )
        rng = np.random.default_rng([seed, idx])
        trees = list(dict.fromkeys(
            random_uca_edges(m.n, rng) for _ in range(samples_per_multimer)))
        nodes = tuple(range(m.n))
        labels = Oracle(m).scores([(nodes, edges) for edges in trees])
        out.extend(SourceInstance(multimer=m.name, n=m.n, edges=edges, y=y)
                   for edges, y in zip(trees, labels))
    return out


def label_actions(oracle, conditions):
    """(condition, v_d, v_u, extension, label) for every docking action on
    each ``(nodes, edges)`` condition over ``oracle.multimer``: conditions in
    order, then v_d over the condition's nodes, then v_u over the chains
    outside it. The extensions are labelled by one ``oracle.scores`` call."""
    actions = []
    for cond in conditions:
        nodes, edges = cond
        undocked = [v for v in range(oracle.multimer.n) if v not in nodes]
        for v_d in nodes:
            for v_u in undocked:
                ext = (tuple(sorted(nodes + (v_u,))),
                       canonical_edges(edges + ((v_d, v_u),)))
                actions.append((cond, v_d, v_u, ext))
    labels = oracle.scores([ext for *_, ext in actions])
    return [action + (y,) for action, y in zip(actions, labels)]


def make_target_dataset(multimer, seed, starts=1):
    """Docking-action records grown level by level from random start chains.

    During growth an extension is kept (as a record and as a further growth
    condition) only when its correctness exceeds KEEP_THRESHOLD; at most
    CONDITION_CAP of them per level grow further. A final
    sweep then revisits every retained condition graph — singleton starts
    included — and records every possible extension with its true label, so
    wrong docking actions appear at every condition size.

    Conditions and extensions are ``(nodes, edges)`` pairs, labelled by
    ``label_actions`` through one ``Oracle``, which scores each distinct
    extension once. Records come out in the order they are first made, one
    per (condition, v_d, v_u).
    """
    if multimer.n < 3:
        raise ValueError("target data needs at least 3 chains")
    rng = as_rng(seed)
    start_chains = rng.choice(multimer.n, size=min(starts, multimer.n), replace=False)
    conditions = [((start,), ()) for start in sorted(int(s) for s in start_chains)]
    seen_conditions = set(conditions)
    retained = list(conditions)
    oracle = Oracle(multimer)
    records = {}

    for size in range(1, multimer.n - 1):
        grown = []
        best_below = None
        for cond, v_d, v_u, ext, y in label_actions(oracle, conditions):
            if y > KEEP_THRESHOLD:
                records.setdefault((cond, v_d, v_u), y)
                if ext not in seen_conditions:
                    seen_conditions.add(ext)
                    grown.append((y, ext))
            elif best_below is None or y > best_below[0]:
                best_below = (y, ext, (cond, v_d, v_u))
        if not grown:
            # dead end: push through the least-bad extension so growth continues
            y, ext, action = best_below
            warnings.warn(
                f"{multimer.name}: no extension above {KEEP_THRESHOLD} at size "
                f"{size}; keeping best scorer ({y:.3f})",
                NoValidGrowthWarning,
            )
            records.setdefault(action, y)
            grown = [(y, ext)]
        grown.sort(key=lambda item: (-item[0], item[1][1]))
        conditions = [ext for _, ext in grown[:CONDITION_CAP]]
        retained.extend(conditions)

    # final sweep: every retained condition, every extension, true labels —
    # this is where wrong actions (low y) enter the dataset
    for cond, v_d, v_u, _, y in label_actions(oracle, retained):
        records.setdefault((cond, v_d, v_u), y)
    return [
        TargetInstance(multimer=multimer.name, n=multimer.n, cond_nodes=nodes,
                       cond_edges=edges, v_d=v_d, v_u=v_u, y=y)
        for ((nodes, edges), v_d, v_u), y in records.items()
    ]


# ---------------------------------------------------------------------------
# persistence: line-delimited records, one JSON object per line


def multimer_to_dict(m, seed=None):
    d = {
        "name": m.name,
        "version": GENERATOR_VERSION,
        "n": m.n,
        "chains": [
            {"id": c.chain_id, "sequence": c.sequence, "coords": c.coords.tolist()}
            for c in m.chains
        ],
        "gt": [g.tolist() for g in m.gt_coords],
        "contacts": sorted(m.contact_edges),
        "dimers": {
            f"{a}-{b}": [x.tolist() for x in m.dimers.get(a, b)]
            for a, b in m.dimers.pairs()
        },
    }
    if seed is not None:
        d["seed"] = seed
    return d


def multimer_from_dict(d):
    if not isinstance(d["name"], str):
        raise ValueError(f"multimer name must be a string, got {d['name']!r}")
    chains = tuple(
        ChainStructure(c["id"], c["sequence"], np.array(c["coords"]))
        for c in d["chains"]
    )
    # inference and the oracle assemble at least one dimer
    if len(chains) < 2:
        raise ValueError(f"a multimer needs at least two chains, got {len(chains)}")
    # a chain file names each chain once, on a line of its own, and reads
    # its id back stripped: the ids compare as that file gives them
    ids = [str(c.chain_id).strip() for c in chains]
    for c, ident in zip(chains, ids):
        if not ident or "\n" in ident or "\r" in ident:
            raise ValueError(f"chain id {c.chain_id!r} is empty or spans lines")
    if len(set(ids)) < len(ids):
        raise ValueError(f"chain ids repeat: {ids}")
    dimers = DimerLibrary()
    for key, (xa, xb) in d["dimers"].items():
        a, b = key.split("-")
        dimers.add(int(a), int(b), np.array(xa), np.array(xb))
    return Multimer(
        name=d["name"],
        chains=chains,
        gt_coords=tuple(np.array(g) for g in d["gt"]),
        dimers=dimers,
        contact_edges=frozenset(tuple(e) for e in d["contacts"]),
    )


def save_jsonl(path, dicts):
    text = "".join(json.dumps(d, sort_keys=True) + "\n" for d in dicts)
    atomic_write_text(path, text)


def _decoded(line, lineno=None):
    """The JSON value of one line of bytes, which must be UTF-8 JSON."""
    try:
        return json.loads(line.decode())
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is an integer
    # longer than Python converts; json's decoder raises RecursionError on
    # nesting deeper than the stack
    except (ValueError, RecursionError) as exc:
        raise MalformedRecordError(f"bad JSON record: {exc}", lineno) from None


def _converted(convert, record, lineno=None):
    try:
        return convert(record)
    # OverflowError: an infinite or huge number where an int or float goes
    except (StepasmError, KeyError, IndexError, TypeError, ValueError,
            AttributeError, OverflowError) as exc:
        raise MalformedRecordError(
            f"bad record: {type(exc).__name__}: {exc}", lineno) from None


def _records(path):
    """(line number, line) for each non-blank line of ``path``, as bytes.
    Lines end at b"\n", so a CRLF file numbers its lines as a text reader
    does."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def save_multimers(path, multimers, seeds=None):
    seeds = seeds or {}
    save_jsonl(path, (multimer_to_dict(m, seeds.get(m.name)) for m in multimers))


def load_multimers(path):
    multimers = {}
    for lineno, line in _records(path):
        m = _converted(multimer_from_dict, _decoded(line, lineno), lineno)
        if multimers.setdefault(m.name, m) is not m:
            raise MalformedRecordError(f"multimer name {m.name!r} repeated", lineno)
    return multimers


def _has_name(record, name):
    return isinstance(record, dict) and record.get("name") == name


def _search_named(path, name):
    """The multimer named ``name`` on the line of ``path`` that holds
    ``"name": `` followed by ``json.dumps(name)``, as ``save_multimers``
    writes it, and whose record bears that name (there must be one at most);
    None when no such line is the record.

    The file is mapped and searched as bytes, and only the lines that hold
    the search string are decoded. The line number of a record is counted
    only when the record is malformed.
    """
    needle = b'"name": ' + json.dumps(name).encode()
    # checked before opening, which would block on a named pipe
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ConfigError(f"{path}: not a regular file")
    found = None
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap cannot map an empty file
            return None
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as buf:
            hit = buf.find(needle)
            while hit != -1:
                start = buf.rfind(b"\n", 0, hit) + 1
                end = buf.find(b"\n", hit)
                end = len(buf) if end == -1 else end
                try:
                    record = _decoded(buf[start:end])
                    if _has_name(record, name):
                        if found is not None:
                            raise MalformedRecordError(f"multimer name {name!r} repeated")
                        found = _converted(multimer_from_dict, record)
                except MalformedRecordError as exc:
                    raise MalformedRecordError(
                        str(exc), buf[:start].count(b"\n") + 1) from None
                hit = buf.find(needle, end)
    return found


def load_multimer(path, name=None):
    """The multimer named ``name`` in a multimers file, its first record when
    ``name`` is None, or None when there is no such record.

    Only that record is validated: a malformed record, or a line that is not
    UTF-8, elsewhere in the file is not read. A named record, the only one of
    its name, is found by a byte search of the mapped file for the name as
    ``save_multimers`` writes it (``_search_named``): only the lines that hold
    it are decoded. When none is the record, every UTF-8 JSON line is decoded,
    so a file written with other spacing or escaping is still searched.
    ``path`` must be a regular file when ``name`` is given.
    """
    if name is None:
        for lineno, line in _records(path):
            return _converted(multimer_from_dict, _decoded(line, lineno), lineno)
        return None
    found = _search_named(path, name)
    if found is not None:
        return found
    for lineno, line in _records(path):
        try:
            record = _decoded(line, lineno)
        except MalformedRecordError:
            continue
        if _has_name(record, name):
            if found is not None:
                raise MalformedRecordError(f"multimer name {name!r} repeated", lineno)
            found = _converted(multimer_from_dict, record, lineno)
    return found


def _load_dataset(path, multimers, make):
    """``make(record, multimer)`` for the records of ``path``, each with the
    multimer of ``multimers`` it names and a label y in [0, 1]."""
    def convert(r):
        m = multimers.get(r["multimer"])
        if m is None or m.n != r["n"]:
            raise ValueError(f"no {r['n']}-chain multimer named {r['multimer']!r}")
        inst = make(r, m)
        # a correctness score; NaN fails this test too
        if not 0.0 <= inst.y <= 1.0:
            raise ValueError(f"label y must lie in [0, 1], got {inst.y}")
        return inst

    instances = [_converted(convert, _decoded(line, lineno), lineno)
                 for lineno, line in _records(path)]
    if not instances:
        raise EmptyDatasetError(f"no records in {path}")
    return instances


def save_dataset(path, instances):
    """Source or target records, one JSON object per line."""
    save_jsonl(path, (asdict(i) for i in instances))


def load_source_dataset(path, multimers):
    """Source records; each must be a tree over the multimer it names."""
    def make(r, m):
        inst = SourceInstance(
            multimer=m.name,
            n=m.n,
            edges=canonical_edges(r["edges"]),
            y=float(r["y"]),
        )
        inst.graph(m)
        return inst

    return _load_dataset(path, multimers, make)


def load_target_dataset(path, multimers):
    """Target records; each condition, and the condition extended by its
    action, must be a tree over chains of the multimer it names."""
    def make(r, m):
        inst = TargetInstance(
            multimer=m.name,
            n=m.n,
            cond_nodes=tuple(sorted(int(v) for v in r["cond_nodes"])),
            cond_edges=canonical_edges(r["cond_edges"]),
            v_d=int(r["v_d"]),
            v_u=int(r["v_u"]),
            y=float(r["y"]),
        )
        if min(inst.cond_nodes + (inst.v_u,)) < 0:
            raise ValueError("chain labels must be non-negative")
        inst.condition(m)
        inst.extended(m)
        return inst

    return _load_dataset(path, multimers, make)
