"""From-scratch supervised classifiers: a seeded random forest of CART trees
with gini feature importance, nearest-neighbor and Gaussian naive Bayes
baselines, stratified cross-validated grid search, and model persistence. A
single CART tree is a one-tree forest without bootstrap or feature sampling.
A saved forest is one JSON header line and then its node arrays as raw
little-endian bytes, so loading parses only the header.

Labels are class indices into an ordered label space. Determinism contract:
all randomness flows from one seed through spawned counter-based generators,
and every tie (splits, votes, neighbors) breaks toward the lowest index.

The forest's trees grow together, one node per tree per step, with one
batched split search over the step's nodes. Each tree still grows in its own
preorder and takes its nodes' feature subsets from its own generator in that
order, and each node still takes the first best split, so a seed gives the
forest a tree grown alone would: growing together changes only how many
numpy calls a node costs. A tree draws its subsets in blocks, one numpy call
per block: a block holds the subsets one ``Generator.choice`` call per node
draws.
"""
from __future__ import annotations

import inspect
import json
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property
from math import ceil, sqrt
from pathlib import Path

import numpy as np

from .features import FeatureSchema

MODEL_FORMAT = "qcpredict-forest"
MODEL_VERSION = 3

_MIN_DECREASE = 1e-12
# bootstrap rows grown in lockstep at once (a group takes as many whole trees
# as fit, at least one), and training rows one batched split search holds
# (plus the rows of the node that crosses the bound): both bound the arrays
# of a step, which sets the memory training peaks at. The group budget is
# 100 trees of the paper's 1,374 training rows
_GROUP_ROWS = 100 * 1374
_SEARCH_ROWS = 1024
# feature subsets a tree draws at once: most trees of a narrow-corpus forest
# use fewer, so one block serves them
_BLOCK_SUBSETS = 32


class ModelFormatError(ValueError):
    """Model file is missing, corrupt, or from an unknown format version."""


@dataclass(eq=False)
class NodeTable:
    """One or more trees as flat node arrays, each tree stored in preorder
    from its root, so the left child of split node ``i`` is ``i + 1``."""

    feature: np.ndarray  # int64, -1 marks a leaf
    threshold: np.ndarray  # float64; rows with x[feature] <= threshold go left
    right: np.ndarray  # int64 right child, -1 at leaves
    label: np.ndarray  # int64 majority class at leaves, -1 at splits
    n_samples: np.ndarray  # int64 training rows reaching the node
    impurity: np.ndarray  # float64 gini of those rows
    roots: np.ndarray  # int64 root index per tree

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeTable) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @cached_property
    def descent(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(child, feature, depth): the tables ``_vote_counts`` descends.

        ``child[2 * i]`` is the right child of split node ``i`` and
        ``child[2 * i + 1]`` its left, so a row moves from ``i`` to
        ``child[2 * i + (x[feature[i]] <= threshold[i])]``; NaN compares
        false and goes right. A leaf is its own child both ways and reads
        feature 0, so a walk that reached one stays. ``depth`` counts the
        split nodes on the longest path from a root, the steps that take
        every walk to its leaf. No level it is found from holds more than
        twice as many nodes as the table, even in a file whose trees share
        nodes."""
        split = self.feature >= 0
        node = np.arange(split.size)
        child = np.empty(2 * split.size, dtype=np.int64)
        child[0::2] = np.where(split, self.right, node)
        child[1::2] = np.where(split, node + 1, node)
        level, depth = self.roots, 0
        while True:
            level = level[split[level]]
            if not level.size:
                return child, np.maximum(self.feature, 0), depth
            depth += 1
            level = np.concatenate([level + 1, self.right[level]])
            if level.size > split.size:  # some node is reached twice: keep it once
                level = np.unique(level)


_NODE_DTYPES = {
    "feature": np.int64, "threshold": np.float64, "right": np.int64, "label": np.int64,
    "n_samples": np.int64, "impurity": np.float64, "roots": np.int64,
}
# how model.bin stores each node array: little-endian, the integers as int32
_FILE_DTYPES = {name: np.dtype("<f8" if dtype is np.float64 else "<i4") for name, dtype in _NODE_DTYPES.items()}


def _check_int(name: str, value: object, least: int, none: bool = False) -> None:
    """Refuse, naming it, a parameter that is not an int (a bool included) or
    is below ``least``; with ``none``, None passes."""
    if none and value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be {'None or ' * none}an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'None or ' * none}at least {least}, got {value}")


def _check_forest_params(
    n_trees: int, max_depth: int | None, min_samples_leaf: int, seed: int, bootstrap: bool,
    max_features: str | None,
) -> None:
    _check_int("n_trees", n_trees, 1)
    _check_int("max_depth", max_depth, 0, none=True)
    _check_int("min_samples_leaf", min_samples_leaf, 1)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(bootstrap, bool):
        raise ValueError(f"bootstrap must be True or False, got {bootstrap!r}")
    if max_features not in ("sqrt", None):
        raise ValueError(f"max_features must be 'sqrt' or None, got {max_features!r}")


def _check_label_space(label_space: object) -> None:
    """Refuse, naming the field, a label space that is not a list (or tuple)
    of distinct strings, so that each class has a name of its own."""
    if not isinstance(label_space, (list, tuple)):
        raise ValueError(f"label_space must be a list of distinct strings, got {label_space!r}")
    seen = set()
    for label in label_space:
        if not isinstance(label, str):
            raise ValueError(f"label_space must be a list of distinct strings, got the item {label!r}")
        if label in seen:
            raise ValueError(f"label_space must be a list of distinct strings, got {label!r} twice")
        seen.add(label)


def _check_input(X: np.ndarray, y: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, f) with one label per row and n > 0")
    if n_classes < 1 or y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels must be indices into [0, n_classes)")
    return X, y


def _dense_ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's rank among the distinct numbers of its column, and a
    (features, width) table of those numbers by rank. NaN ranks ``width``,
    above every number, as a sort puts it last."""
    nan = np.isnan(X)
    columns = [np.unique(X[~nan[:, j], j]) for j in range(X.shape[1])]
    values = np.full((X.shape[1], max((c.size for c in columns), default=0)), np.nan)
    ranks = np.empty(X.shape, dtype=np.int64)
    for j, distinct in enumerate(columns):
        values[j, : distinct.size] = distinct
        ranks[:, j] = np.searchsorted(distinct, X[:, j])
    ranks[nan] = values.shape[1]
    return ranks, values


def _bits(count: int) -> int:
    """Bits of a field that holds 0 .. count - 1."""
    return (count - 1).bit_length()


def _batch_split_search(
    ranks: np.ndarray, values: np.ndarray, y: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
    candidates: np.ndarray, counts: np.ndarray, parent_gini: np.ndarray, min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, threshold) of every node of a batch, -1 where a node
    stays a leaf. ``rows`` holds the nodes' training rows one node after the
    other, ``sizes`` their counts, ``candidates`` each node's sorted
    candidate features and ``counts`` its class counts.

    One sort of packed integer keys (node, candidate, value rank, class)
    orders every node's rows by every candidate feature at once, with no
    padding; row order within a node never matters. Each field below the
    node takes the bits its largest value needs (``_bits``), and shifts and
    masks read the fields back: as every field is below its power of two,
    the packed order is the lexicographic order of the fields, the order a
    mixed-radix key gives, so the sort and every gini value and tie-break
    that follow it are the same. A second sort, of (node, candidate, class,
    position) keys, counts ``occ`` below. With ``m`` the batch's (row,
    candidate) pairs, at most (``_SEARCH_ROWS`` + n) * f, and ``C`` the
    classes, both keys stay under 2**63 while ``8 * C * m * max(m, n + 1)``
    does: up to about 2 * 10**8 pairs for 30 classes, some 3,000 times the
    paper's (1,024 + 1,374) * 25. A threshold is the
    midpoint of two adjacent distinct values where that midpoint lies in
    [lower, upper), and the lower value elsewhere: next to an infinity,
    where the midpoint rounds onto the upper value, or where the sum
    overflows. So every split sends at least one row each way.

    The child sums of squared class counts are exact integers: to the
    left, the running sum of ``2 * occ + 1``, where ``occ`` counts the
    earlier rows of the column with the same class; to the right,
    ``sum(T**2) - 2 * cumsum(T[class]) + left`` for the node's class
    totals ``T``. So the weighted child gini of
    each (feature, threshold) pair is the float64 expression a per-node
    class-count cumsum gives. It is evaluated only at the positions where
    a split can fall, each with the same operands in the same order, and
    every other position reads ``inf``. Each node takes its first minimum in
    feature-major order: the lowest candidate feature, then the lowest
    threshold. A node with no split leaving both sides ``min_leaf`` rows
    and lowering the gini by more than ``_MIN_DECREASE`` stays a leaf."""
    n_nodes, k = candidates.shape
    width = values.shape[1] + 1  # ranks, NaN's included
    class_bits, rank_bits, candidate_bits = _bits(counts.shape[1]), _bits(width), _bits(k)
    node = np.repeat(np.arange(n_nodes), sizes)
    key = (node[:, None] << candidate_bits | np.arange(k)) << rank_bits | ranks[rows[:, None], candidates[node]]
    key = np.sort(key << class_bits | y[rows, None], axis=None)
    m = key.size
    cls = key & ((1 << class_bits) - 1)
    rank = key >> class_bits & ((1 << rank_bits) - 1)
    column = key >> (class_bits + rank_bits)  # node << candidate_bits | candidate
    owner, candidate = column >> candidate_bits, column & ((1 << candidate_bits) - 1)
    size = sizes[owner]
    node_start = np.cumsum(sizes * k) - sizes * k
    start = node_start[owner] + candidate * size
    left = np.arange(m) - start + 1  # rows at or before each position of its column

    # occ: each position's rank among the positions of its column and class
    position_bits = _bits(m)
    by_class = np.sort((column << class_bits | cls) << position_bits | np.arange(m))
    run = by_class >> position_bits
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = run[1:] != run[:-1]
    occ = np.empty(m, dtype=np.int64)
    occ[by_class & ((1 << position_bits) - 1)] = np.arange(m) - np.maximum.accumulate(
        np.where(new_run, np.arange(m), 0)
    )

    terms = np.stack([2 * occ + 1, counts[owner, cls]])
    sums = np.cumsum(terms, axis=1)
    sums -= (sums - terms)[:, start]  # restart at each column
    # min_leaf >= 1 keeps a row to the right, so no column's last position is valid
    valid = (left >= min_leaf) & (size - left >= min_leaf)
    # between distinct numbers only: NaN compares false with every number
    valid[:-1] &= (rank[:-1] < rank[1:]) & (rank[1:] < width - 1)

    at = np.flatnonzero(valid)
    sumsq_left, cross = sums[:, at]
    sumsq_right = (counts * counts).sum(axis=1)[owner[at]] - 2 * cross + sumsq_left
    left_count, size_at = left[at].astype(np.float64), size[at]
    right_count = size_at - left_count
    weighted = np.full(m, np.inf)
    weighted[at] = (left_count - sumsq_left / left_count + right_count - sumsq_right / right_count) / size_at
    lowest = np.minimum.reduceat(weighted, node_start)
    best = np.minimum.reduceat(np.where(weighted == lowest[owner], np.arange(m), m), node_start)
    split = parent_gini - lowest > _MIN_DECREASE
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    at = best[split]
    feature[split] = candidates[split, candidate[at]]
    lower, upper = values[feature[split], rank[at]], values[feature[split], rank[at + 1]]
    with np.errstate(over="ignore", invalid="ignore"):  # next to an infinity or the float maximum
        middle = (lower + upper) / 2.0
    threshold[split] = np.where((lower <= middle) & (middle < upper), middle, lower)
    return feature, threshold


def _draw_subsets(rngs: list[np.random.Generator], n_features: int, k: int) -> np.ndarray:
    """(len(rngs), ``_BLOCK_SUBSETS``, k): each generator's next
    ``_BLOCK_SUBSETS`` sorted k-subsets of ``range(n_features)``, the sorted
    results of that many ``choice(n_features, k, replace=False)`` calls in
    turn, and the generator left where those calls leave it.

    One ``integers`` call per generator makes the bounded draws the calls
    make, in their order. Each call runs Floyd's algorithm, one draw in
    ``[0, j]`` for ``j`` from ``n_features - k`` to ``n_features - 1``,
    keeping its ``i``-th draw ``v``, or ``n_features - k + i`` if ``v`` is
    already kept; then it shuffles its k picks with one draw in ``[0, i]``
    for ``i`` from ``k - 1`` down to 1. The shuffle draws only move the
    stream: they reorder a subset that is then sorted."""
    bounds = np.tile(np.r_[n_features - k: n_features, k - 1: 0: -1], _BLOCK_SUBSETS)
    picks = np.array([rng.integers(0, bounds, endpoint=True) for rng in rngs]).reshape(-1, 2 * k - 1)[:, :k]
    for i in range(1, k):
        kept = (picks[:, :i] == picks[:, i, None]).any(axis=1)
        picks[kept, i] = n_features - k + i
    picks.sort(axis=1)
    return picks.reshape(len(rngs), _BLOCK_SUBSETS, k)


def _grow(
    X: np.ndarray, y: np.ndarray, n_classes: int, samples: np.ndarray,
    rngs: list[np.random.Generator], max_depth: int | None, min_leaf: int,
    max_features: int | None,
) -> NodeTable:
    """One tree per row of ``samples``, the tree's training rows of X, grown
    in lockstep into one node table. ``max_features`` (which needs ``rngs``,
    one per tree) draws each searched node's candidate features. A step's
    arrays grow with ``samples.size``, the rows of all the trees, which
    ``fit_forest`` bounds by ``_GROUP_ROWS``.

    Each tree keeps its rows in its own stretch of one array, a node's rows
    a slice of it, and a preorder stack of the slices still to grow. At each
    step, every tree with nodes left pops one, so the node a tree pops at
    step ``t`` is its ``t``-th in preorder. The step's class counts, gini
    and leaf labels come out as arrays, its split searches run in batches
    of about ``_SEARCH_ROWS`` rows (see ``_batch_split_search``), and each split
    node's slice is reordered in place, left child first.

    A tree's searched nodes take its subsets in turn from blocks of
    ``_BLOCK_SUBSETS`` (see ``_draw_subsets``); a step refills, in one batch,
    the trees whose block ran out. A tree's generator is read only while
    the tree grows."""
    n, n_features = X.shape
    draw = max_features is not None and max_features < n_features
    k = max_features if draw else n_features
    ranks, values = _dense_ranks(X)
    order = samples.flatten()
    # per tree, its current block of subsets and how many subsets the tree has taken
    pool = np.empty((samples.shape[0], _BLOCK_SUBSETS, k), dtype=np.int64)
    used = np.zeros(samples.shape[0], dtype=np.int64)
    # per tree, the nodes still to grow: (start, stop, depth, step of the node whose right child it is)
    stacks = [[(t * n, t * n + n, 0, -1)] for t in range(samples.shape[0])]
    live = np.arange(samples.shape[0])
    steps = []  # per step: its trees, then their nodes' fields
    while live.size:
        m = live.size
        start, stop, depth, parent = np.array([stacks[t].pop() for t in live]).T
        sizes = stop - start
        node = np.repeat(np.arange(m), sizes)
        at = np.arange(node.size) + (start - np.cumsum(sizes) + sizes)[node]  # the nodes' slices
        rows = order[at]
        counts = np.bincount(node * n_classes + y[rows], minlength=m * n_classes).reshape(m, n_classes)
        p = counts / sizes[:, None]
        gini = 1.0 - (p * p).sum(axis=1)
        searched = np.flatnonzero((gini > 0.0) & (max_depth is None or depth < max_depth))
        if draw and searched.size:
            trees = live[searched]
            taken = used[trees] % _BLOCK_SUBSETS
            spent = trees[taken == 0]  # a tree's first subset, or its block ran out
            if spent.size:
                pool[spent] = _draw_subsets([rngs[t] for t in spent], n_features, k)
            candidates = pool[trees, taken]
            used[trees] += 1
        else:  # every feature, or no node to search
            candidates = np.broadcast_to(np.arange(k), (searched.size, k))
        eligible = sizes[searched] >= 2 * min_leaf
        searched, candidates = searched[eligible], candidates[eligible]

        feature = np.full(m, -1, dtype=np.int64)
        threshold = np.zeros(m)
        if searched.size:
            chosen = np.zeros(m, dtype=bool)
            chosen[searched] = True
            block = rows[chosen[node]]
            ends = np.cumsum(sizes[searched])
            # a new batch at each node starting past a multiple of _SEARCH_ROWS rows
            cut = (np.flatnonzero(np.diff((ends - sizes[searched]) // _SEARCH_ROWS)) + 1).tolist()
            for a, b in zip([0, *cut], [*cut, ends.size]):
                nodes = searched[a:b]
                feature[nodes], threshold[nodes] = _batch_split_search(
                    ranks, values, y, block[ends[a] - sizes[nodes[0]]: ends[b - 1]], sizes[nodes],
                    candidates[a:b], counts[nodes], gini[nodes], min_leaf,
                )
        split = feature >= 0
        steps.append((live, feature, threshold, np.where(split, -1, np.argmax(counts, axis=1)),
                      sizes, gini, parent.copy()))
        if split.any():
            # reorder each split node's slice: its left child's rows, then its right child's
            going = split[node]
            side = ~(X[rows[going], feature[node[going]]] <= threshold[node[going]])  # NaN goes right
            order[at[going]] = np.sort((node[going] * 2 + side) * n + rows[going]) % n
            middle = start + np.bincount(node[going][~side], minlength=m)
            pending = (a[split].tolist() for a in (live, start, middle, stop, depth + 1))
            for t, lo, mid, hi, d in zip(*pending):
                stacks[t] += [(mid, hi, d, len(steps) - 1), (lo, mid, d, -1)]
        live = live[[bool(stacks[t]) for t in live]]

    tree = np.concatenate([record[0] for record in steps])
    step = np.repeat(np.arange(len(steps)), [record[0].size for record in steps])
    per_tree = np.bincount(tree, minlength=samples.shape[0])
    roots = np.cumsum(per_tree) - per_tree
    at = roots[tree] + step
    table = {}
    for i, name in enumerate(("feature", "threshold", "label", "n_samples", "impurity"), start=1):
        table[name] = np.empty(at.size, dtype=_NODE_DTYPES[name])
        table[name][at] = np.concatenate([record[i] for record in steps])
    parent = np.concatenate([record[6] for record in steps])
    table["right"] = np.full(at.size, -1, dtype=np.int64)
    table["right"][(roots[tree] + parent)[parent >= 0]] = at[parent >= 0]
    return NodeTable(**table, roots=roots)


def _concat_trees(tables: list[NodeTable]) -> NodeTable:
    """One table holding every tree, the node indices shifted to match."""
    offsets = np.cumsum([0] + [t.feature.shape[0] for t in tables[:-1]])
    merged = {name: np.concatenate([getattr(t, name) for t in tables]) for name in _NODE_DTYPES}
    shift = np.repeat(offsets, [t.feature.shape[0] for t in tables])
    merged["right"] = np.where(merged["right"] >= 0, merged["right"] + shift, -1)
    merged["roots"] = merged["roots"] + np.repeat(offsets, [t.roots.shape[0] for t in tables])
    return NodeTable(**merged)


@dataclass
class ForestModel:
    nodes: NodeTable
    n_trees: int
    max_depth: int | None
    min_samples_leaf: int
    bootstrap: bool
    max_features: str | None  # "sqrt" or None (all features)
    schema: FeatureSchema
    label_space: tuple[str, ...]
    seed: int

    @property
    def n_classes(self) -> int:
        return len(self.label_space)


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    label_space: tuple[str, ...] | list[str],
    n_trees: int = 500,
    max_depth: int | None = 20,
    min_samples_leaf: int = 2,
    seed: int = 0,
    bootstrap: bool = True,
    max_features: str | None = "sqrt",
) -> ForestModel:
    """Bagged CART ensemble; per-node feature subsets of ceil(sqrt(f)).
    A single CART tree is ``n_trees=1, bootstrap=False, max_features=None``.

    Refuses an ``n_trees`` or ``min_samples_leaf`` that is not an int of at
    least 1, a ``max_depth`` that is neither None nor an int of at least 0,
    a ``seed`` that is not a non-negative int (a bool is not an int here),
    a ``bootstrap`` that is not a bool and a ``max_features`` other than
    "sqrt" or None, and a ``label_space`` that is not a list of distinct
    strings, naming the parameter; so does ``load_model`` for a header.
    Every label is checked before any bootstrap. Tree ``i`` owns the
    ``i``-th generator spawned from ``seed`` and grows depth-first, left
    child first: it draws its bootstrap first, then, with ``max_features``,
    one feature subset at every impure node above ``max_depth`` in that
    preorder, even at a node too small to split, so a seed fixes the tree.
    Ties between splits go to the lowest candidate feature, then to the
    lowest threshold within it. Trees grow in groups of as many whole
    trees as ``_GROUP_ROWS`` bootstrap rows hold, at least one, all of a
    group in lockstep: 100 trees of the paper's 1,374 training rows, and
    the narrow corpus's 500 trees of 110 rows in one group. A step pops
    each unfinished tree's next node in its own preorder, so no tree's
    draws move, and the step's split searches run batched. A tree's
    subsets come from its generator in blocks of ``_BLOCK_SUBSETS``, each
    the sorted results of that many ``choice(f, k, replace=False)`` calls,
    of which the tree's searched nodes take the first they need. The
    forest is the one its trees grown one at a time give, node for node, so
    the ``n``-tree forest is the first ``n`` trees of any larger one with
    the same data, seed and other parameters, which ``grid_search_cv``
    relies on."""
    _check_forest_params(n_trees, max_depth, min_samples_leaf, seed, bootstrap, max_features)
    _check_label_space(label_space)
    X, y = _check_input(X, y, len(label_space))
    if X.shape[1] != len(schema.retained):
        raise ValueError(f"X has {X.shape[1]} columns, schema retains {len(schema.retained)}")
    n = X.shape[0]
    subset = ceil(sqrt(X.shape[1])) if max_features == "sqrt" else None
    groups = []
    children = np.random.SeedSequence(seed).spawn(n_trees)
    group = max(1, _GROUP_ROWS // n)
    for first in range(0, n_trees, group):
        rngs = [np.random.Generator(np.random.Philox(c)) for c in children[first: first + group]]
        # each tree's first draw is its bootstrap
        samples = np.array([rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs])
        groups.append(_grow(X, y, len(label_space), samples, rngs, max_depth, min_samples_leaf, subset))
    return ForestModel(
        _concat_trees(groups), n_trees, max_depth, min_samples_leaf, bootstrap, max_features,
        schema, tuple(label_space), seed,
    )


def _vote_counts(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """(n_samples, n_classes) matrix of per-tree votes. Every (row, tree)
    walk descends at once through the flat child table of
    ``NodeTable.descent``, for exactly the forest's depth: a walk at a leaf
    stays there, so no step checks which walks are done."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != len(model.schema.retained):
        raise ValueError(f"expected {len(model.schema.retained)} features, got {X.shape[1]}")
    nodes = model.nodes
    child, feature, depth = nodes.descent
    threshold = nodes.threshold
    n, n_trees, k = X.shape[0], nodes.roots.shape[0], model.n_classes
    values = X.ravel()
    position = np.tile(nodes.roots, n)  # row-major over (row, tree)
    offset = np.repeat(np.arange(n) * X.shape[1], n_trees)  # where each walk's row starts in values
    for _ in range(depth):
        position = child[2 * position + (values[offset + feature[position]] <= threshold[position])]
    row = np.repeat(np.arange(n) * k, n_trees)
    return np.bincount(row + nodes.label[position], minlength=n * k).reshape(n, k)


def predict_many(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Majority-vote class index per row; vote ties keep the lowest class."""
    return np.argmax(_vote_counts(model, X), axis=1)


def predict_top_k(model: ForestModel, x: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k labels by vote share, ties toward the lower label index."""
    if not 1 <= k <= model.n_classes:
        raise ValueError(f"k must be in [1, {model.n_classes}]")
    votes = _vote_counts(model, np.atleast_2d(x))[0]
    order = sorted(range(model.n_classes), key=lambda c: (-votes[c], c))
    return [(model.label_space[c], votes[c] / model.n_trees) for c in order[:k]]


def feature_importance(model: ForestModel) -> tuple[np.ndarray, np.ndarray, bool]:
    """Mean and std over trees of per-tree normalized gini decrease.

    Means are renormalized to sum to one. The flag reports the degenerate
    all-leaf case, where importances are uniformly zero.
    """
    nodes = model.nodes
    n_features = len(model.schema.retained)
    n_trees = nodes.roots.shape[0]
    tree = np.repeat(np.arange(n_trees), np.diff(np.append(nodes.roots, nodes.feature.shape[0])))
    split = np.flatnonzero(nodes.feature >= 0)
    left, right = split + 1, nodes.right[split]
    n, gini = nodes.n_samples, nodes.impurity
    child_impurity = (n[left] * gini[left] + n[right] * gini[right]) / n[split]
    decrease = (n[split] / n[nodes.roots][tree[split]]) * (gini[split] - child_impurity)
    per_tree = np.zeros((n_trees, n_features))
    # unbuffered adds in node order: the same preorder sums as a per-tree walk
    np.add.at(per_tree, (tree[split], nodes.feature[split]), decrease)
    total = per_tree.sum(axis=1, keepdims=True)
    np.divide(per_tree, total, out=per_tree, where=total > 0.0)
    mean = per_tree.mean(axis=0)
    std = per_tree.std(axis=0)
    grand = mean.sum()
    if grand == 0.0:
        return mean, std, True
    return mean / grand, std, False


def knn_predict(X: np.ndarray, y: np.ndarray, X_test: np.ndarray, k: int, n_classes: int) -> np.ndarray:
    """Euclidean k-nearest vote for each test row; neighbor ties by (distance,
    index), vote ties by lowest class index. One row's distances at a time:
    a test x train x feature array would take about 130 MB at paper scale."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k must be in [1, {X.shape[0]}]")
    predicted = np.empty(len(X_test), dtype=np.int64)
    for i, x in enumerate(np.asarray(X_test, dtype=np.float64)):
        nearest = np.argsort(((X - x) ** 2).sum(axis=1), kind="stable")[:k]
        predicted[i] = np.argmax(np.bincount(y[nearest], minlength=n_classes))
    return predicted


def naive_bayes_predict(X: np.ndarray, y: np.ndarray, X_test: np.ndarray, n_classes: int) -> np.ndarray:
    """Gaussian class-conditional argmax for each test row, over the classes
    present in ``y``, with uniform-smoothed priors and a variance floor of
    1e-9; a tie goes to the lowest class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    present = np.unique(y)
    mean = np.array([X[y == c].mean(axis=0) for c in present])
    var = np.maximum([X[y == c].var(axis=0) for c in present], 1e-9)
    prior = (np.bincount(y)[present] + 1.0) / (X.shape[0] + n_classes)
    diff = np.asarray(X_test, dtype=np.float64)[:, None, :] - mean
    logp = np.log(prior) - 0.5 * (np.log(2.0 * np.pi * var) + diff**2 / var).sum(axis=2)
    return present[np.argmax(logp, axis=1)]


def _fold_assignment(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified round-robin folds; falls back to plain folds (with a warning)
    when some class has fewer samples than folds."""
    n = y.shape[0]
    fold_of = np.empty(n, dtype=np.int64)
    counts = np.bincount(y)
    if counts[counts > 0].min() < folds:
        warnings.warn("class smaller than fold count; using non-stratified folds", stacklevel=3)
        perm = rng.permutation(n)
        fold_of[perm] = np.arange(n) % folds
        return fold_of
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(idx.shape[0])]
        fold_of[idx] = np.arange(idx.shape[0]) % folds
    return fold_of


def _first_trees(model: ForestModel, n_trees: int) -> ForestModel:
    """The forest of ``model``'s first ``n_trees`` trees: its node arrays up
    to the next tree's root, where those trees' right children all point."""
    end = model.nodes.roots[n_trees] if n_trees < model.n_trees else model.nodes.feature.size
    nodes = {name: getattr(model.nodes, name)[:end] for name in _NODE_DTYPES}
    nodes["roots"] = model.nodes.roots[:n_trees]
    return replace(model, nodes=NodeTable(**nodes), n_trees=n_trees)


def grid_search_cv(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    label_space: tuple[str, ...] | list[str],
    grid: list[dict],
    folds: int = 5,
    seed: int = 0,
) -> tuple[dict, list[tuple[dict, float]]]:
    """Mean CV accuracy per grid point; argmax with ties toward grid order.

    Tree ``i`` of a forest depends only on the seed, the other parameters
    and ``i``, so the ``n``-tree forest is the first ``n`` trees of a larger
    one. Each fold therefore fits each set of the points' other parameters
    once, at the largest ``n_trees`` any of those points asks for, and
    scores every point on that forest's first ``n_trees`` trees: the
    accuracies a separate fit per point gives."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if not grid:
        raise ValueError("empty grid")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    root = np.random.SeedSequence(seed)
    fold_ss, *fit_ss = root.spawn(folds + 1)
    rng = np.random.Generator(np.random.Philox(fold_ss))
    fold_of = _fold_assignment(y, folds, rng)
    fit_seeds = [int(s.generate_state(1)[0]) for s in fit_ss]

    default_trees = inspect.signature(fit_forest).parameters["n_trees"].default
    trees = [params.get("n_trees", default_trees) for params in grid]
    shared: dict[tuple, list[int]] = {}  # the other parameters -> the points that ask for them
    for i, params in enumerate(grid):
        _check_int("n_trees", trees[i], 1)
        shared.setdefault(tuple(sorted((k, v) for k, v in params.items() if k != "n_trees")), []).append(i)
    accuracies: list[list[float]] = [[] for _ in grid]
    for k in range(folds):
        train = fold_of != k
        for others, points in shared.items():
            model = fit_forest(X[train], y[train], schema, label_space, n_trees=max(trees[i] for i in points),
                               seed=fit_seeds[k], **dict(others))
            for i in points:
                pred = predict_many(_first_trees(model, trees[i]), X[~train])
                accuracies[i].append(float(np.mean(pred == y[~train])))
    results = [(params, float(np.mean(scores))) for params, scores in zip(grid, accuracies)]
    best = max(range(len(results)), key=lambda i: (results[i][1], -i))
    return results[best][0], results


DEFAULT_GRID = [
    {"n_trees": t, "max_depth": d, "min_samples_leaf": m}
    for t in (100, 300, 500)
    for d in (10, 20, None)
    for m in (1, 2, 4)
]


# ---------------------------------------------------------------------------
# persistence

# the hyperparameters a model file's header holds, in header order
_HEADER_PARAMS = ("n_trees", "max_depth", "min_samples_leaf", "bootstrap", "max_features", "seed")


def save_model(model: ForestModel, path: str | Path) -> None:
    """One JSON header line, then the node arrays as raw ``_FILE_DTYPES`` bytes;
    a value its file type cannot hold raises ``ValueError`` before any write."""
    arrays = {name: getattr(model.nodes, name).astype(dtype) for name, dtype in _FILE_DTYPES.items()}
    for name, values in arrays.items():
        if not np.array_equal(values, getattr(model.nodes, name)):
            raise ValueError(f"node array {name!r} holds a value that does not fit {values.dtype}")
    head = json.dumps({
        "format": MODEL_FORMAT, "version": MODEL_VERSION, **{k: getattr(model, k) for k in _HEADER_PARAMS},
        "schema": {"names": list(model.schema.names), "pruned": list(model.schema.pruned)},
        "label_space": list(model.label_space), "n_nodes": model.nodes.feature.size,
    })
    Path(path).write_bytes(head.encode("utf-8") + b"\n" + b"".join(a.tobytes() for a in arrays.values()))


def load_model(path: str | Path) -> ForestModel:
    """Parse a ``save_model`` file's header line and cast each node array back to
    its ``_NODE_DTYPES`` type; any other file raises ``ModelFormatError``."""
    try:
        head_line, _, body = Path(path).read_bytes().partition(b"\n")
        head = json.loads(head_line)
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(head, dict) or head.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    if head.get("version") in (1, 2):
        raise ModelFormatError(
            f"{path} is a version {head['version']} model; re-run `qcpredict train` to rebuild it "
            "(training is seeded, so the same forest comes back)"
        )
    if head.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {head.get('version')!r}")
    try:
        params = {k: head[k] for k in _HEADER_PARAMS}
        _check_forest_params(**params)
        _check_label_space(head["label_space"])
        size = head["n_nodes"]
        counts = {name: params["n_trees"] if name == "roots" else size for name in _FILE_DTYPES}
        if size < 0 or len(body) != sum(counts[k] * dtype.itemsize for k, dtype in _FILE_DTYPES.items()):
            raise ValueError(f"{len(body)} bytes of node arrays, not those of the {size} nodes declared")
        arrays, at = {}, 0
        for name, dtype in _FILE_DTYPES.items():
            arrays[name] = np.frombuffer(body, dtype, counts[name], at).astype(_NODE_DTYPES[name])
            at += counts[name] * dtype.itemsize
        schema = FeatureSchema(tuple(head["schema"]["names"]), tuple(head["schema"]["pruned"]))
        model = ForestModel(NodeTable(**arrays), schema=schema, label_space=tuple(head["label_space"]), **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    nodes = model.nodes
    splits = np.flatnonzero(nodes.feature >= 0)
    leaves = nodes.feature < 0
    # min and max carry a NaN through, so a NaN impurity fails its bounds
    if (
        nodes.roots[0] != 0
        or not np.all(nodes.roots[1:] > nodes.roots[:-1])
        or nodes.roots[-1] >= size
        or nodes.n_samples.min() < 1
        or not (nodes.impurity.min() >= 0.0 and nodes.impurity.max() <= 1.0)
        or not np.all((nodes.right[splits] > splits + 1) & (nodes.right[splits] < size))
        or not np.all(nodes.feature < len(schema.retained))
        or not np.all((nodes.label[leaves] >= 0) & (nodes.label[leaves] < model.n_classes))
    ):
        raise ModelFormatError(f"corrupt model file {path}: inconsistent node arrays")
    return model
