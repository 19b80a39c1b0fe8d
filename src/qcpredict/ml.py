"""From-scratch supervised classifiers: a seeded random forest of CART trees
with gini feature importance, nearest-neighbor and Gaussian naive Bayes
baselines, stratified cross-validated grid search, and model persistence. A
single CART tree is a one-tree forest without bootstrap or feature sampling.

Labels are class indices into an ordered label space. Determinism contract:
all randomness flows from one seed through spawned counter-based generators,
and every tie (splits, votes, neighbors) breaks toward the lowest index.

The forest's trees grow together, one node per tree per step, with one
batched split search over the step's nodes. Each tree still grows in its own
preorder and draws from its own generator in that order, and each node still
takes the first best split, so a seed gives the forest a tree grown alone
would: growing together changes only how many numpy calls a node costs.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from math import ceil, sqrt
from pathlib import Path

import numpy as np

from .features import FeatureSchema

MODEL_FORMAT = "qcpredict-forest"
MODEL_VERSION = 2

_MIN_DECREASE = 1e-12
# trees grown in lockstep at once, and training rows one batched split search
# holds (plus the rows of the node that crosses the bound): both bound the
# arrays of a step, which sets the memory training peaks at
_GROUP_TREES = 100
_SEARCH_ROWS = 1024


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


_NODE_DTYPES = {
    "feature": np.int64, "threshold": np.float64, "right": np.int64, "label": np.int64,
    "n_samples": np.int64, "impurity": np.float64, "roots": np.int64,
}


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
    padding; row order within a node never matters. A threshold is the
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
    class-count cumsum gives. Each node takes its first minimum in
    feature-major order: the lowest candidate feature, then the lowest
    threshold. A node with no split leaving both sides ``min_leaf`` rows
    and lowering the gini by more than ``_MIN_DECREASE`` stays a leaf."""
    n_nodes, k = candidates.shape
    n_classes = counts.shape[1]
    width = values.shape[1] + 1  # ranks, NaN's included
    node = np.repeat(np.arange(n_nodes), sizes)
    key = (node[:, None] * k + np.arange(k)) * width + ranks[rows[:, None], candidates[node]]
    key = np.sort(key * n_classes + y[rows, None], axis=None)
    m = key.size
    cls = key % n_classes
    key //= n_classes
    rank = key % width
    column = key // width  # node * k + candidate
    owner = column // k
    size = sizes[owner]
    node_start = np.cumsum(sizes * k) - sizes * k
    start = node_start[owner] + (column % k) * size
    left = np.arange(m) - start + 1  # rows at or before each position of its column

    # occ: each position's rank among the positions of its column and class
    by_class = np.sort((column * n_classes + cls) * m + np.arange(m))
    run = by_class // m
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = run[1:] != run[:-1]
    occ = np.empty(m, dtype=np.int64)
    occ[by_class % m] = np.arange(m) - np.maximum.accumulate(np.where(new_run, np.arange(m), 0))

    terms = np.stack([2 * occ + 1, counts[owner, cls]])
    sums = np.cumsum(terms, axis=1)
    sums -= (sums - terms)[:, start]  # restart at each column
    sumsq_left, cross = sums
    sumsq_right = (counts * counts).sum(axis=1)[owner] - 2 * cross + sumsq_left
    valid = (left < size) & (left >= min_leaf) & (size - left >= min_leaf)
    # between distinct numbers only: NaN compares false with every number
    valid[:-1] &= (rank[:-1] < rank[1:]) & (rank[1:] < width - 1)

    left_count = left.astype(np.float64)
    right_count = size - left_count
    with np.errstate(divide="ignore", invalid="ignore"):  # at each column's last row
        weighted = (left_count - sumsq_left / left_count + right_count - sumsq_right / right_count) / size
    weighted[~valid] = np.inf
    lowest = np.minimum.reduceat(weighted, node_start)
    best = np.minimum.reduceat(np.where(weighted == lowest[owner], np.arange(m), m), node_start)
    split = parent_gini - lowest > _MIN_DECREASE
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    at = best[split]
    feature[split] = candidates[split, column[at] % k]
    lower, upper = values[feature[split], rank[at]], values[feature[split], rank[at + 1]]
    with np.errstate(over="ignore", invalid="ignore"):  # next to an infinity or the float maximum
        middle = (lower + upper) / 2.0
    threshold[split] = np.where((lower <= middle) & (middle < upper), middle, lower)
    return feature, threshold


def _grow(
    X: np.ndarray, y: np.ndarray, n_classes: int, samples: np.ndarray,
    rngs: list[np.random.Generator], max_depth: int | None, min_leaf: int,
    max_features: int | None,
) -> NodeTable:
    """One tree per row of ``samples``, the tree's training rows of X, grown
    in lockstep into one node table. ``max_features`` (which needs ``rngs``,
    one per tree) draws each searched node's candidate features.

    Each tree keeps its rows in its own stretch of one array, a node's rows
    a slice of it, and a preorder stack of the slices still to grow. At each
    step, every tree with nodes left pops one, so the node a tree pops at
    step ``t`` is its ``t``-th in preorder. The step's class counts, gini
    and leaf labels come out as arrays, its split searches run in batches
    of about ``_SEARCH_ROWS`` rows (see ``_batch_split_search``), and each split
    node's slice is reordered in place, left child first."""
    n, n_features = X.shape
    draw = max_features is not None and max_features < n_features
    k = max_features if draw else n_features
    ranks, values = _dense_ranks(X)
    order = samples.flatten()
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
            candidates = np.sort(
                [rngs[live[i]].choice(n_features, size=k, replace=False) for i in searched], axis=1
            )
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

    Every label is checked before any bootstrap. Tree ``i`` owns the
    ``i``-th generator spawned from ``seed`` and grows depth-first, left
    child first: it draws its bootstrap first, then, with ``max_features``,
    one feature subset at every impure node above ``max_depth`` in that
    preorder, even at a node too small to split, so a seed fixes the tree.
    Ties between splits go to the lowest candidate feature, then to the
    lowest threshold within it. Trees grow in groups of ``_GROUP_TREES``,
    all of a group in lockstep: a step pops each unfinished tree's next
    node in its own preorder, so no tree's draws move, and the step's split
    searches run batched. The forest is the one its trees grown one at a
    time give, node for node."""
    if n_trees < 1:
        raise ValueError("need at least one tree")
    X, y = _check_input(X, y, len(label_space))
    if X.shape[1] != len(schema.retained):
        raise ValueError(f"X has {X.shape[1]} columns, schema retains {len(schema.retained)}")
    n = X.shape[0]
    subset = ceil(sqrt(X.shape[1])) if max_features == "sqrt" else None
    groups = []
    children = np.random.SeedSequence(seed).spawn(n_trees)
    for first in range(0, n_trees, _GROUP_TREES):
        rngs = [np.random.Generator(np.random.Philox(c)) for c in children[first: first + _GROUP_TREES]]
        # each tree's first draw is its bootstrap
        samples = np.array([rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs])
        groups.append(_grow(X, y, len(label_space), samples, rngs, max_depth, min_samples_leaf, subset))
    return ForestModel(
        _concat_trees(groups), n_trees, max_depth, min_samples_leaf, bootstrap, max_features,
        schema, tuple(label_space), seed,
    )


def _vote_counts(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """(n_samples, n_classes) matrix of per-tree votes, from a lockstep
    descent of every tree (per-tree python loops are too slow for single-row
    prediction); each step moves only the (row, tree) walks not yet at a leaf."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != len(model.schema.retained):
        raise ValueError(f"expected {len(model.schema.retained)} features, got {X.shape[1]}")
    nodes = model.nodes
    n, n_trees, k = X.shape[0], nodes.roots.shape[0], model.n_classes
    values = X.ravel()
    walk = np.arange(n * n_trees)  # row-major over (row, tree)
    row, tree = np.divmod(walk, n_trees)
    position = nodes.roots[tree]
    offset = row * X.shape[1]  # where the walk's row starts in values
    live = walk[nodes.feature[position] >= 0]
    while live.size:
        at = position[live]
        left = values[offset[live] + nodes.feature[at]] <= nodes.threshold[at]
        at = np.where(left, at + 1, nodes.right[at])
        position[live] = at
        live = live[nodes.feature[at] >= 0]
    return np.bincount(row * k + nodes.label[position], minlength=n * k).reshape(n, k)


def predict_many(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Majority-vote class index per row; vote ties keep the lowest class."""
    return np.argmax(_vote_counts(model, X), axis=1)


def predict(model: ForestModel, x: np.ndarray) -> str:
    return model.label_space[int(predict_many(model, x)[0])]


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


def knn_fit_predict(X: np.ndarray, y: np.ndarray, x: np.ndarray, k: int, n_classes: int) -> int:
    """Euclidean k-nearest vote; neighbor ties by (distance, index), vote ties
    by lowest class index."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k must be in [1, {X.shape[0]}]")
    d2 = ((X - np.asarray(x, dtype=np.float64)) ** 2).sum(axis=1)
    nearest = np.lexsort((np.arange(X.shape[0]), d2))[:k]
    counts = np.bincount(y[nearest], minlength=n_classes)
    return int(np.argmax(counts))


def naive_bayes_fit_predict(X: np.ndarray, y: np.ndarray, x: np.ndarray, n_classes: int) -> int:
    """Gaussian class-conditional argmax with uniform-smoothed priors and a
    variance floor of 1e-9."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    n = X.shape[0]
    present = np.unique(y)
    best_class = -1
    best_logp = -np.inf
    for c in present:
        rows = X[y == c]
        mean = rows.mean(axis=0)
        var = np.maximum(rows.var(axis=0), 1e-9)
        prior = (rows.shape[0] + 1.0) / (n + n_classes)
        logp = float(np.log(prior) - 0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var).sum())
        if logp > best_logp:
            best_logp = logp
            best_class = int(c)
    return best_class


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


def grid_search_cv(
    X: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    label_space: tuple[str, ...] | list[str],
    grid: list[dict],
    folds: int = 5,
    seed: int = 0,
) -> tuple[dict, list[tuple[dict, float]]]:
    """Mean CV accuracy per grid point; argmax with ties toward grid order."""
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

    results: list[tuple[dict, float]] = []
    for params in grid:
        accuracies = []
        for k in range(folds):
            train = fold_of != k
            model = fit_forest(X[train], y[train], schema, label_space, seed=fit_seeds[k], **params)
            pred = predict_many(model, X[~train])
            accuracies.append(float(np.mean(pred == y[~train])))
        results.append((params, float(np.mean(accuracies))))
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

def save_model(model: ForestModel, path: str | Path) -> None:
    """Write the model as one JSON document, ``trees`` its last key. The node
    arrays go out one at a time, each through ``json.dumps`` (``json.dump``
    never uses the C encoder), in the bytes a ``json.dump`` of the whole
    document writes."""
    head = json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_trees": model.n_trees,
        "max_depth": model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "bootstrap": model.bootstrap,
        "max_features": model.max_features,
        "seed": model.seed,
        "schema": {"names": list(model.schema.names), "pruned": list(model.schema.pruned)},
        "label_space": list(model.label_space),
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "trees": {')
        for i, name in enumerate(_NODE_DTYPES):
            fh.write(", " * (i > 0) + f'"{name}": ' + json.dumps(getattr(model.nodes, name).tolist()))
        fh.write("}}")


def load_model(path: str | Path) -> ForestModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    if doc.get("version") == 1:
        raise ModelFormatError(
            f"{path} is a version 1 model; re-run `qcpredict train` to rebuild it "
            "(training is seeded, so the same forest comes back)"
        )
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        nodes = NodeTable(
            **{name: np.array(doc["trees"][name], dtype=dtype) for name, dtype in _NODE_DTYPES.items()}
        )
        schema = FeatureSchema(tuple(doc["schema"]["names"]), tuple(doc["schema"]["pruned"]))
        model = ForestModel(
            nodes, doc["n_trees"], doc["max_depth"], doc["min_samples_leaf"], doc["bootstrap"],
            doc["max_features"], schema, tuple(doc["label_space"]), doc["seed"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
    size = nodes.feature.size
    splits = np.flatnonzero(nodes.feature >= 0)
    leaves = nodes.feature < 0
    if (
        any(getattr(nodes, name).shape != (size,) for name in _NODE_DTYPES if name != "roots")
        or nodes.roots.shape != (model.n_trees,)
        or not np.all((nodes.roots >= 0) & (nodes.roots < size))
        or not np.all((nodes.right[splits] > splits + 1) & (nodes.right[splits] < size))
        or not np.all(nodes.feature < len(schema.retained))
        or not np.all((nodes.label[leaves] >= 0) & (nodes.label[leaves] < model.n_classes))
    ):
        raise ModelFormatError(f"corrupt model file {path}: inconsistent node arrays")
    return model
