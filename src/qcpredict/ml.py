"""From-scratch supervised classifiers: a CART decision tree, a seeded random
forest with gini feature importance, nearest-neighbor and Gaussian naive Bayes
baselines, stratified cross-validated grid search, and model persistence.

Labels are class indices into an ordered label space. Determinism contract:
all randomness flows from one seed through spawned counter-based generators,
and every tie (splits, votes, neighbors) breaks toward the lowest index.
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


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _split_search(
    X: np.ndarray, onehot: np.ndarray, idx: np.ndarray, candidates: np.ndarray,
    parent_gini: float, min_leaf: int,
) -> tuple[int, float] | None:
    """Best (feature, threshold) over the block of rows ``idx`` x the sorted
    ``candidates`` (see ``fit_tree``). Thresholds are midpoints between
    distinct sorted values. Returns None when no split leaves both sides
    ``min_leaf`` rows and lowers the gini by more than ``_MIN_DECREASE``.
    """
    n = idx.shape[0]
    if n < 2 * min_leaf:
        return None
    left_count = np.arange(1, n, dtype=np.float64)[:, None]
    right_count = n - left_count
    size_ok = (left_count >= min_leaf) & (right_count >= min_leaf)

    order = np.argsort(X[idx[:, None], candidates], axis=0, kind="stable")
    rows = idx[order]  # (n, k) training rows, each column sorted by its feature
    xs = X[rows, candidates]
    valid = (xs[:-1] < xs[1:]) & size_ok
    if not valid.any():
        return None
    # integer counts in float64: cumsum and sums of squares are exact
    cum = np.cumsum(onehot[rows], axis=0)
    left = cum[:-1]
    right = cum[-1] - left
    sumsq_left = np.einsum("ijk,ijk->ij", left, left)
    sumsq_right = np.einsum("ijk,ijk->ij", right, right)
    weighted = (left_count - sumsq_left / left_count + right_count - sumsq_right / right_count) / n
    weighted[~valid] = np.inf
    # feature-major: the first minimum is the lowest feature, then threshold
    f, i = divmod(int(np.argmin(weighted.T)), n - 1)
    if parent_gini - weighted[i, f] <= _MIN_DECREASE:
        return None
    return int(candidates[f]), float((xs[i, f] + xs[i + 1, f]) / 2.0)


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    rng: np.random.Generator | None = None,
    max_features: int | None = None,
) -> NodeTable:
    """Grow one CART tree into a one-root node table. ``max_features`` with
    an rng samples a fresh feature subset at every node (forest mode);
    otherwise all features are candidates.

    The tree grows depth-first, left child first. Every impure node above
    ``max_depth`` draws its subset from the rng in that preorder, even when
    it is too small to split, so a seed fixes the tree. Each node runs one
    batched split search over its rows x candidate features: one stable
    argsort along the rows, one gather of the sorted values, one cumsum of
    the class one-hots, and the weighted child gini of every (feature,
    threshold) pair as one matrix. Class counts are integers held in
    float64, so every sum is exact in any order. The matrix is scanned
    feature-major for its first minimum: ties go to the lowest candidate
    feature, then to the lowest threshold within it."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, f) with one label per row and n > 0")
    if n_classes < 1 or y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels must be indices into [0, n_classes)")
    n_features = X.shape[1]
    onehot = np.zeros((X.shape[0], n_classes), dtype=np.float64)
    onehot[np.arange(X.shape[0]), y] = 1.0
    nodes: dict[str, list] = {name: [] for name in _NODE_DTYPES if name != "roots"}

    def grow(idx: np.ndarray, depth: int) -> None:
        counts = np.bincount(y[idx], minlength=n_classes)
        impurity = _gini(counts)
        split = None
        if impurity > 0.0 and (max_depth is None or depth < max_depth):
            if max_features is not None and rng is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            split = _split_search(X, onehot, idx, candidates, impurity, min_samples_leaf)
        node = len(nodes["feature"])
        feature, threshold = split if split is not None else (-1, 0.0)
        nodes["feature"].append(feature)
        nodes["threshold"].append(threshold)
        nodes["right"].append(-1)
        nodes["label"].append(int(np.argmax(counts)) if split is None else -1)
        nodes["n_samples"].append(int(idx.shape[0]))
        nodes["impurity"].append(impurity)
        if split is None:
            return
        mask = X[idx, feature] <= threshold
        grow(idx[mask], depth + 1)
        nodes["right"][node] = len(nodes["feature"])
        grow(idx[~mask], depth + 1)

    grow(np.arange(X.shape[0]), 0)
    return NodeTable(
        **{name: np.array(values, dtype=_NODE_DTYPES[name]) for name, values in nodes.items()},
        roots=np.zeros(1, dtype=np.int64),
    )


def _concat_trees(tables: list[NodeTable]) -> NodeTable:
    """One table holding every tree, the node indices shifted to match."""
    offsets = np.cumsum([0] + [t.feature.shape[0] for t in tables[:-1]])
    merged = {name: np.concatenate([getattr(t, name) for t in tables]) for name in _NODE_DTYPES}
    shift = np.repeat(offsets, [t.feature.shape[0] for t in tables])
    merged["right"] = np.where(merged["right"] >= 0, merged["right"] + shift, -1)
    merged["roots"] = merged["roots"] + offsets
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
    """Bagged CART ensemble; per-node feature subsets of ceil(sqrt(f))."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if n_trees < 1:
        raise ValueError("need at least one tree")
    if X.shape[1] != len(schema.retained):
        raise ValueError(f"X has {X.shape[1]} columns, schema retains {len(schema.retained)}")
    n_classes = len(label_space)
    subset = ceil(sqrt(X.shape[1])) if max_features == "sqrt" else None
    n = X.shape[0]

    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.Generator(np.random.Philox(child))
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            Xb, yb = X[sample], y[sample]
        else:
            Xb, yb = X, y
        trees.append(
            fit_tree(Xb, yb, n_classes, max_depth, min_samples_leaf, rng=rng, max_features=subset)
        )
    return ForestModel(
        _concat_trees(trees), n_trees, max_depth, min_samples_leaf, bootstrap, max_features,
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
    doc = {
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
        "trees": {name: getattr(model.nodes, name).tolist() for name in _NODE_DTYPES},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


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
