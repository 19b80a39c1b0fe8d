import hashlib
import json
from math import ceil, sqrt

import numpy as np
import pytest

from qcpredict import ml
from qcpredict.features import FeatureSchema
from qcpredict.ml import (
    DEFAULT_GRID,
    MODEL_FORMAT,
    MODEL_VERSION,
    ForestModel,
    ModelFormatError,
    NodeTable,
    feature_importance,
    fit_forest,
    grid_search_cv,
    knn_fit_predict,
    load_model,
    naive_bayes_fit_predict,
    predict,
    predict_many,
    predict_top_k,
    save_model,
)


def _schema(n):
    return FeatureSchema(tuple(f"f{i}" for i in range(n)))


def _labels(n):
    return tuple(f"class{i}" for i in range(n))


def _splits(nodes):
    """(node, left, right) for every split node; the left child follows its parent."""
    for i in np.flatnonzero(nodes.feature >= 0):
        yield i, i + 1, nodes.right[i]


def _tree(X, y, n_classes, max_depth=None, min_samples_leaf=1):
    return fit_forest(X, y, _schema(X.shape[1]), _labels(n_classes), n_trees=1, max_depth=max_depth,
                      min_samples_leaf=min_samples_leaf, bootstrap=False, max_features=None).nodes


def _descend(nodes, node, row):
    while nodes.feature[node] >= 0:
        node = node + 1 if row[nodes.feature[node]] <= nodes.threshold[node] else nodes.right[node]
    return nodes.label[node]


# ---------------------------------------------------------------------------
# single trees


def test_single_split_at_midpoint():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    tree = _tree(X, y, n_classes=2)
    assert tree.roots.tolist() == [0]
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == 5.5
    assert tree.right[0] == 2
    # leaves: left holds the two class-0 rows, right the two class-1 rows, both pure
    assert tree.label[1:].tolist() == [0, 1]
    assert tree.n_samples.tolist() == [4, 2, 2]
    assert tree.impurity[1:].tolist() == [0.0, 0.0]


def test_pure_input_is_single_leaf():
    X = np.array([[0.0], [5.0], [9.0]])
    y = np.array([1, 1, 1])
    tree = _tree(X, y, n_classes=3)
    assert tree.feature.tolist() == [-1]
    assert tree.label.tolist() == [1]
    assert tree.impurity.tolist() == [0.0]
    assert tree.n_samples.tolist() == [3]


def test_tie_breaks_prefer_lowest_feature_and_threshold():
    # both features separate perfectly; feature 0 must win
    X = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [11.0, 11.0]])
    y = np.array([0, 0, 1, 1])
    tree = _tree(X, y, n_classes=2)
    assert tree.feature[0] == 0


def test_max_depth_respected():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 4))
    y = rng.integers(0, 3, size=200)
    for limit in (1, 2, 3):
        tree = _tree(X, y, n_classes=3, max_depth=limit)

        def depth(node):
            if tree.feature[node] < 0:
                return 0
            return 1 + max(depth(node + 1), depth(tree.right[node]))

        assert depth(0) <= limit


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(150, 3))
    y = rng.integers(0, 2, size=150)
    tree = _tree(X, y, n_classes=2, min_samples_leaf=10)
    assert tree.n_samples[tree.feature < 0].min() >= 10


def test_every_split_strictly_decreases_impurity():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(120, 5))
    y = (X[:, 1] > 0.5).astype(np.int64)
    tree = _tree(X, y, n_classes=2)
    n, gini = tree.n_samples, tree.impurity
    for node, left, right in _splits(tree):
        assert n[left] + n[right] == n[node]
        weighted = (n[left] * gini[left] + n[right] * gini[right]) / n[node]
        assert gini[node] - weighted > 1e-12


def test_fit_tree_rejects_bad_input():
    with pytest.raises(ValueError):
        _tree(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        _tree(np.zeros((3, 2)), np.array([0, 1, 2]), 2)  # label out of range


def _reference_best_split(X, onehot, parent_gini, min_leaf, feature_indices):
    """Reference: one sort and scan per candidate feature, a later feature
    winning only with a strictly smaller weighted gini."""
    n = X.shape[0]
    if n < 2 * min_leaf:
        return None
    left_count = np.arange(1, n, dtype=np.float64)
    right_count = n - left_count
    size_ok = (left_count >= min_leaf) & (right_count >= min_leaf)
    best_score = np.inf
    best = None
    for f in feature_indices:
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        if xs[0] == xs[-1]:
            continue
        valid = (xs[:-1] < xs[1:]) & size_ok
        if not valid.any():
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left = cum[:-1]
        right = cum[-1] - left
        sumsq_left = np.einsum("ij,ij->i", left, left)
        sumsq_right = np.einsum("ij,ij->i", right, right)
        weighted = (left_count - sumsq_left / left_count + right_count - sumsq_right / right_count) / n
        weighted[~valid] = np.inf
        i = int(np.argmin(weighted))
        if weighted[i] < best_score:
            best_score = weighted[i]
            with np.errstate(over="ignore", invalid="ignore"):
                middle = (xs[i] + xs[i + 1]) / 2.0
            # the lower value where the midpoint is not in [lower, upper)
            best = (int(f), float(middle if xs[i] <= middle < xs[i + 1] else xs[i]))
    if best is None or parent_gini - best_score <= 1e-12:
        return None
    return best


def _reference_fit_tree(X, y, n_classes, max_depth, min_samples_leaf, rng=None, max_features=None):
    """Reference: depth-first growth over ``_reference_best_split``, drawing
    a feature subset at every impure node above ``max_depth`` in preorder."""
    n_features = X.shape[1]
    onehot = np.zeros((X.shape[0], n_classes))
    onehot[np.arange(X.shape[0]), y] = 1.0
    nodes = {name: [] for name in ("feature", "threshold", "right", "label", "n_samples", "impurity")}

    def grow(idx, depth):
        counts = onehot[idx].sum(axis=0)
        p = counts / counts.sum()
        impurity = float(1.0 - (p * p).sum())
        split = None
        if impurity > 0.0 and (max_depth is None or depth < max_depth):
            if max_features is not None:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            split = _reference_best_split(X[idx], onehot[idx], impurity, min_samples_leaf, candidates)
        node = len(nodes["feature"])
        feature, threshold = split if split is not None else (-1, 0.0)
        for name, value in (
            ("feature", feature), ("threshold", threshold), ("right", -1),
            ("label", int(np.argmax(counts)) if split is None else -1),
            ("n_samples", idx.shape[0]), ("impurity", impurity),
        ):
            nodes[name].append(value)
        if split is not None:
            mask = X[idx, feature] <= threshold
            grow(idx[mask], depth + 1)
            nodes["right"][node] = len(nodes["feature"])
            grow(idx[~mask], depth + 1)

    grow(np.arange(X.shape[0]), 0)
    return NodeTable(
        **{name: np.array(values, dtype=np.float64 if name in ("threshold", "impurity") else np.int64)
           for name, values in nodes.items()},
        roots=np.zeros(1, dtype=np.int64),
    )


def _tie_heavy_matrix(seed, n=90):
    """Few distinct values per column, a constant column, and column 4 an
    exact copy of column 1, so thresholds and whole features tie."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, 6)).astype(np.float64)
    X[:, 3] = 2.0
    X[:, 4] = X[:, 1]
    X[:, 5] = rng.uniform(size=n).round(1)
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 2, size=n)).astype(np.int64) % 3
    return X, y


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("min_leaf", [1, 2, 4])
@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("max_features", [None, 2])
def test_split_search_matches_the_per_feature_reference(seed, min_leaf, max_depth, max_features):
    X, y = _tie_heavy_matrix(seed)
    # the generator fit_forest gives a one-tree forest; the grower draws
    # subsets of two from it, which no max_features of fit_forest asks for
    fast_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    tree = ml._grow(X, y, 3, np.arange(X.shape[0])[None], [fast_rng], max_depth, min_leaf, max_features)
    ref, (ref_rng,) = _reference_forest(X, y, 3, 1, seed, max_depth, min_leaf, False, max_features)
    assert tree == ref
    assert tree.feature.shape[0] > 1
    if max_features is None:
        assert _tree(X, y, 3, max_depth, min_leaf) == ref
    # both growers left each generator at the same point of its stream
    assert fast_rng.integers(0, 2**63) == ref_rng.integers(0, 2**63)


def _narrow_like_matrix(seed, n=110):
    """The shape of the narrow corpus's training matrix: 110 rows, 20
    features of small counts, rounded ratios and wide magnitudes, and 30
    classes of which a few dominate."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 15, size=(n, 8)),
        rng.uniform(size=(n, 6)).round(2),
        rng.integers(0, 4000, size=(n, 6)),
    ]).astype(np.float64)
    y = np.minimum(rng.geometric(0.3, size=n) - 1, 29)
    return X, y


def _tie_heavy_nan_matrix(seed):
    """``_tie_heavy_matrix`` with NaN in a tenth of columns 0 and 5."""
    X, y = _tie_heavy_matrix(seed)
    rng = np.random.default_rng(seed + 100)
    for j in (0, 5):
        X[rng.uniform(size=X.shape[0]) < 0.1, j] = np.nan
    return X, y


def _tie_heavy_inf_matrix(seed):
    """``_tie_heavy_matrix`` with -inf or inf in a tenth of columns 0 and 5."""
    X, y = _tie_heavy_matrix(seed)
    rng = np.random.default_rng(seed + 200)
    for j in (0, 5):
        hit = rng.uniform(size=X.shape[0]) < 0.1
        X[hit, j] = rng.choice([-np.inf, np.inf], size=hit.sum())
    return X, y


def _reference_forest(X, y, n_classes, n_trees, seed, max_depth, min_leaf, bootstrap, subset):
    """Reference: each tree grown alone by ``_reference_fit_tree`` from its
    own bootstrap and Philox stream, the tables concatenated. Returns the
    table and each tree's generator."""
    n = X.shape[0]
    tables, rngs = [], []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.Generator(np.random.Philox(child))
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tables.append(_reference_fit_tree(X[sample], y[sample], n_classes, max_depth, min_leaf, rng, subset))
        rngs.append(rng)
    offsets = np.cumsum([0] + [t.feature.size for t in tables[:-1]])
    merged = {name: np.concatenate([getattr(t, name) for t in tables])
              for name in ("feature", "threshold", "label", "n_samples", "impurity")}
    merged["right"] = np.concatenate(
        [np.where(t.right >= 0, t.right + o, -1) for t, o in zip(tables, offsets)]
    )
    merged["roots"] = offsets
    return NodeTable(**merged), rngs


@pytest.mark.parametrize("max_features", ["sqrt", None])
@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("min_leaf", [1, 2, 30])
@pytest.mark.parametrize("max_depth", [0, 3, None])
@pytest.mark.parametrize(
    "matrix", [_tie_heavy_matrix, _narrow_like_matrix, _tie_heavy_nan_matrix, _tie_heavy_inf_matrix]
)
def test_forest_equals_its_trees_grown_one_at_a_time(matrix, max_depth, min_leaf, bootstrap, max_features):
    X, y = matrix(1)
    n_classes = int(y.max()) + 1
    subset = ceil(sqrt(X.shape[1])) if max_features == "sqrt" else None
    model = fit_forest(X, y, _schema(X.shape[1]), _labels(n_classes), n_trees=4, max_depth=max_depth,
                       min_samples_leaf=min_leaf, seed=7, bootstrap=bootstrap, max_features=max_features)
    ref, _ = _reference_forest(X, y, n_classes, 4, 7, max_depth, min_leaf, bootstrap, subset)
    assert model.nodes == ref


def test_lockstep_trees_of_very_different_sizes_keep_their_streams():
    """Bootstraps that miss the rare classes give one-leaf trees, finished at
    the first step, beside trees still growing dozens of steps later. Past
    the 100 trees of one lockstep group, each tree's generator ends where
    the one-tree reference leaves it."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(40, 5)).astype(np.float64)
    y = np.zeros(40, dtype=np.int64)
    y[:3] = [1, 2, 1]
    model = fit_forest(X, y, _schema(5), _labels(3), n_trees=130, max_depth=None, min_samples_leaf=1, seed=11)
    ref, ref_rngs = _reference_forest(X, y, 3, 130, 11, None, 1, True, 3)
    assert model.nodes == ref
    sizes = np.diff(np.append(ref.roots, ref.feature.size))
    assert sizes.min() == 1 and sizes.max() >= 9

    # the grower itself, on the same bootstraps and streams
    rngs = [np.random.Generator(np.random.Philox(c)) for c in np.random.SeedSequence(11).spawn(130)]
    samples = np.array([r.integers(0, 40, size=40) for r in rngs])
    assert ml._grow(X, y, 3, samples, rngs, None, 1, 3) == ref
    for fast_rng, ref_rng in zip(rngs, ref_rngs):
        assert fast_rng.integers(0, 2**63) == ref_rng.integers(0, 2**63)


def test_every_split_sends_rows_both_ways():
    # midpoints outside [lower, upper): inf, NaN from -inf + inf, and sums
    # overflowing to inf and to -inf; each threshold is the lower value
    for column in ([0.0, np.inf], [-np.inf, np.inf], [1.7e308, 1.79e308], [-1.79e308, -1.7e308]):
        tree = _tree(np.array(column)[:, None], np.array([0, 1]), 2)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.n_samples.tolist() == [2, 1, 1]
        assert tree.threshold[0] == column[0]
    X, y = _tie_heavy_inf_matrix(1)
    model = fit_forest(X, y, _schema(6), _labels(3), n_trees=20, max_depth=None, min_samples_leaf=1, seed=3)
    n = model.nodes.n_samples
    for node, left, right in _splits(model.nodes):
        assert n[left] > 0 and n[right] > 0 and n[left] + n[right] == n[node]


# ---------------------------------------------------------------------------
# forests


def test_unbagged_single_tree_forest_matches_plain_tree():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(100, 4))
    y = ((X[:, 0] > 0.5) | (X[:, 2] > 0.7)).astype(np.int64)
    model = fit_forest(
        X, y, _schema(4), _labels(2), n_trees=1, max_depth=6, min_samples_leaf=2,
        bootstrap=False, max_features=None,
    )
    tree = _reference_fit_tree(X, y, 2, max_depth=6, min_samples_leaf=2)
    assert model.nodes == tree
    probe = rng.uniform(size=(50, 4))
    forest_pred = predict_many(model, probe)
    tree_pred = np.array([_descend(tree, 0, row) for row in probe])
    assert np.array_equal(forest_pred, tree_pred)


def test_forest_votes_match_manual_tree_descent():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(80, 3))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)
    model = fit_forest(X, y, _schema(3), _labels(2), n_trees=15, max_depth=4, seed=9)
    probe = rng.uniform(size=(20, 3))
    fast = predict_many(model, probe)
    for i, row in enumerate(probe):
        votes = np.zeros(2, dtype=np.int64)
        for root in model.nodes.roots:
            votes[_descend(model.nodes, root, row)] += 1
        assert fast[i] == np.argmax(votes)


def test_forest_fit_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(60, 3))
    y = rng.integers(0, 2, size=60)
    a = fit_forest(X, y, _schema(3), _labels(2), n_trees=10, seed=7)
    b = fit_forest(X, y, _schema(3), _labels(2), n_trees=10, seed=7)
    assert a.nodes == b.nodes
    c = fit_forest(X, y, _schema(3), _labels(2), n_trees=10, seed=8)
    assert c.nodes != a.nodes


def test_predict_returns_label_and_top_k_shares():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(90, 3))
    y = (X[:, 0] > 0.5).astype(np.int64)
    model = fit_forest(X, y, _schema(3), _labels(3), n_trees=20, seed=0)
    x = np.array([0.9, 0.5, 0.5])
    label = predict(model, x)
    assert label in _labels(3)
    top = predict_top_k(model, x, 3)
    assert top[0][0] == label
    shares = [s for _, s in top]
    assert shares == sorted(shares, reverse=True)
    assert sum(shares) == pytest.approx(1.0)  # k covers every class
    assert all(0.0 <= s <= 1.0 for s in shares)
    with pytest.raises(ValueError):
        predict_top_k(model, x, 0)
    with pytest.raises(ValueError):
        predict_top_k(model, x, 4)


def test_predict_validates_width():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    model = fit_forest(X, y, _schema(3), _labels(2), n_trees=3)
    with pytest.raises(ValueError, match="features"):
        predict_many(model, np.zeros((2, 5)))


def test_forest_validates_inputs():
    X = np.zeros((10, 2))
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError):
        fit_forest(X, y, _schema(2), _labels(1), n_trees=0)
    with pytest.raises(ValueError, match="columns"):
        fit_forest(X, y, _schema(3), _labels(1))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_forest_checks_every_row_before_bootstrap(seed):
    X = np.arange(20.0).reshape(10, 2)
    y = np.zeros(10, dtype=np.int64)
    y[4] = 7  # out of range for 2 classes, in a row a bootstrap may never draw
    with pytest.raises(ValueError, match="labels"):
        fit_forest(X, y, _schema(2), _labels(2), n_trees=1, seed=seed)
    with pytest.raises(ValueError, match="one label per row"):
        fit_forest(X, np.zeros(13, dtype=np.int64), _schema(2), _labels(2), n_trees=1, seed=seed)


# ---------------------------------------------------------------------------
# feature importance


def test_importance_concentrates_on_informative_feature():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(300, 4))
    y = (X[:, 2] > 0.5).astype(np.int64)
    model = fit_forest(X, y, _schema(4), _labels(2), n_trees=30, seed=1)
    mean, std, degenerate = feature_importance(model)
    assert not degenerate
    assert mean.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.argmax(mean) == 2
    assert mean[2] > 0.5
    assert std.shape == (4,)


def _loop_importance(model):
    """Reference: per-tree walk over the node arrays in preorder, the
    per-node gini decrease weighted by the node's share of the tree's rows."""
    nodes, n, gini = model.nodes, model.nodes.n_samples, model.nodes.impurity
    per_tree = np.zeros((model.n_trees, len(model.schema.retained)))
    ends = list(nodes.roots[1:]) + [nodes.feature.shape[0]]
    for t, (root, end) in enumerate(zip(nodes.roots, ends)):
        for node, left, right in _splits(nodes):
            if root <= node < end:
                child = (n[left] * gini[left] + n[right] * gini[right]) / n[node]
                per_tree[t, nodes.feature[node]] += (n[node] / n[root]) * (gini[node] - child)
        total = per_tree[t].sum()
        if total > 0.0:
            per_tree[t] /= total
    mean = per_tree.mean(axis=0)
    return mean / mean.sum(), per_tree.std(axis=0)


def test_importance_equals_the_per_tree_loop_exactly():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(120, 16))
    y = ((X[:, 3] > 0.5).astype(np.int64) + (X[:, 9] > 0.3)) % 3
    model = fit_forest(X, y, _schema(16), _labels(3), n_trees=25, max_depth=6, seed=2)
    mean, std, _ = feature_importance(model)
    ref_mean, ref_std = _loop_importance(model)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(std, ref_std)


def test_importance_degenerate_single_class():
    X = np.zeros((20, 3))
    y = np.zeros(20, dtype=np.int64)
    model = fit_forest(X, y, _schema(3), _labels(2), n_trees=5)
    mean, std, degenerate = feature_importance(model)
    assert degenerate
    assert np.all(mean == 0.0) and np.all(std == 0.0)


# ---------------------------------------------------------------------------
# baselines


def test_knn_hand_oracle():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    assert knn_fit_predict(X, y, np.array([0.4]), k=1, n_classes=2) == 0
    assert knn_fit_predict(X, y, np.array([10.4]), k=3, n_classes=2) == 1
    # 2 near class-0 points against 1 class-1 point
    assert knn_fit_predict(X, y, np.array([4.0]), k=3, n_classes=2) == 0


def test_knn_distance_tie_prefers_lower_index():
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    # probe equidistant; index 0 (class 1) wins the k=1 vote
    assert knn_fit_predict(X, y, np.array([1.0]), k=1, n_classes=2) == 1


def test_knn_vote_tie_prefers_lower_class():
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    assert knn_fit_predict(X, y, np.array([1.0]), k=2, n_classes=2) == 0


def test_knn_k_validation():
    X = np.zeros((3, 1))
    y = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError):
        knn_fit_predict(X, y, np.zeros(1), k=0, n_classes=1)
    with pytest.raises(ValueError):
        knn_fit_predict(X, y, np.zeros(1), k=4, n_classes=1)


def test_naive_bayes_separated_clusters():
    rng = np.random.default_rng(9)
    a = rng.normal(0.0, 0.5, size=(40, 2))
    b = rng.normal(8.0, 0.5, size=(40, 2))
    X = np.vstack([a, b])
    y = np.array([0] * 40 + [1] * 40)
    assert naive_bayes_fit_predict(X, y, np.array([0.3, -0.2]), 2) == 0
    assert naive_bayes_fit_predict(X, y, np.array([7.8, 8.1]), 2) == 1


def test_naive_bayes_never_predicts_absent_class():
    X = np.array([[0.0], [0.1], [9.0], [9.1]])
    y = np.array([0, 0, 3, 3])
    for probe in (np.array([0.05]), np.array([9.05]), np.array([4.5])):
        assert naive_bayes_fit_predict(X, y, probe, 5) in (0, 3)


def test_naive_bayes_handles_zero_variance():
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    assert naive_bayes_fit_predict(X, y, np.array([1.0]), 2) == 0


# ---------------------------------------------------------------------------
# grid search


def _toy_grid_data(seed=10, n=60):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    y = (X[:, 0] > 0.5).astype(np.int64)
    return X, y


def test_grid_search_deterministic_and_best_is_argmax():
    X, y = _toy_grid_data()
    grid = [{"n_trees": 3, "max_depth": 2}, {"n_trees": 10, "max_depth": 5}]
    best_a, results_a = grid_search_cv(X, y, _schema(3), _labels(2), grid, folds=3, seed=4)
    best_b, results_b = grid_search_cv(X, y, _schema(3), _labels(2), grid, folds=3, seed=4)
    assert results_a == results_b
    assert best_a == best_b
    top = max(acc for _, acc in results_a)
    assert [acc for p, acc in results_a if p == best_a][0] == top


def test_grid_search_tie_prefers_earlier_entry():
    X, y = _toy_grid_data()
    point = {"n_trees": 4, "max_depth": 3}
    best, results = grid_search_cv(X, y, _schema(3), _labels(2), [point, dict(point)], folds=3, seed=0)
    assert results[0][1] == results[1][1]
    assert best is results[0][0]


def test_grid_search_warns_when_class_smaller_than_folds():
    X = np.vstack([np.zeros((2, 2)), np.ones((20, 2))])
    y = np.array([0] * 2 + [1] * 20)
    with pytest.warns(UserWarning, match="non-stratified"):
        grid_search_cv(X, y, _schema(2), _labels(2), [{"n_trees": 2}], folds=5, seed=0)


def test_grid_search_validation():
    X, y = _toy_grid_data()
    with pytest.raises(ValueError, match="folds"):
        grid_search_cv(X, y, _schema(3), _labels(2), [{"n_trees": 2}], folds=1)
    with pytest.raises(ValueError, match="grid"):
        grid_search_cv(X, y, _schema(3), _labels(2), [], folds=3)


def test_default_grid_shape():
    assert len(DEFAULT_GRID) == 27
    assert all(set(p) == {"n_trees", "max_depth", "min_samples_leaf"} for p in DEFAULT_GRID)


# ---------------------------------------------------------------------------
# persistence


def _small_model(seed=11):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(50, 3))
    y = (X[:, 1] > 0.4).astype(np.int64)
    schema = FeatureSchema(("a", "b", "c", "zero"), pruned=("zero",))
    return fit_forest(X, y, schema, ("left", "right"), n_trees=8, max_depth=5, seed=3), X


def test_save_load_round_trip(tmp_path):
    model, X = _small_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model  # node-for-node array equality
    assert loaded.schema == model.schema
    assert loaded.label_space == model.label_space
    assert np.array_equal(predict_many(loaded, X), predict_many(model, X))


def test_save_load_none_max_depth(tmp_path):
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(20, 2))
    y = rng.integers(0, 2, size=20)
    model = fit_forest(X, y, _schema(2), _labels(2), n_trees=2, max_depth=None)
    path = tmp_path / "m.bin"
    save_model(model, path)
    assert load_model(path).max_depth is None


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_text("not json at all {", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="unreadable"):
        load_model(path)
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "missing.bin")


def test_load_rejects_wrong_format_and_version(tmp_path):
    model, _ = _small_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == MODEL_FORMAT and doc["version"] == MODEL_VERSION

    doc_bad = dict(doc, format="something-else")
    path.write_text(json.dumps(doc_bad), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(path)

    doc_bad = dict(doc, version=99)
    path.write_text(json.dumps(doc_bad), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_version_1_and_names_the_retrain_command(tmp_path):
    model, _ = _small_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    # a version-1 file held one list of preorder node records per tree
    doc.update(version=1, trees=[[[-1, 0, [1, 0], 1, 0.0]]])
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="qcpredict train"):
        load_model(path)


def test_load_rejects_inconsistent_node_arrays(tmp_path):
    model, _ = _small_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    leaf = doc["trees"]["feature"].index(-1)
    edits = [
        ("threshold", lambda a: a.pop()),  # arrays of unequal length
        ("right", lambda a: a.__setitem__(0, len(a))),  # child past the end
        ("feature", lambda a: a.__setitem__(0, 3)),  # the schema retains 3 features
        ("label", lambda a: a.__setitem__(leaf, 2)),  # the label space has 2 classes
    ]
    for name, edit in edits:
        bad = json.loads(json.dumps(doc))
        edit(bad["trees"][name])
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)


def test_load_rejects_truncated_trees(tmp_path):
    model, _ = _small_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["trees"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="corrupt"):
        load_model(path)


# sha256 of model.bin for the forest of ``test_saved_forest_is_pinned``;
# a change means the forest or its file format moved
PINNED_FOREST_SHA256 = "6fe9406744758dbe64d80ab7bd0b4444796ea6756c2410bb20ff34c4d3f93f8e"


def test_saved_forest_is_pinned(tmp_path):
    rng = np.random.default_rng(2024)
    X = rng.integers(0, 6, size=(150, 8)).astype(np.float64)
    X = np.column_stack([X, X[:, 2]])  # an exact copy of column 2
    y = (X[:, 0] + X[:, 2] + rng.integers(0, 3, size=150)) % 4
    model = fit_forest(X, y, _schema(9), ("a", "b", "c", "d"), n_trees=40, seed=5)
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FOREST_SHA256
