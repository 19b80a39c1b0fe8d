import functools
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
    knn_predict,
    load_model,
    naive_bayes_predict,
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
    ref = _reference_forest(X, y, 3, 1, seed, max_depth, min_leaf, False, max_features)
    assert tree == ref
    assert tree.feature.shape[0] > 1
    if max_features is None:
        assert _tree(X, y, 3, max_depth, min_leaf) == ref


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
    own bootstrap and Philox stream, the tables concatenated."""
    n = X.shape[0]
    tables = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.Generator(np.random.Philox(child))
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tables.append(_reference_fit_tree(X[sample], y[sample], n_classes, max_depth, min_leaf, rng, subset))
    offsets = np.cumsum([0] + [t.feature.size for t in tables[:-1]])
    merged = {name: np.concatenate([getattr(t, name) for t in tables])
              for name in ("feature", "threshold", "label", "n_samples", "impurity")}
    merged["right"] = np.concatenate(
        [np.where(t.right >= 0, t.right + o, -1) for t, o in zip(tables, offsets)]
    )
    merged["roots"] = offsets
    return NodeTable(**merged)


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
    ref = _reference_forest(X, y, n_classes, 4, 7, max_depth, min_leaf, bootstrap, subset)
    assert model.nodes == ref


def test_lockstep_trees_of_very_different_sizes_keep_their_streams():
    """Bootstraps that miss the rare classes give one-leaf trees, finished at
    the first step, beside trees still growing dozens of steps later. All
    130 trees grow in one lockstep group and give the one-tree reference's
    nodes."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(40, 5)).astype(np.float64)
    y = np.zeros(40, dtype=np.int64)
    y[:3] = [1, 2, 1]
    model = fit_forest(X, y, _schema(5), _labels(3), n_trees=130, max_depth=None, min_samples_leaf=1, seed=11)
    ref = _reference_forest(X, y, 3, 130, 11, None, 1, True, 3)
    assert model.nodes == ref
    sizes = np.diff(np.append(ref.roots, ref.feature.size))
    assert sizes.min() == 1 and sizes.max() >= 9

    # the grower itself, on the same bootstraps and streams
    rngs = [np.random.Generator(np.random.Philox(c)) for c in np.random.SeedSequence(11).spawn(130)]
    samples = np.array([r.integers(0, 40, size=40) for r in rngs])
    assert ml._grow(X, y, 3, samples, rngs, None, 1, 3) == ref


def _state(rng):
    """A generator's whole state (counter, key, buffered words) as text."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


@pytest.mark.parametrize("f", range(2, 41))
def test_block_subsets_equal_one_choice_call_each(f):
    """Four blocks in a row, from two generators at once, give the sorted
    results of one ``choice`` call per subset and leave each generator where
    those calls do. Every generator first draws a bootstrap, as a tree's
    does."""
    size = ml._BLOCK_SUBSETS
    for k in sorted({ceil(sqrt(f)), 2}):
        for seed in range(3):
            children = np.random.SeedSequence(seed).spawn(2)
            fast, ref = ([np.random.Generator(np.random.Philox(c)) for c in children] for _ in range(2))
            for rng in fast + ref:
                rng.integers(0, 50, size=50)
            for _ in range(4):
                for got, rng in zip(ml._draw_subsets(fast, f, k), ref):
                    assert np.array_equal(got, [np.sort(rng.choice(f, size=k, replace=False)) for _ in range(size)])
                assert [_state(r) for r in fast] == [_state(r) for r in ref]


def test_trees_that_draw_several_blocks_keep_their_streams():
    """Unpruned trees on 300 noisy rows take more than three blocks of
    subsets each. The forest and the grower give the one-tree reference's
    nodes, and a tree whose rows are all of one class draws no subset and
    leaves its generator as it was."""
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(300, 10)).round(2)
    y = rng.integers(0, 8, size=300)
    model = fit_forest(X, y, _schema(10), _labels(8), n_trees=6, max_depth=None, min_samples_leaf=1, seed=3)
    ref = _reference_forest(X, y, 8, 6, 3, None, 1, True, 4)
    assert model.nodes == ref
    tree = np.repeat(np.arange(6), np.diff(np.append(ref.roots, ref.feature.size)))
    assert np.bincount(tree[ref.impurity > 0.0]).min() > 3 * ml._BLOCK_SUBSETS

    # the grower on the same bootstraps and streams, with a seventh tree
    # grown on one class-0 row repeated
    children = np.random.SeedSequence(3).spawn(7)
    rngs = [np.random.Generator(np.random.Philox(c)) for c in children]
    one_class = np.full(300, np.flatnonzero(y == 0)[0])
    samples = np.array([r.integers(0, 300, size=300) for r in rngs[:6]] + [one_class])
    untouched = np.random.Generator(np.random.Philox(children[6]))
    leaf = _reference_fit_tree(X[one_class], y[one_class], 8, None, 1, untouched, 4)
    assert ml._grow(X, y, 8, samples, rngs, None, 1, 4) == ml._concat_trees([ref, leaf])
    fresh = _state(np.random.Generator(np.random.Philox(children[6])))
    assert _state(rngs[6]) == _state(untouched) == fresh


def _power_of_two_matrix(n_classes, distinct, n=70, seed=0):
    """Six columns of ``distinct`` numbers each, every one of them taken in
    columns 0 and 2, NaN in a tenth of column 1 (ranked at the top of the
    rank field), and every class present, the highest included."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, distinct, size=(n, 6)).astype(np.float64)
    X[:distinct, 0] = np.arange(distinct)
    X[:distinct, 2] = np.arange(distinct)[::-1]
    X[rng.uniform(size=n) < 0.1, 1] = np.nan
    y = (X[:, 0].astype(np.int64) + rng.integers(0, 3, size=n)) % n_classes
    y[rng.permutation(n)[:n_classes]] = np.arange(n_classes)
    return X, y


@pytest.mark.parametrize("distinct", [1, 2, 3, 4, 7, 8, 16, 17])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 4, 5, 32, 33])
def test_split_key_fields_at_and_past_powers_of_two(n_classes, distinct):
    """The packed split keys on class counts, distinct values per column and
    candidate counts at, and one past, a power of two: the grower with 1, 2,
    4 and 5 candidates of 6 features, and fit_forest with its 3, give the
    one-tree-at-a-time reference's nodes."""
    X, y = _power_of_two_matrix(n_classes, distinct)
    for k in (1, 2, 4, 5):
        rngs = [np.random.Generator(np.random.Philox(c)) for c in np.random.SeedSequence(k).spawn(3)]
        samples = np.array([r.integers(0, X.shape[0], size=X.shape[0]) for r in rngs])
        ref = _reference_forest(X, y, n_classes, 3, k, None, 1, True, k)
        assert ml._grow(X, y, n_classes, samples, rngs, None, 1, k) == ref, k
    model = fit_forest(X, y, _schema(6), _labels(n_classes), n_trees=3, max_depth=None, min_samples_leaf=1, seed=9)
    ref = _reference_forest(X, y, n_classes, 3, 9, None, 1, True, 3)
    assert model.nodes == ref
    if n_classes > 1 and distinct > 1:
        assert (ref.feature >= 0).sum() > 3


@pytest.mark.parametrize("budget, groups", [
    (1000, [7]), (280, [7]), (279, [6, 1]), (120, [3, 3, 1]), (80, [2, 2, 2, 1]), (79, [1] * 7), (1, [1] * 7),
])
def test_forest_grows_in_groups_bounded_by_rows(monkeypatch, budget, groups):
    """Each lockstep group holds as many whole trees of 40 rows as the row
    budget does, at least one, and the groups joined give the reference
    forest."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(40, 5)).astype(np.float64)
    y = rng.integers(0, 3, size=40)
    grown, grow = [], ml._grow
    def recording_grow(X, y, n_classes, samples, rngs, *args):
        grown.append(samples.shape[0])
        return grow(X, y, n_classes, samples, rngs, *args)
    monkeypatch.setattr(ml, "_GROUP_ROWS", budget)
    monkeypatch.setattr(ml, "_grow", recording_grow)
    model = fit_forest(X, y, _schema(5), _labels(3), n_trees=7, max_depth=None, min_samples_leaf=1, seed=4)
    assert grown == groups
    ref = _reference_forest(X, y, 3, 7, 4, None, 1, True, 3)
    assert model.nodes == ref


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


def _tree_votes(model, X):
    """The vote matrix from descending each tree alone, row by row."""
    votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
    for i, row in enumerate(X):
        for root in model.nodes.roots:
            votes[i, _descend(model.nodes, root, row)] += 1
    return votes


def test_forest_votes_match_manual_tree_descent():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(80, 3))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)
    X_nan = X.copy()
    X_nan[rng.uniform(size=X.shape) < 0.2] = np.nan  # trained on NaN too: NaN ranks above every number
    y3 = np.minimum((X[:, 0] * 3).astype(np.int64), 2)
    tiny = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [2.0, 2.0, 0.5]])
    cases = [  # (forest, features the probes draw from)
        (fit_forest(X, y, _schema(3), _labels(2), n_trees=15, max_depth=4, seed=9), X),
        (fit_forest(X, y3, _schema(3), _labels(3), n_trees=12, max_depth=None, min_samples_leaf=1, seed=2), X),
        (fit_forest(X_nan, y3, _schema(3), _labels(4), n_trees=12, max_depth=None, min_samples_leaf=1, seed=3), X_nan),
        # three rows: most bootstraps are pure, so most trees are one leaf and the rest split
        (fit_forest(tiny, np.array([0, 0, 1]), _schema(3), _labels(2), n_trees=20, max_depth=None,
                    min_samples_leaf=1, seed=5), tiny),
        # one class only: every tree is one leaf and the descent takes no step
        (fit_forest(X, np.zeros(80, dtype=np.int64), _schema(3), _labels(2), n_trees=4, seed=1), X),
    ]
    depths = []
    for model, source in cases:
        probe = np.concatenate([source[:10], rng.uniform(-0.5, 2.5, size=(10, 3))])
        probe[-10:][rng.uniform(size=(10, 3)) < 0.3] = np.nan
        probe[-1] = np.nan
        expected = _tree_votes(model, probe)
        assert np.array_equal(ml._vote_counts(model, probe), expected)
        for i, row in enumerate(probe):
            assert np.array_equal(ml._vote_counts(model, row), expected[i: i + 1])
            shares = [(model.label_space[c], expected[i, c] / model.n_trees)
                      for c in sorted(range(model.n_classes), key=lambda c: (-expected[i, c], c))]
            assert predict_top_k(model, row, model.n_classes) == shares
        assert np.array_equal(predict_many(model, probe), np.argmax(expected, axis=1))
        depths.append(model.nodes.descent[2])
    leaves = [(f < 0).all() for f in np.split(cases[3][0].nodes.feature, cases[3][0].nodes.roots[1:])]
    assert 0 < sum(leaves) < len(leaves)
    assert depths[1] > 4 and depths[-1] == 0


def test_descent_depth_is_the_longest_root_to_leaf_path():
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(120, 4))
    y = rng.integers(0, 3, size=120)
    for max_depth in (None, 1, 3):
        nodes = fit_forest(X, y, _schema(4), _labels(3), n_trees=7, max_depth=max_depth, seed=4).nodes
        child, feature, depth = nodes.descent

        def longest(node):
            if nodes.feature[node] < 0:
                return 0
            return 1 + max(longest(node + 1), longest(nodes.right[node]))

        assert depth == max(longest(root) for root in nodes.roots)
        leaf = nodes.feature < 0
        node = np.arange(leaf.size)
        assert np.array_equal(child[0::2][leaf], node[leaf]) and np.array_equal(child[1::2][leaf], node[leaf])
        assert np.array_equal(child[0::2][~leaf], nodes.right[~leaf])
        assert np.array_equal(child[1::2][~leaf], node[~leaf] + 1)
        assert (feature[leaf] == 0).all() and np.array_equal(feature[~leaf], nodes.feature[~leaf])


def test_descent_handles_trees_that_share_nodes():
    # a table load_model accepts whose 24 split nodes each point to the next
    # two nodes, so a walk from the first root may take any of 121,393 paths
    m = 24
    node = np.arange(m + 2)
    nodes = NodeTable(
        feature=np.where(node < m, node % 3, -1), threshold=np.full(m + 2, 0.5),
        right=np.where(node < m, node + 2, -1), label=np.where(node < m, -1, node - m),
        n_samples=np.ones(m + 2, dtype=np.int64), impurity=np.zeros(m + 2), roots=np.array([0, 1, m]),
    )
    model = ForestModel(nodes, 3, None, 1, False, None, _schema(3), _labels(2), 0)
    assert nodes.descent[2] == m
    probe = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(ml._vote_counts(model, probe), _tree_votes(model, probe))


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
    label = model.label_space[int(predict_many(model, x)[0])]
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
    with pytest.raises(ValueError, match="columns"):
        fit_forest(X, y, _schema(3), _labels(1))
    for name, value in (
        ("n_trees", 0), ("max_depth", -1), ("min_samples_leaf", 0), ("seed", "zero"), ("seed", True),
        ("seed", 1.5), ("seed", -1), ("bootstrap", 1), ("bootstrap", "yes"), ("max_features", "log2"),
        ("max_features", 3), ("n_trees", True), ("n_trees", 2.5), ("min_samples_leaf", True),
        ("min_samples_leaf", 1.5), ("max_depth", True), ("max_depth", 2.5),
    ):
        with pytest.raises(ValueError, match=f"{name} must be"):
            fit_forest(X, y, _schema(2), _labels(1), **{name: value})


# label spaces that are not a list of distinct strings, with the message each gets
_BAD_LABEL_SPACES = [
    ([0, 1], "label_space must be a list of distinct strings, got the item 0"),
    (["left"] * 30, "label_space must be a list of distinct strings, got 'left' twice"),
    ("ab", "label_space must be a list of distinct strings, got 'ab'"),
    (None, "label_space must be a list of distinct strings, got None"),
]


@pytest.mark.parametrize("label_space, message", _BAD_LABEL_SPACES, ids=["ints", "repeated", "string", "null"])
def test_forest_refuses_a_label_space_that_is_not_distinct_strings(label_space, message):
    X = np.arange(20.0).reshape(10, 2)
    with pytest.raises(ValueError) as info:
        fit_forest(X, np.arange(10) % 2, _schema(2), label_space, n_trees=1)
    assert str(info.value) == message


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


def _knn_one_row(X, y, x, k, n_classes):
    """Reference: the one-row kNN vote the batched predictor replaced."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k must be in [1, {X.shape[0]}]")
    d2 = ((X - np.asarray(x, dtype=np.float64)) ** 2).sum(axis=1)
    nearest = np.lexsort((np.arange(X.shape[0]), d2))[:k]
    counts = np.bincount(y[nearest], minlength=n_classes)
    return int(np.argmax(counts))


def _naive_bayes_one_row(X, y, x, n_classes):
    """Reference: the one-row naive Bayes fit and argmax the batched
    predictor replaced."""
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


def _reference_cases():
    """Seeded (X, y, X_test, n_classes) cases. Small integer grids give
    distance ties and vote ties, class 2 never appears in the training
    labels, and one case copies a class's rows so that two classes score
    alike under naive Bayes."""
    rng = np.random.default_rng(11)
    for n_train, n_features in ((5, 1), (12, 2), (30, 3), (60, 5)):
        X = rng.integers(-2, 3, size=(n_train, n_features)).astype(np.float64)
        y = rng.choice([0, 1, 3, 4], size=n_train)
        X_test = rng.integers(-3, 4, size=(40, n_features)).astype(np.float64)
        yield X, y, X_test, 6
        yield rng.normal(size=(n_train, n_features)), y, rng.normal(size=(40, n_features)), 6
    twin = rng.normal(size=(4, 3))
    yield np.vstack([twin, twin]), np.array([1] * 4 + [0] * 4), rng.normal(size=(20, 3)), 3


def test_knn_predict_equals_the_one_row_reference():
    for X, y, X_test, n_classes in _reference_cases():
        for k in sorted({1, 2, 3, 4, X.shape[0]}):
            expected = [_knn_one_row(X, y, x, k, n_classes) for x in X_test]
            assert knn_predict(X, y, X_test, k, n_classes).tolist() == expected, (X.shape, k)


def test_naive_bayes_predict_equals_the_one_row_reference():
    for X, y, X_test, n_classes in _reference_cases():
        expected = [_naive_bayes_one_row(X, y, x, n_classes) for x in X_test]
        assert naive_bayes_predict(X, y, X_test, n_classes).tolist() == expected, X.shape


def test_the_reference_cases_hold_every_tie():
    # the equality tests above reach distance ties, vote ties, an absent
    # class, k equal to the training-row count and a naive Bayes tie
    distance_ties = vote_ties = 0
    for X, y, X_test, n_classes in _reference_cases():
        assert 2 not in y
        for x in X_test:
            d2 = ((X - x) ** 2).sum(axis=1)
            distance_ties += len(np.unique(d2)) < len(d2)
            counts = np.bincount(y[np.argsort(d2, kind="stable")[:2]], minlength=n_classes)
            vote_ties += int((counts == counts.max()).sum() > 1)
    assert distance_ties > 0 and vote_ties > 0
    X, y, X_test, n_classes = list(_reference_cases())[-1]
    assert set(naive_bayes_predict(X, y, X_test, n_classes).tolist()) == {0}


def test_knn_hand_oracle():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    # the third probe has 2 near class-0 points against 1 class-1 point
    assert knn_predict(X, y, np.array([[0.4]]), k=1, n_classes=2).tolist() == [0]
    assert knn_predict(X, y, np.array([[10.4], [4.0]]), k=3, n_classes=2).tolist() == [1, 0]


def test_knn_distance_tie_prefers_lower_index():
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    # probe equidistant; index 0 (class 1) wins the k=1 vote
    assert knn_predict(X, y, np.array([[1.0]]), k=1, n_classes=2).tolist() == [1]


def test_knn_vote_tie_prefers_lower_class():
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    assert knn_predict(X, y, np.array([[1.0]]), k=2, n_classes=2).tolist() == [0]


def test_knn_k_validation():
    X = np.zeros((3, 1))
    y = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError):
        knn_predict(X, y, np.zeros((1, 1)), k=0, n_classes=1)
    with pytest.raises(ValueError):
        knn_predict(X, y, np.zeros((1, 1)), k=4, n_classes=1)


def test_naive_bayes_separated_clusters():
    rng = np.random.default_rng(9)
    a = rng.normal(0.0, 0.5, size=(40, 2))
    b = rng.normal(8.0, 0.5, size=(40, 2))
    X = np.vstack([a, b])
    y = np.array([0] * 40 + [1] * 40)
    assert naive_bayes_predict(X, y, np.array([[0.3, -0.2], [7.8, 8.1]]), 2).tolist() == [0, 1]


def test_naive_bayes_never_predicts_absent_class():
    X = np.array([[0.0], [0.1], [9.0], [9.1]])
    y = np.array([0, 0, 3, 3])
    probes = np.array([[0.05], [9.05], [4.5]])
    assert set(naive_bayes_predict(X, y, probes, 5).tolist()) <= {0, 3}


def test_naive_bayes_handles_zero_variance():
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    assert naive_bayes_predict(X, y, np.array([[1.0]]), 2).tolist() == [0]


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


def test_grid_search_shares_forests_across_tree_counts(monkeypatch):
    """A forest's first n trees are the n-tree forest, so each fold fits
    each (max_depth, min_samples_leaf) once, at its largest tree count, and
    the results equal a loop of separate fits."""
    X, y = _toy_grid_data(n=45)
    y[::4] = 2
    grid = [{"n_trees": t, "max_depth": d} for d in (2, None) for t in (6, 2, 9, 2)] + [
        {"n_trees": 4, "max_depth": 2, "min_samples_leaf": 3}, {"max_depth": 1},
    ]
    fits = []
    real_fit = ml.fit_forest
    @functools.wraps(real_fit)
    def recording_fit(*args, **kwargs):
        fits.append(kwargs["n_trees"])
        return real_fit(*args, **kwargs)
    monkeypatch.setattr(ml, "fit_forest", recording_fit)
    best, results = grid_search_cv(X, y, _schema(3), _labels(3), grid, folds=3, seed=6)
    assert fits == [9, 9, 4, 500] * 3

    fold_ss, *fit_ss = np.random.SeedSequence(6).spawn(4)
    fold_of = ml._fold_assignment(y, 3, np.random.Generator(np.random.Philox(fold_ss)))
    expected = []
    for params in grid:
        accuracies = []
        for k, ss in enumerate(fit_ss):
            train = fold_of != k
            model = real_fit(X[train], y[train], _schema(3), _labels(3), seed=int(ss.generate_state(1)[0]), **params)
            accuracies.append(float(np.mean(predict_many(model, X[~train]) == y[~train])))
        expected.append((params, float(np.mean(accuracies))))
    assert results == expected
    assert all(got is params for (got, _), params in zip(results, grid))
    assert best is max(expected, key=lambda r: r[1])[0]
    # the first trees' node arrays are the smaller forest's
    nine = real_fit(X, y, _schema(3), _labels(3), n_trees=9, seed=1)
    for n in (1, 4, 9):
        assert ml._first_trees(nine, n).nodes == real_fit(X, y, _schema(3), _labels(3), n_trees=n, seed=1).nodes


def test_grid_search_refuses_a_point_without_trees():
    X, y = _toy_grid_data()
    with pytest.raises(ValueError, match="n_trees must be at least 1, got 0"):
        grid_search_cv(X, y, _schema(3), _labels(2), [{"n_trees": 3}, {"n_trees": 0}], folds=3)
    for trees in (True, 2.5):
        with pytest.raises(ValueError, match=rf"n_trees must be an integer, got {trees!r}$"):
            grid_search_cv(X, y, _schema(3), _labels(2), [{"n_trees": 3}, {"n_trees": trees}], folds=3)


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


# the version-3 layout, written out here apart from ml: each node array's
# name and file type in file order; ``roots`` holds one entry per tree
_LAYOUT = (("feature", "<i4"), ("threshold", "<f8"), ("right", "<i4"), ("label", "<i4"),
           ("n_samples", "<i4"), ("impurity", "<f8"), ("roots", "<i4"))


def _read_file(path):
    """(header, node arrays) of a version-3 file."""
    line, newline, body = path.read_bytes().partition(b"\n")
    assert newline
    head = json.loads(line)
    arrays, at = {}, 0
    for name, dtype in _LAYOUT:
        count = head["n_trees"] if name == "roots" else head["n_nodes"]
        arrays[name] = np.frombuffer(body, dtype, count, at).copy()
        at += count * np.dtype(dtype).itemsize
    assert at == len(body)
    return head, arrays


def _write_file(path, head, arrays):
    body = b"".join(np.asarray(arrays[name]).astype(dtype).tobytes() for name, dtype in _LAYOUT)
    path.write_bytes(json.dumps(head).encode("utf-8") + b"\n" + body)


def _saved_small_model(tmp_path):
    model, _ = _small_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    return model, path


def test_save_load_round_trip(tmp_path):
    model, X = _small_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model  # node-for-node array equality
    assert loaded.schema == model.schema
    assert loaded.label_space == model.label_space
    assert np.array_equal(predict_many(loaded, X), predict_many(model, X))
    assert all(getattr(loaded.nodes, name).dtype == dtype for name, dtype in ml._NODE_DTYPES.items())


def test_saved_file_is_a_header_line_then_the_node_arrays(tmp_path):
    model, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    assert list(head) == ["format", "version", "n_trees", "max_depth", "min_samples_leaf", "bootstrap",
                          "max_features", "seed", "schema", "label_space", "n_nodes"]
    assert head["n_nodes"] == model.nodes.feature.size
    assert [name for name, _ in _LAYOUT] == list(ml._NODE_DTYPES)
    for name, values in arrays.items():
        assert np.array_equal(values, getattr(model.nodes, name))


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


def test_load_rejects_a_header_line_that_is_not_json(tmp_path):
    _, path = _saved_small_model(tmp_path)
    _, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(b"\xff{format: qcpredict-forest}\n" + body)
    with pytest.raises(ModelFormatError, match="unreadable"):
        load_model(path)


def test_load_rejects_wrong_format_and_version(tmp_path):
    _, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    assert head["format"] == MODEL_FORMAT and head["version"] == MODEL_VERSION == 3

    _write_file(path, dict(head, format="something-else"), arrays)
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(path)

    _write_file(path, dict(head, version=99), arrays)
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_version_1_and_names_the_retrain_command(tmp_path):
    _, path = _saved_small_model(tmp_path)
    head, _ = _read_file(path)
    del head["n_nodes"]
    # a version-1 file was one JSON document holding one list of preorder
    # node records per tree
    path.write_text(json.dumps(dict(head, version=1, trees=[[[-1, 0, [1, 0], 1, 0.0]]])), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="qcpredict train"):
        load_model(path)


def test_load_rejects_version_2_json_and_names_the_retrain_command(tmp_path):
    _, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    del head["n_nodes"]
    # a version-2 file was one JSON document ending in the node arrays as lists
    trees = {name: values.tolist() for name, values in arrays.items()}
    path.write_text(json.dumps(dict(head, version=2, trees=trees)), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="version 2 model; re-run `qcpredict train`"):
        load_model(path)


def test_load_rejects_inconsistent_node_arrays(tmp_path):
    model, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    leaf = int(np.flatnonzero(arrays["feature"] == -1)[0])
    edits = [
        ("right", lambda a: a.__setitem__(0, len(a))),  # child past the end
        ("feature", lambda a: a.__setitem__(0, 3)),  # the schema retains 3 features
        ("label", lambda a: a.__setitem__(leaf, 2)),  # the label space has 2 classes
        ("roots", lambda a: a.__setitem__(0, -1)),  # a root before the first node
    ]
    for name, edit in edits:
        bad = {k: v.copy() for k, v in arrays.items()}
        edit(bad[name])
        _write_file(path, head, bad)
        with pytest.raises(ModelFormatError, match="corrupt model file .*inconsistent"):
            load_model(path)
    # arrays of unequal length: one threshold short of the node count
    short = dict(arrays, threshold=arrays["threshold"][:-1])
    _write_file(path, head, short)
    with pytest.raises(ModelFormatError, match="corrupt"):
        load_model(path)


@pytest.mark.parametrize(
    "name, edit",
    [
        ("roots", lambda a: a.__setitem__(slice(None), a[::-1].copy())),  # trees listed last first
        ("roots", lambda a: a.__setitem__(0, 1)),  # the first tree does not start at node 0
        ("n_samples", lambda a: a.__setitem__(1, 0)),  # a node no training row reaches
        ("impurity", lambda a: a.__setitem__(0, np.nan)),
        ("impurity", lambda a: a.__setitem__(0, 1.5)),
        ("impurity", lambda a: a.__setitem__(0, -0.25)),
    ],
    ids=["roots-reversed", "roots-not-from-zero", "n-samples-zero", "impurity-nan", "impurity-above-one",
         "impurity-negative"],
)
def test_load_refuses_node_arrays_feature_importance_cannot_read(tmp_path, name, edit):
    # each loaded before; feature_importance (so evaluate and predict
    # --explain) then failed on it or wrote a NaN or a wrong importance
    _, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    assert head["n_trees"] > 1
    edit(arrays[name])
    _write_file(path, head, arrays)
    with pytest.raises(ModelFormatError, match="corrupt model file .*inconsistent node arrays"):
        load_model(path)


def test_load_rejects_truncated_trees(tmp_path):
    _, path = _saved_small_model(tmp_path)
    line, _, _ = path.read_bytes().partition(b"\n")
    for cut in (line, line + b"\n"):  # the header alone, with and without its newline
        path.write_bytes(cut)
        with pytest.raises(ModelFormatError, match="corrupt"):
            load_model(path)


@pytest.mark.parametrize("change", [-1, 1], ids=["one_byte_short", "one_trailing_byte"])
def test_load_rejects_a_byte_count_the_header_does_not_declare(tmp_path, change):
    _, path = _saved_small_model(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-1] if change < 0 else data + b"\0")
    with pytest.raises(ModelFormatError, match="corrupt model file .*bytes of node arrays"):
        load_model(path)


def test_load_rejects_a_header_without_the_node_count(tmp_path):
    _, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    del head["n_nodes"]
    _write_file(path, head, arrays)
    with pytest.raises(ModelFormatError, match="corrupt model file .*n_nodes"):
        load_model(path)


@pytest.mark.parametrize("key, value", [
    ("n_trees", 0), ("max_depth", -1), ("min_samples_leaf", 0), ("seed", "zero"), ("seed", True), ("seed", 1.5),
    ("seed", -1), ("bootstrap", 1), ("bootstrap", None), ("max_features", "log2"), ("max_features", 3),
    ("n_trees", True), ("n_trees", 2.5), ("min_samples_leaf", True), ("min_samples_leaf", 1.5),
    ("max_depth", True), ("max_depth", 2.5), *(("label_space", space) for space, _ in _BAD_LABEL_SPACES),
])
def test_load_rejects_hyperparameters_fit_forest_refuses(tmp_path, key, value):
    _, path = _saved_small_model(tmp_path)
    head, arrays = _read_file(path)
    _write_file(path, dict(head, **{key: value}), arrays)
    with pytest.raises(ModelFormatError, match=f"corrupt model file .*{key}"):
        load_model(path)


def test_save_refuses_a_node_value_that_does_not_fit_int32(tmp_path):
    model, _ = _small_model()
    right = model.nodes.right.copy()
    right[np.flatnonzero(right >= 0)[0]] = 2**31
    model.nodes = NodeTable(**{**{name: getattr(model.nodes, name) for name in ml._NODE_DTYPES}, "right": right})
    path = tmp_path / "m.bin"
    with pytest.raises(ValueError, match="right"):
        save_model(model, path)
    assert not path.exists()


def _nodes_sha256(nodes):
    """sha256 of the in-memory node arrays, little-endian, in file order."""
    return hashlib.sha256(b"".join(
        getattr(nodes, name).astype(np.dtype(dtype).newbyteorder("<")).tobytes()
        for name, dtype in ml._NODE_DTYPES.items()
    )).hexdigest()


# sha256 of model.bin for the forest of ``test_saved_forest_is_pinned``; a
# change means the forest or its file format moved. The node-array sha256
# moves only with the forest.
PINNED_FOREST_SHA256 = "197b0c0e794e9e70af721e8658e7734a4882ff2fde89fe0aa3cbf797dfbcf891"
PINNED_FOREST_NODES_SHA256 = "19e262addfe048196d30d600cd0d3f9f1fda67acae5bb3930e6486c1c89c9f58"


def test_saved_forest_is_pinned(tmp_path):
    rng = np.random.default_rng(2024)
    X = rng.integers(0, 6, size=(150, 8)).astype(np.float64)
    X = np.column_stack([X, X[:, 2]])  # an exact copy of column 2
    y = (X[:, 0] + X[:, 2] + rng.integers(0, 3, size=150)) % 4
    model = fit_forest(X, y, _schema(9), ("a", "b", "c", "d"), n_trees=40, seed=5)
    assert _nodes_sha256(model.nodes) == PINNED_FOREST_NODES_SHA256
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert _nodes_sha256(load_model(path).nodes) == PINNED_FOREST_NODES_SHA256
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FOREST_SHA256
