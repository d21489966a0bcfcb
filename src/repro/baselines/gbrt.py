"""Gradient-boosted regression trees (MART), from scratch.

Li et al. (VLDB'12) model per-operator resource usage with MART —
Multiple Additive Regression Trees.  This module provides the learner:
least-squares gradient boosting over depth-limited CART regressors with
quantile-candidate splits, implemented with vectorized numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    """One regression-tree node (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """Depth-limited CART regressor with quantile split candidates."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 8,
        n_thresholds: int = 24,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_thresholds = n_thresholds
        self.root: Optional[_Node] = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, f) with matching y")
        self.root = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()) if len(y) else 0.0)
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> Optional[tuple[int, float]]:
        n, n_features = X.shape
        y_sum = y.sum()
        base_sse = float((y**2).sum() - y_sum**2 / n)
        best_gain = 1e-9
        best: Optional[tuple[int, float]] = None
        qs = np.linspace(0.02, 0.98, self.n_thresholds)
        for feature in range(n_features):
            column = X[:, feature]
            thresholds = np.unique(np.quantile(column, qs))
            if len(thresholds) < 2:
                continue
            # (n, t) membership; vectorized split scoring.
            left = column[:, None] <= thresholds[None, :]
            n_left = left.sum(axis=0)
            valid = (n_left >= self.min_samples_leaf) & (
                n - n_left >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            sum_left = y @ left
            sum_right = y_sum - sum_left
            with np.errstate(divide="ignore", invalid="ignore"):
                explained = np.where(
                    valid,
                    sum_left**2 / np.maximum(1, n_left)
                    + sum_right**2 / np.maximum(1, n - n_left),
                    -np.inf,
                )
            gain = explained - y_sum**2 / n
            idx = int(np.argmax(gain))
            if valid[idx] and gain[idx] > best_gain and gain[idx] <= base_sse + 1e-6:
                best_gain = float(gain[idx])
                best = (feature, float(thresholds[idx]))
        return best

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        out = np.empty(len(X))
        # Iterative routing: partition indices down the tree.
        stack: list[tuple[_Node, np.ndarray]] = [(self.root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf or node.left is None or node.right is None:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out[0:1] if single else out

    def depth(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)


class MART:
    """Least-squares gradient boosting (the RBF baseline's learner)."""

    def __init__(
        self,
        n_trees: int = 120,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 8,
        subsample: float = 0.8,
        seed: int = 0,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_: float = 0.0
        self.trees_: list[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MART":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self.base_ = float(y.mean())
        self.trees_ = []
        current = np.full(len(y), self.base_)
        n_sub = max(self.min_samples_leaf * 2, int(round(len(y) * self.subsample)))
        n_sub = min(n_sub, len(y))
        for _ in range(self.n_trees):
            residual = y - current
            idx = rng.choice(len(y), size=n_sub, replace=False)
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(X[idx], residual[idx])
            update = tree.predict(X)
            current = current + self.learning_rate * update
            self.trees_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("MART is not fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        out = np.full(len(X), self.base_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out[0] if single else out
