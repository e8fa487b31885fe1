"""Agent networks: left-stochastic combination matrices and Perron weights.

A network of K agents is described by a combination matrix A whose entry
A[l, k] is the weight agent k places on information arriving from agent l.
Every column sums to one (left-stochastic) and A[l, k] > 0 exactly when l is
a neighbor of k.  For a primitive matrix (strongly connected support with at
least one self-loop) the Perron eigenvector pi solves A pi = pi with positive
entries summing to one; it weights every network average in this package.
"""

from __future__ import annotations

import json

import numpy as np

from .base import Record, ValidationError

COLUMN_SUM_TOL = 1e-12
PERRON_MAX_ITER = 10**6


class GraphError(ValidationError):
    """Invalid network input (shape, stochasticity, connectivity)."""


class CombinationMatrix(Record):
    """Left-stochastic K x K weight matrix; entry [l, k] flows from l to k."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphError(f"combination matrix must be square, got {w.shape}")
        if w.shape[0] == 0:
            raise GraphError("empty graph")
        if not np.all(np.isfinite(w)):
            raise GraphError("combination weights must be finite")
        if np.any(w < 0):
            raise GraphError("combination weights must be nonnegative")
        col_err = np.max(np.abs(w.sum(axis=0) - 1.0))
        if col_err > COLUMN_SUM_TOL:
            raise GraphError(f"columns must sum to 1, max error {col_err:.3e}")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def build_averaging_matrix(adjacency) -> CombinationMatrix:
    """Uniform averaging weights: A[l, k] = 1/|N_k| for each in-neighbor l of k.

    ``adjacency[l, k]`` is truthy when agent l sends to agent k.  Every agent
    must carry an explicit self-loop (true diagonal); undirected graphs are
    passed as symmetric matrices, directed ones as-is.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise GraphError(f"adjacency must be square, got {adj.shape}")
    if adj.shape[0] == 0:
        raise GraphError("empty graph")
    if not np.all(np.diag(adj)):
        raise GraphError("every agent needs an explicit self-loop (true diagonal)")
    weights = adj.astype(float)
    weights /= weights.sum(axis=0, keepdims=True)
    return CombinationMatrix(weights)


def is_strongly_connected(matrix: CombinationMatrix) -> tuple[bool, bool]:
    """Whether the support digraph is strongly connected, and primitive.

    Returns ``(strong, primitive)`` where primitive additionally requires at
    least one self-loop.
    """
    support = matrix.weights > 0
    strong = _reaches_all(support, 0) and _reaches_all(support.T, 0)
    primitive = strong and bool(np.any(np.diag(support)))
    return strong, primitive


def _reaches_all(support: np.ndarray, start: int) -> bool:
    # BFS over edges l -> k encoded as support[l, k]
    n = support.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for other in np.flatnonzero(support[node]):
                if not seen[other]:
                    seen[other] = True
                    nxt.append(other)
        frontier = nxt
    return bool(seen.all())


def perron_eigenvector(matrix: CombinationMatrix, tol: float = 1e-12) -> np.ndarray:
    """Power iteration for the eigenvector at eigenvalue 1, normalized to sum 1.

    Iterates x <- A x until the max-norm change drops below ``tol``.  Requires
    a primitive matrix; raises after ``PERRON_MAX_ITER`` iterations without
    convergence.
    """
    strong, primitive = is_strongly_connected(matrix)
    if not primitive:
        raise GraphError(
            "Perron eigenvector needs a primitive matrix "
            f"(strongly connected: {strong}, self-loop required)"
        )
    a = matrix.weights
    x = np.full(matrix.size, 1.0 / matrix.size)
    for _ in range(PERRON_MAX_ITER):
        x_next = a @ x
        x_next /= x_next.sum()
        if np.max(np.abs(x_next - x)) < tol:
            return x_next
        x = x_next
    residual = np.max(np.abs(a @ x - x))
    raise GraphError(
        f"power iteration did not converge within {PERRON_MAX_ITER} iterations "
        f"(residual {residual:.3e})"
    )


def directed_ring_adjacency(size: int) -> np.ndarray:
    """Directed cycle 0 -> 1 -> ... -> 0 with self-loops everywhere."""
    if size < 1:
        raise GraphError("need at least one agent")
    adj = np.eye(size, dtype=bool)
    for k in range(size):
        adj[(k - 1) % size, k] = True
    return adj


def grid_adjacency(rows: int, cols: int) -> np.ndarray:
    """4-neighborhood grid (row-major agent order) with self-loops."""
    if rows < 1 or cols < 1:
        raise GraphError("grid must have positive dimensions")
    n = rows * cols
    adj = np.eye(n, dtype=bool)
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if r + 1 < rows:
                adj[k, k + cols] = adj[k + cols, k] = True
            if c + 1 < cols:
                adj[k, k + 1] = adj[k + 1, k] = True
    return adj


def load_combination_matrix(path) -> CombinationMatrix:
    """Read ``{"K": int, "rows": [[...], ...]}`` and validate on load."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GraphError(f"matrix file {path} is not a readable JSON file: {exc}") from None
    if not isinstance(payload, dict) or "K" not in payload or "rows" not in payload:
        raise GraphError(f"matrix file {path} needs a JSON object with keys 'K' and 'rows'")
    try:
        size = int(payload["K"])
        weights = np.asarray(payload["rows"], dtype=float)
        if weights.shape != (size, size):
            raise GraphError(f"'rows' shape {weights.shape} does not match K={size}")
        return CombinationMatrix(weights)
    except (TypeError, ValueError) as exc:
        # GraphError, or entries that are not numbers
        raise GraphError(f"matrix file {path}: {exc}") from None
