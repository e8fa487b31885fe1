import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialml.graph import (
    CombinationMatrix,
    GraphError,
    build_averaging_matrix,
    directed_ring_adjacency,
    grid_adjacency,
    is_strongly_connected,
    load_combination_matrix,
    perron_eigenvector,
)

RING4 = np.array(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.5, 0.0, 0.0, 0.5],
    ]
)


def random_averaging_matrix(rng, size):
    """Averaging matrix over a random connected undirected graph."""
    adj = np.eye(size, dtype=bool)
    order = rng.permutation(size)
    for a, b in zip(order, order[1:]):  # random spanning path keeps it connected
        adj[a, b] = adj[b, a] = True
    extra = rng.random((size, size)) < 0.3
    adj |= extra & extra.T
    return build_averaging_matrix(adj)


class TestBuildAveragingMatrix:
    def test_single_agent_identity(self):
        m = build_averaging_matrix([[True]])
        assert m.weights.tolist() == [[1.0]]

    def test_complete_two_agents(self):
        m = build_averaging_matrix(np.ones((2, 2), dtype=bool))
        np.testing.assert_allclose(m.weights, [[0.5, 0.5], [0.5, 0.5]])

    def test_directed_ring_matches_expected_weights(self):
        m = build_averaging_matrix(directed_ring_adjacency(4))
        np.testing.assert_allclose(m.weights, RING4)

    def test_missing_self_loop_rejected(self):
        adj = np.ones((3, 3), dtype=bool)
        adj[1, 1] = False
        with pytest.raises(GraphError):
            build_averaging_matrix(adj)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            build_averaging_matrix(np.zeros((0, 0), dtype=bool))

    def test_non_square_rejected(self):
        with pytest.raises(GraphError):
            build_averaging_matrix(np.ones((2, 3), dtype=bool))

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_columns_always_sum_to_one(self, size, seed):
        rng = np.random.default_rng(seed)
        m = random_averaging_matrix(rng, size)
        np.testing.assert_allclose(m.weights.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(m.weights >= 0)


class TestCombinationMatrixInvariants:
    def test_column_sum_violation_rejected(self):
        with pytest.raises(GraphError):
            CombinationMatrix(np.array([[0.5, 0.0], [0.4, 1.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(GraphError):
            CombinationMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]))


class TestStrongConnectivity:
    def test_identity_not_connected(self):
        m = CombinationMatrix(np.eye(2))
        strong, primitive = is_strongly_connected(m)
        assert not strong and not primitive

    def test_ring_is_primitive(self):
        strong, primitive = is_strongly_connected(CombinationMatrix(RING4))
        assert strong and primitive

    def test_disconnected_pairs(self):
        block = np.array([[0.5, 0.5], [0.5, 0.5]])
        m = CombinationMatrix(
            np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        )
        strong, primitive = is_strongly_connected(m)
        assert not strong and not primitive


class TestPerronEigenvector:
    def test_doubly_stochastic_gives_uniform(self):
        pi = perron_eigenvector(CombinationMatrix(RING4))
        np.testing.assert_allclose(pi, 0.25, atol=1e-10)

    def test_single_agent(self):
        pi = perron_eigenvector(CombinationMatrix([[1.0]]))
        assert pi.tolist() == [1.0]

    def test_matches_dense_eigensolver_on_grid(self):
        # independent oracle: dense eigendecomposition of the same matrix
        m = build_averaging_matrix(grid_adjacency(3, 3))
        values, vectors = np.linalg.eig(m.weights)
        lead = np.argmin(np.abs(values - 1.0))
        oracle = np.real(vectors[:, lead])
        oracle = oracle / oracle.sum()
        pi = perron_eigenvector(m, tol=1e-12)
        np.testing.assert_allclose(pi, oracle, atol=1e-8)

    def test_fixed_point_residual(self):
        m = build_averaging_matrix(grid_adjacency(3, 3))
        pi = perron_eigenvector(m, tol=1e-12)
        np.testing.assert_allclose(m.weights @ pi, pi, atol=1e-10)

    def test_invariant_to_start_is_implicit_by_determinism(self):
        # power iteration starts from the uniform vector; verify the result
        # is the unique fixed point by comparing against 5 random warm starts
        rng = np.random.default_rng(42)
        m = build_averaging_matrix(grid_adjacency(2, 3))
        pi = perron_eigenvector(m)
        for _ in range(5):
            x = rng.random(m.size) + 0.05
            x /= x.sum()
            for _ in range(20000):
                x = m.weights @ x
                x /= x.sum()
            np.testing.assert_allclose(x, pi, atol=1e-9)

    def test_non_primitive_rejected(self):
        with pytest.raises(GraphError, match="primitive"):
            perron_eigenvector(CombinationMatrix(np.eye(3)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_positive_unit_sum_on_primitive_matrices(self, seed, size):
        # a directed ring with random extra edges and random positive weights
        rng = np.random.default_rng(seed)
        adj = directed_ring_adjacency(size) | (rng.random((size, size)) < 0.3)
        weights = np.where(adj, rng.uniform(0.1, 1.0, (size, size)), 0.0)
        pi = perron_eigenvector(CombinationMatrix(weights / weights.sum(axis=0)))
        assert np.all(pi > 0)
        assert abs(pi.sum() - 1.0) <= 1e-12


class TestMatrixFileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"K": 4, "rows": RING4.tolist()}))
        loaded = load_combination_matrix(path)
        np.testing.assert_array_equal(loaded.weights, RING4)

    def test_validation_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 2, "rows": [[0.9, 0.0], [0.0, 1.0]]}))
        with pytest.raises(GraphError, match="sum"):
            load_combination_matrix(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 3, "rows": [[1.0]]}))
        with pytest.raises(GraphError, match="shape"):
            load_combination_matrix(path)
