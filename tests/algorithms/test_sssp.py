"""SSSP (Bellman-Ford) tests against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import NegativeCycleError, sssp, sssp_batch
from repro.generators import erdos_renyi
from repro.sparse import CSRMatrix


def to_nx_weighted(a: CSRMatrix) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(a.nrows))
    coo = a.to_coo()
    for r, c, v in zip(coo.rows.tolist(), coo.cols.tolist(), coo.values.tolist()):
        g.add_edge(r, c, weight=v)
    return g


class TestSSSP:
    def test_simple_path(self):
        d = np.zeros((3, 3))
        d[0, 1] = 2.0
        d[1, 2] = 3.0
        dist = sssp(CSRMatrix.from_dense(d), 0)
        assert np.array_equal(dist, [0.0, 2.0, 5.0])

    def test_chooses_shorter_route(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        d[1, 2] = 1.0
        d[0, 2] = 5.0
        dist = sssp(CSRMatrix.from_dense(d), 0)
        assert dist[2] == 2.0

    def test_unreachable_is_inf(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        dist = sssp(CSRMatrix.from_dense(d), 0)
        assert dist[2] == np.inf

    def test_source_bounds(self):
        with pytest.raises(IndexError):
            sssp(CSRMatrix.empty(3, 3), 5)

    def test_non_square(self):
        with pytest.raises(ValueError):
            sssp(CSRMatrix.empty(3, 4), 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_networkx_dijkstra(self, seed):
        a = erdos_renyi(100, 5, seed=seed)  # positive uniform weights
        dist = sssp(a, 0)
        expected = nx.single_source_dijkstra_path_length(to_nx_weighted(a), 0)
        for v in range(100):
            if v in expected:
                assert dist[v] == pytest.approx(expected[v])
            else:
                assert dist[v] == np.inf

    def test_negative_edges_ok(self):
        d = np.zeros((3, 3))
        d[0, 1] = 5.0
        d[1, 2] = -3.0
        dist = sssp(CSRMatrix.from_dense(d), 0)
        assert dist[2] == 2.0

    def test_negative_cycle_detected(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        d[1, 2] = -5.0
        d[2, 1] = 2.0  # cycle 1->2->1 with weight -3
        with pytest.raises(NegativeCycleError):
            sssp(CSRMatrix.from_dense(d), 0)

    def test_negative_cycle_ignored_when_disabled(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        d[1, 2] = -5.0
        d[2, 1] = 2.0
        dist = sssp(CSRMatrix.from_dense(d), 0, check_negative_cycles=False)
        assert dist[0] == 0.0


class TestSsspBatch:
    def test_negative_cycle_raises(self):
        """Budget exhausted without a fixpoint: one more round decides,
        exactly as in single-source ``sssp``."""
        a = CSRMatrix.from_triples(3, 3, [0, 1, 2], [1, 2, 1], [1.0, -3.0, 1.0])
        with pytest.raises(NegativeCycleError):
            sssp(a, 0)
        with pytest.raises(NegativeCycleError):
            sssp_batch(a, np.array([0]))

    def test_cycle_unreachable_from_every_source_is_fine(self):
        a = CSRMatrix.from_triples(4, 4, [1, 2, 3], [2, 1, 0], [-3.0, 1.0, 2.0])
        rows = sssp_batch(a, np.array([0, 3]))
        assert np.array_equal(rows[0], sssp(a, 0))
        assert np.array_equal(rows[1], sssp(a, 3))

    def test_longest_path_converges_on_last_round(self):
        """A path graph needs all n-1 rounds; the extra round finds no
        improvement, so no false negative cycle."""
        n = 6
        a = CSRMatrix.from_triples(
            n, n, np.arange(n - 1), np.arange(1, n), np.full(n - 1, -1.0)
        )
        rows = sssp_batch(a, np.array([0, 2]))
        assert np.array_equal(rows[0], sssp(a, 0))
        assert np.array_equal(rows[1], sssp(a, 2))
