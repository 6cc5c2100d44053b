"""BFS tests against the networkx oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import bfs_levels, bfs_parents
from repro.distributed import DistSparseMatrix
from repro.exec import DistBackend
from repro.generators import erdos_renyi, rmat
from repro.ops import ewiseadd_mm
from repro.algebra.functional import MAX
from repro.runtime import CostLedger, LocaleGrid, Machine
from repro.sparse import CSRMatrix


def to_nx(a: CSRMatrix) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(a.nrows))
    coo = a.to_coo()
    g.add_edges_from(zip(coo.rows.tolist(), coo.cols.tolist()))
    return g


def symmetrized(a: CSRMatrix) -> CSRMatrix:
    return ewiseadd_mm(a, a.transposed(), MAX)


class TestBfsLevels:
    def test_path_graph(self):
        d = np.zeros((4, 4))
        for i in range(3):
            d[i, i + 1] = 1.0
        a = CSRMatrix.from_dense(d)
        assert np.array_equal(bfs_levels(a, 0), [0, 1, 2, 3])

    def test_unreachable_is_minus_one(self):
        d = np.zeros((3, 3))
        d[0, 1] = 1.0
        a = CSRMatrix.from_dense(d)
        levels = bfs_levels(a, 0)
        assert levels[2] == -1

    def test_isolated_source(self):
        a = CSRMatrix.empty(5, 5)
        levels = bfs_levels(a, 2)
        assert levels[2] == 0
        assert (levels[[0, 1, 3, 4]] == -1).all()

    def test_source_bounds(self):
        with pytest.raises(IndexError):
            bfs_levels(CSRMatrix.empty(3, 3), 3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_networkx_on_er(self, seed):
        a = erdos_renyi(200, 4, seed=seed)
        levels = bfs_levels(a, 0)
        expected = nx.single_source_shortest_path_length(to_nx(a), 0)
        for v in range(200):
            if v in expected:
                assert levels[v] == expected[v], f"vertex {v}"
            else:
                assert levels[v] == -1, f"vertex {v}"

    def test_matches_networkx_on_rmat(self):
        a = rmat(8, 8, seed=4)
        levels = bfs_levels(a, 0)
        expected = nx.single_source_shortest_path_length(to_nx(a), 0)
        for v in range(a.nrows):
            assert levels[v] == expected.get(v, -1)


class TestBfsParents:
    def test_source_is_own_parent(self):
        a = erdos_renyi(50, 4, seed=5)
        parents = bfs_parents(a, 7)
        assert parents[7] == 7

    def test_parents_form_valid_bfs_tree(self):
        a = erdos_renyi(150, 5, seed=6)
        levels = bfs_levels(a, 0)
        parents = bfs_parents(a, 0)
        dense = a.to_dense()
        for v in range(150):
            if v == 0 or parents[v] < 0:
                continue
            p = parents[v]
            assert dense[p, v] != 0, f"parent edge {p}->{v} missing"
            assert levels[p] == levels[v] - 1, f"parent level wrong at {v}"

    def test_reaches_same_set_as_levels(self):
        a = erdos_renyi(120, 3, seed=7)
        levels = bfs_levels(a, 0)
        parents = bfs_parents(a, 0)
        assert np.array_equal(levels >= 0, parents >= 0)


class TestBfsDistributed:
    @pytest.mark.parametrize("p", [1, 2, 4, 9])
    def test_matches_shared(self, p):
        a = symmetrized(erdos_renyi(130, 4, seed=8))
        ref = bfs_levels(a, 0)
        grid = LocaleGrid.for_count(p)
        ad = DistSparseMatrix.from_global(a, grid)
        got = bfs_levels(
            ad, 0, backend=DistBackend(Machine(grid=grid, threads_per_locale=2))
        )
        assert np.array_equal(got, ref)

    def test_ledger_collects_per_iteration_breakdowns(self):
        a = symmetrized(erdos_renyi(100, 4, seed=9))
        grid = LocaleGrid.for_count(4)
        led = CostLedger()
        m = Machine(grid=grid, threads_per_locale=4, ledger=led)
        ad = DistSparseMatrix.from_global(a, grid)
        bfs_levels(ad, 0, backend=DistBackend(m))
        assert len(led) >= 1
        agg = led.by_component()
        assert "Gather Input" in agg and "Local Multiply" in agg


class TestBfsParentsDistributed:
    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_valid_tree_matches_levels(self, p):
        a = symmetrized(erdos_renyi(120, 4, seed=30))
        levels = bfs_levels(a, 0)
        grid = LocaleGrid.for_count(p)
        parents = bfs_parents(
            DistSparseMatrix.from_global(a, grid),
            0,
            backend=DistBackend(Machine(grid=grid, threads_per_locale=2)),
        )
        dense = a.to_dense()
        assert parents[0] == 0
        assert np.array_equal(parents >= 0, levels >= 0)
        for v in range(120):
            if v == 0 or parents[v] < 0:
                continue
            pv = parents[v]
            assert dense[pv, v] != 0
            assert levels[pv] == levels[v] - 1


class TestBfsBatch:
    def test_rows_match_single_source(self):
        from repro.algorithms import bfs_levels_batch

        a = erdos_renyi(150, 4, seed=31)
        sources = np.array([0, 7, 42])
        batch = bfs_levels_batch(a, sources)
        for k, s in enumerate(sources):
            assert np.array_equal(batch[k], bfs_levels(a, int(s))), f"source {s}"

    def test_empty_sources(self):
        from repro.algorithms import bfs_levels_batch

        a = erdos_renyi(20, 3, seed=32)
        out = bfs_levels_batch(a, np.array([], dtype=np.int64))
        assert out.shape == (0, 20)

    def test_source_bounds(self):
        from repro.algorithms import bfs_levels_batch

        with pytest.raises(IndexError):
            bfs_levels_batch(CSRMatrix.empty(4, 4), np.array([9]))
