"""Connected-components tests against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import connected_components, num_components
from repro.generators import erdos_renyi
from repro.ops import ewiseadd_mm
from repro.algebra.functional import MAX
from repro.sparse import CSRMatrix


def sym_er(n, d, seed):
    a = erdos_renyi(n, d, seed=seed)
    return ewiseadd_mm(a, a.transposed(), MAX)


def nx_graph(a: CSRMatrix) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(a.nrows))
    coo = a.to_coo()
    g.add_edges_from(zip(coo.rows.tolist(), coo.cols.tolist()))
    return g


class TestConnectedComponents:
    def test_two_cliques(self):
        d = np.zeros((6, 6))
        for block in [(0, 3), (3, 6)]:
            for i in range(*block):
                for j in range(*block):
                    if i != j:
                        d[i, j] = 1.0
        labels = connected_components(CSRMatrix.from_dense(d))
        assert np.array_equal(labels, [0, 0, 0, 3, 3, 3])

    def test_label_is_min_vertex_of_component(self):
        d = np.zeros((4, 4))
        d[1, 3] = d[3, 1] = 1.0
        labels = connected_components(CSRMatrix.from_dense(d))
        assert labels[1] == 1 and labels[3] == 1
        assert labels[0] == 0 and labels[2] == 2

    def test_empty_graph_all_singletons(self):
        labels = connected_components(CSRMatrix.empty(5, 5))
        assert np.array_equal(labels, np.arange(5))
        assert num_components(CSRMatrix.empty(5, 5)) == 5

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            connected_components(CSRMatrix.empty(3, 4))

    @pytest.mark.parametrize("seed,d", [(1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0)])
    def test_matches_networkx(self, seed, d):
        a = sym_er(150, d, seed)
        labels = connected_components(a)
        for comp in nx.connected_components(nx_graph(a)):
            comp_labels = {int(labels[v]) for v in comp}
            assert len(comp_labels) == 1, "component split"
            assert comp_labels.pop() == min(comp)

    def test_num_components_matches_networkx(self):
        a = sym_er(120, 1.5, seed=5)
        assert num_components(a) == nx.number_connected_components(nx_graph(a))

    def test_max_rounds_cutoff(self):
        # a long path needs many rounds; cutting off early leaves it unfinished
        n = 20
        d = np.zeros((n, n))
        for i in range(n - 1):
            d[i, i + 1] = d[i + 1, i] = 1.0
        a = CSRMatrix.from_dense(d)
        partial = connected_components(a, max_rounds=2)
        full = connected_components(a)
        assert np.unique(full).size == 1
        assert np.unique(partial).size > 1


class TestConnectedComponentsDistributed:
    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_matches_local(self, p):
        from repro.distributed import DistSparseMatrix
        from repro.exec import DistBackend
        from repro.runtime import LocaleGrid, Machine

        a = sym_er(100, 1.5, seed=6)
        ref = connected_components(a)
        grid = LocaleGrid.for_count(p)
        got = connected_components(
            DistSparseMatrix.from_global(a, grid),
            backend=DistBackend(Machine(grid=grid, threads_per_locale=4)),
        )
        assert np.array_equal(ref, got)

    def test_ledger_records_rounds(self):
        from repro.distributed import DistSparseMatrix
        from repro.exec import DistBackend
        from repro.runtime import CostLedger, LocaleGrid, Machine

        a = sym_er(80, 2, seed=7)
        led = CostLedger()
        grid = LocaleGrid.for_count(4)
        connected_components(
            DistSparseMatrix.from_global(a, grid),
            backend=DistBackend(Machine(grid=grid, threads_per_locale=2, ledger=led)),
        )
        assert len(led) >= 2
