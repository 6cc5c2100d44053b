"""Unit tests for transpose, including the distributed block exchange."""

import numpy as np
import pytest

from repro.distributed import DistSparseMatrix
from repro.generators import erdos_renyi
from repro.ops import transpose, transpose_dist
from repro.runtime import CostLedger, LocaleGrid, Machine


class TestTranspose:
    def test_matches_dense(self):
        a = erdos_renyi(30, 4, seed=1)
        assert np.allclose(transpose(a).to_dense(), a.to_dense().T)


class TestTransposeDist:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_matches_local(self, p):
        a = erdos_renyi(40, 4, seed=2)
        grid = LocaleGrid.for_count(p)
        ad = DistSparseMatrix.from_global(a, grid)
        td, b = transpose_dist(ad, Machine(grid=grid, threads_per_locale=2))
        assert np.allclose(td.gather().to_dense(), a.to_dense().T)
        assert b.total > 0

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 1)])
    def test_non_square_grid_gathers(self, shape):
        a = erdos_renyi(20, 3, seed=3)
        grid = LocaleGrid(*shape)
        ad = DistSparseMatrix.from_global(a, grid)
        m = Machine(grid=grid, ledger=CostLedger())
        td, b = transpose_dist(ad, m)
        td.check()
        assert np.array_equal(td.gather().to_dense(), a.to_dense().T)
        assert b["Gather"] > 0
        assert [label for label, _ in m.ledger.entries] == ["transpose_dist[gathered]"]

    def test_blocks_stay_consistent(self):
        a = erdos_renyi(33, 3, seed=4)  # uneven block sizes
        grid = LocaleGrid(2, 2)
        ad = DistSparseMatrix.from_global(a, grid)
        td, _ = transpose_dist(ad, Machine(grid=grid))
        td.check()
