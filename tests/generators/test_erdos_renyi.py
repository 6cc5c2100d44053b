"""Tests for the Erdős–Rényi generator (the paper's workload)."""

import numpy as np
import pytest

from repro.generators import erdos_renyi, erdos_renyi_triples
from repro.sparse.csr import CSRMatrix


class TestErdosRenyi:
    def test_deterministic_given_seed(self):
        a = erdos_renyi(100, 4, seed=7)
        b = erdos_renyi(100, 4, seed=7)
        assert np.array_equal(a.colidx, b.colidx)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = erdos_renyi(100, 4, seed=1)
        b = erdos_renyi(100, 4, seed=2)
        assert not np.array_equal(a.colidx, b.colidx)

    def test_expected_density(self):
        # nnz ~ Binomial(n^2, d/n): mean d*n, sd ~ sqrt(d*n)
        n, d = 1000, 8
        a = erdos_renyi(n, d, seed=3)
        assert abs(a.nnz - d * n) < 6 * np.sqrt(d * n)

    def test_structure_valid_and_unique(self):
        a = erdos_renyi(200, 5, seed=4)
        a.check()  # sorted, deduplicated, in bounds

    def test_row_degrees_near_d(self):
        a = erdos_renyi(2000, 16, seed=5)
        assert abs(a.row_degrees().mean() - 16) < 1.0

    def test_values_modes(self):
        u = erdos_renyi(50, 3, seed=6, values="uniform")
        assert (u.values > 0).all() and (u.values < 1).all()
        o = erdos_renyi(50, 3, seed=6, values="one")
        assert (o.values == 1.0).all()
        with pytest.raises(ValueError):
            erdos_renyi(50, 3, values="bogus")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi(0, 1)
        with pytest.raises(ValueError):
            erdos_renyi(10, -1)
        with pytest.raises(ValueError):
            erdos_renyi(10, 11)

    def test_dense_extreme(self):
        a = erdos_renyi(10, 10, seed=8)  # p = 1: complete matrix
        assert a.nnz == 100

    def test_empty_extreme(self):
        a = erdos_renyi(10, 0, seed=9)
        assert a.nnz == 0

    def test_triples_match_matrix(self):
        rows, cols, vals = erdos_renyi_triples(60, 4, seed=10)
        assert rows.size == cols.size == vals.size
        assert rows.min() >= 0 and rows.max() < 60
        assert cols.min() >= 0 and cols.max() < 60
        # no duplicate coordinates
        keys = rows * 60 + cols
        assert np.unique(keys).size == keys.size

    @pytest.mark.parametrize(
        "n, d, seed, values",
        [
            (60, 4, 10, "uniform"),
            (500, 3, 2, "one"),
            (24, 24, 1, "uniform"),  # p = 1: every cell
            (12, 0, 3, "uniform"),  # no edges
            (1, 1, 0, "uniform"),
            (1, 0.5, 2, "one"),
            (3000, 0.5, 5, "uniform"),  # mostly empty rows
        ],
    )
    def test_placed_csr_equals_sorted_triples(self, n, d, seed, values):
        """``erdos_renyi`` places its sampled cells instead of sorting the
        shuffled triples; the CSR must be the one ``from_triples`` builds
        from those triples, dtypes included."""
        want = CSRMatrix.from_triples(
            n, n, *erdos_renyi_triples(n, d, seed=seed, values=values)
        )
        got = erdos_renyi(n, d, seed=seed, values=values)
        assert got.shape == want.shape
        for name in ("rowptr", "colidx", "values"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name
