"""Tests for MIS-based greedy colouring."""

import numpy as np
import pytest

from repro.algebra.functional import MAX, OFFDIAG
from repro.algorithms import SelfLoopError, greedy_coloring, is_valid_coloring
from repro.generators import complete_graph, cycle_graph, erdos_renyi, path_graph
from repro.ops import ewiseadd_mm
from repro.sparse import CSRMatrix


def sym_graph(n, d, seed):
    a = erdos_renyi(n, d, seed=seed, values="one")
    return ewiseadd_mm(a, a.transposed(), MAX).select(OFFDIAG)


class TestColoring:
    def test_empty_graph_one_color(self):
        colors = greedy_coloring(CSRMatrix.empty(5, 5))
        assert (colors == 0).all()

    def test_path_two_colors(self):
        colors = greedy_coloring(path_graph(10))
        assert is_valid_coloring(path_graph(10), colors)
        assert colors.max() <= 2  # greedy may use 3 but usually 2

    def test_complete_graph_needs_n(self):
        a = complete_graph(5)
        colors = greedy_coloring(a)
        assert is_valid_coloring(a, colors)
        assert np.unique(colors).size == 5

    def test_odd_cycle_three_colors(self):
        a = cycle_graph(7)
        colors = greedy_coloring(a)
        assert is_valid_coloring(a, colors)
        assert colors.max() >= 2  # odd cycles are not 2-colourable

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_valid_on_random_graphs(self, seed):
        a = sym_graph(120, 6, seed)
        colors = greedy_coloring(a, seed=seed)
        assert is_valid_coloring(a, colors)
        # Δ+1 bound with slack for the randomised MIS
        max_deg = int(a.row_degrees().max())
        assert colors.max() <= max_deg + 1

    def test_deterministic(self):
        a = sym_graph(60, 4, 4)
        assert np.array_equal(
            greedy_coloring(a, seed=5), greedy_coloring(a, seed=5)
        )

    def test_non_square(self):
        with pytest.raises(ValueError):
            greedy_coloring(CSRMatrix.empty(2, 3))

    def test_is_valid_detects_conflict(self):
        a = path_graph(3)
        bad = np.array([0, 0, 1])
        assert not is_valid_coloring(a, bad)

    def test_self_loops_raise_instead_of_spinning(self):
        """Regression: a self-looped vertex never joins an MIS, so the colour
        loop used to run forever on ``erdos_renyi(50, 6, seed=3)`` (7 loops)."""
        a = erdos_renyi(50, 6, seed=3)
        rows = a.row_indices()
        loops = np.unique(rows[rows == a.colidx])
        assert loops.size == 7
        with pytest.raises(SelfLoopError) as err:
            greedy_coloring(a)
        assert np.array_equal(err.value.vertices, loops)
        assert str(int(loops[0])) in str(err.value)
