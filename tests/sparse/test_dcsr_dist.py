"""Differential suite: hypersparse DCSR blocks in the distributed path.

The format contract of :mod:`repro.sparse.formats`: CSR vs DCSR is *pure
storage*.  Every kernel cost formula is a function of nnz/flops only, so
swapping a distributed matrix's block format changes memory bytes and
wall clock — never a result bit, never a ledger entry.  This suite pins
that differentially:

* DCSR ⇄ CSR round trips at hypersparse densities are lossless;
* the vectorised DCSR row lookup (``extract_rows``) is bit-identical to
  the CSR gather;
* sparse SUMMA (2-D and 3-D, bulk and agg, masked fused and post) over
  DCSR-blocked operands produces bit-identical matrices *and* bit-
  identical breakdowns/ledger totals to CSR-blocked runs — including
  under covered fault plans, where the repair schedule (fault sites,
  retry draws) is also format-independent;
* the dispatcher's schedule axis and the gathered fallback honour
  mask/accum/desc through the same descriptor merge on every path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import DistSparseMatrix
from repro.exec.descriptor import merge_dist_matrix
from repro.ops import mxm, mxm_dist
from repro.ops.dispatch import Dispatcher
from repro.ops.matrix_dist import mxm_gathered
from repro.ops.mxm_dist import replication_factors
from repro.runtime import (
    RETRY_STEP,
    CostLedger,
    FaultInjector,
    LocaleGrid,
    Machine,
)
from repro.sparse import (
    CSRMatrix,
    DCSRMatrix,
    block_memory_bytes,
    choose_format,
    ensure_csr,
    ensure_dcsr,
    format_name,
    is_hypersparse,
)
from tests.strategies import PROFILE, covered_setups, csr_matrices, square_csr


def hypersparse_csr(*, min_side: int = 8, max_side: int = 48):
    """Square CSR matrices dense enough to multiply, sparse enough that
    2-D blocks go hypersparse (``nnz`` well under ``nrows``)."""
    return square_csr(min_side=min_side, max_side=max_side, max_nnz=24)


def assert_bit_identical(x: CSRMatrix, y: CSRMatrix) -> None:
    assert x.shape == y.shape
    assert np.array_equal(x.rowptr, y.rowptr)
    assert np.array_equal(x.colidx, y.colidx)
    assert np.array_equal(x.values, y.values)


class TestRoundTrip:
    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_csr_dcsr_csr_lossless(self, a):
        d = DCSRMatrix.from_csr(a)
        d.check()
        assert_bit_identical(d.to_csr(), a)
        assert_bit_identical(d.to_coo().to_csr(), a)
        assert d.nnz == a.nnz

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_choose_format_threshold(self, a):
        blk = choose_format(a)
        assert format_name(blk) == (
            "dcsr" if is_hypersparse(a.nnz, a.nrows) else "csr"
        )
        # the round trip through either ensure_* is lossless
        assert_bit_identical(ensure_csr(ensure_dcsr(a)), a)

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.data())
    def test_extract_rows_matches_csr(self, a, data):
        rows = np.array(
            data.draw(
                st.lists(st.integers(0, a.nrows - 1), min_size=0, max_size=40)
            ),
            dtype=np.int64,
        )
        d = DCSRMatrix.from_csr(a)
        assert_bit_identical(d.extract_rows(rows), a.extract_rows(rows))

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_row_surface_matches_csr(self, a):
        d = DCSRMatrix.from_csr(a)
        lens = np.diff(a.rowptr)
        assert np.array_equal(d.row_lengths(np.arange(a.nrows)), lens)
        assert np.array_equal(d.row_indices(), a.row_indices())

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_hypersparse_blocks_shrink(self, a):
        # DCSR stores 2·nzr+1 pointer slots against CSR's nrows+1, so the
        # byte win is guaranteed once the non-empty rows are under half
        # the row count (always true deep in the hypersparse regime)
        nzr = int(ensure_dcsr(a).rowids.size)
        if 2 * nzr < a.nrows:
            assert block_memory_bytes(ensure_dcsr(a)) < block_memory_bytes(a)
        else:
            # near the threshold the overhead is bounded by the pointer slots
            assert block_memory_bytes(ensure_dcsr(a)) <= block_memory_bytes(
                a
            ) + 8 * (2 * nzr + 1)


class TestDistBlocks:
    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([1, 4, 9]))
    def test_auto_format_gathers_identically(self, a, p):
        grid = LocaleGrid.for_count(p)
        plain = DistSparseMatrix.from_global(a, grid)
        auto = DistSparseMatrix.from_global(a, grid, block_format="auto")
        assert_bit_identical(auto.gather(), plain.gather())
        deep = True
        for fmt, blk in zip(auto.block_formats(), auto.blocks):
            assert fmt == format_name(blk)
            assert fmt == (
                "dcsr" if is_hypersparse(blk.nnz, blk.shape[0]) else "csr"
            )
            if isinstance(blk, DCSRMatrix) and 2 * blk.rowids.size >= blk.nrows:
                deep = False
        if deep:  # every compressed block is past the guaranteed-win point
            assert auto.memory_bytes() <= plain.memory_bytes()

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([4, 9]))
    def test_compress_matches_auto(self, a, p):
        grid = LocaleGrid.for_count(p)
        d = DistSparseMatrix.from_global(a, grid)
        c = d.compress()
        assert c.block_formats() == DistSparseMatrix.from_global(
            a, grid, block_format="auto"
        ).block_formats()
        assert_bit_identical(c.gather(), d.gather())


def _summa_variants(q: int):
    out = [{"variant": "2d"}]
    out += [{"variant": "3d", "layers": c} for c in replication_factors(q)]
    return out


class TestSummaDifferential:
    """The tentpole property: block format never changes results or bills."""

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([4, 16]))
    def test_dcsr_blocks_bit_identical_results_and_ledgers(self, a, p):
        grid = LocaleGrid.for_count(p)

        def run(fmt, **kw):
            m = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
            ad = DistSparseMatrix.from_global(a, grid, block_format=fmt)
            c, bd = mxm_dist(ad, ad, m, **kw)
            return c.gather(), dict(bd), m.ledger.total

        for kw in _summa_variants(grid.rows):
            g_csr, bd_csr, t_csr = run("csr", **kw)
            g_dcsr, bd_dcsr, t_dcsr = run("dcsr", **kw)
            assert_bit_identical(g_dcsr, g_csr)
            assert bd_dcsr == bd_csr
            assert t_dcsr == t_csr

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), covered_setups(max_locales=4))
    def test_dcsr_blocks_identical_under_covered_faults(self, a, setup):
        plan, policy = setup
        grid = LocaleGrid(2, 2)

        def run(fmt, **kw):
            m = Machine(
                grid=grid,
                threads_per_locale=2,
                ledger=CostLedger(),
                faults=FaultInjector(plan, policy),
            )
            ad = DistSparseMatrix.from_global(a, grid, block_format=fmt)
            c, bd = mxm_dist(ad, ad, m, **kw)
            return c.gather(faults=m.faults), dict(bd), m.ledger.total

        for kw in _summa_variants(grid.rows):
            g_csr, bd_csr, t_csr = run("csr", **kw)
            g_dcsr, bd_dcsr, t_dcsr = run("dcsr", **kw)
            assert_bit_identical(g_dcsr, g_csr)
            # identical fault sites + identical volumes => identical
            # repair draws and retry bills, down to the last float
            assert bd_dcsr == bd_csr
            assert t_dcsr == t_csr
            assert RETRY_STEP in bd_csr

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([4, 16]))
    def test_all_summa_schedules_bit_identical(self, a, p):
        grid = LocaleGrid.for_count(p)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid, block_format="auto")
        ref, _ = mxm_dist(ad, ad, m)
        want = ref.gather()
        for kw in _summa_variants(grid.rows):
            c, _ = mxm_dist(ad, ad, m, **kw)
            assert_bit_identical(c.gather(), want)


class TestMaskFusion:
    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr(), st.sampled_from([4, 16]))
    def test_fused_equals_post_and_is_cheaper(self, a, p):
        grid = LocaleGrid.for_count(p)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        mask = ad  # self-mask: the triangle-counting shape
        want = mxm(a, a, mask=a)
        for kw in _summa_variants(grid.rows):
            cf, bf = mxm_dist(ad, ad, m, mask=mask, mask_mode="fused", **kw)
            cp, bp = mxm_dist(ad, ad, m, mask=mask, mask_mode="post", **kw)
            assert_bit_identical(cf.gather(), cp.gather())
            assert np.allclose(cf.gather().to_dense(), want.to_dense())
            assert bf.total <= bp.total

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_fused_strictly_cheaper_when_mask_prunes(self, a):
        # a mask that keeps nothing: fusion drops the merge + filter bills
        grid = LocaleGrid(2, 2)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        empty = DistSparseMatrix.from_global(
            CSRMatrix.from_triples(
                a.nrows, a.ncols, np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0),
            ),
            grid,
        )
        prod, _ = mxm_dist(ad, ad, m)
        if prod.nnz == 0:
            return
        _, bf = mxm_dist(ad, ad, m, mask=empty, mask_mode="fused")
        _, bp = mxm_dist(ad, ad, m, mask=empty, mask_mode="post")
        assert bf.total < bp.total


class TestDispatcherAxis:
    def test_auto_stays_in_summa_family_on_square_grids(self):
        a = _ba_graph()
        grid = LocaleGrid(4, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        d.mxm_dist(ad, ad)
        dec = d.decisions[-1]
        assert dec.op == "mxm_dist"
        assert dec.chosen.startswith(("2d[", "3d["))
        assert "gathered" in dec.estimates
        assert "2d[bulk]" in dec.estimates
        for c in replication_factors(grid.rows):
            assert f"3d[c={c}][bulk]" in dec.estimates

    def test_non_square_grid_dispatches_gathered(self):
        a = _ba_graph()
        grid = LocaleGrid(2, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        c, _ = d.mxm_dist(ad, ad)
        assert d.decisions[-1].chosen == "gathered"
        assert list(d.decisions[-1].estimates) == ["gathered"]
        assert np.allclose(c.gather().to_dense(), mxm(a, a).to_dense())
        with pytest.raises(ValueError, match="square"):
            d.mxm_dist(ad, ad, variant="3d")

    def test_forced_axes(self):
        a = _ba_graph()
        grid = LocaleGrid(4, 4)
        d = Dispatcher(Machine(grid=grid, threads_per_locale=2))
        ad = DistSparseMatrix.from_global(a, grid)
        for kw, want in [
            ({"variant": "2d"}, "2d[bulk]"),
            ({"variant": "3d", "layers": 4}, "3d[c=4][bulk]"),
            ({"variant": "gathered"}, "gathered"),
        ]:
            d.mxm_dist(ad, ad, **kw)
            assert d.decisions[-1].chosen == want
            assert d.decisions[-1].forced
        with pytest.raises(ValueError, match="layers"):
            d.mxm_dist(ad, ad, variant="3d", layers=9)

    def test_auto_within_tolerance_of_best_fixed(self):
        """The acceptance bound: auto's bill ≤ 1.1× the best fixed
        schedule's bill (same inputs, fresh machines)."""
        a = _ba_graph()
        grid = LocaleGrid(4, 4)
        ad = DistSparseMatrix.from_global(a, grid)

        def bill(**kw):
            m = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
            Dispatcher(m).mxm_dist(ad, ad, **kw)
            return m.ledger.total

        fixed = [bill(**kw) for kw in _summa_variants(grid.rows)]
        assert bill() <= 1.1 * min(fixed)


class TestGatheredUniformity:
    """mask/accum/desc flow through the same descriptor merge on the
    gathered path as on SUMMA — bit for bit."""

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_gathered_accum_matches_manual_merge(self, a):
        from repro.algebra.functional import PLUS

        grid = LocaleGrid(2, 4)  # non-square: gathered is the only path
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        out = DistSparseMatrix.from_global(a, grid)
        got, _ = Dispatcher(m).mxm_dist(ad, ad, accum=PLUS, out=out)
        raw, _ = mxm_gathered(ad, ad, m)
        want = merge_dist_matrix(
            raw,
            DistSparseMatrix.from_global(a, grid),
            mask=None,
            complement=False,
            accum=PLUS,
            replace=False,
        )
        assert_bit_identical(got.gather(), want.gather())

    @settings(PROFILE, deadline=None)
    @given(hypersparse_csr())
    def test_gathered_mask_matches_shm(self, a):
        grid = LocaleGrid(2, 4)
        m = Machine(grid=grid, threads_per_locale=2)
        ad = DistSparseMatrix.from_global(a, grid)
        got, _ = Dispatcher(m).mxm_dist(ad, ad, mask=ad)
        assert np.allclose(
            got.gather().to_dense(), mxm(a, a, mask=a).to_dense()
        )


def _ba_graph() -> CSRMatrix:
    """A fixed mid-size graph for the non-property dispatcher tests."""
    from repro.generators import erdos_renyi

    return erdos_renyi(160, 6, seed=7)
