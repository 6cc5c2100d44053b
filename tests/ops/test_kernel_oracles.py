"""Differential oracles: every vectorized kernel vs its spelled-out reference.

The library runs one numpy-vectorized implementation per kernel and
promises it is **bit-identical** — not approximately equal — to the
step-by-step algorithm it replaces (the references live in
:mod:`tests.oracles`).  This suite is that promise's enforcement; each
property calls the library kernel and its oracle on the same input and
compares exactly (``array_equal`` plus dtype equality, never
``allclose``).

Coverage:

* ``stable_argsort_bounded`` (the narrow-key radix argsort) vs the plain
  stable argsort — spanning the uint8/uint16/uint32 width cuts and the
  small-array bypass;
* ``merge_sort`` / ``radix_sort`` vs the bottom-up merge passes and the
  per-digit counting scatters;
* ``Monoid.reduceat_dense`` vs ``Monoid.reduceat`` under the dense-starts
  guarantee, across monoids and dtypes;
* ``SparseVector.from_pairs`` (build with duplicates) vs a plain-sort,
  general-reduceat build;
* the ``CSRMatrix`` row-gather ``_ranges`` vs the cumsum-of-deltas
  construction, and ``DCSRMatrix.extract_rows`` vs a per-row walk;
* ``group_by_owner`` (both the sorting and the ``assume_sorted`` forms)
  vs a per-owner boolean-mask loop;
* the local kernel ``spmspv_shm`` (both sorts, masks, complements) and the
  sort-based ``spmspv_shm_merge`` vs a SPA merge, and ``mxm_gustavson``
  vs the per-row SPA loop;
* the 2-D partitioner (``DistSparseMatrix.from_global``) vs a global
  sort-by-cell partition, and the distributed kernel ``spmspv_dist`` vs
  ``spmspv_shm`` on the global matrix, on square *and* non-square grids —
  with its fault-run per-owner scatter path pinned to the fault-free
  global merge.

Dtype diversity (float64 / int64 / bool), empty frontiers, and duplicate
indices are explicit strategy dimensions, not accidents of sampling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.monoid import (
    LAND_MONOID,
    LOR_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    PLUS_MONOID,
    TIMES_MONOID,
)
from repro.algebra.semiring import LOR_LAND, MIN_PLUS, PLUS_TIMES
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.distributed.block import Block2D
from repro.ops.mxm import mxm_gustavson
from repro.ops.spmspv import spmspv_dist, spmspv_shm
from repro.ops.spmspv_merge import spmspv_shm_merge
from repro.runtime import (
    RETRY_STEP,
    CostLedger,
    FaultInjector,
    FaultPlan,
    LocaleGrid,
    Machine,
    shared_machine,
)
from repro.runtime.aggregation import group_by_owner
from repro.sparse import DCSRMatrix
from repro.sparse.csr import CSRMatrix, _ranges
from repro.sparse.sort import merge_sort, radix_sort, stable_argsort_bounded
from repro.sparse.vector import SparseVector
from tests.oracles import (
    dcsr_extract_rows_reference,
    from_pairs_reference,
    group_by_owner_reference,
    merge_sort_reference,
    mxm_gustavson_reference,
    partition_reference,
    radix_sort_reference,
    ranges_reference,
    spmspv_spa_reference,
)
from tests.strategies import PROFILE, PROFILE_FAST, matrix_vector_pairs
from tests.strategies.vectors import dense_masks

MONOIDS = [
    PLUS_MONOID,
    TIMES_MONOID,
    MIN_MONOID,
    MAX_MONOID,
    LOR_MONOID,
    LAND_MONOID,
]

#: value dtypes every oracle exercises; values are small integers, exactly
#: representable in all three, so cross-dtype programs stay bit-comparable
DTYPES = [np.float64, np.int64, np.bool_]


def assert_same_array(ref: np.ndarray, got: np.ndarray, label: str = "") -> None:
    assert ref.dtype == got.dtype, (label, ref.dtype, got.dtype)
    assert np.array_equal(ref, got), label


def assert_same_vector(ref: SparseVector, got: SparseVector) -> None:
    assert ref.capacity == got.capacity
    assert_same_array(ref.indices, got.indices, "indices")
    assert_same_array(ref.values, got.values, "values")


def assert_same_csr(ref: CSRMatrix, got: CSRMatrix, label: str = "") -> None:
    assert ref.shape == got.shape, label
    for name in ("rowptr", "colidx", "values"):
        assert_same_array(getattr(ref, name), getattr(got, name), f"{label} {name}")


# ---------------------------------------------------------------------------
# sorting primitives
# ---------------------------------------------------------------------------


class TestStableArgsortBounded:
    @given(
        keys=st.lists(st.integers(0, 2**33), min_size=0, max_size=200),
        data=st.data(),
    )
    @settings(PROFILE)
    def test_matches_plain_stable_argsort(self, keys, data):
        """The narrowed-dtype argsort must return the *identical* stable
        permutation for every bound classification (uint8/16/32/passthrough),
        on both sides of the size-64 bypass."""
        keys = np.array(keys, dtype=np.int64)
        hi = int(keys.max()) + 1 if keys.size else 1
        bound = data.draw(
            st.sampled_from(
                sorted({hi, 2**8, 2**16, 2**32, 2**33, hi + 255})
            ).filter(lambda b: b >= hi)
        )
        assert_same_array(
            np.argsort(keys, kind="stable"), stable_argsort_bounded(keys, bound)
        )

    @pytest.mark.parametrize("bound", [1, 255, 256, 2**16, 2**16 + 1, 2**32])
    def test_duplicates_keep_stable_order(self, bound):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, bound, size=300, dtype=np.int64)
        assert_same_array(
            np.argsort(keys, kind="stable"),
            stable_argsort_bounded(keys, bound),
            f"bound={bound}",
        )

    def test_empty(self):
        keys = np.empty(0, dtype=np.int64)
        assert_same_array(
            np.argsort(keys, kind="stable"), stable_argsort_bounded(keys, 10)
        )


class TestSortKernels:
    @given(keys=st.lists(st.integers(0, 2**20), max_size=120))
    @settings(PROFILE)
    def test_merge_sort_matches_reference(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert_same_array(merge_sort_reference(keys.copy()), merge_sort(keys.copy()))

    @given(keys=st.lists(st.integers(0, 2**20), max_size=120))
    @settings(PROFILE)
    def test_radix_sort_matches_reference(self, keys):
        keys = np.array(keys, dtype=np.int64)
        assert_same_array(radix_sort_reference(keys.copy()), radix_sort(keys.copy()))


# ---------------------------------------------------------------------------
# segmented reduction + vector build
# ---------------------------------------------------------------------------


@st.composite
def _values_and_starts(draw):
    """A payload array plus strictly-increasing in-range segment starts
    beginning at 0 — exactly :meth:`Monoid.reduceat_dense`'s guarantee."""
    n = draw(st.integers(1, 60))
    dtype = draw(st.sampled_from(DTYPES))
    if dtype is np.bool_:
        vals = draw(
            st.lists(st.booleans(), min_size=n, max_size=n)
        )
    else:
        vals = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    starts = sorted(
        draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) | {0}
    ) if n > 1 else [0]
    return np.array(vals, dtype=dtype), np.array(starts, dtype=np.int64)


class TestReduceatDense:
    @given(payload=_values_and_starts(), monoid=st.sampled_from(MONOIDS))
    @settings(PROFILE)
    def test_matches_general_reduceat(self, payload, monoid):
        values, starts = payload
        ref = np.asarray(monoid.reduceat(values, starts))
        got = np.asarray(monoid.reduceat_dense(values, starts))
        assert_same_array(ref, got, monoid.name)


class TestFromPairs:
    @given(
        capacity=st.integers(1, 40),
        data=st.data(),
        dtype=st.sampled_from(DTYPES),
        monoid=st.sampled_from(MONOIDS),
    )
    @settings(PROFILE)
    def test_duplicated_builds_match(self, capacity, data, dtype, monoid):
        """GrB_Vector_build with duplicates (narrow argsort + dense
        reduceat) vs the plain-sort reference, across dtypes and dup
        monoids."""
        n = data.draw(st.integers(0, 3 * capacity))
        idx = data.draw(
            st.lists(
                st.integers(0, capacity - 1), min_size=n, max_size=n
            )
        )
        if dtype is np.bool_:
            vals = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        else:
            vals = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        idx = np.array(idx, dtype=np.int64)
        vals = np.array(vals, dtype=dtype)
        assert_same_vector(
            from_pairs_reference(capacity, idx, vals, dup=monoid),
            SparseVector.from_pairs(capacity, idx, vals, dup=monoid),
        )


class TestRowGather:
    @given(
        segs=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=20
        )
    )
    @settings(PROFILE)
    def test_ranges_matches_reference(self, segs):
        """Concatenated index ranges, zero-length segments included."""
        starts = np.array([s for s, _ in segs], dtype=np.int64)
        lens = np.array([l for _, l in segs], dtype=np.int64)
        assert_same_array(ranges_reference(starts, lens), _ranges(starts, lens))

    @given(pair=matrix_vector_pairs(max_side=24, max_nnz=40), data=st.data())
    @settings(PROFILE)
    def test_dcsr_extract_rows_matches_per_row_walk(self, pair, data):
        a, _ = pair
        rows = np.array(
            data.draw(st.lists(st.integers(0, a.nrows - 1), max_size=30)),
            dtype=np.int64,
        )
        d = DCSRMatrix.from_csr(a)
        assert_same_csr(dcsr_extract_rows_reference(d, rows), d.extract_rows(rows))


class TestGroupByOwner:
    @given(
        owners=st.lists(st.integers(0, 5), max_size=60),
        data=st.data(),
        presorted=st.booleans(),
    )
    @settings(PROFILE)
    def test_matches_per_owner_mask_loop(self, owners, data, presorted):
        """Both forms — the stable sort and the ``assume_sorted`` scan the
        distributed SpMSpV uses on its already-ordered owners."""
        owners = np.array(sorted(owners) if presorted else owners, dtype=np.int64)
        payload = np.array(
            data.draw(
                st.lists(
                    st.integers(-8, 8),
                    min_size=owners.size,
                    max_size=owners.size,
                )
            ),
            dtype=np.int64,
        )
        uniq, offsets, (perm,) = group_by_owner(
            owners, payload, assume_sorted=presorted
        )
        ref_uniq, ref_groups = group_by_owner_reference(owners, payload)
        assert np.array_equal(uniq, ref_uniq)
        assert offsets[0] == 0 and offsets[-1] == owners.size
        for k, (o, (ref,)) in enumerate(zip(uniq, ref_groups)):
            assert_same_array(ref, perm[offsets[k] : offsets[k + 1]], f"owner {o}")


# ---------------------------------------------------------------------------
# local kernels: SPA SpMSpV, sort-based SpMSpV, Gustavson SpGEMM
# ---------------------------------------------------------------------------

SEMIRINGS = [PLUS_TIMES, MIN_PLUS, LOR_LAND]


class TestLocalSpmspv:
    @given(
        pair=matrix_vector_pairs(),
        semiring=st.sampled_from(SEMIRINGS),
        sort=st.sampled_from(["merge", "radix"]),
        data=st.data(),
    )
    @settings(PROFILE_FAST)
    def test_spa_kernel_matches_spa_merge(self, pair, semiring, sort, data):
        a, x = pair
        mask = data.draw(st.none() | dense_masks(a.ncols))
        complement = data.draw(st.booleans()) if mask is not None else False
        y, _ = spmspv_shm(
            a, x, shared_machine(4), semiring=semiring, sort=sort, mask=mask,
            complement=complement,
        )
        ref = spmspv_spa_reference(
            a, x, semiring, sort, mask=mask, complement=complement
        )
        assert_same_vector(ref, y)

    @given(pair=matrix_vector_pairs(), semiring=st.sampled_from(SEMIRINGS))
    @settings(PROFILE_FAST)
    def test_sort_based_kernel_matches_spa_merge(self, pair, semiring):
        a, x = pair
        y, _ = spmspv_shm_merge(a, x, shared_machine(4), semiring=semiring)
        assert_same_vector(spmspv_spa_reference(a, x, semiring), y)

    @pytest.mark.parametrize("sort", ["merge", "radix"])
    def test_empty_frontier(self, sort):
        a = CSRMatrix.from_triples(
            5, 5, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 2.0])
        )
        x = SparseVector.empty(5)
        y, _ = spmspv_shm(a, x, shared_machine(2), sort=sort)
        assert_same_vector(spmspv_spa_reference(a, x, sort=sort), y)
        assert y.nnz == 0


class TestMxmGustavson:
    @given(pair=matrix_vector_pairs(max_side=16, max_nnz=60))
    @settings(PROFILE_FAST)
    def test_matches_per_row_spa_loop(self, pair):
        a, _ = pair
        b = a.transposed()  # shape-compatible second operand
        assert_same_csr(mxm_gustavson_reference(a, b), mxm_gustavson(a, b))


# ---------------------------------------------------------------------------
# distributed: the 2-D partitioner and the full spmspv_dist kernel
# ---------------------------------------------------------------------------

#: square and deliberately non-square grids (paper §III-D's odd powers)
GRIDS = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]


class TestPartitioner:
    @given(
        pair=matrix_vector_pairs(min_side=1, max_side=24, max_nnz=100),
        grid=st.sampled_from(GRIDS),
    )
    @settings(PROFILE_FAST)
    def test_partition_matches_sort_by_cell(self, pair, grid):
        a, _ = pair
        g = LocaleGrid(*grid)
        d = DistSparseMatrix.from_global(a, g)
        ref = partition_reference(a, Block2D.for_grid(a.nrows, a.ncols, g))
        for k, (rb, blk) in enumerate(zip(ref, d.blocks)):
            assert_same_csr(rb, blk, f"block {k}")
        gathered = d.gather()
        assert np.array_equal(gathered.values, a.values)
        assert np.array_equal(gathered.colidx, a.colidx)


class TestDistSpmspv:
    @given(
        pair=matrix_vector_pairs(min_side=4, max_side=24, max_nnz=100, square=True),
        grid=st.sampled_from(GRIDS),
        semiring=st.sampled_from(SEMIRINGS),
    )
    @settings(PROFILE_FAST)
    def test_dist_kernel_matches_shm_and_fault_path(self, pair, grid, semiring):
        """The distributed kernel end to end — partition, gather, local
        multiply, global-merge scatter — equals the shared-memory kernel on
        the global matrix (exact values: no re-association rounding).  A
        quiet fault plan routes the scatter through the per-owner loop
        instead of the global merge: same result bytes, and the same cost
        components plus a zero ``Retries`` one (the fault-aware gather
        sums its parts in another order, so costs agree to rounding)."""
        a, x = pair
        g = LocaleGrid(*grid)
        ad = DistSparseMatrix.from_global(a, g)
        xd = DistSparseVector.from_global(x, g)

        def run(faults=None):
            m = Machine(
                grid=g, threads_per_locale=2, ledger=CostLedger(), faults=faults
            )
            y, b = spmspv_dist(ad, xd, m, semiring=semiring)
            return y.gather(), b

        y, b = run()
        want, _ = spmspv_shm(a, x, shared_machine(2), semiring=semiring)
        assert np.array_equal(y.indices, want.indices)
        assert np.array_equal(y.values, want.values)

        y_loop, b_loop = run(FaultInjector(FaultPlan.fault_free()))
        assert_same_vector(y, y_loop)
        assert b_loop[RETRY_STEP] == 0.0
        assert dict(b_loop.restricted(b)) == pytest.approx(dict(b))
