"""Per-kernel chaos properties: covered faults repair, uncovered ones raise.

Each test drives one distributed kernel under a seeded fault plan and pins
the tentpole contract of :mod:`repro.runtime.faults`:

* covered plans (transient bursts within the retry budget, dropped and
  duplicated puts, stragglers) leave results bit-identical to fault-free
  local execution, and the repair bill appears as the ``Retries``
  breakdown component;
* uncovered plans (failed locales, exhausted retry budgets) raise a typed
  :class:`~repro.runtime.faults.LocaleFailure` — deterministically, the
  same way on every replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.monoid import PLUS_MONOID
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.ops import mxm, mxm_dist, spmspv_dist, spmspv_shm
from repro.ops.ewise import ewiseadd_vv, ewisemult_vv
from repro.ops.ewise_dist import ewiseadd_dist_vv, ewisemult_dist_vv
from repro.runtime import (
    RETRY_STEP,
    CostLedger,
    FaultInjector,
    FaultPlan,
    LocaleFailure,
    LocaleGrid,
    Machine,
    RetryExhausted,
    RetryPolicy,
    shared_machine,
)
from tests.strategies import (
    PROFILE,
    PROFILE_FAST,
    PROFILE_SLOW,
    covered_setups,
    matrix_vector_pairs,
    semirings,
    sparse_vectors,
    uncovered_setups,
)

pytestmark = pytest.mark.chaos

#: a policy whose every repair charges strictly positive simulated time,
#: so "faults happened => Retries > 0" is assertable
CHARGING_POLICY = RetryPolicy(
    max_attempts=8, detect_timeout=1e-4, backoff_base=5e-5, backoff_factor=2.0
)

grids = st.integers(1, 9).map(LocaleGrid.for_count)


def _faulted_machine(grid, plan, policy):
    return Machine(
        grid=grid,
        threads_per_locale=2,
        ledger=CostLedger(),
        faults=FaultInjector(plan, policy),
    )


class TestCoveredFaults:
    @settings(PROFILE, deadline=None)
    @given(matrix_vector_pairs(), grids, covered_setups(), semirings())
    def test_spmspv_dist_bit_identical_and_charged(self, wl, grid, setup, sr):
        a, x = wl
        plan, policy = setup
        y_ref, _ = spmspv_shm(a, x, shared_machine(1), semiring=sr)
        m = _faulted_machine(grid, plan, policy)
        yd, b = spmspv_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
            m,
            semiring=sr,
        )
        got = yd.gather(faults=m.faults)
        assert np.array_equal(got.indices, y_ref.indices)
        assert np.array_equal(got.values, y_ref.values)
        # robustness accounting is always visible under an injector …
        assert RETRY_STEP in b
        # … and zero exactly when no repairable fault fired
        if not any(
            e.kind in ("transient", "drop", "duplicate") for e in m.faults.events
        ):
            assert b[RETRY_STEP] == 0.0

    @settings(PROFILE_SLOW, deadline=None)
    @given(
        matrix_vector_pairs(),
        grids,
        st.sampled_from(["fine", "bulk"]),
        st.sampled_from(["fine", "bulk"]),
        st.sampled_from(["merge", "radix"]),
        st.integers(0, 2**31 - 1),
    )
    def test_every_dispatchable_variant_survives_faults(
        self, wl, grid, gather, scatter, sort, seed
    ):
        """Every gather/scatter/sort combination the dispatch engine can
        select stays exact under a hot covered plan."""
        a, x = wl
        plan = FaultPlan(
            seed=seed,
            transient_rate=0.5,
            max_burst=3,
            drop_rate=0.3,
            dup_rate=0.3,
            stragglers={0: 2.5},
        )
        y_ref, _ = spmspv_shm(a, x, shared_machine(1))
        m = _faulted_machine(grid, plan, CHARGING_POLICY)
        yd, b = spmspv_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
            m,
            gather_mode=gather,
            scatter_mode=scatter,
            sort=sort,
        )
        got = yd.gather(faults=m.faults)
        assert np.array_equal(got.indices, y_ref.indices)
        assert np.array_equal(got.values, y_ref.values)
        if any(
            e.kind in ("transient", "drop", "duplicate") for e in m.faults.events
        ):
            assert b[RETRY_STEP] > 0.0

    @settings(PROFILE, deadline=None)
    @given(sparse_vectors(), grids, covered_setups())
    def test_ewise_dist_under_faults(self, x, grid, setup):
        plan, policy = setup
        rng = np.random.default_rng(plan.seed)
        y_idx = np.flatnonzero(rng.random(x.capacity) < 0.5)
        from repro.sparse.vector import SparseVector

        y = SparseVector(x.capacity, y_idx, np.ones(y_idx.size))
        m = _faulted_machine(grid, plan, policy)
        xd = DistSparseVector.from_global(x, grid)
        yd = DistSparseVector.from_global(y, grid)
        add, _ = ewiseadd_dist_vv(xd, yd, m, PLUS_MONOID)
        mul, _ = ewisemult_dist_vv(xd, yd, m)
        add_ref = ewiseadd_vv(x, y, PLUS_MONOID)
        mul_ref = ewisemult_vv(x, y)
        add_got = add.gather(faults=m.faults)
        mul_got = mul.gather(faults=m.faults)
        assert np.array_equal(add_got.indices, add_ref.indices)
        assert np.array_equal(add_got.values, add_ref.values)
        assert np.array_equal(mul_got.indices, mul_ref.indices)
        assert np.array_equal(mul_got.values, mul_ref.values)

    @settings(PROFILE_SLOW, deadline=None)
    @given(
        matrix_vector_pairs(square=True, max_side=16, max_nnz=60),
        st.sampled_from([1, 4, 9]),
        covered_setups(),
    )
    def test_mxm_dist_under_faults(self, wl, p, setup):
        a, _ = wl
        plan, policy = setup
        grid = LocaleGrid.for_count(p)
        c_ref = mxm(a, a)
        m = _faulted_machine(grid, plan, policy)
        ad = DistSparseMatrix.from_global(a, grid)
        cd, b = mxm_dist(ad, ad, m)
        got = cd.gather(faults=m.faults)
        assert np.array_equal(got.rowptr, c_ref.rowptr)
        assert np.array_equal(got.colidx, c_ref.colidx)
        assert np.array_equal(got.values, c_ref.values)
        assert RETRY_STEP in b

    @settings(PROFILE, deadline=None)
    @given(matrix_vector_pairs(), grids, st.integers(0, 2**31 - 1))
    def test_straggler_only_changes_time_never_values(self, wl, grid, seed):
        a, x = wl
        clean = Machine(grid=grid, threads_per_locale=2)
        y0, b0 = spmspv_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
            clean,
        )
        plan = FaultPlan(seed=seed, stragglers={0: 5.0})
        m = _faulted_machine(grid, plan, CHARGING_POLICY)
        y1, b1 = spmspv_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
            m,
        )
        assert np.array_equal(y0.gather().indices, y1.gather().indices)
        assert np.array_equal(y0.gather().values, y1.gather().values)
        # the straggler can only ever slow the makespan down
        assert b1.total >= b0.total


class TestDeterminism:
    @settings(PROFILE, deadline=None)
    @given(matrix_vector_pairs(), grids, covered_setups())
    def test_replay_is_bitwise_identical(self, wl, grid, setup):
        """Same (plan, policy, workload) => same costs and same events."""
        a, x = wl
        plan, policy = setup

        def run():
            m = _faulted_machine(grid, plan, policy)
            _, b = spmspv_dist(
                DistSparseMatrix.from_global(a, grid),
                DistSparseVector.from_global(x, grid),
                m,
            )
            return b, m.faults.event_counts()

        b1, e1 = run()
        b2, e2 = run()
        assert b1 == b2
        assert e1 == e2

    @settings(PROFILE, deadline=None)
    @given(matrix_vector_pairs(), grids, covered_setups())
    def test_injector_reset_replays(self, wl, grid, setup):
        a, x = wl
        plan, policy = setup
        inj = FaultInjector(plan, policy)
        m = Machine(grid=grid, threads_per_locale=2, faults=inj)
        ad = DistSparseMatrix.from_global(a, grid)
        xd = DistSparseVector.from_global(x, grid)
        _, b1 = spmspv_dist(ad, xd, m)
        e1 = inj.event_counts()
        inj.reset()
        _, b2 = spmspv_dist(ad, xd, m)
        assert b1 == b2
        assert e1 == inj.event_counts()


class TestUncoveredFaults:
    @settings(PROFILE, deadline=None)
    @given(matrix_vector_pairs(), st.integers(2, 9), uncovered_setups())
    def test_failed_locale_raises_typed_and_deterministic(self, wl, p, setup):
        a, x = wl
        plan, policy = setup
        grid = LocaleGrid.for_count(p)
        if not any(f < grid.size for f in plan.failed_locales):
            plan = FaultPlan(
                seed=plan.seed,
                transient_rate=plan.transient_rate,
                max_burst=plan.max_burst,
                failed_locales=frozenset({0}),
            )
        ad = DistSparseMatrix.from_global(a, grid)
        xd = DistSparseVector.from_global(x, grid)
        errors = []
        for _ in range(2):
            m = Machine(
                grid=grid,
                threads_per_locale=2,
                faults=FaultInjector(plan, policy),
            )
            with pytest.raises(LocaleFailure) as exc:
                spmspv_dist(ad, xd, m)
            errors.append((exc.value.locale, str(exc.value)))
        assert errors[0] == errors[1]

    def test_retry_exhaustion_raises_retry_exhausted(self):
        a_grid = LocaleGrid(2, 2)
        plan = FaultPlan(seed=1, transient_rate=1.0, max_burst=5)
        policy = RetryPolicy(max_attempts=2)
        assert not plan.covered_by(policy)
        inj = FaultInjector(plan, policy)
        with pytest.raises(RetryExhausted):
            inj.transfer("site", 1.0, src=0, dst=1)
        # RetryExhausted IS a LocaleFailure: one except clause covers both
        assert issubclass(RetryExhausted, LocaleFailure)
        # sanity: the grid helper rejects nothing when nobody failed
        inj.check_grid(a_grid, "site")

    def test_gather_from_failed_locale_raises(self):
        from repro.generators import random_sparse_vector

        grid = LocaleGrid(2, 2)
        x = random_sparse_vector(40, nnz=30, seed=3)
        xd = DistSparseVector.from_global(x, grid)
        inj = FaultInjector(FaultPlan(failed_locales=frozenset({1})))
        with pytest.raises(LocaleFailure):
            xd.gather(faults=inj)
        # without an injector the same gather is fine
        assert xd.gather().nnz == x.nnz


class TestQuietPlan:
    def test_quiet_injector_changes_nothing(self):
        """A fault-free plan must not perturb costs (beyond the explicit
        zero-valued Retries component) or values."""
        from repro.generators import erdos_renyi, random_sparse_vector

        a = erdos_renyi(60, 4, seed=5)
        x = random_sparse_vector(60, nnz=25, seed=6)
        grid = LocaleGrid(2, 3)
        ad = DistSparseMatrix.from_global(a, grid)
        xd = DistSparseVector.from_global(x, grid)
        m0 = Machine(grid=grid, threads_per_locale=2)
        y0, b0 = spmspv_dist(ad, xd, m0)
        plan = FaultPlan.fault_free()
        assert plan.quiet
        m1 = Machine(
            grid=grid, threads_per_locale=2, faults=FaultInjector(plan)
        )
        y1, b1 = spmspv_dist(ad, xd, m1)
        assert np.array_equal(y0.gather().indices, y1.gather().indices)
        assert b1[RETRY_STEP] == 0.0
        assert b0 == b1.restricted(b0)
        assert b0.total == pytest.approx(b1.total)


class _FakeGrid:
    """Minimal grid stand-in for driving the injector directly."""

    def __init__(self, n: int) -> None:
        self._n = n

    def __iter__(self):
        class _Loc:
            def __init__(self, i):
                self.id = i

        return iter([_Loc(i) for i in range(self._n)])


class TestFaultStreamOrderIndependence:
    """Regression: streams used to advance in kernel *call order*, so the
    draws one locale saw depended on how many draws other locales made
    first.  The (site, superstep, locale) keying makes each endpoint's
    sequence a pure function of its position in the computation."""

    PLAN = FaultPlan(
        seed=42, transient_rate=0.35, max_burst=2, drop_rate=0.25, dup_rate=0.25
    )
    POLICY = RetryPolicy(max_attempts=5)

    def _consume(self, order):
        """Draws for four locales at one superstep, visited in ``order``."""
        inj = FaultInjector(self.PLAN, self.POLICY)
        inj.check_grid(_FakeGrid(4), "op")
        out = {}
        for loc in order:
            _, retry = inj.transfer("op.gather", 1e-3, src=0, dst=loc)
            idx, vals, extra = inj.deliver_puts(
                "op.scatter",
                np.arange(24),
                np.arange(24.0),
                src=0,
                dst=loc,
                per_element_seconds=1e-6,
            )
            _, bextra = inj.batched_transfer(
                "op.agg", 3, 1e-4, src=0, dst=loc
            )
            out[loc] = (retry, idx.tobytes(), vals.tobytes(), extra, bextra)
        return out, tuple(sorted((e.kind, e.site, e.locale) for e in inj.events))

    @settings(PROFILE_FAST, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_draws_do_not_depend_on_call_order(self, order):
        assert self._consume(order) == self._consume(list(range(4)))

    def test_superstep_advances_streams(self):
        """Same site+locale at successive supersteps gets fresh streams
        (otherwise every op would replay the first op's faults)."""
        inj = FaultInjector(self.PLAN, self.POLICY)
        seqs = []
        for _ in range(2):
            inj.check_grid(_FakeGrid(2), "op")
            seqs.append(
                [inj.transfer("s", 1e-3, src=0, dst=d)[1] for d in range(2)]
            )
        assert inj.superstep == 2
        # replay from reset reproduces both supersteps exactly
        inj.reset()
        assert inj.superstep == 0
        for step in range(2):
            inj.check_grid(_FakeGrid(2), "op")
            got = [inj.transfer("s", 1e-3, src=0, dst=d)[1] for d in range(2)]
            assert got == seqs[step]
