"""Unit tests for the cost-model dispatch engine (repro.ops.dispatch)."""

import gc
import weakref

import numpy as np
import pytest

from repro.algebra.functional import MAX, OFFDIAG
from repro.algebra.semiring import MIN_FIRST, PLUS_TIMES
from repro.algorithms import ktruss, triangles_per_vertex
from repro.distributed import DistSparseMatrix, DistSparseVector
from repro.exec import ShmBackend
from repro.generators import erdos_renyi
from repro.matrix_api import Matrix
from repro.ops import ewiseadd_mm
from repro.ops.dispatch import PULL, PUSH_MERGE, PUSH_RADIX, Dispatcher
from repro.ops.spmspv import spmspv_shm
from repro.runtime import CostLedger, LocaleGrid, Machine, Trace, shared_machine
from repro.runtime.epoch import bump_epoch
from repro.sparse.csr import CSRMatrix
from repro.sparse.vector import SparseVector
from repro.vector_api import Vector


def _workload(n=200, d=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), d)
    cols = rng.integers(0, n, n * d)
    a = CSRMatrix.from_triples(n, n, rows, cols, np.ones(n * d))
    k = max(n // 10, 1)
    idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    return a, SparseVector(n, idx, np.ones(k))


def _machine():
    return Machine(
        grid=LocaleGrid.for_count(1), threads_per_locale=4, ledger=CostLedger()
    )


class TestDecisions:
    def test_every_vxm_records_one_decision(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x)
        disp.vxm(a, x, mode="pull")
        assert len(disp.decisions) == 2
        assert disp.decisions[0].forced is False
        assert disp.decisions[1].forced is True
        assert disp.decisions[1].chosen == PULL

    def test_estimates_cover_all_candidates(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        est = disp.estimate_vxm(a, x)
        assert set(est) == {"push[merge]", "push[radix]", "pull"}
        assert all(v > 0 for v in est.values())
        expected = {
            2: {"gathered", "2d[bulk]", "3d[c=4][bulk]"},
            3: {"gathered", "2d[bulk]", "3d[c=9][bulk]"},
            4: {"gathered", "2d[bulk]", "3d[c=4][bulk]", "3d[c=16][bulk]"},
        }
        for q, names in expected.items():
            grid = LocaleGrid(q, q)
            ad = DistSparseMatrix.from_global(a, grid)
            est = Dispatcher(Machine(grid=grid)).estimate_mxm_dist(ad, ad)
            assert set(est) == names, q

    def test_dispatch_charge_prices_every_candidate(self):
        """A decision bills ``compare_cost`` per candidate plus one
        ``stream_cost`` as its ``dispatch[op]`` row."""
        a, x = _workload(n=120)
        machine = _machine()
        Dispatcher(machine).vxm(a, x)
        grid = LocaleGrid(2, 2)
        dist = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
        ad = DistSparseMatrix.from_global(a, grid)
        Dispatcher(dist).mxm_dist(ad, ad)
        for m, op, candidates in ((machine, "vxm", 3), (dist, "mxm_dist", 3)):
            cfg = m.config
            (row,) = [e for e in m.ledger.entries if e[0] == f"dispatch[{op}]"]
            want = cfg.compare_cost * candidates + cfg.stream_cost
            assert row[1].total == want, op

    def test_auto_picks_the_argmin(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x)
        d = disp.decisions[0]
        assert d.estimates[d.chosen] == min(d.estimates.values())

    def test_decisions_appear_as_trace_spans(self):
        a, x = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        disp.vxm(a, x)
        disp.vxm(a, x, mode="pull")
        labels = {(s.label, s.component) for s in Trace(machine.ledger).spans}
        chosen0 = disp.decisions[0].chosen
        assert ("dispatch[vxm]", chosen0) in labels
        assert ("dispatch[vxm]", PULL) in labels

    def test_stats_counts_directions(self):
        a, x = _workload()
        disp = Dispatcher(_machine())
        disp.vxm(a, x, mode="push")
        disp.vxm(a, x, mode="pull")
        disp.vxm(a, x, mode="pull")
        s = disp.stats()
        assert s["push"] == 1
        assert s["pull"] == 2


class TestModes:
    def test_explicit_kernel_names(self):
        a, x = _workload()
        m = _machine()
        want, _ = spmspv_shm(a, x, shared_machine(1))
        for mode in (PUSH_MERGE, PUSH_RADIX, PULL):
            got, _ = Dispatcher(m).vxm(a, x, mode=mode)
            assert np.array_equal(got.indices, want.indices), mode
            assert np.array_equal(got.values, want.values), mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            Dispatcher(_machine(), mode="sideways")
        a, x = _workload()
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            Dispatcher(_machine()).vxm(a, x, mode="sideways")


class TestThreshold:
    def test_threshold_flips_direction_at_density(self):
        a, x = _workload()
        density = x.nnz / a.nrows
        lo = Dispatcher(_machine(), pull_threshold=density / 2)
        hi = Dispatcher(_machine(), pull_threshold=density * 2)
        lo.vxm(a, x)
        hi.vxm(a, x)
        assert lo.decisions[0].direction == "pull"
        assert hi.decisions[0].direction == "push"
        assert lo.decisions[0].forced and hi.decisions[0].forced


class TestTransposeCache:
    def test_transpose_built_once_and_charged(self):
        a, x = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        at1 = disp.prepare_pull(a)
        at2 = disp.prepare_pull(a)
        assert at1 is at2
        builds = [
            e for e in machine.ledger.entries if e[0] == "dispatch[transpose]"
        ]
        assert len(builds) == 1

    def test_transpose_of_charges_nothing(self):
        a, _ = _workload()
        machine = _machine()
        disp = Dispatcher(machine)
        at = disp.transpose_of(a)
        assert disp.transpose_of(a) is at
        assert disp.transpose_of(at) is a  # both orientations cached
        assert disp.prepare_pull(a) is at  # a warm pull bills no build
        assert not any(
            e[0] == "dispatch[transpose]" for e in machine.ledger.entries
        )

    def test_transpose_cache_respects_epoch(self):
        """An in-place mutation (a streaming delta batch bumps the epoch)
        rebuilds the cached transpose instead of replaying the stale one."""
        a, _ = _workload()
        disp = Dispatcher(_machine())
        at0 = disp.transpose_of(a)
        assert disp.transpose_of(a) is at0  # warm
        bump_epoch(a)
        stale = weakref.ref(at0)
        del at0
        at1 = disp.transpose_of(a)
        assert stale() is None  # rebuilt; the stale pair is not kept alive
        assert disp.transpose_of(at1) is a
        bump_epoch(at1)  # mutating the other orientation invalidates too
        assert disp.transpose_of(a) is not at1

    def test_cache_drops_pairs_of_dead_matrices(self):
        """Every k-truss round transposes a fresh matrix; once the run's
        matrices are garbage, no cache entry is keyed on one of them."""
        g = erdos_renyi(300, 8, seed=5, values="one")
        g = ewiseadd_mm(g, g.transposed(), MAX).select(OFFDIAG)
        b = ShmBackend()
        held = b.matrix(g)
        out = ktruss(held, 4, backend=b)
        gc.collect()
        cache = b.dispatcher._transposes
        live = {id(held.data), id(out.data)}
        live |= {id(b.dispatcher.transpose_of(m)) for m in (held.data, out.data)}
        assert set(cache) <= live

    def test_pair_dies_with_its_source(self):
        a, _ = _workload()
        disp = Dispatcher(_machine())
        at = disp.transpose_of(a)
        gc.collect()
        assert disp.transpose_of(at) is a  # the weak reverse entry holds
        del a
        gc.collect()
        assert id(at) not in disp._transposes

    @pytest.mark.parametrize("call", ["mxv", "triangles_per_vertex"])
    def test_short_lived_dispatchers_release_their_transposes(self, call):
        """A fresh dispatcher per call (``Matrix.mxv`` on a sparse vector,
        an algorithm without ``backend=``) must not leave its ``Aᵀ``
        pinned to the caller's matrix once the call returns."""
        g = erdos_renyi(200, 4, seed=3, values="one")
        held = Matrix.wrap(g)
        x = Vector.from_pairs(g.ncols, [0, 5, 9], [1.0, 1.0, 1.0])

        def live_after(k):
            for _ in range(k):
                held.mxv(x) if call == "mxv" else triangles_per_vertex(g)
            gc.collect()
            return sum(isinstance(o, CSRMatrix) for o in gc.get_objects())

        assert live_after(5) == live_after(1)

    def test_cached_transpose_removes_build_from_estimate(self):
        a, x = _workload()
        cold = Dispatcher(_machine()).estimate_vxm(a, x)[PULL]
        disp = Dispatcher(_machine())
        disp.prepare_pull(a)
        warm = disp.estimate_vxm(a, x)[PULL]
        assert warm < cold

    def test_amortized_flag_removes_build_from_estimate(self):
        a, x = _workload()
        cold = Dispatcher(_machine()).estimate_vxm(a, x)[PULL]
        amort = Dispatcher(
            _machine(), assume_transpose_amortized=True
        ).estimate_vxm(a, x)[PULL]
        assert amort < cold


class TestDistDispatch:
    def test_auto_axes_resolve_and_record(self):
        a, x = _workload(n=120)
        grid = LocaleGrid.for_count(4)
        machine = Machine(grid=grid, threads_per_locale=2, ledger=CostLedger())
        disp = Dispatcher(machine)
        y, _ = disp.vxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
        )
        want, _ = spmspv_shm(a, x, shared_machine(1))
        got = y.gather()
        assert np.array_equal(got.indices, want.indices)
        (d,) = disp.decisions
        assert d.op == "vxm_dist"
        g, s, so = d.chosen.split("+")
        assert g.split(":")[1] in ("fine", "bulk")
        assert s.split(":")[1] in ("fine", "bulk")
        assert so.split(":")[1] in ("merge", "radix")

    def test_nonsquare_output_partition(self):
        # regression: the output space is the COLUMN space; non-square
        # inputs used to scatter into x's row-space partition
        a = CSRMatrix.from_triples(
            3, 5, [0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0]
        )
        x = SparseVector(3, np.array([0], dtype=np.int64), np.array([1.0]))
        grid = LocaleGrid.for_count(2)
        machine = Machine(grid=grid, threads_per_locale=1, ledger=CostLedger())
        y, _ = Dispatcher(machine).vxm_dist(
            DistSparseMatrix.from_global(a, grid),
            DistSparseVector.from_global(x, grid),
        )
        want, _ = spmspv_shm(a, x, shared_machine(1))
        got = y.gather()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)


class TestBFSIntegration:
    def test_bfs_dispatch_matches_plain_bfs(self):
        from repro.algorithms import bfs_levels, bfs_levels_dispatch

        a, _ = _workload(n=300, d=6)
        ref = bfs_levels(a, 0)
        stats = {}
        got = bfs_levels_dispatch(a, 0, stats=stats)
        assert np.array_equal(ref, got)
        assert stats.get("push", 0) + stats.get("pull", 0) > 0

    def test_bfs_threshold_forces_pull_on_dense_frontiers(self):
        from repro.algorithms import bfs_levels, bfs_levels_dispatch

        a, _ = _workload(n=300, d=6)
        ref = bfs_levels(a, 0)
        stats = {}
        got = bfs_levels_dispatch(a, 0, pull_threshold=0.01, stats=stats)
        assert np.array_equal(ref, got)
        assert stats.get("pull", 0) >= 1
