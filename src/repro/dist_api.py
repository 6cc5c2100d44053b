"""High-level distributed API: machine-aware Matrix/Vector wrappers.

The distributed analogue of :mod:`repro.matrix_api` / :mod:`repro.vector_api`:
a :class:`DistMatrix` / :class:`DistVector` pair bound to a
:class:`~repro.runtime.locale.Machine`, so operations run on the simulated
cluster and their simulated times accumulate in the machine's ledger
automatically::

    machine = Machine(grid=LocaleGrid.for_count(16), threads_per_locale=24,
                      ledger=CostLedger())
    A = DistMatrix.distribute(a_csr, machine)
    x = DistVector.distribute(x_sparse, machine)
    y = x.vxm(A)                      # distributed SpMSpV
    print(machine.ledger.by_component())
"""

from __future__ import annotations

import numpy as np

from .algebra import PLUS_TIMES, Semiring, UnaryOp
from .algebra.functional import BinaryOp, IndexUnaryOp
from .algebra.monoid import Monoid, PLUS_MONOID
from .distributed.dist_matrix import DistSparseMatrix
from .distributed.dist_vector import DistDenseVector, DistSparseVector
from .ops.apply import apply1, apply2, apply_agg
from .ops.assign import assign1, assign2, assign_agg
from .ops.ewise import ewisemult_dist
from .ops.extract import extract_matrix
from .ops.mask import mask_dist_vector
from .ops.matrix_dist import (
    reduce_rows_dense_dist,
    row_degrees_dist,
    scale_rows_dist,
    select_dist_matrix,
)
from .ops.reduce import reduce_dist_vector
from .ops.spmspv import spmspv_dist
from .ops.transpose import transpose_dist
from .runtime.locale import Machine
from .sparse.csr import CSRMatrix
from .sparse.vector import SparseVector

__all__ = ["DistMask", "DistMatrix", "DistVector"]

#: Apply/Assign implementation variants: 1 = fine-grained driver loop
#: (Listing 2/4), 2 = SPMD (Listing 3/5), 3 = aggregated remote streams
_APPLY_VARIANTS = {1: apply1, 2: apply2, 3: apply_agg}
_ASSIGN_VARIANTS = {1: assign1, 2: assign2, 3: assign_agg}


class DistMask:
    """A (possibly complemented) structural mask over a :class:`DistVector`.

    The distributed analogue of :class:`repro.vector_api.Mask` — built by
    ``v.as_mask()`` or ``~v`` and passed as the ``mask=`` of
    :meth:`DistVector.vxm`, where it is fused into the masked distributed
    kernel rather than applied as a post-filter.
    """

    __slots__ = ("vector", "complement")

    def __init__(self, vector: "DistVector", complement: bool = False) -> None:
        self.vector = vector
        self.complement = complement

    def __invert__(self) -> "DistMask":
        return DistMask(self.vector, not self.complement)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DistMask(nnz={self.vector.nnz}, complement={self.complement})"


def _resolve_vector_mask(mask) -> tuple[np.ndarray | None, bool]:
    """Normalise a vxm ``mask=`` argument to (dense bool array, complement).

    Accepts ``None``, a dense Boolean array, a :class:`DistVector`
    (structural), or a :class:`DistMask`.
    """
    if mask is None:
        return None, False
    if isinstance(mask, DistMask):
        return mask.vector.dense_pattern(), mask.complement
    if isinstance(mask, DistVector):
        return mask.dense_pattern(), False
    return np.asarray(mask, dtype=bool), False


def _strip_complement(desc):
    """A copy of ``desc`` with its complement bit cleared.

    The callers above fold the descriptor's complement into the mask
    normalisation (XOR with a complemented :class:`DistMask`), so the
    descriptor handed to the dispatcher must not re-apply it.
    """
    if desc is None or not getattr(desc, "complement", False):
        return desc
    from .exec.descriptor import Descriptor

    return Descriptor(
        replace=bool(getattr(desc, "replace", False)),
        transpose_a=bool(getattr(desc, "transpose_a", False)),
        transpose_b=bool(getattr(desc, "transpose_b", False)),
    )


class DistVector:
    """A block-distributed sparse vector bound to a simulated machine."""

    __slots__ = ("_data", "machine")

    def __init__(self, data: DistSparseVector, machine: Machine) -> None:
        if data.grid.size != machine.num_locales:
            raise ValueError(
                "vector's grid does not match the machine's locale count"
            )
        self._data = data
        self.machine = machine

    @classmethod
    def distribute(cls, x: SparseVector, machine: Machine) -> "DistVector":
        """Block-distribute a global sparse vector over the machine's grid."""
        return cls(DistSparseVector.from_global(x, machine.grid), machine)

    @classmethod
    def sparse(cls, capacity: int, machine: Machine, dtype=np.float64) -> "DistVector":
        """An empty distributed vector."""
        return cls(DistSparseVector.empty(capacity, machine.grid, dtype), machine)

    # -- storage ---------------------------------------------------------------

    @property
    def data(self) -> DistSparseVector:
        """The underlying storage (shared, not copied)."""
        return self._data

    @property
    def capacity(self) -> int:
        """Conceptual dimension of the vector."""
        return self._data.capacity

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self._data.nnz

    def gather(self) -> SparseVector:
        """Collect the global vector (verification / output path).

        Runs under the machine's fault injector: data owned by a failed
        locale raises :class:`~repro.runtime.faults.LocaleFailure`.
        """
        return self._data.gather(faults=self.machine.faults)

    def dup(self) -> "DistVector":
        """A deep copy."""
        return DistVector(self._data.copy(), self.machine)

    # -- operations ---------------------------------------------------------------

    def apply(self, op: UnaryOp, *, variant: int = 2) -> "DistVector":
        """Paper Apply (variant 1 = fine-grained forall, 2 = SPMD,
        3 = driver-initiated with aggregated/overlapped remote streams).

        Non-mutating: operates on a copy.
        """
        out = self._data.copy()
        _APPLY_VARIANTS[variant](out, op, self.machine)
        return DistVector(out, self.machine)

    def assign_from(self, src: "DistVector", *, variant: int = 2) -> "DistVector":
        """Paper Assign into this vector (matching distribution); returns
        self.  ``variant`` as in :meth:`apply`: 1 fine-grained, 2 SPMD,
        3 aggregated streams."""
        _ASSIGN_VARIANTS[variant](self._data, src._data, self.machine)
        return self

    def ewise_mult_dense(
        self, dense: DistDenseVector, op: BinaryOp, *, method: str = "auto"
    ) -> "DistVector":
        """Paper eWiseMult against an aligned distributed dense vector.

        ``method`` picks the index-collection strategy (``"atomic"`` /
        ``"prefix"``); ``"auto"`` lets the cost model decide per call.
        """
        if method == "auto":
            from .ops.dispatch import Dispatcher

            out, _ = Dispatcher(self.machine).ewisemult_dist(
                self._data, dense, op
            )
        else:
            out, _ = ewisemult_dist(self._data, dense, op, self.machine, method=method)
        return DistVector(out, self.machine)

    def masked(self, mask: "DistVector", *, complement: bool = False) -> "DistVector":
        """Structural mask against another distributed vector."""
        return DistVector(
            mask_dist_vector(self._data, mask._data, complement=complement),
            self.machine,
        )

    def as_mask(self, *, complement: bool = False) -> "DistMask":
        """This vector's structure as a (possibly complemented) mask."""
        return DistMask(self, complement)

    def __invert__(self) -> "DistMask":
        return DistMask(self, True)

    def dense_pattern(self) -> np.ndarray:
        """The structure as a dense Boolean array over the index space
        (the shape the fused masked kernels consume)."""
        m = np.zeros(self.capacity, dtype=bool)
        bounds = self._data.dist.bounds
        for k, blk in enumerate(self._data.blocks):
            m[bounds[k] + blk.indices] = True
        return m

    def vxm(
        self,
        a: "DistMatrix",
        *,
        semiring: Semiring = PLUS_TIMES,
        mask=None,
        accum=None,
        out: "DistVector | None" = None,
        desc=None,
        gather_mode: str = "auto",
        scatter_mode: str = "auto",
        sort: str = "auto",
        dispatcher=None,
    ) -> "DistVector":
        """Distributed SpMSpV ``out⟨mask⟩ ⊕= x ⊗ A`` (the paper's Listing 8).

        Each ``"auto"`` axis (gather, scatter, sort) is resolved per call
        by the machine's cost model via
        :class:`~repro.ops.dispatch.Dispatcher`, and the decision is
        recorded as a ``dispatch[vxm_dist]`` span in the ledger; explicit
        ``"fine"``/``"bulk"``/``"agg"``/``"merge"``/``"radix"`` force a
        fixed variant (``"agg"`` is the aggregated exchange of
        ``docs/aggregation.md``).

        ``mask`` may be a dense Boolean array, a :class:`DistVector`
        (structural), or a :class:`DistMask` (``~v`` for the complement);
        it is fused *into* the distributed kernel — each locale drops
        masked-out products during local accumulation, rather than
        post-filtering the assembled result.  ``accum``/``out``/``desc``
        run the GraphBLAS output step blockwise after the kernel.
        """
        from .ops.dispatch import Dispatcher

        dense_mask, complement = _resolve_vector_mask(mask)
        complement ^= bool(getattr(desc, "complement", False))
        disp = dispatcher or Dispatcher(self.machine)
        y, _ = disp.vxm_dist(
            a._data,
            self._data,
            semiring=semiring,
            mask=dense_mask,
            complement=complement,
            accum=accum,
            out=None if out is None else out._data,
            desc=_strip_complement(desc),
            gather_mode=gather_mode,
            scatter_mode=scatter_mode,
            sort=sort,
        )
        return DistVector(y, self.machine)

    def reduce(self, monoid=None):
        """Cross-locale reduction to a scalar."""
        from .algebra.monoid import PLUS_MONOID

        return reduce_dist_vector(self._data, monoid or PLUS_MONOID)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DistVector(capacity={self.capacity}, nnz={self.nnz}, p={self.machine.num_locales})"


class DistMatrix:
    """A 2-D block-distributed sparse matrix bound to a simulated machine."""

    __slots__ = ("_data", "machine")

    def __init__(self, data: DistSparseMatrix, machine: Machine) -> None:
        if data.grid.size != machine.num_locales:
            raise ValueError(
                "matrix's grid does not match the machine's locale count"
            )
        self._data = data
        self.machine = machine

    @classmethod
    def distribute(cls, a: CSRMatrix, machine: Machine) -> "DistMatrix":
        """2-D block-distribute a global CSR over the machine's grid."""
        return cls(DistSparseMatrix.from_global(a, machine.grid), machine)

    # -- storage -----------------------------------------------------------------

    @property
    def data(self) -> DistSparseMatrix:
        """The underlying storage (shared, not copied)."""
        return self._data

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return self._data.shape

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self._data.nnz

    def gather(self) -> CSRMatrix:
        """Collect the global matrix (fault-aware, like
        :meth:`DistVector.gather`)."""
        return self._data.gather(faults=self.machine.faults)

    # -- operations ----------------------------------------------------------------

    def apply(self, op: UnaryOp, *, variant: int = 2) -> "DistMatrix":
        """Paper Apply over a distributed matrix (non-mutating); ``variant``
        as in :meth:`DistVector.apply`."""
        blocks = [blk.copy() for blk in self._data.blocks]
        out = DistSparseMatrix(self._data.nrows, self._data.ncols, self._data.grid, blocks)
        _APPLY_VARIANTS[variant](out, op, self.machine)
        return DistMatrix(out, self.machine)

    def mxm(
        self,
        other: "DistMatrix",
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: "DistMatrix | None" = None,
        complement: bool = False,
        accum=None,
        out: "DistMatrix | None" = None,
        desc=None,
        mask_mode: str = "fused",
        variant: str = "auto",
        layers: int | None = None,
        dispatcher=None,
    ) -> "DistMatrix":
        """Distributed SpGEMM ``out⟨mask⟩ ⊕= A ⊗ B`` on any grid.

        Every call routes through the dispatcher's schedule axis
        (``docs/spgemm.md``): square grids pick among 2-D and 3-D×``c``
        sparse SUMMA, non-square grids take the gathered fallback —
        uniformly, so ``mask``/``accum``/``desc`` run the same
        :func:`~repro.exec.descriptor.merge_dist_matrix` output step
        bit-for-bit on every path.  ``variant``
        (``"2d"``/``"3d"``/``"gathered"``) and ``layers`` force the
        schedule instead of costing it; ``mask_mode="post"`` disables
        the fused per-stage mask prune (bit-identical, dearer).

        ``dispatcher`` reuses a caller-held :class:`~repro.ops.dispatch.
        Dispatcher` so its decision log spans calls (the exec frontend
        passes its own).
        """
        from .ops.dispatch import Dispatcher

        if dispatcher is None:
            dispatcher = Dispatcher(self.machine)
        c, _ = dispatcher.mxm_dist(
            self._data,
            other._data,
            semiring=semiring,
            mask=None if mask is None else mask._data,
            complement=complement,
            mask_mode=mask_mode,
            variant=variant,
            layers=layers,
            accum=accum,
            out=None if out is None else out._data,
            desc=desc,
        )
        return DistMatrix(c, self.machine)

    def __matmul__(self, other: "DistMatrix") -> "DistMatrix":
        return self.mxm(other)

    @property
    def T(self) -> "DistMatrix":
        """Distributed transpose: blockwise exchange on square grids,
        gather/redistribute fallback elsewhere."""
        t, _ = transpose_dist(self._data, self.machine)
        return DistMatrix(t, self.machine)

    # -- structure ----------------------------------------------------------------

    def select(self, op: IndexUnaryOp, thunk=None) -> "DistMatrix":
        """``GrB_select`` blockwise, with indices rebased to global
        coordinates on each locale."""
        c, _ = select_dist_matrix(self._data, op, self.machine, thunk)
        return DistMatrix(c, self.machine)

    def tril(self, k: int = 0) -> "DistMatrix":
        """Lower-triangular part (``col <= row + k``)."""
        from .algebra.functional import TRIL

        return self.select(TRIL, k)

    def triu(self, k: int = 0) -> "DistMatrix":
        """Upper-triangular part (``col >= row + k``)."""
        from .algebra.functional import TRIU

        return self.select(TRIU, k)

    def extract(self, rows, cols) -> "DistMatrix":
        """``C = A(I, J)`` — gather, extract, redistribute (general index
        extraction has no aligned blockwise form)."""
        sub = extract_matrix(
            self.gather(),
            np.asarray(list(rows), np.int64),
            np.asarray(list(cols), np.int64),
        )
        return DistMatrix(
            DistSparseMatrix.from_global(sub, self._data.grid), self.machine
        )

    def scale_rows(self, factors: np.ndarray) -> "DistMatrix":
        """A new matrix with row ``i`` scaled by ``factors[i]``
        (``factors`` replicated)."""
        c, _ = scale_rows_dist(self._data, factors, self.machine)
        return DistMatrix(c, self.machine)

    # -- reductions ---------------------------------------------------------------

    def row_degrees(self) -> np.ndarray:
        """Global stored-entries-per-row counts."""
        return row_degrees_dist(self._data, self.machine)

    def reduce_rows_dense(self, monoid: Monoid = PLUS_MONOID) -> np.ndarray:
        """Per-row monoid reduction as a dense global array."""
        return reduce_rows_dense_dist(self._data, self.machine, monoid)

    def reduce(self, monoid: Monoid = PLUS_MONOID):
        """Reduce every stored value to one scalar (blockwise partials
        combined with the monoid)."""
        parts = [
            monoid.reduce(blk.values)
            for blk in self._data.blocks
            if blk.nnz
        ]
        if not parts:
            return monoid.identity
        acc = parts[0]
        for p in parts[1:]:
            acc = monoid.op(acc, p)
        return acc

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistMatrix({self.shape[0]}x{self.shape[1]}, nnz={self.nnz}, "
            f"p={self.machine.num_locales})"
        )
