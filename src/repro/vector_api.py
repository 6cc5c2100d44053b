"""High-level GraphBLAS Vector — an object-oriented façade over the ops.

The functional layer (:mod:`repro.ops`) mirrors the paper's Chapel
procedures; this module wraps it in the ergonomic, GraphBLAS-C-like object
API a downstream user expects::

    v = Vector.from_pairs(10, [1, 4], [2.0, 3.0])
    w = v.apply(SQUARE).select(lambda ...)        # chained, non-mutating
    y = v.vxm(a, semiring=MIN_PLUS, mask=~visited)

Masks support complementing with ``~`` via :class:`Mask`.  All methods are
non-mutating and return new vectors unless named ``*_inplace``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .algebra import (
    BinaryOp,
    Monoid,
    PLUS_MONOID,
    PLUS_TIMES,
    Semiring,
    UnaryOp,
)
from .ops.ewise import ewiseadd_vv, ewisemult_vv
from .ops.extract import extract_vector
from .ops.mask import mask_vector, mask_vector_dense
from .sparse.vector import DenseVector, SparseVector

__all__ = ["Vector", "Mask"]


class Mask:
    """A write-mask: a vector (structural) plus a complement flag.

    Build one from any :class:`Vector` via the ``mask``/``~`` syntax::

        m = frontier.as_mask()      # structural mask
        c = ~frontier.as_mask()     # complemented
    """

    def __init__(self, vector: "Vector", complement: bool = False) -> None:
        self.vector = vector
        self.complement = complement

    def __invert__(self) -> "Mask":
        return Mask(self.vector, not self.complement)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        prefix = "~" if self.complement else ""
        return f"{prefix}Mask({self.vector!r})"


class Vector:
    """A GraphBLAS vector backed by :class:`~repro.sparse.vector.SparseVector`.

    Construction::

        Vector.sparse(capacity)                 # empty
        Vector.from_pairs(n, indices, values)   # coordinate build
        Vector.from_dense(array)                # compress
        Vector.wrap(sparse_vector)              # adopt existing storage
    """

    __slots__ = ("_data",)

    def __init__(self, data: SparseVector) -> None:
        if not isinstance(data, SparseVector):
            raise TypeError(f"Vector wraps SparseVector, got {type(data).__name__}")
        self._data = data

    # -- constructors ---------------------------------------------------------

    @classmethod
    def sparse(cls, capacity: int, dtype=np.float64) -> "Vector":
        """An empty vector of the given capacity."""
        return cls(SparseVector.empty(capacity, dtype))

    @classmethod
    def from_pairs(
        cls, capacity: int, indices, values, dup: Monoid = PLUS_MONOID
    ) -> "Vector":
        """Build from (index, value) pairs; duplicates combined by ``dup``."""
        return cls(SparseVector.from_pairs(capacity, indices, values, dup))

    @classmethod
    def from_dense(cls, dense, zero=0) -> "Vector":
        """Compress a dense array (dropping ``zero`` entries)."""
        return cls(SparseVector.from_dense(np.asarray(dense), zero=zero))

    @classmethod
    def wrap(cls, data: SparseVector) -> "Vector":
        """Adopt an existing :class:`SparseVector` without copying."""
        return cls(data)

    # -- storage access ---------------------------------------------------------

    @property
    def data(self) -> SparseVector:
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

    @property
    def indices(self) -> np.ndarray:
        """Stored (sorted) index array."""
        return self._data.indices

    @property
    def values(self) -> np.ndarray:
        """Stored values array."""
        return self._data.values

    def __len__(self) -> int:
        return self.capacity

    def __getitem__(self, i: int):
        return self._data[i]

    def __contains__(self, i: int) -> bool:
        return i in self._data

    def to_dense(self, zero=0) -> np.ndarray:
        """Expand to a dense numpy array."""
        return self._data.to_dense(zero=zero)

    def dup(self) -> "Vector":
        """A deep copy (GraphBLAS ``GrB_Vector_dup``)."""
        return Vector(self._data.copy())

    def clear(self) -> "Vector":
        """An empty vector of the same capacity/dtype."""
        return Vector.sparse(self.capacity, self._data.dtype)

    # -- masks ----------------------------------------------------------------

    def as_mask(self) -> Mask:
        """Use this vector's pattern as a structural mask."""
        return Mask(self)

    def __invert__(self) -> Mask:
        """``~v`` — the complement of this vector's pattern as a mask."""
        return Mask(self, complement=True)

    def masked(self, mask: Mask | "Vector") -> "Vector":
        """Keep entries selected by ``mask`` (complement honoured)."""
        if isinstance(mask, Vector):
            mask = mask.as_mask()
        return Vector(
            mask_vector(self._data, mask.vector._data, complement=mask.complement)
        )

    def masked_dense(self, dense_mask, *, complement: bool = False) -> "Vector":
        """Keep entries where a dense Boolean array is truthy (or falsy)."""
        return Vector(
            mask_vector_dense(self._data, np.asarray(dense_mask), complement=complement)
        )

    # -- elementwise ------------------------------------------------------------

    def apply(self, op: UnaryOp) -> "Vector":
        """New vector with ``op`` applied to every stored value."""
        return Vector(
            SparseVector(self.capacity, self.indices.copy(), np.asarray(op(self.values)))
        )

    def ewise_mult(self, other: "Vector", op: BinaryOp) -> "Vector":
        """Intersection-merge with ``other`` (``GrB_eWiseMult``)."""
        return Vector(ewisemult_vv(self._data, other._data, op))

    def ewise_add(self, other: "Vector", op: BinaryOp | Monoid = PLUS_MONOID) -> "Vector":
        """Union-merge with ``other`` (``GrB_eWiseAdd``)."""
        return Vector(ewiseadd_vv(self._data, other._data, op))

    def __mul__(self, other: "Vector") -> "Vector":
        from .algebra.functional import TIMES

        return self.ewise_mult(other, TIMES)

    def __add__(self, other: "Vector") -> "Vector":
        return self.ewise_add(other, PLUS_MONOID)

    # -- select / extract / assign ----------------------------------------------

    def select(self, keep) -> "Vector":
        """Keep entries where ``keep(values, indices) -> bool array``."""
        flags = np.asarray(keep(self.values, self.indices), dtype=bool)
        return Vector(
            SparseVector(
                self.capacity, self.indices[flags].copy(), self.values[flags].copy()
            )
        )

    def extract(self, indices: Iterable[int]) -> "Vector":
        """``z = v(I)`` (``GrB_extract``)."""
        return Vector(extract_vector(self._data, np.asarray(list(indices), np.int64)))

    def assign(self, other: "Vector") -> "Vector":
        """Matching-domain assign (the paper's restricted Assign): replaces
        this vector's content with ``other``'s; returns self."""
        if other.capacity != self.capacity:
            raise ValueError("assign requires matching capacities")
        self._data.indices = other.indices.copy()
        self._data.values = other.values.copy()
        return self

    # -- linear algebra ------------------------------------------------------------

    def vxm(
        self,
        a,
        *,
        semiring: Semiring = PLUS_TIMES,
        mask: Mask | None = None,
        machine=None,
        mode: str = "auto",
        dispatcher=None,
    ) -> "Vector":
        """``y = v ⊗ A`` — direction-optimized SpMSpV (the paper's kernel).

        ``a`` may be a :class:`~repro.matrix_api.Matrix` or a raw
        :class:`~repro.sparse.csr.CSRMatrix`.  The optional ``machine``
        routes simulated-cost accounting to a ledger.  ``mode`` selects the
        kernel (``"auto"`` — cost-model dispatch among push variants and
        the pull direction — or ``"push"``/``"pull"``/an explicit kernel
        name); pass a long-lived :class:`~repro.ops.dispatch.Dispatcher` to
        reuse its transpose cache across calls.  A structural ``mask`` is
        fused into the kernel, so masked-out entries are never accumulated.
        """
        from .matrix_api import Matrix
        from .ops.dispatch import Dispatcher
        from .runtime.locale import shared_machine

        csr = a.data if isinstance(a, Matrix) else a
        machine = machine or shared_machine(1)
        disp = dispatcher or Dispatcher(machine, mode=mode)
        dense_mask = None
        complement = False
        if mask is not None:
            dense_mask = np.zeros(csr.ncols, dtype=bool)
            dense_mask[mask.vector.indices] = True
            complement = mask.complement
        y, _ = disp.vxm(
            csr,
            self._data,
            semiring=semiring,
            mask=dense_mask,
            complement=complement,
            mode=mode,
        )
        return Vector(y)

    def reduce(self, monoid: Monoid = PLUS_MONOID):
        """Fold all stored values to one scalar."""
        return monoid.reduce(self.values)

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and self.capacity == other.capacity
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):  # pragma: no cover - vectors are mutable
        raise TypeError("Vector is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Vector(capacity={self.capacity}, nnz={self.nnz})"
