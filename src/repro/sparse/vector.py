"""Sparse and dense vectors.

Paper §II-A: "In Chapel, the indices of sparse vectors are kept sorted and
stored in an array.  This format is space efficient, requiring only O(nnz)
space."  :class:`SparseVector` mirrors that representation exactly: a sorted
``indices`` array plus a parallel ``values`` array, with a *capacity* (the
conceptual dimension ``n``); the density ``f = nnz/capacity`` is the paper's
workload parameter.

:class:`DenseVector` is a thin wrapper over a numpy array that carries the
GraphBLAS-facing API (apply, ewise, reduce) so operations can be written
generically over either kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algebra.functional import BinaryOp, UnaryOp
from ..algebra.monoid import Monoid, PLUS_MONOID
from .sort import stable_argsort_bounded

__all__ = ["SparseVector", "DenseVector"]


@dataclass
class SparseVector:
    """A sparse vector: sorted index array + parallel value array.

    Invariants (checked by :meth:`check`):

    * ``indices`` strictly increasing, within ``[0, capacity)``;
    * ``values.size == indices.size``.
    """

    capacity: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.indices.size != self.values.size:
            raise ValueError(
                f"indices ({self.indices.size}) and values ({self.values.size}) "
                "length mismatch"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, capacity: int, dtype=np.float64) -> "SparseVector":
        """A vector with no stored entries."""
        return cls(capacity, np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype))

    @classmethod
    def from_pairs(
        cls,
        capacity: int,
        indices,
        values,
        dup: Monoid = PLUS_MONOID,
    ) -> "SparseVector":
        """Build from possibly-unsorted, possibly-duplicated (index, value) pairs.

        Duplicates are combined with the ``dup`` monoid, matching GraphBLAS
        ``GrB_Vector_build`` semantics.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if indices.size:
            if indices.min() < 0 or indices.max() >= capacity:
                raise ValueError("index out of bounds for capacity")
        order = stable_argsort_bounded(indices, capacity)
        indices, values = indices[order], values[order]
        if indices.size:
            is_first = np.empty(indices.size, dtype=bool)
            is_first[0] = True
            is_first[1:] = indices[1:] != indices[:-1]
            if not is_first.all():
                starts = np.flatnonzero(is_first)
                # starts is strictly increasing and in range by construction,
                # so the dense segmented reduce is bit-identical to the
                # general one (which handles empty/trailing segments)
                values = np.asarray(
                    dup.reduceat_dense(values, starts), dtype=values.dtype
                )
                indices = indices[starts]
        return cls(capacity, indices, values)

    @classmethod
    def from_dense(cls, dense, zero=0) -> "SparseVector":
        """Compress a dense array, dropping entries equal to ``zero``.

        ``zero`` may be ``None`` to keep every position (an "iso-full"
        sparse vector).
        """
        dense = np.asarray(dense)
        if zero is None:
            idx = np.arange(dense.size, dtype=np.int64)
        elif isinstance(zero, float) and np.isnan(zero):
            idx = np.flatnonzero(~np.isnan(dense))
        else:
            idx = np.flatnonzero(dense != zero)
        return cls(dense.size, idx, dense[idx].copy())

    # -- basic queries -------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries (paper's ``nnz(x)``)."""
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """``f = nnz(x)/capacity(x)`` (paper §II-A)."""
        return self.nnz / self.capacity if self.capacity else 0.0

    @property
    def dtype(self):
        """Value dtype."""
        return self.values.dtype

    def __len__(self) -> int:
        return self.capacity

    def __getitem__(self, i: int):
        """Value at position ``i`` or ``None`` if unstored.

        Binary search over the sorted index array — the O(log nnz) access
        the paper blames for Assign1's slowness (§III-B).
        """
        pos = int(np.searchsorted(self.indices, i))
        if pos < self.nnz and self.indices[pos] == i:
            return self.values[pos]
        return None

    def get(self, i: int, default=None):
        """Like :meth:`__getitem__` with an explicit default."""
        v = self[i]
        return default if v is None else v

    def __contains__(self, i: int) -> bool:
        pos = int(np.searchsorted(self.indices, i))
        return pos < self.nnz and self.indices[pos] == i

    # -- conversions ---------------------------------------------------------

    def to_dense(self, zero=0) -> np.ndarray:
        """Expand into a dense numpy array with ``zero`` at unstored positions."""
        if self.values.dtype == bool and zero == 0:
            out = np.zeros(self.capacity, dtype=bool)
        else:
            out = np.full(self.capacity, zero, dtype=self.values.dtype)
        out[self.indices] = self.values
        return out

    def copy(self) -> "SparseVector":
        """A deep copy."""
        return SparseVector(self.capacity, self.indices.copy(), self.values.copy())

    # -- structural checks ----------------------------------------------------

    def check(self) -> None:
        """Raise ``AssertionError`` if structural invariants are violated."""
        assert self.indices.size == self.values.size, "length mismatch"
        if self.indices.size:
            assert self.indices.min() >= 0, "negative index"
            assert self.indices.max() < self.capacity, "index beyond capacity"
            assert np.all(np.diff(self.indices) > 0), "indices not strictly sorted"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SparseVector(capacity={self.capacity}, nnz={self.nnz}, "
            f"dtype={self.values.dtype})"
        )


@dataclass
class DenseVector:
    """A dense vector with the same operation surface as :class:`SparseVector`."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)

    @classmethod
    def full(cls, capacity: int, fill, dtype=None) -> "DenseVector":
        """A constant vector of length ``capacity``."""
        return cls(np.full(capacity, fill, dtype=dtype))

    @classmethod
    def zeros(cls, capacity: int, dtype=np.float64) -> "DenseVector":
        """An all-zero dense vector."""
        return cls(np.zeros(capacity, dtype=dtype))

    @property
    def capacity(self) -> int:
        """Conceptual dimension of the vector."""
        return int(self.values.size)

    @property
    def nnz(self) -> int:
        """Dense vectors store every position."""
        return self.capacity

    @property
    def dtype(self):
        """Value dtype."""
        return self.values.dtype

    def __len__(self) -> int:
        return self.capacity

    def __getitem__(self, i):
        return self.values[i]

    def __setitem__(self, i, v) -> None:
        self.values[i] = v

    def to_dense(self, zero=0) -> np.ndarray:
        """Expand to a dense numpy array."""
        return self.values.copy()

    def to_sparse(self, zero=0) -> SparseVector:
        """Compress, dropping ``zero`` entries."""
        return SparseVector.from_dense(self.values, zero=zero)

    def copy(self) -> "DenseVector":
        """A deep copy."""
        return DenseVector(self.values.copy())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DenseVector(capacity={self.capacity}, dtype={self.values.dtype})"
