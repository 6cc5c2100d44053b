"""Block index partitioning — Chapel's ``Block`` distribution, 1-D and 2-D.

Paper §II-B: "In 2-D block-distribution, locales are organized in a two
dimensional grid and array indices are partitioned 'evenly' across the
target locales."  The partition rule matches Chapel's: near-equal contiguous
blocks, the first ``n % p`` blocks one element larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..runtime.locale import LocaleGrid
from ..runtime.tasks import chunk_sizes

__all__ = ["Partition1D", "Block1D", "GridBlock1D", "Block2D"]


# Interned partition instances.  Partitions are frozen
# value objects constructed on every kernel call (`GridBlock1D.for_grid`,
# the `dist`/`layout` properties), so interning them makes the per-instance
# bounds cache effective across calls — one cumsum per (n, parts) per
# process instead of one per superstep.
@lru_cache(maxsize=1024)
def _interned_block1d(n: int, num_parts: int) -> "Block1D":
    return Block1D(n, num_parts)


@lru_cache(maxsize=1024)
def _interned_gridblock1d(n: int, rows: int, cols: int) -> "GridBlock1D":
    return GridBlock1D(n, rows, cols)


@lru_cache(maxsize=1024)
def _interned_block2d(nrows: int, ncols: int, rows: int, cols: int) -> "Block2D":
    return Block2D(nrows, ncols, rows, cols)


@dataclass(frozen=True)
class Partition1D:
    """A contiguous partition of ``range(n)`` described by its boundaries.

    Subclasses define :attr:`bounds`; all index arithmetic (ownership
    queries, sorted splits) is shared.
    """

    n: int

    @property
    def bounds(self) -> np.ndarray:  # pragma: no cover - abstract
        """Partition boundaries: part ``k`` owns ``[bounds[k], bounds[k+1])``."""
        raise NotImplementedError

    @property
    def parts(self) -> int:
        """Number of parts in the partition."""
        return self.bounds.size - 1

    def extent(self, part: int) -> tuple[int, int]:
        """Half-open global index range of ``part``."""
        b = self.bounds
        return int(b[part]), int(b[part + 1])

    def size_of(self, part: int) -> int:
        """Number of indices owned by ``part``."""
        lo, hi = self.extent(part)
        return hi - lo

    def owner(self, index: int) -> int:
        """Which part owns global ``index``."""
        if not (0 <= index < self.n):
            raise IndexError(f"index {index} outside [0, {self.n})")
        return int(np.searchsorted(self.bounds, index, side="right") - 1)

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner`."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise IndexError("index outside partitioned range")
        return np.searchsorted(self.bounds, indices, side="right") - 1

    def split_sorted(self, indices: np.ndarray) -> list[np.ndarray]:
        """Split a *sorted* global index array into per-part local views.

        Returns ``parts`` arrays of **local** indices (global minus the
        part's lower bound); cheap ``searchsorted`` cuts, no copies of the
        input ordering.
        """
        indices = np.asarray(indices, dtype=np.int64)
        b = self.bounds
        cuts = np.searchsorted(indices, b)
        return [
            indices[cuts[k] : cuts[k + 1]] - b[k] for k in range(self.parts)
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(n={self.n}, parts={self.parts})"


@dataclass(frozen=True)
class Block1D(Partition1D):
    """Flat block partition of ``range(n)`` into ``num_parts`` near-equal
    contiguous pieces (Chapel's 1-D ``Block``)."""

    num_parts: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.num_parts < 1:
            raise ValueError("parts must be positive")

    @classmethod
    def of(cls, n: int, num_parts: int) -> "Block1D":
        """Interned constructor: the same (n, parts) yields the same
        instance, so its cached bounds survive across kernel calls."""
        return _interned_block1d(int(n), int(num_parts))

    @cached_property
    def bounds(self) -> np.ndarray:
        """Partition boundaries: part ``k`` owns ``[bounds[k], bounds[k+1])``.

        Computed once per (interned) instance and returned read-only —
        recomputing the cumsum per superstep was a measurable slice of the
        distributed kernels' interpreter overhead.
        """
        # cached_property writes through the instance __dict__, which
        # frozen dataclasses still have; read-only because it is shared
        out = np.zeros(self.num_parts + 1, dtype=np.int64)
        np.cumsum(chunk_sizes(self.n, self.num_parts), out=out[1:])
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class GridBlock1D(Partition1D):
    """Hierarchical partition of ``range(n)`` aligned to a 2-D locale grid.

    The index space is first cut into ``grid_rows`` row blocks (matching
    the matrix row distribution), and each row block is then cut into
    ``grid_cols`` parts, one per locale of that grid row.  Locale
    ``(i, j)`` (linear id ``i*pc + j``) owns the j-th piece of row block i.

    This alignment is what makes the paper's SpMSpV gather work: "gather
    parts of x along the processor row" — the blocks owned by grid row
    ``i`` tile exactly the row-block index range of that processor row,
    even when block sizes are uneven.
    """

    grid_rows: int
    grid_cols: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid dimensions must be positive")

    @classmethod
    def of(cls, n: int, rows: int, cols: int) -> "GridBlock1D":
        """Interned constructor (see :meth:`Block1D.of`)."""
        return _interned_gridblock1d(int(n), int(rows), int(cols))

    @classmethod
    def for_grid(cls, n: int, grid: LocaleGrid) -> "GridBlock1D":
        """Build the partition matching a locale grid."""
        return cls.of(n, grid.rows, grid.cols)

    @cached_property
    def bounds(self) -> np.ndarray:
        """Partition boundaries: part ``k`` owns ``[bounds[k], bounds[k+1])``.

        Cached per (interned) instance, read-only, like
        :attr:`Block1D.bounds`: the nested row/column cuts made this the
        single most recomputed array in the distributed kernels.
        """
        row_bounds = Block1D.of(self.n, self.grid_rows).bounds
        pieces = [
            Block1D.of(
                int(row_bounds[i + 1] - row_bounds[i]), self.grid_cols
            ).bounds[1:]
            + row_bounds[i]
            for i in range(self.grid_rows)
        ]
        out = np.concatenate([[0], np.concatenate(pieces)]).astype(np.int64)
        out.flags.writeable = False
        return out

    def row_block(self, i: int) -> tuple[int, int]:
        """Global extent of grid-row ``i``'s combined blocks."""
        return Block1D.of(self.n, self.grid_rows).extent(i)


@dataclass(frozen=True)
class Block2D:
    """2-D block partition of an ``nrows x ncols`` index space over a grid.

    Locale ``(i, j)`` owns the row block ``i`` × column block ``j``
    rectangle; vectors conforming to the rows (columns) are partitioned by
    :attr:`row_blocks` (:attr:`col_blocks`).
    """

    nrows: int
    ncols: int
    grid_rows: int
    grid_cols: int

    @classmethod
    def of(cls, nrows: int, ncols: int, rows: int, cols: int) -> "Block2D":
        """Interned constructor (see :meth:`Block1D.of`)."""
        return _interned_block2d(int(nrows), int(ncols), int(rows), int(cols))

    @classmethod
    def for_grid(cls, nrows: int, ncols: int, grid: LocaleGrid) -> "Block2D":
        """Build the partition matching a locale grid."""
        return cls.of(nrows, ncols, grid.rows, grid.cols)

    @property
    def row_blocks(self) -> Block1D:
        """The row-dimension 1-D partition (interned)."""
        return Block1D.of(self.nrows, self.grid_rows)

    @property
    def col_blocks(self) -> Block1D:
        """The column-dimension 1-D partition (interned)."""
        return Block1D.of(self.ncols, self.grid_cols)

    def extent(self, i: int, j: int) -> tuple[int, int, int, int]:
        """Global ``(rlo, rhi, clo, chi)`` rectangle of grid cell (i, j)."""
        rlo, rhi = self.row_blocks.extent(i)
        clo, chi = self.col_blocks.extent(j)
        return rlo, rhi, clo, chi

    def owner(self, row: int, col: int) -> tuple[int, int]:
        """Grid coordinates owning global element (row, col)."""
        return self.row_blocks.owner(row), self.col_blocks.owner(col)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Block2D({self.nrows}x{self.ncols} over "
            f"{self.grid_rows}x{self.grid_cols})"
        )
