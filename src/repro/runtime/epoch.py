"""Mutation epochs — the cache-invalidation currency of streaming updates.

The dispatcher's transpose cache and the service's result cache key on
*operand identity*: the same matrix object is assumed to hold the same
data.  Batch-static workloads satisfy that by construction
— storage is never mutated after build — but the streaming engine
(:mod:`repro.streaming`) applies delta batches **in place**, so identity
anchors alone would happily replay a materialised ``Aᵀ`` (or a query
result) computed from data that no longer exists.

This module is the fix's single primitive: every mutable storage object
(:class:`~repro.sparse.csr.CSRMatrix`,
:class:`~repro.distributed.dist_matrix.DistSparseMatrix`, …) carries a
monotonically increasing **mutation epoch**, 0 until the first in-place
mutation.  Anything that mutates storage calls :func:`bump_epoch`;
anything that caches derived state includes :func:`epoch_of` in its key
(or stores it next to the identity anchor) — a mutated operand is then a
guaranteed cache miss, never a stale hit.

The epoch lives on the *storage* object, not the handle: the OO façades
(:class:`~repro.matrix_api.Matrix`, :class:`~repro.dist_api.DistMatrix`)
use ``__slots__`` and share storage freely, so the storage is the one
place a mutation is observable from every alias.
"""

from __future__ import annotations

__all__ = ["EPOCH_ATTR", "epoch_of", "bump_epoch"]

#: attribute carrying the mutation counter on storage objects.
EPOCH_ATTR = "_mutation_epoch"


def epoch_of(obj) -> int:
    """The mutation epoch of ``obj`` (0 for never-mutated objects)."""
    return getattr(obj, EPOCH_ATTR, 0)


def bump_epoch(obj) -> int:
    """Mark one in-place mutation of ``obj``; returns the new epoch.

    Every cached plan or derived matrix keyed on the old epoch becomes
    unreachable the moment this returns.
    """
    epoch = epoch_of(obj) + 1
    setattr(obj, EPOCH_ATTR, epoch)
    return epoch
