"""Exhaustive semiring coverage: every registered semiring through SpMSpV.

One scalar reference evaluator, every standard semiring, the SPA SpMSpV
kernel — the library's promise that "arbitrary semirings just work" made
executable.
"""

import numpy as np
import pytest

from repro.algebra.semiring import _SEMIRINGS
from repro.generators import erdos_renyi, random_sparse_vector
from repro.ops import spmspv_shm
from repro.runtime import shared_machine
from repro.sparse import CSRMatrix, SparseVector

#: ANY-based semirings pick an unspecified operand; their *pattern* is
#: deterministic but values depend on visit order, so only pattern is
#: compared for them.
PATTERN_ONLY = {"any_second"}


def scalar_reference(a: CSRMatrix, x: SparseVector, semiring):
    """y = x.A evaluated entry by entry with the scalar semiring ops."""
    out: dict[int, float] = {}
    for i, xv in zip(x.indices, x.values):
        cols, vals = a.row(int(i))
        for c, v in zip(cols.tolist(), vals.tolist()):
            prod = semiring.mult(xv, v)
            out[c] = prod if c not in out else semiring.add.op(out[c], prod)
    return out


@pytest.fixture(scope="module")
def workload():
    a = erdos_renyi(60, 5, seed=1)
    x = random_sparse_vector(60, nnz=15, seed=2)
    return a, x


@pytest.mark.parametrize("name", sorted(_SEMIRINGS))
def test_spa_kernel_matches_scalar_reference(name, workload):
    a, x = workload
    semiring = _SEMIRINGS[name]
    y, _ = spmspv_shm(a, x, shared_machine(2), semiring=semiring)
    ref = scalar_reference(a, x, semiring)
    assert set(y.indices.tolist()) == set(ref), name
    if name not in PATTERN_ONLY:
        for i, v in zip(y.indices.tolist(), y.values.tolist()):
            assert v == pytest.approx(ref[i]), f"{name}[{i}]"
