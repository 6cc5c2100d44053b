"""Golden SHA-256 digests of generator output at fixed seeds.

Every experiment starts from these generators, so their output must not
drift when their internals change (a faster dedup, a different sort).
Each digest covers the shape, every array's dtype and every array's
bytes.  The cases exercise each branch of the samplers: the
oversample-only and top-up paths of ``sample_distinct`` and
``erdos_renyi_triples``, the dense-``k`` shuffle of ``sample_distinct``,
and R-MAT's duplicate merging under both value modes.

The digests were recorded before the sort-based dedup replaced
``np.unique``; a change to any of them is a change to every experiment's
input and needs a deliberate re-recording.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.generators import erdos_renyi, random_sparse_vector, rmat


def digest(shape: tuple[int, ...], *arrays: np.ndarray) -> str:
    h = hashlib.sha256(repr(shape).encode())
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def csr_digest(m) -> str:
    return digest(m.shape, m.rowptr, m.colidx, m.values)


def vector_digest(v) -> str:
    return digest((v.capacity,), v.indices, v.values)


CASES = {
    # d << n: the 5% oversample covers every duplicate
    "er_4096_d8_s7": (
        lambda: csr_digest(erdos_renyi(4096, 8, seed=7)),
        "37d30fe425f37935bb8770a19177c1aff1a307ce93091850eeb50cdc2642a2ca",
    ),
    # p = 1/4: duplicates exceed the oversample, so the top-up loop runs
    "er_64_d16_s3_one": (
        lambda: csr_digest(erdos_renyi(64, 16, seed=3, values="one")),
        "25133463e45f1b8a073348bcc1efcbba1f010a46acf3667e5795b36816642dda",
    ),
    # sparse k: oversample, then drop the surplus with rng.choice
    "vec_100k_nnz10k_s1": (
        lambda: vector_digest(random_sparse_vector(100_000, nnz=10_000, seed=1)),
        "4384b25c000483b1b25fd1844b6d9094f99628eee18551cf7ffee871f8a31ac6",
    ),
    # k = n/2: the 10% oversample falls short and the top-up loop runs
    "vec_1000_nnz500_s5": (
        lambda: vector_digest(random_sparse_vector(1000, nnz=500, seed=5)),
        "a5c5a3ec77db50bc1703a28a7d77f4c3a5e8a17d5de4ec05555dfd386c5a4649",
    ),
    # k > n/2: the dense-case partial shuffle
    "vec_1000_nnz700_s2": (
        lambda: vector_digest(random_sparse_vector(1000, nnz=700, seed=2)),
        "93bd62fd1cc2548300f4caf229e78fa86ffb7ec839ce643d7cb78523c591ffc3",
    ),
    "rmat_10_ef8_s3_uniform": (
        lambda: csr_digest(rmat(10, 8, seed=3, values="uniform")),
        "05f625fae7ea98defdecc6f9751207769608799a299883d66d3061609267ba9e",
    ),
    "rmat_9_ef16_s4_one": (
        lambda: csr_digest(rmat(9, 16, seed=4)),
        "19cf58a45843c70d39a9a12ed53ac83d29ee4e85f13a4575c47e7b833f4930d3",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_output_matches_golden_digest(name):
    build, expected = CASES[name]
    assert build() == expected
