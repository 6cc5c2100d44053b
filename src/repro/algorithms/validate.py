"""Input checks shared by the traversal algorithms."""

from __future__ import annotations

import numpy as np

__all__ = ["check_sources"]


def check_sources(n: int, sources) -> None:
    """Raise ``IndexError`` unless every source vertex lies in ``[0, n)``.

    ``sources`` is one vertex id or an array of them.
    """
    s = np.asarray(sources, dtype=np.int64)
    bad = s[(s < 0) | (s >= n)]
    if bad.size:
        raise IndexError(f"source {bad[0]} outside [0, {n})")
