"""Sorting lints: keep ``src/`` on the sort-based dedup and coordinate sort.

On numpy 2.x a plain ``np.unique(x)`` (no ``return_*`` flag) takes a
hash-table path that is tens of times slower than one sort on millions
of integer keys, and ``np.lexsort((cols, rows))`` runs two sorts where
one argsort of a combined key does.  The library routes both through
:mod:`repro.sparse.sort` (``sorted_unique`` and ``coo_order``, which
return the identical arrays), so this AST lint fails on

* any ``np.lexsort`` outside ``sparse/sort.py`` (where it remains as
  ``coo_order``'s int64-overflow guard), and
* any ``np.unique(...)`` call without a ``return_index`` /
  ``return_inverse`` / ``return_counts`` keyword (those take numpy's
  sort path already).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to call np.lexsort
LEXSORT_HOME = SRC_DIR / "sparse" / "sort.py"

SRC_MODULES = sorted(SRC_DIR.rglob("*.py"))


def _numpy_attr(call: ast.Call) -> str | None:
    """``"unique"`` for ``np.unique(...)`` / ``numpy.unique(...)``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _violations(path: Path, root: Path = SRC_DIR) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(root)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _numpy_attr(node)
        if name == "lexsort" and path != LEXSORT_HOME:
            out.append(f"{rel}:{node.lineno} np.lexsort (use sparse.sort.coo_order)")
        if name == "unique" and not any(
            (kw.arg or "").startswith("return_") for kw in node.keywords
        ):
            out.append(
                f"{rel}:{node.lineno} plain np.unique (use sparse.sort.sorted_unique)"
            )
    return out


def test_src_modules_exist():
    assert LEXSORT_HOME in SRC_MODULES


def test_no_lexsort_or_plain_unique_in_src():
    violations = [v for path in SRC_MODULES for v in _violations(path)]
    assert not violations, "\n".join(violations)


def test_lint_catches_both_patterns(tmp_path):
    """The lint itself: flags each banned spelling, passes the allowed ones."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b = numpy.lexsort((c, r))\n"
        "u, i = np.unique(x, return_index=True)\n"
        "s = sorted_unique(x)\n"
    )
    found = _violations(bad, root=tmp_path)
    assert [line.split(":")[1].split()[0] for line in found] == ["2", "3"]
