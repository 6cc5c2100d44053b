"""Sorting lints: keep ``src/`` on the library's sort primitives.

On numpy 2.x a plain ``np.unique(x)`` (no ``return_*`` flag) takes a
hash-table path that is tens of times slower than one sort on millions
of integer keys, ``np.lexsort((cols, rows))`` runs two sorts where one
argsort of a combined key does, and a stable argsort of keys wider than
16 bits is a timsort, ~10x slower on random keys than the radix sort
numpy keeps for 8- and 16-bit keys.  The library routes all three
through :mod:`repro.sparse.sort` (``sorted_unique``, ``coo_order`` and
``stable_argsort_bounded``, which return the identical arrays), so this
AST lint fails on

* any ``np.lexsort`` outside ``sparse/sort.py`` (where it remains as
  ``coo_order``'s int64-overflow guard),
* any ``np.unique(...)`` call without a ``return_index`` /
  ``return_inverse`` / ``return_counts`` keyword (those take numpy's
  sort path already), and
* any ``argsort(..., kind="stable")`` (or its alias ``"mergesort"``)
  outside ``sparse/sort.py``, except in the functions of
  :data:`RUN_MERGES`: there the keys arrive as a few presorted runs,
  which timsort merges in near-linear time and a radix sort would
  re-sort from scratch.  Each entry was kept by replaying its recorded
  inputs through both sorts (``docs/performance.md``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to call np.lexsort and the stable argsort freely
SORT_HOME = SRC_DIR / "sparse" / "sort.py"

#: (module, function) -> why its stable argsort's keys are presorted runs
RUN_MERGES = {
    ("ops/ewise.py", "ewiseadd_vv"): "two sorted index arrays, concatenated",
    ("ops/ewise_dist.py", "redistribute"):
        "pieces of contiguous, ascending source blocks: already sorted",
    ("runtime/aggregation.py", "group_by_owner"):
        "owners of a sorted block under a contiguous partition",
    ("runtime/aggregation.py", "merge_superstep_batches"):
        "one sorted batch per source locale",
    ("ops/assign_general.py", "assign_vector"):
        "w's sorted indices, then the assigned ones: one long run leads",
    ("sparse/spa.py", "gather"):
        "first-touch slots: one sorted run per scatter batch (np.unique order)",
}

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


def _is_stable_argsort(call: ast.Call) -> bool:
    """``np.argsort(x, kind="stable")`` or ``x.argsort(kind="mergesort")``."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "argsort"):
        return False
    return any(
        kw.arg == "kind"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value in ("stable", "mergesort")
        for kw in call.keywords
    )


def _calls_by_function(tree: ast.AST):
    """Yield ``(enclosing function name or None, call)`` for every call."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            name = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Call):
                yield func, child
            yield from walk(child, name)

    yield from walk(tree, None)


def _violations(path: Path, root: Path = SRC_DIR) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(root)
    out = []
    for func, node in _calls_by_function(tree):
        name = _numpy_attr(node)
        if name == "lexsort" and path != SORT_HOME:
            out.append(f"{rel}:{node.lineno} np.lexsort (use sparse.sort.coo_order)")
        if name == "unique" and not any(
            (kw.arg or "").startswith("return_") for kw in node.keywords
        ):
            out.append(
                f"{rel}:{node.lineno} plain np.unique (use sparse.sort.sorted_unique)"
            )
        if (
            _is_stable_argsort(node)
            and path != SORT_HOME
            and (rel.as_posix(), func) not in RUN_MERGES
        ):
            out.append(
                f"{rel}:{node.lineno} stable argsort "
                "(use sparse.sort.stable_argsort_bounded)"
            )
    return out


def test_src_modules_exist():
    assert SORT_HOME in SRC_MODULES
    for module, _ in RUN_MERGES:
        assert SRC_DIR / module in SRC_MODULES, module


def test_no_lexsort_plain_unique_or_stable_argsort_in_src():
    violations = [v for path in SRC_MODULES for v in _violations(path)]
    assert not violations, "\n".join(violations)


def test_run_merge_allowlist_is_live():
    """Every allowlisted function still holds a stable argsort: an entry
    whose sort is gone must leave the list with it."""
    for module, func in RUN_MERGES:
        tree = ast.parse((SRC_DIR / module).read_text())
        assert any(
            f == func and _is_stable_argsort(call)
            for f, call in _calls_by_function(tree)
        ), f"{module}::{func} has no stable argsort left"


def test_lint_catches_every_pattern(tmp_path):
    """The lint itself: flags each banned spelling, passes the allowed ones."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b = numpy.lexsort((c, r))\n"
        "u, i = np.unique(x, return_index=True)\n"
        "s = sorted_unique(x)\n"
        "def f(x):\n"
        "    o = np.argsort(x, kind='stable')\n"
        "    p = x.argsort(kind='mergesort')\n"
        "    q = np.argsort(x)\n"
        "    return stable_argsort_bounded(x, 10)\n"
    )
    found = _violations(bad, root=tmp_path)
    assert [line.split(":")[1].split()[0] for line in found] == ["2", "3", "7", "8"]


def test_lint_allows_only_listed_functions(tmp_path):
    """A stable argsort passes inside an allowlisted (module, function) and
    nowhere else — not at module level, not in a sibling function."""
    pkg = tmp_path / "ops"
    pkg.mkdir()
    mod = pkg / "ewise.py"
    mod.write_text(
        "import numpy as np\n"
        "def ewiseadd_vv(idx):\n"
        "    return np.argsort(idx, kind='stable')\n"
        "def ewisemult_vv(idx):\n"
        "    return np.argsort(idx, kind='stable')\n"
        "top = np.argsort(z, kind='stable')\n"
    )
    found = _violations(mod, root=tmp_path)
    assert [line.split(":")[1].split()[0] for line in found] == ["5", "6"]
