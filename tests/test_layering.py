"""Architectural layering lints for the algorithm and service layers.

The backend-agnostic refactor's contract: algorithms talk to the
execution frontend (:mod:`repro.exec`) and nothing below it.  Importing
kernels (:mod:`repro.ops`) or the simulated runtime
(:mod:`repro.runtime`) from an algorithm module would re-couple the
algorithms to one backend, so this AST lint fails the build on any such
import — with **no allowlist**: every algorithm module must comply.

Every algorithm takes ``backend=``, so no algorithm module may import
:class:`~repro.exec.DistBackend`: there is no per-backend wrapper
around an algorithm.

The query service (:mod:`repro.service`) sits *above* the algorithms
and gets the stricter whitelist treatment: it may import only the
algorithms (whose multi-source cores it batches queries through — safe,
because the algorithms are themselves linted off ``ops``/``runtime``),
the execution frontend, the streaming engine, the observability layer
(``runtime.telemetry``), the mutation-epoch primitive (``runtime.epoch``
— what its result cache keys on), and the pure math of
:mod:`repro.algebra` / :mod:`repro.sparse`.  Anything else (kernels,
the machine model, the distributed storage) is a layering break.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ALGO_DIR = Path(__file__).resolve().parent.parent / "src" / "repro" / "algorithms"

#: subpackages an algorithm module must not reach into
FORBIDDEN = ("ops", "runtime")

ALGO_MODULES = sorted(ALGO_DIR.glob("*.py"))


def _forbidden_target(node: ast.AST, module_parts: tuple[str, ...]) -> str | None:
    """The offending import target, or None if the node is clean.

    Handles every spelling: ``import repro.ops.x``, ``from repro.ops
    import x``, ``from ..ops import x``, ``from ..ops.spmv import y``,
    and ``from .. import ops``.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in FORBIDDEN:
                return alias.name
        return None
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts and parts[0] == "repro" and len(parts) > 1 and parts[1] in FORBIDDEN:
                return node.module
        else:
            # relative: resolve against repro.algorithms.<module>
            base = module_parts[: len(module_parts) - node.level]
            parts = base + tuple((node.module or "").split(".")) if node.module else base
            if len(parts) > 1 and parts[0] == "repro" and parts[1] in FORBIDDEN:
                return ".".join(parts)
            # `from .. import ops` style: the forbidden name is in the alias list
            if parts == ("repro",):
                for alias in node.names:
                    if alias.name in FORBIDDEN:
                        return f"repro.{alias.name}"
        return None
    return None


def _violations(path: Path) -> list[str]:
    module_parts = ("repro", "algorithms", path.stem)
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        target = _forbidden_target(node, module_parts)
        if target is not None:
            out.append(f"{path.name}:{node.lineno} imports {target}")
    return out


def test_algorithm_modules_exist():
    assert len(ALGO_MODULES) >= 15  # 14 algorithm modules + __init__


@pytest.mark.parametrize("path", ALGO_MODULES, ids=lambda p: p.stem)
def test_algorithms_import_only_the_frontend(path: Path):
    """algorithms/*.py must not import repro.ops.* or repro.runtime.*."""
    bad = _violations(path)
    assert not bad, (
        "algorithm modules must go through repro.exec, not the kernel/runtime "
        "layers:\n  " + "\n  ".join(bad)
    )


def test_lint_catches_absolute_import():
    tree_src = "import repro.ops.spmv\n"
    node = ast.parse(tree_src).body[0]
    assert _forbidden_target(node, ("repro", "algorithms", "x")) == "repro.ops.spmv"


def test_lint_catches_relative_import():
    node = ast.parse("from ..ops.spmv import spmv\n").body[0]
    assert _forbidden_target(node, ("repro", "algorithms", "x")) == "repro.ops.spmv"


def test_lint_catches_from_package_import():
    node = ast.parse("from .. import ops\n").body[0]
    assert _forbidden_target(node, ("repro", "algorithms", "x")) == "repro.ops"


def test_lint_allows_frontend_and_algebra():
    for src in ("from ..exec import ShmBackend\n", "from ..algebra.semiring import MIN_PLUS\n"):
        node = ast.parse(src).body[0]
        assert _forbidden_target(node, ("repro", "algorithms", "x")) is None


def _dist_backend_imports(source: str) -> list[int]:
    """Line numbers of the imports in ``source`` that bind ``DistBackend``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "DistBackend" for alias in node.names)
    ]


@pytest.mark.parametrize("path", ALGO_MODULES, ids=lambda p: p.stem)
def test_algorithms_do_not_import_dist_backend(path: Path):
    """Algorithms take ``backend=``; none builds a DistBackend itself."""
    lines = _dist_backend_imports(path.read_text())
    assert not lines, f"{path.name} imports DistBackend at lines {lines}"


def test_dist_backend_lint_catches_import():
    assert _dist_backend_imports("from ..exec import Backend, DistBackend\n") == [1]
    assert _dist_backend_imports("from ..exec.dist import DistBackend\n") == [1]
    assert _dist_backend_imports("from ..exec import Backend, ShmBackend\n") == []


# ---------------------------------------------------------------------------
# service layer: whitelist lint
# ---------------------------------------------------------------------------

SERVICE_DIR = Path(__file__).resolve().parent.parent / "src" / "repro" / "service"

#: the only repro.* import roots a service module may use
SERVICE_ALLOWED = (
    "repro.algorithms",
    "repro.exec",
    "repro.streaming",
    "repro.service",
    "repro.algebra",
    "repro.sparse",
    "repro.runtime.telemetry",
    "repro.runtime.epoch",
)

SERVICE_MODULES = sorted(SERVICE_DIR.glob("*.py"))


def _within(target: str, allowed: str) -> bool:
    return target == allowed or target.startswith(allowed + ".")


def _service_violations_in(node: ast.AST, module_parts: tuple[str, ...]) -> list[str]:
    """Resolved ``repro.*`` import targets of ``node`` that fall outside
    the service whitelist (empty for clean or non-repro imports)."""

    def ok(target: str) -> bool:
        return any(_within(target, allowed) for allowed in SERVICE_ALLOWED)

    bad: list[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro" and not ok(alias.name):
                bad.append(alias.name)
        return bad
    if not isinstance(node, ast.ImportFrom):
        return bad
    if node.level == 0:
        base = tuple((node.module or "").split("."))
    else:
        base = module_parts[: len(module_parts) - node.level]
        if node.module:
            base = base + tuple(node.module.split("."))
    if not base or base[0] != "repro":
        return bad
    base_target = ".".join(base)
    for alias in node.names:
        # `from repro.runtime import epoch` is fine, `... import locale`
        # is not: judge each bound name at its fully resolved path
        full = f"{base_target}.{alias.name}"
        if not (ok(base_target) or ok(full)):
            bad.append(full)
    return bad


def _service_file_violations(path: Path) -> list[str]:
    module_parts = ("repro", "service", path.stem)
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        for target in _service_violations_in(node, module_parts):
            out.append(f"{path.name}:{node.lineno} imports {target}")
    return out


def test_service_modules_exist():
    assert len(SERVICE_MODULES) >= 5  # scheduler, quota, cache, queries, service


@pytest.mark.parametrize("path", SERVICE_MODULES, ids=lambda p: p.stem)
def test_service_imports_only_whitelisted_layers(path: Path):
    """service/*.py may import only algorithms, exec, streaming, algebra,
    sparse, runtime.telemetry, and runtime.epoch."""
    bad = _service_file_violations(path)
    assert not bad, (
        "service modules are whitelisted to "
        + ", ".join(SERVICE_ALLOWED)
        + ":\n  "
        + "\n  ".join(bad)
    )


def test_service_lint_catches_runtime_machine_import():
    node = ast.parse("from ..runtime import Machine\n").body[0]
    assert _service_violations_in(node, ("repro", "service", "x")) == [
        "repro.runtime.Machine"
    ]


def test_service_lint_catches_sibling_import():
    node = ast.parse("from ..distributed import DistSparseMatrix\n").body[0]
    assert _service_violations_in(node, ("repro", "service", "x")) == [
        "repro.distributed.DistSparseMatrix"
    ]


def test_service_lint_catches_ops_import():
    node = ast.parse("import repro.ops.dispatch\n").body[0]
    assert _service_violations_in(node, ("repro", "service", "x")) == [
        "repro.ops.dispatch"
    ]


def test_service_lint_allows_whitelisted_spellings():
    for src in (
        "from ..algorithms import bfs_levels_batch\n",
        "from ..exec.backend import IterationScope\n",
        "from ..streaming import GraphStream\n",
        "from ..runtime.telemetry import registry\n",
        "from ..runtime.epoch import epoch_of\n",
        "from ..runtime import epoch\n",
        "from ..algebra.semiring import MIN_PLUS\n",
        "from ..sparse.csr import CSRMatrix\n",
        "from .cache import ResultCache\n",
        "import numpy as np\n",
    ):
        node = ast.parse(src).body[0]
        assert _service_violations_in(node, ("repro", "service", "x")) == [], src
