"""The versioned ``BENCH_*.json`` result schema.

Every ablation benchmark persists its perf trajectory under
``benchmarks/results/BENCH_<name>.json`` so the repo's measured numbers
travel with the code.  Before this module each writer improvised its own
layout and each reader re-parsed it ad hoc; now there is one envelope::

    {
      "schema_version": 1,
      "bench": "<name>",            # which ablation produced it
      "configs": {...},             # workload parameters (for provenance)
      "results": {...},             # arbitrary nesting of metric leaves
      ...                           # bench-specific extras (node_sweep, …)
    }

``results`` may nest dicts and lists arbitrarily; the *gateable* metrics
inside it are exactly the numeric leaves whose key ends in ``_s`` but
does not start with ``wall`` — simulated seconds are deterministic
functions of (workload seed, cost model) and therefore diffable across
runs at a tight (10%) tolerance.  :func:`simulated_metrics` flattens
those leaves to ``path → value`` rows, which is the primary currency of
the regression gate (:mod:`repro.bench.regression`).

Wall-clock leaves (numeric, key starts with ``wall`` and ends in ``_s``)
depend on the host and are recorded for humans only; the end-to-end
wall-clock benchmark lives in ``perfbench/``.

Version history:

* **v1** — the envelope above.  Files written before versioning (the PR 3
  and PR 4 baselines) are structurally v1 minus the ``schema_version`` /
  ``bench`` stamps; :func:`normalize` upgrades them on load.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "BenchSchemaError",
    "bench_name_from_path",
    "normalize",
    "validate",
    "load_bench",
    "dump_bench",
    "simulated_metrics",
]

#: current BENCH envelope version.
SCHEMA_VERSION = 1


class BenchSchemaError(ValueError):
    """A BENCH payload does not satisfy the envelope contract."""


def bench_name_from_path(path: str | Path) -> str:
    """``BENCH_<name>.json`` → ``<name>`` (the RERUNNERS key)."""
    stem = Path(path).stem
    if not stem.startswith("BENCH_"):
        raise BenchSchemaError(f"not a BENCH result file: {path}")
    return stem[len("BENCH_") :]


def normalize(payload: dict, *, bench: str | None = None) -> dict:
    """Upgrade a raw payload to the current envelope (pure; returns a copy).

    Pre-versioning files gain ``schema_version`` (1) and, when the caller
    knows it (e.g. from the filename), the ``bench`` stamp.
    """
    if not isinstance(payload, dict):
        raise BenchSchemaError(f"BENCH payload must be an object, got {type(payload)}")
    out = dict(payload)
    out.setdefault("schema_version", SCHEMA_VERSION)
    if bench is not None:
        out.setdefault("bench", bench)
    return out


def validate(payload: dict) -> dict:
    """Check the envelope contract; returns the payload unchanged.

    Raises :class:`BenchSchemaError` on an unknown version, a missing or
    non-object ``results`` section, or a non-string ``bench`` stamp.
    """
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    results = payload.get("results")
    if not isinstance(results, dict):
        raise BenchSchemaError("BENCH payload needs an object 'results' section")
    bench = payload.get("bench")
    if bench is not None and not isinstance(bench, str):
        raise BenchSchemaError(f"'bench' must be a string, got {bench!r}")
    return payload


def load_bench(path: str | Path) -> dict:
    """Read, normalize (filename supplies the bench stamp), and validate."""
    path = Path(path)
    payload = json.loads(path.read_text())
    return validate(normalize(payload, bench=bench_name_from_path(path)))


def dump_bench(payload: dict, path: str | Path) -> Path:
    """Stamp the envelope, validate, and write sorted JSON; returns the path.

    The ``bench`` stamp must agree with the filename so discovery by glob
    and discovery by payload never diverge.
    """
    path = Path(path)
    payload = validate(normalize(payload, bench=bench_name_from_path(path)))
    if payload["bench"] != bench_name_from_path(path):
        raise BenchSchemaError(
            f"bench stamp {payload['bench']!r} does not match filename {path.name!r}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _seconds_leaf(key: str, value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and key.endswith("_s")
    )


def _simulated(key: str, value) -> bool:
    return _seconds_leaf(key, value) and not key.startswith("wall")


def _walk(node, prefix: str, out: dict[str, float], match) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}/{key}" if prefix else str(key)
            if match(str(key), value):
                out[path] = float(value)
            else:
                _walk(value, path, out, match)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _walk(value, f"{prefix}[{i}]", out, match)


def simulated_metrics(payload: dict) -> dict[str, float]:
    """Flatten the gateable simulated-time leaves of ``results``.

    Returns ``{"fig9_10m/agg[3]/simulated_s": 0.0123, ...}`` — every
    numeric leaf under ``results`` whose key ends in ``_s`` and does not
    start with ``wall``.  Deterministic leaves only, by construction.
    """
    out: dict[str, float] = {}
    _walk(payload.get("results", {}), "", out, _simulated)
    return out
