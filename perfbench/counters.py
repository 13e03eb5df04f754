"""Cache counters of the qshuffle layers, read from outside the package.

Each counter names memo tables by module and attribute path.  Hits and
misses come from ``cache_info()`` of ``lru_cache`` tables; entry counts
are ``len()`` of module-level memo dicts.  A counter sums over its tables.
When a table no longer exists (a later version merged or renamed it), the
counter is reported as absent instead of raising.
"""

from __future__ import annotations

import importlib

# counter name -> (how to read each table, [(module, attribute path), ...])
COUNTERS = {
    "compositions.shuffle_hits": ("hits", [("compositions", "_shuffle_pairs")]),
    "compositions.shuffle_misses": ("misses", [("compositions", "_shuffle_pairs")]),
    "compositions.qshuffle_hits": ("hits", [("compositions", "_quasi_shuffle_pairs")]),
    "compositions.qshuffle_misses": ("misses", [("compositions", "_quasi_shuffle_pairs")]),
    "elements.antipode_memo": ("len", [("elements", "_antipode_cache")]),
    "universal.evaluator_entries": (
        "len",
        [("demos", "_chromatic_evaluator._cache"), ("demos", "_kp_evaluator._cache")],
    ),
    "universal.theta_memo": ("len", [("universal", "_theta_basis_cache")]),
    "demos.coloring_misses": ("misses", [("demos", "_proper_coloring_count")]),
    "demos.coproduct_misses": ("misses", [("demos", "_graph_coproduct"), ("demos", "_poset_coproduct")]),
}
# hits and misses accumulate, so a measured region reports their increase
CUMULATIVE = frozenset(name for name, (how, _) in COUNTERS.items() if how != "len")


def _read_table(package: str, module: str, path: str, how: str) -> int | None:
    try:
        obj = importlib.import_module(f"{package}.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        if how == "len":
            return len(obj)
        return getattr(obj.cache_info(), how)
    except (ImportError, AttributeError, TypeError):
        return None


def read(package: str = "qshuffle", counters: dict = COUNTERS) -> dict[str, int | None]:
    """Current value of every counter; None for one whose tables are all gone."""
    out = {}
    for name, (how, tables) in counters.items():
        values = [_read_table(package, module, path, how) for module, path in tables]
        present = [v for v in values if v is not None]
        out[name] = sum(present) if present else None
    return out


def delta(before: dict, after: dict) -> dict[str, int | None]:
    """Counters over a region: increases for hits and misses, final sizes for memos."""
    out = {}
    for name, value in after.items():
        if value is not None and name in CUMULATIVE and before.get(name) is not None:
            value -= before[name]
        out[name] = value
    return out
