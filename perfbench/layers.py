"""Traced-run shims: spans and counts around each layer's public entry points.

The shims live here, in the benchmark, so the program under test is
unchanged.  Each one replaces the function object in *every* loaded
module that binds it — ``repro.core.solvability`` binds
``iterated_standard_chromatic_subdivision`` at import, ``_search_map``
looks ``compile_level``/``kernel_search`` up on ``repro.core.csp_kernel``
late, ``repro.conformance.pipeline`` binds ``solved_bundle`` and
``explore`` at import — so a call is caught wherever the caller looks the
name up.  A layer's self time is its span minus the spans of shimmed
layers it called.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable

#: shim name -> (module, function); ``on_result`` hooks add the counts.
TARGETS = {
    "topology.build": ("repro.topology.standard_chromatic", "iterated_standard_chromatic_subdivision"),
    "topology.sharded": ("repro.topology.shards", "ensure_sharded"),
    "topology.load": ("repro.topology.sds_cache", "load"),
    "models.restrict": ("repro.models.reference", "restrict_subdivision"),
    "models.ensure_restricted": ("repro.models.packed", "ensure_restricted"),
    "kernel.compile": ("repro.core.csp_kernel", "compile_level"),
    "kernel.compile_packed": ("repro.core.csp_kernel", "compile_level_packed"),
    "kernel.compile_arrays": ("repro.core.mask_kernel", "compile_arrays"),
    "kernel.search": ("repro.core.csp_kernel", "kernel_search"),
    "kernel.array_search": ("repro.core.mask_kernel", "array_search"),
    "solvability.solve": ("repro.core.solvability", "solve_task"),
    "solvability.validate": ("repro.core.solvability", "validate_decision_map"),
    "conformance.solve": ("repro.conformance.scenario", "solved_bundle"),
    "conformance.extract": ("repro.core.extraction", "extract_decision_map"),
    "mc.explore": ("repro.mc.explorer", "explore"),
    "service.request": ("repro.service.client", "ServiceClient.request"),
}


class Recorder:
    """Per-shim seconds, self seconds and call counts, plus named counters."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _shim(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        def shim(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[0]
                self.calls[name] += 1
            if on_result is not None:
                on_result(self.counts, result, args)
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:  # a method: patch the class attribute
                owner = getattr(module, owner_name)
                original = getattr(owner, method)
                self._patches.append((owner, method, original))
                setattr(owner, method, self._shim(name, original, _HOOKS.get(name)))
                continue
            original = getattr(module, attr)
            shim = self._shim(name, original, _HOOKS.get(name))
            for loaded in list(sys.modules.values()):
                if getattr(loaded, attr, None) is original:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, shim)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)



def _on_load(counts, result, args):
    counts["store.loads"] += 1
    counts["store.hits"] += result is not None


def _on_restrict(counts, result, args):
    subdivision = args[0]
    if result is not subdivision:  # identity models return the input
        counts["restrict.kept_tops"] += len(result.complex.maximal_simplices)
        counts["restrict.full_tops"] += len(subdivision.complex.maximal_simplices)


def _on_compile(counts, result, args):
    counts["compile.vertices"] += len(result.verts)


def _on_search(counts, result, args):
    mapping, stats = result
    counts["search.nodes"] += stats.nodes
    counts["search.budget_hits"] += not stats.exhausted


def _on_solve(counts, result, args):
    counts["solve.levels"] += len(result.levels)


def _on_explore(counts, result, args):
    counts["mc.schedules"] += result.stats.executions


_HOOKS = {
    "topology.load": _on_load,
    "models.restrict": _on_restrict,
    "kernel.compile": _on_compile,
    "kernel.search": _on_search,
    "kernel.array_search": _on_search,
    "solvability.solve": _on_solve,
    "mc.explore": _on_explore,
}


def _ms_per(seconds: float, count: int) -> float:
    return 1e3 * seconds / count if count else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec: Recorder, queries: int, passes: int) -> dict[str, float]:
    """The in-process per-layer metrics of ``passes`` traced passes over a
    ``queries``-long list: per timed query, or per pass for ``mc.schedules``."""
    s, c, n = rec.seconds, rec.counts, rec.calls
    timed = queries * passes
    search_s = s["kernel.search"] + s["kernel.array_search"]
    searches = n["kernel.search"] + n["kernel.array_search"]
    compiles = n["kernel.compile"] + n["kernel.compile_packed"] + n["kernel.compile_arrays"]
    return {
        "topology.build_ms": _ms_per(s["topology.build"] + s["topology.sharded"], timed),
        "topology.store_hit_rate": _share(c["store.hits"], c["store.loads"]),
        "models.restrict_ms": _ms_per(s["models.restrict"] + s["models.ensure_restricted"], timed),
        "models.kept_top_share": _share(c["restrict.kept_tops"], c["restrict.full_tops"]),
        "kernel.compile_ms": _ms_per(
            s["kernel.compile"] + s["kernel.compile_packed"] + s["kernel.compile_arrays"], timed
        ),
        "kernel.vertices": _share(c["compile.vertices"], compiles),
        "kernel.search_ms": _ms_per(search_s, timed),
        "kernel.nodes": _share(c["search.nodes"], timed),
        "kernel.nodes_per_s": _share(c["search.nodes"], search_s),
        "kernel.budget_hit_share": _share(c["search.budget_hits"], searches),
        "solvability.validate_ms": _ms_per(s["solvability.validate"], timed),
        "solvability.levels_probed": _share(c["solve.levels"], n["solvability.solve"]),
        "solvability.self_ms": _ms_per(rec.self_seconds["solvability.solve"], timed),
        "conformance.solve_ms": _ms_per(s["conformance.solve"], timed),
        "conformance.extract_ms": _ms_per(s["conformance.extract"], timed),
        "mc.schedules": c["mc.schedules"] / passes,
        "mc.schedules_per_s": _share(c["mc.schedules"], s["mc.explore"]),
    }
