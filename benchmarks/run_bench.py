#!/usr/bin/env python3
"""Benchmark-regression harness: time the E1/E2/E5 hot paths, emit JSON.

Measures the quantities the performance layer is accountable for —
``SDS``/``SDS^b`` construction wall times and top-simplex counts (E1/E2),
subdivision validation, the solvability engine's search throughput in
nodes/second (E5), the model checker's schedule-space exploration
(schedules/second, total schedules, reduced vs naive), and the out-of-core
sharded pipeline under an explicit RSS ceiling with the int-vs-numpy mask
kernel ratio (E17) — and writes a machine-readable ``BENCH_*.json``:

    python benchmarks/run_bench.py --output BENCH_LOCAL.json

``benchmarks/compare_bench.py`` gates two such files against each other
(>20% slowdown on a tracked hot path fails).  ``--before seed.json`` embeds
a pre-optimization trajectory so the committed file documents the speedup.

Methodology: every ``*.seconds`` metric is the best of ``--repeats`` runs in
one warm process (intern tables and partition templates populated), which is
how the engine actually runs — the solver re-subdivides the same complexes
across levels and tasks.  ``*.cold.*`` metrics re-measure the first build
after :func:`repro.topology.interning.clear_intern_caches` and are reported
but not gated (single-shot timings jitter).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

# The cold/cache-hit rows clear and repopulate the persistent SDS cache; run
# them against a private directory so benchmarking never wipes (or is skewed
# by) the user's real ~/.cache/repro-sds.  An explicit REPRO_SDS_CACHE_DIR
# wins — that is how CI pins the cache inside the runner workspace.  A
# private directory we created is deleted on exit: the E17 rows leave a
# ~1.5 GB `SDS^4(s^3)` shard set behind otherwise.
_PRIVATE_CACHE = "REPRO_SDS_CACHE_DIR" not in os.environ
os.environ.setdefault(
    "REPRO_SDS_CACHE_DIR", tempfile.mkdtemp(prefix="repro-sds-bench-")
)

from repro.core.solvability import SearchOptions, _probe_level, solve_task  # noqa: E402
from repro.tasks import (  # noqa: E402
    approximate_agreement_task,
    binary_consensus_task,
    set_consensus_task,
)
from repro.topology import sds_cache  # noqa: E402
from repro.topology.complex import SimplicialComplex  # noqa: E402
from repro.topology.interning import clear_intern_caches  # noqa: E402
from repro.topology.simplex import Simplex  # noqa: E402
from repro.topology.standard_chromatic import (  # noqa: E402
    iterated_standard_chromatic_subdivision,
    standard_chromatic_subdivision,
)
from repro.topology.vertex import Vertex  # noqa: E402

SCHEMA = "repro-bench-v1"

# BENCH_PR4.json's e2.build.cold.n3_b2.seconds — the pre-orbit engine's cold
# (n=3, b=2) build.  Pinned as a constant (not read from the file) so the
# acceptance ratio survives the --against target moving forward.
PR4_COLD_N3_B2_SECONDS = 0.0476

# (n, b, repeats) — the E2 growth grid, including the two rows this PR adds.
E2_GRID = [(1, 3, 5), (2, 2, 5), (3, 1, 5), (2, 3, 3), (3, 2, 3)]
E5_GRID = [
    ("consensus2", lambda: binary_consensus_task(2), 2),
    ("approx_agree_2_k3", lambda: approximate_agreement_task(2, 3), 2),
    ("approx_agree_2_k27", lambda: approximate_agreement_task(2, 27), 3),
    ("set_consensus_3_3", lambda: set_consensus_task(3, 3), 1),
]

# Single-level probes of the bitset CSP kernel against the naive reference
# search, keyed by (n = processes - 1, b = subdivision level).  Each row
# times LevelReport.elapsed_seconds — compile + search, excluding the (shared)
# SDS construction — on the kernel path (tracked) and the naive path
# (informational), and records the kernel/naive speedup.  ``smoke`` rows are
# the ones cheap enough for the compare-only CI smoke run.
# (key, factory, b, node_budget, repeats, smoke)
E5K_GRID = [
    ("n2_b2", lambda: approximate_agreement_task(2, 81), 2, 2_000_000, 5, True),
    ("n2_b3", lambda: approximate_agreement_task(2, 81), 3, 2_000_000, 3, False),
    ("n3_b1", lambda: set_consensus_task(3, 2), 1, 2_000_000, 5, True),
    ("n3_b2", lambda: approximate_agreement_task(3, 3), 2, 2_000_000, 3, True),
    ("n3_b2_cap", lambda: set_consensus_task(3, 2), 2, 150_000, 3, False),
]

# Model-checking exploration of the Figure 2 emulation: the reduced (DPOR)
# walk vs the naive enumeration over the same schedule space.  Both are
# exhaustive, so ``.schedules`` counts are exact (drift-gated) and
# ``.reduction_vs_naive`` is the acceptance floor enforced via
# ``compare_bench --min-speedup``.  (key, processes, k, smoke)
MC_GRID = [
    ("emu_p2k2", 2, 2, True),
    ("emu_p3k1", 3, 1, False),
]


def input_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(
        [Simplex(Vertex(pid, f"v{pid}") for pid in range(n + 1))]
    )


def best_of(fn, repeats: int):
    best = None
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def collect_metrics(repeats_scale: int = 1, smoke: bool = False) -> tuple[dict, list[str]]:
    metrics: dict[str, float | int] = {}
    tracked: list[str] = []

    # One-time process state, hoisted out of the timed rows: the first
    # ``solve_task`` call otherwise pays the lazy import (and bytecode
    # compile) of the CSP kernel module inside a single-shot e5 row, which
    # turns that row into an import benchmark — profiling showed the import
    # alone dwarfing the actual search on the smallest task.  A throwaway
    # solve warms every lazy import; per-task work (kernel level compile,
    # SDS builds of each task's own base) stays inside the rows.
    solve_task(binary_consensus_task(2), 1)
    clear_intern_caches()

    # -- E1: one-round SDS construction -----------------------------------
    for n in (1, 2, 3):
        key = f"e1.sds_construction.n{n}.seconds"
        # Microsecond-scale rows: repeats are nearly free and these are the
        # first to wobble under CPU frequency noise, so take a deep min.
        secs, _ = best_of(
            lambda n=n: standard_chromatic_subdivision(input_complex(n)),
            20 * repeats_scale,
        )
        metrics[key] = secs
        tracked.append(key)

    # -- E2: iterated SDS growth -------------------------------------------
    e2_grid = [row for row in E2_GRID if not smoke or row[:2] in [(1, 3), (2, 2), (3, 1)]]
    for n, b, repeats in e2_grid:
        key = f"e2.build.n{n}_b{b}"
        secs, sds = best_of(
            lambda n=n, b=b: iterated_standard_chromatic_subdivision(
                input_complex(n), b
            ),
            repeats * repeats_scale,
        )
        metrics[f"{key}.seconds"] = secs
        metrics[f"{key}.tops"] = len(sds.complex.maximal_simplices)
        tracked.append(f"{key}.seconds")

    sds22 = iterated_standard_chromatic_subdivision(input_complex(2), 2)
    sds22.complex  # force materialization: the row times validate, not thaw
    metrics["e2.validate.n2_b2.seconds"], _ = best_of(
        lambda: sds22.validate(chromatic=True), 3 * repeats_scale
    )
    tracked.append("e2.validate.n2_b2.seconds")
    if not smoke:
        sds32 = iterated_standard_chromatic_subdivision(input_complex(3), 2)
        sds32.complex
        metrics["e2.validate.n3_b2.seconds"], _ = best_of(
            lambda: sds32.validate(chromatic=True), repeats_scale
        )
        tracked.append("e2.validate.n3_b2.seconds")

    # -- E5: solvability search throughput ---------------------------------
    e5_grid = [row for row in E5_GRID if not smoke or row[0] != "approx_agree_2_k27"]
    for key, make, max_rounds in e5_grid:
        # Best-of-N with a fresh task per run: level compile + search are
        # re-done every time, while the subdivision memo warms after the
        # first run — SDS construction cost is E2's row, not this one.
        # (These rows were single-shot, which made them the noisiest gated
        # paths in the file.)
        dt = None
        for _ in range(1 + repeats_scale):
            task = make()
            t0 = time.perf_counter()
            result = solve_task(task, max_rounds)
            run = time.perf_counter() - t0
            dt = run if dt is None else min(dt, run)
        nodes = sum(l.nodes_explored for l in result.levels)
        search_secs = sum(l.elapsed_seconds for l in result.levels)
        metrics[f"e5.solve.{key}.seconds"] = dt
        metrics[f"e5.solve.{key}.nodes"] = nodes
        metrics[f"e5.solve.{key}.nodes_per_sec"] = (
            nodes / search_secs if search_secs > 0 else 0.0
        )
        tracked.append(f"e5.solve.{key}.seconds")

    # -- E5-kernel: bitset CSP kernel vs the naive reference search --------
    kernel_options = SearchOptions(kernel=True)
    naive_options = SearchOptions(kernel=False)
    e5k_grid = [row for row in E5K_GRID if not smoke or row[5]]
    for key, make, b, node_budget, repeats, _smoke_row in e5k_grid:
        task = make()
        repeats = max(1, repeats * repeats_scale)

        def probe(options, task=task, b=b, node_budget=node_budget):
            _mapping, report, _sds = _probe_level(task, b, node_budget, options)
            return report

        # LevelReport.elapsed_seconds excludes the (shared) SDS build, so the
        # row isolates exactly what the kernel replaced: compile + search.
        kernel_report = probe(kernel_options)
        kernel_secs = kernel_report.elapsed_seconds
        for _ in range(repeats - 1):
            kernel_secs = min(kernel_secs, probe(kernel_options).elapsed_seconds)
        naive_secs = min(
            probe(naive_options).elapsed_seconds,
            probe(naive_options).elapsed_seconds,
        )

        row = f"e5k.solve.{key}"
        metrics[f"{row}.seconds"] = kernel_secs
        metrics[f"{row}.nodes"] = kernel_report.nodes_explored
        metrics[f"{row}.nodes_per_sec"] = (
            kernel_report.nodes_explored / kernel_secs if kernel_secs > 0 else 0.0
        )
        metrics[f"{row}.naive.seconds"] = naive_secs
        metrics[f"{row}.speedup_vs_naive"] = (
            round(naive_secs / kernel_secs, 2) if kernel_secs > 0 else 0.0
        )
        tracked.append(f"{row}.seconds")

    # -- MC: reduced exhaustive exploration vs the naive schedule walk -----
    from repro.mc import EmulationScenario, ExploreOptions, explore

    mc_naive_options = ExploreOptions(reduction=False, state_cache=False)
    mc_grid = [row for row in MC_GRID if not smoke or row[3]]
    for key, processes, k, _smoke_row in mc_grid:
        scenario = EmulationScenario(processes=processes, k=k)
        # The walks are deterministic, so only the timing varies: keep the
        # fastest reduced run (the naive walk only feeds the schedule counts
        # and the reduction ratio, which are exact).
        reduced = explore(scenario)
        for _ in range(repeats_scale):
            again = explore(scenario)
            if again.stats.elapsed_seconds < reduced.stats.elapsed_seconds:
                reduced = again
        naive = explore(scenario, mc_naive_options)
        if reduced.outcomes != naive.outcomes or not (reduced.ok and naive.ok):
            raise SystemExit(
                f"mc.{key}: reduced and naive walks disagree — not a perf "
                "regression, a soundness bug"
            )
        row = f"mc.explore.{key}"
        secs = reduced.stats.elapsed_seconds
        metrics[f"{row}.seconds"] = secs
        metrics[f"{row}.schedules"] = reduced.stats.executions
        metrics[f"{row}.schedules_per_sec"] = (
            reduced.stats.executions / secs if secs > 0 else 0.0
        )
        metrics[f"{row}.naive.schedules"] = naive.stats.executions
        metrics[f"{row}.reduction_vs_naive"] = (
            round(naive.stats.executions / reduced.stats.executions, 2)
            if reduced.stats.executions
            else 0.0
        )
        tracked.append(f"{row}.seconds")

    # -- OBS: observability-layer overhead ---------------------------------
    # The null backend rides along on every row above (observability is off
    # by default), so e2.build.n2_b2.seconds IS the null-backend number.
    # Here we re-time the same build inside an active capture to document the
    # cost of turning tracing on.  Informational, not tracked: the traced
    # path is diagnostic, not a hot path, and the null-backend cost is
    # already gated by the tracked rows plus tests/obs/test_overhead.py.
    from repro.obs import capture

    null_secs, _ = best_of(
        lambda: iterated_standard_chromatic_subdivision(input_complex(2), 2),
        5 * repeats_scale,
    )
    with capture():
        traced_secs, _ = best_of(
            lambda: iterated_standard_chromatic_subdivision(input_complex(2), 2),
            5 * repeats_scale,
        )
    metrics["obs.build.n2_b2.null.seconds"] = null_secs
    metrics["obs.build.n2_b2.traced.seconds"] = traced_secs
    metrics["obs.build.n2_b2.traced_overhead_ratio"] = (
        round(traced_secs / null_secs, 3) if null_secs > 0 else 0.0
    )

    # -- SVC: the always-warm solvability service under load ---------------
    # One server subprocess is hoisted over the whole row family: the pool
    # fork, worker warm-up and first-hit probes are *the service's own
    # amortized setup*, so re-paying them per row would measure startup,
    # not the steady state the service exists to provide.  The one-time cost
    # is still accounted for — the ``.cold.`` sweep row times the first pass
    # over the zoo mix explicitly (reported, never slowdown-gated) — and the
    # closed/open-loop rows then measure the warm service the way clients
    # see it.  The 500 q/s floor and the cache-hit-rate floor are enforced
    # via ``compare_bench --min-speedup``.
    if not smoke:
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
        from bench_service import (
            ServerHarness,
            cold_sweep,
            run_closed_loop,
            run_open_loop,
        )
        from repro.service import zoo_mix

        svc_requests = zoo_mix()
        svc_sock = Path(os.environ["REPRO_SDS_CACHE_DIR"]) / "svc-bench.sock"
        with ServerHarness(str(svc_sock)) as harness:
            cold_secs, cold_replies = cold_sweep(harness, svc_requests)
            if any(r.get("status") != "ok" for r in cold_replies):
                raise SystemExit(
                    "svc.load: cold sweep failed — not a perf regression, "
                    f"a service bug: {cold_replies}"
                )
            metrics["svc.load.cold.sweep.seconds"] = cold_secs
            metrics["svc.load.cold.sweep.queries"] = len(svc_requests)

            closed = run_closed_loop(harness, svc_requests, duration=2.0)
            for _ in range(repeats_scale):
                again = run_closed_loop(harness, svc_requests, duration=2.0)
                if again.queries_per_sec > closed.queries_per_sec:
                    closed = again
            metrics["svc.load.closed.queries_per_sec"] = round(
                closed.queries_per_sec, 1
            )
            metrics["svc.load.closed.p50.seconds"] = closed.latency(0.50)
            metrics["svc.load.closed.p95.seconds"] = closed.latency(0.95)
            metrics["svc.load.closed.queries"] = closed.ok

            open_ = run_open_loop(harness, svc_requests, rate=200.0, duration=2.0)
            metrics["svc.load.open.p95.seconds"] = open_.latency(0.95)
            metrics["svc.load.open.queries"] = open_.ok

            stats = harness.stats()
            metrics["svc.load.cache_hit_rate"] = stats["cache_hit_rate"]
            if closed.errors or open_.errors:
                raise SystemExit(
                    f"svc.load: {closed.errors + open_.errors} queries "
                    "errored under load — a service bug, not a perf number"
                )
        tracked += [
            "svc.load.closed.queries_per_sec",
            "svc.load.closed.p95.seconds",
            "svc.load.open.p95.seconds",
        ]

    # -- E19: model-restricted substrates (the affine-task model zoo) ------
    # The restriction rides inside the orbit builder (template pruning), so
    # a restricted cold build must do strictly *less* work than the full
    # build at the same (n, b) — that reuse claim is the acceptance floor,
    # enforced per model via ``compare_bench --min-speedup ...=1``.  Pruning
    # compounds across rounds, so the gated grid point is (3, 3), where the
    # full build is 421875 tops and, e.g., t_resilient(1) keeps 125.  The
    # ``ensure.cache_hit`` twins time the warm path model-tagged service
    # queries take (reported, not gated — microsecond file loads jitter).
    # Runs before the E2-cold section: these rows populate the private SDS
    # cache, which E2-cold clears anyway.
    if not smoke:
        from repro.models import resolve_model
        from repro.models.packed import (
            build_sds_packed_restricted,
            ensure_restricted,
        )
        from repro.topology.compact import build_sds_packed

        e19_base = (0, 1, 2, 3)
        e19_tops = ((0, 1, 2, 3),)
        e19_b = 3
        full_secs, full19 = best_of(
            lambda: build_sds_packed(e19_base, e19_tops, e19_b), 2 * repeats_scale
        )
        metrics["e19.build.full.n3_b3.seconds"] = full_secs
        metrics["e19.build.full.n3_b3.tops"] = full19.top_count
        for spec in (
            ("t_resilient", (1,)),
            ("k_concurrent", (1,)),
            ("k_set_consensus", (2,)),
        ):
            model = resolve_model(*spec)
            secs, restricted = best_of(
                lambda model=model: build_sds_packed_restricted(
                    e19_base, e19_tops, e19_b, model
                ),
                2 * repeats_scale,
            )
            row = f"e19.build.restricted.{model.slug}.n3_b3"
            metrics[f"{row}.seconds"] = secs
            metrics[f"{row}.tops"] = restricted.top_count
            metrics[f"{row}.speedup_vs_full"] = (
                round(full_secs / secs, 2) if secs > 0 else 0.0
            )
            # First ensure stores the entry; the timed twin is the warm hit.
            ensure_restricted(e19_base, e19_tops, e19_b, model)
            hit_secs, (_, outcome) = best_of(
                lambda model=model: ensure_restricted(
                    e19_base, e19_tops, e19_b, model
                ),
                3 * repeats_scale,
            )
            if outcome != "hit":
                raise SystemExit(
                    f"e19.{model.slug}: expected a cache hit, got {outcome!r} "
                    "— a cache bug, not a perf number"
                )
            metrics[f"e19.ensure.cache_hit.{model.slug}.n3_b3.seconds"] = hit_secs

        # Model-restricted solvability end to end: the documented verdict
        # flips, timed through solve_task's model= path.
        for key, make, max_rounds, spec in (
            ("consensus2_t_resilient0",
             lambda: binary_consensus_task(2), 1, ("t_resilient", (0,))),
            ("set_consensus_3_2_k_set2",
             lambda: set_consensus_task(3, 2), 1, ("k_set_consensus", (2,))),
        ):
            model = resolve_model(*spec)
            dt = None
            for _ in range(1 + repeats_scale):
                task = make()
                t0 = time.perf_counter()
                result = solve_task(task, max_rounds, model=model)
                run = time.perf_counter() - t0
                dt = run if dt is None else min(dt, run)
            if result.status.value != "solvable":
                raise SystemExit(
                    f"e19.solve.{key}: expected solvable under "
                    f"{model.fingerprint}, got {result.status} — a model "
                    "bug, not a perf number"
                )
            metrics[f"e19.solve.{key}.seconds"] = dt
            tracked.append(f"e19.solve.{key}.seconds")

    # -- E20: warm conformance-pipeline throughput -------------------------
    # One full run_entry on the self-test cell (solve + both backends under
    # DPOR with crash injection + round-trip extraction), repeated with the
    # solve memoized — the steady state of `repro conform --sweep` where the
    # witness is cached and the mc walks dominate.  The PASS
    # status is asserted (a FAIL here is a conformance bug, not a perf
    # number); the throughput floor is enforced via
    # ``compare_bench --min-speedup e20.conform.warm.entries_per_sec=N``.
    from repro.conformance.entries import SELF_TEST_ENTRY
    from repro.conformance.pipeline import run_entry as conform_run_entry
    from repro.conformance.scenario import clear_bundle_cache

    clear_bundle_cache()
    t0 = time.perf_counter()
    e20_result = conform_run_entry(SELF_TEST_ENTRY)
    e20_cold = time.perf_counter() - t0
    if e20_result.status != "PASS":
        raise SystemExit(
            f"e20.conform: expected PASS on {SELF_TEST_ENTRY.label}, got "
            f"{e20_result.status} ({e20_result.violation or e20_result.reason})"
            " — a conformance bug, not a perf number"
        )
    e20_repeats = 3 * (1 + repeats_scale)
    t0 = time.perf_counter()
    for _ in range(e20_repeats):
        conform_run_entry(SELF_TEST_ENTRY)
    e20_warm = (time.perf_counter() - t0) / e20_repeats
    metrics["e20.conform.cold.seconds"] = e20_cold
    metrics["e20.conform.warm.seconds"] = e20_warm
    metrics["e20.conform.warm.entries_per_sec"] = (
        round(1.0 / e20_warm, 2) if e20_warm > 0 else 0.0
    )
    metrics["e20.conform.schedules"] = e20_result.schedules
    # Untracked: the number of distinct stage-3 outcomes the extraction
    # folds — extraction drives no executions of its own.
    metrics["e20.conform.extraction_runs"] = e20_result.extraction_runs
    tracked.append("e20.conform.warm.seconds")

    # -- E2-cold: the orbit engine from scratch ----------------------------
    # Runs LAST: these rows clear the intern tables, the in-process memo and
    # the persistent disk cache between repeats, and every warm row above
    # depends on exactly that state staying warm (the e5 solve rows are
    # single-shot — re-deriving caches inside them reads as a solver
    # regression).  "Cold" now means what it claims: a from-scratch packed
    # orbit build (the old rows left the engine's caches warm and timed a
    # near-noop).  The ``cache_hit`` twins clear only the in-process state
    # and keep the disk entries — the cross-process warm-start path workers
    # and repeat CLI invocations actually take.  ``.cold.`` keys are never
    # slowdown-gated (single-shot jitter); the speedup ratios are the
    # acceptance gates, enforced via ``compare_bench --min-speedup``.
    cold_grid = [(2, 2)] if smoke else [(2, 2), (3, 2)]
    cold_secs_of: dict[tuple[int, int], float] = {}
    for n, b in cold_grid:
        def build_cold(n=n, b=b):
            clear_intern_caches()
            sds_cache.clear_cache()
            t0 = time.perf_counter()
            iterated_standard_chromatic_subdivision(input_complex(n), b)
            return time.perf_counter() - t0

        def build_cache_hit(n=n, b=b):
            clear_intern_caches()
            t0 = time.perf_counter()
            iterated_standard_chromatic_subdivision(input_complex(n), b)
            return time.perf_counter() - t0

        cold = min(build_cold() for _ in range(3 * repeats_scale))
        # The last cold build stored its packed result, so the disk is warm.
        hit = min(build_cache_hit() for _ in range(3 * repeats_scale))
        cold_secs_of[(n, b)] = cold
        metrics[f"e2.build.cold.n{n}_b{b}.seconds"] = cold
        metrics[f"e2.build.cold.cache_hit.n{n}_b{b}.seconds"] = hit
        metrics[f"e2.build.cold.cache_hit.n{n}_b{b}.speedup_vs_cold"] = (
            round(cold / hit, 2) if hit > 0 else 0.0
        )

    if not smoke:
        # Orbit-engine acceptance gate: the packed cold build vs the PR4
        # engine's cold (n=3, b=2) build on the same machine class.
        metrics["e2.build.cold.n3_b2.speedup_vs_pr4"] = round(
            PR4_COLD_N3_B2_SECONDS / cold_secs_of[(3, 2)], 2
        )
        # Thaw cost in isolation: disk warm, object graph cold — the packed
        # load is ~1ms, so this times materialization onto fresh interns.
        def thaw_n3_b2():
            clear_intern_caches()
            sds = iterated_standard_chromatic_subdivision(input_complex(3), 2)
            t0 = time.perf_counter()
            sds.complex
            return time.perf_counter() - t0

        metrics["e2.thaw.n3_b2.seconds"] = min(
            thaw_n3_b2() for _ in range(3 * repeats_scale)
        )
        tracked.append("e2.thaw.n3_b2.seconds")
        # The new depth the orbit engine unlocks: SDS^3(s^3) (421875 tops),
        # from-scratch including forced materialization.  Single-shot — the
        # row exists to pin the count exactly and keep the build under the
        # acceptance ceiling, not to chase microseconds.
        clear_intern_caches()
        sds_cache.clear_cache()
        t0 = time.perf_counter()
        sds33 = iterated_standard_chromatic_subdivision(input_complex(3), 3)
        tops33 = len(sds33.complex.maximal_simplices)
        metrics["e2.build.n3_b3.seconds"] = time.perf_counter() - t0
        metrics["e2.build.n3_b3.tops"] = tops33
        tracked.append("e2.build.n3_b3.seconds")
        del sds33
        clear_intern_caches()

    # -- E17: out-of-core sharded pipeline under a memory ceiling ----------
    # The ceiling rows run in subprocesses with RLIMIT_AS set *before*
    # import (benchmarks/capped_probe.py), so peak_rss is honest — the parent
    # process's allocations can't subsidise the child.  None of these are
    # slowdown-tracked: the build/pipeline rows are single-shot subprocesses
    # and the kernel rows are gated on their *ratio* (stable on a noisy
    # shared CPU where absolute wall times are not) via ``compare_bench
    # --min-speedup e17.kernel.n3_b3.numpy_speedup_vs_int``.  The oom row is
    # the acceptance separation itself: the in-RAM PR5 path must *fail*
    # under the same ceiling the sharded path clears, recorded as 1/0 and
    # gated the same way.
    if not smoke:
        e17_dir = Path(os.environ["REPRO_SDS_CACHE_DIR"]) / "e17"

        def capped(extra: list[str]) -> tuple[int, dict]:
            proc = subprocess.run(
                [
                    sys.executable,
                    str(REPO_ROOT / "benchmarks" / "capped_probe.py"),
                    "--cache-dir",
                    str(e17_dir),
                    *extra,
                ],
                capture_output=True,
                text=True,
            )
            lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
            if not lines:
                raise SystemExit(
                    f"capped_probe {' '.join(extra)}: no JSON "
                    f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
                )
            return proc.returncode, json.loads(lines[-1])

        for b, cap in ((3, 512), (4, 4096)):
            code, row = capped(
                ["--mode", "build", "--n", "3", "--b", str(b), "--cap-mb", str(cap)]
            )
            if code != 0:
                raise SystemExit(f"e17.build.sharded.n3_b{b}: {row}")
            prefix = f"e17.build.sharded.n3_b{b}"
            metrics[f"{prefix}.seconds"] = row["seconds"]
            metrics[f"{prefix}.tops"] = row["tops"]
            metrics[f"{prefix}.shards"] = row["shards"]
            metrics[f"{prefix}.peak_rss_mb"] = row["peak_rss_mb"]
            metrics[f"{prefix}.cap_mb"] = cap

        # Full pipeline (build cache warm from above) vs the in-RAM path,
        # both under the same ceiling.  1300MB: comfortably above the
        # sharded path's peak, comfortably below the in-RAM path's.
        pipeline_cap = 1300
        code, row = capped(
            ["--mode", "pipeline", "--n", "3", "--b", "3",
             "--cap-mb", str(pipeline_cap), "--backend", "numpy"]
        )
        if code != 0 or row["outcome"] != "ok":
            raise SystemExit(f"e17.pipeline.sharded.n3_b3 failed under cap: {row}")
        metrics["e17.pipeline.sharded.n3_b3.seconds"] = row["seconds"]
        metrics["e17.pipeline.sharded.n3_b3.nodes"] = row["nodes"]
        metrics["e17.pipeline.sharded.n3_b3.peak_rss_mb"] = row["peak_rss_mb"]
        metrics["e17.pipeline.sharded.n3_b3.cap_mb"] = pipeline_cap
        metrics["e17.pipeline.sharded.n3_b3.dropped_faces"] = row["dropped_faces"]

        code, row = capped(
            ["--mode", "pipeline-inram", "--n", "3", "--b", "3",
             "--cap-mb", str(pipeline_cap)]
        )
        metrics["e17.pipeline.inram.n3_b3.oom_under_cap"] = int(
            code == 3 and row["outcome"] == "oom"
        )
        metrics["e17.pipeline.inram.n3_b3.cap_mb"] = pipeline_cap
        metrics["e17.pipeline.inram.n3_b3.peak_rss_mb"] = row["peak_rss_mb"]

        # Kernel backends back-to-back in this process on the same shards
        # and the same vertex chain: compile + search, int then numpy.
        from repro.core.csp_kernel import compile_level_packed, kernel_search
        from repro.core.mask_kernel import array_search, compile_arrays
        from repro.tasks import identity_task
        from repro.topology.shards import ensure_sharded

        task17 = identity_task(4, values=(0,))
        sharded17 = ensure_sharded((0, 1, 2, 3), ((0, 1, 2, 3),), 3, directory=e17_dir)
        base17 = task17.input_complex
        chain17 = sharded17.vertex_chain(sorted(base17.vertices, key=Vertex.sort_key))

        t0 = time.perf_counter()
        ci17, _ = compile_level_packed(sharded17, task17, base17, vertex_chain=chain17)
        mi17, si17 = kernel_search(ci17, 2_000_000)
        int_secs = time.perf_counter() - t0

        numpy_secs = None
        for _ in range(1 + repeats_scale):
            t0 = time.perf_counter()
            ca17, _ = compile_arrays(sharded17, task17, base17, vertex_chain=chain17)
            ma17, sa17 = array_search(ca17, 2_000_000)
            run = time.perf_counter() - t0
            numpy_secs = run if numpy_secs is None else min(numpy_secs, run)
        if (mi17 is None) != (ma17 is None) or si17.nodes != sa17.nodes:
            raise SystemExit(
                "e17.kernel.n3_b3: int and numpy kernels disagree — not a "
                "perf regression, a soundness bug"
            )
        metrics["e17.kernel.n3_b3.int.seconds"] = int_secs
        metrics["e17.kernel.n3_b3.numpy.seconds"] = numpy_secs
        metrics["e17.kernel.n3_b3.nodes"] = si17.nodes
        metrics["e17.kernel.n3_b3.numpy_speedup_vs_int"] = (
            round(int_secs / numpy_secs, 2) if numpy_secs > 0 else 0.0
        )

    # -- E21: the model-native sharded fast path ---------------------------
    # Three ratio-gated claims.  (a) The orbit-pruned streaming writer beats
    # build-full-then-filter: at (3, 3) the old model path wrote all 421875
    # tops and judged each one through the run filter afterwards, the
    # restricted writer never materializes a rejected subtree (floor: >= 5x
    # via ``--min-speedup e21.build...speedup_vs_full_then_filter``).
    # (b) The model-aware numpy compile beats the int compile on the same
    # warm native restricted store at (3, 4) (floor: >= 2x).  (c) The capped
    # subprocess row documents the separation the ``bench-models-oom-smoke``
    # target enforces: a restricted (3, 4) build+probe completes in seconds
    # under a 600MB ceiling, where the full build needs 415s and ~1.2GB
    # (the committed ``e17.build.sharded.n3_b4`` row).
    if not smoke:
        import shutil

        from repro.models.packed import run_filter
        from repro.topology.collapse import iter_tops_with_masks
        from repro.topology.shards import build_sds_sharded

        e21_base = (0, 1, 2, 3)
        e21_tops = ((0, 1, 2, 3),)
        e21_root = Path(os.environ["REPRO_SDS_CACHE_DIR"]) / "e21"
        e21_model = resolve_model("t_resilient", (1,))

        restricted_secs = restricted_tops = None
        for i in range(2 * repeats_scale):
            d = e21_root / f"restricted-{i}"
            t0 = time.perf_counter()
            s21 = build_sds_sharded(
                e21_base, e21_tops, 3, shard_size=65536, directory=d, model=e21_model
            )
            run = time.perf_counter() - t0
            restricted_secs = (
                run if restricted_secs is None else min(restricted_secs, run)
            )
            restricted_tops = s21.top_count
            shutil.rmtree(d)
        filter_secs = kept21 = None
        for i in range(2 * repeats_scale):
            d = e21_root / f"full-{i}"
            t0 = time.perf_counter()
            full21 = build_sds_sharded(
                e21_base, e21_tops, 3, shard_size=65536, directory=d
            )
            flt21 = run_filter(full21, e21_model)
            kept21 = sum(
                1
                for top, mask in iter_tops_with_masks(full21)
                if flt21.admits(top, mask)
            )
            run = time.perf_counter() - t0
            filter_secs = run if filter_secs is None else min(filter_secs, run)
            shutil.rmtree(d)
        if kept21 != restricted_tops:
            raise SystemExit(
                "e21.build: restricted writer and filtered full build disagree "
                f"on kept tops ({restricted_tops} vs {kept21}) — a soundness "
                "bug, not a perf number"
            )
        row21 = "e21.build.restricted_sharded.t_resilient-1.n3_b3"
        metrics[f"{row21}.seconds"] = restricted_secs
        metrics[f"{row21}.tops"] = restricted_tops
        metrics["e21.build.full_then_filter.t_resilient-1.n3_b3.seconds"] = filter_secs
        metrics[f"{row21}.speedup_vs_full_then_filter"] = (
            round(filter_secs / restricted_secs, 2) if restricted_secs > 0 else 0.0
        )

        # (b) model-aware compile backends on one warm native store.  The
        # collapse reports must agree exactly — the backends share the
        # canonical census order, so any drift is a soundness bug.
        e21_ks = resolve_model("k_set_consensus", (2,))
        sharded21 = ensure_sharded(
            e21_base,
            e21_tops,
            4,
            shard_size=16384,
            directory=e21_root / "native",
            model=e21_ks,
        )
        t0 = time.perf_counter()
        _ci21, rep_i21 = compile_level_packed(
            sharded21, task17, task17.input_complex, model=e21_ks
        )
        int21_secs = time.perf_counter() - t0
        numpy21_secs = None
        for _ in range(1 + repeats_scale):
            t0 = time.perf_counter()
            _ca21, rep_a21 = compile_arrays(
                sharded21, task17, task17.input_complex, model=e21_ks
            )
            run = time.perf_counter() - t0
            numpy21_secs = run if numpy21_secs is None else min(numpy21_secs, run)
        if rep_i21 != rep_a21:
            raise SystemExit(
                "e21.compile: int and numpy collapse reports disagree under "
                "k_set_consensus(2) — a soundness bug, not a perf number"
            )
        row21 = "e21.compile.model.k_set_consensus-2.n3_b4"
        metrics[f"{row21}.int.seconds"] = int21_secs
        metrics[f"{row21}.numpy.seconds"] = numpy21_secs
        metrics[f"{row21}.tops"] = sharded21.top_count
        metrics[f"{row21}.numpy_speedup_vs_int"] = (
            round(int21_secs / numpy21_secs, 2) if numpy21_secs > 0 else 0.0
        )
        tracked.append(f"{row21}.numpy.seconds")

        # (c) the capped restricted pipeline at the (3, 4) target depth —
        # single-shot subprocess (RLIMIT_AS before import), peak RSS honest.
        code, row = capped(
            ["--mode", "pipeline", "--n", "3", "--b", "4",
             "--model", "t_resilient(1)", "--shard-size", "8192",
             "--cap-mb", "600", "--backend", "numpy"]
        )
        if code != 0 or row["outcome"] != "ok" or row["backend_used"] != "numpy":
            raise SystemExit(f"e21.pipeline.restricted.n3_b4 failed under cap: {row}")
        prefix = "e21.pipeline.restricted.t_resilient-1.n3_b4"
        metrics[f"{prefix}.seconds"] = row["seconds"]
        metrics[f"{prefix}.peak_rss_mb"] = row["peak_rss_mb"]
        metrics[f"{prefix}.cap_mb"] = 600
        metrics[f"{prefix}.nodes"] = row["nodes"]

    return metrics, tracked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_LOCAL.json", help="output JSON path")
    parser.add_argument("--label", default="local", help="label stored in the document")
    parser.add_argument(
        "--before",
        default=None,
        help="optional JSON of pre-optimization metrics to embed as 'before'",
    )
    parser.add_argument(
        "--repeats-scale",
        type=int,
        default=1,
        help="multiply every repeat count (use >1 on noisy machines)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI config: cheap rows only (pair with compare_bench --allow-missing)",
    )
    args = parser.parse_args()

    metrics, tracked = collect_metrics(args.repeats_scale, smoke=args.smoke)

    document = {
        "schema": SCHEMA,
        "label": args.label,
        "python": platform.python_version(),
        "metrics": metrics,
        "tracked": tracked,
    }

    if args.before:
        before_doc = json.loads(Path(args.before).read_text())
        before = before_doc.get("metrics", before_doc)
        document["before"] = before
        document["speedups"] = {
            key: round(before[key] / metrics[key], 2)
            for key in tracked
            if key in before and metrics.get(key)
        }

    Path(args.output).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    if _PRIVATE_CACHE:
        import shutil

        shutil.rmtree(os.environ["REPRO_SDS_CACHE_DIR"], ignore_errors=True)

    width = max(len(k) for k in metrics)
    for key in sorted(metrics):
        value = metrics[key]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        extra = ""
        if "speedups" in document and key in document["speedups"]:
            extra = f"  ({document['speedups'][key]}x vs before)"
        print(f"{key.ljust(width)}  {shown}{extra}")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
