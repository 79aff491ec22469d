"""The measured process: one workload's setup, timed phase and metrics.

Started by ``run.py`` with the package on ``PYTHONPATH``, a private
``REPRO_SDS_CACHE_DIR`` and a precompiled ``PYTHONPYCACHEPREFIX``.  It
prints ``READY`` when setup is done, just before the first timed query.

* ``--mode measure``: time the workload's passes over its fixed query
  list, closed loop with one query in flight, and print them as one JSON
  record: per position of the list its label and its fastest latency,
  cycle and CPU over the passes (see :func:`timed_pass`), peak RSS and
  verdict counts.  ``run.py`` runs several such trials and aggregates
  them.
* ``--mode trace``: alternate untraced passes and passes with the layer
  shims installed, as many of each as the workload's timed passes, and
  print the per-layer metrics in the result format.

Every decided verdict is checked against ``expectations.json``; a
contradiction, an error frame, an overload refusal or an exception is a
failed query, and any failed query makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from cells import (
    Cell,
    conform_entries,
    hot_keys,
    seeded_order,
    solve_frame,
    zipf_list,
)
from layers import Recorder, layer_metrics
from measure import TreeClock, tree_peak_rss_mb
from verdicts import SOLVABLE, UNSOLVABLE, VerdictTable

#: Independent process trees ``run.py`` starts for one run.
TRIALS = 5


class Outcome(NamedTuple):
    decided: bool
    error: str | None
    info: dict


class Workload:
    """A fixed query list over one entry path; subclasses fill the hooks."""

    name = ""
    #: Shims that must fire in a traced run; a silent shim reads as zero.
    expected_layers: frozenset[str] = frozenset()

    def __init__(self, seed: int, seconds: int, rundir: Path, table: VerdictTable):
        self.seed = seed
        self.seconds = seconds
        self.rundir = rundir
        self.table = table

    def setup(self) -> None:
        pass

    def queries(self) -> list:
        """One pass's list."""
        raise NotImplementedError

    def passes(self) -> int:
        """Timed passes over the list per trial."""
        return 1

    def peak_root(self) -> int:
        """The process whose tree holds the code under test."""
        return os.getpid()

    def label(self, query) -> str:
        return f"{query.label} b={query.rounds}"

    def run(self, query, recorder: Recorder | None) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def service_stats(self) -> dict:
        return {}


def _solve_outcome(table, cell: Cell, min_rounds: int, verdict: str, rounds) -> Outcome:
    error = table.check_solve(cell.label, min_rounds, cell.rounds, verdict, rounds)
    return Outcome(verdict in (SOLVABLE, UNSOLVABLE), error, {})


# -- the service workload ------------------------------------------------------


class SvcHot(Workload):
    """One ``repro serve`` subprocess and one client connection.

    Every key is answered in setup, then a Zipf-weighted list of those keys
    is sent: every timed query is a verdict-cache hit.
    """

    name = "svc-hot"
    expected_layers = frozenset({"service.request"})
    #: Queries in the list, and the nominal rate that sizes the passes.
    LIST = 500
    QUERIES_PER_S = 6000

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.client = self.server = None

    def setup(self) -> None:
        from repro.service import ServiceClient, ServiceError

        # The socket path is relative to the run directory.
        self.socket_path = "svc.sock"
        self.log = open("server.log", "a")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket",
             self.socket_path, "--workers", "2"],
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        # The socket file appears at bind(), before listen(): retry refusals.
        deadline = time.monotonic() + 60
        while self.client is None:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start (see server.log)")
            try:
                self.client = ServiceClient(socket_path=self.socket_path, timeout=120)
            except ServiceError:
                time.sleep(0.01)
        if not self.client.ping():
            raise RuntimeError("server does not answer ping")
        self.keys = hot_keys()
        for cell in self.keys:
            outcome = self.run(cell, None)
            if outcome.error:
                raise RuntimeError(f"setup: {outcome.error}")

    def queries(self) -> list:
        return zipf_list(self.keys, self.LIST, self.seed)

    def passes(self) -> int:
        return max(1, round(self.QUERIES_PER_S * self.seconds / TRIALS / self.LIST))

    def run(self, cell: Cell, recorder) -> Outcome:
        reply = self.client.request(solve_frame(cell))
        if reply.get("status") != "ok":
            detail = reply.get("error") or reply.get("reason")
            return Outcome(False, f"{cell.label}: {reply.get('status')} {detail}", {})
        outcome = _solve_outcome(
            self.table, cell, 0, reply["verdict"], reply.get("rounds")
        )
        levels_ms = sum(level["elapsed_ms"] for level in reply.get("levels", ()))
        info = {"server_ms": reply["elapsed_ms"], "levels_ms": levels_ms,
                "cache": reply["cache"]}
        return outcome._replace(info=info)

    def service_stats(self) -> dict:
        return self.client.stats()

    def peak_root(self) -> int:
        return self.server.pid  # the client is the load generator

    def close(self) -> None:
        client = self.client
        if client is not None:
            try:
                client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to SIGTERM
                pass
            client.close()
        server = self.server
        if server is not None:
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            self.log.close()
        self.client = self.server = None


# -- the conformance workload --------------------------------------------------


def _warm_levels(cells) -> None:
    """Load-or-build ``SDS^b`` of every cell's input complex, and materialize it."""
    from repro.service.registry import resolve_task
    from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision

    for cell in cells:
        base = resolve_task(cell.task, cell.args).input_complex
        for rounds in range(1, cell.rounds + 1):
            iterated_standard_chromatic_subdivision(base, rounds).complex.vertices


class Conform(Workload):
    """``run_entry`` over the E20 sweep, the solve memo cleared before each cell."""

    name = "conform"
    #: Seconds of ``--seconds`` per timed pass of a trial (a pass takes
    #: about 2 s): at 30 s each query is timed 20 times a run, and its
    #: fastest time is its latency.
    SECONDS_PER_PASS = 7
    expected_layers = frozenset({
        "conformance.solve", "conformance.extract", "mc.explore",
        "solvability.solve", "topology.build", "models.restrict",
        "kernel.compile", "kernel.search", "solvability.validate",
    })

    def setup(self) -> None:
        from repro.conformance.entries import sweep_entries
        from repro.conformance.pipeline import run_entry

        entries = sweep_entries()
        _warm_levels([Cell(e.task_name, e.task_args, e.model, e.max_rounds) for e in entries])
        run_entry(entries[0])  # first-call costs: lazy imports, code paths

    def queries(self) -> list:
        return seeded_order(conform_entries(), self.seed)

    def passes(self) -> int:
        return max(1, round(self.seconds / self.SECONDS_PER_PASS))

    def label(self, entry) -> str:
        return f"{entry.label} b={entry.max_rounds}"

    def run(self, entry, recorder) -> Outcome:
        from repro.conformance.pipeline import run_entry
        from repro.conformance.scenario import clear_bundle_cache

        clear_bundle_cache()
        result = run_entry(entry)
        error = self.table.check_conform(entry.label, result.status)
        return Outcome(result.status in ("PASS", "SKIP"), error, {})


WORKLOADS = {cls.name: cls for cls in (SvcHot, Conform)}


# -- the timed phase -----------------------------------------------------------


class Pass(NamedTuple):
    labels: list[str]
    latencies: list[float]
    cycles: list[float]
    cpus: list[float]
    outcomes: list[Outcome]
    peak_mb: float


def timed_pass(workload: Workload, queries: list, recorder: Recorder | None) -> Pass:
    """One closed-loop pass over ``queries``, one query in flight.

    Per query: its latency (send to verdict), its cycle (wall time from
    its send to the next query's, the query's share of the pass's wall
    time) and the CPU the whole process tree spent in that cycle.
    """
    labels, latencies, cycles, cpus, outcomes = [], [], [], [], []
    clock = TreeClock()
    mark, cpu_mark = time.perf_counter(), clock.read()
    for query in queries:
        sent = time.perf_counter()
        try:
            outcome = workload.run(query, recorder)
        except Exception as exc:  # noqa: BLE001 - a failed query, not a crash
            outcome = Outcome(False, f"{type(exc).__name__}: {exc}", {})
        latencies.append(time.perf_counter() - sent)
        labels.append(workload.label(query))
        outcomes.append(outcome)
        now, cpu_now = time.perf_counter(), clock.read()
        cycles.append(now - mark)
        cpus.append((cpu_now - cpu_mark) / 1e9)
        mark, cpu_mark = now, cpu_now
    clock.check()
    peak = tree_peak_rss_mb(workload.peak_root())
    return Pass(labels, latencies, cycles, cpus, outcomes, peak)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fastest(runs: list[Pass], field: str = "latencies") -> list[float]:
    """Each query's least ``field`` value over passes of the same list."""
    return [min(values) for values in zip(*(getattr(run, field) for run in runs))]


def service_metrics(latencies: list[float], outcomes: list[Outcome], stats: dict) -> dict[str, float]:
    infos = [o.info for o in outcomes if o.info]
    if not infos:
        return dict.fromkeys(SERVICE_LAYER_UNITS, 0.0)
    rtt = [lat * 1e3 for lat, o in zip(latencies, outcomes) if o.info]
    server = [info["server_ms"] for info in infos]
    misses = [i["server_ms"] - i["levels_ms"] for i in infos if i["cache"] == "miss"]
    return {
        "service.rtt_ms": statistics.median(rtt),
        "service.server_ms": statistics.median(server),
        "service.transport_ms": statistics.median(r - s for r, s in zip(rtt, server)),
        "service.dispatch_ms": statistics.median(misses) if misses else 0.0,
        "service.cache_hit_rate": sum(i["cache"] != "miss" for i in infos) / len(infos),
        "service.queue_depth_peak": float(stats.get("queue_depth_peak", 0)),
    }


SERVICE_LAYER_UNITS = {
    "service.rtt_ms": "ms",
    "service.server_ms": "ms",
    "service.transport_ms": "ms",
    "service.dispatch_ms": "ms",
    "service.cache_hit_rate": "share",
    "service.queue_depth_peak": "count",
}

LAYER_UNITS = {
    "topology.build_ms": "ms",
    "topology.store_hit_rate": "share",
    "topology.store_bytes_written": "bytes",
    "models.restrict_ms": "ms",
    "models.kept_top_share": "share",
    "kernel.compile_ms": "ms",
    "kernel.vertices": "count",
    "kernel.search_ms": "ms",
    "kernel.nodes": "count",
    "kernel.nodes_per_s": "1/s",
    "kernel.budget_hit_share": "share",
    "solvability.validate_ms": "ms",
    "solvability.levels_probed": "count",
    "solvability.self_ms": "ms",
    **SERVICE_LAYER_UNITS,
    "conformance.solve_ms": "ms",
    "conformance.extract_ms": "ms",
    "mc.schedules": "count",
    "mc.schedules_per_s": "1/s",
    "trace.overhead_share": "share",
}


def _store_bytes() -> int:
    """``cache_info()`` bytes of the run's SDS store (the server's too)."""
    from repro.topology.sds_cache import cache_info

    info = cache_info()
    return info["bytes"] + info["shard_bytes"]


def report_failures(run: Pass) -> int:
    failed = [o.error for o in run.outcomes if o.error]
    for error in failed[:10]:
        print(f"perfbench: failed query: {error}", file=sys.stderr)
    return len(failed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--rundir", required=True, type=Path)
    args = parser.parse_args()

    table = VerdictTable()
    cls = WORKLOADS[args.workload]

    def fresh() -> Workload:
        workload = cls(args.seed, args.seconds, args.rundir, table)
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        return workload

    workload = fresh()
    try:
        queries = workload.queries()
        print("READY", flush=True)
        if args.mode == "measure":
            runs = [timed_pass(workload, queries, None) for _ in range(workload.passes())]
            failed = sum(report_failures(run) for run in runs)
            print(json.dumps({
                "labels": runs[0].labels,
                "latencies": _fastest(runs),
                "cycles": _fastest(runs, "cycles"),
                "cpus": _fastest(runs, "cpus"),
                "peak_mb": max(run.peak_mb for run in runs),
                "attempted": sum(len(run.outcomes) for run in runs),
                "decided": sum(o.decided for run in runs for o in run.outcomes),
                "failed": failed,
            }), flush=True)
            return 0 if failed == 0 else 1
        else:
            # Untraced and traced passes alternate, so a drift in the
            # machine's speed does not read as tracing overhead.
            plain, traced, written = [], [], 0
            recorder = Recorder()
            for _ in range(workload.passes()):
                plain.append(timed_pass(workload, queries, None))
                bytes_before = _store_bytes()
                recorder.install()
                try:
                    traced.append(timed_pass(workload, queries, recorder))
                finally:
                    recorder.uninstall()
                written += _store_bytes() - bytes_before
            failed = sum(report_failures(run) for run in plain + traced)
            attempted = sum(len(run.outcomes) for run in plain + traced)
            missing = workload.expected_layers - {k for k, v in recorder.calls.items() if v}
            if missing:
                print(f"perfbench: shims that never fired: {sorted(missing)}", file=sys.stderr)
                failed += 1
            values = layer_metrics(recorder, len(queries), len(traced))
            values["topology.store_bytes_written"] = float(written / len(traced))
            values.update(service_metrics(
                [lat for run in traced for lat in run.latencies],
                [o for run in traced for o in run.outcomes],
                workload.service_stats(),
            ))
            values["trace.overhead_share"] = (
                statistics.median(_fastest(traced)) / statistics.median(_fastest(plain)) - 1
            )
            metrics = {name: _metric(values[name], unit) for name, unit in LAYER_UNITS.items()}
    finally:
        workload.close()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
