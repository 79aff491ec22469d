#!/usr/bin/env python3
"""The repository benchmark: two fixed-list workloads over the solver's user paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload svc-hot --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one query in flight; see README.md):
``svc-hot`` and ``conform``.

With ``--trace 0`` the last line of standard output is the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  The
launcher precompiles ``src/`` into a private bytecode cache first (so
set-up time does not time CPython's compiler), gives each process tree a
private SDS store under ``.bench_build/`` and deletes it afterwards.

A run is five independent **trials**.  Each is a fresh process tree on a
fresh store: it sets up, then times its passes over the workload's fixed
query list.
``setup_s`` is the median trial's time from spawn to its first timed
query.  Every query is timed once per pass, and each position of the
list keeps its fastest latency, cycle (send to next send) and CPU over
all passes of all trials: ``latency_p50_ms``/``latency_p90_ms`` are
nearest-rank percentiles of the fastest latencies, ``queries_per_s`` the
list's length over the sum of fastest cycles, and ``cpu_ms_per_query``
the mean least CPU.  The whole run is pinned to one CPU, so a query's
hops between processes are context switches on that CPU rather than
cross-CPU wake-ups.  A shared host's speed moves by a third from one
second to the next, with other tenants; the fastest of many short
samples spread over the run reads the code's cost rather than the
neighbours'.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generator import TRIALS, WORKLOADS
from measure import nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard stop for one process tree; the whole run must end within 180 s.
TREE_TIMEOUT_S = 150


def _environment(pycache: Path, store: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["REPRO_SDS_CACHE_DIR"] = str(store)
    # One string-hash layout for every process, so a run's set and dict
    # orders, and the work that follows them, do not change between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def _precompile(pycache: Path) -> None:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )


class Tree:
    """One generator process (and everything it starts), read line by line."""

    def __init__(self, argv: list[str], env: dict, cwd: Path):
        self.started = time.perf_counter()
        self.deadline = time.monotonic() + TREE_TIMEOUT_S
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.PIPE, start_new_session=True
        )
        self.buffer = b""

    def readline(self) -> str:
        """The next stdout line; '' at EOF.  Raises TimeoutError past the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError("benchmark process tree timed out")
            chunk = os.read(fd, 65536)
            if not chunk:
                line, self.buffer = self.buffer, b""
                return line.decode()
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode() + "\n"

    def finish(self) -> int:
        try:
            return self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.kill()

    def kill(self) -> None:
        try:  # the generator's session: server and pool workers
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def run_tree(args, mode: str, rundir: Path, pycache: Path) -> tuple[float, list[str], int]:
    """Spawn one generator; returns (seconds to READY, lines after it, exit code)."""
    rundir.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "generator.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--rundir", str(rundir),
    ]
    # The generator runs in its run directory, so the service socket can be
    # a short relative path whatever the checkout's location.
    tree = Tree(argv, _environment(pycache, rundir / "sds"), rundir)
    try:
        setup = None
        lines = []
        while True:
            line = tree.readline()
            if not line:
                break
            if line.strip() == "READY" and setup is None:
                setup = time.perf_counter() - tree.started
            elif setup is not None:
                lines.append(line.rstrip("\n"))
        code = tree.finish()
    except BaseException:
        tree.kill()
        raise
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if setup is None:
        raise RuntimeError(f"{mode} process exited (code {code}) before READY")
    return setup, lines, code


def _least(records: list[dict], field: str) -> list[float]:
    """Each list position's least ``field`` value over the trials."""
    return [min(values) for values in zip(*(r[field] for r in records))]


def aggregate(workload: str, setups: list[float], records: list[dict]) -> dict:
    """The end-to-end metrics of a run from its trials' records."""
    fastest = _least(records, "latencies")
    cycles = _least(records, "cycles")
    cpus = _least(records, "cpus")
    n = len(fastest)
    labels = records[0]["labels"]
    attempted = sum(r["attempted"] for r in records)
    line = [f"# {workload}: n={n}, {attempted} timed in {len(records)} trials"]
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    for p in (50, 90):
        value, index = nearest_rank(fastest, p)
        line.append(f"p{p}={value * 1e3:.3f}ms on #{index} {labels[index]}")
        metrics[f"latency_p{p}_ms"] = {"value": value * 1e3, "unit": "ms"}
    print(" | ".join(line))
    print(f"# setup trials: {', '.join(f'{s:.3f}s' for s in setups)}")
    metrics.update({
        "queries_per_s": {"value": n / sum(cycles), "unit": "1/s"},
        "cpu_ms_per_query": {"value": sum(cpus) * 1e3 / n, "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_mb"] for r in records), "unit": "MB"},
        "decided_share": {"value": sum(r["decided"] for r in records) / attempted,
                          "unit": "share"},
    })
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _last_json(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # One CPU for the whole tree; children inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    build = ROOT / ".bench_build"
    pycache = build / "pycache"
    _precompile(pycache)
    run_root = build / f"run-{os.getpid()}"
    try:
        if args.trace:
            _, lines, code = run_tree(args, "trace", run_root / "trace", pycache)
            result = _last_json(lines)
        else:
            setups, records = [], []
            for trial in range(TRIALS):
                setup, lines, code = run_tree(args, "measure", run_root / f"trial-{trial}", pycache)
                setups.append(setup)
                records.append(_last_json(lines))
            result = None if None in records else aggregate(args.workload, setups, records)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    if result is None:
        print(f"perfbench: a {args.workload} process exited {code} without a result",
              file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
