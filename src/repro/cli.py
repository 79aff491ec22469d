"""Command-line interface: ``python -m repro <command>``.

Commands mirror the examples so a user can poke the library without
writing code:

* ``zoo``      — the solvability table over the task zoo (experiment E5);
* ``sds``      — build ``SDS^b(sⁿ)``, print structure, optionally export;
* ``emulate``  — run the Figure 2 emulation and report the legality check;
* ``rename``   — run (2p−1)-renaming, natively or over the emulation;
* ``mc``       — model-check a scenario: reduced exhaustive exploration,
  crash injection, counterexample minimization and replay;
* ``trace``    — run a traced workload sweep (emulation, SDS build, kernel
  solve, small model-checking run) and export ``repro-obs-v1`` JSONL; with
  ``--from``/``--query-id``, cut one service query's spans out of an export;
* ``stats``    — validate a capture file and render its spans/counters;
* ``cache``    — inspect, clear or warm the persistent ``SDS^b`` build cache;
* ``serve``    — run the always-warm solvability service (``repro-svc-v1``);
* ``query``    — query a running service (solve/ping/stats/shutdown).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.core import characterize
    from repro.core.characterization import Verdict
    from repro.core.solvability import SolvabilityStatus, solve_task
    from repro.models import ModelRestrictionEmpty, parse_model
    from repro.tasks import (
        approximate_agreement_task,
        binary_consensus_task,
        constant_task,
        graph_agreement_task,
        identity_task,
        participating_set_task,
        set_consensus_task,
    )
    from repro.tasks.graph_agreement import cycle_graph, path_graph

    zoo = [
        (identity_task(2), 1),
        (constant_task(3), 1),
        (binary_consensus_task(2), args.max_rounds),
        (set_consensus_task(3, 2), 1),
        (set_consensus_task(3, 3), 1),
        (approximate_agreement_task(2, 3), 2),
        (approximate_agreement_task(2, 9), 2),
        (approximate_agreement_task(3, 2), 1),
        (participating_set_task(3), 1),
        (graph_agreement_task(path_graph(3)), 1),
        (graph_agreement_task(cycle_graph(5)), 1),
    ]
    model = None
    if getattr(args, "model", None) not in (None, "iis"):
        try:
            model = parse_model(args.model)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"model: {model.fingerprint}")
    print(f"{'task':42s}  {'verdict':12s}  detail")
    print("-" * 80)
    for task, max_rounds in zoo:
        if model is not None:
            # Certificates argue about the full IIS model; under a
            # restriction only the level-by-level search applies.
            try:
                result = solve_task(task, max_rounds, model=model)
            except ModelRestrictionEmpty:
                print(f"{task.name:42.42s}  {'empty':12s}  model admits no run")
                continue
            if result.status is SolvabilityStatus.SOLVABLE:
                detail = f"decision map at b = {result.rounds}"
            else:
                detail = f"no map up to b = {max_rounds}"
            print(f"{task.name:42.42s}  {result.status.value:12s}  {detail}")
            continue
        result = characterize(task, max_rounds=max_rounds)
        if result.verdict is Verdict.SOLVABLE:
            detail = f"decision map at b = {result.rounds}"
        elif result.certificate is not None:
            detail = f"{result.certificate.kind} certificate (all rounds)"
        else:
            detail = f"no map up to b = {max_rounds}"
        print(f"{task.name:42.42s}  {result.verdict.value:12s}  {detail}")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.models import model_registry, parse_model

    registry = model_registry()
    if args.action == "list":
        print(f"{'model':18s}  {'arity':8s}  summary")
        print("-" * 72)
        for name in sorted(registry):
            spec = registry[name]
            arity = "variadic" if spec.arity < 0 else str(spec.arity)
            print(f"{name:18s}  {arity:8s}  {spec.summary}")
        return 0
    # describe
    name = args.model
    if name is None:
        print("models describe requires a model name", file=sys.stderr)
        return 2
    try:
        model = parse_model(name) if ("(" in name or ":" in name) else None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    family = model.name if model is not None else name
    spec = registry.get(family)
    if spec is None:
        print(
            f"unknown model {family!r} (one of {', '.join(sorted(registry))})",
            file=sys.stderr,
        )
        return 2
    arity = "variadic (>= 1 argument)" if spec.arity < 0 else f"{spec.arity} argument(s)"
    print(f"{spec.name} — {spec.summary}")
    print(f"  arity: {arity}")
    if model is not None:
        print(f"  instance: {model.fingerprint} (cache slug {model.slug})")
    doc = spec.factory.__doc__ or ""
    for line in doc.strip().splitlines():
        print(f"  {line.strip()}")
    return 0


def _cmd_sds(args: argparse.Namespace) -> int:
    from repro.analysis.export import complex_to_json, complex_to_off, skeleton_to_dot
    from repro.topology import (
        SimplicialComplex,
        iterated_standard_chromatic_subdivision,
    )
    from repro.topology.holes import betti_numbers_mod2
    from repro.topology.vertex import vertices_of

    base = SimplicialComplex.from_vertices(vertices_of(range(args.n + 1)))
    sds = iterated_standard_chromatic_subdivision(base, args.rounds)
    sds.validate(chromatic=True)
    complex_ = sds.complex
    print(f"SDS^{args.rounds}(s^{args.n}):")
    print(f"  f-vector          : {complex_.f_vector()}")
    print(f"  Euler characteristic: {complex_.euler_characteristic()}")
    print(f"  chromatic / pure  : {complex_.is_chromatic()} / {complex_.is_pure()}")
    print(f"  pseudomanifold    : {complex_.is_pseudomanifold()}")
    print(f"  Betti (mod 2)     : {betti_numbers_mod2(complex_)}")
    if args.out:
        if args.format == "json":
            payload = complex_to_json(complex_)
        elif args.format == "dot":
            payload = skeleton_to_dot(complex_)
        else:
            from repro.core.approximation import iterated_with_embedding

            built = iterated_with_embedding(base, args.rounds, "sds")
            payload = complex_to_off(complex_, built.embedding)
        with open(args.out, "w") as handle:
            handle.write(payload)
        print(f"  wrote {args.format} to {args.out}")
    return 0


def _cmd_emulate(args: argparse.Namespace) -> int:
    import statistics

    from repro.core.emulation import EmulationHarness
    from repro.runtime.adversary import MaxContentionSchedule, StarvationSchedule
    from repro.runtime.scheduler import RandomSchedule, RoundRobinSchedule

    inputs = {pid: f"v{pid}" for pid in range(args.processes)}
    if args.schedule == "round-robin":
        schedule = RoundRobinSchedule()
    elif args.schedule == "random":
        schedule = RandomSchedule(args.seed, block_probability=args.block_probability)
    elif args.schedule == "starve":
        schedule = StarvationSchedule(victim=0)
    else:
        schedule = MaxContentionSchedule()
    harness = EmulationHarness(inputs, args.k)
    trace = harness.run(schedule)
    trace.check_legality()
    per_op = [count for _pid, _kind, count in trace.memories_per_op]
    print(f"emulated {args.k}-shot protocol, {args.processes} processes, "
          f"schedule={args.schedule}")
    print(f"  snapshot legality (Prop 4.1): PASS")
    print(f"  one-shot memories used      : {trace.total_memories}")
    print(f"  memories per op             : mean {statistics.mean(per_op):.2f}, "
          f"max {max(per_op)}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    from repro.core.approximation import iterated_with_embedding
    from repro.core.convergence import solve_csass, solve_ncsass
    from repro.runtime.scheduler import RandomSchedule
    from repro.topology import SimplicialComplex
    from repro.topology.vertex import vertices_of

    base = SimplicialComplex.from_vertices(vertices_of(range(args.n + 1)))
    target = iterated_with_embedding(base, args.m, "sds")
    if args.chromatic:
        protocol = solve_csass(target.subdivision, max_rounds=args.m + 1)
        outputs = protocol.run(RandomSchedule(args.seed))
        protocol.validate(outputs)
        kind = "chromatic simplex agreement (Theorem 5.1)"
    else:
        protocol = solve_ncsass(target.subdivision, target.embedding, max_k=args.m + 2)
        outputs = protocol.run(RandomSchedule(args.seed))
        protocol.validate(outputs)
        kind = "non-chromatic simplex agreement (Corollary 5.4)"
    print(f"{kind} over SDS^{args.m}(s^{args.n}), k = {protocol.rounds} IIS rounds")
    for pid in sorted(outputs):
        vertex = outputs[pid]
        carrier = target.subdivision.carrier(vertex)
        print(f"  process {pid} → vertex of color {vertex.color}, "
              f"carrier dim {carrier.dimension}")
    print("  outputs form a simplex of A inside the participants' face ✓")
    return 0


def _cmd_narrate(args: argparse.Namespace) -> int:
    from repro.analysis.narrate import narrate_run, summarize_block_structure
    from repro.runtime.iterated import iis_full_information
    from repro.runtime.ops import Decide
    from repro.runtime.scheduler import RandomSchedule, Scheduler

    def factory_for(pid):
        def factory(p):
            def protocol():
                view = yield from iis_full_information(p, f"v{p}", args.rounds)
                yield Decide(view)

            return protocol()

        return factory

    factories = {pid: factory_for(pid) for pid in range(args.processes)}
    scheduler = Scheduler(factories, args.processes, record_events=True)
    result = scheduler.run(
        RandomSchedule(args.seed, block_probability=args.block_probability)
    )
    print(f"IIS full-information protocol, {args.processes} processes, "
          f"{args.rounds} rounds, seed {args.seed}\n")
    print(narrate_run(result))
    print("\nordered partitions per memory (the §3.5 execution):")
    for index, blocks in sorted(summarize_block_structure(result).items()):
        rendered = " < ".join("{" + ",".join(map(str, b)) + "}" for b in blocks)
        print(f"  M{index}: {rendered}")
    return 0


def _cmd_rename(args: argparse.Namespace) -> int:
    from repro.runtime.scheduler import RandomSchedule
    from repro.tasks.renaming import RenamingProtocol

    ids = {pid: (pid + 1) * 17 % 101 for pid in range(args.processes)}
    protocol = RenamingProtocol(ids)
    names = protocol.run(RandomSchedule(args.seed), over_iis=args.over_iis)
    protocol.validate(names, participants=args.processes)
    model = "IIS (via the Figure 2 emulation)" if args.over_iis else "registers"
    print(f"renaming over {model}: originals {ids} → names {names}")
    print(f"  distinct, within 1..{2 * args.processes - 1} ✓")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.analysis.export import exploration_to_json
    from repro.analysis.statistics import summarize_exploration
    from repro.mc import (
        CrashBudget,
        EmulationScenario,
        ExploreOptions,
        IISScenario,
        explore,
        explore_parallel,
        minimize_schedule,
        replay_file,
        replay_to_json,
    )
    from repro.runtime.scheduler import SchedulerTimeout

    if args.replay:
        loaded, outcome = replay_file(args.replay)
        print(f"replaying {args.replay}: scenario {loaded.scenario.name}, "
              f"{len(loaded.schedule)} actions")
        if outcome.reproduced:
            print(f"  reproduced: {outcome.violation}")
            if (
                loaded.expected_property is not None
                and outcome.violation.property_name != loaded.expected_property
            ):
                print(f"  (file expected {loaded.expected_property!r})")
            return 0
        if loaded.expected_property is None:
            print("  clean run (file records no violation) ✓")
            return 0
        print(f"  FAILED to reproduce expected {loaded.expected_property!r}")
        return 1

    if args.scenario == "emulation":
        scenario = EmulationScenario(
            processes=args.processes, k=args.k, mutate=args.mutate
        )
    else:
        if args.mutate:
            print("--mutate applies to the emulation scenario only",
                  file=sys.stderr)
            return 2
        scenario = IISScenario(processes=args.processes, rounds=args.rounds)

    crash_pids = (
        tuple(int(p) for p in args.crash_pids.split(",")) if args.crash_pids else None
    )
    options = ExploreOptions(
        reduction=not args.naive,
        state_cache=not args.naive and not args.no_cache,
        crash_budget=CrashBudget(max_crashes=args.crashes, pids=crash_pids),
        max_depth=args.max_depth,
    )

    try:
        if args.workers > 1:
            report = explore_parallel(scenario, options, workers=args.workers)
        else:
            report = explore(scenario, options)
        naive_report = None
        if args.compare and not args.naive:
            naive_report = explore(
                scenario,
                ExploreOptions(
                    reduction=False,
                    state_cache=False,
                    crash_budget=options.crash_budget,
                    max_depth=options.max_depth,
                    stop_on_violation=options.stop_on_violation,
                ),
            )
    except SchedulerTimeout as timeout:
        print(f"exploration hit a scheduler timeout: {timeout}")
        print(timeout.diagnostics())
        return 1

    mode = "naive" if args.naive else "reduced"
    print(f"model checking {scenario.name} [{mode}"
          f"{f', {args.workers} workers' if args.workers > 1 else ''}"
          f"{f', <= {args.crashes} crashes' if args.crashes else ''}]")
    print(f"  {summarize_exploration(report, naive_report)}")
    stats = report.stats
    print(f"  reductions: {stats.persistent_hits} persistent-set, "
          f"{stats.sleep_pruned} sleep-set, {stats.cache_hits} state-cache")
    if naive_report is not None:
        ratio = naive_report.stats.executions / max(stats.executions, 1)
        print(f"  naive twin : {naive_report.stats.executions} schedules, "
              f"{naive_report.stats.states_expanded} states "
              f"-> {ratio:.2f}x reduction, outcome sets "
              f"{'agree ✓' if naive_report.outcomes == report.outcomes else 'DISAGREE ✗'}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(exploration_to_json(report, naive_report))
        print(f"  wrote report to {args.report}")

    if report.ok:
        print(f"  all {len(report.outcomes)} outcomes satisfy "
              f"{', '.join(p.name for p in scenario.properties())} ✓")
        return 0

    violation = report.violation
    print(f"  VIOLATION: {violation}")
    schedule = violation.schedule
    if not args.no_minimize:
        result = minimize_schedule(scenario, schedule)
        schedule = result.schedule
        print(f"  minimized {result.original_length} -> {len(schedule)} actions "
              f"({result.candidates_tried} candidates): {result.violation.message}")
        if result.timeout_diagnostics:
            print(f"  (a candidate stalled)\n{result.timeout_diagnostics}")
        violation = result.violation
    if args.save_replay:
        with open(args.save_replay, "w") as handle:
            handle.write(replay_to_json(scenario, schedule, violation))
        print(f"  wrote replay to {args.save_replay} "
              f"(re-drive with: repro mc --replay {args.save_replay})")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.service import ServiceConfig, SolvabilityService

    warm_levels = []
    if args.warm:
        for pair in args.warm.split(","):
            n, _, b = pair.partition(":")
            try:
                warm_levels.append((int(n), int(b)))
            except ValueError:
                print(f"--warm expects n:b pairs, got {pair!r}", file=sys.stderr)
                return 2
    socket_path = args.socket
    if socket_path is None and args.port is None:
        socket_path = "repro-svc.sock"
    try:
        config = ServiceConfig(
            socket_path=socket_path,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
            default_deadline_ms=args.deadline_ms,
            max_results=args.max_results,
            substrate_bytes_budget=args.cache_max_bytes,
            warm_levels=tuple(warm_levels) if warm_levels else
            ServiceConfig.__dataclass_fields__["warm_levels"].default,
            trace_out=args.trace_out,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    async def serve() -> None:
        service = SolvabilityService(config)
        await service.start()
        listening = []
        if service.endpoints.socket_path is not None:
            listening.append(f"unix:{service.endpoints.socket_path}")
        if service.endpoints.tcp is not None:
            host, port = service.endpoints.tcp
            listening.append(f"tcp:{host}:{port}")
        mode = f"{config.workers} workers" if config.workers else "in-process"
        print(
            f"repro-svc-v1 serving on {', '.join(listening)} ({mode})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, service._stop_event.set)
        try:
            await service.serve_until_stopped()
        finally:
            await service.stop()
            snapshot = service.state.stats.snapshot()
            print(
                f"served {snapshot['queries']} queries "
                f"(hit rate {snapshot['cache_hit_rate']:.2f}, "
                f"p95 {snapshot['latency_ms']['p95']:.2f}ms); bye",
                flush=True,
            )

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    if args.socket is None and args.port is None:
        print("query needs --socket PATH or --port N", file=sys.stderr)
        return 2
    ops_chosen = sum(bool(flag) for flag in (args.ping, args.stats, args.shutdown))
    if ops_chosen > 1 or (ops_chosen == 0 and args.task is None):
        print(
            "give a task spec (e.g. `repro query set_consensus 3 2`) or exactly "
            "one of --ping/--stats/--shutdown",
            file=sys.stderr,
        )
        return 2
    try:
        client = ServiceClient(
            socket_path=args.socket, host=args.host, port=args.port,
            timeout=args.timeout,
        )
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        if args.ping:
            ok = client.ping()
            print("pong" if ok else "no pong")
            return 0 if ok else 1
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            ok = client.shutdown()
            print("server stopping" if ok else "server refused")
            return 0 if ok else 1
        reply = client.solve(
            args.task,
            args.args,
            min_rounds=args.min_rounds,
            max_rounds=args.max_rounds,
            node_budget=args.node_budget,
            deadline_ms=args.deadline_ms,
            shards=args.shards,
            model=args.model,
        )
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        client.close()
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0 if reply.get("status") == "ok" else 1
    status = reply.get("status")
    spec = f"{args.task}({', '.join(map(str, args.args))})"
    if args.model not in (None, "iis"):
        spec += f" under {args.model}"
    if status == "ok":
        rounds = reply.get("rounds")
        detail = f" at b = {rounds}" if rounds is not None else ""
        print(
            f"{spec}: {reply['verdict']}{detail} "
            f"[cache {reply['cache']}, {reply['elapsed_ms']}ms, "
            f"trace {reply['query_id']}]"
        )
        for level in reply.get("levels", []):
            outcome = "SAT" if level["satisfiable"] else (
                "UNSAT" if level["exhausted"] else "budget-stopped"
            )
            print(
                f"  level {level['rounds']}: {outcome}, "
                f"{level['nodes']} nodes, {level['vertices']} vertices, "
                f"{level['elapsed_ms']}ms"
            )
        return 0
    if status == "overloaded":
        print(f"{spec}: overloaded ({reply.get('reason')}) "
              f"[trace {reply.get('query_id')}]")
        return 1
    print(f"{spec}: error: {reply.get('error')}", file=sys.stderr)
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.query_id and not args.from_file:
        print("--query-id needs --from CAPTURE.jsonl (a service trace export)",
              file=sys.stderr)
        return 2
    if args.from_file:
        return _trace_filter(args)
    from repro.core.emulation import EmulationHarness
    from repro.core.solvability import SearchOptions, solve_task
    from repro.mc import CrashBudget, EmulationScenario, ExploreOptions, explore
    from repro.obs import capture
    from repro.obs.export import capture_to_jsonl
    from repro.runtime.scheduler import RandomSchedule
    from repro.tasks import set_consensus_task
    from repro.topology import (
        SimplicialComplex,
        iterated_standard_chromatic_subdivision,
    )
    from repro.topology.vertex import vertices_of

    label = f"trace(p={args.processes},k={args.k},b={args.rounds})"
    with capture(profile=args.profile) as cap:
        # Scheduler spans: the Figure 2 emulation under a random schedule.
        inputs = {pid: f"v{pid}" for pid in range(args.processes)}
        EmulationHarness(inputs, args.k).run(RandomSchedule(args.seed))
        # SDS spans + intern counters: SDS^b(s^{p-1}).
        base = SimplicialComplex.from_vertices(vertices_of(range(args.processes)))
        iterated_standard_chromatic_subdivision(base, args.rounds)
        # Kernel spans + search counters: an unsolvable probe exercises the
        # conflict/backjump machinery, a solvable one exits early.
        task = set_consensus_task(args.processes, max(args.processes - 1, 1))
        solve_task(task, max_rounds=1, options=SearchOptions(kernel=True))
        # MC spans: a small scenario keeps the default invocation fast (the
        # full p=3 walk takes ~30 s).  Two walks — reduced (sleep/persistent
        # counters) and state-cache-only (under sleep sets the fingerprint
        # cache's subset condition rarely fires, so its hits show up here).
        if not args.skip_mc:
            scenario = EmulationScenario(processes=args.mc_processes, k=args.mc_k)
            budget = CrashBudget(max_crashes=args.crashes)
            explore(
                scenario,
                ExploreOptions(crash_budget=budget, stop_on_violation=False),
            )
            explore(
                scenario,
                ExploreOptions(
                    reduction=False,
                    state_cache=True,
                    crash_budget=budget,
                    stop_on_violation=False,
                ),
            )
    payload = capture_to_jsonl(cap, label=label)
    if args.out == "-":
        sys.stdout.write(payload)
        return 0
    with open(args.out, "w") as handle:
        handle.write(payload)
    spans = len(cap.tracer.spans)
    series = len(list(cap.metrics.series()))
    print(f"traced {label}: {spans} spans, {series} metric series"
          f"{f', {len(cap.profiler.records)} profiles' if args.profile else ''}")
    print(f"  wrote {args.out} (render with: repro stats {args.out})")
    return 0


def _trace_filter(args: argparse.Namespace) -> int:
    """``repro trace --from capture.jsonl --query-id q-000042``: cut one
    service query's spans out of a ``repro-obs-v1`` export."""
    import json

    from repro.obs.export import (
        SchemaError,
        load_capture_jsonl,
        spans_for_query,
    )

    try:
        with open(args.from_file) as handle:
            document = load_capture_jsonl(handle.read())
    except OSError as exc:
        print(f"cannot read {args.from_file}: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"malformed capture: {exc}", file=sys.stderr)
        return 2
    if args.query_id:
        spans = spans_for_query(document, args.query_id)
        if not spans:
            print(f"no spans tagged query_id={args.query_id!r} in "
                  f"{args.from_file}", file=sys.stderr)
            return 1
    else:
        spans = document.spans
    lines = [json.dumps(document.meta, sort_keys=True)]
    lines += [json.dumps(span, sort_keys=True) for span in spans]
    payload = "\n".join(lines) + "\n"
    if args.out == "-" or args.out == "trace.jsonl":
        # Filter mode defaults to stdout: the natural pipe target is jq/stats.
        sys.stdout.write(payload)
        return 0
    with open(args.out, "w") as handle:
        handle.write(payload)
    print(f"wrote {len(spans)} span(s) to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.statistics import summarize_capture
    from repro.obs.export import SchemaError, load_capture_jsonl

    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as handle:
                text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        document = load_capture_jsonl(text)
    except SchemaError as exc:
        print(f"malformed capture: {exc}", file=sys.stderr)
        return 2
    try:
        print(summarize_capture(document).render())
    except BrokenPipeError:
        # Downstream (head, a closed pager) stopped reading; not an error.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.topology import sds_cache

    try:
        if args.action == "info":
            info = sds_cache.cache_info()
            state = "enabled" if info["enabled"] else "disabled"
            print(f"persistent SDS cache [{info['schema']} rev "
                  f"{info['engine_rev']}]: {state}")
            print(f"  directory  : {info['directory'] or '(none)'}")
            print(f"  entries    : {info['entries']}")
            print(f"  bytes      : {info['bytes']}")
            print(f"  shard sets : {info['shard_sets']} "
                  f"({info['shard_files']} files)")
            print(f"  shard bytes: {info['shard_bytes']}")
            for slug in sorted(info.get("models", {})):
                bucket = info["models"][slug]
                print(f"  model {slug:14s}: {bucket['entries']} "
                      f"entr{'y' if bucket['entries'] == 1 else 'ies'}, "
                      f"{bucket['bytes']} bytes")
            for slug in sorted(info.get("shard_models", {})):
                bucket = info["shard_models"][slug]
                print(f"  shards {slug:13s}: {bucket['sets']} "
                      f"set{'' if bucket['sets'] == 1 else 's'}, "
                      f"{bucket['files']} files, {bucket['bytes']} bytes")
        elif args.action == "clear":
            removed = sds_cache.clear_cache()
            print(f"removed {removed} cache file{'' if removed == 1 else 's'}")
        elif args.action == "prune":
            if args.max_bytes is None:
                print("cache prune requires --max-bytes", file=sys.stderr)
                return 2
            report = sds_cache.prune(args.max_bytes, model_slug=args.model)
            print(f"pruned to <= {report['max_bytes']} bytes: "
                  f"removed {report['removed_units']} unit(s) "
                  f"({report['removed_bytes']} bytes), "
                  f"kept {report['kept_units']} unit(s) "
                  f"({report['kept_bytes']} bytes)")
        else:  # warm
            outcome = sds_cache.warm(args.n, args.rounds)
            print(f"warm SDS^{args.rounds}(s^{args.n}): {outcome['outcome']} "
                  f"({outcome['tops']} tops, {outcome['seconds']:.3f}s)")
            if outcome["outcome"] == "built-unstored":
                print("  (cache disabled or unwritable; build was not persisted)",
                      file=sys.stderr)
    except BrokenPipeError:
        # Same contract as `repro stats`: a closed reader is not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _conform_line(result) -> str:
    """One report row: status, cell, verdict context, work accounting."""
    cell = f"{result.task}@{result.model}"
    line = f"{result.status:<4} {cell:<44}"
    if result.status == "SKIP":
        return f"{line} {result.reason}"
    backends = " ".join(
        f"{backend}:{mode}" for backend, mode in sorted(result.backends.items())
    )
    line += (f" b={result.rounds} schedules={result.schedules} "
             f"extract={result.extraction_runs} outcomes folded [{backends}]")
    if result.status == "FAIL":
        line += f"\n     {result.violation}"
        if result.minimized_to is not None:
            line += (f"\n     minimized {result.minimized_from} -> "
                     f"{result.minimized_to} action(s), replay "
                     f"{'verified' if result.replay_verified else 'NOT verified'}")
        if result.replay_path:
            line += f"\n     replay: {result.replay_path}"
    return line


def _cmd_conform(args: argparse.Namespace) -> int:
    import json

    from repro.conformance import (
        ConformanceEntry,
        run_entry,
        run_mutation_self_test,
        run_sweep,
        smoke_entries,
        sweep_entries,
    )

    if args.self_test:
        self_test = run_mutation_self_test(
            crashes=args.crashes, replay_dir=args.replay_dir
        )
        result = self_test.result
        print(f"mutation self-test on {self_test.entry.label}: "
              f"corrupted entry {self_test.mutation}")
        print(_conform_line(result))
        if self_test.ok:
            print("self-test OK: mutation caught, minimized, replay verified")
            return 0
        print("self-test FAILED: the pipeline did not catch the mutation",
              file=sys.stderr)
        return 1

    if args.sweep or args.smoke:
        entries = smoke_entries() if args.smoke else sweep_entries()
        results = run_sweep(
            entries, crashes=args.crashes, replay_dir=args.replay_dir
        )
        if args.json:
            print(json.dumps([r.to_json() for r in results], indent=2))
        else:
            for result in results:
                print(_conform_line(result))
            passed = sum(1 for r in results if r.status == "PASS")
            skipped = sum(1 for r in results if r.status == "SKIP")
            failed = sum(1 for r in results if r.status == "FAIL")
            print(f"{passed} PASS, {skipped} SKIP, {failed} FAIL "
                  f"({sum(r.schedules for r in results)} schedules, "
                  f"{sum(r.extraction_runs for r in results)} outcomes folded "
                  "by extraction)")
        return 0 if all(r.ok for r in results) else 1

    if not args.task:
        print("conform: give a task (e.g. `repro conform consensus 2`) "
              "or --sweep / --self-test", file=sys.stderr)
        return 2
    mutation = None
    if args.mutate:
        try:
            i, j = (int(piece) for piece in args.mutate.split(","))
            mutation = (i, j)
        except ValueError:
            print(f"--mutate expects I,J (two integers), got {args.mutate!r}",
                  file=sys.stderr)
            return 2
    entry = ConformanceEntry(
        args.task, tuple(args.args), args.model, args.max_rounds
    )
    try:
        result = run_entry(
            entry,
            crashes=args.crashes,
            replay_dir=args.replay_dir,
            mutation=mutation,
        )
    except ValueError as exc:
        print(f"conform: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(_conform_line(result))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Borowsky-Gafni wait-free characterization, executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="solvability table over the task zoo")
    zoo.add_argument("--max-rounds", type=int, default=2)
    zoo.add_argument(
        "--model", default=None,
        help="solve under an affine-task model, e.g. t_resilient:1 "
             "(see `repro models list`)",
    )
    zoo.set_defaults(func=_cmd_zoo)

    models = sub.add_parser(
        "models", help="list/describe the affine-task model zoo"
    )
    models.add_argument("action", choices=("list", "describe"))
    models.add_argument(
        "model", nargs="?",
        help="describe: a model family or instance, e.g. adversary or "
             "t_resilient(1)",
    )
    models.set_defaults(func=_cmd_models)

    sds = sub.add_parser("sds", help="build and inspect SDS^b(s^n)")
    sds.add_argument("-n", type=int, default=2, help="dimension (processes - 1)")
    sds.add_argument("-b", "--rounds", type=int, default=1)
    sds.add_argument("--out", help="write an export to this path")
    sds.add_argument("--format", choices=("json", "off", "dot"), default="json")
    sds.set_defaults(func=_cmd_sds)

    emulate = sub.add_parser("emulate", help="run the Figure 2 emulation")
    emulate.add_argument("-p", "--processes", type=int, default=3)
    emulate.add_argument("-k", type=int, default=2, help="snapshot rounds")
    emulate.add_argument(
        "--schedule",
        choices=("round-robin", "random", "starve", "contend"),
        default="random",
    )
    emulate.add_argument("--seed", type=int, default=0)
    emulate.add_argument("--block-probability", type=float, default=0.5)
    emulate.set_defaults(func=_cmd_emulate)

    converge = sub.add_parser(
        "converge", help="simplex agreement on SDS^m(s^n) (Theorem 5.1 / Cor 5.4)"
    )
    converge.add_argument("-n", type=int, default=2, help="dimension")
    converge.add_argument("-m", type=int, default=1, help="target subdivision level")
    converge.add_argument("--seed", type=int, default=0)
    converge.add_argument(
        "--chromatic",
        action="store_true",
        help="chromatic agreement (Theorem 5.1) instead of NCSASS",
    )
    converge.set_defaults(func=_cmd_converge)

    narrate = sub.add_parser(
        "narrate", help="narrate one IIS execution step by step"
    )
    narrate.add_argument("-p", "--processes", type=int, default=3)
    narrate.add_argument("-b", "--rounds", type=int, default=2)
    narrate.add_argument("--seed", type=int, default=0)
    narrate.add_argument("--block-probability", type=float, default=0.6)
    narrate.set_defaults(func=_cmd_narrate)

    rename = sub.add_parser("rename", help="run (2p-1)-renaming")
    rename.add_argument("-p", "--processes", type=int, default=3)
    rename.add_argument("--seed", type=int, default=0)
    rename.add_argument(
        "--over-iis",
        action="store_true",
        help="run over iterated immediate snapshots via the emulation",
    )
    rename.set_defaults(func=_cmd_rename)

    mc = sub.add_parser(
        "mc", help="model-check a scenario (reduced exhaustive exploration)"
    )
    mc.add_argument(
        "--scenario", choices=("emulation", "iis"), default="emulation"
    )
    mc.add_argument("-p", "--processes", type=int, default=2)
    mc.add_argument("-k", type=int, default=1, help="emulation snapshot rounds")
    mc.add_argument(
        "-r", "--rounds", type=int, default=1, help="IIS rounds (iis scenario)"
    )
    mc.add_argument(
        "--mutate",
        help="check a deliberately broken emulation variant (e.g. skip-freshness)",
    )
    mc.add_argument(
        "--crashes", type=int, default=0, help="crash-injection budget"
    )
    mc.add_argument(
        "--crash-pids", help="comma-separated pids eligible to crash (default: all)"
    )
    mc.add_argument(
        "--naive", action="store_true", help="disable all reductions (reference walk)"
    )
    mc.add_argument(
        "--no-cache", action="store_true", help="disable state-hash pruning only"
    )
    mc.add_argument(
        "--compare",
        action="store_true",
        help="also run the naive walk and report the reduction ratio",
    )
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--max-depth", type=int, default=400)
    mc.add_argument(
        "--no-minimize", action="store_true", help="skip ddmin on a counterexample"
    )
    mc.add_argument("--save-replay", help="write a counterexample replay file here")
    mc.add_argument("--report", help="write the exploration report (JSON) here")
    mc.add_argument(
        "--replay", help="re-drive a saved replay file instead of exploring"
    )
    mc.set_defaults(func=_cmd_mc)

    conform = sub.add_parser(
        "conform",
        help="conformance pipeline: solve, synthesize, model-check, round-trip",
    )
    conform.add_argument(
        "task", nargs="?", help="task spec name (see repro.service)"
    )
    conform.add_argument("args", nargs="*", type=int, help="task spec arguments")
    conform.add_argument(
        "--model", default="iis",
        help="model to solve/check under; `a&b` composes (intersection)",
    )
    conform.add_argument("-b", "--max-rounds", type=int, default=1)
    conform.add_argument(
        "--crashes", type=int, default=1,
        help="crash-injection budget for the exhaustive walks",
    )
    conform.add_argument(
        "--sweep", action="store_true",
        help="run the full zoo x model conformance matrix (EXPERIMENTS.md E20)",
    )
    conform.add_argument(
        "--smoke", action="store_true", help="run the CI-sized sweep subset"
    )
    conform.add_argument(
        "--self-test", action="store_true",
        help="corrupt one witness entry and prove the pipeline catches it",
    )
    conform.add_argument(
        "--mutate", metavar="I,J",
        help="corrupt domain vertex I to alternative image J before checking",
    )
    conform.add_argument(
        "--replay-dir", default=None,
        help="write counterexample replay files (repro-mc-replay-v1) here",
    )
    conform.add_argument("--json", action="store_true", help="machine-readable report")
    conform.set_defaults(func=_cmd_conform)

    trace = sub.add_parser(
        "trace", help="run a traced workload sweep, export repro-obs-v1 JSONL"
    )
    trace.add_argument("-p", "--processes", type=int, default=3)
    trace.add_argument("-k", type=int, default=1, help="emulation snapshot rounds")
    trace.add_argument("-b", "--rounds", type=int, default=1, help="SDS rounds")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--out", default="trace.jsonl", help="output path ('-' for stdout)"
    )
    trace.add_argument(
        "--profile", action="store_true", help="also collect cProfile records"
    )
    trace.add_argument(
        "--skip-mc", action="store_true", help="skip the model-checking stage"
    )
    trace.add_argument("--mc-processes", type=int, default=2)
    trace.add_argument("--mc-k", type=int, default=1)
    trace.add_argument(
        "--crashes", type=int, default=1, help="MC crash-injection budget"
    )
    trace.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="CAPTURE",
        help="filter an existing repro-obs-v1 export instead of tracing",
    )
    trace.add_argument(
        "--query-id",
        default=None,
        help="with --from: keep only this service query's spans (q-NNNNNN)",
    )
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="validate and render a repro-obs-v1 capture file"
    )
    stats.add_argument("file", help="capture JSONL path ('-' for stdin)")
    stats.set_defaults(func=_cmd_stats)

    cache = sub.add_parser(
        "cache", help="inspect/clear/warm/prune the persistent SDS^b build cache"
    )
    cache.add_argument("action", choices=("info", "clear", "warm", "prune"))
    cache.add_argument(
        "--n", type=int, default=3, help="dimension to warm (processes - 1)"
    )
    cache.add_argument("--b", "--rounds", dest="rounds", type=int, default=2)
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="prune: evict least-recently-used entries/shard sets above this total",
    )
    cache.add_argument(
        "--model",
        default=None,
        metavar="SLUG",
        help="prune: restrict eviction to one model slug's restricted shard sets",
    )
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the always-warm solvability service (repro-svc-v1)"
    )
    serve.add_argument("--socket", help="Unix socket path (default repro-svc.sock)")
    serve.add_argument("--host", default=None, help="TCP bind host (with --port)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="probe worker processes (0 = in-process threads)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission bound: uncached queries in flight")
    serve.add_argument("--deadline-ms", type=float, default=30_000.0,
                       help="default per-query deadline")
    serve.add_argument("--max-results", type=int, default=4096,
                       help="verdict LRU cache entries")
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="byte budget for the persistent SDS cache (LRU-pruned while serving)",
    )
    serve.add_argument(
        "--warm", default=None, metavar="N:B,N:B",
        help="SDS^b(s^n) levels each worker primes at startup "
             "(default 1:1,1:2,2:1,2:2)",
    )
    serve.add_argument(
        "--trace-out", default=None,
        help="serve inside an obs capture, export repro-obs-v1 JSONL here on exit",
    )
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query", help="query a running solvability service"
    )
    query.add_argument("task", nargs="?", help="task spec name (see repro.service)")
    query.add_argument("args", nargs="*", type=int, help="task spec arguments")
    query.add_argument("--socket", help="service Unix socket path")
    query.add_argument("--host", default=None)
    query.add_argument("--port", type=int, default=None)
    query.add_argument("--min-rounds", type=int, default=0)
    query.add_argument("--max-rounds", type=int, default=1)
    query.add_argument("--node-budget", type=int, default=None)
    query.add_argument("--deadline-ms", type=float, default=None)
    query.add_argument("--shards", type=int, default=None,
                       help="root-domain split of a single-level probe")
    query.add_argument("--model", default=None,
                       help="affine-task model to solve under, e.g. "
                            "t_resilient:1 (see `repro models list`)")
    query.add_argument("--timeout", type=float, default=60.0,
                       help="client-side transport timeout (seconds)")
    query.add_argument("--json", action="store_true", help="print the raw reply")
    query.add_argument("--ping", action="store_true")
    query.add_argument("--stats", action="store_true")
    query.add_argument("--shutdown", action="store_true")
    query.set_defaults(func=_cmd_query)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
