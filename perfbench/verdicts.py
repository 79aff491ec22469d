"""The verdict gate: every decided verdict is checked against a committed table.

``expectations.json`` holds, per cell label (``task(args)@model``), the
verdict of each single level ``b`` that some workload can ask about —
``"sat"`` (a decision map on ``SDS^b`` exists) or ``"unsat"`` — and the
E20 status (PASS/SKIP) of every conformance cell, each with its source:

* theory, where a classical result decides the level;
* a witness: a decision map that passes ``validate_decision_map`` on the
  ``models/reference.py`` restriction of ``SDS^b`` proves ``sat`` whichever
  search produced it;
* otherwise the reference oracle, ``solve_task(...,
  options=SearchOptions(kernel=False))``: the naive backtracking engine on
  the reference restriction, never the production kernel.  This is the
  only source of ``unsat`` entries besides theory.

Solvability is monotone in ``b`` (``SDS^{b+1}`` maps onto ``SDS^b``
respecting carriers), so a ``sat`` level fills every higher level and an
``unsat`` one every lower.

Regenerate (about a second, two worker processes)::

    PYTHONPATH=src python3 perfbench/verdicts.py --write
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from cells import Cell, hot_keys, model_frame

TABLE_PATH = Path(__file__).resolve().parent / "expectations.json"

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable-up-to-bound"
UNKNOWN = "unknown"


class VerdictTable:
    """Loaded ``expectations.json``; checks replies, never raises on them."""

    def __init__(self, path: Path = TABLE_PATH):
        with open(path) as handle:
            data = json.load(handle)
        self.levels: dict[str, dict[str, str]] = {
            label: row["levels"] for label, row in data["levels"].items()
        }
        self.conform: dict[str, str] = data["conform"]

    def check_solve(
        self, label: str, min_rounds: int, max_rounds: int, verdict: str, rounds
    ) -> str | None:
        """``None`` when the verdict agrees with the table, else the reason.

        UNKNOWN (budget stop) is never wrong.  SOLVABLE at level ``r`` needs
        ``r`` sat and every probed level below it unsat; UNSOLVABLE needs
        every probed level unsat.
        """
        if verdict == UNKNOWN:
            return None
        row = self.levels.get(label)
        if row is None:
            return f"{label}: no expectation"
        if verdict == SOLVABLE:
            if rounds is None or not min_rounds <= rounds <= max_rounds:
                return f"{label}: solvable at b={rounds} outside {min_rounds}..{max_rounds}"
            wanted = {str(b): "unsat" for b in range(min_rounds, rounds)}
            wanted[str(rounds)] = "sat"
        elif verdict == UNSOLVABLE:
            wanted = {str(b): "unsat" for b in range(min_rounds, max_rounds + 1)}
        else:
            return f"{label}: unexpected verdict {verdict!r}"
        for level, expected in wanted.items():
            found = row.get(level)
            if found != expected:
                return (
                    f"{label}: {verdict} (rounds={rounds}) but level {level} "
                    f"is {found or 'not in the table'}"
                )
        return None

    def check_conform(self, label: str, status: str) -> str | None:
        expected = self.conform.get(label)
        if expected is None:
            return f"{label}: no conformance expectation"
        if status != expected:
            return f"{label}: {status}, expected {expected}"
        return None


# -- building the table --------------------------------------------------------

#: The E20 sweep's settled statuses: 13 PASS and these three SKIPs.
CONFORM_SKIPS = {
    "consensus(2)@iis": "FLP: wait-free consensus is impossible",
    "set_consensus(3,2)@iis": "wait-free (3,2)-set consensus is impossible",
    "consensus(2)@t_resilient(0)&k_concurrent(1)": "the restriction admits no run",
}

ORACLE_BUDGET = 3_000_000
ORACLE_SECONDS = 300


def _wait_free_equivalent(model: str, n: int) -> bool:
    """Models that admit every run of ``n`` processes (the identity on them)."""
    frame = model_frame(model)
    if frame is None:
        return True
    name, (arg, *_) = frame["name"], frame["args"]
    return (
        (name == "t_resilient" and arg >= n - 1)
        or (name in ("k_concurrent", "k_set_consensus") and arg >= n)
    )


def theory(task: str, args: tuple[int, ...], model: str, level: int) -> tuple[str, str] | None:
    """``(verdict, reason)`` where a classical result decides the level."""
    n = args[0]
    if task == "set_consensus" and args[1] >= n:
        return "sat", "k >= n: every process decides its own input"
    if task == "participating_set" and level >= 1:
        return "sat", "one immediate snapshot solves participating set"
    if not _wait_free_equivalent(model, n):
        # No classical rule is used under a proper restriction: the zoo's
        # models are per-round run filters, not the classical t-resilient or
        # k-concurrent models (t_resilient(1) admits a 2-round (3,1)-set
        # consensus map, which BG's k > t condition would forbid).
        return None
    if task == "consensus" and n >= 2:
        return "unsat", "FLP / wait-free consensus impossibility"
    if task == "set_consensus":
        return "unsat", "wait-free k-set consensus needs k >= n"
    if task == "approximate_agreement" and n == 2:
        sat = 3 ** level >= args[1]
        return ("sat" if sat else "unsat"), "2-process approximate agreement: 3^b >= k"
    return None


def _oracle(job: tuple[str, tuple[int, ...], str, int]) -> tuple[tuple, list | None]:
    """``(job, [verdict, source])``, or ``(job, None)`` when nothing decides it.

    A level is ``sat`` when a decision map for it is exhibited and passes
    :func:`validate_decision_map` (Proposition 3.1 checked on every simplex
    of the reference-restricted ``SDS^b``): the map is a certificate, so it
    does not matter which search found it.  Otherwise the naive search
    decides, within a time cap.
    """
    import signal

    from repro.core.solvability import SearchOptions, solve_task, validate_decision_map
    from repro.models import ModelRestrictionEmpty, parse_model
    from repro.service.registry import resolve_task

    task_name, args, model, level = job
    parsed = parse_model(model)
    task = resolve_task(task_name, args)

    def solve(options: SearchOptions):
        return solve_task(
            task,
            level,
            min_rounds=level,
            node_budget=ORACLE_BUDGET,
            options=options,
            model=None if parsed.is_identity else parsed,
        )

    def _expire(signum, frame):
        raise TimeoutError

    sys.setrecursionlimit(20_000)  # the naive search recurses once per vertex
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(ORACLE_SECONDS)
    try:
        found = solve(SearchOptions())
        if found.decision_map is not None:
            validate_decision_map(found.subdivision, task, found.decision_map)
            return job, ["sat", "witness map validated against the task"]
        result = solve(SearchOptions(kernel=False))
    except (TimeoutError, RecursionError, ModelRestrictionEmpty):
        return job, None
    finally:
        signal.alarm(0)
    verdict = {"solvable": "sat", "unsolvable-up-to-bound": "unsat"}.get(result.status.value)
    return job, None if verdict is None else [verdict, "oracle"]


def required_levels() -> dict[tuple, set[int]]:
    """Every ``(task, args, model)`` and the levels some workload can probe."""
    needed: dict[tuple, set[int]] = {}
    for cell in hot_keys():  # solve frames probe 0..max_rounds
        needed.setdefault(cell[:3], set()).update(range(cell.rounds + 1))
    return needed


def build_table() -> dict:
    """Decide every required level: theory first, then witness or oracle."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.conformance.entries import sweep_entries

    needed = required_levels()
    oracle: dict[tuple, list | None] = {}
    jobs = sorted(
        (
            key + (level,)
            for key, levels in needed.items()
            for level in sorted(levels)
            if theory(*key, level) is None
        ),
        key=lambda job: (job[1][0], job[3]),  # small instances first
    )
    with ProcessPoolExecutor(max_workers=2) as pool:
        for done, (job, decided) in enumerate(pool.map(_oracle, jobs), 1):
            oracle[job] = decided
            print(f"[{done}/{len(jobs)}] {job} -> {decided}", file=sys.stderr, flush=True)
    levels: dict[str, dict] = {}
    for (task, args, model), wanted in sorted(needed.items()):
        label = Cell(task, args, model, 0).label
        decided: dict[int, tuple[str, str]] = {}
        top = max(wanted)
        for level in range(top + 1):
            by_theory = theory(task, args, model, level)
            by_oracle = oracle.get((task, args, model, level))
            if by_theory:
                decided[level] = (by_theory[0], f"theory ({by_theory[1]})")
            elif by_oracle:
                decided[level] = tuple(by_oracle)
        for level in range(top + 1):  # monotone closure over b
            if level in decided:
                continue
            if any(decided.get(b, ("",))[0] == "sat" for b in range(level)):
                decided[level] = ("sat", "monotone from a lower sat level")
            elif any(decided.get(b, ("",))[0] == "unsat" for b in range(level + 1, top + 1)):
                decided[level] = ("unsat", "monotone from a higher unsat level")
        missing = wanted - decided.keys()
        if missing:
            raise SystemExit(f"{label}: levels {sorted(missing)} undecided")
        levels[label] = {
            "levels": {str(b): decided[b][0] for b in sorted(wanted)},
            "source": {str(b): decided[b][1] for b in sorted(wanted)},
        }
    conform = {
        entry.label: ("SKIP" if entry.label in CONFORM_SKIPS else "PASS")
        for entry in sweep_entries()
    }
    return {
        "schema": "perfbench-expectations-v1",
        "oracle": "solve_task(..., options=SearchOptions(kernel=False))",
        "witness": "a solve_task decision map passing validate_decision_map",
        "levels": levels,
        "conform": conform,
        "conform_skip_reasons": CONFORM_SKIPS,
    }


if __name__ == "__main__":
    os.environ.setdefault("REPRO_SDS_CACHE_DIR", "")
    table = build_table()
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        TABLE_PATH.write_text(text)
    else:
        sys.stdout.write(text)
