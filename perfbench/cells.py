"""The fixed query lists the workloads draw from.

A *cell* is ``(task, args, model, rounds)``; the model is spelled the way
:func:`repro.models.parse_model` reads it.  Every cell any workload can
draw has a row in ``expectations.json`` (see ``verdicts.py``).  The seed
only orders a list; the population of queries a run times is the same
for every seed, so each percentile lands on the same rank of the same
population.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Cell(NamedTuple):
    task: str
    args: tuple[int, ...]
    model: str
    rounds: int

    @property
    def label(self) -> str:
        return f"{self.task}({','.join(map(str, self.args))})@{self.model}"


def model_text(name: str, args: tuple[int, ...] | list[int]) -> str:
    return name if not args else f"{name}({','.join(map(str, args))})"


def model_frame(text: str) -> dict | None:
    """The ``repro-svc-v1`` model object for a model spelling (None = iis)."""
    if text == "iis":
        return None
    name, _, rest = text.partition("(")
    return {"name": name, "args": [int(a) for a in rest.rstrip(")").split(",")]}


def solve_frame(cell: Cell) -> dict:
    frame = {
        "op": "solve",
        "task": {"name": cell.task, "args": list(cell.args)},
        "max_rounds": cell.rounds,
    }
    model = model_frame(cell.model)
    if model is not None:
        frame["model"] = model
    return frame


def frame_cell(frame: dict) -> Cell:
    model = frame.get("model")
    text = "iis" if model is None else model_text(model["name"], model["args"])
    return Cell(
        frame["task"]["name"], tuple(frame["task"]["args"]), text, frame["max_rounds"]
    )


# -- svc-hot -------------------------------------------------------------------


def hot_keys() -> list[Cell]:
    """The ``zoo_mix()`` + ``conformance_mix()`` keys, deduplicated."""
    from repro.service.registry import conformance_mix, zoo_mix

    keys: list[Cell] = []
    for frame in zoo_mix() + conformance_mix():
        cell = frame_cell(frame)
        if cell not in keys:
            keys.append(cell)
    return keys


def zipf_list(keys: list, count: int, seed: int, s: float = 1.1) -> list:
    """``count`` queries over ``keys`` in Zipf(s) proportions, in a seeded order.

    The ``i``-th key gets weight ``1 / (i + 1) ** s`` and its share of
    ``count`` rounded by largest remainder, so every seed times the same
    multiset of keys; the seed only shuffles it.
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(len(keys))]
    quotas = [count * w / sum(weights) for w in weights]
    copies = [int(q) for q in quotas]
    by_remainder = sorted(range(len(keys)), key=lambda i: copies[i] - quotas[i])
    for i in by_remainder[: count - sum(copies)]:
        copies[i] += 1
    return seeded_order([key for key, n in zip(keys, copies) for _ in range(n)], seed)


# -- conform -------------------------------------------------------------------


#: Sweep cells left out: the two 3-process PASS cells take ~3 s each, and
#: five trials of the list must fit one run.
_CONFORM_LEFT_OUT = {"participating_set(3)@iis", "set_consensus(3,2)@k_set_consensus(2)"}

#: Copies per pass: the cells near 35 ms twice and the ~350 ms cell four
#: times, so p50 (rank 11 of 22) and p90 (rank 20 of 22) fall inside a
#: cost cluster instead of on the gap next to it.
_CONFORM_WEIGHT = {
    "approximate_agreement(2,3)@iis": 2,
    "approximate_agreement(2,9)@iis": 4,
    "consensus(2)@t_resilient(0)": 2,
    "consensus(2)@k_concurrent(1)": 2,
    "consensus(2)@k_set_consensus(1)": 2,
    "consensus(2)@t_resilient(0)&k_set_consensus(1)": 2,
}


def conform_entries() -> list:
    """E20's sweep cells, weighted so p50 and p90 land inside a cost cluster.

    Once warm, eight cells take under 5 ms, five near 35 ms and one near
    350 ms; unweighted, p50 would sit on the 5 ms / 35 ms gap.
    """
    from repro.conformance.entries import sweep_entries

    return [
        entry
        for entry in sweep_entries()
        if entry.label not in _CONFORM_LEFT_OUT
        for _ in range(_CONFORM_WEIGHT.get(entry.label, 1))
    ]


def seeded_order(items: list, seed: int) -> list:
    """``items`` in a seeded order."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return order
