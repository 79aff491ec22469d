"""The model zoo: the concrete restrictions the engines understand.

Five models ship:

* ``iis`` — the identity model (full wait-free IIS; every engine treats it
  as a strict no-op).
* ``t_resilient(t)`` — a per-round block filter: every round's first
  concurrency class must miss at most ``t`` of that round's members, and
  at most ``t`` colors may sit out entirely.  ``t = n`` (for ``n + 1``
  processes) restricts nothing; ``t = 0`` keeps only the fault-free,
  fully-simultaneous runs.  This is *not* classical ``t``-resilience: the
  filter binds every round, so each round has a synchronous core of all
  but ``t`` members, and consensus among three processes is solvable under
  ``t_resilient(1)`` (at two rounds) although FLP rules it out
  1-resiliently.
* ``k_concurrent(k)`` — at most ``k`` processes take a step at the same
  time: every concurrency class has size at most ``k``.  ``k = 1`` is the
  fully-sequential model; ``k >= n + 1`` restricts nothing.
* ``k_set_consensus(k)`` — the affine task of ``k``-set consensus in the
  Gafni–He–Kuznetsov–Rieutord sense: every round resolves into at most
  ``k`` concurrency classes, so the members of a round hold at most ``k``
  distinct views — exactly the power a ``k``-set-consensus object adds.
  ``k >= n + 1`` restricts nothing.
* ``adversary(m1, m2, ...)`` — a survivor-set adversary
  (:class:`repro.runtime.adversary.AdversarySpec`): each argument is a
  bitmask over colors naming one live set; a run is admitted when some live
  set is contained in every round's first concurrency class and in the
  participant set.  All singletons = wait-free (identity on runs);
  the single full set = fault-free.

:func:`resolve_model` is the bounds-checked constructor the service and CLI
share; :func:`parse_model` turns the CLI spelling (``t_resilient:1`` or
``t_resilient(1)``) into a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.models.base import Blocks, Model
from repro.runtime.adversary import AdversarySpec

# Bounds on model parameters, mirrored by the service's request validation.
# Generous relative to any complex the engines can hold in practice.
_MAX_PARAM = 64
_MAX_LIVE_SETS = 8
_MAX_LIVE_MASK = (1 << 16) - 1
_MAX_COMPOSED = 4


class IIS(Model):
    """The identity model: full wait-free IIS, every run admitted.

    ``model="iis"`` is contractually a no-op — the solver, kernel, cache and
    service take the exact pre-model code paths (identical verdicts, first
    maps, kernel statistics and cache keys).
    """

    name = "iis"
    arity = 0
    is_identity = True
    __slots__ = ()

    def keep_round(self, blocks: Blocks) -> bool:
        return True


class TResilient(Model):
    """A per-round block filter: each round's first block misses <= ``t``.

    Per round, the first concurrency class — the processes whose snapshot
    misses everyone else in the round — must have size at least
    ``members - t``, i.e. no member's view may miss more than ``t``
    participants.  Across the run, at most ``t`` of the base colors may not
    participate at all.  ``t_resilient(0)`` keeps exactly the
    fully-simultaneous full-participation runs (consensus becomes solvable);
    ``t_resilient(n)`` on ``n + 1`` processes is the identity.

    Despite the name this is not classical ``t``-resilience (at most ``t``
    crashes, asynchrony otherwise unconstrained): the filter applies to
    every round, not just to the processes that lag forever, so it is
    strictly stronger.  ``set_consensus(3, 1)`` — consensus, impossible
    1-resiliently by FLP — is solvable at ``b = 2`` under ``t_resilient(1)``.
    """

    name = "t_resilient"
    arity = 1
    __slots__ = ()

    def __init__(self, t: int):
        super().__init__(t)
        if not 0 <= self.args[0] <= _MAX_PARAM:
            raise ValueError(f"t_resilient: t must be in 0..{_MAX_PARAM}, got {t}")

    def keep_round(self, blocks: Blocks) -> bool:
        total = sum(len(block) for block in blocks)
        return len(blocks[0]) >= total - self.args[0]

    def keep_participation(self, colors: frozenset[int], n_colors: int) -> bool:
        return len(colors) >= n_colors - self.args[0]


class KConcurrent(Model):
    """k-concurrency: at most ``k`` processes are active simultaneously.

    Every concurrency class of every round has size at most ``k``.
    ``k_concurrent(1)`` keeps only the fully-sequential runs (consensus
    becomes solvable at one round); ``k_concurrent(n + 1)`` on ``n + 1``
    processes is the identity.
    """

    name = "k_concurrent"
    arity = 1
    __slots__ = ()

    def __init__(self, k: int):
        super().__init__(k)
        if not 1 <= self.args[0] <= _MAX_PARAM:
            raise ValueError(f"k_concurrent: k must be in 1..{_MAX_PARAM}, got {k}")

    def keep_round(self, blocks: Blocks) -> bool:
        return all(len(block) <= self.args[0] for block in blocks)


class KSetConsensus(Model):
    """k-set consensus as an affine task (GHKR simplex restriction).

    A round's members hold at most ``k`` distinct views — the ordered
    partition has at most ``k`` concurrency classes.  This is the run
    structure a ``k``-set-consensus object enforces, and on it the task
    ``set_consensus(n + 1, k)`` becomes solvable in one round (decide the
    minimum of your view).  ``k_set_consensus(n + 1)`` on ``n + 1``
    processes is the identity.
    """

    name = "k_set_consensus"
    arity = 1
    __slots__ = ()

    def __init__(self, k: int):
        super().__init__(k)
        if not 1 <= self.args[0] <= _MAX_PARAM:
            raise ValueError(f"k_set_consensus: k must be in 1..{_MAX_PARAM}, got {k}")

    def keep_round(self, blocks: Blocks) -> bool:
        return len(blocks) <= self.args[0]


class Adversary(Model):
    """A survivor-set adversary over the base colors.

    Arguments are live-set bitmasks (bit ``i`` = color ``i``), canonicalized
    through :class:`repro.runtime.adversary.AdversarySpec`.  A run is
    admitted when some live set is contained in the colors of every round's
    first concurrency class (those processes are scheduled "live" — nobody's
    snapshot misses them) and in the participant set.
    """

    name = "adversary"
    arity = -1  # variadic: one or more live-set masks
    __slots__ = ("spec",)

    def __init__(self, *masks: int):
        if not masks:
            raise ValueError("adversary: needs at least one live-set mask")
        if len(masks) > _MAX_LIVE_SETS:
            raise ValueError(
                f"adversary: at most {_MAX_LIVE_SETS} live sets, got {len(masks)}"
            )
        spec = AdversarySpec(tuple(int(m) for m in masks))
        if any(mask > _MAX_LIVE_MASK for mask in spec.live_sets):
            raise ValueError(
                f"adversary: live-set masks must fit 16 colors, got {masks!r}"
            )
        super().__init__(*spec.live_sets)
        self.spec = spec

    @classmethod
    def from_spec(cls, spec: AdversarySpec) -> "Adversary":
        return cls(*spec.live_sets)

    def keep_round(self, blocks: Blocks) -> bool:
        first = 0
        for color in blocks[0]:
            first |= 1 << color
        return self.spec.covers(first)

    def keep_participation(self, colors: frozenset[int], n_colors: int) -> bool:
        mask = 0
        for color in colors:
            mask |= 1 << color
        return self.spec.covers(mask)


class Composed(Model):
    """Pointwise intersection of two or more models: ``a&b``.

    A run is admitted exactly when every component admits it — intersection
    of subcomplexes is pointwise on runs, and since every engine (reference,
    packed filter, orbit-pruned builder) only ever asks ``keep_round`` /
    ``keep_participation``, the conjunction threads through all three
    unchanged.  Built via :func:`compose_models` (which canonicalizes:
    identity components drop out, duplicates collapse, nested compositions
    flatten); the fingerprint is the ``&``-joined component spelling, so
    cache keys and wire errors stay readable.
    """

    name = "composed"
    arity = -1
    __slots__ = ("components",)

    def __init__(self, *components: Model):
        flat: list[Model] = []
        for component in components:
            if not isinstance(component, Model):
                raise TypeError(f"composed: components must be models, got {component!r}")
            if isinstance(component, Composed):
                flat.extend(component.components)
            else:
                flat.append(component)
        kept: list[Model] = []
        for component in flat:
            if not component.is_identity and component not in kept:
                kept.append(component)
        if len(kept) < 2:
            raise ValueError(
                "composed: needs at least two distinct non-identity components "
                "(use compose_models to canonicalize)"
            )
        if len(kept) > _MAX_COMPOSED:
            raise ValueError(
                f"composed: at most {_MAX_COMPOSED} components, got {len(kept)}"
            )
        self.args = self.components = tuple(kept)

    @property
    def fingerprint(self) -> str:
        return "&".join(component.fingerprint for component in self.components)

    @property
    def slug(self) -> str:
        return "-and-".join(component.slug for component in self.components)

    def keep_round(self, blocks: Blocks) -> bool:
        return all(component.keep_round(blocks) for component in self.components)

    def keep_participation(self, colors: frozenset[int], n_colors: int) -> bool:
        return all(
            component.keep_participation(colors, n_colors)
            for component in self.components
        )

    def describe(self) -> str:
        parts = "\n\n".join(
            f"[{component.fingerprint}] {component.describe()}"
            for component in self.components
        )
        return (
            "Pointwise intersection: a run is admitted iff every component "
            "admits it.\n\n" + parts
        )


def compose_models(*components: Model) -> Model:
    """Canonical intersection of models: drop identities, flatten, dedupe.

    Returns the identity when nothing non-trivial remains, the single
    component when only one does, and a :class:`Composed` otherwise.
    """
    flat: list[Model] = []
    for component in components:
        if isinstance(component, Composed):
            flat.extend(component.components)
        else:
            flat.append(component)
    kept: list[Model] = []
    for component in flat:
        if not component.is_identity and component not in kept:
            kept.append(component)
    if not kept:
        return IIS_MODEL
    if len(kept) == 1:
        return kept[0]
    return Composed(*kept)


@dataclass(frozen=True)
class ModelSpec:
    """Registry row: how to build and describe one model family."""

    name: str
    factory: Callable[..., Model]
    arity: int  # -1 = variadic (>= 1)
    summary: str


_REGISTRY: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("iis", IIS, 0, "full wait-free IIS (identity; the default)"),
        ModelSpec(
            "t_resilient", TResilient, 1, "per round, the first block misses <= t"
        ),
        ModelSpec("k_concurrent", KConcurrent, 1, "at most k processes run at once"),
        ModelSpec(
            "k_set_consensus", KSetConsensus, 1, "k-set consensus as an affine task"
        ),
        ModelSpec(
            "adversary", Adversary, -1, "survivor-set adversary (live-set bitmasks)"
        ),
    )
}

IIS_MODEL = IIS()


def model_registry() -> dict[str, ModelSpec]:
    """Name → spec for every known model family."""
    return dict(_REGISTRY)


def resolve_model(name: str, args: Iterable[int] = ()) -> Model:
    """Bounds-checked model constructor shared by the service and the CLI."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown model {name!r} (known: {', '.join(sorted(_REGISTRY))})"
        )
    args = tuple(int(a) for a in args)
    if spec.arity >= 0 and len(args) != spec.arity:
        raise ValueError(
            f"model {name!r} takes {spec.arity} argument(s), got {len(args)}"
        )
    if spec.arity < 0 and not args:
        raise ValueError(f"model {name!r} takes at least one argument")
    return spec.factory(*args)


def parse_model(text: str) -> Model:
    """CLI spelling → model: ``iis``, ``t_resilient:1``, ``adversary(3,5)``.

    ``&`` composes models pointwise (intersection of admitted runs):
    ``t_resilient(1)&k_concurrent(2)`` admits exactly the runs both admit.
    Composition canonicalizes through :func:`compose_models` — identity
    components drop out — and is bounded at ``_MAX_COMPOSED`` components.
    """
    text = text.strip()
    if "&" in text:
        pieces = [piece.strip() for piece in text.split("&")]
        if any(not piece for piece in pieces):
            raise ValueError(f"composed model has an empty component: {text!r}")
        if len(pieces) > _MAX_COMPOSED:
            raise ValueError(
                f"composed model: at most {_MAX_COMPOSED} components, "
                f"got {len(pieces)}: {text!r}"
            )
        return compose_models(*(_parse_single(piece) for piece in pieces))
    return _parse_single(text)


def _parse_single(text: str) -> Model:
    name, args_text = text, ""
    if "(" in text and text.endswith(")"):
        name, args_text = text[:-1].split("(", 1)
    elif ":" in text:
        name, args_text = text.split(":", 1)
    try:
        args = tuple(
            int(piece) for piece in args_text.replace(",", " ").split() if piece
        )
    except ValueError:
        raise ValueError(f"model arguments must be integers: {text!r}") from None
    return resolve_model(name.strip(), args)


__all__ = [
    "Adversary",
    "Composed",
    "IIS",
    "IIS_MODEL",
    "KConcurrent",
    "KSetConsensus",
    "ModelSpec",
    "TResilient",
    "compose_models",
    "model_registry",
    "parse_model",
    "resolve_model",
]
