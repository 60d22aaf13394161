"""Campaign and stage specifications.

A :class:`CampaignSpec` is a pure-data, JSON-round-trippable description of a
campaign: an ordered tuple of :class:`StageSpec` s (generate → fuzz by
default) plus a campaign seed.  The campaign id is the
content fingerprint of the spec — two invocations of the same spec resolve
to the same id, the same manifest lineage and the same unit frontier, which
is why ``python -m repro.campaign`` naturally resumes if pointed at a store
that already holds partial progress for the spec it was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caching import stable_fingerprint
from repro.experiments.work import (
    STRATEGY_AUTOCHIP,
    STRATEGY_RECHISEL,
    STRATEGY_ZERO_SHOT,
    WorkUnit,
)

#: Stage kinds the orchestrator knows how to run.
KIND_SWEEP = "sweep"
KIND_FUZZ = "fuzz"
STAGE_KINDS = (KIND_SWEEP, KIND_FUZZ)

RECHISEL_KNOBS = (
    ("enable_escape", True),
    ("feedback_detail", "full"),
    ("use_knowledge", True),
)

_STRATEGY_DEFAULTS = {
    STRATEGY_ZERO_SHOT: ((("language", "chisel"),), 0),
    STRATEGY_RECHISEL: (RECHISEL_KNOBS, 4),
    STRATEGY_AUTOCHIP: ((), 4),
}


@dataclass(frozen=True)
class StageSpec:
    """One stage of a campaign: a kind plus its (JSON-able) parameters.

    ``params`` for the kinds:

    * ``sweep`` — ``strategies``, ``problems``, ``model``, ``samples``,
      ``max_iterations`` (optional per-strategy override), ``seed``;
    * ``fuzz`` — ``seed``, ``programs``, ``points``, ``max_statements``.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {self.kind!r}; expected one of {STAGE_KINDS}")
        if not self.name:
            raise ValueError("stage name must be non-empty")

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, document: dict) -> "StageSpec":
        return cls(
            name=str(document["name"]),
            kind=str(document["kind"]),
            params=dict(document.get("params", {})),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """An ordered, content-addressed campaign description."""

    name: str
    stages: tuple[StageSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        names = [stage.name for stage in self.stages]
        if len(names) != len(set(names)):
            raise ValueError("stage names must be unique within a campaign")

    @property
    def campaign_id(self) -> str:
        """Content fingerprint of the spec (the store/manifest key root)."""
        return stable_fingerprint(self.to_dict())[:12]

    def stage(self, name: str) -> StageSpec:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "CampaignSpec":
        return cls(
            name=str(document["name"]),
            seed=int(document.get("seed", 0)),
            stages=tuple(StageSpec.from_dict(entry) for entry in document["stages"]),
        )


def sweep_units(stage: StageSpec, campaign_seed: int) -> list[WorkUnit]:
    """Expand a ``sweep`` stage into its deterministic work-unit grid."""
    params = stage.params
    strategies = list(params.get("strategies", [STRATEGY_ZERO_SHOT, STRATEGY_RECHISEL]))
    problems = list(params.get("problems", ["alu_w4"]))
    model = str(params.get("model", "GPT-4o mini"))
    samples = int(params.get("samples", 2))
    seed = int(params.get("seed", campaign_seed))
    units = []
    for strategy in strategies:
        if strategy not in _STRATEGY_DEFAULTS:
            raise ValueError(f"unknown strategy {strategy!r} in stage {stage.name!r}")
        knobs, default_iterations = _STRATEGY_DEFAULTS[strategy]
        max_iterations = int(params.get("max_iterations", default_iterations) or 0)
        if strategy == STRATEGY_ZERO_SHOT:
            max_iterations = 0
        for case_index, problem_id in enumerate(problems):
            for sample in range(samples):
                units.append(
                    WorkUnit(
                        strategy=strategy,
                        model=model,
                        problem_id=problem_id,
                        case_index=case_index,
                        sample=sample,
                        seed=seed,
                        max_iterations=max_iterations,
                        knobs=knobs,
                    )
                )
    return units


def default_campaign(
    name: str = "quick",
    problems: tuple[str, ...] = ("alu_w4",),
    samples: int = 2,
    fuzz_programs: int = 3,
    seed: int = 0,
) -> CampaignSpec:
    """The canonical generate → fuzz campaign."""
    return CampaignSpec(
        name=name,
        seed=seed,
        stages=(
            StageSpec(
                "generate",
                KIND_SWEEP,
                {
                    "strategies": [STRATEGY_ZERO_SHOT, STRATEGY_RECHISEL],
                    "problems": list(problems),
                    "samples": samples,
                },
            ),
            StageSpec(
                "fuzz",
                KIND_FUZZ,
                {"programs": fuzz_programs, "points": 8, "max_statements": 4},
            ),
        ),
    )
