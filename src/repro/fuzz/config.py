"""Configuration for the differential fuzzing subsystem.

A :class:`FuzzConfig` fully determines a fuzz session: the same
``(config, seed, index)`` triple always regenerates the same Chisel program,
so every corpus entry and every failure report is a one-line repro
(``python -m repro.fuzz --seed S --n 1 --skip K``).  Every knob is also
settable from the environment (``REPRO_FUZZ_*``); see EXPERIMENTS.md for the
catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import settings
from repro.caching import stable_fingerprint

# Feature toggles understood by the generator.  Each label gates a family of
# constructs; the generator records which ones a program actually exercised so
# the corpus can keep feature-diverse survivors.
ALL_FEATURES = (
    "arith",  # +, -, *, /, %, shifts at mixed widths
    "bitops",  # &, |, ^, ~, bit extraction, Cat/Fill/PopCount/Reverse
    "mux",  # Mux trees and boolean predicates
    "sint",  # signed values, casts and signed compares
    "reg",  # RegInit/RegNext/RegEnable state with enables
    "when",  # when/.elsewhen/.otherwise chains (wire defaults + overrides)
    "switch",  # FSM-like switch/is transition tables
    "vec",  # Vec IO, VecInit tables, Reg(Vec) pipelines, dynamic indexing
    "nested_bundle",  # nested anonymous Bundles in the IO
    "named_bundle",  # named (optionally parameterized) Bundle classes
    "multi_module",  # sibling module classes in one source file
    "mem",  # Mem/SyncReadMem: addressed writes, comb + sync read ports
)


def parse_feature_mask(raw: str) -> frozenset[str]:
    """Parse a comma-separated feature mask (``all`` or names from ALL_FEATURES)."""
    raw = raw.strip()
    if not raw or raw.lower() == "all":
        return frozenset(ALL_FEATURES)
    names = [part.strip() for part in raw.split(",") if part.strip()]
    unknown = [name for name in names if name not in ALL_FEATURES]
    if unknown:
        raise ValueError(
            f"unknown fuzz feature(s) {', '.join(sorted(unknown))}; "
            f"expected names from: {', '.join(ALL_FEATURES)}"
        )
    return frozenset(names)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzz session.

    ``seed`` is the session seed: program ``i`` of the session derives its own
    generator stream from ``(seed, i)``, so a single integer pins the whole
    corpus.  ``max_statements``/``max_expr_depth``/``max_width`` are the size
    budget; ``features`` masks the construct families the generator may use;
    ``points`` sizes the generated stimulus per program.
    """

    seed: int = 0
    iterations: int = 200
    max_statements: int = 8
    max_expr_depth: int = 3
    max_width: int = 12
    points: int = 24
    features: frozenset[str] = field(default_factory=lambda: frozenset(ALL_FEATURES))
    corpus_path: str | None = None
    keep_survivors: int = 64
    shrink_failures: bool = True
    interesting_min_features: int = 4

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.max_statements < 1:
            raise ValueError("max_statements must be >= 1")
        if self.max_width < 2:
            raise ValueError("max_width must be >= 2")
        if self.points < 1:
            raise ValueError("points must be >= 1")

    def enabled(self, feature: str) -> bool:
        return feature in self.features

    def fingerprint(self) -> str:
        """Content fingerprint of every knob that shapes generated programs.

        Session-level knobs (iterations, corpus path, shrink toggle) are
        excluded: two sessions with the same fingerprint generate the same
        program for the same index.
        """
        return stable_fingerprint(
            {
                "seed": self.seed,
                "max_statements": self.max_statements,
                "max_expr_depth": self.max_expr_depth,
                "max_width": self.max_width,
                "points": self.points,
                "features": sorted(self.features),
            }
        )

    def with_seed(self, seed: int) -> "FuzzConfig":
        return replace(self, seed=seed)

    def repro_line(self, index: int) -> str:
        """One-line CLI repro for program ``index`` of this session.

        Includes every generator-shaping knob that differs from the defaults
        and has a CLI flag; the size-budget knobs (``max_statements``,
        ``max_expr_depth``, ``max_width``) have no flag, so configs that
        change them must be replayed through the Python API
        (``generate_program(config, index)``).
        """
        defaults = FuzzConfig()
        parts = [f"python -m repro.fuzz --seed {self.seed} --n 1 --skip {index}"]
        if self.points != defaults.points:
            parts.append(f"--points {self.points}")
        if self.features != defaults.features:
            parts.append(f"--features {','.join(sorted(self.features))}")
        return " ".join(parts)

    @classmethod
    def from_environment(cls) -> "FuzzConfig":
        raw = settings.read("REPRO_FUZZ_FEATURES")
        try:
            features = parse_feature_mask(raw)
        except ValueError:
            rule = "'all' or comma-separated names from " + ", ".join(ALL_FEATURES)
            raise settings.SettingError("REPRO_FUZZ_FEATURES", rule, raw) from None
        return cls(
            features=features,
            **settings.overrides(
                seed="REPRO_FUZZ_SEED",
                iterations="REPRO_FUZZ_ITERATIONS",
                points="REPRO_FUZZ_POINTS",
                corpus_path="REPRO_FUZZ_CORPUS",
            ),
        )
