"""Behaviour profiles for the five LLMs the paper evaluates.

Every parameter is anchored to a measurement in the paper:

* ``chisel_baseline_success`` / ``verilog_baseline_success`` — Table I Pass@1
  (zero-shot, per attempt);
* ``syntax_error_share`` — Fig. 1, the fraction of *failed* baseline attempts
  whose first error is a compile (syntax) error rather than a functional one;
* ``chisel_fix_prob`` / ``functional_fix_prob`` — per-iteration repair
  probabilities fitted so that ten reflection iterations land near the
  Table III Pass@1 column at n=10 (the Claude models get the visibly stronger
  reflection gain the paper reports, GPT-4o mini the weakest);
* ``verilog_fix_prob`` — fitted the same way against the AutoChip column of
  Table IV;
* ``loop_prob`` — probability that a failed repair is a *futile edit* (same
  error at the same location), which is what produces the non-progress loops
  of §IV-C; weaker models loop more;
* ``regression_prob`` — probability that a functional repair reintroduces a
  syntax error (the Fig. 7 "syntax errors increase again" effect);
* ``escape_boost`` — multiplier applied to the fix probability on the first
  revision after the escape mechanism discards a loop.

Absolute success rates produced by the harness therefore track the paper by
construction; the *dynamics* (how fast curves rise, when they plateau, how
error mixes shift per iteration) emerge from the reflection loop itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

GPT4_TURBO = "GPT-4 Turbo"
GPT4O = "GPT-4o"
GPT4O_MINI = "GPT-4o mini"
CLAUDE_SONNET = "Claude 3.5 Sonnet"
CLAUDE_HAIKU = "Claude 3.5 Haiku"

PAPER_MODELS = (GPT4_TURBO, GPT4O, GPT4O_MINI, CLAUDE_SONNET, CLAUDE_HAIKU)
AUTOCHIP_MODELS = (GPT4_TURBO, GPT4O, CLAUDE_SONNET)


@dataclass(frozen=True)
class ModelProfile:
    """Calibrated behaviour of one LLM for Chisel / Verilog generation."""

    name: str
    chisel_baseline_success: float
    verilog_baseline_success: float
    syntax_error_share: float
    chisel_fix_prob: float
    functional_fix_prob: float
    verilog_fix_prob: float
    loop_prob: float
    regression_prob: float
    escape_boost: float = 1.6
    two_fault_prob: float = 0.25

    def fix_probability(self, error_kind: str, language: str = "chisel") -> float:
        """Per-iteration probability of removing one fault of ``error_kind``."""
        if language == "verilog":
            return self.verilog_fix_prob
        if error_kind == "functional":
            return self.functional_fix_prob
        return self.chisel_fix_prob

    def fingerprint(self) -> dict[str, float | str]:
        """Stable field dump for work-unit fingerprints (a fresh copy per call).

        Sweep results depend on every calibrated parameter, so recalibrating a
        profile must invalidate the persistent result store for that model.
        The dump is taken once per profile: the fields are frozen.
        """
        return dict(self._fields)

    @cached_property
    def _fields(self) -> dict[str, float | str]:
        return asdict(self)


MODEL_PROFILES: dict[str, ModelProfile] = {
    GPT4_TURBO: ModelProfile(
        name=GPT4_TURBO,
        chisel_baseline_success=0.4554,
        verilog_baseline_success=0.6761,
        syntax_error_share=0.717,   # 39.7 / (39.7 + 15.7) from Fig. 1
        chisel_fix_prob=0.105,
        functional_fix_prob=0.085,
        verilog_fix_prob=0.065,
        loop_prob=0.35,
        regression_prob=0.06,
    ),
    GPT4O: ModelProfile(
        name=GPT4O,
        chisel_baseline_success=0.4507,
        verilog_baseline_success=0.6948,
        syntax_error_share=0.598,   # 32.0 / (32.0 + 21.5)
        chisel_fix_prob=0.125,
        functional_fix_prob=0.105,
        verilog_fix_prob=0.055,
        loop_prob=0.30,
        regression_prob=0.06,
    ),
    GPT4O_MINI: ModelProfile(
        name=GPT4O_MINI,
        chisel_baseline_success=0.1127,
        verilog_baseline_success=0.5915,
        syntax_error_share=0.965,   # 85.4 / (85.4 + 3.1)
        chisel_fix_prob=0.055,
        functional_fix_prob=0.045,
        verilog_fix_prob=0.045,
        loop_prob=0.55,
        regression_prob=0.10,
    ),
    CLAUDE_SONNET: ModelProfile(
        name=CLAUDE_SONNET,
        chisel_baseline_success=0.3333,
        verilog_baseline_success=0.7793,
        syntax_error_share=0.888,   # 61.2 / (61.2 + 7.7)
        chisel_fix_prob=0.205,
        functional_fix_prob=0.17,
        verilog_fix_prob=0.105,
        loop_prob=0.18,
        regression_prob=0.04,
    ),
    CLAUDE_HAIKU: ModelProfile(
        name=CLAUDE_HAIKU,
        chisel_baseline_success=0.2629,
        verilog_baseline_success=0.7559,
        syntax_error_share=0.90,    # 62.9 / (62.9 + 7.0)
        chisel_fix_prob=0.215,
        functional_fix_prob=0.175,
        verilog_fix_prob=0.09,
        loop_prob=0.20,
        regression_prob=0.05,
    ),
}


def profile_named(name: str) -> ModelProfile:
    """Look up a profile by model name (raises ``KeyError`` on unknown models)."""
    return MODEL_PROFILES[name]
