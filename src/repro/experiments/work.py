"""Work-unit decomposition for the sweep execution engine.

Every sweep the experiments run (zero-shot, ReChisel, AutoChip — any model,
any knob setting) decomposes into independent :class:`WorkUnit`\\ s, one per
(strategy, problem, sample).  A unit carries everything needed to execute it
deterministically in any process: the strategy name and knobs, the model, the
problem id, and the exact seed inputs.  Because units are independent and
self-seeding, executing them serially or across a process pool produces
bit-identical results.

:func:`unit_fingerprint` derives the content key used by the persistent
:class:`~repro.experiments.store.ResultStore`: it covers the strategy knobs,
the full calibrated model profile, the problem identity *and golden source
digest*, and the seed inputs — so recalibrating a model, editing a benchmark
problem, or changing any sweep knob invalidates exactly the affected units.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching import stable_fingerprint, text_key
from repro.llm.profiles import MODEL_PROFILES
from repro.llm.synthetic import SyntheticChiselLLM
from repro.problems.base import Problem
from repro.problems.registry import ProblemRegistry, build_default_registry
from repro.toolchain.compiler import ChiselCompiler
from repro.toolchain.simulator import Simulator

#: Bump when the payload schema or execution semantics change; stored in every
#: result-store line and folded into every fingerprint, so stale stores are
#: ignored rather than misread.
PAYLOAD_VERSION = 1

STRATEGY_ZERO_SHOT = "zero_shot"
STRATEGY_RECHISEL = "rechisel"
STRATEGY_AUTOCHIP = "autochip"


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable cell of a sweep.

    ``knobs`` is a canonical (sorted) tuple of ``(name, value)`` pairs owned
    by the strategy — e.g. ``(("language", "verilog"),)`` for zero-shot or the
    escape/knowledge/feedback settings for ReChisel.  Frozen and built from
    picklable primitives so units can cross process boundaries.
    """

    strategy: str
    model: str
    problem_id: str
    case_index: int
    sample: int
    seed: int
    max_iterations: int
    knobs: tuple[tuple[str, object], ...] = ()

    @property
    def client_seed(self) -> int:
        """The synthetic-LLM seed; matches the historical harness derivation."""
        return self.seed + 1000 * self.case_index + self.sample

    def knob(self, name: str, default: object = None) -> object:
        for key, value in self.knobs:
            if key == name:
                return value
        return default


def unit_fingerprint(unit: WorkUnit, golden_digest: str) -> str:
    """Content fingerprint of one work unit (the result-store key).

    ``golden_digest`` is a hash of the problem's golden Chisel source: the
    synthetic LLM derives both its fault space and its correct attempts from
    the golden solution, so editing a problem must invalidate its results.
    """
    document = {
        "version": PAYLOAD_VERSION,
        "strategy": unit.strategy,
        "model": unit.model,
        "profile": MODEL_PROFILES[unit.model].fingerprint(),
        "problem_id": unit.problem_id,
        "golden": golden_digest,
        "case_index": unit.case_index,
        "sample": unit.sample,
        "seed": unit.seed,
        "max_iterations": unit.max_iterations,
        "knobs": {name: value for name, value in unit.knobs},
    }
    return stable_fingerprint(document)


class WorkerContext:
    """Per-process execution state shared by every unit a worker runs.

    Built once per executor worker (and once for the serial path): the problem
    registry, a ``ChiselCompiler`` on the process-wide compile cache
    (identical candidate code recurs constantly across samples/iterations),
    the parse-caching ``Simulator`` facade, and the golden-Verilog cache.  All
    of it is deterministic derived state — sharing it across units changes
    speed, never results.
    """

    def __init__(self, registry: ProblemRegistry | None = None):
        self.registry = registry or build_default_registry()
        self.compiler = ChiselCompiler(top="TopModule")
        self.simulator = Simulator(top="TopModule")
        self.golden_verilog: dict[str, str] = {}
        self._golden_digests: dict[str, str] = {}

    def problem(self, problem_id: str) -> Problem:
        return self.registry.by_id(problem_id)

    def reference_verilog(self, problem: Problem) -> str:
        """Golden Verilog for one problem, compiled once per context."""
        if problem.problem_id not in self.golden_verilog:
            result = self.compiler.compile(problem.golden_chisel)
            if not result.success or result.verilog is None:
                raise RuntimeError(
                    f"golden solution for {problem.problem_id} failed to compile:\n"
                    f"{result.render_feedback()}"
                )
            self.golden_verilog[problem.problem_id] = result.verilog
        return self.golden_verilog[problem.problem_id]

    def golden_digest(self, problem_id: str) -> str:
        if problem_id not in self._golden_digests:
            self._golden_digests[problem_id] = text_key(self.problem(problem_id).golden_chisel)
        return self._golden_digests[problem_id]

    def fingerprint(self, unit: WorkUnit) -> str:
        return unit_fingerprint(unit, self.golden_digest(unit.problem_id))

    def client_for(self, unit: WorkUnit) -> SyntheticChiselLLM:
        """A fresh, deterministically seeded synthetic LLM for one unit."""
        return SyntheticChiselLLM(
            self.registry,
            MODEL_PROFILES[unit.model],
            seed=unit.client_seed,
            compiler=self.compiler,
            golden_verilog_cache=self.golden_verilog,
        )
