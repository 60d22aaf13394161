"""Fuzz session driver: generate → conformance-check → shrink → persist.

One :func:`run_session` call is the unit both the CLI (``python -m
repro.fuzz``) and the long-running pytest entry (``-m fuzz``) share.  Every
failing program is shrunk to a minimal repro (preserving the failure's
``(kind, stage)`` signature) before being reported and stored, and
feature-diverse survivors are persisted so CI can replay them as regression
tests.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.fuzz.config import FuzzConfig
from repro.fuzz.corpus import CorpusEntry, CorpusStore
from repro.fuzz.differential import ConformanceReport, check_program, check_source
from repro.fuzz.generate import GeneratedProgram, generate_program
from repro.fuzz.shrink import count_significant_lines, shrink
from repro.obs import get_bus
from repro.toolchain.compiler import ChiselCompiler


@dataclass
class FuzzFinding:
    """One failing program, shrunk and ready to report."""

    program: GeneratedProgram
    report: ConformanceReport
    shrunk_source: str

    def render(self) -> str:
        lines = [
            f"fuzz failure at index {self.program.index} "
            f"(repro: {self.program.repro_line()})",
            self.report.render(),
            f"shrunk to {count_significant_lines(self.shrunk_source)} lines:",
            self.shrunk_source.rstrip(),
        ]
        return "\n".join(lines)


@dataclass
class SessionResult:
    """Aggregate outcome of one fuzz session."""

    config: FuzzConfig
    programs: int = 0
    checks: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)
    survivors_stored: int = 0
    feature_counts: Counter = field(default_factory=Counter)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"fuzzed {self.programs} programs ({self.checks} conformance checks) "
            f"in {self.elapsed:.1f}s — "
            f"{len(self.findings)} failure(s), {self.survivors_stored} survivor(s) stored"
        ]
        if self.feature_counts:
            coverage = ", ".join(
                f"{name}={count}" for name, count in sorted(self.feature_counts.items())
            )
            lines.append(f"feature coverage: {coverage}")
        for finding in self.findings:
            lines.append("")
            lines.append(finding.render())
        return "\n".join(lines)


def shrink_failure(
    program_source: str,
    tops: tuple[str, ...],
    report: ConformanceReport,
    config: FuzzConfig,
    tb_seed: str,
    sequential: bool,
) -> str:
    """Minimize a failing source, preserving the first failure's signature.

    The predicate recompiles (and for simulation-seam failures, re-simulates
    with the session's full stimulus) each candidate, so the shrunk repro
    provably still fails the same way.  Failures that do not reproduce under
    the predicate's fresh-cache conditions (e.g. a warm/cold divergence that
    needed the session's accumulated cache state) are returned unshrunk
    rather than lost.
    """
    target = report.failures[0].signature
    needs_sim = target[0] in ("backend", "cache", "crash")

    def predicate(candidate: str) -> bool:
        try:
            candidate_report = check_source(
                candidate,
                tops=tuple(t for t in tops if f"class {t}" in candidate) or ("TopModule",),
                tb_seed=tb_seed,
                points=config.points if needs_sim else 4,
                sequential=sequential,
                compiler=ChiselCompiler(cached=False),
                check_cold=needs_sim,
            )
        except Exception:  # noqa: BLE001 — a crashing candidate is not "the same failure"
            return False
        return any(f.signature == target for f in candidate_report.failures)

    if not predicate(program_source):
        return program_source
    return shrink(program_source, predicate)


def run_session(
    config: FuzzConfig,
    skip: int = 0,
    progress=None,
    bus=None,
) -> SessionResult:
    """Run ``config.iterations`` programs starting at index ``skip``.

    ``progress`` is an optional callable invoked as ``progress(index, result)``
    after each program (the CLI uses it for a live line).  ``bus`` (default:
    the process bus) receives one ``fuzz.program`` event per checked program
    and one ``fuzz.finding`` event per failure, for the operations console and
    the JSONL artifact uploaded on CI fuzz-job failure.
    """
    if bus is None:
        bus = get_bus()
    result = SessionResult(config=config)
    compiler = ChiselCompiler()
    store = CorpusStore(config.corpus_path) if config.corpus_path else None
    started = time.time()
    try:
        for index in range(skip, skip + config.iterations):
            program = generate_program(config, index)
            report = check_program(program, config, compiler=compiler)
            result.programs += 1
            result.checks += report.checks
            result.feature_counts.update(program.features)
            if bus.active:
                bus.publish(
                    "fuzz.program",
                    "checked",
                    index=program.index,
                    ok=report.ok,
                    checks=report.checks,
                    features=len(program.features),
                )

            if not report.ok:
                shrunk = program.source
                if config.shrink_failures:
                    try:
                        shrunk = shrink_failure(
                            program.source,
                            program.tops,
                            report,
                            config,
                            tb_seed=f"fuzz-tb:{program.seed}:{program.index}",
                            sequential=program.sequential,
                        )
                    except Exception:  # noqa: BLE001 — never lose a finding to the shrinker
                        shrunk = program.source
                finding = FuzzFinding(program, report, shrunk)
                result.findings.append(finding)
                if bus.active:
                    bus.publish(
                        "fuzz.finding",
                        "failure",
                        index=program.index,
                        kind=report.failures[0].kind,
                        stage=report.failures[0].stage,
                        repro=program.repro_line(),
                    )
                if store is not None:
                    store.add(
                        CorpusEntry(
                            kind="failure",
                            source=program.source,
                            top=program.top,
                            tops=program.tops,
                            sequential=program.sequential,
                            seed=program.seed,
                            index=program.index,
                            config_fingerprint=config.fingerprint(),
                            features=program.features,
                            failure={
                                "kind": report.failures[0].kind,
                                "stage": report.failures[0].stage,
                                "code": report.failures[0].code,
                                "detail": report.failures[0].detail,
                            },
                            shrunk_source=shrunk,
                        )
                    )
            elif (
                store is not None
                and len(program.features) >= config.interesting_min_features
                and result.survivors_stored < config.keep_survivors
            ):
                if store.add(
                    CorpusEntry(
                        kind="survivor",
                        source=program.source,
                        top=program.top,
                        tops=program.tops,
                        sequential=program.sequential,
                        seed=program.seed,
                        index=program.index,
                        config_fingerprint=config.fingerprint(),
                        features=program.features,
                    )
                ):
                    result.survivors_stored += 1

            if progress is not None:
                progress(index, result)
    finally:
        if store is not None:
            store.close()
    result.elapsed = time.time() - started
    return result


def replay_entry(entry: CorpusEntry, points: int = 12) -> ConformanceReport:
    """Re-run the full conformance check for one committed corpus entry."""
    return check_source(
        entry.source,
        tops=entry.tops,
        tb_seed=f"fuzz-tb:{entry.seed}:{entry.index}",
        points=points,
        sequential=entry.sequential,
    )


def print_progress(index: int, result: SessionResult) -> None:
    sys.stderr.write(
        f"\r[fuzz] {result.programs} programs, {len(result.findings)} failures, "
        f"{result.survivors_stored} survivors"
    )
    sys.stderr.flush()
