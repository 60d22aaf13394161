"""Differential fuzzing subsystem: generator, conformance engine, shrinker,
corpus store and session driver.

The long adversarial sessions live behind the ``fuzz`` marker (excluded from
tier-1; CI runs them as the bounded fuzz smoke job).  The tests here are the
quick structural guarantees: determinism, feature masking, seam detection
(via injected faults — both source-level mutations from
``problems/mutations.py`` and a simulated backend bug), shrink quality and
corpus persistence.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.fuzz import (
    ALL_FEATURES,
    CorpusEntry,
    CorpusStore,
    FuzzConfig,
    check_program,
    check_source,
    count_significant_lines,
    generate_program,
    load_corpus_entries,
    parse_feature_mask,
    run_session,
    shrink,
    shrink_failure,
)
from repro.fuzz import differential
from repro.problems.mutations import SYNTAX_FAULTS_BY_ID
from repro.toolchain.compiler import ChiselCompiler
from repro.verilog import compile_sim


def _corrupt_compiled_kernels(monkeypatch) -> None:
    """A simulated compiled-kernel bug: the comb pass flips bit 0 of every
    ``io_out*`` output, in every kernel the trace tier builds.  Both copies of
    the pass carry it: the ``comb`` closure that unrolled points call and the
    ``comb_body`` on locals that re-rolled loops inline."""
    original = compile_sim.compile_kernel

    def corrupted(module, analysis=None):
        kernel = original(module, analysis)
        slots = [meta.slot for name, meta in kernel.slots.items() if name.startswith("io_out")]
        comb = kernel.comb

        def flipped(state):
            comb(state)
            for slot in slots:
                state[slot] ^= 1

        comb_body = (*kernel.comb_body, *(f"v{slot} ^= 1" for slot in slots))
        return dataclasses.replace(kernel, comb=flipped, comb_body=comb_body)

    monkeypatch.setattr(compile_sim, "compile_kernel", corrupted)


class TestFuzzConfig:
    def test_cli_flags_and_defaults(self):
        from repro.fuzz.__main__ import build_parser

        def parsed(*flags):
            args = build_parser().parse_args(list(flags))
            return (args.seed, args.n, args.features, args.corpus, args.points)

        config = FuzzConfig()
        assert parsed() == (
            config.seed, config.iterations, config.features, config.corpus_path, config.points
        )
        assert parsed(
            "--seed", "42", "--n", "17", "--features", "arith,mux",
            "--corpus", "/tmp/corpus.jsonl", "--points", "5",
        ) == (42, 17, frozenset(("arith", "mux")), "/tmp/corpus.jsonl", 5)
        assert parsed("--corpus", "false")[3] is None

    def test_feature_mask_parsing(self):
        assert parse_feature_mask("all") == frozenset(ALL_FEATURES)
        assert parse_feature_mask("reg, vec") == frozenset(("reg", "vec"))
        with pytest.raises(ValueError, match="unknown fuzz feature"):
            parse_feature_mask("reg,warp_drive")

    def test_fingerprint_excludes_session_knobs(self):
        base = FuzzConfig(seed=1)
        assert base.fingerprint() == FuzzConfig(seed=1, iterations=9999).fingerprint()
        assert base.fingerprint() != FuzzConfig(seed=2).fingerprint()
        assert base.fingerprint() != FuzzConfig(seed=1, max_statements=3).fingerprint()


class TestGenerator:
    def test_deterministic_per_config_and_index(self):
        config = FuzzConfig(seed=3)
        for index in range(10):
            first = generate_program(config, index)
            second = generate_program(config, index)
            assert first == second
        assert generate_program(config, 0).source != generate_program(config, 1).source

    def test_every_program_compiles(self):
        config = FuzzConfig(seed=5)
        compiler = ChiselCompiler()
        for index in range(25):
            program = generate_program(config, index)
            for top in program.tops:
                result = compiler.compile(program.source, top=top)
                assert result.success, (
                    f"index {index} top {top}: {result.render_feedback()}\n{program.source}"
                )

    def test_feature_mask_constrains_constructs(self):
        config = FuzzConfig(seed=9, features=frozenset(("arith", "bitops")))
        for index in range(15):
            program = generate_program(config, index)
            assert not program.sequential
            assert "Reg" not in program.source
            assert "switch" not in program.source
            assert "when" not in program.source
            assert ".asSInt" not in program.source and "SInt(" not in program.source
            assert program.tops == ("TopModule",)

    def test_features_are_recorded(self):
        config = FuzzConfig(seed=0)
        seen: set[str] = set()
        for index in range(40):
            seen.update(generate_program(config, index).features)
        # Every toggled family should show up somewhere in a 40-program run.
        assert seen.issuperset(
            {"arith", "bitops", "mux", "reg", "when", "vec", "sint"}
        )


@pytest.mark.cache_mutating
class TestConformance:
    def test_clean_programs_pass_every_seam(self):
        config = FuzzConfig(seed=1, points=12)
        compiler = ChiselCompiler()
        for index in range(6):
            program = generate_program(config, index)
            report = check_program(program, config, compiler=compiler)
            assert report.ok, report.render()
            assert report.checks > 0

    def test_injected_source_fault_is_caught(self):
        """A mutations.py fault makes a well-typed program fail loudly."""
        config = FuzzConfig(seed=1)
        program = generate_program(config, 2)
        fault = SYNTAX_FAULTS_BY_ID["C2_combinational_loop"]
        mutated = fault.apply(program.source, None)
        report = check_source(
            mutated, program.tops, tb_seed="t", points=6, sequential=program.sequential
        )
        assert not report.ok
        assert report.failures[0].kind == "compile"
        assert report.failures[0].code == "C2"

    def test_injected_backend_bug_is_caught(self, monkeypatch):
        """A simulated compiled-kernel bug must surface as a divergence."""
        _corrupt_compiled_kernels(monkeypatch)
        config = FuzzConfig(seed=1, points=8)
        program = generate_program(config, 0)
        report = check_program(program, config, check_cold=False)
        assert not report.ok
        kinds = {failure.kind for failure in report.failures}
        assert "backend" in kinds


    def test_deterministic_kernel_value_bug_is_caught(self, monkeypatch):
        """A kernel that is wrong but self-consistent passes module-vs-itself
        reports; the value-level seam against the interpreter catches it."""
        original = compile_sim.compile_trace

        def corrupted(*args, **kwargs):
            kernel = original(*args, **kwargs)
            run = kernel.run

            def flipped(stimulus):
                out = run(stimulus)
                out[-1] ^= 1
                return out

            return dataclasses.replace(kernel, run=flipped)

        monkeypatch.setattr(compile_sim, "compile_trace", corrupted)
        config = FuzzConfig(seed=1, points=8)
        report = check_program(generate_program(config, 0), config, check_cold=False)
        stages = {failure.stage for failure in report.failures}
        assert "trace-values" in stages, report.render()
        assert "trace" not in stages, report.render()

    def test_cold_rerun_builds_a_fresh_testbench(self, monkeypatch):
        """The warm testbench carries per-testbench memos; the cold run must not."""
        seen = []
        original = differential._run_backends

        def spy(module, testbench, top, report):
            seen.append((testbench, dict(testbench.__dict__)))
            return original(module, testbench, top, report)

        monkeypatch.setattr(differential, "_run_backends", spy)
        config = FuzzConfig(seed=1, points=8)
        program = generate_program(config, 0)
        report = check_program(program, config)
        assert report.ok, report.render()
        tops = len(program.tops)
        assert len(seen) == 2 * tops
        for (warm, _), (cold, cold_state) in zip(seen[:tops], seen[tops:]):
            assert cold is not warm and cold == warm
            assert "_reference_outputs" not in cold_state
            assert "_trace_plans" not in cold_state


@pytest.mark.cache_mutating
class TestShrinker:
    def test_shrink_requires_a_failing_source(self):
        with pytest.raises(ValueError):
            shrink("class TopModule extends Module {\n}\n", lambda source: False)

    def test_injected_fault_shrinks_to_minimal_repro(self):
        """The acceptance bar: a mutations.py fault shrinks to <= 15 lines."""
        config = FuzzConfig(seed=0)
        fault = SYNTAX_FAULTS_BY_ID["C2_combinational_loop"]
        for index in range(3):
            program = generate_program(config, index)
            mutated = fault.apply(program.source, None)
            report = check_source(
                mutated, program.tops, tb_seed="t", points=6,
                sequential=program.sequential,
            )
            assert not report.ok
            shrunk = shrink_failure(
                mutated, program.tops, report, config,
                tb_seed="t", sequential=program.sequential,
            )
            assert count_significant_lines(shrunk) <= 15, shrunk
            # The minimized program must still fail with the same signature.
            replay = check_source(
                shrunk, ("TopModule",), tb_seed="t", points=6,
                sequential=program.sequential,
            )
            assert report.failures[0].signature in {
                failure.signature for failure in replay.failures
            }

    def test_shrunk_backend_bug_keeps_diverging(self, monkeypatch):
        _corrupt_compiled_kernels(monkeypatch)
        config = FuzzConfig(seed=1, points=6)
        program = generate_program(config, 0)
        report = check_program(program, config, check_cold=False)
        assert not report.ok
        shrunk = shrink_failure(
            program.source, program.tops, report, config,
            tb_seed=f"fuzz-tb:{program.seed}:{program.index}",
            sequential=program.sequential,
        )
        assert count_significant_lines(shrunk) <= 15, shrunk
        assert "class TopModule" in shrunk


class TestCorpusStore:
    def _entry(self, kind: str = "survivor", source: str = "class TopModule {}\n"):
        return CorpusEntry(
            kind=kind,
            source=source,
            top="TopModule",
            tops=("TopModule",),
            sequential=False,
            seed=0,
            index=0,
            config_fingerprint="cfg",
            features=("arith",),
        )

    def test_round_trip_and_dedup(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as store:
            assert store.add(self._entry())
            assert not store.add(self._entry())  # same fingerprint
            assert store.add(self._entry(source="class TopModule { val x = 1 }\n"))
            assert store.add(
                self._entry(kind="failure", source="class Broken {}\n")
            )
        reloaded = CorpusStore(path)
        assert len(reloaded) == 3
        assert len(reloaded.survivors()) == 2
        assert len(reloaded.failures()) == 1
        reloaded.close()

    def test_torn_trailing_line_and_versioning_are_tolerated(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with CorpusStore(path) as store:
            store.add(self._entry())
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": 999, "kind": "survivor", "source": "x"}) + "\n")
            handle.write('{"v": 1, "kind": "surv')  # torn write
        entries = load_corpus_entries(path)
        assert len(entries) == 1


@pytest.mark.cache_mutating
class TestSession:
    def test_clean_session_records_survivors(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        config = FuzzConfig(
            seed=2,
            iterations=5,
            points=8,
            corpus_path=str(corpus),
            interesting_min_features=2,
        )
        result = run_session(config)
        assert result.ok, result.render()
        assert result.programs == 5
        assert result.survivors_stored >= 1
        assert len(load_corpus_entries(corpus)) == result.survivors_stored
        assert "feature coverage" in result.render()

    def test_session_shrinks_and_stores_findings(self, tmp_path, monkeypatch):
        _corrupt_compiled_kernels(monkeypatch)
        corpus = tmp_path / "corpus.jsonl"
        config = FuzzConfig(
            seed=1, iterations=1, points=6, corpus_path=str(corpus)
        )
        result = run_session(config)
        assert not result.ok
        finding = result.findings[0]
        assert count_significant_lines(finding.shrunk_source) <= 15
        stored = load_corpus_entries(corpus)
        assert len(stored) == 1 and stored[0].kind == "failure"
        assert stored[0].failure["kind"] == "backend"
        assert stored[0].shrunk_source is not None
        assert "repro: python -m repro.fuzz" in result.render()


FEATURES_RULE = "'all' or comma-separated names from " + ", ".join(ALL_FEATURES)


class TestCli:
    @pytest.mark.parametrize(
        "flag, raw, rule",
        [
            ("--n", "-1", "an integer >= 0"),
            ("--points", "0", "an integer >= 1"),
            ("--points", "many", "an integer >= 1"),
            ("--keep", "-1", "an integer >= 0"),
            ("--seed", "x", "an integer"),
            ("--features", "bogus", FEATURES_RULE),
            ("--features", "reg,warp_drive", FEATURES_RULE),
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, flag, raw, rule, capsys):
        from repro.fuzz.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--n", "0", flag, raw])
        assert exit_info.value.code == 2
        assert f"{flag} must be {rule}, got '{raw}'" in capsys.readouterr().err


@pytest.mark.fuzz
@pytest.mark.cache_mutating
class TestFuzzSessionLong:
    def test_bounded_adversarial_session_is_clean(self):
        """The CI smoke bar: 200 programs, every seam, zero divergences."""
        config = FuzzConfig(seed=0, iterations=200)
        result = run_session(config)
        assert result.ok, result.render()
        assert result.programs == 200
