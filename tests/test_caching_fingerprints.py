"""Property-style tests for the content-fingerprint helpers in repro.caching.

``stable_fingerprint`` keys the sweep result store and the fuzz corpus;
``text_key`` keys the compile cache by exact source text.  These tests pin
the properties the cache layers rely on: invariance under dict ordering,
sensitivity to genuine edits, and the absence of collisions across a
generated fuzz corpus.
"""

from __future__ import annotations

import random

from repro.caching import stable_fingerprint, text_key
from repro.fuzz import FuzzConfig, generate_program


class TestStableFingerprint:
    def test_invariant_under_dict_insertion_order(self):
        rng = random.Random(7)
        for _ in range(50):
            items = [(f"k{i}", rng.randrange(1000)) for i in range(rng.randint(1, 8))]
            document = {"nested": dict(items), "list": [dict(items)], "flag": True}
            shuffled_items = list(items)
            rng.shuffle(shuffled_items)
            shuffled = {"flag": True, "list": [dict(shuffled_items)], "nested": dict(shuffled_items)}
            assert stable_fingerprint(document) == stable_fingerprint(shuffled)

    def test_sensitive_to_value_and_key_changes(self):
        base = {"a": 1, "b": [1, 2, 3]}
        assert stable_fingerprint(base) != stable_fingerprint({"a": 2, "b": [1, 2, 3]})
        assert stable_fingerprint(base) != stable_fingerprint({"a": 1, "b": [1, 2]})
        assert stable_fingerprint(base) != stable_fingerprint({"c": 1, "b": [1, 2, 3]})

    def test_type_distinctions_survive_serialization(self):
        # str(1) == "1" would collide under a naive default=str scheme for
        # top-level values; JSON keeps the int/str distinction.
        assert stable_fingerprint({"x": 1}) != stable_fingerprint({"x": "1"})


class TestCorpusCollisionSmoke:
    def test_no_fingerprint_collisions_over_fuzz_corpus(self):
        """Distinct generated programs must get distinct cache keys.

        This is the property the compile cache (and therefore the warm/cold
        conformance pass of the fuzzer) depends on: a collision here is a
        cache-poisoning bug of the kind the differential engine exists to
        catch.
        """
        config = FuzzConfig(seed=11, features=frozenset(
            ("arith", "bitops", "mux", "reg", "when", "switch", "vec", "sint")
        ))
        sources = {generate_program(config, index).source for index in range(80)}
        compile_keys = {text_key("TopModule", source) for source in sources}
        stable = {stable_fingerprint({"source": source}) for source in sources}
        assert len(compile_keys) == len(sources)
        assert len(stable) == len(sources)
