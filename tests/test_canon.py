"""Canonical term serialization and content-addressed hashing.

The batch service's cache keys must be (a) purely structural — equal terms
hash identically no matter how they were built, (b) sensitive to every
semantically relevant config knob, and (c) stable across interpreter
processes (Python's salted ``hash`` must never leak into a key).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.suite import get_benchmark
from repro.benchsuite.variants import semantic_variant
from repro.core.config import SynthesisConfig
from repro.csg.build import cube, scale, sphere, translate, union, union_all, unit
from repro.lang.canon import (
    canonical_term_text,
    payload_fingerprint,
    semantic_fingerprint,
    term_fingerprint,
    term_from_canonical,
)
from repro.lang.term import Term
from repro.service.cache import cache_key, semantic_cache_key


class TestTermFingerprint:
    def test_equal_terms_from_different_construction_orders(self):
        # Same structure assembled leaves-first vs root-first, with children
        # lists built in different orders.
        parts = [translate(2.0 * i, 0.0, 0.0, unit()) for i in range(4)]
        forward = union_all(parts)

        reversed_then_fixed = union(
            parts[0], union(parts[1], union(parts[2], parts[3]))
        )
        assert forward == reversed_then_fixed
        assert term_fingerprint(forward) == term_fingerprint(reversed_then_fixed)
        assert canonical_term_text(forward) == canonical_term_text(reversed_then_fixed)

    def test_different_terms_different_fingerprints(self):
        a = scale(2.0, 2.0, 2.0, cube())
        b = scale(2.0, 2.0, 3.0, cube())
        assert term_fingerprint(a) != term_fingerprint(b)

    def test_int_and_float_literals_are_distinct(self):
        assert term_fingerprint(Term(5)) != term_fingerprint(Term(5.0))

    def test_operand_order_matters(self):
        a, b = unit(), scale(2.0, 2.0, 2.0, cube())
        assert term_fingerprint(union(a, b)) != term_fingerprint(union(b, a))

    def test_negative_zero_renders_as_plain_zero(self):
        # IEEE -0.0 == 0.0, and repr() would otherwise leak the sign bit into
        # the canonical text — giving "equal" terms distinct fingerprints.
        assert canonical_term_text(Term(-0.0)) == canonical_term_text(Term(0.0))
        assert term_fingerprint(Term(-0.0)) == term_fingerprint(Term(0.0))

    def test_negative_zero_round_trips(self):
        text = canonical_term_text(translate(-0.0, 0.0, 0.0, cube()))
        rebuilt = term_from_canonical(text)
        assert canonical_term_text(rebuilt) == text

    def test_negative_zero_inside_vectors(self):
        a = translate(-0.0, 2.0, 3.0, cube())
        b = translate(0.0, 2.0, 3.0, cube())
        assert term_fingerprint(a) == term_fingerprint(b)

    def test_stable_across_processes_and_hash_seeds(self):
        # The whole point of content addressing: a key minted under one
        # PYTHONHASHSEED must be found again under another.
        program = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.csg.build import translate, union_all, unit\n"
            "from repro.lang.canon import term_fingerprint\n"
            "t = union_all([translate(2.0 * i, 0.0, 0.0, unit()) for i in range(3)])\n"
            "print(term_fingerprint(t))\n"
        )
        digests = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, check=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64


# ---------------------------------------------------------------------------
# Property-based round-trip stability
# ---------------------------------------------------------------------------

_symbols = st.sampled_from(["Cube", "Sphere", "External", "x", "i", "Empty"])
_ops = st.sampled_from(["Union", "Translate", "Scale", "Fold", "List", "Mapi"])
_leaves = st.one_of(
    _symbols.map(Term),
    st.integers(min_value=-(10 ** 12), max_value=10 ** 12).map(Term),
    st.floats(allow_nan=False, allow_infinity=False).map(Term),
)


def _node(children):
    return st.builds(
        lambda op, kids: Term(op, tuple(kids)),
        _ops,
        st.lists(children, min_size=1, max_size=4),
    )


_terms = st.recursive(_leaves, _node, max_leaves=25)


class TestCanonicalRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_terms)
    def test_parse_of_canonical_text_is_identity(self, term):
        text = canonical_term_text(term)
        assert "\n" not in text
        rebuilt = term_from_canonical(text)
        assert rebuilt == term
        # Idempotence: canonicalizing the rebuilt term changes nothing.
        assert canonical_term_text(rebuilt) == text
        assert term_fingerprint(rebuilt) == term_fingerprint(term)

    @settings(max_examples=100, deadline=None)
    @given(_terms, _terms)
    def test_fingerprint_coincides_with_canonical_text(self, a, b):
        # Fingerprint equality is exactly canonical-text equality.  This is
        # slightly *finer* than Python `==` on terms: Term(0) == Term(0.0)
        # (typeless numeric equality) yet they serialize — and therefore
        # fingerprint — differently, which for a cache key is the safe
        # direction (a spurious miss, never a wrong hit).
        texts_equal = canonical_term_text(a) == canonical_term_text(b)
        assert (term_fingerprint(a) == term_fingerprint(b)) == texts_equal
        if texts_equal:
            assert a == b  # canonical text never conflates distinct terms
        if a != b:
            assert term_fingerprint(a) != term_fingerprint(b)


# ---------------------------------------------------------------------------
# Cache keys: term content x semantic config
# ---------------------------------------------------------------------------


class TestCacheKey:
    def setup_method(self):
        self.term = union_all([translate(2.0 * i, 0.0, 0.0, unit()) for i in range(3)])
        self.config = SynthesisConfig()

    def test_epsilon_changes_the_key(self):
        assert cache_key(self.term, self.config) != cache_key(
            self.term, SynthesisConfig(epsilon=1e-2)
        )

    def test_cost_function_changes_the_key(self):
        assert cache_key(self.term, self.config) != cache_key(
            self.term, SynthesisConfig(cost_function="reward-loops")
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"top_k": 3},
            {"rewrite_iterations": 5},
            {"max_enodes": 1000},
            {"max_seconds": 30.0},
            {"rule_categories": ("folds", "boolean")},
        ],
    )
    def test_semantic_knobs_change_the_key(self, override):
        assert cache_key(self.term, self.config) != cache_key(
            self.term, SynthesisConfig(**override)
        )

    def test_term_content_changes_the_key(self):
        other = union_all([translate(3.0 * i, 0.0, 0.0, unit()) for i in range(3)])
        assert cache_key(self.term, self.config) != cache_key(other, self.config)

    def test_keys_are_pinned_across_versions(self):
        # Literal keys: a change to the key derivation or to the default
        # config re-keys every cached result, and must show up here.
        assert SynthesisConfig().fingerprint() == (
            "cecf2e1e2bfeb2ba91c282d90faf40b21f64f454f67e5b35f76ed60d9b757b2a"
        )
        assert SynthesisConfig(cost_function="reward-loops").fingerprint() == (
            "a8fe3386767e113b96756cddf47452eba237046fda5792e2e6f7d748d020c588"
        )
        pinned = {
            "gear": (
                "147edff721ff0d2abea190fd2551748b0c77c15b37537858db56e202806a0b46",
                "31d9681af5a7b046d85c71226537bc96bb37178629f8d4bbca92045a90dc3779",
            ),
            "dice": (
                "a9c361e2db6c054ed0fb254a7e70922a0ff94ef3e976f3a1621b2a2bf362883c",
                "346609c8089dae40771b05853ef0abe12b34ee776772768d5f3119a821c08dec",
            ),
        }
        for name, (exact, semantic) in pinned.items():
            term = get_benchmark(name).build()
            assert cache_key(term, self.config) == exact, name
            assert semantic_cache_key(term, self.config) == semantic, name

    @pytest.mark.parametrize(
        "name, fixed, other",
        [
            ("main_iterations", 1, 2),
            ("rule_match_limit", 10_000, 7),
            ("rule_ban_length", 5, 1),
            ("enable_function_inference", True, False),
            ("enable_loop_inference", True, False),
            ("enable_list_sorting", True, False),
            ("max_loop_nesting", 3, 2),
        ],
    )
    def test_retired_knobs_load_only_at_their_fixed_value(self, name, fixed, other):
        # Every cached payload written before these knobs were retired
        # carries them at the fixed value, and the key still hashes them.
        payload = dict(self.config.to_dict(), **{name: fixed})
        loaded = SynthesisConfig.from_dict(payload)
        assert loaded == self.config
        assert loaded.fingerprint() == self.config.fingerprint()
        # Any other value asked for behaviour the pipeline no longer has.
        with pytest.raises(ValueError, match=name):
            SynthesisConfig.from_dict(dict(payload, **{name: other}))

    def test_payload_fingerprint_ignores_insertion_order(self):
        assert payload_fingerprint({"a": 1, "b": [2, 3]}) == payload_fingerprint(
            {"b": [2, 3], "a": 1}
        )


class TestSemanticFingerprint:
    def setup_method(self):
        self.term = union_all([translate(2.0 * i, 0.0, 0.0, unit()) for i in range(3)])
        self.config = SynthesisConfig()

    def test_invariant_under_semantic_respelling(self):
        variant = semantic_variant(self.term)
        assert variant != self.term
        assert semantic_fingerprint(variant, self.config) == semantic_fingerprint(
            self.term, self.config
        )

    def test_invariant_under_commutative_reordering(self):
        assert semantic_fingerprint(union(cube(), sphere()), self.config) == (
            semantic_fingerprint(union(sphere(), cube()), self.config)
        )

    def test_invariant_under_literal_respelling(self):
        respelled = union_all([translate(2 * i, 0, 0, unit()) for i in range(3)])
        # int vs float spellings: distinct exact fingerprints...
        assert term_fingerprint(respelled) != term_fingerprint(self.term)
        # ...but one semantic identity.
        assert semantic_fingerprint(respelled, self.config) == semantic_fingerprint(
            self.term, self.config
        )

    def test_sensitive_to_design_changes(self):
        other = union_all([translate(3.0 * i, 0.0, 0.0, unit()) for i in range(3)])
        assert semantic_fingerprint(other, self.config) != semantic_fingerprint(
            self.term, self.config
        )

    def test_sensitive_to_config_changes(self):
        assert semantic_fingerprint(self.term, self.config) != semantic_fingerprint(
            self.term, SynthesisConfig(epsilon=1e-2)
        )

    def test_distinct_from_the_exact_key(self):
        # The two tiers must never collide on key space by accident.
        assert semantic_fingerprint(self.term, self.config) != cache_key(
            self.term, self.config
        )
