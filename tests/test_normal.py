"""The semantic normalization pipeline (``repro.lang.normal``).

Three properties are pinned:

* **idempotence** — every pass, and the pipeline as a whole, is a fixpoint
  of itself (a second application changes nothing), which is what makes the
  semantic cache key well-defined;
* **canonical forms** — each pass maps the spellings it identifies onto the
  documented canonical one (unit tests per pass, including the geometric
  check that the affine-canonical pass preserves occupancy);
* **semantics preservation** — a normalized bundled model synthesizes to
  the same best cost as the original, and the synthesized program still
  validates against the *original* input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.suite import get_benchmark
from repro.benchsuite.variants import semantic_variant
from repro.core.config import SynthesisConfig
from repro.core.pipeline import synthesize
from repro.lang.canon import canonical_term_text, normalized_term_text
from repro.lang.normal import (
    AFFINE_CANONICAL,
    ALPHA_RENAME,
    COMMUTATIVE_SORT,
    DEFAULT_PASSES,
    NUMERIC_LITERALS,
    normalize,
)
from repro.lang.term import Term, make
from repro.service.cache import semantic_cache_key
from repro.verify.geometric import occupancy_agreement
from repro.verify.validate import validate_synthesis


def T(text: str) -> Term:
    return Term.parse(text)


# ---------------------------------------------------------------------------
# Term strategy: CSG-shaped terms with numerals, affine chains, boolean
# chains, and Fun/Var binders
# ---------------------------------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32),
).map(Term)
_leaves = st.one_of(
    st.sampled_from(["Cube", "Sphere", "Empty", "External"]).map(Term), _numbers
)


def _nodes(children):
    affine = st.builds(
        lambda op, v, c: Term(op, (*v, c)),
        st.sampled_from(["Translate", "Scale", "Rotate"]),
        st.tuples(_numbers, _numbers, _numbers),
        children,
    )
    boolean = st.builds(
        lambda op, a, b: make(op, a, b),
        st.sampled_from(["Union", "Inter", "Diff"]),
        children,
        children,
    )
    fun = st.builds(
        lambda name, body: make("Fun", Term(name), body),
        st.sampled_from(["x", "y", "i"]),
        # Reference the binder somewhere so alpha-renaming has work to do.
        children.map(lambda c: make("Union", make("Var", Term("x")), c)),
    )
    return st.one_of(affine, boolean, fun)


_terms = st.recursive(_leaves, _nodes, max_leaves=20)


class TestIdempotence:
    @settings(max_examples=150, deadline=None)
    @given(_terms)
    def test_every_pass_is_idempotent(self, term):
        for normalization_pass in DEFAULT_PASSES:
            once = normalization_pass(term)
            assert normalization_pass(once) == once, normalization_pass.name

    @settings(max_examples=150, deadline=None)
    @given(_terms)
    def test_pipeline_is_idempotent(self, term):
        once = normalize(term)
        assert normalize(once) == once

    @settings(max_examples=150, deadline=None)
    @given(_terms)
    def test_variant_normalizes_to_the_same_term(self, term):
        # The CI respelling (flipped literals, swapped commutative operands,
        # renamed binders) must be invisible to the pipeline — this is the
        # property the semantic cache tier's 100% variant hit rate rests on.
        assert normalize(semantic_variant(term)) == normalize(term)
        assert normalized_term_text(semantic_variant(term)) == normalized_term_text(term)


class TestNumericLiterals:
    def test_integral_floats_become_ints(self):
        assert NUMERIC_LITERALS(Term(1.0)) == Term(1)
        assert NUMERIC_LITERALS(Term(-3.0)) == Term(-3)

    def test_negative_zero_becomes_plain_zero(self):
        normalized = NUMERIC_LITERALS(Term(-0.0))
        assert normalized == Term(0)
        assert isinstance(normalized.op, int)

    def test_non_integral_floats_are_untouched(self):
        assert NUMERIC_LITERALS(Term(2.5)) == Term(2.5)
        assert canonical_term_text(NUMERIC_LITERALS(Term(2.5))) == "2.5"

    def test_rewrites_inside_structure(self):
        assert NUMERIC_LITERALS(T("(Translate 1.0 2.5 0.0 Cube)")) == T(
            "(Translate 1 2.5 0 Cube)"
        )


class TestAffineCanonical:
    def test_fuses_translations(self):
        assert AFFINE_CANONICAL(T("(Translate 1 2 3 (Translate 4 5 6 Cube))")) == T(
            "(Translate 5 7 9 Cube)"
        )

    def test_fuses_scales(self):
        assert AFFINE_CANONICAL(T("(Scale 2 2 2 (Scale 3 1 1 Cube))")) == T(
            "(Scale 6 2 2 Cube)"
        )

    def test_fuses_same_axis_rotations(self):
        assert AFFINE_CANONICAL(T("(Rotate 0 0 30 (Rotate 0 0 60 Cube))")) == T(
            "(Rotate 0 0 90 Cube)"
        )

    def test_does_not_fuse_different_axis_rotations(self):
        term = T("(Rotate 90 0 0 (Rotate 0 0 60 Cube))")
        assert AFFINE_CANONICAL(term) == term

    def test_drops_identity_layers(self):
        assert AFFINE_CANONICAL(T("(Translate 0 0 0 (Scale 1 1 1 Cube))")) == T("Cube")
        assert AFFINE_CANONICAL(T("(Rotate 0 0 0 Cube)")) == T("Cube")

    def test_pushes_translate_out_of_scale(self):
        assert AFFINE_CANONICAL(T("(Scale 2 2 2 (Translate 3 0 0 Cube))")) == T(
            "(Translate 6 0 0 (Scale 2 2 2 Cube))"
        )

    def test_pushes_translate_out_of_axis_rotation(self):
        # Rotating (0 1 0) by 90 degrees around z gives (-1 0 0).
        assert AFFINE_CANONICAL(T("(Rotate 0 0 90 (Translate 0 1 0 Cube))")) == T(
            "(Translate -1 0 0 (Rotate 0 0 90 Cube))"
        )

    def test_fusion_order_is_pinned_on_the_grid(self):
        # Each fused vector is rounded to 9 decimals, so the result depends
        # on which layers fuse first.  The fixpoint fuses 0.1 with 1e-9
        # (rounding to 0) before the Scale 90 below them; fusing inside
        # out gives (Scale 0 9e-09 0 Cube).  Semantic keys hash this form.
        term = T("(Scale 0 0.1 0 (Scale 0 1e-9 0 (Translate 0 1 0 (Scale 0 90 0 Cube))))")
        assert AFFINE_CANONICAL(term) == T("(Scale 0 0 0 Cube)")

    def test_symbolic_vectors_are_left_alone(self):
        term = T("(Translate (Var i) 0 0 (Translate 1 0 0 Cube))")
        assert AFFINE_CANONICAL(term) == term

    @pytest.mark.parametrize(
        "text",
        [
            "(Translate 1 2 3 (Translate 4 5 6 (Scale 2 2 2 Cube)))",
            "(Scale 2 1 1 (Translate 3 4 0 (Rotate 0 0 90 Cube)))",
            "(Rotate 0 0 45 (Translate 2 0 0 (Scale 3 3 3 Sphere)))",
            "(Translate 0 0 0 (Union Cube (Scale 1 1 1 Sphere)))",
        ],
    )
    def test_preserves_occupancy(self, text):
        term = T(text)
        normalized = AFFINE_CANONICAL(term)
        report = occupancy_agreement(term, normalized, resolution=16)
        assert report.equivalent(), report


class TestOverflowingArithmetic:
    """Finite inputs whose affine arithmetic overflows: the step declines."""

    @pytest.mark.parametrize(
        "text",
        [
            "(Union (Scale 1e200 1 1 (Scale 1e200 1 1 Cube)) (Translate 1 0 0 Cube))",
            "(Union (Translate 1e308 0 0 (Translate 1e308 0 0 Cube)) (Translate 1 0 0 Cube))",
            "(Scale 1e200 1 1 (Translate 1e200 0 0 Cube))",
            "(Rotate 0 0 45 (Translate 1.7e308 1.7e308 0 Cube))",
        ],
    )
    def test_overflowing_fusions_and_commutes_are_declined(self, text):
        term = T(text)
        assert AFFINE_CANONICAL(term) == term
        normalized = normalize(term)
        assert normalize(normalized) == normalized
        key = semantic_cache_key(term, SynthesisConfig())
        assert len(key) == 64 and key == semantic_cache_key(T(text), SynthesisConfig())

    def test_a_finite_fusion_next_to_a_declined_one_still_happens(self):
        term = T("(Translate 1 0 0 (Translate 2 0 0 (Scale 1e200 1 1 (Scale 1e200 1 1 Cube))))")
        assert AFFINE_CANONICAL(term) == T(
            "(Translate 3 0 0 (Scale 1e200 1 1 (Scale 1e200 1 1 Cube)))"
        )


class TestAlphaRename:
    def test_renames_binder_and_references(self):
        assert ALPHA_RENAME(T("(Fun x (Union (Var x) Cube))")) == T(
            "(Fun $0 (Union (Var $0) Cube))"
        )

    def test_alpha_equivalent_programs_normalize_identically(self):
        a = T("(Fun x (Union (Var x) Cube))")
        b = T("(Fun offset (Union (Var offset) Cube))")
        assert ALPHA_RENAME(a) == ALPHA_RENAME(b)

    def test_nested_binders_number_by_depth(self):
        term = T("(Fun x (Fun y (Union (Var x) (Var y))))")
        assert ALPHA_RENAME(term) == T("(Fun $0 (Fun $1 (Union (Var $0) (Var $1))))")

    def test_shadowing_resolves_to_the_innermost_binder(self):
        term = T("(Fun x (Fun x (Var x)))")
        assert ALPHA_RENAME(term) == T("(Fun $0 (Fun $1 (Var $1)))")

    def test_free_variables_and_external_names_are_untouched(self):
        assert ALPHA_RENAME(T("(Var free)")) == T("(Var free)")
        assert ALPHA_RENAME(T("(Union (External hull1) Cube)")) == T(
            "(Union (External hull1) Cube)"
        )


class TestCommutativeSort:
    def test_sorts_union_operands(self):
        sphere_first = make("Union", T("Sphere"), T("Cube"))
        assert COMMUTATIVE_SORT(sphere_first) == make("Union", T("Cube"), T("Sphere"))

    def test_flattens_and_rebuilds_right_nested(self):
        term = T("(Union (Union Sphere Cube) Empty)")
        assert COMMUTATIVE_SORT(term) == T("(Union Cube (Union Empty Sphere))")

    def test_diff_is_not_commutative(self):
        term = T("(Diff Sphere Cube)")
        assert COMMUTATIVE_SORT(term) == term

    def test_reordered_chains_normalize_identically(self):
        parts = [T(f"(Translate {2 * i} 0 0 Cube)") for i in range(4)]
        forward = parts[0]
        for part in parts[1:]:
            forward = make("Union", forward, part)
        backward = parts[-1]
        for part in reversed(parts[:-1]):
            backward = make("Union", backward, part)
        assert COMMUTATIVE_SORT(forward) == COMMUTATIVE_SORT(backward)


#: Quick models (the batch differential suite's blocking subset).
_FAST_SUBSET = ["sander", "soldering", "hc-bits", "relay-box", "compose"]


class TestSemanticsPreservation:
    @pytest.mark.parametrize("name", _FAST_SUBSET)
    def test_normalized_model_synthesizes_identically(self, name):
        benchmark = get_benchmark(name)
        config = SynthesisConfig(cost_function=benchmark.cost_function)
        original = benchmark.build()
        normalized = normalize(original)

        baseline = synthesize(original, config)
        renormalized = synthesize(normalized, config)
        assert renormalized.best.cost == baseline.best.cost
        # The program synthesized from the normalized spelling still
        # validates against the *original* input — normalization changed the
        # spelling, not the design.
        assert validate_synthesis(original, renormalized.output_term()).valid
