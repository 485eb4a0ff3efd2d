"""Generic language infrastructure shared by CSG and LambdaCAD.

This package provides the immutable :class:`~repro.lang.term.Term`
representation used everywhere in the reproduction, an s-expression
reader/printer compatible with the serialization format the paper uses
(Janestreet-style s-expressions), and the semantic-normalization pipeline
(:mod:`repro.lang.normal`) the cache keys, fingerprints, and determinizer
share.
"""

from repro.lang.canon import (
    canonical_term_text,
    fingerprint_bytes,
    fingerprint_text,
    normalized_term_text,
    payload_fingerprint,
    semantic_fingerprint,
    term_fingerprint,
    term_from_canonical,
)
from repro.lang.normal import (
    AFFINE_OPS,
    COMMUTATIVE_OPS,
    DEFAULT_PASSES,
    NormalizationPass,
    canonical_number_value,
    normalize,
    signature_sort_key,
    term_order_key,
)
from repro.lang.sexp import Sexp, parse_sexp, parse_many, format_sexp, SexpError
from repro.lang.term import Term, TermError

__all__ = [
    "Sexp",
    "SexpError",
    "parse_sexp",
    "parse_many",
    "format_sexp",
    "Term",
    "TermError",
    "canonical_term_text",
    "term_from_canonical",
    "term_fingerprint",
    "fingerprint_bytes",
    "fingerprint_text",
    "payload_fingerprint",
    "normalized_term_text",
    "semantic_fingerprint",
    "AFFINE_OPS",
    "COMMUTATIVE_OPS",
    "DEFAULT_PASSES",
    "NormalizationPass",
    "canonical_number_value",
    "normalize",
    "signature_sort_key",
    "term_order_key",
]
