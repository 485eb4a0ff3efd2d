"""Canonical serialization and content-addressed fingerprints of terms.

The batch synthesis service caches results under a key derived from the
*content* of the input: a canonical, deterministic s-expression rendering of
the flat CSG term, hashed with SHA-256.  Python's built-in ``hash`` cannot
play this role — it is salted per process (``PYTHONHASHSEED``), so a key
minted by one worker would never be found again by another process or a
later run.  The fingerprints here depend only on term structure and are
stable across processes, platforms, and sessions.

Two properties matter and are locked down by ``tests/test_canon.py``:

* **structural determinism** — equal terms (however they were constructed)
  render to the same canonical text and therefore the same fingerprint;
* **exact round-trip** — ``term_from_canonical(canonical_term_text(t)) == t``
  including float values (non-integral floats are rendered with ``repr``,
  which round-trips exactly in Python 3) and the int/float distinction
  (``5`` and ``5.0`` render differently).

One deliberate asymmetry: because Python numeric equality is typeless,
``Term(0) == Term(0.0)`` even though their canonical texts (and hence
fingerprints) differ.  Fingerprint equality coincides with canonical-*text*
equality, which is slightly finer than ``==`` on terms.  That is the safe
direction for a cache key — the int and float spellings of a model render
differently in output programs, so collapsing them could serve a cached
result whose pretty-printed form differs from a fresh run's; keeping them
apart costs at most a spurious miss.

**The emitter.**  :func:`canonical_term_text` (which ``str(term)`` also
returns) writes the text in one pass over an explicit stack, straight from
the term: no nested-list copy of the term, no width measuring, and each
distinct float spelled once per call.  The spelling of an atom is
:func:`repro.lang.sexp.format_atom`'s.  A non-finite float has no
canonical text, so a term holding ``inf`` or ``nan`` has no cache key: the
emitter raises :class:`~repro.lang.sexp.SexpError` naming the literal, and
the service answers such a job FAILED.

On top of the exact tier sits the *semantic* tier: :func:`semantic_fingerprint`
hashes the term after the :mod:`repro.lang.normal` pipeline has run, so
spellings the normalization passes identify — reordered commutative
operands, alpha-renamed parameters, ``1`` vs ``1.0`` literals, collapsed
affine chains — share one fingerprint.  The result cache consults it only
after the exact key misses (see :mod:`repro.service.cache`), so the exact
tier's behavior is unchanged.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.lang.sexp import format_atom
from repro.lang.term import Term


def canonical_term_text(term: Term) -> str:
    """The canonical single-line s-expression rendering of ``term``.

    This is the serialization the disk cache stores and the worker protocol
    ships across process boundaries; it parses back to an equal term via
    :func:`term_from_canonical`.  A non-finite float literal has no
    canonical text: it raises :class:`~repro.lang.sexp.SexpError` naming
    the literal.
    """
    kids = term.children
    if not kids:
        return format_atom(term.op)
    floats = {}
    out = ["(" + format_atom(term.op)]
    append = out.append
    stack = [")"]
    stack.extend(reversed(kids))
    pop = stack.pop
    push = stack.append
    extend = stack.extend
    while stack:
        node = pop()
        if node.__class__ is str:
            append(node)
            continue
        op = node.op
        cls = op.__class__
        if cls is not str:
            if cls is float:
                text = floats.get(op)
                if text is None:
                    text = floats[op] = format_atom(op)
                op = text
            else:
                op = format_atom(op)
        kids = node.children
        if kids:
            append(" (" + op)
            push(")")
            extend(reversed(kids))
        else:
            append(" " + op)
    return "".join(out)


def term_from_canonical(text: str) -> Term:
    """Parse a term from its canonical text (inverse of the above)."""
    return Term.parse(text)


def fingerprint_bytes(data: bytes) -> str:
    """Hex SHA-256 digest of raw bytes (the primitive all keys reduce to)."""
    return hashlib.sha256(data).hexdigest()


def fingerprint_text(text: str) -> str:
    """Hex SHA-256 digest of a unicode string (UTF-8 encoded)."""
    return fingerprint_bytes(text.encode("utf-8"))


def term_fingerprint(term: Term) -> str:
    """Content-address of a term: the digest of its canonical text."""
    return fingerprint_text(canonical_term_text(term))


def normalized_term_text(term: Term) -> str:
    """Canonical text of the semantically normalized term.

    The key material of the cache's semantic tier: every spelling the
    :mod:`repro.lang.normal` passes identify renders to this one text.
    """
    from repro.lang.normal import normalize

    return canonical_term_text(normalize(term))


def semantic_fingerprint(term: Term, config) -> str:
    """Content-address of a (term, config) pair modulo normalization.

    ``sha256(normalized text fingerprint : config fingerprint)`` — the same
    shape as the exact cache key, with the term fingerprint replaced by the
    normalized one.  ``config`` is any object with a ``fingerprint()``
    (:class:`~repro.core.config.SynthesisConfig`; typed loosely so the
    language layer does not import the core layer).
    """
    return fingerprint_text(
        f"{fingerprint_text(normalized_term_text(term))}:{config.fingerprint()}"
    )


def payload_fingerprint(payload: Any) -> str:
    """Content-address of a JSON-able payload (dicts, lists, scalars).

    Keys are sorted and separators fixed so logically equal payloads hash
    identically regardless of insertion order; used to fold the synthesis
    configuration into a cache key.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return fingerprint_text(text)
