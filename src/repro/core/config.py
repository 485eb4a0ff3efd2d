"""Configuration of the synthesis pipeline.

All of the paper's knobs live here: the noise tolerance epsilon (0.001 by
default, Section 4.1), the number of returned programs k (5 in the
evaluation), the cost function name, and the resource limits that play the
role of the algorithm's ``fuel`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple

from repro.egraph.runner import BackoffConfig
from repro.lang.canon import payload_fingerprint
from repro.solvers.closed_form import SolverConfig

#: The engine's scheduler defaults; mirrored here so SynthesisConfig and
#: Runner cannot drift apart.
_DEFAULT_BACKOFF = BackoffConfig()


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for :func:`repro.core.pipeline.synthesize`."""

    #: Knobs that older versions wrote into cached payloads and that no
    #: longer exist; :meth:`from_dict` drops them instead of rejecting the
    #: payload.  (Not a dataclass field: the name carries no annotation.)
    _RETIRED_FIELDS = frozenset({"search_workers"})

    #: Tolerance used by the arithmetic solvers on every observation.
    epsilon: float = 1e-3

    #: How many candidate programs to return (the paper uses top-5).
    top_k: int = 5

    #: Cost function name: ``"ast-size"`` (default) or ``"reward-loops"``.
    cost_function: str = "ast-size"

    #: Iterations of the *outer* loop of Fig. 5.  One iteration was enough
    #: for every model in the paper's evaluation.
    main_iterations: int = 1

    #: Limits of the inner equality-saturation runner ("fuel").  A dozen
    #: iterations saturate the affine rules; the incremental fold rules keep
    #: firing longer on long chains, but the big-step chain-fold rule already
    #: exposes the fully folded view in the first iteration, so further
    #: iterations only add redundant partially-folded variants.
    rewrite_iterations: int = 12
    max_enodes: int = 200_000
    max_seconds: float = 60.0

    #: Backoff-scheduler knobs of the two-phase runner: a rule producing more
    #: than ``rule_match_limit`` matches in one search phase is banned for
    #: ``rule_ban_length`` iterations, and both double on every re-offence.
    #: The default threshold is high enough that the paper's benchmark suite
    #: never triggers a ban; lower it to tame expansive rule sets.
    rule_match_limit: int = _DEFAULT_BACKOFF.match_limit
    rule_ban_length: int = _DEFAULT_BACKOFF.ban_length

    #: Use the compiled-trie incremental e-matcher in the saturation runner
    #: (only classes dirtied since the previous iteration are re-searched).
    #: Match semantics are identical to the naive sweep — the differential
    #: suite in ``tests/test_search_differential.py`` locks this down — so
    #: the knob exists for ablation/debugging, not correctness.
    incremental_search: bool = True

    #: Skip apply-phase re-application of matches that already executed
    #: under an identical canonical fingerprint (the runner's applied-match
    #: ledger).  Skipped matches are exactly the ones whose re-application
    #: would merge a class with itself, so results are identical either way
    #: (``tests/test_apply_dedup.py`` pins the parity) — an
    #: ablation/debugging knob like ``incremental_search``.
    apply_dedup: bool = True

    #: Maintain the extraction :class:`~repro.egraph.extract.CostAnalysis`
    #: incrementally during saturation (registered on the e-graph by the
    #: runner), so post-saturation single-best extraction — including every
    #: determinizer query inside the arithmetic components — reads
    #: ready-made best costs instead of recomputing a fixpoint.  Extracted
    #: terms are identical either way (``tests/test_extract_kbest.py`` pins
    #: the parity), so this is an ablation/debugging knob like
    #: ``incremental_search``.
    incremental_extraction: bool = True

    #: Rule categories to enable (see :func:`repro.core.rules.rules_by_category`).
    rule_categories: Tuple[str, ...] = (
        "affine-lifting",
        "affine-collapsing",
        "affine-reordering",
        "folds",
        "boolean",
    )

    #: Whether to run the arithmetic components at all (useful for ablations).
    enable_function_inference: bool = True
    enable_loop_inference: bool = True
    enable_list_sorting: bool = True

    #: Maximum nesting depth attempted by loop inference (the paper supports
    #: up to three nested loops; two is what real designs need).
    max_loop_nesting: int = 3

    def solver_config(self) -> SolverConfig:
        """The arithmetic-solver configuration implied by this config."""
        return SolverConfig(epsilon=self.epsilon)

    def with_cost_function(self, name: str) -> "SynthesisConfig":
        """A copy of this config using a different cost function."""
        return replace(self, cost_function=name)

    # -- serialization (worker protocol + result cache) ------------------------

    def to_dict(self) -> Dict[str, object]:
        """All knobs as a JSON-able dict (tuples become lists)."""
        out: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SynthesisConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected loudly (a cache written by a newer version
        must not be silently reinterpreted); missing keys take the defaults.
        Retired knobs (:attr:`_RETIRED_FIELDS`) are dropped first, so
        payloads written before their removal still load.
        """
        kwargs = {key: value for key, value in data.items() if key not in cls._RETIRED_FIELDS}
        known = {spec.name for spec in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown SynthesisConfig fields: {sorted(unknown)}")
        if "rule_categories" in kwargs:
            kwargs["rule_categories"] = tuple(kwargs["rule_categories"])
        return cls(**kwargs)

    def semantic_dict(self) -> Dict[str, object]:
        """The fields that can change *what* is synthesized (cache identity).

        ``incremental_search``, ``incremental_extraction``, and
        ``apply_dedup`` are excluded: they only change how e-matching /
        best-cost bookkeeping / match re-application is scheduled, and the
        differential suites pin their results as identical to the post-hoc
        computations — so all settings may share cache entries.  Extraction
        knobs that *do* change the output (``top_k``, ``cost_function``)
        stay in.
        """
        out = self.to_dict()
        out.pop("incremental_search")
        out.pop("incremental_extraction")
        out.pop("apply_dedup")
        return out

    def fingerprint(self) -> str:
        """Stable content-address of the semantically relevant fields."""
        return payload_fingerprint(self.semantic_dict())
