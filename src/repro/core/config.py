"""Configuration of the synthesis pipeline.

All of the paper's knobs live here: the noise tolerance epsilon (0.001 by
default, Section 4.1), the number of returned programs k (5 in the
evaluation), the cost function name, and the resource limits that play the
role of the algorithm's ``fuel`` argument.  How the engine schedules the
work is not a knob; the reference engines the differential tests compare
against are :class:`~repro.egraph.runner.Runner` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from repro.core.cost import COST_FUNCTIONS
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
    _RETIRED_FIELDS = frozenset(
        {"search_workers", "incremental_search", "apply_dedup", "incremental_extraction"}
    )

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

    def __post_init__(self) -> None:
        # Reject what extraction would reject, before any synthesis runs.
        if self.top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {self.top_k}")
        if self.cost_function not in COST_FUNCTIONS:
            known = ", ".join(sorted(COST_FUNCTIONS))
            raise ValueError(f"unknown cost function {self.cost_function!r}; known: {known}")

    def solver_config(self) -> SolverConfig:
        """The arithmetic-solver configuration implied by this config."""
        return SolverConfig(epsilon=self.epsilon)

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

    def fingerprint(self) -> str:
        """Stable content-address of every knob (the config half of a cache key)."""
        return payload_fingerprint(self.to_dict())
