"""Configuration of the synthesis pipeline.

``SynthesisConfig`` has one field per global CLI option: the paper's noise
tolerance epsilon (0.001 by default, Section 4.1), the number of returned
programs k (5 in the evaluation), the cost function name, the rewrite-rule
categories, and the resource limits that play the role of the algorithm's
``fuel`` argument.  Everything else the pipeline does is fixed: one pass of
saturation, then function and loop inference, then extraction (see
:mod:`repro.core.pipeline`).  The reference engines and the ablations the
tests compare against are test oracles (``tests/saturation_oracle.py``) or
monkeypatched components, not knobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Dict, Tuple

from repro.core.cost import COST_FUNCTIONS
from repro.egraph.runner import BackoffConfig
from repro.lang.canon import payload_fingerprint


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for :func:`repro.core.pipeline.synthesize`."""

    #: Knobs that older versions wrote into cached payloads but never into a
    #: cache key; :meth:`from_dict` drops them at any value.  (Not dataclass
    #: fields: the names carry no annotation.)
    _DROPPED_FIELDS = frozenset(
        {"search_workers", "incremental_search", "apply_dedup", "incremental_extraction"}
    )

    #: Knobs that older versions hashed into every cache key, at the one
    #: value every existing key was minted under.  :meth:`fingerprint` still
    #: hashes them, so those keys stay valid; :meth:`from_dict` accepts them
    #: at exactly these values and rejects any other.
    _FIXED_FIELDS = MappingProxyType(
        {
            "main_iterations": 1,
            "rule_match_limit": BackoffConfig().match_limit,
            "rule_ban_length": BackoffConfig().ban_length,
            "enable_function_inference": True,
            "enable_loop_inference": True,
            "enable_list_sorting": True,
            "max_loop_nesting": 3,
        }
    )

    #: Tolerance used by the arithmetic solvers on every observation.
    epsilon: float = 1e-3

    #: How many candidate programs to return (the paper uses top-5).
    top_k: int = 5

    #: Cost function name: ``"ast-size"`` (default) or ``"reward-loops"``.
    cost_function: str = "ast-size"

    #: Limits of the equality-saturation runner ("fuel").  A dozen
    #: iterations saturate the affine rules; the incremental fold rules keep
    #: firing longer on long chains, but the big-step chain-fold rule already
    #: exposes the fully folded view in the first iteration, so further
    #: iterations only add redundant partially-folded variants.
    rewrite_iterations: int = 12
    max_enodes: int = 200_000
    max_seconds: float = 60.0

    #: Rule categories to enable (see :func:`repro.core.rules.rules_by_category`).
    rule_categories: Tuple[str, ...] = (
        "affine-lifting",
        "affine-collapsing",
        "affine-reordering",
        "folds",
        "boolean",
    )

    def __post_init__(self) -> None:
        # Reject what no run could use, before any synthesis runs.
        if self.top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {self.top_k}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        if self.rewrite_iterations < 0:
            raise ValueError(f"rewrite_iterations must be >= 0, got {self.rewrite_iterations}")
        if self.max_enodes < 1:
            raise ValueError(f"max_enodes must be at least 1, got {self.max_enodes}")
        if not (math.isfinite(self.max_seconds) and self.max_seconds > 0):
            raise ValueError(f"max_seconds must be a finite number > 0, got {self.max_seconds}")
        if self.cost_function not in COST_FUNCTIONS:
            known = ", ".join(sorted(COST_FUNCTIONS))
            raise ValueError(f"unknown cost function {self.cost_function!r}; known: {known}")

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
        Retired knobs are removed first, so payloads written before their
        removal still load: :attr:`_DROPPED_FIELDS` at any value,
        :attr:`_FIXED_FIELDS` only at their fixed value.
        """
        kwargs = {}
        for key, value in data.items():
            if key in cls._FIXED_FIELDS:
                if value != cls._FIXED_FIELDS[key]:
                    raise ValueError(
                        f"SynthesisConfig field {key!r} is retired and fixed at "
                        f"{cls._FIXED_FIELDS[key]!r}; got {value!r}"
                    )
            elif key not in cls._DROPPED_FIELDS:
                kwargs[key] = value
        known = {spec.name for spec in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown SynthesisConfig fields: {sorted(unknown)}")
        if "rule_categories" in kwargs:
            kwargs["rule_categories"] = tuple(kwargs["rule_categories"])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Stable content-address of every knob (the config half of a cache key).

        The fixed retired knobs are hashed alongside :meth:`to_dict`, so a
        config hashes exactly as it did before they were retired.
        """
        return payload_fingerprint({**self.to_dict(), **self._FIXED_FIELDS})
