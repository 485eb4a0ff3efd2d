"""The Szalinski core: rewrites + arithmetic inference over an e-graph.

This package implements the paper's contribution (Sections 3–5 and the
algorithm of Fig. 5): the database of semantics-preserving syntactic
rewrites, list reading, determinization and sorting, closed-form function
inference, nested-loop inference, cost functions, and top-k extraction —
composed by :func:`~repro.core.pipeline.synthesize` in one pass, under a
:class:`~repro.core.config.SynthesisConfig` that holds one field per
global CLI option.
"""

from repro.core.config import SynthesisConfig
from repro.core.cost import COST_FUNCTIONS, ast_size_cost_fn, reward_loops_cost_fn
from repro.core.rules import all_rules, default_rules, rules_by_category
from repro.core.pipeline import synthesize, SynthesisResult, CandidateProgram

__all__ = [
    "SynthesisConfig",
    "COST_FUNCTIONS",
    "ast_size_cost_fn",
    "reward_loops_cost_fn",
    "all_rules",
    "default_rules",
    "rules_by_category",
    "synthesize",
    "SynthesisResult",
    "CandidateProgram",
]
