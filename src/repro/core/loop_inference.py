"""Nested-loop inference (paper Section 5).

Function inference handles singly-indexed repetition; this component looks
for doubly- and triply-nested loops over the *outermost* affine layer of a
folded list.  It follows the paper's two-step search:

* **regular loops** — the list length ``n`` is m-factorized (m = 2, 3, trivial
  factors removed); each factorization yields m-index-sets (the Cartesian
  product of the per-dimension ranges, Fig. 13); the list elements are paired
  with those index tuples and the multilinear solver is asked for a closed
  form of every vector component.  On success a nested ``Fold`` of ``Fun``\\ s
  over explicit index lists is built (the Fig. 14 / Fig. 17 output shape) and
  merged into the list's e-class.
* **irregular loops** — when no regular factorization fits, elements are
  regrouped by a shared coordinate of the outer vector; groups that admit a
  closed form become inner loops and the groups are concatenated.

Both shapes evaluate (via the map-concatenate convention of the LambdaCAD
evaluator) to a list equal, up to reordering, to the original — which is
semantics-preserving under the commutative fold operators they appear in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cad.build import concat, cons_list, fold, fun, int_list, mapi, nil, repeat
from repro.core.config import SynthesisConfig
from repro.core.determinize import Determinizer
from repro.core.function_inference import InferenceRecord
from repro.core.lists import fold_worklist, sort_elements
from repro.lang.term import Term
from repro.solvers.closed_form import FunctionSolver
from repro.solvers.multilinear import fit_multilinear


# ---------------------------------------------------------------------------
# m-factorization and m-index-sets (paper Fig. 13)
# ---------------------------------------------------------------------------

def m_factorizations(n: int, m: int) -> List[Tuple[int, ...]]:
    """All ways to write ``n`` as an ordered product of ``m`` non-trivial factors.

    Trivial factors (1 and ``n`` itself in any position) are removed, as in
    the paper: they do not lead to interesting nested loops.
    """
    if m < 1 or n < 2:
        return []
    if m == 1:
        return [(n,)]
    results: List[Tuple[int, ...]] = []
    for first in range(2, n // 2 + 1):
        if n % first != 0:
            continue
        for rest in m_factorizations(n // first, m - 1):
            candidate = (first,) + rest
            if all(factor >= 2 for factor in candidate):
                results.append(candidate)
    # Deduplicate while keeping order (unique_perms in the paper).
    unique: List[Tuple[int, ...]] = []
    for candidate in results:
        if candidate not in unique:
            unique.append(candidate)
    return unique


def m_index_set(dimensions: Sequence[int]) -> List[Tuple[int, ...]]:
    """The Cartesian-product index tuples for the given loop bounds.

    For dimensions ``(2, 2)`` this returns ``[(0,0), (0,1), (1,0), (1,1)]`` —
    i.e. the two paper index sets ``[0;0;1;1]`` and ``[0;1;0;1]`` read
    column-wise.
    """
    ranges = [range(d) for d in dimensions]
    return [tuple(t) for t in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# Loop inference proper
# ---------------------------------------------------------------------------

Vector = Tuple[float, float, float]

#: ``(op, vectors, remainder, constant_wrappers)``, see
#: :meth:`LoopInference._outer_layers`.
OuterLayers = Tuple[str, List[Vector], Term, List[Tuple[str, Vector]]]


@dataclass
class LoopInference:
    """Searches folded lists for nested-loop structure.

    ``determinizer`` and ``solver`` are the synthesis run's shared ones
    (function inference uses the same two), so their memos span both passes.
    """

    config: SynthesisConfig
    determinizer: Determinizer
    solver: FunctionSolver
    records: List[InferenceRecord] = field(default_factory=list)

    #: Index variable names per nesting level.
    _INDEX_NAMES = ("i", "j", "k")

    def run(self) -> int:
        """Infer nested loops for all folds; returns the number of successes.

        Folds are processed longest first.  A fold is skipped only when a
        superset fold was already solved by a *regular* nested loop (the
        sub-list is then just a slice of that loop); irregular successes do
        not suppress sub-folds, because a sub-list may still admit the more
        useful regular factorization (the dice's 3x3 pip grid inside a larger
        irregular face list is the canonical example).  Every attempt here is
        cheap — a few least-squares fits — so there is no quadratic blow-up.
        """
        egraph = self.determinizer.egraph
        work = fold_worklist(egraph, min_length=4, work=self.determinizer.work)

        successes = 0
        regular_covered: List[frozenset] = []
        for list_class, element_classes in work:
            element_set = frozenset(element_classes)
            if any(element_set <= done for done in regular_covered):
                self.determinizer.work["regular_covered_lists"] += 1
                continue
            # Both loop shapes need every element affine (_outer_layers): a
            # class offering only the empty signature has no affine variant.
            if not all(any(self.determinizer.signatures(c)) for c in element_classes):
                self.determinizer.work["gated_lists"] += 1
                continue
            built = None
            regular = False
            for determinized in self.determinizer.determinize_all(element_classes, max_variants=3):
                elements = sort_elements(determinized.elements, self.determinizer.affine_chain)
                outer = self._outer_layers(elements)
                if outer is None:
                    continue
                built = self._infer_regular(outer, len(elements))
                regular = built is not None
                if built is None:
                    built = self._infer_irregular(elements, outer)
                if built is not None:
                    break
            if built is None:
                continue
            term, record = built
            self.determinizer.merge_term(list_class, term)
            record.list_class = egraph.find(list_class)
            self.records.append(record)
            if regular:
                regular_covered.append(element_set)
            successes += 1
        return successes

    # -- shared helpers ---------------------------------------------------------------

    def _outer_layers(self, elements: Sequence[Term]) -> Optional[OuterLayers]:
        """The outermost *varying* affine layer of a uniform element list.

        Returns ``(op, vectors, remainder, constant_wrappers)`` where
        ``constant_wrappers`` are leading affine layers that are identical
        across every element (e.g. an identical ``Scale`` the determinizer
        happened to put outermost); they are re-applied around the loop body.
        The layer below the varying one must be identical across elements,
        otherwise a single loop body cannot reproduce the list.  Both loop
        shapes start from it.
        """
        chains = [self.determinizer.affine_chain(element) for element in elements]
        first_layers, first_core = chains[0]
        constant_tolerance = max(self.config.epsilon, 1e-9)
        constant_wrappers: List[Tuple[str, Vector]] = []
        for depth in range(7):
            if any(len(layers) <= depth for layers, _core in chains):
                return None
            op, first_vector = first_layers[depth]
            if any(layers[depth][0] != op for layers, _core in chains):
                return None
            vectors = [layers[depth][1] for layers, _core in chains]
            if all(
                all(abs(v[k] - first_vector[k]) <= constant_tolerance for k in range(3))
                for v in vectors
            ):
                # A constant layer: peel it off and look one level deeper.
                constant_wrappers.append((str(op), first_vector))
                continue
            below = first_layers[depth + 1:]
            if any(layers[depth + 1:] != below or core != first_core for layers, core in chains):
                return None
            remainder = elements[0]
            for _ in range(depth + 1):
                remainder = remainder.children[3]
            return str(op), vectors, remainder, constant_wrappers
        return None

    # -- regular nested loops -----------------------------------------------------------

    def _infer_regular(
        self, outer: OuterLayers, count: int
    ) -> Optional[Tuple[Term, InferenceRecord]]:
        op, vectors, remainder, wrappers = outer

        # Up to three nested loops (the paper's limit), one index name each.
        for nesting in range(2, len(self._INDEX_NAMES) + 1):
            for dimensions in m_factorizations(count, nesting):
                index_tuples = m_index_set(dimensions)
                forms = []
                feasible = True
                for component in range(3):
                    values = [v[component] for v in vectors]
                    form = fit_multilinear(
                        index_tuples, values, self.config.epsilon, self.solver.work
                    )
                    if form is None:
                        feasible = False
                        break
                    forms.append(form)
                if not feasible:
                    continue
                term = self._build_nested_fold(op, forms, remainder, dimensions, wrappers)
                record = InferenceRecord(
                    kind="nested-loop",
                    loop_bounds=tuple(dimensions),
                    function_kinds=tuple(f.kind for f in forms),
                    list_class=-1,
                    nesting=len(dimensions),
                )
                return term, record
        return None

    @staticmethod
    def _wrap_constant_layers(body: Term, wrappers: Sequence[Tuple[str, Vector]]) -> Term:
        """Re-apply peeled constant affine layers around a loop body."""
        for op, vector in reversed(list(wrappers)):
            body = Term(
                op,
                (Term.num(vector[0]), Term.num(vector[1]), Term.num(vector[2]), body),
            )
        return body

    def _build_nested_fold(
        self,
        op: str,
        forms: Sequence,
        remainder: Term,
        dimensions: Sequence[int],
        wrappers: Sequence[Tuple[str, Vector]] = (),
    ) -> Term:
        """The Fig. 14 output shape: nested Folds of Funs over index lists."""
        index_vars = [Term(self._INDEX_NAMES[level]) for level in range(len(dimensions))]
        x, y, z = (form.to_term(index_vars) for form in forms)
        body: Term = Term(op, (x, y, z, remainder))
        body = self._wrap_constant_layers(body, wrappers)
        # Innermost level first: Fold (Fun k -> body, Nil, [0..d-1]).
        for level in range(len(dimensions) - 1, -1, -1):
            body = fold(
                fun((self._INDEX_NAMES[level],), body),
                nil(),
                int_list(range(dimensions[level])),
            )
        return body

    # -- irregular loops ------------------------------------------------------------------

    def _infer_irregular(
        self, elements: Sequence[Term], outer: OuterLayers
    ) -> Optional[Tuple[Term, InferenceRecord]]:
        op, vectors, remainder, wrappers = outer

        for grouping_component in range(3):
            groups = _group_vectors_by_component(
                vectors, grouping_component, epsilon=max(self.config.epsilon, 1e-6)
            )
            if len(groups) < 2 or all(len(members) < 2 for _v, members in groups):
                continue
            sizes = {len(members) for _value, members in groups}
            if len(sizes) == 1:
                # A regular grid — the regular path either handled it or the
                # data truly has no multilinear form; grouping will not help.
                continue
            parts: List[Term] = []
            kinds: List[str] = []
            usable = True
            for _value, members in groups:
                if len(members) < 2:
                    parts.append(cons_list([elements[index] for _v, index in members]))
                    continue
                member_vectors = [vector for vector, _index in members]
                function = self.solver.solve(member_vectors, is_rotation=(op == "Rotate"))
                if function is None:
                    usable = False
                    break
                x, y, z = function.to_terms(Term("j"))
                body = Term(op, (x, y, z, Term("c")))
                body = self._wrap_constant_layers(body, wrappers)
                parts.append(mapi(fun(("j", "c"), body), repeat(remainder, len(members))))
                kinds.append(function.dominant_kind())
            if not usable or not kinds:
                continue
            combined = parts[0]
            for part in parts[1:]:
                combined = concat(combined, part)
            record = InferenceRecord(
                kind="irregular-loop",
                loop_bounds=tuple(len(members) for _v, members in groups),
                function_kinds=tuple(kinds),
                list_class=-1,
                nesting=2,
            )
            return combined, record
        return None


def _group_vectors_by_component(vectors, component: int, *, epsilon: float):
    """Group (vector, element-index) pairs by one coordinate of the vector.

    The paper's regrouping by a common coordinate value (Section 4.3),
    applied to the varying-layer vectors loop inference extracted rather
    than to the elements themselves: an element's literal outermost layer
    may be a peeled constant wrapper.  Values within ``epsilon`` of a
    group's first value join that group.  Returns
    ``[(value, [(vector, index), ...]), ...]`` sorted by the shared value.
    """
    groups = []
    for index, vector in enumerate(vectors):
        value = vector[component]
        placed = False
        for key, members in groups:
            if abs(key - value) <= epsilon:
                members.append((vector, index))
                placed = True
                break
        if not placed:
            groups.append((value, [(vector, index)]))
    groups.sort(key=lambda pair: pair[0])
    return groups
