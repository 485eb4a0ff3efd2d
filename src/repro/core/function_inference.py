"""Closed-form function inference over folded lists (paper Section 4).

For every ``Fold`` the rewrites introduced, this component:

1. reads and determinizes the list of affine-transformed CADs,
2. checks that the list is uniform (same affine signature per element, same
   core child — otherwise a ``Mapi`` would not be semantics-preserving),
3. extracts the per-layer vectors and asks the arithmetic solvers for a
   closed form of the index for every layer,
4. on success, adds ``Mapi``-based e-nodes equivalent to the list into the
   list's e-class (paper Fig. 9, "function inference" step).

Two equivalent shapes are inserted: a single ``Mapi`` whose body nests all
affine layers (the gear output of Fig. 4), and a chain of nested ``Mapi``\\ s
with one layer each (the Fig. 10 output).  Cost-based extraction picks
whichever reads best.  If the whole list admits no closed form, inference
falls back to the longest contiguous run that does (this is how the noisy
Fig. 16 model gets a loop over its first two hexagons while the third stays
literal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cad.build import cons_list, concat, fun, mapi, repeat
from repro.core.config import SynthesisConfig
from repro.core.determinize import DeterminizedList, Determinizer
from repro.core.lists import fold_worklist, sort_elements
from repro.lang.term import Term
from repro.solvers.closed_form import FunctionSolver, VectorFunction


@dataclass
class InferenceRecord:
    """What one successful inference produced.

    A diagnostic of the run: Table 1's n-l / f columns are read off the
    output program (:mod:`repro.core.analysis`), not off these records.
    """

    kind: str  # "mapi", "mapi-partial", or "repeat"
    loop_bounds: Tuple[int, ...]
    function_kinds: Tuple[str, ...]
    list_class: int
    nesting: int = 1


@dataclass
class LayerSolution:
    """A solved affine layer: the operator and its closed-form vector function."""

    op: str
    function: VectorFunction


@dataclass
class FunctionInference:
    """Runs function inference over every fold currently in the e-graph.

    ``determinizer`` and ``solver`` are the synthesis run's shared ones
    (loop inference uses the same two), so their memos span both passes.
    """

    config: SynthesisConfig
    determinizer: Determinizer
    solver: FunctionSolver
    records: List[InferenceRecord] = field(default_factory=list)

    def run(self) -> int:
        """Infer functions for all folds; returns the number of successes.

        Folds are processed longest-list first.  A fold of more than eight
        elements is skipped when its elements are a subset of an
        already-solved fold's elements: the chains a flat trace produces
        contain every suffix of the full list as its own fold, and solving
        the long suffixes adds nothing the full solution does not already
        expose.  Shorter folds are always attempted.  The determinizer's
        ``work`` counts the lists skipped (``covered_lists``), the lists
        denied the partial-run search under a failed superset
        (``partial_skips``) and the runs that search tried (``partial_runs``).
        """
        work = fold_worklist(
            self.determinizer.egraph, min_length=2, work=self.determinizer.work
        )

        successes = 0
        covered: List[frozenset] = []
        failed: List[frozenset] = []
        for list_class, element_classes in work:
            element_set = frozenset(element_classes)
            # Suffix folds of an already-solved longer chain add nothing and
            # are skipped — but only for long lists, where the quadratic
            # re-work would actually cost something.  Short sub-lists are
            # always attempted: a sub-group can have cleaner structure than
            # the (heuristically solved) enclosing list.
            if len(element_classes) > 8 and any(element_set <= done for done in covered):
                self.determinizer.work["covered_lists"] += 1
                continue
            # When a superset already failed, its sub-lists will fail the
            # (cheap) full inference the same way; skip the more expensive
            # partial-run search for them to avoid quadratic re-work over the
            # many suffix folds a flat trace produces.
            allow_partial = not any(element_set <= bad for bad in failed)
            if not allow_partial:
                self.determinizer.work["partial_skips"] += 1
            variants = self.determinizer.determinize_all(element_classes, max_variants=4)
            solved = False
            # Try every determinized variant: different affine orderings can
            # yield different (all correct) parameterizations, and the cost
            # function picks among them at extraction time.
            for determinized in variants:
                if self._infer_for_list(list_class, determinized, allow_partial=allow_partial):
                    solved = True
            if solved:
                successes += 1
                covered.append(element_set)
            else:
                failed.append(element_set)
        return successes

    # -- helpers -------------------------------------------------------------------

    def _infer_for_list(
        self,
        list_class: int,
        determinized: DeterminizedList,
        *,
        allow_partial: bool = True,
    ) -> bool:
        elements = determinized.elements
        sorted_order: Optional[List[Term]] = None

        def orders() -> Iterator[Sequence[Term]]:
            """The elements as listed, then sorted when that differs (sorted on
            first need)."""
            nonlocal sorted_order
            yield elements
            if sorted_order is None:
                sorted_order = sort_elements(elements, self.determinizer.affine_chain)
            if sorted_order != elements:
                yield sorted_order

        solved = False
        full_solved = False
        for order in orders():
            decomposed = self._decompose(order)
            if decomposed is None:
                # Reordering keeps every element, so the elements share one
                # signature and core in both orders or in neither.
                break
            built = self._infer_full(*decomposed, len(order))
            if built is not None:
                self._merge(list_class, *built)
                solved = True
                full_solved = True
                break

        if not allow_partial:
            return solved

        # Also look for solvable contiguous runs.  Even when the full list
        # admits a closed form, a run-based variant can be the better program
        # (the Fig. 16 noisy hexagons: an exact quadratic exists for all three
        # but the paper's preferred output loops over the first two only);
        # both variants go into the e-graph and extraction chooses.
        if not full_solved or len(determinized) <= 6:
            for order in orders():
                built = self._infer_partial(order)
                if built is not None:
                    self._merge(list_class, *built)
                    solved = True
                    break
        return solved

    def _merge(self, list_class: int, terms: Sequence[Term], record: InferenceRecord) -> None:
        """Merge equivalent inferred terms into the list's class and keep the record."""
        for term in terms:
            self.determinizer.merge_term(list_class, term)
        record.list_class = self.determinizer.egraph.find(list_class)
        self.records.append(record)

    # -- full-list inference ----------------------------------------------------------

    def _infer_full(
        self,
        layers: Sequence[Tuple[str, List[Tuple[float, float, float]]]],
        core: Term,
        count: int,
    ) -> Optional[Tuple[List[Term], InferenceRecord]]:
        """A closed form of ``count`` elements from their :meth:`_decompose`."""

        if not layers:
            # No affine structure but all elements identical: a plain Repeat.
            return (
                [repeat(core, count)],
                InferenceRecord(
                    kind="repeat",
                    loop_bounds=(count,),
                    function_kinds=(),
                    list_class=-1,
                ),
            )

        solutions = self._solve_layers(layers)
        if solutions is None:
            return None

        variants = [self._build_single_mapi(solutions, core, count)]
        record = InferenceRecord(
            kind="mapi",
            loop_bounds=(count,),
            function_kinds=tuple(s.function.dominant_kind() for s in solutions),
            list_class=-1,
        )
        nested = self._build_nested_mapis(solutions, core, count)
        if nested is not None and nested not in variants:
            variants.append(nested)
        return variants, record

    def _decompose(
        self, elements: Sequence[Term]
    ) -> Optional[Tuple[List[Tuple[str, List[Tuple[float, float, float]]]], Term]]:
        """Split elements into per-layer vector lists and their shared core.

        None unless every element has the first one's affine signature and
        core: otherwise a ``Mapi`` would not be semantics-preserving.
        """
        chains = [self.determinizer.affine_chain(element) for element in elements]
        first_layers, core = chains[0]
        signature = [op for op, _vector in first_layers]
        for layers, element_core in chains:
            if element_core != core or [op for op, _vector in layers] != signature:
                return None
        columns = [
            (op, [layers[index][1] for layers, _core in chains])
            for index, op in enumerate(signature)
        ]
        return columns, core

    def _solve_layers(
        self,
        layers: Sequence[Tuple[str, List[Tuple[float, float, float]]]],
    ) -> Optional[List[LayerSolution]]:
        solutions: List[LayerSolution] = []
        for op, vectors in layers:
            function = self.solver.solve(vectors, is_rotation=(op == "Rotate"))
            if function is None:
                return None
            solutions.append(LayerSolution(op=op, function=function))
        return solutions

    def _build_single_mapi(
        self, solutions: Sequence[LayerSolution], core: Term, count: int
    ) -> Term:
        """One Mapi whose body nests every affine layer (Fig. 4 shape)."""
        index = Term("i")
        body: Term = Term("c")
        for solution in reversed(list(solutions)):
            x, y, z = solution.function.to_terms(index)
            body = Term(solution.op, (x, y, z, body))
        return mapi(fun(("i", "c"), body), repeat(core, count))

    def _build_nested_mapis(
        self, solutions: Sequence[LayerSolution], core: Term, count: int
    ) -> Optional[Term]:
        """Nested Mapis, one per affine layer (Fig. 10 shape)."""
        if len(solutions) < 2:
            return None
        index = Term("i")
        current: Term = repeat(core, count)
        for solution in reversed(list(solutions)):
            x, y, z = solution.function.to_terms(index)
            body = Term(solution.op, (x, y, z, Term("c")))
            current = mapi(fun(("i", "c"), body), current)
        return current

    # -- partial (contiguous-run) inference ----------------------------------------------

    def _promising_runs(self, elements: Sequence[Term]) -> List[Tuple[int, int]]:
        """Maximal contiguous runs whose outer affine vectors step uniformly.

        Runs are detected with a cheap constant-first-difference test on the
        outermost affine vector (a linear progression steps by the same
        amount between consecutive elements), so the expensive solvers are
        only invoked on a handful of candidate runs instead of every O(n^2)
        slice.  Elements whose step differs start a new run; runs of a single
        step (two elements) are still considered — any two points lie on a
        line, which is exactly how the noisy Fig. 16 model keeps its first
        two hexagons in a loop.
        """
        count = len(elements)
        vectors = []
        for element in elements:
            layers, _core = self.determinizer.affine_chain(element)
            vectors.append(layers[0][1] if layers else None)

        def step(index: int):
            a, b = vectors[index], vectors[index + 1]
            if a is None or b is None:
                return None
            return tuple(b[k] - a[k] for k in range(3))

        def steps_equal(a, b) -> bool:
            if a is None or b is None:
                return False
            tolerance = max(self.config.epsilon * 4.0, 1e-6)
            return all(abs(x - y) <= tolerance for x, y in zip(a, b))

        runs: List[Tuple[int, int]] = []
        start = 0
        while start < count - 1:
            current_step = step(start)
            if current_step is None:
                start += 1
                continue
            end = start + 1
            while end < count - 1 and steps_equal(step(end), current_step):
                end += 1
            runs.append((start, end + 1))
            start = end
        # Longest candidates first; discard trivial or full-length runs.
        runs = [(s, e) for s, e in runs if 2 <= e - s < count]
        runs.sort(key=lambda pair: -(pair[1] - pair[0]))
        return runs[:8]

    def _infer_partial(
        self, elements: Sequence[Term]
    ) -> Optional[Tuple[List[Term], InferenceRecord]]:
        count = len(elements)
        best: Optional[Tuple[int, int, Term, InferenceRecord]] = None
        for start, end in self._promising_runs(elements):
            self.determinizer.work["partial_runs"] += 1
            decomposed = self._decompose(elements[start:end])
            built = None if decomposed is None else self._infer_full(*decomposed, end - start)
            if built is None:
                continue
            run_terms, record = built
            best = (start, end, run_terms[0], record)
            break
        if best is None:
            return None
        start, end, run_term, record = best
        parts: List[Term] = []
        if start > 0:
            parts.append(cons_list(elements[:start]))
        parts.append(run_term)
        if end < count:
            parts.append(cons_list(elements[end:]))
        combined = parts[0]
        for part in parts[1:]:
            combined = concat(combined, part)
        record.kind = "mapi-partial"
        return [combined], record
