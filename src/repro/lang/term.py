"""Immutable term representation shared by CSG and LambdaCAD.

Both the input language (flat CSG, paper Fig. 6 right) and the output
language (LambdaCAD, paper Fig. 6 left) are ordinary first-order term
languages, so the whole reproduction works over a single generic
:class:`Term` type: an operator symbol applied to child terms, where numeric
leaves are terms with a numeric operator and no children.

Terms are hash-consed-friendly: they are frozen, cache their hash, and
compare structurally, which is what the e-graph's ``add`` path and the
evaluators need to be fast.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from repro.lang.sexp import Sexp, format_sexp, parse_sexp


class TermError(ValueError):
    """Raised when terms are constructed or converted incorrectly."""


#: Operators may be symbols (strings) or numeric literals.
Operator = Union[str, int, float]


class Term:
    """An immutable operator applied to zero or more child terms.

    ``Term("Translate", (x, y, z, child))`` — note children are stored as a
    tuple.  Numeric leaves are ``Term(2.0)`` / ``Term(3)``; symbolic leaves
    (like primitive names ``Cube`` or variables ``i``) are ``Term("Cube")``.
    """

    __slots__ = ("op", "children", "_hash")

    def __init__(self, op: Operator, children: Sequence["Term"] = ()):
        if isinstance(op, bool):
            raise TermError("booleans are not valid term operators")
        if not isinstance(op, (str, int, float)):
            raise TermError(f"invalid operator: {op!r}")
        kids = tuple(children)
        for child in kids:
            if not isinstance(child, Term):
                raise TermError(f"child {child!r} is not a Term")
        if isinstance(op, (int, float)) and kids:
            raise TermError("numeric literals cannot have children")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "_hash", hash((op, kids)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Term is immutable")

    def __reduce__(self):
        # Pickle via the constructor: the default slot-based protocol would
        # call __setattr__ (which raises), and rebuilding through __init__
        # also revalidates and recomputes the cached hash in the receiving
        # process.  This is what lets synthesis results cross the batch
        # service's worker-process boundary.
        return (Term, (self.op, self.children))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def leaf(op: Operator) -> "Term":
        """Construct a leaf term (no children)."""
        return Term(op)

    @staticmethod
    def num(value: Union[int, float]) -> "Term":
        """Construct a numeric literal term."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TermError(f"not a number: {value!r}")
        return Term(value)

    # -- predicates ------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True when the term has no children."""
        return not self.children

    @property
    def is_number(self) -> bool:
        """True when the term is a numeric literal."""
        return isinstance(self.op, (int, float))

    @property
    def value(self) -> Union[int, float]:
        """The numeric value of a literal term."""
        if not self.is_number:
            raise TermError(f"term {self.op!r} is not a numeric literal")
        return self.op

    # -- structural queries ----------------------------------------------------

    def size(self) -> int:
        """Number of AST nodes (the paper's default cost metric)."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Height of the AST (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def count(self, op: Operator) -> int:
        """Count nodes whose operator equals ``op``."""
        own = 1 if self.op == op else 0
        return own + sum(child.count(op) for child in self.children)

    def operators(self) -> set:
        """The set of all operators appearing in the term."""
        ops = {self.op}
        for child in self.children:
            ops |= child.operators()
        return ops

    def subterms(self) -> Iterator["Term"]:
        """Yield every subterm, pre-order."""
        yield self
        for child in self.children:
            yield from child.subterms()

    def map_bottom_up(self, fn) -> "Term":
        """Rewrite the term bottom-up: children first, then ``fn`` on the node."""
        rebuilt = Term(self.op, tuple(c.map_bottom_up(fn) for c in self.children))
        return fn(rebuilt)

    # -- conversion ------------------------------------------------------------

    @staticmethod
    def from_sexp(sexp: Sexp) -> "Term":
        """Build a term from a parsed s-expression.

        ``(Translate 1 2 3 Cube)`` becomes ``Term("Translate", (1, 2, 3, Cube))``.
        A bare atom becomes a leaf.  An empty list is rejected.
        """
        if isinstance(sexp, list):
            if not sexp:
                raise TermError("cannot convert empty list to a term")
            head = sexp[0]
            if isinstance(head, list):
                raise TermError(f"operator position holds a list: {head!r}")
            children = tuple(Term.from_sexp(child) for child in sexp[1:])
            return Term(head, children)
        return Term(sexp)

    @staticmethod
    def parse(text: str) -> "Term":
        """Parse a term from s-expression text."""
        return Term.from_sexp(parse_sexp(text))

    def to_sexp(self) -> Sexp:
        """Convert the term back to a nested-list s-expression."""
        if not self.children:
            return self.op
        return [self.op] + [child.to_sexp() for child in self.children]

    def pretty(self, width: int = 80) -> str:
        """Pretty-print the term as an s-expression."""
        return format_sexp(self.to_sexp(), width=width)

    # -- dunder ----------------------------------------------------------------

    def __iter__(self) -> Iterator["Term"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.op == other.op and self.children == other.children

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.children:
            return f"Term({self.op!r})"
        return f"Term({self.op!r}, {list(self.children)!r})"

    def __str__(self) -> str:
        return format_sexp(self.to_sexp(), width=10 ** 9)


def make(op: Operator, *children: Term) -> Term:
    """Convenience constructor: ``make("Union", a, b)``."""
    return Term(op, children)


def nums(values: Iterable[Union[int, float]]) -> tuple:
    """Build a tuple of numeric literal terms."""
    return tuple(Term.num(v) for v in values)
