"""Immutable term representation shared by CSG and LambdaCAD.

Both the input language (flat CSG, paper Fig. 6 right) and the output
language (LambdaCAD, paper Fig. 6 left) are ordinary first-order term
languages, so the whole reproduction works over a single generic
:class:`Term` type: an operator symbol applied to child terms, where numeric
leaves are terms with a numeric operator and no children.

Terms are hash-consed-friendly: they are frozen, cache their hash, and
compare structurally, which is what the e-graph's ``add`` path and the
evaluators need to be fast.

Every walk over a term — the size/depth/count queries, conversion to and
from nested lists, :meth:`Term.map_bottom_up` — uses an explicit stack,
so a flat model of thousands of parts (a chain as deep as it has parts)
is within reach.  Equality recurses through tuple comparison, which is
what keeps it fast in synthesis, and finishes a comparison deeper than
the recursion limit from an explicit stack.

:meth:`Term.map_bottom_up` keeps the call order of the recursive
definition: ``fn`` runs once per occurrence, post-order, children left to
right (the noise simulator draws its random numbers in that order).  A node whose children all come back as the same
objects is passed to ``fn`` itself instead of a rebuilt copy, so a map
that changes nothing returns the very term it was given.

:meth:`Term.parse` builds terms straight from the reader's tokens: one
leaf per distinct spelling, composite nodes assembled without
re-validating children it built itself.  Malformed text raises exactly
what ``Term.from_sexp(parse_sexp(text))`` raises.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.lang.sexp import Sexp, format_sexp, parse_atom, parse_sexp, tokens


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
        count = 0
        stack = [self]
        while stack:
            count += 1
            kids = stack.pop().children
            if kids:
                stack.extend(kids)
        return count

    def depth(self) -> int:
        """Height of the AST (a leaf has depth 1)."""
        height = 0
        level = [self]
        while level:
            height += 1
            level = [child for node in level for child in node.children]
        return height

    def count(self, op: Operator) -> int:
        """Count nodes whose operator equals ``op``."""
        return sum(1 for node in self.subterms() if node.op == op)

    def operators(self) -> set:
        """The set of all operators appearing in the term."""
        return {node.op for node in self.subterms()}

    def subterms(self) -> Iterator["Term"]:
        """Yield every subterm, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack.extend(reversed(node.children))

    def map_bottom_up(self, fn) -> "Term":
        """Rewrite the term bottom-up: children first, then ``fn`` on the node.

        ``fn`` runs once per occurrence, post-order, children left to right.
        A node whose mapped children are the very objects it holds reaches
        ``fn`` as itself; otherwise ``fn`` gets a copy over the mapped
        children.
        """
        if not self.children:
            return fn(self)
        frames = []
        node, pending, done = self, iter(self.children), []
        while True:
            for child in pending:
                if child.children:
                    frames.append((node, pending, done))
                    node, pending, done = child, iter(child.children), []
                    break
                done.append(fn(child))
            else:
                if not all(map(is_, done, node.children)):
                    node = Term(node.op, done)
                result = fn(node)
                if not frames:
                    return result
                node, pending, done = frames.pop()
                done.append(result)

    # -- conversion ------------------------------------------------------------

    @staticmethod
    def from_sexp(sexp: Sexp) -> "Term":
        """Build a term from a parsed s-expression.

        ``(Translate 1 2 3 Cube)`` becomes ``Term("Translate", (1, 2, 3, Cube))``.
        A bare atom becomes a leaf.  An empty list is rejected.
        """
        if not isinstance(sexp, list):
            return Term(sexp)
        frames = []
        head, pending, kids = _head(sexp), iter(sexp[1:]), []
        while True:
            for item in pending:
                if isinstance(item, list):
                    frames.append((head, pending, kids))
                    head, pending, kids = _head(item), iter(item[1:]), []
                    break
                kids.append(Term(item))
            else:
                term = Term(head, kids)
                if not frames:
                    return term
                head, pending, kids = frames.pop()
                kids.append(term)

    @staticmethod
    def parse(text: str) -> "Term":
        """Parse a term from s-expression text."""
        term = _build(text)
        if term is None:
            # Malformed: the nested-list reader and ``from_sexp`` locate
            # and word the error.
            term = Term.from_sexp(parse_sexp(text))
        return term

    def to_sexp(self) -> Sexp:
        """Convert the term back to a nested-list s-expression."""
        if not self.children:
            return self.op
        root = [self.op]
        stack = [(root, iter(self.children))]
        while stack:
            out, pending = stack[-1]
            for child in pending:
                if child.children:
                    nested = [child.op]
                    out.append(nested)
                    stack.append((nested, iter(child.children)))
                    break
                out.append(child.op)
            else:
                stack.pop()
        return root

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
        try:
            # Tuple equality compares the children in C, identity first, and
            # comes back here once per level: the fast path synthesis needs.
            return self.op == other.op and self.children == other.children
        except RecursionError:
            # Deeper than the interpreter's recursion limit: walk the rest.
            return _equal_walk(self, other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.children:
            return f"Term({self.op!r})"
        return f"Term({self.op!r}, {list(self.children)!r})"

    def __str__(self) -> str:
        from repro.lang.canon import canonical_term_text

        return canonical_term_text(self)


_new = object.__new__
_set_op = Term.op.__set__
_set_children = Term.children.__set__
_set_hash = Term._hash.__set__


def _term(op: Operator, kids: tuple) -> Term:
    """A term over a valid operator and a tuple of terms, built unchecked."""
    term = _new(Term)
    _set_op(term, op)
    _set_children(term, kids)
    _set_hash(term, hash((op, kids)))
    return term


def _equal_walk(term: Term, other: Term) -> bool:
    """``term == other`` for terms with equal hashes, from an explicit stack."""
    if term.op != other.op:
        return False
    pending = [(term.children, other.children)]
    while pending:
        mine, theirs = pending.pop()
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if a is b:
                continue
            if a._hash != b._hash or a.op != b.op:
                return False
            if a.children or b.children:
                pending.append((a.children, b.children))
    return True


def _head(sexp: list) -> Operator:
    """The operator of a list ``from_sexp`` converts, or the reason it has none."""
    if not sexp:
        raise TermError("cannot convert empty list to a term")
    head = sexp[0]
    if isinstance(head, list):
        raise TermError(f"operator position holds a list: {head!r}")
    return head


def _build(text: str) -> Optional[Term]:
    """The term ``text`` spells, or None when it is malformed.

    One pass over the tokens: atoms of the same spelling share one leaf,
    a list's head token is its operator, and a ``)`` assembles the list's
    children.  Anything unusual — an empty list, a list in operator
    position, a numeric operator with children, unbalanced parentheses,
    not exactly one expression — returns None for :meth:`Term.parse` to
    report.
    """
    leaves = {}
    heads: List[Term] = []
    frames: List[list] = []
    kids: list = []
    found = iter(tokens(text))
    for token in found:
        if token == "(":
            token = next(found, ")")
            if token == "(" or token == ")":
                return None
            leaf = leaves.get(token)
            if leaf is None:
                leaf = leaves[token] = _term(parse_atom(token), ())
            heads.append(leaf)
            frames.append(kids)
            kids = []
        elif token == ")":
            if not heads:
                return None
            term = heads.pop()
            if kids:
                if term.op.__class__ is not str:
                    return None
                term = _term(term.op, tuple(kids))
            kids = frames.pop()
            kids.append(term)
        else:
            leaf = leaves.get(token)
            if leaf is None:
                leaf = leaves[token] = _term(parse_atom(token), ())
            kids.append(leaf)
    if heads or len(kids) != 1:
        return None
    return kids[0]


def make(op: Operator, *children: Term) -> Term:
    """Convenience constructor: ``make("Union", a, b)``."""
    return Term(op, children)


def nums(values: Iterable[Union[int, float]]) -> tuple:
    """Build a tuple of numeric literal terms."""
    return tuple(Term.num(v) for v in values)
