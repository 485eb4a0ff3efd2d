"""Recursive-descent parser for the OpenSCAD subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.scad import ast
from repro.scad.lexer import ScadSyntaxError, Token, tokenize


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token helpers -----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[Token]:
        index = self.position + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ScadSyntaxError("unexpected end of input")
        self.position += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            raise ScadSyntaxError(
                f"expected {text or kind}, found {token.text!r}", token.line
            )
        return token

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        if token is None:
            return False
        return token.kind == kind and (text is None or token.text == text)

    # -- program -----------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        statements = []
        while self._peek() is not None:
            statements.append(self.parse_statement())
        return ast.Program(statements)

    # -- statements ----------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._at("keyword", "module"):
            return self._parse_module_def()
        if self._at("keyword", "for"):
            return self._parse_for()
        if self._at("keyword", "if"):
            return self._parse_if()
        if self._at("punct", "{"):
            # A bare block groups children implicitly under a union.
            return ast.ModuleCall(name="union", children=self._parse_block())
        token = self._peek()
        if token is not None and token.kind == "ident":
            after = self._peek(1)
            if after is not None and after.kind == "punct" and after.text == "=":
                return self._parse_assignment()
            return self._parse_module_call()
        raise ScadSyntaxError(
            f"unexpected token {token.text!r}" if token else "unexpected end of input",
            token.line if token else 0,
        )

    def _parse_assignment(self) -> ast.Assignment:
        name = self._expect("ident").text
        self._expect("punct", "=")
        value = self.parse_expression()
        self._expect("punct", ";")
        return ast.Assignment(name, value)

    def _parse_module_def(self) -> ast.ModuleDef:
        self._expect("keyword", "module")
        name = self._expect("ident").text
        self._expect("punct", "(")
        params: List[Tuple[str, Optional[ast.Expr]]] = []
        while not self._at("punct", ")"):
            param_name = self._expect("ident").text
            default: Optional[ast.Expr] = None
            if self._at("punct", "="):
                self._next()
                default = self.parse_expression()
            params.append((param_name, default))
            if self._at("punct", ","):
                self._next()
        self._expect("punct", ")")
        body = self._parse_block()
        return ast.ModuleDef(name, params, body)

    def _parse_for(self) -> ast.ForLoop:
        self._expect("keyword", "for")
        self._expect("punct", "(")
        variable = self._expect("ident").text
        self._expect("punct", "=")
        iterable = self.parse_expression()
        self._expect("punct", ")")
        body = self._parse_body()
        return ast.ForLoop(variable, iterable, body)

    def _parse_if(self) -> ast.IfStatement:
        self._expect("keyword", "if")
        self._expect("punct", "(")
        condition = self.parse_expression()
        self._expect("punct", ")")
        then_body = self._parse_body()
        else_body: List[ast.Statement] = []
        if self._at("keyword", "else"):
            self._next()
            else_body = self._parse_body()
        return ast.IfStatement(condition, then_body, else_body)

    def _parse_module_call(self) -> ast.ModuleCall:
        name = self._expect("ident").text
        self._expect("punct", "(")
        positional: List[ast.Expr] = []
        named: List[Tuple[str, ast.Expr]] = []
        while not self._at("punct", ")"):
            token = self._peek()
            after = self._peek(1)
            if (
                token is not None
                and token.kind == "ident"
                and after is not None
                and after.kind == "punct"
                and after.text == "="
            ):
                self._next()
                self._next()
                named.append((token.text, self.parse_expression()))
            else:
                positional.append(self.parse_expression())
            if self._at("punct", ","):
                self._next()
        self._expect("punct", ")")
        children = self._parse_body(allow_empty=True)
        return ast.ModuleCall(name, positional, named, children)

    def _parse_body(self, *, allow_empty: bool = False) -> List[ast.Statement]:
        """The child part of a call / for / if: a block, one statement, or ``;``."""
        if self._at("punct", "{"):
            return self._parse_block()
        if self._at("punct", ";"):
            self._next()
            return []
        if allow_empty and (self._peek() is None):
            return []
        return [self.parse_statement()]

    def _parse_block(self) -> List[ast.Statement]:
        self._expect("punct", "{")
        statements = []
        while not self._at("punct", "}"):
            statements.append(self.parse_statement())
        self._expect("punct", "}")
        return statements

    # -- expressions ---------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_conditional()

    def _parse_conditional(self) -> ast.Expr:
        condition = self._parse_comparison()
        if self._at("op", "?"):
            self._next()
            if_true = self.parse_expression()
            self._expect("op", ":")
            if_false = self.parse_expression()
            return ast.Conditional(condition, if_true, if_false)
        return condition

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while self._at("op", "<") or self._at("op", ">") or self._at("op", "<=") \
                or self._at("op", ">=") or self._at("op", "==") or self._at("op", "!="):
            op = self._next().text
            right = self._parse_additive()
            left = ast.BinOp(op, left, right)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._at("op", "+") or self._at("op", "-"):
            op = self._next().text
            right = self._parse_multiplicative()
            left = ast.BinOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._at("op", "*") or self._at("op", "/") or self._at("op", "%"):
            op = self._next().text
            right = self._parse_unary()
            left = ast.BinOp(op, left, right)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._at("op", "-"):
            self._next()
            return ast.UnaryOp("-", self._parse_unary())
        if self._at("op", "!"):
            self._next()
            return ast.UnaryOp("!", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at("punct", "["):
            self._next()
            index = self.parse_expression()
            self._expect("punct", "]")
            expr = ast.Index(expr, index)
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._next()
        if token.kind == "number":
            return ast.Number(float(token.text))
        if token.kind == "string":
            return ast.String(token.text)
        if token.kind == "keyword" and token.text in ("true", "false"):
            return ast.Boolean(token.text == "true")
        if token.kind == "ident":
            if self._at("punct", "("):
                self._next()
                args: List[ast.Expr] = []
                while not self._at("punct", ")"):
                    args.append(self.parse_expression())
                    if self._at("punct", ","):
                        self._next()
                self._expect("punct", ")")
                return ast.Call(token.text, tuple(args))
            return ast.Ident(token.text)
        if token.kind == "punct" and token.text == "(":
            inner = self.parse_expression()
            self._expect("punct", ")")
            return inner
        if token.kind == "punct" and token.text == "[":
            return self._parse_vector_or_range()
        raise ScadSyntaxError(f"unexpected token {token.text!r}", token.line)

    def _parse_vector_or_range(self) -> ast.Expr:
        if self._at("punct", "]"):
            self._next()
            return ast.Vector(())
        first = self.parse_expression()
        if self._at("op", ":"):
            self._next()
            second = self.parse_expression()
            if self._at("op", ":"):
                self._next()
                third = self.parse_expression()
                self._expect("punct", "]")
                return ast.Range(start=first, step=second, end=third)
            self._expect("punct", "]")
            return ast.Range(start=first, end=second)
        items = [first]
        while self._at("punct", ","):
            self._next()
            if self._at("punct", "]"):
                break
            items.append(self.parse_expression())
        self._expect("punct", "]")
        return ast.Vector(tuple(items))


def parse_scad(source: str) -> ast.Program:
    """Parse OpenSCAD source into a :class:`repro.scad.ast.Program`.

    The parser recurses once per nesting level, so a program nested deeper
    than Python's recursion limit raises :class:`ScadSyntaxError` at the
    line where parsing stopped, not ``RecursionError``.
    """
    parser = _Parser(tokenize(source))
    try:
        return parser.parse_program()
    except RecursionError:
        token = parser._peek()
        raise ScadSyntaxError(
            "blocks or expressions nested too deeply to parse", token.line if token else 0
        ) from None
