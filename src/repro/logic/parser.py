"""A recursive-descent parser for the concrete formula syntax.

The grammar (lowest to highest precedence)::

    formula   := iff
    iff       := implies ( '<->' implies )*
    implies   := or ( '->' or )?            (right associative)
    or        := and ( '|' and )*
    and       := unary ( '&' unary )*
    unary     := '~' unary
               | 'exists' IDENT '.' unary
               | 'forall' IDENT '.' unary
               | primary
    primary   := 'true' | 'false'
               | '(' formula ')'
               | IDENT '(' terms ')'          -- atom
               | term ( '=' | '!=' | '<' | '<=' | '>' | '>=' ) term
    term      := sum
    sum       := product ( ('+'|'-') product )*
    product   := atomterm ( '*' atomterm )*
    atomterm  := constant | STRING | IDENT | IDENT '(' terms ')' | '(' term ')'
    constant  := [ '-' ] NUMBER [ '/' NUMBER ]

Comparison operators other than ``=`` are parsed as binary atoms with the
operator as the predicate name, e.g. ``x < y`` becomes ``Atom('<', (x, y))``,
and ``+``/``-``/``*`` become ``Apply`` terms, matching the Presburger and
ordered-naturals domains.  A constant is read as the printer writes it: a
leading ``-`` makes it negative (``x = -3``; ``x - 3`` stays a subtraction),
and ``p/q`` is the rational :class:`~fractions.Fraction` (``x = 1/2``).

>>> parse_formula("x = -3") == Equals(Var("x"), Const(-3))
True
>>> parse_formula("x < -1/2") == Atom("<", (Var("x"), Const(Fraction(-1, 2))))
True
>>> parse_term("x - 3") == Apply("-", (Var("x"), Const(3)))
True
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .formulas import (
    BOTTOM,
    TOP,
    Atom,
    Equals,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
)
from .builders import conj, disj
from .terms import Apply, Const, Term, Var

__all__ = ["parse_formula", "parse_term", "ParseError"]


class ParseError(ValueError):
    """Raised when the input text is not a well-formed formula."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><->|->|!=|<=|>=|[()~&|.=<>+\-*,/])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"exists", "forall", "true", "false"}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            continue
        if kind == "ident" and value in _KEYWORDS:
            tokens.append(("keyword", value))
        else:
            tokens.append((kind, value))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> Tuple[str, str]:
        return self._tokens[self._index]

    def _advance(self) -> Tuple[str, str]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> Tuple[str, str]:
        token = self._peek()
        if token[0] != kind or (value is not None and token[1] != value):
            expected = value if value is not None else kind
            raise ParseError(f"expected {expected!r}, got {token[1]!r}")
        return self._advance()

    def _accept(self, kind: str, value: Optional[str] = None) -> bool:
        token = self._peek()
        if token[0] == kind and (value is None or token[1] == value):
            self._advance()
            return True
        return False

    # ----- formulas -------------------------------------------------------

    def parse_formula(self) -> Formula:
        formula = self._parse_iff()
        self._expect("eof")
        return formula

    def _parse_iff(self) -> Formula:
        left = self._parse_implies()
        while self._accept("op", "<->"):
            right = self._parse_implies()
            left = Iff(left, right)
        return left

    def _parse_implies(self) -> Formula:
        left = self._parse_or()
        if self._accept("op", "->"):
            right = self._parse_implies()
            return Implies(left, right)
        return left

    def _parse_or(self) -> Formula:
        parts = [self._parse_and()]
        while self._accept("op", "|"):
            parts.append(self._parse_and())
        return parts[0] if len(parts) == 1 else disj(*parts)

    def _parse_and(self) -> Formula:
        parts = [self._parse_unary()]
        while self._accept("op", "&"):
            parts.append(self._parse_unary())
        return parts[0] if len(parts) == 1 else conj(*parts)

    def _parse_unary(self) -> Formula:
        if self._accept("op", "~"):
            return Not(self._parse_unary())
        token = self._peek()
        if token == ("keyword", "exists") or token == ("keyword", "forall"):
            self._advance()
            name = self._expect("ident")[1]
            self._expect("op", ".")
            body = self._parse_unary()
            return Exists(name, body) if token[1] == "exists" else ForAll(name, body)
        return self._parse_primary()

    def _parse_primary(self) -> Formula:
        token = self._peek()
        if token == ("keyword", "true"):
            self._advance()
            return TOP
        if token == ("keyword", "false"):
            self._advance()
            return BOTTOM
        if token == ("op", "("):
            # Could be a parenthesised formula or a parenthesised term within a
            # comparison.  Try formula first, fall back to comparison.
            saved = self._index
            try:
                self._advance()
                inner = self._parse_iff()
                self._expect("op", ")")
                if self._peek()[1] in {"=", "!=", "<", "<=", ">", ">="}:
                    raise ParseError("parenthesised term, not a formula")
                return inner
            except ParseError:
                self._index = saved
                return self._parse_comparison()
        if token[0] == "ident":
            # Atom such as P(x, y), or a comparison starting with an identifier.
            saved = self._index
            name = self._advance()[1]
            if self._accept("op", "("):
                args = self._parse_term_list()
                self._expect("op", ")")
                if self._peek()[1] in {"=", "!=", "<", "<=", ">", ">=", "+", "-", "*"}:
                    # It was a function application inside a comparison.
                    self._index = saved
                    return self._parse_comparison()
                return Atom(name, tuple(args))
            self._index = saved
            return self._parse_comparison()
        return self._parse_comparison()

    def _parse_comparison(self) -> Formula:
        left = self.parse_term()
        op = self._peek()
        if op[1] not in {"=", "!=", "<", "<=", ">", ">="}:
            raise ParseError(f"expected a comparison operator, got {op[1]!r}")
        self._advance()
        right = self.parse_term()
        if op[1] == "=":
            return Equals(left, right)
        if op[1] == "!=":
            return Not(Equals(left, right))
        return Atom(op[1], (left, right))

    # ----- terms ----------------------------------------------------------

    def _parse_term_list(self) -> List[Term]:
        terms = [self.parse_term()]
        while self._accept("op", ","):
            terms.append(self.parse_term())
        return terms

    def parse_term(self) -> Term:
        return self._parse_sum()

    def _parse_sum(self) -> Term:
        left = self._parse_product()
        while True:
            if self._accept("op", "+"):
                right = self._parse_product()
                left = Apply("+", (left, right))
            elif self._accept("op", "-"):
                right = self._parse_product()
                left = Apply("-", (left, right))
            else:
                return left

    def _parse_product(self) -> Term:
        left = self._parse_atom_term()
        while self._accept("op", "*"):
            right = self._parse_atom_term()
            left = Apply("*", (left, right))
        return left

    def _parse_atom_term(self) -> Term:
        token = self._peek()
        if token[0] == "number" or (
            token == ("op", "-") and self._tokens[self._index + 1][0] == "number"
        ):
            return self._parse_constant()
        if token[0] == "string":
            self._advance()
            return Const(token[1][1:-1])
        if token[0] == "ident":
            name = self._advance()[1]
            if self._accept("op", "("):
                args = self._parse_term_list()
                self._expect("op", ")")
                return Apply(name, tuple(args))
            return Var(name)
        if self._accept("op", "("):
            inner = self.parse_term()
            self._expect("op", ")")
            return inner
        raise ParseError(f"expected a term, got {token[1]!r}")

    def _parse_constant(self) -> Const:
        """``[-] NUMBER [/ NUMBER]``: an ``int``, or a ``Fraction`` when the
        denominator does not divide the numerator."""
        sign = -1 if self._accept("op", "-") else 1
        numerator = sign * int(self._expect("number")[1])
        if not self._accept("op", "/"):
            return Const(numerator)
        denominator = int(self._expect("number")[1])
        if denominator == 0:
            raise ParseError(f"zero denominator in {numerator}/0")
        value = Fraction(numerator, denominator)
        return Const(value.numerator if value.denominator == 1 else value)


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a formula."""
    return _Parser(_tokenize(text)).parse_formula()


def parse_term(text: str) -> Term:
    """Parse ``text`` into a term."""
    parser = _Parser(_tokenize(text))
    term = parser.parse_term()
    parser._expect("eof")
    return term
