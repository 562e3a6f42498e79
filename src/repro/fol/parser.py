"""Text syntax for FO formulas.

Grammar (precedence from loosest to tightest)::

    formula     := implication
    implication := disjunction [ "->" implication ]
    disjunction := conjunction ( "|" conjunction )*
    conjunction := unary ( "&" unary )*
    unary       := "~" unary
                 | ("exists" | "forall") names "." implication
                 | "(" formula ")"
                 | "true" | "false"
                 | atom | comparison
    atom        := NAME "(" [ term ("," term)* ] ")"
    comparison  := term ("=" | "!=") term
    term        := "'" chars "'"      (string constant)
                 | NUMBER             (integer constant)
                 | "$" NAME           (action parameter)
                 | NAME               (variable, unless listed in `constants`)

Bare identifiers parse as variables by default; pass ``constants={"a", "b"}``
to read those identifiers as string constants instead (handy for transcribing
the paper's examples, which write constants ``a, b`` unquoted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import ParseError
from repro.fol.ast import (
    And, Atom, Eq, FALSE, Formula, Not, Or, TRUE, Exists, Forall)
from repro.relational.values import Param, ServiceCall, Var

_SYMBOLS = ("->", "!=", "~>", "<->", "[-]", "(", ")", ",", ".", "~", "&",
            "|", "=", "$")
_KEYWORDS = frozenset({
    "exists", "forall", "true", "false", "mu", "nu", "live"})


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "number" | "string" | "symbol" | "end"
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    """Shared tokenizer for FO and mu-calculus syntax."""
    tokens: List[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char == "'":
            end = text.find("'", index + 1)
            if end < 0:
                raise ParseError("unterminated string constant", text, index)
            tokens.append(Token("string", text[index + 1:end], index))
            index = end + 1
            continue
        if char.isdigit() or (char == "-" and index + 1 < length
                              and text[index + 1].isdigit()
                              and not text.startswith("->", index)):
            end = index + 1
            while end < length and text[end].isdigit():
                end += 1
            tokens.append(Token("number", text[index:end], index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index + 1
            while end < length and (text[end].isalnum() or text[end] in "_'"):
                end += 1
            tokens.append(Token("name", text[index:end], index))
            index = end
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, index):
                tokens.append(Token("symbol", symbol, index))
                index += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {char!r}", text, index)
    tokens.append(Token("end", "", length))
    return tokens


class TokenStream:
    """Cursor over a token list with convenience accessors."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            expected = text or kind
            raise ParseError(f"expected {expected!r}, found {self.peek().text!r}",
                             self.text, self.peek().pos)
        return token

    def parse_all(self, parse_root: Callable[[], Any]) -> Any:
        """Run a recursive-descent entry point over the whole input.

        Input nested past the interpreter's stack is a :class:`ParseError`
        at the token where the descent stopped, like any other bad input.
        """
        try:
            result = parse_root()
        except RecursionError:
            raise ParseError("formula nested too deeply", self.text,
                             self.peek().pos) from None
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"trailing input {token.text!r}", self.text,
                             token.pos)
        return result


class FormulaParser:
    """Recursive-descent parser for FO formulas."""

    def __init__(self, text: str, constants: Iterable[str] = ()):
        self.stream = TokenStream(text)
        self.constants = frozenset(constants)

    # -- entry points ---------------------------------------------------------

    def parse(self) -> Formula:
        return self.stream.parse_all(self.parse_implication)

    # -- grammar ---------------------------------------------------------------

    def parse_implication(self) -> Formula:
        left = self.parse_disjunction()
        if self.stream.accept("symbol", "->"):
            right = self.parse_implication()
            return Or.of(Not(left), right)
        return left

    def parse_disjunction(self) -> Formula:
        parts = [self.parse_conjunction()]
        while self.stream.accept("symbol", "|"):
            parts.append(self.parse_conjunction())
        return Or.of(*parts) if len(parts) > 1 else parts[0]

    def parse_conjunction(self) -> Formula:
        parts = [self.parse_unary()]
        while self.stream.accept("symbol", "&"):
            parts.append(self.parse_unary())
        return And.of(*parts) if len(parts) > 1 else parts[0]

    def parse_unary(self) -> Formula:
        if self.stream.accept("symbol", "~"):
            return Not(self.parse_unary())
        token = self.stream.peek()
        if token.kind == "name" and token.text in ("exists", "forall"):
            self.stream.next()
            names = self.parse_variable_names()
            self.stream.expect("symbol", ".")
            body = self.parse_implication()
            variables = tuple(Var(name) for name in names)
            if token.text == "exists":
                return Exists(variables, body)
            return Forall(variables, body)
        if self.stream.accept("symbol", "("):
            inner = self.parse_implication()
            self.stream.expect("symbol", ")")
            return inner
        if token.kind == "name" and token.text == "true":
            self.stream.next()
            return TRUE
        if token.kind == "name" and token.text == "false":
            self.stream.next()
            return FALSE
        return self.parse_atom_or_comparison()

    def parse_variable_names(self) -> List[str]:
        names = [self.stream.expect("name").text]
        while self.stream.accept("symbol", ","):
            names.append(self.stream.expect("name").text)
        return names

    def parse_atom_or_comparison(self) -> Formula:
        token = self.stream.peek()
        if (token.kind == "name" and token.text not in _KEYWORDS
                and self._lookahead_is_call()):
            name = self.stream.next().text
            terms = self.parse_term_list()
            return Atom(name, tuple(terms))
        left = self.parse_term(allow_calls=False)
        if self.stream.accept("symbol", "="):
            right = self.parse_term(allow_calls=False)
            return Eq(left, right)
        if self.stream.accept("symbol", "!="):
            right = self.parse_term(allow_calls=False)
            return Not(Eq(left, right))
        raise ParseError("expected '=' or '!=' after term",
                         self.stream.text, self.stream.peek().pos)

    def _lookahead_is_call(self) -> bool:
        following = self.stream.tokens[self.stream.index + 1]
        return following.kind == "symbol" and following.text == "("

    def parse_term_list(self, allow_calls: bool = False) -> List[Any]:
        """A parenthesized, comma-separated term list (atom or call args;
        ``allow_calls`` admits service calls in effect heads)."""
        self.stream.expect("symbol", "(")
        terms: List[Any] = []
        if not self.stream.accept("symbol", ")"):
            terms.append(self.parse_term(allow_calls))
            while self.stream.accept("symbol", ","):
                terms.append(self.parse_term(allow_calls))
            self.stream.expect("symbol", ")")
        return terms

    def parse_term(self, allow_calls: bool) -> Any:
        """A term: constant, parameter, variable, or (in heads) service call."""
        token = self.stream.peek()
        if token.kind == "string":
            self.stream.next()
            return token.text
        if token.kind == "number":
            self.stream.next()
            return int(token.text)
        if token.kind == "symbol" and token.text == "$":
            self.stream.next()
            name = self.stream.expect("name").text
            return Param(name)
        if token.kind == "name":
            self.stream.next()
            if allow_calls and self._at_symbol("("):
                args = self.parse_term_list()
                return ServiceCall(token.text, tuple(args))
            if token.text in self.constants:
                return token.text
            return Var(token.text)
        raise ParseError(f"expected a term, found {token.text!r}",
                         self.stream.text, token.pos)

    def _at_symbol(self, text: str) -> bool:
        token = self.stream.peek()
        return token.kind == "symbol" and token.text == text


def parse_formula(text: str, constants: Iterable[str] = ()) -> Formula:
    """Parse an FO formula from text.

    >>> parse_formula("exists x. R(x) & ~S(x)")
    exists x. ((R(x) & ~(S(x))))
    """
    return FormulaParser(text, constants).parse()


def parse_head_atom(text: str, constants: Iterable[str] = ()) -> Atom:
    """Parse an effect-head atom, where terms may be service calls ``f(x)``."""
    parser = FormulaParser(text, constants)

    def head() -> Atom:
        name = parser.stream.expect("name").text
        return Atom(name, tuple(parser.parse_term_list(allow_calls=True)))

    return parser.stream.parse_all(head)
