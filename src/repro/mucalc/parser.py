"""Text syntax for µ-calculus formulas.

Grammar (extends the FO term syntax of :mod:`repro.fol.parser`)::

    phi   := disj [ "->" phi ]
    disj  := conj ( "|" conj )*
    conj  := unary ( "&" unary )*
    unary := "~" unary
           | "<->" unary                      (diamond)
           | "[-]" unary                      (box)
           | ("mu" | "nu") NAME "." phi
           | ("E" | "A") names "." phi        (quantification across states)
           | "live" "(" term ("," term)* ")"
           | "(" phi ")"
           | "true" | "false"
           | NAME "(" terms ")"               (FO atom, wrapped in QF)
           | term ("=" | "!=") term           (FO comparison)
           | NAME                             (bound predicate variable)

A bare identifier is a predicate variable only when bound by an enclosing
``mu``/``nu``; anything else must be an atom, comparison, or keyword. As in
the FO parser, ``constants={"a"}`` makes the identifier ``a`` parse as a
constant.

Example (the µLA property of Example 3.2)::

    nu X. (A x. (live(x) & Stud(x) ->
           mu Y. ((E y. live(y) & Grad(x, y)) | <-> Y) & [-] X))
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.errors import ParseError
from repro.fol.ast import Atom, Eq, FALSE, Not as FNot, TRUE
from repro.fol.parser import FormulaParser, TokenStream
from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, MuFormula,
    Nu, PredVar, QF)
from repro.relational.values import Var

_MU_KEYWORDS = frozenset({"mu", "nu", "live", "true", "false", "E", "A"})


class MuParser:
    """Recursive-descent parser for µL / µLA / µLP formulas."""

    def __init__(self, text: str, constants: Iterable[str] = ()):
        self.stream = TokenStream(text)
        self.constants = frozenset(constants)
        self._terms = FormulaParser("", constants)
        self._terms.stream = self.stream  # share the cursor
        self._bound_pvars: Set[str] = set()

    def parse(self) -> MuFormula:
        return self.stream.parse_all(self.parse_implication)

    # -- grammar -----------------------------------------------------------------

    def parse_implication(self) -> MuFormula:
        left = self.parse_disjunction()
        if self.stream.accept("symbol", "->"):
            right = self.parse_implication()
            return MOr.of(MNot(left), right)
        return left

    def parse_disjunction(self) -> MuFormula:
        parts = [self.parse_conjunction()]
        while self.stream.accept("symbol", "|"):
            parts.append(self.parse_conjunction())
        return MOr.of(*parts) if len(parts) > 1 else parts[0]

    def parse_conjunction(self) -> MuFormula:
        parts = [self.parse_unary()]
        while self.stream.accept("symbol", "&"):
            parts.append(self.parse_unary())
        return MAnd.of(*parts) if len(parts) > 1 else parts[0]

    def parse_unary(self) -> MuFormula:
        if self.stream.accept("symbol", "~"):
            return MNot(self.parse_unary())
        if self.stream.accept("symbol", "<->"):
            return Diamond(self.parse_unary())
        if self.stream.accept("symbol", "[-]"):
            return Box(self.parse_unary())
        token = self.stream.peek()
        if token.kind == "name" and token.text in ("mu", "nu"):
            self.stream.next()
            name = self.stream.expect("name").text
            self.stream.expect("symbol", ".")
            self._bound_pvars.add(name)
            body = self.parse_implication()
            self._bound_pvars.discard(name)
            return Mu(name, body) if token.text == "mu" else Nu(name, body)
        if token.kind == "name" and token.text in ("E", "A"):
            self.stream.next()
            names = [self.stream.expect("name").text]
            while self.stream.accept("symbol", ","):
                names.append(self.stream.expect("name").text)
            self.stream.expect("symbol", ".")
            body = self.parse_implication()
            variables = tuple(Var(name) for name in names)
            if token.text == "E":
                return MExists(variables, body)
            return MForall(variables, body)
        if token.kind == "name" and token.text == "live":
            self.stream.next()
            self.stream.expect("symbol", "(")
            terms = [self._terms.parse_term(allow_calls=False)]
            while self.stream.accept("symbol", ","):
                terms.append(self._terms.parse_term(allow_calls=False))
            self.stream.expect("symbol", ")")
            return Live(tuple(terms))
        if self.stream.accept("symbol", "("):
            inner = self.parse_implication()
            self.stream.expect("symbol", ")")
            return inner
        if token.kind == "name" and token.text == "true":
            self.stream.next()
            return QF(TRUE)
        if token.kind == "name" and token.text == "false":
            self.stream.next()
            return QF(FALSE)
        return self.parse_leaf()

    def parse_leaf(self) -> MuFormula:
        """FO atom, comparison, or bound predicate variable."""
        token = self.stream.peek()
        if token.kind == "name" and token.text not in _MU_KEYWORDS:
            following = self.stream.tokens[self.stream.index + 1]
            if following.kind == "symbol" and following.text == "(":
                name = self.stream.next().text
                terms = self._terms.parse_term_list()
                return QF(Atom(name, tuple(terms)))
            if token.text in self._bound_pvars \
                    and token.text not in self.constants \
                    and not (following.kind == "symbol"
                             and following.text in ("=", "!=")):
                self.stream.next()
                return PredVar(token.text)
        left = self._terms.parse_term(allow_calls=False)
        if self.stream.accept("symbol", "="):
            right = self._terms.parse_term(allow_calls=False)
            return QF(Eq(left, right))
        if self.stream.accept("symbol", "!="):
            right = self._terms.parse_term(allow_calls=False)
            return QF(FNot(Eq(left, right)))
        raise ParseError(
            f"expected an atom, comparison, or bound predicate variable",
            self.stream.text, token.pos)


def parse_mu(text: str, constants: Iterable[str] = ()) -> MuFormula:
    """Parse a µ-calculus formula from text."""
    return MuParser(text, constants).parse()
