"""µ-calculus parser and AST operations."""

import pytest

from repro.errors import FormulaError, ParseError
from repro.fol import atom
from repro.mucalc import parse_mu
from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, Nu,
    PredVar, QF)
from repro.relational.values import Var

X, Y = Var("x"), Var("y")


class TestParser:
    def test_fixpoints(self):
        parsed = parse_mu("mu Z. (R('a') | <-> Z)")
        assert isinstance(parsed, Mu)
        assert parsed.var == "Z"
        parsed = parse_mu("nu W. [-] W")
        assert isinstance(parsed, Nu)

    def test_modalities(self):
        assert isinstance(parse_mu("<-> true"), Diamond)
        assert isinstance(parse_mu("[-] false"), Box)

    def test_quantifiers(self):
        parsed = parse_mu("E x, y. R(x, y)")
        assert isinstance(parsed, MExists)
        assert parsed.variables == (X, Y)
        assert isinstance(parse_mu("A x. live(x)"), MForall)

    def test_live(self):
        parsed = parse_mu("live(x, 'c')")
        assert parsed == Live((X, "c"))

    def test_atoms_wrapped_in_qf(self):
        parsed = parse_mu("R(x) & x != y")
        assert isinstance(parsed, MAnd)
        assert isinstance(parsed.subs[0], QF)
        assert isinstance(parsed.subs[1], QF)

    def test_pred_var_must_be_bound(self):
        with pytest.raises(ParseError):
            parse_mu("<-> Z")

    def test_pred_var_scoping(self):
        parsed = parse_mu("mu Z. (<-> Z) & nu Z. [-] Z")
        assert isinstance(parsed, Mu)

    def test_implication_sugar(self):
        parsed = parse_mu("R('a') -> <-> R('a')")
        assert isinstance(parsed, MOr)

    def test_constants_parameter(self):
        parsed = parse_mu("R(a)", constants={"a"})
        assert parsed == QF(atom("R", "a"))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_mu("R(x) R(y)")

    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deep_nesting_is_a_parse_error(self, depth):
        text = "(" * depth + "true" + ")" * depth
        with pytest.raises(ParseError, match="nested too deeply") as error:
            parse_mu(text)
        assert 0 <= error.value.pos < depth

    def test_nested_precedence(self):
        parsed = parse_mu("~ <-> R('a') | [-] S('b')")
        assert isinstance(parsed, MOr)
        assert isinstance(parsed.subs[0], MNot)


class TestAst:
    def test_connective_sugar(self):
        left, right = QF(atom("R", X)), QF(atom("S", X))
        assert isinstance(left & right, MAnd)
        assert isinstance(left | right, MOr)
        assert isinstance(~left, MNot)
        assert isinstance(left.implies(right), MOr)

    def test_free_ivars(self):
        formula = MExists((X,), MAnd.of(Live((X, Y)), QF(atom("R", X))))
        assert formula.free_ivars() == {Y}

    def test_free_pvars(self):
        formula = Mu("Z", MOr.of(PredVar("Z"), Diamond(PredVar("W"))))
        assert formula.free_pvars() == {"W"}

    def test_is_closed(self):
        assert parse_mu("mu Z. (R('a') | <-> Z)").is_closed()
        assert not parse_mu("mu Z. (R(x) | <-> Z)").is_closed()

    def test_substitute_respects_binding(self):
        formula = MExists((X,), QF(atom("R", X, Y)))
        result = formula.substitute({X: "vx", Y: "vy"})
        assert result == MExists((X,), QF(atom("R", X, "vy")))

    def test_substitute_into_live(self):
        formula = Live((X,))
        assert formula.substitute({X: "v"}) == Live(("v",))

    def test_walk_visits_all(self):
        formula = parse_mu("mu Z. (R('a') | <-> Z)")
        kinds = {type(node).__name__ for node in formula.walk()}
        assert kinds == {"Mu", "MOr", "QF", "Diamond", "PredVar"}

    def test_flattening(self):
        one, two, three = (QF(atom("R", i)) for i in range(3))
        assert len(MAnd.of(MAnd.of(one, two), three).subs) == 3
        assert len(MOr.of(one, MOr.of(two, three)).subs) == 3

    def test_empty_quantifier_rejected(self):
        with pytest.raises(FormulaError):
            MExists((), QF(atom("R", "a")))

    def test_empty_live_rejected(self):
        with pytest.raises(FormulaError):
            Live(())
