"""FO formula text syntax."""

import pytest

from repro.errors import ParseError
from repro.fol.ast import And, Atom, Eq, Exists, Forall, Not, Or, TRUE
from repro.fol.parser import parse_formula, parse_head_atom, tokenize
from repro.relational.values import Param, ServiceCall, Var


class TestTokenizer:
    def test_symbols(self):
        kinds = [t.text for t in tokenize("( ) , . ~ & | -> != = $ ~> <->")
                 if t.kind == "symbol"]
        assert kinds == ["(", ")", ",", ".", "~", "&", "|", "->", "!=", "=",
                         "$", "~>", "<->"]

    def test_arrow_not_negative_number(self):
        tokens = tokenize("x->y")
        assert [t.text for t in tokens[:3]] == ["x", "->", "y"]

    def test_string_and_number(self):
        tokens = tokenize("'hello world' 42")
        assert tokens[0].kind == "string"
        assert tokens[0].text == "hello world"
        assert tokens[1].kind == "number"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("R(x) ? S(y)")

    def test_primed_identifier(self):
        tokens = tokenize("x' y")
        assert tokens[0].text == "x'"


class TestParse:
    def test_atom(self):
        assert parse_formula("R(x, y)") == Atom("R", (Var("x"), Var("y")))

    def test_nullary_atom(self):
        assert parse_formula("halted()") == Atom("halted", ())

    def test_constants_parameter(self):
        parsed = parse_formula("R(a, x)", constants={"a"})
        assert parsed == Atom("R", ("a", Var("x")))

    def test_quoted_and_numeric_constants(self):
        parsed = parse_formula("R('lit', 3)")
        assert parsed == Atom("R", ("lit", 3))

    def test_action_parameter(self):
        parsed = parse_formula("R($p)")
        assert parsed == Atom("R", (Param("p"),))

    def test_negation_conjunction(self):
        parsed = parse_formula("~R(x) & S(x)")
        assert isinstance(parsed, And)
        assert isinstance(parsed.subs[0], Not)

    def test_precedence_and_over_or(self):
        parsed = parse_formula("A(x) | B(x) & C(x)")
        assert isinstance(parsed, Or)
        assert isinstance(parsed.subs[1], And)

    def test_implication_as_or(self):
        parsed = parse_formula("A(x) -> B(x)")
        assert isinstance(parsed, Or)
        assert isinstance(parsed.subs[0], Not)

    def test_implication_right_associative(self):
        # a -> (b -> c), flattened by Or.of into ~a | ~b | c.
        parsed = parse_formula("A(x) -> B(x) -> C(x)")
        assert isinstance(parsed, Or)
        assert len(parsed.subs) == 3
        assert isinstance(parsed.subs[0], Not)
        assert isinstance(parsed.subs[1], Not)
        assert isinstance(parsed.subs[2], Atom)

    def test_quantifiers(self):
        parsed = parse_formula("exists x, y. R(x, y)")
        assert isinstance(parsed, Exists)
        assert parsed.variables == (Var("x"), Var("y"))
        parsed = parse_formula("forall x. exists y. R(x, y)")
        assert isinstance(parsed, Forall)
        assert isinstance(parsed.sub, Exists)

    def test_quantifier_scope_extends_right(self):
        parsed = parse_formula("exists x. R(x) & S(x)")
        assert isinstance(parsed, Exists)
        assert isinstance(parsed.sub, And)

    def test_comparison(self):
        assert parse_formula("x = y") == Eq(Var("x"), Var("y"))
        parsed = parse_formula("x != 'a'")
        assert parsed == Not(Eq(Var("x"), "a"))

    def test_true_keyword(self):
        assert parse_formula("true") == TRUE

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("R(x) S(y)")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse_formula("(R(x) & S(y)")

    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deep_nesting_is_a_parse_error(self, depth):
        text = "(" * depth + "true" + ")" * depth
        with pytest.raises(ParseError, match="nested too deeply") as error:
            parse_formula(text)
        assert 0 <= error.value.pos < depth

    def test_free_variables_of_parsed(self):
        parsed = parse_formula("exists y. R(x, y) & S(z)")
        assert parsed.free_variables() == {Var("x"), Var("z")}


class TestHeadAtoms:
    def test_plain(self):
        parsed = parse_head_atom("R(x, 'c')")
        assert parsed == Atom("R", (Var("x"), "c"))

    def test_service_call(self):
        parsed = parse_head_atom("Q(f(x), g(y))")
        assert parsed.terms[0] == ServiceCall("f", (Var("x"),))
        assert parsed.terms[1] == ServiceCall("g", (Var("y"),))

    def test_call_with_param(self):
        parsed = parse_head_atom("Q(f($p))")
        assert parsed.terms[0] == ServiceCall("f", (Param("p"),))

    def test_nullary_call(self):
        parsed = parse_head_atom("Q(input())")
        assert parsed.terms[0] == ServiceCall("input", ())

    def test_trailing_rejected(self):
        with pytest.raises(ParseError):
            parse_head_atom("R(x) extra")
