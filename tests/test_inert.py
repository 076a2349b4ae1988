"""Maple parser / inert form tests: structure, preprocessing, serialization."""

import cmath
import random

import pytest

from texcas import inert
from texcas.cli import EXIT_PARSE, main
from texcas.corpus import CorpusRecord, run_corpus
from texcas.errors import MalformedList, MapleSyntaxError, UnsupportedConstruct
from texcas.evaluator import evaluate
from texcas.inert import (DIVIDE, EQUATION, EXPSEQ, FUNCTION, INTNEG, INTPOS,
                          NAME, POWER, PROD, RANGE, RATIONAL, SUM, InertForm,
                          from_nested_list, intlit, nested_list_to_text,
                          parse_maple, preprocess, render_maple,
                          to_nested_list)
from texcas.verify import MAPLE_SIDE, round_trip

from treegen import name, random_evaluable, random_tree


def fn(fname, *args):
    return InertForm(FUNCTION, children=[name(fname),
                                         InertForm(EXPSEQ, children=list(args))])


class TestParsing:
    def test_integral_inert_listing(self):
        tree = parse_maple("int((Pi+sin(2*x))/x^2, x=0..infinity)")
        expected = fn(
            "int",
            InertForm(PROD, children=[
                InertForm(SUM, children=[
                    name("Pi"),
                    fn("sin", InertForm(PROD, children=[intlit(2), name("x")])),
                ]),
                InertForm(POWER, children=[name("x"), InertForm(INTNEG, 2)]),
            ]),
            InertForm(EQUATION, children=[
                name("x"),
                InertForm(RANGE, children=[intlit(0), name("infinity")]),
            ]),
        )
        assert tree == expected

    def test_range_equation_nested_list(self):
        tree = parse_maple("x=0..infinity")
        assert to_nested_list(tree) == \
            ["EQUATION", ["NAME", "x"],
             ["RANGE", ["INTPOS", 0], ["NAME", "infinity"]]]

    def test_atomic_integer(self):
        assert parse_maple("42") == InertForm(INTPOS, 42)

    def test_no_arithmetic_simplification(self):
        tree = parse_maple("sin(Pi)+2-1")
        assert tree == InertForm(SUM, children=[
            fn("sin", name("Pi")), intlit(2), InertForm(INTNEG, 1)])

    def test_radicals_never_become_fractional_powers(self):
        assert parse_maple("sqrt(x)").tag == FUNCTION
        tree = parse_maple("root(x,5)")
        assert tree.tag == FUNCTION
        assert tree.children[0].payload == "root"

    def test_unevaluation_quotes_stripped(self):
        assert parse_maple("'sin(z)'") == parse_maple("sin(z)")

    def test_division_to_divide(self):
        # Maple's form has no division node: preprocess alone builds DIVIDE
        tree = parse_maple("a/b")
        assert tree == InertForm(PROD, children=[
            name("a"), InertForm(POWER, children=[name("b"), InertForm(INTNEG, 1)])])
        assert preprocess(tree) == \
            InertForm(DIVIDE, children=[name("a"), name("b")])

    def test_division_by_integer_power_mirrors_internal_form(self):
        assert parse_maple("a/x^2") == InertForm(PROD, children=[
            name("a"),
            InertForm(POWER, children=[name("x"), InertForm(INTNEG, 2)])])

    def test_negation_becomes_product_with_minus_one(self):
        assert parse_maple("-a") == \
            InertForm(PROD, children=[InertForm(INTNEG, 1), name("a")])
        assert parse_maple("-2") == InertForm(INTNEG, 2)

    def test_power_right_associative(self):
        tree = parse_maple("x^y^z")
        assert tree.children[1].tag == POWER

    def test_unary_minus_binds_below_power(self):
        assert parse_maple("-x^2") == InertForm(PROD, children=[
            InertForm(INTNEG, 1),
            InertForm(POWER, children=[name("x"), intlit(2)])])

    def test_float_literal(self):
        assert parse_maple("3.25").payload == 3.25

    def test_syntax_error_position(self):
        with pytest.raises(MapleSyntaxError) as exc:
            parse_maple("sin((")
        assert exc.value.position == 5

    def test_trailing_garbage(self):
        with pytest.raises(MapleSyntaxError):
            parse_maple("x y")

    def test_empty_input(self):
        with pytest.raises(MapleSyntaxError):
            parse_maple("")

    @pytest.mark.parametrize("text", ["proc(x) end", "module() end",
                                      "table([a=1])", "{1,2}", "[1,2]"])
    def test_unsupported_constructs(self, text):
        with pytest.raises(UnsupportedConstruct):
            parse_maple(text)


class TestPreprocess:
    def test_constants_move_to_front(self):
        tree = preprocess(parse_maple("a*2"))
        assert tree == InertForm(PROD, children=[intlit(2), name("a")])

    def test_negation_marker_recorded(self):
        tree = preprocess(parse_maple("a*(-1)"))
        assert tree.children[0] == InertForm(INTNEG, 1)

    def test_negative_non_integer_exponent_left_as_power(self):
        tree = preprocess(parse_maple("(1/(x+3))^(-I)"))
        assert tree.tag == POWER
        base = tree.children[0]
        assert base.tag == DIVIDE
        assert base.children[0] == intlit(1)

    def test_positive_power_unchanged(self):
        tree = InertForm(POWER, children=[name("x"), intlit(2)])
        assert preprocess(tree) == tree

    def test_negative_integer_exponent_becomes_divide(self):
        tree = preprocess(parse_maple("a*x^(-2)"))
        assert tree == InertForm(DIVIDE, children=[
            name("a"), InertForm(POWER, children=[name("x"), intlit(2)])])

    def test_integer_division_folds_to_rational_coefficient(self):
        tree = preprocess(parse_maple("(cos(a*Theta))/(2)"))
        assert tree.tag == PROD
        assert tree.children[0] == InertForm(
            RATIONAL, children=[intlit(1), intlit(2)])

    def test_idempotence_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(300):
            tree = random_tree(rng)
            once = preprocess(tree)
            assert preprocess(once) == once

    def test_value_preservation_on_evaluable_trees(self):
        rng = random.Random(11)
        points = [{"x": 0.7 + 0.4j, "y": -1.1 + 0.2j},
                  {"x": -0.3 - 0.9j, "y": 0.5 + 1.5j}]
        checked = 0
        for _ in range(300):
            tree = random_evaluable(rng)
            processed = preprocess(tree)
            for env in points:
                try:
                    before = evaluate(tree, env)
                except (ZeroDivisionError, OverflowError, ValueError):
                    continue
                if not (cmath.isfinite(before.real) and cmath.isfinite(before.imag)):
                    continue
                after = evaluate(processed, env)
                assert abs(before - after) <= 1e-12 * max(1.0, abs(before))
                checked += 1
        assert checked > 100


class TestNestedList:
    def test_intpos_zero(self):
        assert to_nested_list(intlit(0)) == ["INTPOS", 0]

    def test_compat_prefix_text(self):
        tree = parse_maple("x=0..infinity")
        assert nested_list_to_text(to_nested_list(tree), compat_prefix=True) == \
            '[_Inert_EQUATION,[_Inert_NAME,"x"],' \
            '[_Inert_RANGE,[_Inert_INTPOS,0],[_Inert_NAME,"infinity"]]]'

    def test_compat_prefix_accepted_on_input(self):
        nl = ["_Inert_SUM", ["_Inert_NAME", "x"], ["_Inert_INTPOS", 1]]
        assert from_nested_list(nl) == \
            InertForm(SUM, children=[name("x"), intlit(1)])

    def test_bijection_over_generated_trees(self):
        rng = random.Random(42)
        for _ in range(1000):
            tree = random_tree(rng)
            assert from_nested_list(to_nested_list(tree)) == tree

    @pytest.mark.parametrize("nl", [
        [],
        ["NOSUCHTAG", 1],
        ["INTPOS", -3],
        ["INTPOS", "x"],
        ["POWER", ["NAME", "x"]],
        ["SUM", ["NAME", "x"]],
        ["RATIONAL", ["NAME", "x"], ["INTPOS", 2]],
        ["RATIONAL", ["INTPOS", 1], ["INTPOS", 0]],
        ["NAME", 3],
        "NAME",
        [3, ["NAME", "x"]],
        ["NAME", "x", "y"],
        ["FLOAT", "1.5"],
    ])
    def test_malformed_lists_rejected(self, nl):
        with pytest.raises(MalformedList):
            from_nested_list(nl)


class TestRendering:
    GOLDEN = [
        "sin(Pi)+2-1",
        "x^2+2*x+1",
        "cos(Pi*2)/sqrt((3*beta)/4-3*I)",
        "JacobiP(n,alpha,beta,cos(a*Theta))",
        "x = 0..infinity",
        "sqrt(x)",
        "root(x,5)",
        "int((Pi+sin(2*x))/x^2, x=0..infinity)",
        "1-2*sin(z)^2",
        "(x+y)*(x-y)",
        "exp(1)^(I*Pi)",
    ]

    # Maple's form of (3*beta)/4 is one product, 3*beta/4
    CANONICAL = {"cos(Pi*2)/sqrt((3*beta)/4-3*I)": "cos(Pi*2)/sqrt(3*beta/4-3*I)"}

    @pytest.mark.parametrize("text", GOLDEN)
    def test_render_reproduces_source(self, text):
        rendered = render_maple(parse_maple(text))
        assert rendered.replace(" ", "") == \
            self.CANONICAL.get(text, text).replace(" ", "")

    @pytest.mark.parametrize("text", GOLDEN)
    def test_render_reparses_to_same_tree(self, text):
        tree = parse_maple(text)
        assert parse_maple(render_maple(tree)) == tree

    @pytest.mark.parametrize("text, rendered", [
        ("(a=b)^2", "(a = b)^2"),
        ("(a..b)*c", "(a..b)*c"),
        ("(1..2)..3", "(1..2)..3"),
        ("(a=b)=c", "(a = b) = c"),
        ("sin(x)+(a=b)", "sin(x)+(a = b)"),
        ("-(a=b)", "-(a = b)"),
        ("(a=b)..c", "(a = b)..c"),
        ("a..b=c", "a..b = c"),
        ("f(a=b)", "f(a = b)"),
    ])
    def test_nested_equation_and_range_keep_parentheses(self, text, rendered):
        tree = parse_maple(text)
        assert render_maple(tree) == rendered
        assert parse_maple(rendered) == tree


class TestTotality:
    """Every input ends in a tree or a MapleSyntaxError, and every tree the
    parser accepts has a repr."""

    def test_integer_literal_past_the_digit_limit(self, lex, capsys):
        digits = "1" * 5000
        with pytest.raises(MapleSyntaxError):
            parse_maple(digits)
        assert main(["translate", "--backward", "--", digits]) == EXIT_PARSE
        assert main(["inert", "--", digits]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        report = round_trip(digits, MAPLE_SIDE, lex)
        assert report.terminated_reason == "translation-error"
        _, log = run_corpus([CorpusRecord("r", digits + " = x")], lex)
        assert log[0]["classification"] == "errored"

    def test_float_literal_past_the_double_range(self, lex, capsys):
        # its double is inf, which used to render as the unparsable "inf.0"
        digits = "9" * 400 + ".5"
        with pytest.raises(MapleSyntaxError) as info:
            parse_maple("x + " + digits)
        assert info.value.position == 4
        assert main(["translate", "--backward", "--", digits]) == EXIT_PARSE
        assert main(["inert", "--", digits]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        report = round_trip(digits + " + x", MAPLE_SIDE, lex)
        assert report.terminated_reason == "translation-error"
        assert [step.text for step in report.steps] == [digits + " + x"]
        _, log = run_corpus([CorpusRecord("r", "1" + "0" * 400 + ".5 = x")], lex)
        assert log[0]["classification"] == "errored"

    def test_repr_text(self):
        def recursive_repr(t):
            if t.tag in inert._PAYLOAD_TAGS:
                return f"{t.tag}({t.payload!r})"
            return f"{t.tag}({', '.join(recursive_repr(c) for c in t.children)})"
        rng = random.Random(7)
        for _ in range(300):
            tree = random_tree(rng)
            assert repr(tree) == recursive_repr(tree)
        assert repr(InertForm(EXPSEQ)) == "EXPSEQ()"

    def test_repr_at_the_height_limit(self):
        h = inert.MAX_HEIGHT
        # a product per division and multiplication: PROD(...PROD(x, 1/x)...,
        # x, 1/x), x)
        tree = parse_maple("x" + "/x*x" * (h - 2))
        reciprocal = "NAME('x'), POWER(NAME('x'), INTNEG(1))"
        assert repr(tree) == "PROD(" * (h - 1) + reciprocal + ")" + \
            (", " + reciprocal + ")") * (h - 3) + ", NAME('x'))"
