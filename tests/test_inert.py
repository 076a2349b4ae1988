"""Maple parser / inert form tests: structure, preprocessing, serialization."""

import cmath
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from texcas import inert
from texcas.backward import backward_string, translate_backward
from texcas.cli import EXIT_PARSE, main
from texcas.corpus import CorpusRecord, run_corpus
from texcas.errors import (MalformedList, MapleSyntaxError, MapleTooDeep,
                           TexcasError, UnsupportedConstruct)
from texcas.evaluator import evaluate
from texcas.inert import (DIVIDE, EQUATION, EXPSEQ, FUNCTION, INTNEG, INTPOS,
                          NAME, POWER, PROD, RANGE, RATIONAL, SUM, TAGS, InertForm,
                          from_nested_list, intlit, nested_list_to_text,
                          parse_maple, preprocess, render_maple,
                          to_nested_list)
from texcas.verify import MAPLE_SIDE, check_equivalence, round_trip, simplify_light

from treegen import free_names, name, random_evaluable, random_tree


def fn(fname, *args):
    return InertForm(FUNCTION, children=[name(fname),
                                         InertForm(EXPSEQ, children=list(args))])


def power(base, k):
    return InertForm(POWER, children=[base, intlit(k)])


# a chain's operands: the tree of each and of its reciprocal
_OPERANDS = {
    "x": (name("x"), power(name("x"), -1)),
    "2": (intlit(2), power(intlit(2), -1)),
    "y^3": (power(name("y"), 3), power(name("y"), -3)),
    "y^(-1)": (power(name("y"), -1), name("y")),
    "(1/z)": (power(name("z"), -1), name("z")),
    "(1/3)": (power(intlit(3), -1), intlit(3)),
    "sin(x)": (fn("sin", name("x")), power(fn("sin", name("x")), -1)),
    "(a+b)": (InertForm(SUM, children=[name("a"), name("b")]),
              InertForm(POWER, children=[
                  InertForm(SUM, children=[name("a"), name("b")]), intlit(-1)])),
}
# a first operand may also be a 1, which a division or a divisor after it
# drops, or a product, which is spliced in
_FIRST = {text: tree for text, (tree, _) in _OPERANDS.items()}
_FIRST.update({"1": intlit(1), "(a*b)": InertForm(PROD, children=[name("a"), name("b")])})


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

    @pytest.mark.parametrize("text, expected", [
        ("x/y*z", ["PROD", ["NAME", "x"], ["POWER", ["NAME", "y"], ["INTNEG", 1]],
                   ["NAME", "z"]]),
        ("a*b/c^2*d", ["PROD", ["NAME", "a"], ["NAME", "b"],
                       ["POWER", ["NAME", "c"], ["INTNEG", 2]], ["NAME", "d"]]),
        ("x/(1/y)", ["PROD", ["NAME", "x"], ["NAME", "y"]]),
        ("1/(1/4)", ["INTPOS", 4]),
    ])
    def test_a_chain_is_one_flat_product(self, text, expected):
        # Maple stores one n-ary product, and 1/(1/q) as q
        assert to_nested_list(parse_maple(text)) == expected

    @given(st.sampled_from(sorted(_FIRST)),
           st.lists(st.tuples(st.sampled_from("*/"), st.sampled_from(sorted(_OPERANDS))),
                    min_size=1, max_size=12))
    def test_every_chain_is_one_product_of_its_operands(self, first, rest):
        factors = list(_FIRST[first].children) if first == "(a*b)" else [_FIRST[first]]
        for op, operand in rest:
            tree, reciprocal = _OPERANDS[operand]
            factors.append(tree if op == "*" else reciprocal)
        if first == "1" and (rest[0][0] == "/" or factors[1].tag == POWER
                             and factors[1].children[1].tag == INTNEG):
            factors = factors[1:]
        expected = factors[0] if len(factors) == 1 \
            else InertForm(PROD, children=factors)
        text = first + "".join(op + operand for op, operand in rest)
        assert parse_maple(text) == expected

    @pytest.mark.parametrize("text, flat", [
        ("(a*b)*c", "a*b*c"), ("(a*b)/c", "a*b/c"), ("(-a*b)*c", "-a*b*c"),
        ("1/(1/(a*b))*c", "a*b*c"),
    ])
    def test_a_leading_bracketed_product_joins_the_product(self, text, flat):
        # a product evaluates left to right, so splicing its first factor
        # keeps the text's order of operations
        assert parse_maple(text) == parse_maple(flat)

    @pytest.mark.parametrize("text, flat", [
        ("a*(b*c)", "a*b*c"), ("a*(b/c)", "a*b/c"), ("a*(-b*c)", "-a*b*c"),
        ("x*(-y)", "-x*y"), ("2*(-y)", "-2*y"),
    ])
    def test_a_later_bracketed_product_joins_the_product_in_preprocess(self, text, flat):
        # the parsed tree multiplies the bracketed factors first, as the text
        # does; preprocess makes the one flat product for the renderers
        assert parse_maple(text) == \
            InertForm(PROD, children=[parse_maple(text[0]), parse_maple(text[2:])])
        for use_divide in (True, False):
            assert preprocess(parse_maple(text), use_divide) == \
                preprocess(parse_maple(flat), use_divide)

    def test_a_bracketed_sum_joins_the_sum_where_it_leads(self):
        assert parse_maple("(a+b)+c") == parse_maple("a+b+c")
        assert parse_maple("a+(b+c)") == \
            InertForm(SUM, children=[name("a"), parse_maple("b+c")])
        assert preprocess(parse_maple("a+(b+c)")) == parse_maple("a+b+c")
        assert to_nested_list(parse_maple("a-(b+c)"))[2][0] == "PROD"

    @pytest.mark.parametrize("lhs, rhs", [
        ("(ln(R/E)-Phi)+R^(-7)", "R^(-7)+(ln(R/E)-Phi)"),
        ("(a*b)*c+d", "d+(a*b)*c"),
    ])
    def test_a_unit_bracketed_on_both_sides_cancels_exactly(self, lhs, rhs):
        # both sides compute the bracketed unit by the same operations
        verdict = check_equivalence(parse_maple(lhs), parse_maple(rhs),
                                    sorted(free_names(parse_maple(lhs))))
        assert verdict.max_abs_difference == 0.0

    def test_a_divisor_one_over_q_comes_back_as_q(self, lex):
        assert backward_string("x/(1/y)", lex).output == "x\\idt y"

    def test_negation_becomes_product_with_minus_one(self):
        assert parse_maple("-a") == \
            InertForm(PROD, children=[InertForm(INTNEG, 1), name("a")])
        assert parse_maple("-2") == InertForm(INTNEG, 2)

    def test_a_double_negation_gives_back_its_operand(self, lex):
        # negating -1*x makes its factor 1, which is dropped, not written
        assert parse_maple("-(-x)") == name("x")
        assert backward_string("-(-x)", lex).output == "x"
        assert backward_string("x - -y", lex).output == "x+y"
        assert parse_maple("-(-(x*y))") == parse_maple("x*y")
        assert parse_maple("-(-2*x)") == parse_maple("2*x")
        # and so when preprocess splices a negated product after a -1
        assert preprocess(parse_maple("(-1)*(-z/y)"), use_divide=False) == \
            parse_maple("z/y")
        assert backward_string("(-1)*(-z/y)", lex).output == "\\frac{z}{y}"

    def test_a_sign_before_the_first_factor_negates_the_flat_product(self, lex):
        assert to_nested_list(parse_maple("-x*y")) == \
            ["PROD", ["INTNEG", 1], ["NAME", "x"], ["NAME", "y"]]
        assert backward_string("-x*y", lex).output == "-x\\idt y"
        assert backward_string("-(-x*y)", lex).output == "x\\idt y"
        assert parse_maple("-2*x") == parse_maple("-(2*x)") == parse_maple("(-1)*2*x")
        # a -1 among the constants merges as the leading one does
        assert backward_string("2*(-y)", lex).output == "-2\\idt y"
        assert backward_string("2*(-1)*(-y)", lex).output == "2\\idt y"

    def test_a_sign_before_a_float_is_written_by_each_renderer(self, lex):
        # LaTeX writes -2.5; Maple keeps the 1, as -2.5 would read as one float
        tree = parse_maple("-(2.5*x)")
        assert backward_string("-(2.5*x)", lex).output == "-2.5\\idt x"
        assert render_maple(tree) == "-1*2.5*x"
        assert parse_maple(render_maple(tree)) == tree

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

    @pytest.mark.parametrize("use_divide", [True, False])
    def test_output_comes_back_through_render_and_parse(self, use_divide):
        # one canonical form: after one cycle through the Maple text, a
        # second changes nothing
        rng = random.Random(11)
        for k in range(20000):
            tree = (random_tree if k % 2 == 0 else random_evaluable)(rng)
            once = preprocess(parse_maple(render_maple(preprocess(tree, use_divide))),
                              use_divide)
            assert preprocess(parse_maple(render_maple(once)), use_divide) == once, \
                render_maple(once)

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
        # a float payload is a finite double, and a bool is no number
        ["FLOAT", True],
        ["FLOAT", float("inf")],
        ["FLOAT", float("nan")],
        ["FLOAT", 10 ** 400],
        # a call is (NAME, EXPSEQ), as in Maple's inert form
        ["FUNCTION", ["INTPOS", 1], ["EXPSEQ"]],
        ["FUNCTION", ["NAME", "f"], ["NAME", "x"]],
    ])
    def test_malformed_lists_rejected(self, nl):
        with pytest.raises(MalformedList):
            from_nested_list(nl)

    PAYLOADS = {"NAME": ["x", "y", "Pi", "sin"], "STRING": ["s"], "INTPOS": [0, 1, 2],
                "INTNEG": [1, 3], "FLOAT": [0.5, -0.0]}

    def random_list(self, rng, depth=0):
        """A nested list of any tags and 0 to 3 children, whatever its shape."""
        tag = rng.choice(sorted(TAGS))
        if tag in self.PAYLOADS:
            return [tag, rng.choice(self.PAYLOADS[tag])]
        if depth >= 3:
            return [tag]
        return [tag] + [self.random_list(rng, depth + 1)
                        for _ in range(rng.choice([0, 1, 2, 2, 2, 3]))]

    def test_an_accepted_list_gives_a_result_or_a_texcas_error(self, lex):
        rng = random.Random(5)
        accepted = 0
        for _ in range(2000):
            try:
                tree = from_nested_list(self.random_list(rng))
            except MalformedList:
                continue
            accepted += 1
            for stage in (simplify_light, preprocess, render_maple,
                          lambda t: translate_backward(t, lex),
                          lambda t: check_equivalence(t, parse_maple("x"))):
                try:
                    stage(tree)
                except TexcasError:
                    pass
        assert accepted > 500


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

    @pytest.mark.parametrize("text, rendered", [
        ("(a/b)^2", "(a/b)^2"),
        ("a^(b^c)", "a^(b^c)"),
        ("(a^b)^c", "(a^b)^c"),
        ("a/(b/c)", "a/(b/c)"),
        ("(a..b)/c", "(a..b)/c"),
        ("1/(x/y)^2", "1/(x/y)^2"),
        ("(a=b)/c", "(a = b)/c"),
        # the quotients merge into one before rendering
        ("(a/b)/(c/d)", "a/((b*c)/d)"),
        # a negative zero is signed: -0.0^0 would be -(0.0^0), which is -1
        ("(-0.0)^x", "(-0.0)^x"),
        ("x*(-0.0)", "(-0.0)*x"),
        ("(-0.0)^0", "(-0.0)^0"),
    ])
    def test_quotients_and_powers_keep_parentheses(self, text, rendered):
        # preprocessed, so that each quotient is a DIVIDE node
        tree = preprocess(parse_maple(text))
        assert render_maple(tree) == rendered
        assert preprocess(parse_maple(rendered)) == tree
        if not free_names(tree):  # and a text without names keeps its value
            assert evaluate(parse_maple(rendered), {}) == evaluate(tree, {})


    @pytest.mark.parametrize("text, rendered", [
        ("a+(b+c)", "a+(b+c)"),
        ("a*(b*c)", "a*(b*c)"),
        ("a*(b/c)", "a*(b/c)"),
        ("a+(-b+c)", "a+(-b+c)"),
        ("x*(y*(z*w))", "x*(y*(z*w))"),
        ("(a+b)+(c+d)", "a+b+(c+d)"),
        ("1/x*(a*b)", "1/x*(a*b)"),
    ])
    def test_a_later_sum_or_product_keeps_its_brackets(self, text, rendered):
        tree = parse_maple(text)
        assert render_maple(tree) == rendered
        assert parse_maple(rendered) == tree

    def test_every_parsed_tree_comes_back_from_its_rendering(self):
        # the parser keeps a later bracketed sum or product whole, and the
        # renderer brackets it, so the evaluator adds and multiplies in the
        # same order after the round trip
        rng = random.Random(11)
        for _ in range(3000):
            tree = parse_maple(render_maple(random_tree(rng)))
            assert parse_maple(render_maple(tree)) == tree, tree


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
        # x-x*1/sin(t)^x adds 6 levels per wrap, its negated product one
        # flat PROD, and sin(sin(x)) the last 4; one wrap more is refused
        text = "sin(sin(x))"
        for _ in range(42):
            text = f"x-x*1/sin({text})^x"
        tree = parse_maple(text)
        assert inert._height(tree) == inert.MAX_HEIGHT
        with pytest.raises(MapleTooDeep):
            parse_maple(f"x-x*1/sin({text})^x")
        sin = "FUNCTION(NAME('sin'), EXPSEQ("
        wrap = "SUM(NAME('x'), PROD(INTNEG(1), NAME('x'), INTPOS(1), POWER(POWER("
        unwrap = ")), NAME('x')), INTNEG(1))))"
        assert repr(tree) == (wrap + sin) * 42 + sin * 2 + "NAME('x')" + "))" * 2 \
            + unwrap * 42
