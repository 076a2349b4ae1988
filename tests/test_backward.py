"""Backward translation tests: inert trees to semantic LaTeX."""

import cmath
import random

import pytest

from texcas.backward import backward_string, build_reverse_rules, translate_backward
from texcas.errors import UnknownFunction, UnsupportedTag
from texcas.evaluator import evaluate
from texcas.forward import translate_string
from texcas.inert import INTNEG, PROD, InertForm, parse_maple, preprocess
from texcas.lexicon import Lexicon
from texcas.scanner import scan
from texcas.verify import MAPLE_SIDE, SEMANTIC_LATEX, round_trip
from treegen import free_names, random_evaluable


def back(text, lex, **kw):
    return backward_string(text, lex, **kw).output


class TestGoldenOutputs:
    def test_table3_step_two(self, lex):
        assert back("(cos(a*Theta))/(2)", lex) == \
            r"\frac{1}{2}\idt\cos@{a\idt\Theta}"

    def test_quotient_with_radical(self, lex):
        assert back("cos(Pi*2)/sqrt((3*beta)/4-3*I)", lex) == \
            r"\frac{\cos@{2\idt\cpi}}{\sqrt{\frac{3}{4}\idt\beta-3\idt\iunit}}"

    def test_non_integer_exponent_keeps_divide(self, lex):
        assert back("(1/(x+3))^(-I)", lex) == \
            r"\left(\frac{1}{3+x}\right)^{-\iunit}"

    def test_divide_disabled_variant(self, lex):
        assert back("(1/(x+3))^(-I)", lex, use_divide=False) == \
            r"\left((3+x)^{-1}\right)^{-\iunit}"

    def test_bare_name(self, lex):
        assert back("x", lex) == "x"

    def test_elliptic_integral_takes_sine_of_amplitude(self, lex):
        assert back("EllipticF(z,k)", lex) == r"\EllIntF@{\asin@{z}}{k}"

    def test_jacobi_argument_order_restored(self, lex):
        assert back("JacobiP(2,0,0,x)", lex) == r"\JacobiP{0}{0}{2}@{x}"

    def test_negation_renders_minus_sign(self, lex):
        assert back("a*(-1)", lex) == "-a"
        assert back("-a", lex) == "-a"
        lone = InertForm(PROD, children=[InertForm(INTNEG, 1)])
        assert translate_backward(lone, lex).output == "-1"

    def test_subtraction_absorbs_sign(self, lex):
        assert back("x-3*I", lex) == r"x-3\idt\iunit"

    def test_constant_names_map_to_macros(self, lex):
        assert back("Pi", lex) == r"\cpi"
        assert back("I", lex) == r"\iunit"
        assert back("gamma", lex) == r"\EulerConstant"
        assert back("Catalan", lex) == r"\CatalansConstant"

    def test_greek_names_map_to_commands(self, lex):
        assert back("alpha*Theta", lex) == r"\alpha\idt\Theta"

    def test_sqrt_and_root(self, lex):
        assert back("sqrt(x)", lex) == r"\sqrt{x}"
        assert back("root(x,5)", lex) == r"\sqrt[5]{x}"

    def test_rational_constant_as_frac(self, lex):
        # constant terms move to the front of the sum
        assert back("x/2+1/2", lex) == \
            r"\frac{1}{2}+\frac{1}{2}\idt x"

    def test_equation(self, lex):
        assert back("sin(z) = cos(z)", lex) == r"\sin@{z} = \cos@{z}"

    def test_letter_spacing_before_names(self, lex):
        # the \idt separator must not fuse with a following bare letter
        out = back("2*z", lex)
        assert out == r"2\idt z"


class TestNestedEquations:
    """An equation inside a sum, product, power or equation keeps its
    parentheses, so forward translation reads back the same tree."""

    @pytest.mark.parametrize("text, latex", [
        ("(a=b)^2", r"\left(a = b\right)^{2}"),
        ("sin(x)+(a=b)", r"\sin@{x}+\left(a = b\right)"),
        ("2*(a=b)", r"2\idt\left(a = b\right)"),
        ("-(a=b)", r"-\left(a = b\right)"),
        ("(a=b)=c", r"\left(a = b\right) = c"),
    ])
    def test_output_and_cycle(self, lex, text, latex):
        assert back(text, lex) == latex
        for use_divide in (True, False):
            cycled = translate_string(back(text, lex, use_divide=use_divide),
                                      lex, "maple").output
            assert preprocess(parse_maple(cycled), use_divide=use_divide) == \
                preprocess(parse_maple(text), use_divide=use_divide)

    def test_round_trip_keeps_the_meaning(self, lex):
        report = round_trip("(a=b)^2", MAPLE_SIDE, lex)
        assert report.terminated_reason == "fixed-point"
        assert parse_maple(report.steps[-1].text) == parse_maple("(a=b)^2")


class TestReverseRules:
    def test_rules_derived_from_lexicon(self, lex):
        rules = build_reverse_rules(lex)
        assert rules[("sin", 1)].latex_template == r"\sin@{$0}"
        assert rules[("JacobiP", 4)].latex_template == \
            r"\JacobiP{$1}{$2}{$0}@{$3}"
        assert rules[("EllipticF", 2)].latex_template == \
            r"\EllIntF@{\asin@{$0}}{$1}"
        # a Maple template that repeats a placeholder has no inverse
        doc = lex.to_json()
        doc["entries"][r"\Fsq"] = {"num_vars": 2, "at_variants": [1],
                                   "translations": {"maple": "F($0,$0)"}}
        assert ("F", 2) not in build_reverse_rules(Lexicon.from_json(doc))

    def test_writes_the_fewest_listed_at_signs(self, lex):
        # forward reads only the listed @ counts, so backward writes one
        doc = lex.to_json()
        doc["entries"][r"\foo"] = {"num_vars": 1, "at_variants": [2, 3],
                                   "translations": {"maple": "foo($0)"}}
        lex2 = Lexicon.from_json(doc)
        assert back("foo(x)", lex2) == r"\foo@@{x}"
        report = round_trip(r"\foo@@{x}", SEMANTIC_LATEX, lex2)
        assert report.terminated_reason == "fixed-point"
        assert [s.text for s in report.steps] == [r"\foo@@{x}", "foo(x)"]

    def test_a_signed_template_is_bracketed_as_a_factor_and_a_base(self, lex):
        # the operand table tests a signed operand by its text, whatever its tag
        doc = lex.to_json()
        doc["entries"]["\\sin"]["reverse"] = "-\\cos@{$0}"
        signed = Lexicon.from_json(doc)
        assert back("y*sin(x)", signed) == r"y\idt(-\cos@{x})"
        assert back("sin(x)^2", signed) == r"(-\cos@{x})^{2}"
        assert back("sin(x)+y", signed) == r"-\cos@{x}+y"

    def test_unknown_function_errors(self, lex):
        with pytest.raises(UnknownFunction):
            back("Zeta(s)", lex)

    def test_range_rejected(self, lex):
        with pytest.raises(UnsupportedTag):
            translate_backward(preprocess(parse_maple("0..1")), lex)


class TestProperties:
    CORPUS = [
        "(cos(a*Theta))/(2)",
        "cos(Pi*2)/sqrt((3*beta)/4-3*I)",
        "(1/(x+3))^(-I)",
        "JacobiP(2,0,0,x)",
        "EllipticF(z,k)",
        "sin(z+Pi/2) = cos(z)",
        "x^2+2*x+1",
        "1-2*sin(z)^2",
        "exp(1)^(I*Pi)",
        "a/x^2",
        "2*z",
        "root(x,5)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_output_rescans(self, lex, text):
        scan(back(text, lex), lex)

    @pytest.mark.parametrize("text", CORPUS)
    def test_output_forward_translates(self, lex, text):
        translate_string(back(text, lex), lex, "maple")

    @pytest.mark.parametrize("text", [
        "(cos(a*Theta))/(2)",
        "cos(Pi*2)/sqrt((3*beta)/4-3*I)",
        "sin(z+Pi/2) = cos(z)",
        "JacobiP(2,0,0,x)",
    ])
    def test_sign_and_value_preserved_through_cycle(self, lex, text):
        """Forward translation of the backward output parses to a tree with
        the same value as the input at sample points."""
        import cmath

        original = preprocess(parse_maple(text))
        cycled = preprocess(parse_maple(
            translate_string(back(text, lex), lex, "maple").output))
        names = sorted(free_names(original))
        envs = [{n: 0.6 + 0.3j * (k + 1) for k, n in enumerate(names)},
                {n: -0.8 - 0.2j * (k + 1) for k, n in enumerate(names)}]

        def values(tree, env):
            if tree.tag == "EQUATION":
                return [evaluate(c, env) for c in tree.children]
            return [evaluate(tree, env)]

        for env in envs:
            for a, b in zip(values(original, env), values(cycled, env)):
                assert cmath.isfinite(a.real)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_value_preserved_through_cycle_on_generated_trees(self, lex):
        """A generated tree, preprocessed with and without DIVIDE nodes,
        keeps its value through backward translation, forward translation
        and parsing, at each point where its value is finite."""
        rng = random.Random(11)
        envs = [{"x": 0.7 + 0.4j, "y": -1.1 + 0.2j},
                {"x": -0.3 - 0.9j, "y": 0.5 + 1.5j}]
        checked = 0
        for _ in range(2000):
            tree = random_evaluable(rng)
            before = []
            for env in envs:
                try:
                    value = evaluate(tree, env)
                except (ZeroDivisionError, OverflowError, ValueError):
                    continue
                if cmath.isfinite(value):
                    before.append((env, value))
            for use_divide in (True, False):
                latex = translate_backward(preprocess(tree, use_divide=use_divide), lex).output
                cycled = parse_maple(translate_string(latex, lex, "maple").output)
                for env, value in before:
                    after = evaluate(cycled, env)
                    assert abs(after - value) <= 1e-9 * max(1.0, abs(value)), (tree, latex)
                    checked += 1
        assert checked > 5000
