"""Forward translation tests: golden outputs, advisory policy, dialect rules."""

import json
from fractions import Fraction
from operator import mul, truediv
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcas.errors import (ArityMismatch, NoDirectTranslation, TexcasError,
                           TranslationError, UnknownMacro)
from texcas.forward import translate_string
from texcas.inert import INTNEG, INTPOS, RATIONAL, int_value, parse_maple
from texcas.lexicon import DIALECTS, Lexicon
from texcas.scanner import TermKind, scan
from texcas.verify import SEMANTIC_LATEX, round_trip, simplify_light

GENERATED = [row["text"] for row in json.loads(
    (Path(__file__).parent / "data" / "translate_generated_golden.json")
    .read_text(encoding="utf-8"))]


def maple(text, lex):
    return translate_string(text, lex, "maple")


def mma(text, lex):
    return translate_string(text, lex, "mathematica")


class TestGoldenOutputs:
    def test_jacobi_maple(self, lex):
        result = maple(r"\JacobiP{\alpha}{\beta}{n}@{\cos@{a\Theta}}", lex)
        assert result.output == "JacobiP(n,alpha,beta,cos(a*Theta))"

    def test_jacobi_mathematica(self, lex):
        result = mma(r"\JacobiP{\alpha}{\beta}{n}@{\cos@{a\Theta}}", lex)
        assert result.output == \
            r"JacobiP[n,\[Alpha],\[Beta],Cos[a \[CapitalTheta]]]"

    def test_sin_double_at(self, lex):
        assert maple(r"\sin@@{z}", lex).output == "sin(z)"
        assert mma(r"\sin@@{z}", lex).output == "Sin[z]"

    def test_sin_dlmf_link_surfaced(self, lex):
        result = maple(r"\sin@@{z}", lex)
        links = [i for i in result.infos if i.kind == "dlmf-link"]
        assert links and "dlmf.nist.gov" in links[0].text

    def test_fraction_of_cos(self, lex):
        assert maple(r"\frac{\cos@{a\Theta}}{2}", lex).output == \
            "(cos(a*Theta))/(2)"

    def test_half_times_cos(self, lex):
        assert maple(r"\frac{1}{2}\idt\cos@{a\idt\Theta}", lex).output == \
            "(1)/(2)*cos(a*Theta)"

    def test_besselk_with_branch_cut_warning(self, lex):
        result = maple(r"\BesselK{\frac{1}{4}}@{\frac{1}{4}z^2}", lex)
        assert result.output == "BesselK(1/4,(1/4)*z^2)"
        assert any(i.kind == "branch-cut" for i in result.infos)

    def test_elliptic_f_composes_sine_of_amplitude(self, lex):
        assert maple(r"\EllIntF@{\phi}{k}", lex).output == "EllipticF(sin(phi),k)"

    def test_bare_variable(self, lex):
        result = maple("x", lex)
        assert result.output == "x"
        assert result.infos == []

    def test_expe_power(self, lex):
        assert maple(r"\expe^{\iunit\idt\cpi}", lex).output == "exp(1)^(I*Pi)"

    def test_relation_passes_through(self, lex):
        assert maple(r"\sin@{z} = \cos@{z}", lex).output == "sin(z) = cos(z)"

    def test_sqrt_and_optional_order(self, lex):
        assert maple(r"\sqrt{x}", lex).output == "sqrt(x)"
        assert maple(r"\sqrt[3]{x}", lex).output == "root(x,3)"
        assert mma(r"\sqrt[3]{x}", lex).output == "Surd[x,3]"


class TestConstantPolicy:
    """Latin and Greek letters always translate as letters, with suggestions."""

    @pytest.mark.parametrize("letter,macro", [
        ("i", r"\iunit"), ("e", r"\expe"), ("C", r"\CatalansConstant")])
    def test_latin_letters_not_substituted(self, lex, letter, macro):
        result = maple(letter, lex)
        assert result.output == letter
        suggestions = [i for i in result.infos if i.kind == "constant-suggestion"]
        assert suggestions and macro in suggestions[0].text

    @pytest.mark.parametrize("command,name,macro", [
        (r"\pi", "pi", r"\cpi"), (r"\alpha", "alpha", r"\finestructure")])
    def test_greek_commands_not_substituted(self, lex, command, name, macro):
        result = maple(command, lex)
        assert result.output == name
        suggestions = [i for i in result.infos if i.kind == "constant-suggestion"]
        assert suggestions and macro in suggestions[0].text

    def test_suggestion_inside_larger_formula(self, lex):
        result = maple(r"2\idt e", lex)
        assert result.output == "2*e"
        assert any(i.kind == "constant-suggestion" for i in result.infos)


class TestStructure:
    def test_implicit_multiplication_letter_pairs(self, lex):
        assert maple(r"a\Theta", lex).output == "a*Theta"
        assert mma(r"a\Theta", lex).output == r"a \[CapitalTheta]"

    def test_implicit_multiplication_digit_letter(self, lex):
        assert maple("2x", lex).output == "2*x"

    def test_caret_reassociates_flat_siblings(self, lex):
        assert maple("x^3", lex).output == "x^3"
        assert maple("x^{n+1}", lex).output == "x^(n+1)"
        assert maple(r"x^\frac{1}{2}", lex).output == "x^((1)/(2))"
        assert maple("x^y^z", lex).output == "x^(y^z)"
        # a template that starts with a bracket is still one operand to bracket
        doc = lex.to_json()
        doc["entries"][r"\foo"] = {"num_vars": 1, "at_variants": [1],
                                   "translations": {"maple": "($0)+1"}}
        assert maple(r"x^\foo@{y}", Lexicon.from_json(doc)).output == "x^((y)+1)"

    def test_negative_exponent(self, lex):
        assert maple("z^{-2}", lex).output == "z^(-2)"

    def test_subscript(self, lex):
        assert maple("x_{1}", lex).output == "x[1]"
        assert mma("x_{1}", lex).output == "Subscript[x, 1]"

    @pytest.mark.parametrize("text,maple_out,mma_out", [
        ("x_{1}^{2}", "x[1]^2", "Subscript[x, 1]^2"),
        # a subscript right after a superscript joins the same base
        ("x^{2}_{1}", "x[1]^2", "Subscript[x, 1]^2"),
        ("x^y_{1}", "x[1]^y", "Subscript[x, 1]^y"),
        ("x_{i}^{n+1}", "x[i]^(n+1)", "Subscript[x, i]^(n+1)"),
        # subscripts attach in turn, before and after the superscript
        ("x_a_b", "x[a][b]", "Subscript[Subscript[x, a], b]"),
        ("x_b_c^a", "x[b][c]^a", "Subscript[Subscript[x, b], c]^a"),
        ("x^a_b_c", "x[b][c]^a", "Subscript[Subscript[x, b], c]^a"),
    ])
    def test_scripts_attach_to_the_value_before_them(self, lex, text, maple_out,
                                                     mma_out):
        assert maple(text, lex).output == maple_out
        assert mma(text, lex).output == mma_out

    @pytest.mark.parametrize("text", ["x^", "^2", "x_1^", "x^^2", "+^2", "x^+",
                                      "x^a_b^c"])
    def test_a_script_needs_a_base_and_an_argument(self, lex, text):
        with pytest.raises(TranslationError, match="script symbol without base"):
            maple(text, lex)

    @pytest.mark.parametrize("text,maple_out,mma_out", [
        ("a*-b", "a*(-b)", "a (-b)"),
        ("a*+b", "a*(+b)", "a (+b)"),
        (r"a\idt -b", "a*(-b)", "a (-b)"),
        (r"2/-\frac{1}{2}", "2/(-(1)/(2))", "2/(-(1)/(2))"),
        ("a+-b", "a+-b", "a+-b"),
        # the value's factorials stay inside the bracket: -(n!), not (-n)!
        ("a*-n!", "a*(-n!)", "a (-n!)"),
        (r"a\idt -n!!+c", "a*(-n!!)+c", "a (-n!!)+c"),
        ("a/-n!", "a/(-n!)", "a/(-n!)"),
    ])
    def test_a_sign_after_a_product_binds_the_next_value(self, lex, text,
                                                         maple_out, mma_out):
        assert maple(text, lex).output == maple_out
        assert mma(text, lex).output == mma_out

    def test_a_sign_after_a_quotient_keeps_the_value(self, lex):
        # 2/-(1)/(2) would read as -1
        value = simplify_light(parse_maple(maple(r"2/-\frac{1}{2}", lex).output))
        assert value.tag == INTNEG and value.payload == 4

    def test_a_sign_needs_no_product_template(self, lex):
        doc = lex.to_json()
        del doc["builtins"]["\\idt"]["translations"]["mathematica"]
        partial = Lexicon.from_json(doc)
        assert mma("a+-b", partial).output == "a+-b"
        assert mma("a/-b", partial).output == "a/(-b)"
        with pytest.raises(NoDirectTranslation):
            mma("a*-b", partial)

    def test_at_variants_translate_identically(self, lex):
        # the @ counts an entry lists translate alike; any other is refused
        outputs = {maple(rf"\sin{at}{{z}}", lex).output for at in ("@", "@@")}
        assert outputs == {"sin(z)"}
        for text in (r"\sin@@@{z}", r"\frac@{a}{b}", r"\sqrt@{x}"):
            with pytest.raises(ArityMismatch, match="argument group"):
                maple(text, lex)

    def test_group_translation_is_contiguous(self, lex):
        # hierarchy preservation: the argument group's translation appears
        # as one contiguous substring of the output
        inner = maple(r"a\idt\Theta", lex).output
        outer = maple(r"\cos@{a\idt\Theta}", lex).output
        assert inner in outer

    def test_decimal_refusion(self, lex):
        assert maple("3.5", lex).output == "3.5"

    def test_fraction_as_divisor_is_bracketed(self, lex):
        # a/(b)/(c) would read as a/(bc)
        assert maple(r"a/\frac{b}{c}", lex).output == "a/(b/c)"
        assert mma(r"a/\frac{b}{c}", lex).output == "a/(b/c)"
        assert maple(r"a/\frac{b+1}{c}", lex).output == "a/((b+1)/(c))"
        assert maple(r"\frac{a}{b}/c", lex).output == "(a)/(b)/c"
        report = round_trip(r"a/\frac{b}{c}", SEMANTIC_LATEX, lex)
        assert report.fixed_point_reached
        assert [step.text for step in report.steps
                if step.side == SEMANTIC_LATEX][-1] == r"\frac{a}{\frac{b}{c}}"

    @pytest.mark.parametrize("text,maple_out,mma_out", [
        (r"\frac{a}{b}!", "(a/b)!", "(a/b)!"),
        (r"\frac{a+1}{b}!", "((a+1)/(b))!", "((a+1)/(b))!"),
        (r"x\frac{a}{b}!", "x*(a/b)!", "x (a/b)!"),
        (r"x\idt\frac{a}{b}!", "x*(a/b)!", "x (a/b)!"),
        (r"-\frac{a}{b}!!", "-(a/b)!!", "-(a/b)!!"),
    ])
    def test_fraction_before_a_factorial_is_bracketed(self, lex, text, maple_out,
                                                      mma_out):
        # (a)/(b)! would read as a/(b!)
        assert maple(text, lex).output == maple_out
        assert mma(text, lex).output == mma_out

    @pytest.mark.parametrize("text,maple_out,mma_out", [
        (r"x^{\frac{1}{2}}", "x^(1/2)", "x^(1/2)"),
        (r"{\frac{a}{b}}", "(a/b)", "(a/b)"),
        (r"2{\frac{a}{b}}", "2*(a/b)", "2 (a/b)"),
        (r"{\frac{a+1}{b}}", "((a+1)/(b))", "((a+1)/(b))"),
        ("{ x }", "x", "x"),
        ("{{x}}", "x", "x"),
        ("x^{-}", "x^(-)", "x^(-)"),
        ("{=}", "(=)", "(=)"),
    ])
    def test_a_sequence_of_one_item_is_written_as_assembled(self, lex, text,
                                                            maple_out, mma_out):
        # one value is its own text, a fraction its compact form; one
        # operator goes through the assembly of any sequence
        assert maple(text, lex).output == maple_out
        assert mma(text, lex).output == mma_out

    def test_a_value_alone_in_a_group_keeps_its_infos(self, lex):
        info = ("constant-suggestion", "command '\\alpha' may denote the constant "
                "\\finestructure; it is translated as a Greek letter")
        for result, out in ((maple(r"x^{\alpha}", lex), "x^alpha"),
                            (mma(r"x^{\alpha}", lex), r"x^\[Alpha]")):
            assert result.output == out
            assert [(i.kind, i.text) for i in result.infos] == [info]

    def test_each_frac_template_keeps_its_own_compact_form(self, lex):
        # the compact form is derived once per template string: a lexicon
        # with another \frac template does not share the seed lexicon's
        doc = lex.to_json()
        doc["builtins"][r"\frac"]["translations"]["maple"] = "($1)^(-1)*($0)"
        inverse = Lexicon.from_json(doc)
        outputs = [[maple(text, each).output
                    for text in (r"\frac{a}{b}", r"2\frac{a}{b}", r"\frac{a+1}{b}")]
                   for each in (lex, inverse, lex)]
        seed = ["a/b", "2*(a/b)", "(a+1)/(b)"]
        assert outputs == [seed, ["b^(-1)*a", "2*(b^(-1)*a)", "(b)^(-1)*(a+1)"], seed]
        assert mma(r"\frac{a}{b}", inverse).output == "a/b"


# --- values: digits, infix / and *, a sign and \frac ---------------------------

def _signed(term):
    """A term, or the term with a unary minus, which binds that term alone."""
    return st.tuples(st.booleans(), term).map(lambda pair: (
        (f"-{pair[1][0]}", -pair[1][1]) if pair[0] else pair[1]))


def _chain(terms):
    """Signed terms joined by infix / and *, with the value of that
    left-associative text."""
    steps = st.tuples(st.sampled_from([("/", truediv), ("*", mul)]), _signed(terms))
    return st.tuples(_signed(terms), st.lists(steps, max_size=2)).map(_join)


def _join(chain):
    (text, value), steps = chain
    for (op, apply), (term, term_value) in steps:
        text, value = text + op + term, apply(value, term_value)
    return text, value


_digits = st.integers(1, 9).map(lambda d: (str(d), Fraction(d)))
_quotients = _chain(st.recursive(_digits, lambda terms: st.tuples(
    _chain(terms), _chain(terms)).map(lambda pair: (
        f"\\frac{{{pair[0][0]}}}{{{pair[1][0]}}}", pair[0][1] / pair[1][1])),
    max_leaves=8))


def _exact(tree) -> Fraction:
    """The value of a simplified nonzero rational."""
    if tree.tag == RATIONAL:
        num, den = tree.children
        return Fraction(int_value(num), den.payload)
    assert tree.tag in (INTPOS, INTNEG), tree
    return Fraction(int_value(tree))


@settings(max_examples=200, deadline=None)
@given(_quotients)
def test_maple_output_keeps_the_value_of_quotients(lex, quotient):
    text, value = quotient
    output = maple(text, lex).output
    assert _exact(simplify_light(parse_maple(output))) == value, (text, output)


class TestErrors:
    def test_unknown_macro_aborts(self, lex):
        with pytest.raises(UnknownMacro):
            maple(r"x + \qhyperg{a}{b}@{z}", lex)
        # a dialect is one of the names in DIALECTS; nothing else is one
        for dialect in ("maxima", None, DIALECTS["maple"]):
            with pytest.raises(TranslationError, match="unknown dialect"):
                translate_string("x", lex, dialect)

    def test_arity_mismatch(self, lex):
        for text in (r"\JacobiP{\alpha}{\beta}@{z}", r"\sqrt", r"\sqrt[3] x"):
            with pytest.raises(ArityMismatch):
                maple(text, lex)

    def test_missing_required_at_marker(self, lex):
        with pytest.raises(ArityMismatch):
            maple(r"\sin{z}", lex)

    def test_no_direct_translation(self, lex):
        with pytest.raises(NoDirectTranslation):
            maple(r"\finestructure", lex)
        # a function, \sqrt and \sqrt[n] (through \root) without a template
        doc = lex.to_json()  # a copy of every record
        for table, macro in (("entries", r"\sin"), ("builtins", r"\sqrt"),
                             ("builtins", r"\root")):
            del doc[table][macro]["translations"]["mathematica"]
        partial = Lexicon.from_json(doc)
        for text in (r"\sin@{z}", r"\sqrt{x}", r"\sqrt[3]{x}"):
            with pytest.raises(NoDirectTranslation):
                mma(text, partial)
        # \sqrt[n] without a \root entry at all
        del doc["builtins"][r"\root"]
        with pytest.raises(NoDirectTranslation):
            maple(r"\sqrt[3]{x}", Lexicon.from_json(doc))


    @pytest.mark.parametrize("text,symbol", [
        (r"\sin@@{x} = \idt+\cos@@{y}", r"\idt"),
        (r"\idt x", r"\idt"),
        (r"(\idt*56)", r"\idt"),
        (r"a < \idt-b", r"\idt"),
        ("a**b", "*"),
        ("a+/b", "/"),
        (r"-\idt x", r"\idt"),
    ])
    def test_a_product_sign_needs_a_left_operand(self, lex, text, symbol):
        # the LaTeX symbol is named, not its template (Mathematica's is a space)
        for dialect in DIALECTS:
            with pytest.raises(TranslationError) as info:
                translate_string(text, lex, dialect)
            assert str(info.value) == f"product sign {symbol} without a left operand"

    def test_a_product_sign_alone_in_a_group(self, lex):
        # Mathematica's product template is a space, so its group is empty,
        # but it is refused for its sign, as in Maple; a group of nothing
        # is refused as empty
        for dialect in DIALECTS:
            with pytest.raises(TranslationError,
                               match=r"^product sign \\idt without a left operand$"):
                translate_string(r"x^{\idt}", lex, dialect)
            for text in ("{}", "x^{}"):
                with pytest.raises(TranslationError,
                                   match="^translation produced empty output$"):
                    translate_string(text, lex, dialect)

    def test_a_product_sign_may_follow_a_value_or_a_factorial(self, lex):
        assert maple(r"n!\idt x", lex).output == "n!*x"
        assert mma(r"n!\idt x", lex).output == "n! x"
        assert maple(r"a\idt -b", lex).output == "a*(-b)"
        assert maple(r"x^{2}\idt y/z", lex).output == "x^2*y/z"

    def test_an_error_of_the_input_is_named_before_a_product_sign(self, lex):
        with pytest.raises(ArityMismatch):
            maple(r"(\idt x)+\ln@@", lex)
        with pytest.raises(UnknownMacro):
            maple(r"\idt x+\nosuch", lex)

    def test_a_product_sign_is_refused_where_the_scan_holds_one(self, lex):
        # over the generated texts: a text whose scan holds a product sign
        # with no value or factorial before it never translates, and only
        # such a text is refused for its product sign, in both dialects alike
        held = refused = 0
        signed = {dialect: [] for dialect in DIALECTS}
        for text in GENERATED:
            try:
                tree = scan(text, lex)
            except TexcasError:
                continue
            unjoined = _holds_an_unjoined_product_sign(tree)
            held += unjoined
            for dialect in DIALECTS:
                try:
                    translate_string(text, lex, dialect)
                except TexcasError as exc:
                    sign = str(exc).startswith("product sign ")
                    refused += sign
                    assert unjoined or not sign, text
                    if sign:
                        signed[dialect].append(text)
                else:
                    assert not unjoined, text
        assert held == 54 and refused == 52
        assert signed["maple"] == signed["mathematica"]


_PRODUCT_SIGNS = ("\\idt", "*", "/")


def _holds_an_unjoined_product_sign(tree) -> bool:
    """Whether a sequence of the scan holds a product sign first, or right
    after another product sign or an operator or relation other than ``!``."""
    prev = None
    for node in tree.children:
        if not node.is_leaf:
            if _holds_an_unjoined_product_sign(node):
                return True
        elif node.lexeme in _PRODUCT_SIGNS and (prev is None or prev.is_leaf and (
                prev.lexeme in _PRODUCT_SIGNS or prev.lexeme != "!" and prev.kind in
                (TermKind.OPERATOR_SYMBOL, TermKind.RELATION_SYMBOL))):
            return True
        prev = node
    return False


class TestDialectTotality:
    INPUTS = [
        r"\JacobiP{\alpha}{\beta}{n}@{\cos@{a\Theta}}",
        r"\frac{\cos@{a\Theta}}{2}",
        r"\sin@@{z}",
        r"\sqrt{x+1}",
        r"\expe^{\iunit\idt\cpi}",
        r"2\idt\EulerConstant",
        r"\asin@{z}",
    ]

    @pytest.mark.parametrize("text", INPUTS)
    def test_maple_translatable_implies_mathematica(self, lex, text):
        maple(text, lex)
        assert mma(text, lex).output
