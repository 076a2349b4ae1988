"""Forward translation tests: golden outputs, advisory policy, dialect rules."""

from fractions import Fraction
from functools import reduce
from operator import truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcas.errors import (ArityMismatch, NoDirectTranslation,
                           TranslationError, UnknownMacro)
from texcas.forward import translate_string
from texcas.inert import INTPOS, RATIONAL, parse_maple
from texcas.lexicon import DIALECTS, Lexicon
from texcas.verify import SEMANTIC_LATEX, round_trip, simplify_light


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


# --- values: digits, infix / and \frac ----------------------------------------

def _chain(terms):
    """Terms joined by infix /, with the value of that left-associative text."""
    return st.lists(terms, min_size=1, max_size=3).map(lambda chain: (
        "/".join(text for text, _ in chain),
        reduce(truediv, (value for _, value in chain))))


_digits = st.integers(1, 9).map(lambda d: (str(d), Fraction(d)))
_quotients = _chain(st.recursive(_digits, lambda terms: st.tuples(
    _chain(terms), _chain(terms)).map(lambda pair: (
        f"\\frac{{{pair[0][0]}}}{{{pair[1][0]}}}", pair[0][1] / pair[1][1])),
    max_leaves=8))


def _exact(tree) -> Fraction:
    """The value of a simplified positive rational."""
    if tree.tag == RATIONAL:
        num, den = tree.children
        return Fraction(num.payload, den.payload)
    assert tree.tag == INTPOS, tree
    return Fraction(tree.payload)


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
