"""Deep nesting is refused with a TexcasError, never a RecursionError.

The scanner and the Maple parser bound the nesting depth, and the parser
bounds the height of the tree it builds; every later stage
(forward and backward translation, preprocess, simplify_light, compiled
evaluation) recurses over trees the parser built, so the bound covers them.
"""

import pytest

from texcas import inert, scanner
from texcas.backward import backward_string
from texcas.cli import (EXIT_PARSE, EXIT_TRANSLATION, CorpusRecord,
                        main, run_corpus)
from texcas.errors import (MalformedList, MapleSyntaxError, MapleTooDeep,
                           ScanError, ScanTooDeep)
from texcas.forward import translate_string
from texcas.inert import from_nested_list, parse_maple, to_nested_list
from texcas.scanner import scan
from texcas.verify import (MAPLE_SIDE, SEMANTIC_LATEX, check_equivalence,
                           round_trip)

from treegen import name

DEPTHS = [300, 1000, 3000]


def deep_maple(n):
    """Maple inputs nested n levels deep."""
    return ["(" * n + "x" + ")" * n,
            "sin(" * n + "x" + ")" * n,
            "1/(x+" * n + "x" + ")" * n,
            "-" * n + "x",
            "x^" * n + "x",
            "'" * n + "x" + "'" * n]


def nested_chain(levels, units):
    """((x*x/x...)*x/x...)*x/x...: ``units`` times ``*x/x`` over ``levels``
    parentheses, each adding a PROD level; a tree units + 1 tall."""
    each, extra = divmod(units, levels)
    text = "x"
    for k in range(levels):
        text = "(" + text + ")" + "*x/x" * (each + (extra if k == 0 else 0))
    return text


def tall_maple(h):
    """Maple inputs, nested at most a few levels, whose trees are h tall.
    A chain of divisions is one product; a division after a product, or a
    product after a division, nests the product."""
    return ["x" + "/x*x" * (h - 2),
            "x" + "*x/x" * (h - 1),
            nested_chain(16, h - 1),
            nested_chain(max(1, (h - 1) // 16), h - 1)]


def deep_latex(n):
    return ["{" * n + "x" + "}" * n,
            "\\sin@{" * n + "x" + "}" * n,
            "\\left(" * n + "x" + "\\right)" * n,
            "\\frac{1}{" * n + "x" + "}" * n]


def test_error_classes():
    assert issubclass(MapleTooDeep, MapleSyntaxError)
    assert issubclass(ScanTooDeep, ScanError)


@pytest.mark.parametrize("n", DEPTHS)
def test_deep_maple_is_refused(n, lex):
    for text in deep_maple(n) + tall_maple(n):
        with pytest.raises(MapleTooDeep):
            parse_maple(text)
        with pytest.raises(MapleTooDeep):
            backward_string(text, lex)
        report = round_trip(text, MAPLE_SIDE, lex)
        assert report.terminated_reason == "translation-error"


@pytest.mark.parametrize("n", DEPTHS)
def test_deep_latex_is_refused(n, lex):
    for text in deep_latex(n):
        with pytest.raises(ScanTooDeep):
            scan(text, lex)
        with pytest.raises(ScanTooDeep):
            translate_string(text, lex, "maple")
        report = round_trip(text, SEMANTIC_LATEX, lex)
        assert report.terminated_reason == "translation-error"
        _, log = run_corpus([CorpusRecord("deep", text + " = x")], lex)
        assert log[0]["classification"] == "errored"


@pytest.mark.parametrize("n", DEPTHS)
def test_cli_maps_deep_nesting_to_the_parse_exit_code(n, capsys):
    for text in deep_latex(n):
        assert main(["translate", "--", text]) == EXIT_PARSE
    for text in deep_maple(n) + tall_maple(n):
        assert main(["translate", "--backward", "--", text]) == EXIT_PARSE
        assert main(["inert", "--", text]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    for text in deep_maple(n) + tall_maple(n):
        assert main(["roundtrip", "--side", "maple", "--", text]) \
            == EXIT_TRANSLATION
        assert "Traceback" not in capsys.readouterr().err


def run_every_stage(text, lex):
    tree = parse_maple(text)
    check_equivalence(tree, name("x"), ["x"])
    backward_string(text, lex)
    inert.render_maple(tree)
    round_trip(text, MAPLE_SIDE, lex)
    assert main(["inert", "--preprocess", "--", text]) == 0
    assert main(["translate", "--backward", "--", text]) == 0


def test_maple_nesting_up_to_the_limit_runs_every_stage(lex, capsys):
    n = inert.MAX_NESTING
    for text, deeper in zip(deep_maple(n), deep_maple(n + 1)):
        run_every_stage(text, lex)
        with pytest.raises(MapleTooDeep):
            parse_maple(deeper)


def test_maple_trees_up_to_the_height_limit_run_every_stage(lex, capsys):
    h = inert.MAX_HEIGHT
    for text, taller in zip(tall_maple(h), tall_maple(h + 1)):
        assert inert._height(parse_maple(text)) == h
        run_every_stage(text, lex)
        assert main(["inert", "--", taller]) == EXIT_PARSE
    # exactly one level over the limit, and a chain that nests no level
    for taller in ("x" + "/x*x" * (h - 1), "x" + "/x*x" * 300):
        with pytest.raises(MapleTooDeep, match=f"expected a tree at most {h} "
                           "levels tall"):
            parse_maple(taller)


def wrapped(n):
    """``t = x`` wrapped n times as ``x-x*1/sin(t)^x``: each wrap adds 7
    tree levels but only about one parser nesting level."""
    text = "x"
    for _ in range(n):
        text = f"x-x*1/sin({text})^x"
    return text


def test_trees_that_only_nest_are_bounded_by_their_height(lex, capsys):
    # 37 wraps nest the parser about 38 levels, well within MAX_NESTING, and
    # are refused for the height alone: parse depth does not bound height
    assert inert._height(parse_maple(wrapped(36))) == 252
    run_every_stage(wrapped(36), lex)
    with pytest.raises(MapleTooDeep, match="levels tall") as refused:
        parse_maple(wrapped(37))
    assert refused.value.limit == inert.MAX_HEIGHT


def test_latex_nesting_up_to_the_limit_translates(lex):
    n = scanner.MAX_NESTING
    for text, deeper in zip(deep_latex(n), deep_latex(n + 1)):
        translate_string(text, lex, "maple")
        with pytest.raises(ScanTooDeep):
            scan(deeper, lex)


def nested_powers(h):
    """A nested list h levels below its root: x squared h times."""
    nl = ["NAME", "x"]
    for _ in range(h):
        nl = ["POWER", nl, ["INTPOS", 2]]
    return nl


def test_nested_lists_up_to_the_height_limit_are_read():
    h = inert.MAX_HEIGHT
    nl = nested_powers(h)
    tree = from_nested_list(nl)
    assert inert._height(tree) == h
    assert to_nested_list(tree) == nl
    for taller in (h + 1, 3000):
        with pytest.raises(MalformedList):
            from_nested_list(nested_powers(taller))
