"""Deep nesting is refused with a TexcasError, never a RecursionError.

The scanner and the Maple parser bound the nesting depth, and the parser
bounds the height of the tree it builds; every later stage
(forward and backward translation, preprocess, simplify_light, compiled
evaluation) recurses over trees the parser built, so the bound covers them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcas import inert, scanner
from texcas.backward import backward_string
from texcas.cli import (EXIT_PARSE, EXIT_TRANSLATION, CorpusRecord,
                        main, run_corpus)
from texcas.errors import (MalformedList, MapleSyntaxError, MapleTooDeep,
                           ScanError, ScanTooDeep, TexcasError)
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


# each wrap of t adds 6 or 5 tree levels but nests the parser about one level
_WRAP_6 = "x-x*1/sin({t})^x"
_WRAP_5 = "x-x/cos({t})"


def wrapped(n, form=_WRAP_6, core="x"):
    """``core`` wrapped n times in ``form``."""
    text = core
    for _ in range(n):
        text = form.format(t=text)
    return text


def tall_maple(h):
    """Maple inputs whose trees are h tall: wraps, then a core of the levels
    left, one for a sign and two for each call.  Past MAX_HEIGHT by far, they
    nest the parser past MAX_NESTING too."""
    texts = []
    for form, levels in ((_WRAP_6, 6), (_WRAP_5, 5)):
        n, r = divmod(h, levels)
        core = "-" * (r % 2) + "sin(" * (r // 2) + "x" + ")" * (r // 2)
        texts.append(wrapped(n, form, core))
    return texts


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
        # exactly one level over the limit
        with pytest.raises(MapleTooDeep, match=f"expected a tree at most {h} "
                           "levels tall"):
            parse_maple(taller)
        assert main(["inert", "--", taller]) == EXIT_PARSE


@pytest.mark.parametrize("n", DEPTHS)
def test_chains_of_products_and_divisions_are_one_flat_product(n, lex, capsys):
    for text in ("x" + "/x*x" * n, "x" + "*x/x" * n):
        tree = parse_maple(text)
        assert tree.tag == inert.PROD and inert._height(tree) == 2
        assert len(tree.children) == 2 * n + 1
        run_every_stage(text, lex)


def test_trees_that_only_nest_are_bounded_by_their_height(lex, capsys):
    # 43 wraps nest the parser about 44 levels, well within MAX_NESTING, and
    # are refused for the height alone: parse depth does not bound height
    assert inert._height(parse_maple(wrapped(42))) == 252
    run_every_stage(wrapped(42), lex)
    with pytest.raises(MapleTooDeep, match="levels tall") as refused:
        parse_maple(wrapped(43))
    assert refused.value.limit == inert.MAX_HEIGHT


# each way a text grows its tree: divisors nested by brackets or signs,
# signed exponents, calls, quotes and signs; and chains of products and
# divisions, which do not
_WRAPS = ["{a}/({t})", "{a}/-({t})", "{a}/-{t}", "{t}/-{a}", "{a}^-({t})",
          "{a}^-{t}", "({t})/{a}*x", "{t}/{a}*{a}", "{a}-{t}", "f({t},{a})",
          "sin({t})", "'{t}'", "-{t}", "+({t})", "1/({t})"]
_atoms = st.sampled_from(["x", "y", "2", "0.5", "Pi", "'z'"])


@settings(max_examples=300, deadline=None)
@given(_atoms, st.lists(st.tuples(st.sampled_from(_WRAPS), _atoms), max_size=40))
def test_a_tree_is_never_taller_than_its_text_has_tokens(text, wraps):
    # parse_maple looks at the height only of a text longer than MAX_HEIGHT
    # tokens; this bound is why a shorter one needs no look
    for wrap, atom in wraps:
        text = wrap.format(t=text, a=atom)
    try:
        tree = parse_maple(text)
    except TexcasError:
        return
    assert inert._height(tree) <= len(inert._TOKEN_RE.findall(text)), text


def test_only_a_text_of_more_than_max_height_tokens_is_measured(monkeypatch):
    measured = []
    real = inert._height
    monkeypatch.setattr(inert, "_height",
                        lambda tree: measured.append(tree) or real(tree))
    h = inert.MAX_HEIGHT
    # k names joined by "+" are 2k - 1 tokens; a leading sign is one more
    for text, tokens in (("-" + "+".join(["x"] * (h // 2)), h),
                         ("+".join(["x"] * (h // 2 + 1)), h + 1)):
        assert len(inert._TOKEN_RE.findall(text)) == tokens
        tree = parse_maple(text)
        assert measured == ([tree] if tokens > h else [])


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
