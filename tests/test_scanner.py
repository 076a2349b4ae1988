"""First-scan tokenizer tests: term classification, grouping, lexical fidelity."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcas.errors import (EmptyInput, ScanError, UnbalancedDelimiters,
                           UnsupportedSymbol)
from texcas.scanner import (DelimiterClass, MathTerm, PomTree, TermKind,
                            normalize_whitespace, scan, serialize)


def leaves(tree):
    if tree.is_leaf:
        return [tree]
    return [t for c in tree.children for t in leaves(c)]


def nodes(tree):
    """Every node of the tree, the root first."""
    yield tree
    if not tree.is_leaf:
        for child in tree.children:
            yield from nodes(child)


class TestClassification:
    def test_fraction_scans_to_macro_and_two_curly_groups(self):
        tree = scan(r"\frac{1}{2}")
        assert not tree.is_leaf and tree.delimiter_class is None
        assert len(tree.children) == 3
        macro, num, den = tree.children
        assert macro.lexeme == "\\frac"
        assert macro.kind is TermKind.MACRO_COMMAND
        assert num.delimiter_class is DelimiterClass.CURLY
        assert den.delimiter_class is DelimiterClass.CURLY
        assert num.children[0].lexeme == "1"
        assert den.children[0].lexeme == "2"

    def test_single_letter(self):
        tree = scan("x")
        assert len(tree.children) == 1
        assert tree.children[0].kind is TermKind.LATIN_LETTER

    def test_radical_plus_fraction_structure(self):
        # root sequence: \sqrt, optional [3], {x ^ 3}, +, \frac, {y}, {2}
        tree = scan(r"\sqrt[3]{x^3} + \frac{y}{2}")
        kids = tree.children
        assert kids[0].lexeme == "\\sqrt"
        assert kids[1].delimiter_class is DelimiterClass.BRACKET_OPTIONAL
        assert kids[2].delimiter_class is DelimiterClass.CURLY
        inner = [c.lexeme for c in kids[2].children]
        assert inner == ["x", "^", "3"]
        assert kids[3].lexeme == "+"
        assert kids[4].lexeme == "\\frac"
        assert kids[5].delimiter_class is DelimiterClass.CURLY
        assert kids[6].delimiter_class is DelimiterClass.CURLY

    def test_caret_scans_flat_not_binary(self):
        tree = scan("x^3")
        assert [c.kind for c in tree.children] == [
            TermKind.LATIN_LETTER, TermKind.CARET, TermKind.DIGIT_SEQUENCE]
        # caret and underscore terms never own children
        for term in leaves(tree):
            if term.kind in (TermKind.CARET, TermKind.UNDERSCORE):
                assert True  # leaves by construction; nothing to own

    def test_greek_command_kind(self):
        tree = scan(r"\Theta\alpha")
        kinds = [c.kind for c in tree.children]
        assert kinds == [TermKind.GREEK_LETTER_COMMAND] * 2

    def test_at_marker_runs_fuse(self):
        for marker, count in (("@", 1), ("@@", 2), ("@@@", 3)):
            tree = scan(rf"\sin{marker}{{z}}")
            at = tree.children[1]
            assert at.kind is TermKind.AT_MARKER
            assert len(at.lexeme) == count

    def test_digit_sequence_is_maximal_run(self):
        tree = scan("123x")
        assert [c.lexeme for c in tree.children] == ["123", "x"]

    def test_decimal_scans_as_three_terms(self):
        tree = scan("3.5")
        assert [c.lexeme for c in tree.children] == ["3", ".", "5"]

    def test_comment_skipped(self):
        assert serialize(scan("x % trailing note\n+y")) == "x+y"

    def test_known_macro_gets_tentative_features(self, lex):
        tree = scan(r"\sin@{z}", lex)
        entry = tree.children[0].entry
        assert entry is not None and entry.role == "function"

    def test_unknown_macro_still_tokenizes(self, lex):
        tree = scan(r"\nosuchmacro", lex)
        term = tree.children[0]
        assert term.kind is TermKind.MACRO_COMMAND
        assert term.entry is None


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            scan("")

    def test_whitespace_only(self):
        with pytest.raises(EmptyInput):
            scan("   ")

    def test_unclosed_brace(self):
        with pytest.raises(UnbalancedDelimiters):
            scan("{x")

    def test_stray_close(self):
        with pytest.raises(UnbalancedDelimiters):
            scan("x}")

    def test_mismatched_pair(self):
        with pytest.raises(UnbalancedDelimiters):
            scan("{x]")

    def test_left_right_mismatch(self):
        with pytest.raises(UnbalancedDelimiters):
            scan(r"\left( x \right]")

    def test_error_records_position(self):
        with pytest.raises(UnbalancedDelimiters) as exc:
            scan("ab}")
        assert exc.value.position == 2

    @pytest.mark.parametrize("text, symbol", [
        (r"a\,b", r"\,"), (r"a\;b", r"\;"), (r"a\!b", r"\!"), (r"a\:b", r"\:"),
        ("a#b", "#"), ("a\\", "\\")])
    def test_control_symbol_is_unsupported(self, text, symbol):
        with pytest.raises(UnsupportedSymbol) as exc:
            scan(text)
        assert (exc.value.position, exc.value.symbol) == (1, symbol)
        assert isinstance(exc.value, ScanError)


# --- property suite ----------------------------------------------------------

_atoms = st.sampled_from([
    "x", "y", "z", "a", "2", "34", r"\alpha", r"\Theta", r"\sin", r"\frac",
    "+", "-", "=", "^", "_", "@", "@@", ".",
])


def _wrap(children):
    return st.builds(lambda kids, pair: pair[0] + "".join(kids) + pair[1],
                     st.lists(children, min_size=0, max_size=4),
                     st.sampled_from([("{", "}"), ("[", "]"), ("(", ")")]))


_fragments = st.recursive(_atoms, _wrap, max_leaves=20)
_inputs = st.builds(
    lambda parts, sep: sep.join(parts),
    st.lists(_fragments, min_size=1, max_size=6),
    st.sampled_from(["", " ", "  "]),
)


class TestProperties:
    @given(_inputs)
    @settings(max_examples=300, deadline=None)
    def test_lexical_fidelity(self, text):
        """serialize(scan(s)) reproduces s up to insignificant whitespace."""
        normalized = normalize_whitespace(text)
        if not normalized:
            return
        assert serialize(scan(text)) == normalized

    @given(_inputs)
    @settings(max_examples=100, deadline=None)
    def test_determinism(self, text):
        if not normalize_whitespace(text):
            return
        assert scan(text) == scan(text)

    @given(_inputs)
    @settings(max_examples=100, deadline=None)
    def test_every_lexeme_nonempty_and_macros_backslashed(self, text):
        if not normalize_whitespace(text):
            return
        for term in leaves(scan(text)):
            assert term.lexeme
            if term.kind is TermKind.MACRO_COMMAND:
                assert term.lexeme.startswith("\\")
            if term.kind is TermKind.AT_MARKER:
                assert 1 <= len(term.lexeme) <= 3

    @given(_inputs)
    @settings(max_examples=100, deadline=None)
    def test_one_node_per_token(self, lex, text):
        """Each term token is one MathTerm leaf, carrying its macro's entry
        or None, and each delimited group one PomTree, which holds no term."""
        if not normalize_whitespace(text):
            return
        found = list(nodes(scan(text, lex)))
        terms = re.findall(r"\\[a-zA-Z]+|@{1,3}|[0-9]+|[^\s{}\[\]()]", text)
        groups = sum(map(text.count, "{[("))
        assert len(found) == 1 + groups + len(terms)
        for node in found:
            assert not hasattr(node, "term")
            if node.is_leaf:
                assert type(node) is MathTerm
                assert node.entry is (lex.lookup(node.lexeme)
                                      if node.lexeme.startswith("\\") else None)
            else:
                assert type(node) is PomTree


@pytest.mark.parametrize("text", [
    "x\x0b+y", "x\x0c+y", "x\u3000+y", "x\u00a0% c\u00a0\n\u00a0+y",
    "\u00a0%\u00a0\n\u00a0x", "x%\u00a0c", "\\sin\u2003@@{z}\u2028",
])
def test_normalize_whitespace_drops_what_the_scan_skips(text):
    assert serialize(scan(text)) == normalize_whitespace(text)
