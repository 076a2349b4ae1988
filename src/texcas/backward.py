"""Inert-form -> semantic LaTeX translation via reverse lexicon patterns."""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import inert
from .errors import UnknownFunction, UnsupportedTag
from .forward import TranslationResult, unique_infos
from .inert import (DIVIDE, EQUATION, FLOAT, FUNCTION, INTNEG, INTPOS, NAME,
                    POWER, PROD, RATIONAL, SUM, InertForm, bracketed,
                    join_terms, split_sign)
from .lexicon import MAPLE, Lexicon, LexiconEntry, Record, call_shape, fill


class ReverseRule(Record):
    __slots__ = ("latex_template", "advisories")

    def __init__(self, latex_template: str, advisories: Optional[list] = None):
        self.latex_template = latex_template
        self.advisories = [] if advisories is None else advisories


def _macro_template(entry: LexiconEntry, permutation: List[int]) -> str:
    """Build the semantic-LaTeX template for a macro given the maple arg order.

    ``permutation[j]`` is the macro slot filled by maple argument j; the
    template's ``$i`` placeholders are maple argument positions.
    """
    slots = ["{$%d}" % permutation.index(s) for s in range(entry.arity)]
    ats = "@" * min(entry.at_variants) if entry.num_vars else ""  # the fewest @ forward takes
    k = entry.num_params
    return entry.macro_name + "".join(slots[:k]) + ats + "".join(slots[k:])


def build_reverse_rules(lex: Lexicon) -> Dict[Tuple[str, int], ReverseRule]:
    """Derive CAS-function -> macro rules by inverting simple call patterns.

    An entry whose Maple pattern is not a plain call with distinct
    placeholders (an argument composition like EllipticF's sine of the
    amplitude) takes its reverse template from the lexicon instead.
    """
    rules: Dict[Tuple[str, int], ReverseRule] = {}
    for table in (lex.entries, lex.builtins):
        for entry in table.values():
            maple = entry.translations.get(MAPLE)
            if maple is None or entry.role != "function":
                continue
            shape = call_shape(maple)
            if shape is None:
                continue
            fname, args = shape
            template = entry.reverse
            if template is None:
                # a plain call's arguments are the macro's slots in some order
                permutation = [int(a[1:]) if re.fullmatch(r"\$\d+", a) else -1 for a in args]
                if sorted(permutation) != list(range(entry.arity)):
                    continue
                template = _macro_template(entry, permutation)
            rules[(fname, len(args))] = ReverseRule(template, advisories=entry.advisories)
    return rules


def _name_map(lex: Lexicon) -> Dict[str, str]:
    """Maple name -> semantic macro; constants shadow Greek letters (gamma)."""
    names = {renderings[MAPLE]: cmd for cmd, renderings in lex.greek.items()}
    for record in lex.constants:
        maple = record.translations.get(MAPLE)
        if maple and re.fullmatch(r"[A-Za-z_]\w*", maple):
            names[maple] = record.semantic_macro
    return names


# the operands that take \left( \right) where their precedence needs brackets
_TALL = frozenset((DIVIDE, RATIONAL, POWER, EQUATION))


class _Backward:
    def __init__(self, lex: Lexicon):
        # the lexicon is immutable, so its reverse tables are built once
        if lex.reverse_tables is None:
            lex.reverse_tables = (build_reverse_rules(lex), _name_map(lex))
        self.rules, self.name_map = lex.reverse_tables
        self.infos: List[Tuple[str, str]] = []  # (kind, text), repeats kept

    # --- node renderers ----------------------------------------------------

    def render(self, t: InertForm) -> str:
        tag = t.tag
        if tag == NAME:
            return self.name_map.get(t.payload, t.payload)
        if tag == INTPOS:
            return str(t.payload)
        if tag == PROD:
            sign, children = split_sign(t.children)
            pieces = [self.operand(c, PROD, i > 0)
                      for i, c in enumerate(children)] or ["1"]
            # a space keeps a following letter from extending the macro name
            return sign + pieces[0] + "".join(
                ["\\idt " + p if p[:1].isalpha() else "\\idt" + p for p in pieces[1:]])
        if tag == POWER:
            base, expo = t.children
            return "%s^{%s}" % (self.operand(base, POWER), self.render(expo))
        if tag == SUM:
            return join_terms([self.operand(c, SUM, i > 0)
                               for i, c in enumerate(t.children)])
        if tag == FUNCTION:
            fname = t.children[0].payload
            args = t.children[1].children
            rule = self.rules.get((fname, len(args)))
            if rule is None:
                raise UnknownFunction(fname)
            if rule.advisories:
                self.infos.extend([(adv.kind, adv.text) for adv in rule.advisories])
            return fill(rule.latex_template, [self.render(a) for a in args])
        if tag == INTNEG or tag == FLOAT:
            return inert._text(t)  # as the Maple renderer writes it
        if tag == RATIONAL:
            p, q = t.children
            sign = "-" if p.tag == INTNEG else ""
            return sign + "\\frac{%d}{%d}" % (p.payload, q.payload)
        if tag == DIVIDE:
            num, den = t.children
            return "\\frac{%s}{%s}" % (self.render(num), self.render(den))
        if tag == EQUATION:
            lhs, rhs = t.children
            return f"{self.operand(lhs, EQUATION)} = {self.operand(rhs, EQUATION)}"
        raise UnsupportedTag(tag)

    def operand(self, t: InertForm, parent: str, later: bool = False) -> str:
        """``t`` as an operand of a node tagged ``parent``, bracketed by ``bracketed``."""
        text = self.render(t)
        if not bracketed(t.tag, parent, text[:1] == "-", later):
            return text
        if t.tag in _TALL and bracketed(t.tag, parent, False, later):
            return f"\\left({text}\\right)"
        return f"({text})"


def translate_backward(tree: InertForm, lex: Lexicon) -> TranslationResult:
    """Render a preprocessed inert tree as semantic LaTeX."""
    ctx = _Backward(lex)
    output = ctx.render(tree)
    return TranslationResult(output=output, infos=unique_infos(ctx.infos))


def backward_string(text: str, lex: Lexicon, use_divide: bool = True) -> TranslationResult:
    """Parse Maple 1D input, preprocess, and translate to semantic LaTeX."""
    tree = inert.preprocess(inert.parse_maple(text), use_divide=use_divide)
    return translate_backward(tree, lex)
