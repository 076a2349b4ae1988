"""Inert-form -> semantic LaTeX translation via reverse lexicon patterns."""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import inert
from .errors import UnknownFunction, UnsupportedTag
from .forward import TranslationResult, unique_infos
from .inert import (DIVIDE, EQUATION, FLOAT, FUNCTION, INTNEG, INTPOS, NAME,
                    POWER, PROD, RATIONAL, SUM, InertForm, float_text,
                    join_terms)
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


# The brackets of an operand, by the tag of the node whose slot it fills (a
# sum's term, a product's factor, a power's base, an equation's side): the
# operand tags that take ( ), those that take \left( \right), and whether
# a signed operand takes ( ).  A nested equation takes \left( \right) in
# every slot: the first scan is flat, so forward translation would
# otherwise bind ``=`` loosest.
_BRACKETS = {
    SUM: ({SUM}, {EQUATION}, False),
    PROD: ({SUM}, {EQUATION}, True),
    POWER: ({SUM, PROD}, {DIVIDE, RATIONAL, POWER, EQUATION}, True),
    EQUATION: (set(), {EQUATION}, False),
}


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
            children = t.children
            sign = ""
            if children and children[0].tag == INTNEG:
                sign, children = "-", inert._negated_lead(children)
            if not children:
                return sign + "1"
            out = self.operand(children[0], PROD)
            for c in children[1:]:
                piece = self.operand(c, PROD)
                # a space keeps a following letter from extending the macro name
                sep = " " if piece[:1].isalpha() else ""
                out += "\\idt" + sep + piece
            return sign + out
        if tag == POWER:
            base, expo = t.children
            return "%s^{%s}" % (self.operand(base, POWER), self.render(expo))
        if tag == SUM:
            return join_terms([self.operand(c, SUM) for c in t.children])
        if tag == FUNCTION:
            fname = t.children[0].payload
            args = t.children[1].children
            rule = self.rules.get((fname, len(args)))
            if rule is None:
                raise UnknownFunction(fname)
            if rule.advisories:
                self.infos.extend([(adv.kind, adv.text) for adv in rule.advisories])
            return fill(rule.latex_template, [self.render(a) for a in args])
        if tag == INTNEG:
            return f"-{t.payload}"
        if tag == RATIONAL:
            p, q = t.children
            sign = "-" if p.tag == INTNEG else ""
            return sign + "\\frac{%d}{%d}" % (p.payload, q.payload)
        if tag == DIVIDE:
            num, den = t.children
            return "\\frac{%s}{%s}" % (self.render(num), self.render(den))
        if tag == FLOAT:
            return float_text(t.payload)
        if tag == EQUATION:
            lhs, rhs = t.children
            return f"{self.operand(lhs, EQUATION)} = {self.operand(rhs, EQUATION)}"
        raise UnsupportedTag(tag)

    def operand(self, t: InertForm, slot: str) -> str:
        """``t`` rendered in the slot of a node tagged ``slot``, bracketed
        as ``_BRACKETS`` says."""
        text = self.render(t)
        plain, left_right, signed = _BRACKETS[slot]
        tag = t.tag
        if tag in left_right:
            return f"\\left({text}\\right)"
        if tag in plain or signed and text.startswith("-"):
            return f"({text})"
        return text


def translate_backward(tree: InertForm, lex: Lexicon) -> TranslationResult:
    """Render a preprocessed inert tree as semantic LaTeX."""
    ctx = _Backward(lex)
    output = ctx.render(tree)
    return TranslationResult(output=output, infos=unique_infos(ctx.infos))


def backward_string(text: str, lex: Lexicon, use_divide: bool = True) -> TranslationResult:
    """Parse Maple 1D input, preprocess, and translate to semantic LaTeX."""
    tree = inert.preprocess(inert.parse_maple(text), use_divide=use_divide)
    return translate_backward(tree, lex)
