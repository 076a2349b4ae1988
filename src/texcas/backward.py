"""Inert-form -> semantic LaTeX translation via reverse lexicon patterns."""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import inert
from .errors import UnknownFunction, UnsupportedTag
from .forward import TranslationResult, unique_infos
from .inert import InertForm
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
    slot_to_pos = {slot: pos for pos, slot in enumerate(permutation)}
    parts = [entry.macro_name]
    for s in range(entry.num_params):
        parts.append("{$%d}" % slot_to_pos[s])
    if entry.num_vars:
        parts.append("@" * min(entry.at_variants))  # the fewest @ forward accepts
        for s in range(entry.num_params, entry.arity):
            parts.append("{$%d}" % slot_to_pos[s])
    return "".join(parts)


def build_reverse_rules(lex: Lexicon) -> Dict[Tuple[str, int], ReverseRule]:
    """Derive CAS-function -> macro rules by inverting simple call patterns.

    An entry whose Maple pattern is not a plain call with distinct
    placeholders (an argument composition like EllipticF's sine of the
    amplitude) takes its reverse template from the lexicon instead.
    """
    rules: Dict[Tuple[str, int], ReverseRule] = {}
    for table in (lex.entries, lex.builtins):
        for entry in table.values():
            template = entry.translations.get(MAPLE)
            if template is None or entry.role != "function":
                continue
            shape = call_shape(template)
            if shape is None:
                continue
            fname, args = shape
            if entry.reverse is not None:
                rules[(fname, len(args))] = ReverseRule(
                    entry.reverse, advisories=entry.advisories)
                continue
            if not all(re.fullmatch(r"\$\d+", a) for a in args):
                continue
            permutation = [int(a[1:]) for a in args]
            if sorted(permutation) != list(range(entry.arity)):
                continue
            rules[(fname, entry.arity)] = ReverseRule(
                _macro_template(entry, permutation), advisories=entry.advisories)
    return rules


def _name_map(lex: Lexicon) -> Dict[str, str]:
    """Maple name -> semantic macro; constants shadow Greek letters (gamma)."""
    names: Dict[str, str] = {}
    for cmd, renderings in lex.greek.items():
        names[renderings[MAPLE]] = cmd
    for record in lex.constants:
        maple = record.translations.get(MAPLE)
        if maple and re.fullmatch(r"[A-Za-z_]\w*", maple):
            names[maple] = record.semantic_macro
    return names


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
        if tag == inert.NAME:
            return self.name_map.get(t.payload, t.payload)
        if tag == inert.INTPOS:
            return str(t.payload)
        if tag == inert.INTNEG:
            return f"-{t.payload}"
        if tag == inert.FLOAT:
            return inert.float_text(t.payload)
        if tag == inert.RATIONAL:
            p, q = t.children
            sign = "-" if p.tag == inert.INTNEG else ""
            return sign + "\\frac{%d}{%d}" % (p.payload, q.payload)
        if tag == inert.SUM:
            return self.render_sum(t)
        if tag == inert.PROD:
            return self.render_prod(t)
        if tag == inert.DIVIDE:
            num, den = t.children
            return "\\frac{%s}{%s}" % (self.render(num), self.render(den))
        if tag == inert.POWER:
            return self.render_power(t)
        if tag == inert.FUNCTION:
            return self.render_function(t)
        if tag == inert.EQUATION:
            lhs, rhs = t.children
            return f"{self.render_operand(lhs)} = {self.render_operand(rhs)}"
        raise UnsupportedTag(tag)

    def render_operand(self, t: InertForm) -> str:
        """A nested equation keeps its parentheses: the first scan is flat,
        so forward translation would otherwise bind ``=`` loosest."""
        text = self.render(t)
        return f"\\left({text}\\right)" if t.tag == inert.EQUATION else text

    def render_sum(self, t: InertForm) -> str:
        parts = []
        for k, c in enumerate(t.children):
            piece = self.render_operand(c)
            if c.tag == inert.SUM:
                piece = f"({piece})"
            if k > 0 and not piece.startswith("-"):
                parts.append("+")
            parts.append(piece)
        return "".join(parts)

    def render_prod(self, t: InertForm) -> str:
        children = t.children
        sign = ""
        parts: List[str] = []
        if children and children[0].tag == inert.INTNEG:
            sign = "-"
            if children[0].payload != 1:
                parts.append(str(children[0].payload))
            children = children[1:]
        for c in children:
            piece = self.render_operand(c)
            if c.tag == inert.SUM or piece.startswith("-"):
                piece = f"({piece})"
            parts.append(piece)
        if not parts:
            return sign + "1"
        out = parts[0]
        for piece in parts[1:]:
            # a space keeps a following letter from extending the macro name
            sep = " " if piece[:1].isalpha() else ""
            out += "\\idt" + sep + piece
        return sign + out

    def render_power(self, t: InertForm) -> str:
        base, expo = t.children
        base_text = self.render(base)
        if base.tag in (inert.SUM, inert.PROD):
            base_text = f"({base_text})"
        elif base.tag in (inert.DIVIDE, inert.RATIONAL, inert.POWER,
                          inert.EQUATION):
            base_text = f"\\left({base_text}\\right)"
        elif base.tag in (inert.INTNEG, inert.FLOAT) and base_text.startswith("-"):
            base_text = f"({base_text})"
        return "%s^{%s}" % (base_text, self.render(expo))

    def render_function(self, t: InertForm) -> str:
        fname = t.children[0].payload
        args = t.children[1].children
        rule = self.rules.get((fname, len(args)))
        if rule is None:
            raise UnknownFunction(fname)
        self.infos.extend((adv.kind, adv.text) for adv in rule.advisories)
        rendered = [self.render(a) for a in args]
        return fill(rule.latex_template, rendered)


def translate_backward(tree: InertForm, lex: Lexicon) -> TranslationResult:
    """Render a preprocessed inert tree as semantic LaTeX."""
    ctx = _Backward(lex)
    output = ctx.render(tree)
    return TranslationResult(output=output, infos=unique_infos(ctx.infos))


def backward_string(text: str, lex: Lexicon, use_divide: bool = True) -> TranslationResult:
    """Parse Maple 1D input, preprocess, and translate to semantic LaTeX."""
    tree = inert.preprocess(inert.parse_maple(text), use_divide=use_divide)
    return translate_backward(tree, lex)
