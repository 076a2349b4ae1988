"""``fill`` against a reference copy of the one-``re.sub`` version.

``reference_fill`` is ``fill`` as it stood before templates were split at
their placeholders once and cached.  The two must give the same text, or
raise the same exception type, for any template and arguments: placeholders
``$0``-``$12`` and beyond the arguments, a ``$`` with no digit, backslashes,
and arguments that look like placeholders or ``re.sub`` escapes.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from texcas.backward import build_reverse_rules
from texcas.lexicon import fill, load_default

LEX = load_default()

PLACEHOLDER_RE = re.compile(r"\$(\d+)")


def reference_fill(template, args):
    """The template with each placeholder ``$i`` replaced by ``args[i]``."""
    return PLACEHOLDER_RE.sub(lambda m: args[int(m.group(1))], template)


def _outcome(fn, template, args):
    try:
        return fn(template, args)
    except IndexError:  # a placeholder beyond the arguments
        return IndexError


_N_ARGS = 13
_templates = st.lists(st.one_of(
    st.sampled_from([f"${i}" for i in range(_N_ARGS + 1)]
                    + ["$", "$$", "$x", "\\", "\\\\", "\\1", "\\g<0>", "(", ", "]),
    st.text(max_size=3)), max_size=12).map("".join)
_args = st.lists(st.one_of(
    st.sampled_from(["", "x", "$1", "$0", "\\g<0>", "\\\\", "\\1", "\\"]),
    st.text(max_size=4)), min_size=_N_ARGS, max_size=_N_ARGS)


@settings(max_examples=300, deadline=None)
@given(_templates, _args)
def test_fill_matches_the_reference(template, args):
    assert _outcome(fill, template, args) == _outcome(reference_fill, template, args)


def _lexicon_templates():
    names = {*LEX.entries, *LEX.builtins, *LEX.greek,
             *(c.semantic_macro for c in LEX.constants)}
    forward = [t for name in sorted(names)
               for t in LEX.lookup(name).translations.values()]
    reverse = [rule.latex_template for rule in build_reverse_rules(LEX).values()]
    return forward, reverse


def test_fill_matches_the_reference_on_every_lexicon_template():
    args = [f"<arg {i} $1 \\g<0>>" for i in range(_N_ARGS)]
    forward, reverse = _lexicon_templates()
    assert forward and reverse
    for template in forward + reverse:
        assert fill(template, args) == reference_fill(template, args), template
