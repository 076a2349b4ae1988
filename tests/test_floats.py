"""Float literals survive both renderers: positional decimal text, never ``1e-05``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from texcas.backward import backward_string
from texcas.evaluator import evaluate
from texcas.forward import translate_string
from texcas.inert import FLOAT, NAME, PROD, InertForm, parse_maple, render_maple

floats = st.builds(lambda magnitude, negative: -magnitude if negative else magnitude,
                   st.floats(min_value=1e-12, max_value=1e18), st.booleans())


@given(floats)
@settings(max_examples=300, deadline=None)
def test_maple_render_reparses_to_the_same_float(x):
    tree = InertForm(FLOAT, x)
    assert parse_maple(render_maple(tree)) == tree


@given(floats)
@settings(max_examples=200, deadline=None)
def test_backward_then_forward_keeps_the_value(lex, x):
    for tree in (InertForm(FLOAT, x),
                 InertForm(PROD, children=[InertForm(FLOAT, x), InertForm(NAME, "y")])):
        latex = backward_string(render_maple(tree), lex).output
        maple = translate_string(latex, lex, "maple").output
        assert evaluate(parse_maple(maple), {"y": 1}) == x, (latex, maple)
