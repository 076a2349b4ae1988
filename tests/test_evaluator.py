"""Column evaluation: ``evaluate`` and the column walk against a reference
tree walk.

``reference_walk`` evaluates one point at a time, one operation per node.
The evaluator's walk does a whole column of points at once, and each point
must get bit-identical values and raise the same exceptions, at the same
node, as the reference: ``evaluate`` at one point, and ``_columns`` at a
column, which raises what its first point to fail raises alone.
"""

import cmath
import random
import struct
from fractions import Fraction

import pytest

from texcas import inert
from texcas.errors import NoEvaluator, UnknownSymbol
from texcas.evaluator import _FUNCTIONS, CONSTANTS, _columns, evaluate, free_names
from texcas.inert import InertForm, parse_maple

from treegen import name, random_evaluable, random_tree


def _call(fname, args):
    """The reference dispatch: the function table's entry, else NoEvaluator."""
    fn = _FUNCTIONS.get((fname, len(args)))
    if fn is None:
        raise NoEvaluator(fname)
    return fn(*args)


def reference_walk(tree, env):
    tag = tree.tag
    if tag == inert.NAME:
        if tree.payload in env:
            return complex(env[tree.payload])
        if tree.payload in CONSTANTS:
            return CONSTANTS[tree.payload]
        raise UnknownSymbol(tree.payload)
    if tag == inert.INTPOS:
        return complex(tree.payload)
    if tag == inert.INTNEG:
        return complex(-tree.payload)
    if tag == inert.FLOAT:
        return complex(tree.payload)
    if tag == inert.RATIONAL:
        p, q = tree.children
        return complex(Fraction(inert.int_value(p), q.payload))
    if tag == inert.SUM:
        return sum((reference_walk(c, env) for c in tree.children), 0j)
    if tag == inert.PROD:
        out = 1 + 0j
        for c in tree.children:
            out *= reference_walk(c, env)
        return out
    if tag == inert.DIVIDE:
        return reference_walk(tree.children[0], env) / \
            reference_walk(tree.children[1], env)
    if tag == inert.POWER:
        base = reference_walk(tree.children[0], env)
        expo = reference_walk(tree.children[1], env)
        if base == 0 and expo.real > 0 and abs(expo.imag) < 1e-300:
            return 0j
        return base ** expo
    if tag == inert.FUNCTION:
        fname = tree.children[0].payload
        args = [reference_walk(c, env) for c in tree.children[1].children]
        return _call(fname, args)
    raise NoEvaluator(tag)


def outcome(fn, *args):
    """The value's exact bits (signed zeros, NaNs), or the exception raised;
    for a column of values, the list of their bits."""
    try:
        value = fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc).__name__, str(exc)
    if not isinstance(value, complex):
        return [struct.pack("<dd", z.real, z.imag) for z in value]
    return struct.pack("<dd", value.real, value.imag)


def column(env, n=3):
    """The env as columns of n equal points."""
    return {k: (complex(v),) * n for k, v in env.items()}


ENVS = [{"x": 0.8 + 0.5j, "y": -0.7 + 0.9j},
        {"x": -1.1 - 0.4j, "y": 0.3 - 1.2j},
        {"x": 0j, "y": -0.0 + 0j},
        {"x": 1e200 + 1e200j, "y": -1e-200j},
        {"x": 2, "y": 1}]


@pytest.mark.parametrize("builder", [random_evaluable, random_tree])
def test_one_compiled_tree_matches_the_walk_at_every_point(builder):
    columns = {k: tuple(complex(env[k]) for env in ENVS) for k in ENVS[0]}
    rng = random.Random(7)
    for _ in range(400):
        tree = builder(rng)
        walked = [outcome(reference_walk, tree, env) for env in ENVS]
        assert [outcome(evaluate, tree, env) for env in ENVS] == walked, tree
        columned = outcome(_columns, tree, columns, len(ENVS))
        if all(isinstance(w, bytes) for w in walked):
            assert columned == walked, tree
        else:
            assert columned in walked, tree


def assert_raises(exc, tree, env):
    """tree raises exc at env, evaluated alone and as a column of 3 points."""
    with pytest.raises(exc):
        evaluate(tree, env)
    with pytest.raises(exc):
        _columns(tree, column(env), 3)


def test_unknown_function_raises_only_when_called():
    assert_raises(NoEvaluator, parse_maple("BesselK(1, x) + x"), {"x": 1})


def test_unknown_name_raises_only_when_called():
    tree = parse_maple("sin(w)")
    assert_raises(UnknownSymbol, tree, {"x": 1})
    assert evaluate(tree, {"w": 0.5}) == cmath.sin(0.5)
    assert _columns(tree, column({"w": 0.5}), 3) == [cmath.sin(0.5)] * 3


def test_error_in_an_earlier_argument_wins_over_an_unknown_function():
    tree = parse_maple("BesselK(1/x, x)")
    assert_raises(ZeroDivisionError, tree, {"x": 0})
    assert_raises(NoEvaluator, tree, {"x": 1})
    # one point dividing by zero is enough, wherever it sits in the column
    with pytest.raises(ZeroDivisionError):
        _columns(tree, {"x": (1 + 0j, 0j, 2 + 0j)}, 3)


@pytest.mark.parametrize("text", ["sin()", "BesselK()"])
def test_a_call_without_arguments_raises_only_when_called(text):
    assert_raises(NoEvaluator, parse_maple(text), {})


def test_unsupported_tag_raises_only_when_called():
    assert_raises(NoEvaluator, parse_maple("x = 1"), {"x": 1})


def test_env_shadows_a_constant():
    tree = name("Pi")
    assert evaluate(tree, {"Pi": 2}) == 2 + 0j
    assert evaluate(tree, {}) == CONSTANTS["Pi"]
    assert list(_columns(tree, column({"Pi": 2}), 3)) == [2 + 0j] * 3
    assert _columns(tree, {}, 3) == [CONSTANTS["Pi"]] * 3


def test_literal_too_large_for_a_double_raises_at_each_call():
    tree = InertForm(inert.SUM, children=[
        InertForm(inert.INTPOS, 10 ** 400), name("x")])
    for _ in range(2):
        assert_raises(OverflowError, tree, {"x": 1})


def test_zero_to_a_positive_power_is_zero():
    tree = parse_maple("x^y")
    assert evaluate(tree, {"x": 0, "y": 2.5}) == 0j
    assert _columns(tree, {"x": (0j,) * 3, "y": (2.5 + 0j, 1 + 0j, 0.5 + 0j)},
                    3) == [0j] * 3
    assert_raises(ZeroDivisionError, tree, {"x": 0, "y": -1})


# --- free names and the constant rule ---------------------------------------------

CONSTANT_NAMES = list(CONSTANTS)


def with_constants(rng, tree):
    """The tree beside a constant, and the tree with a constant argument."""
    constant = name(rng.choice(CONSTANT_NAMES))
    return [InertForm(rng.choice([inert.SUM, inert.PROD]),
                      children=[tree, constant]),
            InertForm(inert.FUNCTION, children=[
                name("sin"), InertForm(inert.EXPSEQ, children=[
                    InertForm(inert.POWER, children=[constant, tree])])])]


def trees_with_constants(builder, seed, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        tree = builder(rng)
        yield tree
        yield from with_constants(rng, tree)
    yield InertForm(inert.SUM, children=[name(c) for c in CONSTANT_NAMES])


def unknown_symbol(fn, *args):
    """The name an UnknownSymbol raised by fn(*args) names, else None."""
    try:
        fn(*args)
    except UnknownSymbol as exc:
        return exc.name
    except Exception:  # any other failure is not a name lookup
        return None
    return None


@pytest.mark.parametrize("builder", [random_evaluable, random_tree])
def test_every_name_free_names_leaves_out_has_a_value(builder):
    for tree in trees_with_constants(builder, 11):
        names = free_names(tree)
        env = {n: 0.5 + 0.25j for n in names}
        columns = {n: (0.5 + 0.25j, -1.5j, 2 + 0j) for n in names}
        assert unknown_symbol(evaluate, tree, env) is None, tree
        assert unknown_symbol(_columns, tree, columns, 3) is None, tree


@pytest.mark.parametrize("builder", [random_evaluable, random_tree])
def test_an_unknown_symbol_is_a_free_name(builder):
    for tree in trees_with_constants(builder, 13):
        names = free_names(tree)
        for raised in (unknown_symbol(evaluate, tree, {}),
                       unknown_symbol(_columns, tree, {}, 2)):
            assert raised is None or raised in names, tree


def names_under_unsupported_nodes():
    """Trees whose names sit under nodes the evaluator does not run (an
    equation, a range, a string with children, a bare argument list), each
    with its free names."""
    x, y = name("x"), name("y")
    return [(InertForm(inert.EQUATION, children=[x, name("Pi")]), {"x"}),
            (InertForm(inert.RANGE, children=[name("alpha"), InertForm(
                inert.SUM, children=[y, name("infinity")])]), {"alpha", "y"}),
            (InertForm(inert.STRING, "s", [name("z")]), {"z"}),
            (InertForm(inert.EXPSEQ, children=[x, y]), {"x", "y"}),
            (InertForm(inert.PROD, children=[x, InertForm(inert.FUNCTION, children=[
                name("f"), InertForm(inert.EXPSEQ, children=[
                    InertForm(inert.EQUATION, children=[y, name("beta")])])])]),
             {"x", "y", "beta"})]


@pytest.mark.parametrize("tree, names", names_under_unsupported_nodes())
def test_names_under_a_node_never_run_are_free_names(tree, names):
    assert free_names(tree) == names


def test_constants_are_not_free_names():
    tree = InertForm(inert.SUM, children=[name(c) for c in CONSTANT_NAMES])
    assert free_names(tree) == set()
    assert cmath.isinf(evaluate(tree, {}))
    assert free_names(InertForm(inert.PROD, children=[tree, name("x")])) == {"x"}


@pytest.mark.parametrize("tag, value", [(inert.SUM, 0j), (inert.PROD, 1 + 0j)])
def test_a_sum_or_product_without_operands(tag, value):
    empty = InertForm(tag)
    bits = struct.pack("<dd", value.real, value.imag)
    assert outcome(evaluate, empty, {}) == bits
    assert outcome(_columns, empty, {}, 3) == [bits] * 3
