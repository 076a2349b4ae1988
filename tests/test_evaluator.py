"""Compiled evaluation: ``compile_tree`` against a reference tree walk.

``reference_walk`` is the recursive evaluator that ``compile_tree`` replaced,
kept here as the reference: a compiled tree must give bit-identical values
and raise the same exceptions, at the same time, for every point.
"""

import cmath
import random
import struct
from fractions import Fraction

import pytest

from texcas import inert
from texcas.errors import NoEvaluator, UnknownSymbol
from texcas.evaluator import (_FUNCTIONS, CONSTANTS, compile_tree, evaluate,
                               free_names)
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
        if tree.payload == "infinity":
            return complex("inf")
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


def outcome(fn, env):
    """The value's exact bits (signed zeros, NaNs), or the exception raised."""
    try:
        value = fn(env)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc).__name__, str(exc)
    return struct.pack("<dd", value.real, value.imag)


ENVS = [{"x": 0.8 + 0.5j, "y": -0.7 + 0.9j},
        {"x": -1.1 - 0.4j, "y": 0.3 - 1.2j},
        {"x": 0j, "y": -0.0 + 0j},
        {"x": 1e200 + 1e200j, "y": -1e-200j},
        {"x": 2, "y": 1}]


@pytest.mark.parametrize("builder", [random_evaluable, random_tree])
def test_one_compiled_tree_matches_the_walk_at_every_point(builder):
    rng = random.Random(7)
    for _ in range(400):
        tree = builder(rng)
        compiled = compile_tree(tree)
        for env in ENVS:
            walked = outcome(lambda e: reference_walk(tree, e), env)
            assert outcome(compiled, env) == walked, (tree, env)
            assert outcome(lambda e: evaluate(tree, e), env) == walked


def test_unknown_function_raises_only_when_called():
    compiled = compile_tree(parse_maple("BesselK(1, x) + x"))
    with pytest.raises(NoEvaluator):
        compiled({"x": 1})


def test_unknown_name_raises_only_when_called():
    compiled = compile_tree(parse_maple("sin(w)"))
    with pytest.raises(UnknownSymbol):
        compiled({"x": 1})
    assert compiled({"w": 0.5}) == cmath.sin(0.5)


def test_error_in_an_earlier_argument_wins_over_an_unknown_function():
    compiled = compile_tree(parse_maple("BesselK(1/x, x)"))
    with pytest.raises(ZeroDivisionError):
        compiled({"x": 0})
    with pytest.raises(NoEvaluator):
        compiled({"x": 1})


def test_unsupported_tag_raises_only_when_called():
    compiled = compile_tree(parse_maple("x = 1"))
    with pytest.raises(NoEvaluator):
        compiled({"x": 1})


def test_env_shadows_a_constant():
    compiled = compile_tree(name("Pi"))
    assert compiled({"Pi": 2}) == 2 + 0j
    assert compiled({}) == CONSTANTS["Pi"]


def test_literal_too_large_for_a_double_raises_at_each_call():
    compiled = compile_tree(InertForm(inert.SUM, children=[
        InertForm(inert.INTPOS, 10 ** 400), name("x")]))
    for _ in range(2):
        with pytest.raises(OverflowError):
            compiled({"x": 1})


def test_zero_to_a_positive_power_is_zero():
    compiled = compile_tree(parse_maple("x^y"))
    assert compiled({"x": 0, "y": 2.5}) == 0j
    with pytest.raises(ZeroDivisionError):
        compiled({"x": 0, "y": -1})


# --- free names and the constant rule ---------------------------------------------

CONSTANT_NAMES = [*CONSTANTS, "infinity"]


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
        compiled = compile_tree(tree)
        env = {n: 0.5 + 0.25j for n in names}
        columns = {n: (0.5 + 0.25j, -1.5j, 2.0) for n in names}
        assert unknown_symbol(compiled, env) is None, tree
        assert unknown_symbol(compiled, columns, 3) is None, tree


@pytest.mark.parametrize("builder", [random_evaluable, random_tree])
def test_an_unknown_symbol_is_a_free_name(builder):
    for tree in trees_with_constants(builder, 13):
        names = free_names(tree)
        compiled = compile_tree(tree)
        for raised in (unknown_symbol(compiled, {}),
                       unknown_symbol(compiled, {}, 2)):
            assert raised is None or raised in names, tree


def test_constants_are_not_free_names():
    tree = InertForm(inert.SUM, children=[name(c) for c in CONSTANT_NAMES])
    assert free_names(tree) == set()
    assert cmath.isinf(compile_tree(tree)({}))
    assert free_names(InertForm(inert.PROD, children=[tree, name("x")])) == {"x"}


@pytest.mark.parametrize("tag, value", [(inert.SUM, 0j), (inert.PROD, 1 + 0j)])
def test_a_sum_or_product_without_operands(tag, value):
    empty = InertForm(tag)
    bits = struct.pack("<dd", value.real, value.imag)
    assert outcome(lambda env: evaluate(empty, env), {}) == bits
    assert [struct.pack("<dd", z.real, z.imag)
            for z in compile_tree(empty)({}, 3)] == [bits] * 3
