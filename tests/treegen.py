"""Seeded random inert-tree builders shared by the property tests, and an
independent list of a tree's free names."""

import random
import string

from texcas.evaluator import CONSTANTS
from texcas.inert import (DIVIDE, EQUATION, EXPSEQ, FLOAT, FUNCTION, INTNEG,
                          INTPOS, NAME, POWER, PROD, RANGE, RATIONAL, STRING,
                          SUM, InertForm)

_NAMES = ["x", "y", "z", "alpha", "beta", "Theta", "foo_1", "Pi", "infinity"]


def name(s: str) -> InertForm:
    return InertForm(NAME, s)


def _leaf(rng: random.Random) -> InertForm:
    choice = rng.randrange(6)
    if choice == 0:
        return InertForm(NAME, rng.choice(_NAMES))
    if choice == 1:
        return InertForm(STRING, "".join(rng.choices(string.ascii_letters, k=3)))
    if choice == 2:
        return InertForm(INTPOS, rng.randrange(0, 100))
    if choice == 3:
        return InertForm(INTNEG, rng.randrange(1, 100))
    if choice == 4:
        return InertForm(FLOAT, round(rng.uniform(-10, 10), 3))
    sign = rng.choice([1, -1])
    return InertForm(RATIONAL, children=[
        InertForm(INTPOS if sign > 0 else INTNEG, rng.randrange(1, 20)),
        InertForm(INTPOS, rng.randrange(1, 20))])


def random_tree(rng: random.Random, depth: int = 0) -> InertForm:
    """A structurally valid InertForm of bounded depth, for bijection tests."""
    if depth >= 3 or rng.random() < 0.4:
        return _leaf(rng)
    tag = rng.choice([SUM, PROD, POWER, FUNCTION, EQUATION, RANGE, DIVIDE])
    if tag in (SUM, PROD):
        n = rng.randrange(2, 5)
        return InertForm(tag, children=[random_tree(rng, depth + 1)
                                        for _ in range(n)])
    if tag == FUNCTION:
        n = rng.randrange(0, 3)
        return InertForm(FUNCTION, children=[
            InertForm(NAME, rng.choice(["sin", "f", "JacobiP"])),
            InertForm(EXPSEQ, children=[random_tree(rng, depth + 1)
                                        for _ in range(n)])])
    return InertForm(tag, children=[random_tree(rng, depth + 1),
                                    random_tree(rng, depth + 1)])


def random_evaluable(rng: random.Random, depth: int = 0) -> InertForm:
    """A tree the numeric evaluator can handle, with free names x and y."""
    if depth >= 3 or rng.random() < 0.45:
        choice = rng.randrange(5)
        if choice == 0:
            return InertForm(NAME, rng.choice(["x", "y"]))
        if choice == 1:
            return InertForm(INTPOS, rng.randrange(0, 6))
        if choice == 2:
            return InertForm(INTNEG, rng.randrange(1, 6))
        if choice == 3:
            return InertForm(FLOAT, round(rng.uniform(-3, 3), 3))
        return InertForm(RATIONAL, children=[
            InertForm(INTPOS, rng.randrange(1, 8)),
            InertForm(INTPOS, rng.randrange(1, 8))])
    tag = rng.choice([SUM, PROD, POWER, DIVIDE, FUNCTION])
    if tag in (SUM, PROD):
        n = rng.randrange(2, 4)
        return InertForm(tag, children=[random_evaluable(rng, depth + 1)
                                        for _ in range(n)])
    if tag == POWER:
        exponent = InertForm(INTPOS, rng.randrange(0, 4)) if rng.random() < 0.7 \
            else InertForm(INTNEG, rng.randrange(1, 3))
        return InertForm(POWER, children=[random_evaluable(rng, depth + 1),
                                          exponent])
    if tag == DIVIDE:
        return InertForm(DIVIDE, children=[random_evaluable(rng, depth + 1),
                                           random_evaluable(rng, depth + 1)])
    return InertForm(FUNCTION, children=[
        InertForm(NAME, rng.choice(["sin", "cos", "exp"])),
        InertForm(EXPSEQ, children=[random_evaluable(rng, depth + 1)])])


def free_names(tree: InertForm) -> set:
    """Names in the tree that are not known constants (a call's own name is
    not one), found by a plain walk of every node."""
    names, stack = set(), [tree]
    while stack:
        t = stack.pop()
        tag = t.tag
        if tag == NAME:
            names.add(t.payload)
        else:
            stack.extend([t.children[1]] if tag == FUNCTION else t.children)
    return names.difference(CONSTANTS)
