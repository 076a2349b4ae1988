"""``simplify_light`` and the batched ``check_equivalence`` against reference
copies of the ones they replaced.

``reference_simplify_light`` is the simplifier as it stood before each node
travelled with its key and integer literals folded as ``int``: it rebuilt the
canonical key of every subtree at every sort and worked in ``Fraction``
throughout.  ``reference_check_equivalence`` is the checker as it stood
before the sample points were drawn once per key and evaluated in one pass:
it drew its seeded points for every relation and called a per-point closure
(``reference_compile_tree``) at each of them.  On every input the new code
must build the same tree, with payloads of the same types, and give the same
verdict field for field (outcome, reason, and each sample's env and value,
bit for bit), or raise the same exception.
"""

import cmath
import math
import random
import struct
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from texcas import inert, verify
from texcas.errors import NoEvaluator, UnknownSymbol
from texcas.evaluator import _FUNCTIONS, CONSTANTS, free_names
from texcas.inert import (DIVIDE, EQUATION, EXPSEQ, FLOAT, FUNCTION, INTNEG,
                          INTPOS, POWER, PROD, RATIONAL, SUM, InertForm,
                          int_value, parse_maple, preprocess)
from texcas.verify import (ANNULUS, DEFAULT_POINTS, DEFAULT_SEED,
                           DEFAULT_TOLERANCE, EquivalenceVerdict, check_equivalence,
                           simplify_light)

from treegen import name, random_evaluable, random_tree

# --- the reference simplifier ---------------------------------------------

_MAX_FOLD_BITS = 2 ** 20


def _canonical_key(t: InertForm) -> tuple:
    """Hashable, totally ordered structural key: ``(tag, payload)`` for a
    leaf, ``(tag, None, *child_keys)`` for an inner node.  A float key keeps
    its sign of zero, so terms in -0.0 and 0.0 are never collected."""
    if not t.children:
        if t.tag == FLOAT:
            return (FLOAT, (t.payload, math.copysign(1.0, t.payload)))
        return (t.tag, t.payload)
    return (t.tag, None, *map(_canonical_key, t.children))


def _fraction_node(f: Fraction) -> InertForm:
    if f.denominator == 1:
        return inert.intlit(f.numerator)
    return inert.rational(f.numerator, f.denominator)


def _as_fraction(t: InertForm) -> Optional[Fraction]:
    if t.tag in (INTPOS, INTNEG):
        return Fraction(int_value(t))
    if t.tag == RATIONAL:
        return Fraction(int_value(t.children[0]), t.children[1].payload)
    return None


def reference_simplify_light(tree: InertForm) -> InertForm:
    """Confluent rewrite set: flatten, fold exact rational arithmetic, drop
    additive 0 / multiplicative 1, x^1 -> x, x^0 -> 1, sort commutative
    operands, combine DIVIDE of rationals.  Deliberately far weaker than a
    CAS simplify."""
    children = [reference_simplify_light(c) for c in tree.children]
    t = InertForm(tree.tag, tree.payload, children)

    if t.tag == DIVIDE:
        num, den = t.children
        fn, fd = _as_fraction(num), _as_fraction(den)
        if fn is not None and fd is not None and fd != 0:
            return _fraction_node(fn / fd)
        if fd == Fraction(1):
            return num
        return t

    if t.tag == POWER:
        base, expo = t.children
        fe = _as_fraction(expo)
        if fe == 1:
            return base
        if fe == 0 and _as_fraction(base) != 0:
            return InertForm(INTPOS, 1)
        fb = _as_fraction(base)
        if fb is not None and fe is not None and fe.denominator == 1 \
                and (fb != 0 or fe > 0) and _fold_bits(fb, fe) <= _MAX_FOLD_BITS:
            return _fraction_node(fb ** fe.numerator)
        return t

    if t.tag == PROD:
        factors: List[InertForm] = []
        for c in t.children:
            factors.extend(c.children if c.tag == PROD else [c])
        coeff = Fraction(1)
        rest = []
        for c in factors:
            f = _as_fraction(c)
            if f is not None:
                coeff *= f
            else:
                rest.append(c)
        if coeff == 0:
            return InertForm(INTPOS, 0)
        rest.sort(key=_canonical_key)
        if not rest:
            return _fraction_node(coeff)
        if coeff != 1:
            rest = [_fraction_node(coeff)] + rest
        return rest[0] if len(rest) == 1 else InertForm(PROD, children=rest)

    if t.tag == SUM:
        terms: List[InertForm] = []
        for c in t.children:
            terms.extend(c.children if c.tag == SUM else [c])
        constant = Fraction(0)
        collected: Dict[tuple, Tuple[Fraction, InertForm]] = {}
        for c in terms:
            f = _as_fraction(c)
            if f is not None:
                constant += f
                continue
            coeff, core = _split_term(c)
            key = _canonical_key(core)
            if key in collected:
                collected[key] = (collected[key][0] + coeff, core)
            else:
                collected[key] = (coeff, core)
        out: List[InertForm] = []
        if constant != 0:
            out.append(_fraction_node(constant))
        for key in sorted(collected):
            coeff, core = collected[key]
            if coeff == 0:
                continue
            if coeff == 1:
                out.append(core)
            else:
                out.append(InertForm(PROD, children=[_fraction_node(coeff), core]))
        if not out:
            return InertForm(INTPOS, 0)
        return out[0] if len(out) == 1 else InertForm(SUM, children=out)

    return t


def _fold_bits(base: Fraction, expo: Fraction) -> int:
    """An upper bound on the bits of ``base ** expo`` (integer expo)."""
    size = max(base.numerator.bit_length(), base.denominator.bit_length())
    return abs(expo.numerator) * size


def _split_term(t: InertForm) -> Tuple[Fraction, InertForm]:
    if t.tag == PROD:
        f = _as_fraction(t.children[0])
        if f is not None:
            rest = t.children[1:]
            core = rest[0] if len(rest) == 1 else InertForm(PROD, children=rest)
            return f, core
    return Fraction(1), t


def is_zero(t: InertForm) -> bool:
    return t.tag == INTPOS and t.payload == 0


# --- the reference per-point compiler and sampling loop ---------------------

def reference_compile_tree(tree: InertForm) -> Callable[[Dict[str, complex]], complex]:
    """Walk the tree once and return ``env -> complex`` doing only arithmetic.

    The closure performs the operations of a recursive walk in the same order,
    so a compiled tree gives bit-identical values.  Unknown names and
    functions raise UnknownSymbol / NoEvaluator when the closure runs (a
    function's arguments first), never at compile time; arithmetic
    exceptions (division by zero, overflow) propagate to the caller.
    """
    tag = tree.tag
    if tag == inert.NAME:
        return _compile_name(tree.payload)
    if tag == inert.INTPOS:
        return _literal(lambda: complex(tree.payload))
    if tag == inert.INTNEG:
        return _literal(lambda: complex(-tree.payload))
    if tag == inert.FLOAT:
        return _literal(lambda: complex(tree.payload))
    if tag == inert.RATIONAL:
        p, q = tree.children
        return _literal(lambda: complex(Fraction(inert.int_value(p), q.payload)))
    if tag == inert.SUM:
        terms = [reference_compile_tree(c) for c in tree.children]
        return lambda env: sum([f(env) for f in terms], 0j)
    if tag == inert.PROD:
        factors = [reference_compile_tree(c) for c in tree.children]

        def product(env):
            out = 1 + 0j
            for f in factors:
                out *= f(env)
            return out
        return product
    if tag == inert.DIVIDE:
        num, den = (reference_compile_tree(c) for c in tree.children)
        return lambda env: num(env) / den(env)
    if tag == inert.POWER:
        base_of, expo_of = (reference_compile_tree(c) for c in tree.children)

        def power(env):
            base = base_of(env)
            expo = expo_of(env)
            if base == 0 and expo.real > 0 and abs(expo.imag) < 1e-300:
                return 0j
            return base ** expo
        return power
    if tag == inert.FUNCTION:
        fname = tree.children[0].payload
        args = [reference_compile_tree(c) for c in tree.children[1].children]
        fn = _FUNCTIONS.get((fname, len(args)))
        if fn is None:
            def unknown(env):
                for f in args:
                    f(env)
                raise NoEvaluator(fname)
            return unknown
        return lambda env: fn(*[f(env) for f in args])

    def unsupported(env):
        raise NoEvaluator(tag)
    return unsupported


def _compile_name(name: str) -> Callable[[Dict[str, complex]], complex]:
    # an env binding shadows a constant of the same name
    fallback = CONSTANTS.get(name)
    if fallback is None and name == "infinity":
        fallback = complex("inf")

    def lookup(env):
        if name in env:
            return complex(env[name])
        if fallback is None:
            raise UnknownSymbol(name)
        return fallback
    return lookup


def _literal(value_of: Callable[[], complex]
             ) -> Callable[[Dict[str, complex]], complex]:
    """A constant closure.  A literal with no double value (an integer too
    large) raises on every call instead, so a caller skips each point;
    compiling never raises."""
    try:
        value = value_of()
    except ArithmeticError:
        return lambda env: value_of()
    return lambda env: value


def _difference(lhs: InertForm, rhs: InertForm) -> InertForm:
    return InertForm(SUM, children=[lhs, inert._negate(rhs)])


def _annulus_point(rng: random.Random) -> complex:
    r = rng.uniform(*ANNULUS)
    theta = rng.uniform(0.0, 2.0 * cmath.pi)
    return r * cmath.exp(1j * theta)


def reference_check_equivalence(lhs: InertForm, rhs: InertForm, vars,
                                tolerance: float = DEFAULT_TOLERANCE,
                                points: int = DEFAULT_POINTS,
                                seed: int = DEFAULT_SEED) -> EquivalenceVerdict:
    """Decide whether lhs == rhs: first by simplifying the formula difference
    to literal zero, else by seeded complex sampling of the difference."""
    diff = _difference(lhs, rhs)
    simplified = reference_simplify_light(diff)
    if is_zero(simplified):
        return EquivalenceVerdict("symbolic-zero")

    declared = set(vars)
    for name in sorted(free_names(diff)):
        if name not in declared:
            raise UnknownSymbol(name)

    rng = random.Random(seed)
    assignments: List[Dict[str, complex]] = []
    if not vars:
        assignments.append({})
    else:
        base = max(1, points // 2)
        for _ in range(base):
            point = {v: _annulus_point(rng) for v in vars}
            assignments.append(point)
            assignments.append({v: z.conjugate() for v, z in point.items()})

    value_at = reference_compile_tree(diff)
    samples: List[Tuple[Dict[str, complex], float]] = []
    for env in assignments:
        try:
            value = value_at(env)
        except NoEvaluator as exc:
            return EquivalenceVerdict("inconclusive", reason=str(exc))
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        if not (cmath.isfinite(value.real) and cmath.isfinite(value.imag)):
            continue
        samples.append((env, abs(value)))

    if not samples:
        return EquivalenceVerdict("inconclusive", samples=[],
                                  reason="no finite evaluation point")
    if any(d >= tolerance for _, d in samples):
        return EquivalenceVerdict("numeric-mismatch", samples=samples)
    return EquivalenceVerdict("numeric-converged", samples=samples)


# --- comparison -------------------------------------------------------------

def typed(t: InertForm) -> tuple:
    """The tree with each payload's type and a float's sign (so 1 and
    Fraction(1), 0.0 and -0.0 differ)."""
    p = t.payload
    if isinstance(p, float):
        p = (p, math.copysign(1.0, p))
    return (t.tag, type(t.payload).__name__, p, [typed(c) for c in t.children])


def _bits(z) -> str:
    return struct.pack("<dd", z.real, z.imag).hex()


def verdict_of(check, lhs, rhs, vars, **kw):
    """The verdict, field for field and bit for bit, or the exception."""
    try:
        v = check(lhs, rhs, vars, **kw)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc).__name__, str(exc)
    return (v.outcome, v.reason,
            [([(k, type(z).__name__, _bits(z)) for k, z in env.items()], _bits(d))
             for env, d in v.samples])


def assert_same_verdict(lhs, rhs, vars, **kw):
    expected = verdict_of(reference_check_equivalence, lhs, rhs, vars, **kw)
    assert verdict_of(check_equivalence, lhs, rhs, vars, **kw) == expected, \
        (lhs, rhs, vars, kw)
    return expected


# --- simplify_light ---------------------------------------------------------

FOLDS = ["2^(-3)", "(-2)^(-3)", "(2/3)^(-2)", "(-3)^3", "4/6", "(-4)/6", "6/3",
         "x/1", "x^0", "0^0", "0^(-1)", "0^2", "x*0", "3*x - 3*x", "2*x + x/2",
         "1/2 + 1/3 - 5/6", "x*2*y*(1/2)", "0.0*x + (-0.0)*x", "5^(12^4)",
         "2^(10^7)", "(x+y)*(y+x) - (y+x)^2", "-(x*y) + y*x"]


@pytest.mark.parametrize("text", FOLDS)
def test_folds_match_the_reference(text):
    tree = parse_maple(text)
    for t in (tree, preprocess(tree)):
        assert typed(simplify_light(t)) == typed(reference_simplify_light(t))


def test_integer_folds_stay_exact():
    assert typed(simplify_light(parse_maple("2^(-3)"))) == \
        typed(inert.rational(1, 8))
    assert typed(simplify_light(parse_maple("(-4)/6"))) == \
        typed(inert.rational(-2, 3))


@pytest.mark.parametrize("make", [random_tree, random_evaluable])
def test_simplify_light_matches_the_reference_on_generated_trees(make):
    rng = random.Random(2026)
    for _ in range(3000):
        tree = make(rng)
        diff = _difference(tree, make(rng))
        for t in (tree, diff, preprocess(diff)):
            assert typed(simplify_light(t)) == typed(reference_simplify_light(t)), t


def test_malformed_nodes_match_the_reference():
    for tag in (SUM, PROD, DIVIDE, POWER, EXPSEQ):
        tree = InertForm(tag)
        try:
            expected = typed(reference_simplify_light(tree))
        except ValueError:
            with pytest.raises(ValueError):
                simplify_light(tree)
        else:
            assert typed(simplify_light(tree)) == expected


# --- check_equivalence ------------------------------------------------------

GRID = [(points, seed) for points in (1, 2, 20, 64) for seed in (0, 1, 7)]


@pytest.mark.parametrize("points,seed", GRID)
def test_generated_relations_match_the_reference(points, seed):
    rng = random.Random(f"relations-{points}-{seed}")
    for _ in range(60):
        assert_same_verdict(random_evaluable(rng), random_evaluable(rng),
                            ["x", "y"], points=points, seed=seed)
        assert_same_verdict(random_tree(rng), random_tree(rng),
                            ["x", "y", "z"], points=points, seed=seed)
        lhs = random_evaluable(rng)
        assert_same_verdict(lhs, simplify_light(lhs), ["x", "y"],
                            points=points, seed=seed)
        # zero variables: a relation without free names, or UnknownSymbol
        assert_same_verdict(random_evaluable(rng), random_evaluable(rng), [],
                            points=points, seed=seed)


def _literal_of(z: complex) -> InertForm:
    """A tree that evaluates to exactly z: re + im * I."""
    return InertForm(SUM, children=[
        InertForm(FLOAT, z.real),
        InertForm(PROD, children=[InertForm(FLOAT, z.imag), name("I")])])


def _fn(fname, *args):
    return InertForm(FUNCTION, children=[name(fname),
                                         InertForm(EXPSEQ, children=list(args))])


def _minus(a, b):
    return InertForm(SUM, children=[a, InertForm(PROD, children=[
        InertForm(INTNEG, 1), b])])


def partial_failures(seed):
    """Relations in x that fail at some sampled points only, each with what
    its reference verdict must show."""
    first = _annulus_point(random.Random(seed))  # the first point drawn
    pole = _minus(name("x"), _literal_of(first))  # 0 exactly at that point
    x = name("x")
    return [
        # a division by zero at the first point only
        ("skips", InertForm(DIVIDE, children=[InertForm(INTPOS, 1), pole]),
         InertForm(DIVIDE, children=[InertForm(INTPOS, 2), pole])),
        # JacobiP's degree is the integer 2 at the first point only
        ("no-evaluator", _fn("JacobiP", InertForm(SUM, children=[
            InertForm(INTPOS, 2), pole]), InertForm(INTPOS, 1),
            InertForm(INTPOS, 1), x), x),
        # the same, after a division by zero at that first point
        ("no-evaluator", InertForm(SUM, children=[
            InertForm(DIVIDE, children=[InertForm(INTPOS, 1), pole]),
            _fn("JacobiP", x, InertForm(INTPOS, 1), InertForm(INTPOS, 1), x)]), x),
        # exp overflows where Re(1000 x) > 709
        ("skips", _fn("exp", InertForm(PROD, children=[InertForm(INTPOS, 1000), x])),
         InertForm(POWER, children=[
             _fn("exp", InertForm(PROD, children=[InertForm(INTPOS, 500), x])),
             InertForm(INTPOS, 2)])),
        # 0^x is 0 where Re(x) > 0 and raises elsewhere
        ("skips", InertForm(POWER, children=[InertForm(INTPOS, 0), x]),
         InertForm(PROD, children=[InertForm(INTPOS, 0), x])),
        # a literal too large for a double fails at every point
        ("no-point", InertForm(SUM, children=[x, InertForm(INTPOS, 10 ** 400)]), x),
        # a value that is not finite is skipped without an exception
        ("no-point", InertForm(PROD, children=[x, name("infinity")]), x),
        # (1+0j) * inf is inf+nanj, so this is nan: a product starts at 1+0j
        ("no-point", InertForm(SUM, children=[x, _fn("exp", InertForm(PROD, children=[
            name("infinity"), InertForm(INTNEG, 1)]))]), x),
        ("no-evaluator", _fn("BesselK", InertForm(INTPOS, 1), x), x),
    ]


@pytest.mark.parametrize("points,seed", GRID)
def test_relations_that_fail_at_some_points_match_the_reference(points, seed):
    n = 2 * max(1, points // 2)
    for kind, lhs, rhs in partial_failures(seed):
        outcome, reason, samples = assert_same_verdict(lhs, rhs, ["x"],
                                                       points=points, seed=seed)
        if kind == "skips":
            # a few points may all be fine
            assert len(samples) < n or points < 20, (lhs, points, seed)
        elif kind == "no-evaluator":
            assert outcome == "inconclusive" and reason != "no finite evaluation point"
        else:
            assert reason == "no finite evaluation point"
    # the pole is hit: the first point is skipped, its conjugate is not
    kind, lhs, rhs = partial_failures(seed)[0]
    samples = verdict_of(check_equivalence, lhs, rhs, ["x"], points=points,
                         seed=seed)[2]
    assert len(samples) == n - 1


@pytest.mark.parametrize("points,seed", GRID)
def test_relations_without_variables_match_the_reference(points, seed):
    for lhs, rhs in [("sin(1)^2 + cos(1)^2", "1"), ("exp(1000)", "0"),
                     ("1/(2 - 2)", "3"), ("sqrt(Pi^2)", "Pi"), ("infinity", "1"),
                     ("JacobiP(1/2, 1, 1, 1)", "1"), ("10^400.5", "1")]:
        outcome, _, samples = assert_same_verdict(
            parse_maple(lhs), parse_maple(rhs), [], points=points, seed=seed)
        assert len(samples) <= 1


def test_repeated_variables_match_the_reference():
    lhs, rhs = parse_maple("x^2 + y"), parse_maple("x*x + y")
    for vars in (["x", "x", "y"], ["y", "x", "y"]):
        assert_same_verdict(lhs, rhs, vars)


# --- undeclared names -------------------------------------------------------

def test_undeclared_names_raise_the_first_in_sorted_order():
    lhs, rhs = parse_maple("b + sin(a) + c/x"), parse_maple("x")
    for vars in (["x"], ["x", "c"]):
        with pytest.raises(UnknownSymbol) as exc:
            check_equivalence(lhs, rhs, vars)
        assert str(exc.value) == str(UnknownSymbol("a"))


def test_a_name_under_an_unsupported_node_is_declared_or_refused():
    inner = InertForm(EQUATION, children=[name("w"), InertForm(INTPOS, 1)])
    lhs = InertForm(SUM, children=[name("x"), inner])
    with pytest.raises(UnknownSymbol):
        check_equivalence(lhs, name("x"), ["x"])
    assert check_equivalence(lhs, name("x"), ["x", "w"]).outcome == "inconclusive"


def test_undeclared_names_are_checked_after_the_symbolic_check():
    verdict = check_equivalence(parse_maple("2*w"), parse_maple("w + w"), [])
    assert verdict.outcome == "symbolic-zero"


def test_undeclared_names_are_refused_before_any_point_is_evaluated(monkeypatch):
    def no_points(*args):
        raise AssertionError("points drawn")
    monkeypatch.setattr(verify, "_sample_points", no_points)
    with pytest.raises(UnknownSymbol):
        check_equivalence(parse_maple("1/0 + y"), parse_maple("x"), ["x"])


# --- the points cache -------------------------------------------------------

@pytest.mark.parametrize("points,seed", GRID)
def test_cached_points_are_the_seeded_draws_in_order(points, seed):
    for nvars in range(4):
        rng = random.Random(seed)
        expected = []
        for _ in range(max(1, points // 2) if nvars else 0):
            point = [_annulus_point(rng) for _ in range(nvars)]
            expected += [point, [z.conjugate() for z in point]]
        rows, columns = verify._sample_points(nvars, points, seed)
        assert [[_bits(z) for z in row] for row in rows] == \
            [[_bits(z) for z in row] for row in expected or [[]]]
        assert [list(c) for c in columns] == [list(c) for c in zip(*rows)]


def test_a_verdict_owns_its_sample_envs():
    lhs, rhs = parse_maple("sin(x)^2 + cos(x)^2"), parse_maple("1")
    first = check_equivalence(lhs, rhs, ["x"])
    assert len({id(env) for env, _ in first.samples}) == len(first.samples)
    for env, _ in first.samples:
        env["x"] = 99
        env["y"] = 1
    second = check_equivalence(lhs, rhs, ["x"])
    assert verdict_of(lambda *a: second, lhs, rhs, ["x"]) == \
        verdict_of(reference_check_equivalence, lhs, rhs, ["x"])


# --- sample envs built on read ---------------------------------------------

def eager_samples(lhs, rhs, vars, points=DEFAULT_POINTS, seed=DEFAULT_SEED):
    """The sample list built at once from the cached points: each finite
    point's env dict and |difference|."""
    diff = verify._difference(lhs, rhs)
    rows, _ = verify._sample_points(len(vars), points, seed)
    samples = []
    for row in rows:
        try:
            value = verify.evaluate(diff, dict(zip(vars, row)))
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        if cmath.isfinite(value):
            samples.append((dict(zip(vars, row)), abs(value)))
    return samples


def _sample_bits(samples):
    return [([(k, type(z).__name__, _bits(z)) for k, z in env.items()], _bits(d))
            for env, d in samples]


@pytest.mark.parametrize("points,seed", GRID)
def test_samples_read_later_are_the_eager_list_bit_for_bit(points, seed):
    rng = random.Random(f"envs-{points}-{seed}")
    relations = [(lhs, rhs) for kind, lhs, rhs in partial_failures(seed)
                 if kind != "no-evaluator"]
    relations += [(random_evaluable(rng), random_evaluable(rng)) for _ in range(30)]
    for lhs, rhs in relations:
        verdict = check_equivalence(lhs, rhs, ["x", "y"], points=points, seed=seed)
        if verdict.outcome == "symbolic-zero":
            continue
        eager = eager_samples(lhs, rhs, ["x", "y"], points, seed)
        assert verdict.max_abs_difference == max((d for _, d in eager), default=None)
        assert _sample_bits(verdict.samples) == _sample_bits(eager), (lhs, rhs)
        assert verdict.samples is verdict.samples  # built once
        assert verdict == EquivalenceVerdict(verdict.outcome, eager, verdict.reason)


def test_two_verdicts_never_share_an_env():
    lhs, rhs = parse_maple("sin(x)^2 + cos(x)^2"), parse_maple("1")
    first, second = (check_equivalence(lhs, rhs, ["x"]) for _ in range(2))
    envs = [env for v in (first, second) for env, _ in v.samples]
    assert len({id(env) for env in envs}) == len(envs) == 40
    first.samples[0][0]["x"] = 99
    assert second.samples[0][0]["x"] != 99


def test_reading_the_largest_difference_builds_no_env(monkeypatch, lex):
    from texcas.corpus import read_corpus, run_corpus
    from texcas.lexicon import seed_path

    reads = []
    real = EquivalenceVerdict.samples
    monkeypatch.setattr(EquivalenceVerdict, "samples", property(
        lambda v: reads.append(v) or real.fget(v), real.fset))
    _, log = run_corpus(read_corpus(seed_path("seed_corpus.tsv")), lex)
    assert sum("max_abs_difference" in e for e in log) > 10
    assert reads == []
    verdict = check_equivalence(parse_maple("sqrt(x^2)"), parse_maple("x"), ["x"])
    assert verdict.max_abs_difference > 1
    assert reads == []
    assert max(d for _, d in verdict.samples) == verdict.max_abs_difference
    assert reads == [verdict]


def test_a_verdict_built_by_hand_keeps_its_list():
    samples = [({"z": 1j}, 0.5), ({"z": 2 + 0j}, 0.25)]
    verdict = EquivalenceVerdict("numeric-converged", samples=samples)
    assert verdict.samples is samples
    assert verdict.max_abs_difference == 0.5
    assert verdict == EquivalenceVerdict("numeric-converged", list(samples))
    assert repr(verdict) == ("EquivalenceVerdict(outcome='numeric-converged', "
                             f"samples={samples!r}, reason=None)")
    verdict.samples = samples[1:]
    assert verdict.max_abs_difference == 0.25
    assert EquivalenceVerdict("inconclusive").max_abs_difference is None
    assert EquivalenceVerdict("inconclusive").samples == []


def test_the_points_cache_stays_within_its_bound():
    lhs, rhs = parse_maple("sqrt(x^2)"), parse_maple("x")
    for seed in range(3 * verify._POINT_SETS):
        check_equivalence(lhs, rhs, ["x"], seed=seed)
    info = verify._sample_points.cache_info()
    assert info.maxsize == verify._POINT_SETS
    assert info.currsize <= verify._POINT_SETS
