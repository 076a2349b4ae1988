"""Equivalence checking, light simplification, and round-trip fixed points."""

import cmath
import random
from fractions import Fraction

import mpmath
import pytest

from texcas import verify
from texcas.errors import NoEvaluator, UnknownSymbol
from texcas.evaluator import _FUNCTIONS, CONSTANTS, evaluate, jacobi_p
from texcas.inert import INTPOS, InertForm, intlit, parse_maple, preprocess
from texcas.verify import (MAPLE_SIDE, SEMANTIC_LATEX, check_equivalence,
                           round_trip, simplify_light)

from treegen import name, random_evaluable


def equiv(lhs, rhs, vars, **kw):
    return check_equivalence(parse_maple(lhs), parse_maple(rhs), vars, **kw)


def is_zero(t):
    return t.tag == INTPOS and t.payload == 0


# --- independent numeric oracles ----------------------------------------------

def jacobi_oracle(n, a, b, x):
    """Finite-sum definition of the Jacobi polynomial, via mpmath binomials."""
    a, b, x = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(x)
    total = mpmath.mpc(0)
    for s in range(n + 1):
        total += (mpmath.binomial(n + a, n - s) * mpmath.binomial(n + b, s)
                  * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s))
    return complex(total)


def sample_points(count=10, seed=3):
    rng = random.Random(seed)
    return [complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5))
            for _ in range(count)]


class TestEvaluatorOracles:
    @pytest.mark.parametrize("fname,reference", [
        ("sin", mpmath.sin), ("cos", mpmath.cos), ("tan", mpmath.tan),
        ("exp", mpmath.exp), ("ln", mpmath.log), ("arcsin", mpmath.asin),
        ("sqrt", mpmath.sqrt),
    ])
    def test_elementary_functions_match_mpmath(self, fname, reference):
        from texcas.evaluator import _FUNCTIONS
        for z in sample_points():
            ours = _FUNCTIONS[(fname, 1)](z)
            theirs = complex(reference(mpmath.mpc(z)))
            assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs)), (fname, z)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_jacobi_recurrence_matches_finite_sum(self, n):
        for z in sample_points(6, seed=n + 1):
            a, b = 0.5 + 0.25j, -0.25 + 0.5j
            ours = jacobi_p(n, a, b, z)
            theirs = jacobi_oracle(n, a, b, z)
            assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

    def test_constants(self):
        assert CONSTANTS["Pi"].real == pytest.approx(3.141592653589793)
        assert CONSTANTS["I"] == 1j
        # Euler-Mascheroni and Catalan cross-checked against mpmath
        assert abs(CONSTANTS["gamma"] - complex(mpmath.euler)) < 1e-15
        assert abs(CONSTANTS["Catalan"] - complex(mpmath.catalan)) < 1e-15


class TestSimplifyLight:
    def test_name_unchanged(self):
        assert simplify_light(name("x")) == name("x")

    def test_integer_folding(self):
        tree = InertForm("SUM", children=[intlit(2), InertForm("INTNEG", 1)])
        assert simplify_light(tree) == InertForm(INTPOS, 1)

    def test_table3_step_trees_cancel(self):
        step1 = preprocess(parse_maple("(cos(a*Theta))/(2)"))
        step3 = preprocess(parse_maple("(1)/(2)*cos(a*Theta)"))
        diff = InertForm("SUM", children=[step1, negate(step3)])
        assert is_zero(simplify_light(preprocess(diff)))

    def test_multiplicative_one_and_additive_zero(self):
        assert simplify_light(parse_maple("1*x+0")) == name("x")

    def test_power_rules(self):
        assert simplify_light(parse_maple("x^1")) == name("x")
        assert simplify_light(parse_maple("x^0")) == intlit(1)

    def test_term_collection(self):
        tree = preprocess(parse_maple("x+x-2*x"))
        assert is_zero(simplify_light(tree))

    def test_idempotence_on_random_trees(self):
        rng = random.Random(13)
        for _ in range(300):
            tree = preprocess(random_evaluable(rng))
            once = simplify_light(tree)
            assert simplify_light(once) == once

    def test_value_preservation_on_random_trees(self):
        rng = random.Random(17)
        envs = [{"x": 0.9 + 0.4j, "y": -0.6 + 1.1j},
                {"x": -1.2 - 0.3j, "y": 0.4 - 0.8j}]
        checked = 0
        for _ in range(300):
            tree = preprocess(random_evaluable(rng))
            simplified = simplify_light(tree)
            for env in envs:
                try:
                    before = evaluate(tree, env)
                except (ZeroDivisionError, OverflowError, ValueError):
                    continue
                if not (cmath.isfinite(before.real) and cmath.isfinite(before.imag)):
                    continue
                after = evaluate(simplified, env)
                assert abs(before - after) <= 1e-12 * max(1.0, abs(before))
                checked += 1
        assert checked > 100


def negate(t):
    from texcas.inert import _negate
    return _negate(t)


class TestCheckEquivalence:
    def test_textually_equal_is_symbolic_zero(self):
        # x/y: the difference is simplified as parsed, with no DIVIDE node
        for text, vars in (("sin(z)", ["z"]), ("x/y", ["x", "y"])):
            assert equiv(text, text, vars).outcome == "symbolic-zero"

    def test_phase_shift_converges(self):
        verdict = equiv("sin(z+Pi/2)", "cos(z)", ["z"])
        assert verdict.outcome == "numeric-converged"
        assert verdict.max_abs_difference < 1e-10
        assert len(verdict.samples) == 20

    def test_branch_cut_sentinel_mismatches(self):
        verdict = equiv("sqrt(z^2)", "z", ["z"])
        assert verdict.outcome == "numeric-mismatch"
        offenders = [env for env, d in verdict.samples
                     if d >= 1e-10 and env["z"].real < 0]
        assert offenders

    def test_jacobi_against_closed_form(self):
        verdict = equiv("JacobiP(2,0,0,x)", "(3*x^2-1)/2", ["x"])
        assert verdict.outcome == "numeric-converged"

    def test_symmetry_of_outcomes(self):
        a = equiv("sin(z+Pi/2)", "cos(z)", ["z"])
        b = equiv("cos(z)", "sin(z+Pi/2)", ["z"])
        assert a.outcome == b.outcome
        c = equiv("sqrt(z^2)", "z", ["z"])
        d = equiv("z", "sqrt(z^2)", ["z"])
        assert c.outcome == d.outcome == "numeric-mismatch"

    def test_undeclared_name_raises(self):
        with pytest.raises(UnknownSymbol):
            equiv("sin(z)", "w", ["z"])

    def test_unevaluable_function_is_inconclusive(self):
        verdict = equiv("BesselK(1,z)", "BesselK(1,z)+x", ["z", "x"])
        assert verdict.outcome == "inconclusive"
        assert "BesselK" in verdict.reason

    def test_no_free_variables(self):
        verdict = equiv("exp(1)^(I*Pi)", "-1", [])
        assert verdict.outcome == "numeric-converged"

    def test_deterministic_given_seed(self):
        a = equiv("sin(z+Pi/2)", "cos(z)", ["z"], seed=5)
        b = equiv("sin(z+Pi/2)", "cos(z)", ["z"], seed=5)
        assert [s for _, s in a.samples] == [s for _, s in b.samples]

    def test_conjugate_pairs_sampled(self):
        verdict = equiv("sin(z+Pi/2)", "cos(z)", ["z"])
        points = [env["z"] for env, _ in verdict.samples]
        assert points[1] == points[0].conjugate()

    @pytest.mark.parametrize("lhs, rhs, finite", [
        # exp(1000 z) overflows at 4 of the 20 points, which the one walk
        # skips without evaluating any point again
        ("exp(1000*z)", "exp(1000*z*1.0)", 16),
        ("sin(z)^2+cos(z)^2", "1", 20)])
    def test_fallback_points_go_through_evaluate(self, monkeypatch, lhs, rhs,
                                                 finite):
        envs = []
        real = verify.evaluate
        monkeypatch.setattr(verify, "evaluate",
                            lambda tree, env: envs.append(env) or real(tree, env))
        verdict = equiv(lhs, rhs, ["z"])
        assert verdict.outcome == "numeric-converged"
        assert envs == []
        assert len(verdict.samples) == finite

    def test_vars_default_to_the_sorted_free_names(self):
        lhs, rhs = parse_maple("sqrt(y^2) + x"), parse_maple("y + x")
        verdict = check_equivalence(lhs, rhs)
        assert verdict == check_equivalence(lhs, rhs, ["x", "y"])
        assert verdict.outcome == "numeric-mismatch"
        assert list(verdict.samples[0][0]) == ["x", "y"]
        assert check_equivalence(parse_maple("2*w"), parse_maple("w + w")).outcome \
            == "symbolic-zero"

    @pytest.mark.parametrize("first, then", [(NoEvaluator, LookupError),
                                              (LookupError, NoEvaluator)])
    def test_the_first_point_to_fail_decides(self, monkeypatch, first, then):
        # a point ends the check (NoEvaluator) or raises (an error that is not
        # skipped) as it would alone, and the first such point in row order wins
        rows, _ = verify._sample_points(1, verify.DEFAULT_POINTS, verify.DEFAULT_SEED)

        def f(z):
            raise (first if z == rows[0][0] else then)("f")
        monkeypatch.setitem(_FUNCTIONS, ("f", 1), f)
        if first is NoEvaluator:
            verdict = equiv("f(z)", "z", ["z"])
            assert (verdict.outcome, verdict.reason) == \
                ("inconclusive", "no numeric evaluator for f")
        else:
            with pytest.raises(LookupError):
                equiv("f(z)", "z", ["z"])


class TestRoundTrip:
    def test_table3_steps_and_cycles(self, lex):
        report = round_trip(r"\frac{\cos@{a\Theta}}{2}", SEMANTIC_LATEX, lex)
        assert [s.text for s in report.steps] == [
            r"\frac{\cos@{a\Theta}}{2}",
            "(cos(a*Theta))/(2)",
            r"\frac{1}{2}\idt\cos@{a\idt\Theta}",
            "(1)/(2)*cos(a*Theta)",
        ]
        assert [s.side for s in report.steps] == [
            SEMANTIC_LATEX, MAPLE_SIDE, SEMANTIC_LATEX, MAPLE_SIDE]
        assert report.fixed_point_reached
        assert report.cycles_by_side == {SEMANTIC_LATEX: Fraction(1),
                                         MAPLE_SIDE: Fraction(3, 2)}

    def test_fixed_maple_start_within_half_cycle(self, lex):
        report = round_trip("sin(z)", MAPLE_SIDE, lex)
        assert report.fixed_point_reached
        assert report.cycles_by_side[MAPLE_SIDE] == Fraction(0)
        assert report.cycles_by_side[SEMANTIC_LATEX] == Fraction(1, 2)

    def test_elliptic_integral_diverges(self, lex):
        report = round_trip(r"\EllIntF@{\phi}{k}", SEMANTIC_LATEX, lex,
                            max_steps=8)
        assert not report.fixed_point_reached
        assert report.terminated_reason == "max-steps"
        latex_steps = [s.text for s in report.steps
                       if s.side == SEMANTIC_LATEX]
        counts = [t.count(r"\asin@{\sin@") for t in latex_steps]
        assert counts == sorted(counts) and counts[-1] > counts[0]

    def test_translation_error_recorded(self, lex):
        report = round_trip(r"\qhyperg{a}{b}@{z}", SEMANTIC_LATEX, lex)
        assert report.terminated_reason == "translation-error"
        assert "qhyperg" in report.error

    def test_steps_alternate_sides(self, lex):
        report = round_trip(r"\sin@{z}", SEMANTIC_LATEX, lex)
        sides = [s.side for s in report.steps]
        assert all(a != b for a, b in zip(sides, sides[1:]))
