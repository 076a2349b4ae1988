"""The three workloads: item sets drawn from a seed, and their answer checks.

Each ``build_*`` returns ``(warmup, timed)`` lists of items.  An item is a dict
of the text texcas receives plus whatever the check needs (the generator tree,
the expected answer).  Warm-up items come from a disjoint seed and no text
repeats within a run, so a cache can never turn a repeat into a gain.
"""

from __future__ import annotations

import cmath
import collections
import math
import random
import re

from mpmath import fp

import gen
import oracle
from gen import (Call, Const, Frac, Gen, Neg, Num, Pow, Prod, Rat, Rel, Sqrt,
                 Sum, Var, quantiles, size_budget, wrap)

# Items per second at the seed commit, at calibration reference speed (see
# calib.py), on a 2-core x86 VM.  --seconds times this sizes the item set, so
# the set depends on the seed and the length only, never on how fast the
# machine or the program runs.
RATE = {"translate": 7800, "verify-corpus": 1200, "roundtrip": 1100}
WARMUP = 200
MIN_ITEMS = 1000  # leaves >= 10 samples beyond p99


def n_items(workload: str, seconds: float) -> int:
    return max(MIN_ITEMS, int(RATE[workload] * seconds))


def _distinct(make, n, seen):
    out = []
    while len(out) < n:
        item = make()
        if item["text"] not in seen:
            seen.add(item["text"])
            out.append(item)
    return out


def _build(make_for, seed, n):
    seen: set = set()
    warm = _distinct(make_for(random.Random(f"warmup-{seed}")), WARMUP, seen)
    timed = _distinct(make_for(random.Random(seed)), n, seen)
    return warm, timed


def env_for_maple(g_env):
    return {gen.maple_name(k): v for k, v in g_env.items()}


# --- translate ---------------------------------------------------------------------

def build_translate(lex, seed, n):
    def make_for(rng):
        # the Mathematica half is checked structurally and needs no values
        with_point, without = Gen(lex, rng), Gen(lex, rng, point=False)
        sizes = quantiles(rng)
        count = [0]

        def make():
            dialect = "maple" if count[0] % 2 == 0 else "mathematica"
            count[0] += 1
            g = with_point if dialect == "maple" else without
            node = g.formula(size_budget(next(sizes)))
            return {"text": node.latex(), "dialect": dialect, "node": node,
                    "env": env_for_maple(g.env)}
        return make
    return _build(make_for, seed, n)


def check_translate(item, out):
    """out: {"output": text} or {"error": class name}."""
    if "error" in out:
        return "unexplained"
    if item["dialect"] == "mathematica":
        return None if oracle.mathematica_ok(out["output"]) else "unexplained"
    return _explain_values([out["output"]], item["env"], item["node"].v,
                           _constant_value(item))


def _constant_value(item):
    """The source tree's value once every variable spelled like a Maple
    constant (gamma, Pi, I) takes that constant's value, as Maple reads it;
    None if no variable is so spelled.  NaN if the tree is undefined there."""
    node = item["node"]
    names = node.names()
    if not oracle.constant_collision(names):
        return None
    env = {v: oracle.MAPLE_CONSTANTS.get(gen.maple_name(v),
                                         item["env"].get(gen.maple_name(v)))
           for v in names}
    try:
        return node.ev(env)
    except (ZeroDivisionError, ValueError, OverflowError, fp.NoConvergence):
        return complex("nan")


def _denotes(text, env, wanted, shadow_constants=False) -> bool:
    if wanted is None:
        return False
    try:
        return oracle.close(oracle.maple_value(text, env, shadow_constants), wanted)
    except oracle.MapleError:
        return False


# backward renders 2.2e-06, which the scanner reads back as 2.2*e-06
_FLOAT_SPLIT = re.compile(r"(\d)\*e-(\d)")


def _explain_values(texts, env, wanted, as_constants):
    """None if every Maple text denotes ``wanted``; otherwise the known
    defect each text that does not is shown to carry, or "unexplained".

    A text carries maple-constant-name if it denotes ``wanted`` once the
    names spelled like Maple constants are read as the variables they were,
    or denotes ``as_constants`` (the source's value with Maple's constants
    in place of those variables).  It carries float-exponent if joining its
    split floats (2.2*e-06 back to 2.2e-06) restores the value; the texts
    after such a split denote another formula, so the first one decides."""
    found = None
    for text in texts:
        if _denotes(text, env, wanted):
            continue
        if as_constants is not None and (_denotes(text, env, wanted, True)
                                         or _denotes(text, env, as_constants)):
            found = "maple-constant-name"
            continue
        joined = _FLOAT_SPLIT.sub(r"\1e-\2", text)
        if joined != text and (_denotes(joined, env, wanted) or (
                as_constants is not None and (_denotes(joined, env, wanted, True)
                                              or _denotes(joined, env, as_constants)))):
            return "float-exponent"
        return "unexplained"
    return found


# --- roundtrip -----------------------------------------------------------------------

def build_roundtrip(lex, seed, n):
    def make_for(rng):
        g = Gen(lex, rng)
        sizes = quantiles(rng)
        count = [0]

        def make():
            k = count[0]
            count[0] += 1
            side = "semantic-latex" if k % 2 == 0 else "maple"
            budget = size_budget(next(sizes))
            while True:
                node = g.formula(budget)
                if side == "semantic-latex":
                    text = node.latex()
                    break
                # Maple reads a variable spelled Pi as its constant: the text
                # must have a value then too, or it has no answer to keep
                text = node.maple()
                if _maple_defined(text, env_for_maple(g.env)):
                    break
            return {"text": text, "side": side, "use_divide": k % 8 not in (6, 7),
                    "node": node, "env": env_for_maple(g.env)}
        return make
    return _build(make_for, seed, n)


def _maple_defined(text, env) -> bool:
    try:
        return cmath.isfinite(oracle.maple_value(text, env))
    except oracle.MapleError:
        return False


def check_roundtrip(item, out):
    """out: {"steps": [texts], "reason": terminated_reason} or {"error": ...}.
    A trip passes when it reaches a fixed point and every Maple-side text
    keeps the source value: for a Maple-side start, the value the generated
    text has in Maple, where a variable spelled Pi is Maple's Pi."""
    if "error" in out:
        return "unexplained"
    steps = out["steps"]
    wanted, as_constants = item["node"].v, _constant_value(item)
    if item["side"] == "maple" and as_constants is not None:
        try:
            wanted = oracle.maple_value(steps[0], item["env"])
        except oracle.MapleError:
            return "unexplained"
        as_constants = None
    maple_texts = steps[0 if item["side"] == "maple" else 1::2]
    found = _explain_values(maple_texts, item["env"], wanted, as_constants)
    if found not in (None, "maple-constant-name") or out["reason"] == "fixed-point":
        return found
    if out["reason"] == "max-steps" and len(maple_texts) >= 3:
        cycle = _cycle_change(maple_texts[-3:])
        if cycle is not None:
            return cycle
    return "unexplained"


def _signature(text):
    """Tokens of a Maple text, without brackets, '*' and factors 1."""
    return collections.Counter(t for t in oracle.tokens(text)
                               if t not in ("(", ")", "*", "1"))


def _cycle_change(texts):
    """The known defect that keeps consecutive Maple texts apart, given the
    last three of a trip that reached no fixed point: no-fixed-point when
    they differ only in the order of factors and in factors 1 (brackets
    aside); ellipticf-divergence when each adds the same number (at least
    one) of arcsin(sin(...)) pairs inside EllipticF and nothing else."""
    sigs = [_signature(t) for t in texts]
    if sigs[0] == sigs[1] == sigs[2]:
        return "no-fixed-point"
    if all("EllipticF" in t for t in texts):
        grown = [sigs[k + 1] - sigs[k] for k in range(2)]
        if all(not sigs[k] - sigs[k + 1] for k in range(2)) and grown[0] == grown[1] \
                and set(grown[0]) == {"arcsin", "sin"} \
                and grown[0]["arcsin"] == grown[0]["sin"]:
            return "ellipticf-divergence"
    return None


# --- verify-corpus ----------------------------------------------------------------------
# True relations come from a fixed identity table over generated subexpressions
# A, B, X; false ones add a nonzero term to the right side.  Only macros that
# texcas's checker can evaluate numerically appear: a relation over BesselK or
# EllipticF is undecidable there, not wrong.

def _fn(name, *args):
    return Call(name, [], list(args), "@")


def _sq(node):
    return Pow(node, Num("2"))


def _two(node):
    return Prod([Num("2"), _factor(node)], [False])


def _factor(node):
    return wrap(node) if isinstance(node, (Sum, Neg, Prod)) else node


def _plus(a, b):
    return Sum([("+", _term(a)), ("+", _term(b))])


def _term(node):
    return wrap(node) if isinstance(node, (Sum, Neg)) else node


def _jacobi(a, b, n, x):
    return Call("\\JacobiP", [a, b, Num(str(n))], [x], "@")


IDENTITIES = {
    # symbolic: simplify_light sorts commutative operands
    "commute-sum": ((), lambda A, B: (_plus(A, B), _plus(B, A))),
    "commute-prod": ((), lambda A, B: (
        Prod([_factor(A), _factor(B)], [False]), Prod([_factor(B), _factor(A)], [False]))),
    # numeric: need sampling
    "pythagoras": (("\\sin", "\\cos"), lambda A: (
        Sum([("+", _sq(_fn("\\sin", A))), ("+", _sq(_fn("\\cos", A)))]), Num("1"))),
    "sin-double": (("\\sin", "\\cos"), lambda A: (
        _fn("\\sin", _two(A)),
        Prod([Num("2"), _fn("\\sin", A), _fn("\\cos", A)], [False, False]))),
    "cos-double": (("\\sin", "\\cos"), lambda A: (
        _fn("\\cos", _two(A)),
        Sum([("+", _sq(_fn("\\cos", A))), ("-", _sq(_fn("\\sin", A)))]))),
    "sin-addition": (("\\sin", "\\cos"), lambda A, B: (
        _fn("\\sin", _plus(A, B)),
        Sum([("+", Prod([_fn("\\sin", A), _fn("\\cos", B)], [False])),
             ("+", Prod([_fn("\\cos", A), _fn("\\sin", B)], [False]))]))),
    "cos-addition": (("\\sin", "\\cos"), lambda A, B: (
        _fn("\\cos", _plus(A, B)),
        Sum([("+", Prod([_fn("\\cos", A), _fn("\\cos", B)], [False])),
             ("-", Prod([_fn("\\sin", A), _fn("\\sin", B)], [False]))]))),
    "tan-quotient": (("\\sin", "\\cos", "\\tan"), lambda A: (
        _fn("\\tan", A), Frac(_fn("\\sin", A), _fn("\\cos", A)))),
    "sin-odd": (("\\sin",), lambda A: (
        _fn("\\sin", Neg(_factor(A))), Neg(_fn("\\sin", A)))),
    "cos-even": (("\\cos",), lambda A: (
        _fn("\\cos", Neg(_factor(A))), _fn("\\cos", A))),
    "sin-shift": (("\\sin", "\\cos", "\\cpi"), lambda A: (
        _fn("\\sin", Sum([("+", _term(A)), ("+", Frac(Const("\\cpi"), Num("2")))])),
        _fn("\\cos", A))),
    "exp-product": (("\\exp",), lambda A, B: (
        Prod([_fn("\\exp", A), _fn("\\exp", B)], [False]), _fn("\\exp", _plus(A, B)))),
    "exp-ln": (("\\exp", "\\ln"), lambda A: (_fn("\\exp", _fn("\\ln", A)), A)),
    "exp-double-ln": (("\\exp", "\\ln"), lambda A: (
        _fn("\\exp", _two(_fn("\\ln", A))), _sq(A))),
    "exp-base-e": (("\\exp", "\\expe"), lambda A: (
        Pow(Const("\\expe"), A), _fn("\\exp", A))),
    "sqrt-square": (("\\sqrt",), lambda A: (_sq(Sqrt(A)), A)),
    "cbrt-cube": (("\\sqrt", "\\root"), lambda A: (Pow(Sqrt(A, 3), Num("3")), A)),
    "jacobi-degree-zero": (("\\JacobiP",), lambda A, B, X: (
        _jacobi(A, B, 0, X), Num("1"))),
    "jacobi-degree-one": (("\\JacobiP",), lambda A, B, X: (
        _jacobi(A, B, 1, X),
        Sum([("+", Frac(Sum([("+", _term(A)), ("-", _term(B))]), Num("2"))),
             ("+", Prod([Frac(Sum([("+", _term(A)), ("+", _term(B)), ("+", Num("2"))]),
                              Num("2")), _factor(X)], [False]))]))),
    "jacobi-legendre-two": (("\\JacobiP",), lambda X: (
        _jacobi(Num("0"), Num("0"), 2, X),
        Frac(Sum([("+", Prod([Num("3"), _sq(X)], [False])), ("-", Num("1"))]),
             Num("2")))),
    # n is a degree 0..3 drawn with the subexpressions
    "jacobi-reflection": (("\\JacobiP",), lambda A, B, X, n: (
        _jacobi(A, B, n, Neg(_factor(X))),
        _jacobi(B, A, n, X) if n % 2 == 0 else Neg(_jacobi(B, A, n, X)))),
}


_PERTURB = (lambda g: Num("1"), lambda g: Rat(1, 2), lambda g: Num("3"),
            lambda g: Var(g.rng.choice(g.vars)))


def _available(lex, needs):
    return all(lex.lookup(name) is not None for name in needs)


def build_relations(lex, seed, n, seed_corpus):
    families = sorted(k for k, (needs, _) in IDENTITIES.items() if _available(lex, needs))

    def make_for(rng):
        g = Gen(lex, rng, point=False, evaluable_only=True)
        count = [0]

        def sub():
            return g.expr(1 + min(6, int(rng.expovariate(1 / 2))))

        def make():
            # stratified: families in turn, each true, true, false in turn
            k = count[0]
            count[0] += 1
            family = families[k % len(families)]
            expected = (k // len(families)) % 3 != 2
            while True:
                item = draw(family, expected)
                if _defined(item["node"], rng):
                    return item

        def draw(family, expected):
            g.start_formula()
            build = IDENTITIES[family][1]
            params = build.__code__.co_varnames[:build.__code__.co_argcount]
            lhs, rhs = build(*[rng.randint(0, 3) if p == "n" else sub()
                               for p in params])
            delta = None
            if not expected:
                delta = rng.choice(_PERTURB)(g)
                if rng.random() < 0.5:
                    rhs = _plus(rhs, delta)  # f(A) = g(A) + d
                else:
                    rhs = _plus(lhs, delta)  # f = f + d
                family += "+perturbed"
            rel = Rel(lhs, rhs)
            return {"text": rel.latex(), "expected": expected, "family": family,
                    "node": rel, "delta": delta}
        return make

    seen = set()
    warm = _distinct(make_for(random.Random(f"warmup-{seed}")), WARMUP, seen)
    timed = [{"text": text, "expected": True, "family": "seed-corpus", "node": None,
              "delta": None}
             for text in seed_corpus if text not in seen]
    seen.update(t["text"] for t in timed)
    timed += _distinct(make_for(random.Random(seed)), max(0, n - len(timed)), seen)
    return warm, timed


def check_relation(item, out):
    """out: {"classification", "outcome", "max_abs_difference"} or {"error"}."""
    if "error" in out:
        if out["error"] == "ValueError" and item["node"] is not None \
                and _huge_int_power(item["node"]):
            return "int-digits-limit"
        return "unexplained"
    verified = out["classification"] == "verified"
    if item["expected"] and verified:
        return None
    if not item["expected"] and out.get("outcome") == "numeric-mismatch":
        return None
    return _explain_verdict(item, out)


def _exact_int(node):
    """The integer a literal, a negation or an integer power of integers
    denotes, when it is small enough to compute; None otherwise."""
    if isinstance(node, Num) and node.text.isdigit():
        return int(node.text)
    if isinstance(node, (Neg, gen.Paren)):
        inner = _exact_int(node.children()[0])
        return None if inner is None else (-inner if isinstance(node, Neg) else inner)
    if isinstance(node, Pow):
        base, expo = _exact_int(node.base), _exact_int(node.expo)
        if base is not None and expo is not None and 0 <= expo * math.log10(
                max(abs(base), 2)) < 1000:
            return base ** expo
    return None


def _huge_int_power(node) -> bool:
    """True if the tree holds an integer power of integers with more than
    4300 digits (Python's limit for int-to-str conversion)."""
    if isinstance(node, Pow):
        base, expo = _exact_int(node.base), _exact_int(node.expo)
        if base is not None and expo is not None and abs(expo) * math.log10(
                max(abs(base), 2)) > 4300:
            return True
    return any(_huge_int_power(c) for c in node.children())


def _explain_verdict(item, out):
    """Attribute a wrong verdict.  The translation must be right first
    (texcas's Maple text denotes the relation's values at seeded points);
    then the verdict is traced to verify's sampling in doubles, at the
    points verify draws, against an absolute 1e-10."""
    rel = item["node"]
    if rel is None or "maple" not in out:
        return "unexplained"
    status = _translation_check(rel, out["maple"])
    if status == "unfaithful":
        return "unexplained"
    outcome = out.get("outcome")
    if status == "undefined":
        # defined with its variables (see _defined) but not once Maple reads
        # a variable as a constant, e.g. (-\iunit)+I becomes 0
        return ("maple-constant-name" if oracle.constant_collision(rel.names())
                else "unexplained")
    samples = _verify_samples(item)
    finite = [s for s in samples if not isinstance(s, str)]
    if outcome == "inconclusive" and "overflow" in samples and not finite:
        return "double-overflow"
    if status == "overflowed":
        return "unexplained"  # no point to check the translation at
    if outcome == "numeric-mismatch" and item["expected"] and any(
            ROUNDING_ULPS * ULP * scale >= TOLERANCE for _, scale in finite):
        return "absolute-tolerance"  # rounding reaches the tolerance
    if outcome == "numeric-converged" and not item["expected"] and finite and all(
            abs(delta) <= ROUNDING_ULPS * ULP * scale for delta, scale in finite):
        return "absolute-tolerance"  # rounding swallows the perturbation
    if outcome == "inconclusive" and _jacobi_recurrence_pole(rel):
        return "jacobi-recurrence-pole"
    return "unexplained"


# verify's defaults: seed 0, 20 points (10 and their conjugates) on the
# annulus 0.1 <= |z| <= 2, one value per free Maple name in sorted order;
# its tolerance is absolute.
VERIFY_SEED = 0
VERIFY_POINTS = 20
TOLERANCE = 1e-10
ULP = 2.0 ** -52
# the rounding a few operations in doubles leave, in units in the last place
# of the largest intermediate value
ROUNDING_ULPS = 8


def _verify_envs(rel):
    """The points verify samples, as values of the relation's variables; a
    variable spelled like a Maple constant takes the constant's value, as
    in the Maple text verify reads."""
    names = sorted(rel.names())
    free = sorted({gen.maple_name(v) for v in names} - set(oracle.MAPLE_CONSTANTS))
    rng = random.Random(VERIFY_SEED)
    envs = []
    for _ in range(VERIFY_POINTS // 2):
        point = {}
        for v in free:
            r = rng.uniform(0.1, 2.0)
            point[v] = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi))
        for p in (point, {v: z.conjugate() for v, z in point.items()}):
            env = {}
            for v in names:
                m = gen.maple_name(v)
                env[v] = oracle.MAPLE_CONSTANTS[m] if m in oracle.MAPLE_CONSTANTS else p[m]
            envs.append(env)
    return envs


def _verify_samples(item):
    """At each point verify samples: "overflow" if a side overflows a
    double, "undefined" if it has no value there, else (the exact
    difference of the two sides, i.e. 0 for a true relation and the
    perturbation for a false one; the largest |value| of any
    subexpression)."""
    rel = item["node"]
    out = []
    for env in _verify_envs(rel):
        try:
            (a, left), (b, right) = (_value_and_scale(side, env, recurrence=True)
                                     for side in (rel.lhs, rel.rhs))
        except OverflowError:
            out.append("overflow")
            continue
        except (ZeroDivisionError, ValueError, fp.NoConvergence):
            out.append("undefined")
            continue
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            out.append("overflow")
            continue
        delta = 0 if item["delta"] is None else item["delta"].ev(env)
        out.append((delta, max(left, right)))
    return out


def _jacobi_recurrence_pole(rel) -> bool:
    """True if a JacobiP in the relation has constant parameters with
    alpha+beta = -k or 2-2k for a step k of the three-term recurrence in the
    degree (2 <= k <= n): the recurrence divides by zero there although the
    polynomial is finite."""
    rng = random.Random(0)
    names = sorted(rel.names())
    envs = [_annulus_point(rng, names) for _ in range(2)]

    def walk(node):
        if isinstance(node, Call) and node.macro == "\\JacobiP":
            alpha, beta, degree = node.params
            try:
                sums = [alpha.ev(env) + beta.ev(env) for env in envs]
            except (ZeroDivisionError, ValueError, OverflowError, fp.NoConvergence):
                sums = []
            n = int(degree.text)
            if sums and abs(sums[0] - sums[1]) < 1e-12 and any(
                    abs(sums[0] - pole) < 1e-12
                    for k in range(2, n + 1) for pole in (-k, 2 - 2 * k)):
                return True
        return any(walk(c) for c in node.children())

    return walk(rel)


def _annulus_point(rng, names):
    """A value for each name on verify's sampling annulus 0.1 <= |z| <= 2."""
    return {v: cmath.rect(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * cmath.pi))
            for v in names}


def _defined(rel, rng, points=4) -> bool:
    """False for relations undefined everywhere (a side divides by or takes
    the log of an identically zero subexpression): they have no answer.
    Overflow counts as defined; the value exists, a double cannot hold it."""
    names = sorted(rel.names())
    for _ in range(points):
        env = _annulus_point(rng, names)
        try:
            rel.lhs.ev(env)
            rel.rhs.ev(env)
        except (OverflowError, fp.NoConvergence):
            continue
        except (ZeroDivisionError, ValueError):
            return False
    return True


def _value_and_scale(node, env, recurrence=False):
    """Value of a tree and the largest |value| of any of its subexpressions;
    with ``recurrence``, also of the terms verify's JacobiP evaluator sums."""
    largest = 0.0

    def walk(n):
        nonlocal largest
        vals = [walk(c) for c in n.children()]
        v = n.apply(vals) if vals else n.ev(env)
        largest = max(largest, abs(v))
        if recurrence and isinstance(n, Call) and n.macro == "\\JacobiP":
            largest = max(largest, _recurrence_scale(*vals))
        return v

    return walk(node), largest


def _recurrence_scale(a, b, n, x):
    """The three-term recurrence in the degree by which verify evaluates
    JacobiP, 2k(k+a+b)(2k+a+b-2) P_k = (2k+a+b-1)((2k+a+b)(2k+a+b-2)x
    + a^2-b^2) P_{k-1} - 2(k+a-1)(k+b-1)(2k+a+b) P_{k-2}, run on absolute
    values with every difference made a sum: the standard bound on what its
    rounding is relative to, which the polynomial's value can be far below.
    Raises ZeroDivisionError where the recurrence divides by zero, as
    verify's does."""
    ra, rb, rx = abs(a), abs(b), abs(x)
    prev, cur = 1.0, (ra + rb) / 2 + (ra + rb + 2) / 2 * rx
    for k in range(2, int(round(n.real)) + 1):
        c1 = abs(2 * k * (k + a + b) * (2 * k + a + b - 2))
        if c1 == 0:
            raise ZeroDivisionError("JacobiP recurrence pole")
        s = 2 * k + ra + rb
        prev, cur = cur, ((s + 1) * (s * (s + 2) * rx + ra * ra + rb * rb) * cur
                          + 2 * (k + ra + 1) * (k + rb + 1) * s * prev) / c1
    return cur


def _translation_check(rel, maple_text, points=8):
    """Do both Maple sides equal the relation's sides at seeded points of
    the checker's annulus and at the points verify samples?  "faithful",
    "unfaithful", "overflowed" (no point was finite) or "undefined" (no
    point had a value).  A variable spelled like a Maple constant takes the
    constant's value on both sides: identities stay true and perturbed
    relations stay false under that substitution."""
    parts = maple_text.split(" = ")
    if len(parts) != 2:
        return "unfaithful"
    rng = random.Random(maple_text)
    names = sorted(rel.names())
    envs = []
    for _ in range(points):
        env = _annulus_point(rng, names)
        envs.append({v: oracle.MAPLE_CONSTANTS.get(gen.maple_name(v), z)
                     for v, z in env.items()})
    checked = overflowed = 0
    for env in envs + _verify_envs(rel):
        maple_env = env_for_maple(env)
        try:
            sides = [(_value_and_scale(side, env), oracle.maple_value(text, maple_env))
                     for side, text in zip((rel.lhs, rel.rhs), parts)]
        except OverflowError:
            overflowed += 1
            continue
        except (ZeroDivisionError, ValueError, fp.NoConvergence, oracle.MapleError):
            continue
        if not all(cmath.isfinite(a) for (a, _), _ in sides):
            overflowed += 1
            continue
        # rounding in a different evaluation order is relative to the largest
        # intermediate, not to a result that cancelled
        if any(abs(b - a) > oracle.REL_TOL * max(1, scale) for (a, scale), b in sides):
            return "unfaithful"
        checked += 1
    if checked:
        return "faithful"
    return "overflowed" if overflowed else "undefined"
