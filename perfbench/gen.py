"""Seeded, lexicon-driven input generator with its own mpmath reference values.

Formulas are expression trees built with ``random.Random(seed)`` from the
compiled lexicon's macros (function entries, builtins, constants, Greek
letters).  Each tree renders to semantic LaTeX and to Maple 1D text, and
evaluates with mpmath (its double-precision ``fp`` context: the multiprecision
one is 10-50x slower, and every comparison is relative at 1e-9).  The meaning of every macro comes from ``MACROS`` below,
written from the DLMF definitions, never from texcas's evaluator, so the values
are an independent reference for the translations.

Only the rendered text is handed to texcas.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import string

import mpmath as mp
from mpmath import fp

# precedence levels shared by both renderers
SUM, NEG, PROD, POW, ATOM = 1, 2, 3, 4, 5

_SPECIAL_CACHE: dict = {}


def _memo(name, fn):
    """Special functions are slow in mpmath; the oracle evaluates the same
    arguments twice (source and translation), so cache by argument value.
    This also gives both sides the very same value for the very same call."""

    def call(*args):
        key = (name,) + args
        try:
            return _SPECIAL_CACHE[key]
        except KeyError:
            value = _SPECIAL_CACHE[key] = fn(*args)
            return value

    return call


def _besselk(nu, z):
    # fp loses digits to cancellation near integer orders, where mpmath's
    # multiprecision path takes the limit; use that there
    nu = complex(nu)
    if abs(nu - round(nu.real)) < 1e-2:
        return complex(mp.besselk(nu, z))
    return fp.besselk(nu, z)


def _jacobi(n, a, b, x):
    # for large parameters fp's series gives NaN or overflows in a gamma
    # factor of a finite result; mp's sums it (complex() raises
    # OverflowError if the result itself exceeds a double)
    try:
        value = fp.jacobi(n, a, b, x)
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    return complex(mp.jacobi(n, a, b, x))


jacobi = _memo("jacobi", _jacobi)
besselk = _memo("besselk", _besselk)
def _ellipf(phi, m):
    try:
        return fp.ellipf(phi, m)
    except AttributeError:  # fp lacks nint, used for real amplitudes past pi/2
        return complex(mp.ellipf(phi, m))


ellipf = _memo("ellipf", _ellipf)


def root(x, n):
    """Principal n-th root, as Maple's root(x, n)."""
    return 0j if x == 0 else cmath.exp(cmath.log(x) / n)


class Fn:
    """Reference meaning of one function macro.

    ``value`` takes the macro's slots in LaTeX order (parameters, then
    variables); ``maple`` maps rendered slot texts to Maple call text.
    ``evaluable`` is False where texcas's checker has no numeric evaluator,
    so relations over it have no decidable answer.
    """

    def __init__(self, value, maple, evaluable=True, cuts=(), max_arg=None):
        self.value = value
        self.maple = maple
        self.evaluable = evaluable
        self.cuts = cuts  # per slot: the kind of branch cut its argument meets
        # mpmath's double-precision series lose digits (and time) on large
        # arguments; beyond max_arg the reference value is not trusted
        self.max_arg = max_arg


def _call(name, order=None):
    def render(slots):
        args = slots if order is None else [slots[k] for k in order]
        return f"{name}({', '.join(args)})"
    return render


MACROS = {
    "\\sin": Fn(fp.sin, _call("sin")),
    "\\cos": Fn(fp.cos, _call("cos")),
    "\\tan": Fn(fp.tan, _call("tan")),
    "\\asin": Fn(fp.asin, _call("arcsin"), cuts=("asin",)),
    "\\exp": Fn(fp.exp, _call("exp")),
    "\\ln": Fn(fp.log, _call("ln"), cuts=("log",)),
    # DLMF 18.3: P_n^{(alpha,beta)}(x); LaTeX slots alpha, beta, n, x
    "\\JacobiP": Fn(lambda a, b, n, x: jacobi(n, a, b, x),
                    _call("JacobiP", order=(2, 0, 1, 3)), max_arg=20),
    # DLMF 10.25.3: K_nu(z); slots nu, z
    "\\BesselK": Fn(besselk, _call("BesselK"), evaluable=False,
                    cuts=(None, "log"), max_arg=4),
    # DLMF 19.2.4: F(phi, k) with modulus k; mpmath takes m = k^2
    "\\EllIntF": Fn(lambda phi, k: ellipf(phi, k * k),
                    lambda s: f"EllipticF(sin({s[0]}), {s[1]})",
                    evaluable=False, max_arg=20),
}

CONSTANTS = {
    "\\iunit": (1j, "I"),
    "\\expe": (fp.e, "exp(1)"),
    "\\CatalansConstant": (fp.catalan, "Catalan"),
    "\\cpi": (fp.pi, "Pi"),
    "\\EulerConstant": (fp.euler, "gamma"),
}

LATIN = list(string.ascii_letters)


def maple_name(var: str) -> str:
    """Maple's spelling of a variable: Greek commands lose the backslash."""
    return var[1:] if var.startswith("\\") else var


# --- expression nodes ---------------------------------------------------------

class Node:
    prec = ATOM
    mprec = property(lambda self: self.prec)  # precedence of the Maple text
    v = None  # value at the generation point, when one was drawn

    def children(self):
        return ()

    def latex(self) -> str:
        raise NotImplementedError

    def maple(self) -> str:
        raise NotImplementedError

    def apply(self, vals):
        raise NotImplementedError

    def ev(self, env):
        return self.apply([c.ev(env) for c in self.children()])

    def names(self, out=None):
        out = set() if out is None else out
        for c in self.children():
            c.names(out)
        return out


def _lx(node: Node, min_prec: int) -> str:
    return node.latex() if node.prec >= min_prec else f"({node.latex()})"


def _mp(node: Node, min_prec: int) -> str:
    return node.maple() if node.mprec >= min_prec else f"({node.maple()})"


class Var(Node):
    def __init__(self, name):
        self.name = name

    def latex(self):
        return self.name

    def maple(self):
        return maple_name(self.name)

    def ev(self, env):
        return env[self.name]

    def names(self, out=None):
        out = set() if out is None else out
        out.add(self.name)
        return out


class Num(Node):
    """A nonnegative integer or decimal literal."""

    def __init__(self, text):
        self.text = text
        self.value = float(text)

    def latex(self):
        return self.text

    def maple(self):
        return self.text

    def ev(self, env):
        return self.value


class Rat(Node):
    """p/q: \\frac{p}{q} in LaTeX, p/q in Maple."""

    mprec = PROD

    def __init__(self, p, q):
        self.p, self.q = p, q

    def latex(self):
        return "\\frac{%d}{%d}" % (self.p, self.q)

    def maple(self):
        return f"{self.p}/{self.q}"

    def ev(self, env):
        return self.p / self.q


class Const(Node):
    def __init__(self, macro):
        self.macro = macro

    def latex(self):
        return self.macro

    def maple(self):
        return CONSTANTS[self.macro][1]

    def ev(self, env):
        return CONSTANTS[self.macro][0]


class Call(Node):
    def __init__(self, macro, params, vars_, at):
        self.macro, self.params, self.vars, self.at = macro, params, vars_, at

    def children(self):
        return self.params + self.vars

    def latex(self):
        out = self.macro + "".join("{%s}" % p.latex() for p in self.params)
        if self.vars:
            out += self.at + "".join("{%s}" % v.latex() for v in self.vars)
        return out

    def maple(self):
        return MACROS[self.macro].maple([c.maple() for c in self.children()])

    def apply(self, vals):
        return MACROS[self.macro].value(*vals)


class Sqrt(Node):
    def __init__(self, radicand, order=None):
        self.radicand, self.order = radicand, order

    def children(self):
        return (self.radicand,)

    def latex(self):
        if self.order is None:
            return "\\sqrt{%s}" % self.radicand.latex()
        return "\\sqrt[%d]{%s}" % (self.order, self.radicand.latex())

    def maple(self):
        if self.order is None:
            return f"sqrt({self.radicand.maple()})"
        return f"root({self.radicand.maple()}, {self.order})"

    def apply(self, vals):
        return cmath.sqrt(vals[0]) if self.order is None else root(vals[0], self.order)


class Frac(Node):
    """num/den; Maple side renders as a/b or as a*b^(-1)."""

    mprec = PROD

    def __init__(self, num, den, negpow=False):
        self.num, self.den, self.negpow = num, den, negpow

    def children(self):
        return (self.num, self.den)

    def latex(self):
        return "\\frac{%s}{%s}" % (self.num.latex(), self.den.latex())

    def maple(self):
        if self.negpow:
            return f"{_mp(self.num, PROD)}*{_mp(self.den, ATOM)}^(-1)"
        return f"{_mp(self.num, PROD)}/{_mp(self.den, POW)}"

    def apply(self, vals):
        return vals[0] / vals[1]


class Pow(Node):
    prec = POW

    def __init__(self, base, expo):
        self.base, self.expo = base, expo

    def children(self):
        return (self.base, self.expo)

    def latex(self):
        base = self.base.latex()
        if not isinstance(self.base, (Var, Const, Call, Sqrt, Paren)) and not (
                isinstance(self.base, Num) and self.base.text.isdigit()):
            base = f"\\left({base}\\right)"
        return "%s^{%s}" % (base, self.expo.latex())

    def maple(self):
        return f"{_mp(self.base, ATOM)}^{_mp(self.expo, ATOM)}"

    def apply(self, vals):
        return fp.power(vals[0], vals[1])


class Sum(Node):
    prec = SUM

    def __init__(self, terms):
        self.terms = terms  # [(sign, node)], sign in "+-"

    def children(self):
        return [t for _, t in self.terms]

    def _render(self, fn):
        parts = []
        for k, (sign, term) in enumerate(self.terms):
            text = fn(term, PROD)
            parts.append(text if k == 0 and sign == "+" else sign + text)
        return "".join(parts)

    def latex(self):
        return self._render(_lx)

    def maple(self):
        return self._render(_mp)

    def apply(self, vals):
        # start from a real zero, as Maple text's a+b does: a complex start
        # would carry a signed zero into the imaginary part and flip branch
        # cuts (sqrt(-x - 0j) = -sqrt(x) j)
        total = 0.0
        for (sign, _), v in zip(self.terms, vals):
            total = total + v if sign == "+" else total - v
        return total


class Prod(Node):
    prec = PROD

    def __init__(self, factors, joins):
        self.factors, self.joins = factors, joins  # joins[k] before factor k+1

    def children(self):
        return self.factors

    def latex(self):
        out = _lx(self.factors[0], POW)
        for join, f in zip(self.joins, self.factors[1:]):
            text = _lx(f, POW)
            out += (" " if join and not text[0].isdigit() else "\\idt ") + text
        return out

    def maple(self):
        return "*".join(_mp(f, PROD) for f in self.factors)

    def apply(self, vals):
        out = 1.0  # real, for the same reason as Sum.apply
        for v in vals:
            out = out * v
        return out


class Neg(Node):
    prec = NEG

    def __init__(self, x):
        self.x = x

    def children(self):
        return (self.x,)

    def latex(self):
        return "-" + _lx(self.x, PROD)

    def maple(self):
        return "-" + _mp(self.x, PROD)

    def apply(self, vals):
        return -vals[0]


class Paren(Node):
    def __init__(self, x, left_right=False):
        self.x, self.left_right = x, left_right

    def children(self):
        return (self.x,)

    def latex(self):
        if self.left_right:
            return "\\left(%s\\right)" % self.x.latex()
        return "(%s)" % self.x.latex()

    def maple(self):
        return "(%s)" % self.x.maple()

    def apply(self, vals):
        return vals[0]


class Rel(Node):
    """lhs = rhs (relations only; never evaluated as a whole)."""

    def __init__(self, lhs, rhs):
        self.lhs, self.rhs = lhs, rhs

    def children(self):
        return (self.lhs, self.rhs)

    def latex(self):
        return f"{self.lhs.latex()} = {self.rhs.latex()}"


# --- generator ------------------------------------------------------------------

_KINDS = ("sum", "prod", "pow", "frac", "sqrt", "call", "neg", "paren")


class Rejected(Exception):
    pass


def _finite_ok(v) -> bool:
    return cmath.isfinite(v) and abs(v) <= 1e6


def _on_cut(kind, v) -> bool:
    """True when v sits on (or within rounding of) a principal branch cut,
    where the two sides of a comparison could land on different branches."""
    if kind is None:
        return False
    v = complex(v)
    near_axis = abs(v.imag) <= 1e-12 * max(1, abs(v))
    if kind == "log":
        return near_axis and v.real <= 0
    if kind == "asin":  # also near the branch points +-1, where asin is ill-conditioned
        return near_axis and abs(v.real) >= 1 - 1e-6
    return False


class Gen:
    """Draws formulas from the lexicon.

    ``point`` True draws a complex value for each variable and keeps every
    subexpression finite, moderate (|v| <= 1e6) and off branch cuts there, so
    one-point value checks are well conditioned.  Relations use point=False:
    their answers hold for every value, and the checker's own sampling decides
    what it sees.
    """

    def __init__(self, lex, rng: random.Random, *, point=True,
                 evaluable_only=False):
        self.rng = rng
        self.point = point
        self.functions = sorted(
            name for name, e in lex.entries.items()
            if e.role == "function" and name in MACROS
            and (MACROS[name].evaluable or not evaluable_only))
        self.entries = {name: lex.entries[name] for name in self.functions}
        self.has_frac = "\\frac" in lex.builtins
        self.has_sqrt = "\\sqrt" in lex.builtins
        self.has_root = "\\root" in lex.builtins
        self.constants = sorted(
            c.semantic_macro for c in lex.constants
            if c.semantic_macro in CONSTANTS
            and all(d in c.translations for d in ("maple", "mathematica")))
        self.variables = LATIN + sorted(lex.greek)
        self.kind_weights = list(itertools.accumulate(
            (5, 5, 3, 2 * self.has_frac, 2 * self.has_sqrt,
             6 if self.functions else 0, 1, 1)))
        self.vars: list = []
        self.env: dict = {}

    # -- per formula ------------------------------------------------------------

    def start_formula(self, n_vars=None):
        rng = self.rng
        n_vars = n_vars or rng.choice((1, 1, 2, 2, 3, 4))
        self.vars = rng.sample(self.variables, n_vars)
        self.env = {}
        if self.point:
            for v in self.vars:
                r = rng.uniform(0.3, 1.5)
                self.env[v] = cmath.rect(r, rng.uniform(0, 2 * cmath.pi))

    def formula(self, budget):
        """A whole formula; retries until the point checks pass."""
        for _ in range(20):
            self.start_formula()
            try:
                return self.expr(budget)
            except Rejected:
                continue
        self.start_formula(1)
        return self._checked(Var(self.vars[0]))

    # -- building blocks ----------------------------------------------------------

    def _checked(self, node):
        if self.point:
            try:
                v = node.apply([c.v for c in node.children()]) \
                    if node.children() else node.ev(self.env)
            except (ZeroDivisionError, ValueError, OverflowError,
                    fp.NoConvergence):
                raise Rejected()
            if not _finite_ok(v):
                raise Rejected()
            node.v = v
        return node

    def _arg(self, budget, cut=None):
        """A subexpression that may be retried when it lands on a branch cut."""
        for _ in range(6):
            node = self.expr(budget)
            if not (self.point and _on_cut(cut, node.v)):
                return node
        raise Rejected()

    def leaf(self):
        rng = self.rng
        r = rng.random()
        if r < 0.6:
            return self._checked(Var(rng.choice(self.vars)))
        if r < 0.8:
            return self._checked(Num(str(rng.randint(1, 12))))
        if r < 0.9 and self.constants:
            return self._checked(Const(rng.choice(self.constants)))
        return self._checked(Num(self.decimal()))

    def decimal(self):
        rng = self.rng
        if rng.random() < 0.75:
            return f"{rng.randint(0, 9)}.{rng.randint(1, 99):02d}".rstrip("0")
        zeros = rng.randint(1, 5)
        return "0." + "0" * zeros + str(rng.randint(1, 99))

    def expr(self, budget):
        if budget <= 1:
            return self.leaf()
        rng = self.rng
        kind = rng.choices(_KINDS, cum_weights=self.kind_weights)[0]
        if kind == "sum":
            n = min(budget, rng.choice((2, 2, 3, 4)))
            parts = _split(rng, budget - 1, n)
            terms = [("+" if k == 0 and rng.random() < 0.8 else rng.choice("+-"),
                      self._sum_term(b)) for k, b in enumerate(parts)]
            return self._checked(Sum(terms))
        if kind == "prod":
            n = min(budget, rng.choice((2, 2, 3)))
            parts = _split(rng, budget - 1, n)
            factors = [self._factor(b) for b in parts]
            joins = [rng.random() < 0.3 for _ in factors[1:]]
            return self._checked(Prod(factors, joins))
        if kind == "pow":
            base = self.expr(max(1, budget // 3))
            expo = self._exponent(budget - 1 - budget // 3)
            cut = None if _is_int(expo) else "log"
            if self.point and _on_cut(cut, base.v):
                raise Rejected()
            return self._checked(Pow(base, expo))
        if kind == "frac":
            a, b = _split(rng, budget - 1, 2)
            num, den = self.expr(a), self.expr(b)
            if self.point and abs(den.v) < 1e-6:
                raise Rejected()
            return self._checked(Frac(num, den, negpow=rng.random() < 0.3))
        if kind == "sqrt":
            order = rng.randint(3, 5) if self.has_root and rng.random() < 0.4 else None
            return self._checked(Sqrt(self._arg(budget - 1, "log"), order))
        if kind == "call":
            return self.call(rng.choice(self.functions), budget - 1)
        if kind == "neg":
            return self._checked(Neg(self._factor(budget - 1)))
        return self._checked(Paren(self.expr(budget - 1), left_right=rng.random() < 0.3))

    def call(self, macro, budget):
        rng = self.rng
        entry = self.entries[macro]
        fn = MACROS[macro]
        slots = []
        parts = _split(rng, max(budget, entry.arity), entry.arity)
        for k, b in enumerate(parts):
            cut = fn.cuts[k] if k < len(fn.cuts) else None
            if macro == "\\JacobiP" and k == 2:
                slots.append(self._checked(Num(str(rng.randint(0, 4)))))
            elif macro == "\\EllIntF" and k == 0:
                # amplitude inside the principal strip |Re phi| < pi/2, where
                # Maple's EllipticF(sin(phi), k) equals F(phi, k)
                slots.append(self._checked(Var(rng.choice(self.vars)))
                             if rng.random() < 0.8 else self._checked(Num("1")))
            else:
                slots.append(self._arg(b, cut))
        at = "@" * rng.choice(sorted(entry.at_variants)) if entry.num_vars else ""
        node = Call(macro, slots[:entry.num_params], slots[entry.num_params:], at)
        if fn.max_arg and self.point and any(abs(s.v) > fn.max_arg for s in slots):
            raise Rejected()
        if macro == "\\EllIntF" and self.point:
            m_sin2 = slots[1].v ** 2 * cmath.sin(slots[0].v) ** 2
            if _on_cut("asin", cmath.sqrt(m_sin2)):
                raise Rejected()
        return self._checked(node)

    def _sum_term(self, budget):
        node = self.expr(budget)
        return wrap(node) if isinstance(node, (Sum, Neg)) else node

    def _factor(self, budget):
        node = self.expr(budget)
        return wrap(node) if isinstance(node, (Sum, Neg, Prod)) else node

    def _exponent(self, budget):
        rng = self.rng
        r = rng.random()
        if r < 0.45 or budget <= 1:
            return self._checked(Num(str(rng.randint(2, 4))))
        if r < 0.65:
            return self._checked(Neg(self._checked(Num(str(rng.randint(1, 3))))))
        if r < 0.75:
            p, q = rng.randint(1, 5), rng.randint(2, 6)
            return self._checked(Rat(p, q))
        return self.expr(min(budget, 4))


def wrap(node, left_right=False) -> Paren:
    out = Paren(node, left_right)
    out.v = node.v
    return out


def _is_int(node) -> bool:
    if isinstance(node, Neg):
        node = node.x
    return isinstance(node, Num) and node.text.isdigit()


def _split(rng, total, n):
    """Split a node budget into n positive parts."""
    total = max(total, n)
    if n == 1:
        return [total]
    if n == 2:
        cut = rng.randint(1, total - 1)
        return [cut, total - cut]
    cuts = sorted(rng.sample(range(1, total), n - 1))
    bounds = [0] + cuts + [total]
    return [bounds[k + 1] - bounds[k] for k in range(n)]


def size_budget(u: float) -> int:
    """Node budget at quantile u of the size distribution: mostly
    seed-corpus-short formulas, with a heavy tail of deep ones (several
    hundred characters) that sets the p99."""
    if u < 0.04:
        return 30 + int(u / 0.04 * 41)
    return 3 + min(45, int(-7 * math.log(1 - (u - 0.04) / 0.96)))


def quantiles(rng):
    """Equidistributed quantiles u_k = (offset + k * golden ratio) mod 1 with
    a seeded offset: every seed gets the same size mix and its own formulas,
    so the mix adds no run-to-run spread."""
    offset = rng.random()
    for k in itertools.count():
        yield (offset + k * 0.6180339887498949) % 1.0
