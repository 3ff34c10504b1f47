"""Symbolic scalar expressions over chart coordinates and named parameters.

Expressions are immutable trees built from rational/float constants,
coordinates (by chart index), free parameters (by name), sums, products,
quotients, integer powers, and a small set of unary/binary functions
(sin, cos, exp, ln, sqrt, atan2).  Construction normalizes each node with
a value-preserving rule set: constant folding, like-term collection,
x**0 -> 1, and zero annihilation.  No trigonometric or rational rewrites
are performed; equality of expressions beyond syntax is the job of the
probabilistic zero test, not the simplifier.

Construction normalizes once.  Every node a constructor builds from normal
inputs is normal: it is what the full simplify() rebuild would return, and
it is marked, so simplify() returns it as it is.  mul() sends a merged power
of a constant, quotient, product or power through power() at once (q*q is
num^2/den^2, not Pow(q, 2)).  Only hand-built trees (a Sum or Product
nested in another, say) and the nodes built over them stay unmarked;
simplify() runs where such trees enter: form, vector field and chain cell
construction, and the zero test.

Each compound node keeps its partial derivatives, one per coordinate, for
its lifetime.  exp and sqrt nodes keep none: their derivatives contain the
node itself, and a cached one would be a reference cycle.

One evaluator, a Tape, runs every expression over a batch of points at
once.  A tape lists the distinct nodes (by structural key) of one or more
roots, children before parents, and one loop executes the list, each node
one numpy operation over all rows.  The single-expression evaluators
compile a one-root tape per call; forms, vector fields and chain cells
keep theirs, compiled once per object.  A node that is singular at a row
(division by zero, ln/sqrt outside their domain, atan2(0, 0), overflow)
is NaN there, and NaN reaches the root.  eval_rows returns such rows as
NaN; eval_many, eval_with_scale and eval_at raise SingularityError naming
the first singular subexpression in evaluation order, at its first
singular point, rather than returning NaN or infinity.  Evaluation is
deterministic: the same tree at the same point with the same parameter
bindings produces a bit-identical float, whether the point is evaluated
alone, as a row of a batch, or as one root of a tape with several.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Chart",
    "ScalarExpr",
    "Const",
    "Coord",
    "Param",
    "Sum",
    "Product",
    "Quotient",
    "Pow",
    "Func",
    "ExprError",
    "EvalError",
    "SingularityError",
    "InconclusiveError",
    "const",
    "coord",
    "param",
    "add",
    "mul",
    "quotient",
    "power",
    "negate",
    "func",
    "sin",
    "cos",
    "exp",
    "ln",
    "sqrt",
    "atan2",
    "simplify",
    "differentiate",
    "eval_at",
    "eval_many",
    "eval_rows",
    "Tape",
    "draw_rows",
    "to_text",
    "collect_params",
    "max_coord_index",
    "is_syntactic_zero",
    "Box",
    "default_box",
    "ZeroVerdict",
    "ZeroTester",
    "ZERO",
    "ONE",
]

Number = Union[int, float, Fraction]

FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "atan2": 2,
}


class ExprError(Exception):
    """Base error for expression construction and use."""


class EvalError(ExprError):
    """Evaluation failed: bad point shape or unbound parameter."""


class SingularityError(EvalError):
    """Evaluation hit a singular operation.

    Carries the text of the offending subexpression and the point.
    """

    def __init__(self, message: str, subexpression: "ScalarExpr", point=None):
        super().__init__(message)
        self.subexpression = subexpression
        self.point = point


class InconclusiveError(ExprError):
    """A sampled decision could not be made (all samples invalid)."""


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart; coordinates are referenced by index."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ExprError("chart needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ExprError(f"duplicate coordinate names in chart {self.names}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ExprError(f"chart has no coordinate named {name!r}") from None


def spacetime_chart() -> Chart:
    """The default 4-chart (x, y, z, t)."""
    return Chart(("x", "y", "z", "t"))


# ---------------------------------------------------------------------------
# Node classes


class ScalarExpr:
    # _normal: the node is a fixed point of the full simplify() rebuild (set
    # by the subclass constructors for leaves, by the normalizing
    # constructors for compound nodes); _partials: {coordinate index:
    # derivative}, filled by differentiate()
    __slots__ = ("_key", "_normal", "_partials")

    def _build_key(self) -> str:
        raise NotImplementedError

    @property
    def key(self) -> str:
        """Canonical structural key; equal keys mean equal trees."""
        k = getattr(self, "_key", None)
        if k is None:
            k = self._build_key()
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other):
        return isinstance(other, ScalarExpr) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"

    # arithmetic sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, negate(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), negate(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return quotient(self, as_expr(other))

    def __rtruediv__(self, other):
        return quotient(as_expr(other), self)

    def __pow__(self, k):
        return power(self, k)

    def __neg__(self):
        return negate(self)


def _unmarked(node: ScalarExpr) -> None:
    object.__setattr__(node, "_normal", False)
    object.__setattr__(node, "_partials", None)


def _mark(node: ScalarExpr, normal: bool = True) -> ScalarExpr:
    """node, marked as a fixed point of simplify() when `normal` holds."""
    if normal:
        object.__setattr__(node, "_normal", True)
    return node


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool):
            raise ExprError("booleans are not expression constants")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (float, Fraction)):
            raise ExprError(f"unsupported constant type {type(value).__name__}")
        if isinstance(value, Fraction) and value.numerator.bit_length() > 1000:
            try:
                float(value)  # every constant evaluates as a float
            except OverflowError:
                raise ExprError("exact constant too large for a float") from None
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_normal", True)

    def __setattr__(self, name, value):  # immutability by convention
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        v = self.value
        if isinstance(v, Fraction):
            return f"c{v.numerator}/{v.denominator}"
        return f"cf{v!r}"


class Coord(ScalarExpr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 0:
            raise ExprError(f"coordinate index must be a nonnegative int, got {index!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_normal", True)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return f"x{self.index}"


class Param(ScalarExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ExprError("parameter name must be a nonempty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_normal", True)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return f"p({self.name})"


class Sum(ScalarExpr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)
        _unmarked(self)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return "(+ " + " ".join(t.key for t in self.terms) + ")"


class Product(ScalarExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)
        _unmarked(self)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return "(* " + " ".join(f.key for f in self.factors) + ")"


class Quotient(ScalarExpr):
    __slots__ = ("num", "den")

    def __init__(self, num: ScalarExpr, den: ScalarExpr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        _unmarked(self)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return f"(/ {self.num.key} {self.den.key})"


class Pow(ScalarExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarExpr, exponent: int):
        if not isinstance(exponent, int):
            raise ExprError("power exponents must be integers")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        _unmarked(self)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return f"(^ {self.base.key} {self.exponent})"


class Func(ScalarExpr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        if name not in FUNCTION_ARITY:
            raise ExprError(f"unknown function {name!r}")
        if len(args) != FUNCTION_ARITY[name]:
            raise ExprError(
                f"{name} takes {FUNCTION_ARITY[name]} argument(s), got {len(args)}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        _unmarked(self)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return f"({self.name} " + " ".join(a.key for a in self.args) + ")"


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)


def as_expr(v) -> ScalarExpr:
    if isinstance(v, ScalarExpr):
        return v
    if isinstance(v, (int, float, Fraction)):
        return Const(v)
    raise ExprError(f"cannot interpret {v!r} as an expression")


# ---------------------------------------------------------------------------
# Normalizing constructors.
#
# Each constructor assumes its inputs are already normalized and applies one
# layer of local rules; full simplify() runs these bottom-up.  A node a
# constructor builds is marked normal (see _mark) when every input it was
# built from is marked; it is then a fixed point of that rebuild.


def const(v: Number) -> Const:
    return Const(v)


def coord(index: int) -> Coord:
    return Coord(index)


def param(name: str) -> Param:
    return Param(name)


def _const_value(e: ScalarExpr):
    return e.value if isinstance(e, Const) else None


def _coeff_and_rest(term: ScalarExpr) -> tuple[Number, tuple[ScalarExpr, ...]]:
    """Split a normalized term into (numeric coefficient, symbolic factors)."""
    if isinstance(term, Const):
        return term.value, ()
    if isinstance(term, Product):
        head = term.factors[0]
        if isinstance(head, Const):
            return head.value, term.factors[1:]
        return Fraction(1), term.factors
    return Fraction(1), (term,)


def add(*terms) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    # a term that is itself a Sum comes from a hand-built nested Sum
    normal = all(t._normal and not isinstance(t, Sum) for t in flat)

    # collect like terms keyed on the symbolic factor tuple
    buckets: dict[str, list] = {}
    order: list[str] = []
    for t in flat:
        coeff, rest = _coeff_and_rest(t)
        key = " ".join(f.key for f in rest)
        if key not in buckets:
            buckets[key] = [coeff, rest]
            order.append(key)
        else:
            buckets[key][0] = buckets[key][0] + coeff

    out: list[ScalarExpr] = []
    for key in sorted(order):
        coeff, rest = buckets[key]
        if coeff == 0:
            continue
        if not rest:
            out.append(Const(coeff))
        elif coeff == 1:
            out.append(rest[0] if len(rest) == 1 else _mark(Product(rest), normal))
        else:
            out.append(_mark(Product((Const(coeff),) + rest), normal))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return _mark(Sum(tuple(out)), normal)


def mul(*factors) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    normal = all(f._normal and not isinstance(f, Product) for f in flat)

    coeff: Number = Fraction(1)
    # powers of identical bases are merged: keyed on base key
    bases: dict[str, list] = {}
    order: list[str] = []
    for f in flat:
        if isinstance(f, Const):
            if f.value == 0:
                return ZERO
            coeff = coeff * f.value
            continue
        if isinstance(f, Pow):
            base, expo = f.base, f.exponent
        else:
            base, expo = f, 1
        k = base.key
        if k not in bases:
            bases[k] = [base, expo]
            order.append(k)
        else:
            bases[k][1] += expo

    if coeff == 0:
        return ZERO
    rest: list[ScalarExpr] = []
    folded = False
    for k in sorted(order):
        base, expo = bases[k]
        if expo == 0:
            continue
        if expo == 1:
            rest.append(base)
        elif not normal:
            rest.append(Pow(base, expo))  # over a hand-built input: simplify() rebuilds it
        else:
            # power() folds a constant base and expands a quotient, product
            # or power (q*q is num^2/den^2), as simplify() would
            p = power(base, expo)
            folded = folded or not (isinstance(p, Pow) and p.base is base)
            rest.append(p)
    if folded:
        return mul(*((Const(coeff),) if coeff != 1 else ()), *rest)

    if not rest:
        return Const(coeff)
    if coeff != 1:
        # distribute a bare constant over a lone sum so that c*(a+b) and
        # c*a + c*b collect to the same tree (linear, no expression swell)
        if len(rest) == 1 and isinstance(rest[0], Sum):
            return add(*(mul(Const(coeff), t) for t in rest[0].terms))
        return _mark(Product((Const(coeff),) + tuple(rest)), normal)
    if len(rest) == 1:
        return rest[0]
    return _mark(Product(tuple(rest)), normal)


def negate(e) -> ScalarExpr:
    return mul(MINUS_ONE, as_expr(e))


def _as_monomial(e: ScalarExpr):
    """Decompose into (constant, {base_key: [base, int exponent]}) or None.

    Sums and quotients are not monomials; Func nodes count as atomic bases.
    """
    coeff: Number = Fraction(1)
    bases: dict[str, list] = {}

    def take(base: ScalarExpr, expo: int):
        k = base.key
        if k in bases:
            bases[k][1] += expo
        else:
            bases[k] = [base, expo]

    factors = e.factors if isinstance(e, Product) else (e,)
    for f in factors:
        if isinstance(f, Const):
            coeff = coeff * f.value
        elif isinstance(f, Pow):
            take(f.base, f.exponent)
        elif isinstance(f, (Sum, Quotient)):
            return None
        else:
            take(f, 1)
    return coeff, bases


def _cancel_monomials(num: ScalarExpr, den: ScalarExpr):
    """num/den with common monomial factors cancelled, or None if either
    side is not a monomial.  Equality with the uncancelled quotient holds
    away from the zero locus of the cancelled factors."""
    np_ = _as_monomial(num)
    dp = _as_monomial(den)
    if np_ is None or dp is None:
        return None
    ncoeff, nbases = np_
    dcoeff, dbases = dp
    if dcoeff == 0:
        raise ExprError("constant zero denominator")
    if not any(k in nbases for k in dbases):
        return None
    merged: dict[str, list] = {k: [b, e] for k, (b, e) in nbases.items()}
    for k, (b, e) in dbases.items():
        if k in merged:
            merged[k][1] -= e
        else:
            merged[k] = [b, -e]
    top = [power(b, e) for b, e in merged.values() if e > 0]
    bottom = [power(b, -e) for b, e in merged.values() if e < 0]
    cnum = mul(Const(ncoeff / dcoeff), *top)
    if not bottom:
        return cnum
    cden = mul(*bottom)
    # from normal num and den, top and bottom are normal and share no base,
    # so quotient(cnum, cden) builds this node again
    normal = num._normal and den._normal and cnum._normal and cden._normal
    return _mark(Quotient(cnum, cden), normal)


def quotient(num, den) -> ScalarExpr:
    num = as_expr(num)
    den = as_expr(den)
    dv = _const_value(den)
    if dv is not None:
        if dv == 0:
            raise ExprError("constant zero denominator")
        if isinstance(dv, Fraction):
            return mul(Const(Fraction(1) / dv), num)
        return mul(Const(1.0 / dv), num)
    nv = _const_value(num)
    if nv is not None and nv == 0:
        return ZERO
    cancelled = _cancel_monomials(num, den)
    if cancelled is not None:
        return cancelled
    return _mark(Quotient(num, den), num._normal and den._normal)


# An exact constant power is folded only while its numerator and denominator
# stay within about this many bits; past it the Pow node stays, and evaluates
# in floating point (an overflow there is a SingularityError).
MAX_FOLD_BITS = 1 << 16


def _exact_power_bits(v: Fraction, exponent: int) -> int:
    """The size of v**exponent in bits, to within a factor of two; 0 for 0
    and +-1, whose powers are cheap at any exponent."""
    return (max(abs(v.numerator), v.denominator).bit_length() - 1) * abs(exponent)


def power(base, exponent: int) -> ScalarExpr:
    base = as_expr(base)
    if not isinstance(exponent, int):
        raise ExprError("power exponents must be integers")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    bv = _const_value(base)
    if bv is not None:
        if bv == 0 and exponent < 0:
            raise ExprError("zero base with negative exponent")
        if isinstance(bv, Fraction) and _exact_power_bits(bv, exponent) > MAX_FOLD_BITS:
            return _mark(Pow(base, exponent))
        try:
            return Const(bv ** exponent)
        except (OverflowError, ExprError):  # past the float range
            return _mark(Pow(base, exponent))
    if isinstance(base, Pow):
        return power(base.base, base.exponent * exponent)
    if isinstance(base, Product):
        return mul(*(power(f, exponent) for f in base.factors))
    if isinstance(base, Quotient):
        if exponent > 0:
            return quotient(power(base.num, exponent), power(base.den, exponent))
        return quotient(power(base.den, -exponent), power(base.num, -exponent))
    return _mark(Pow(base, exponent), base._normal)


_EXACT_FUNC_FOLDS = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("exp", Fraction(0)): Fraction(1),
    ("ln", Fraction(1)): Fraction(0),
    ("sqrt", Fraction(0)): Fraction(0),
    ("sqrt", Fraction(1)): Fraction(1),
}

_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


def func(name: str, *args) -> ScalarExpr:
    args = tuple(as_expr(a) for a in args)
    node = _mark(Func(name, args), all(a._normal for a in args))  # validates name, arity
    if name == "atan2":
        yv, xv = _const_value(args[0]), _const_value(args[1])
        if yv is not None and xv is not None and not (yv == 0 and xv == 0):
            return Const(math.atan2(float(yv), float(xv)))
        return node
    av = _const_value(args[0])
    if av is None:
        return node
    exact = _EXACT_FUNC_FOLDS.get((name, av))
    if exact is not None:
        return Const(exact)
    f = _FLOAT_FUNCS[name]
    x = float(av)
    if name == "ln" and x <= 0:
        return node  # surfaces as a singularity at eval time
    if name == "sqrt" and x < 0:
        return node
    try:
        return Const(f(x))
    except (ValueError, OverflowError):
        return node


def sin(e):
    return func("sin", e)


def cos(e):
    return func("cos", e)


def exp(e):
    return func("exp", e)


def ln(e):
    return func("ln", e)


def sqrt(e):
    return func("sqrt", e)


def atan2(y, x):
    return func("atan2", y, x)


def simplify(e: ScalarExpr) -> ScalarExpr:
    """Rebuild the tree bottom-up through the normalizing constructors.

    The rule set is limited to constant folding, like-term collection,
    power normalization, and zero/one elimination, so the result always
    evaluates to the same value as the input wherever the input is defined.
    A node marked normal is returned as it is: the rebuild would equal it.
    """
    e = as_expr(e)
    if e._normal:
        return e
    if isinstance(e, Sum):
        return add(*(simplify(t) for t in e.terms))
    if isinstance(e, Product):
        return mul(*(simplify(f) for f in e.factors))
    if isinstance(e, Quotient):
        return quotient(simplify(e.num), simplify(e.den))
    if isinstance(e, Pow):
        return power(simplify(e.base), e.exponent)
    if isinstance(e, Func):
        return func(e.name, *(simplify(a) for a in e.args))
    raise ExprError(f"unknown node {type(e).__name__}")


def is_syntactic_zero(e: ScalarExpr) -> bool:
    return isinstance(e, Const) and e.value == 0


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: ScalarExpr, index: int) -> ScalarExpr:
    """Exact partial derivative with respect to chart coordinate `index`.

    A compound node keeps each partial for its lifetime, so a subtree shared
    by several constructions is differentiated once per coordinate.  exp and
    sqrt nodes keep none: their derivatives contain the node itself, and a
    cached one would make a reference cycle.
    """
    e = as_expr(e)
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.index == index else ZERO
    if isinstance(e, Func) and e.name in ("exp", "sqrt"):
        return _derivative(e, index)
    cache = e._partials
    if cache is None:
        cache = {}
        object.__setattr__(e, "_partials", cache)
    d = cache.get(index)
    if d is None:
        d = cache[index] = _derivative(e, index)
    return d


def _derivative(e: ScalarExpr, index: int) -> ScalarExpr:
    """One layer of the chain rule over a compound node; the children's
    partials come from differentiate()."""
    if isinstance(e, Sum):
        return add(*(differentiate(t, index) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, index)
            if is_syntactic_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mul(df, *rest))
        return add(*terms) if terms else ZERO
    if isinstance(e, Quotient):
        du = differentiate(e.num, index)
        dv = differentiate(e.den, index)
        num = add(mul(du, e.den), negate(mul(e.num, dv)))
        return quotient(num, power(e.den, 2))
    if isinstance(e, Pow):
        db = differentiate(e.base, index)
        if is_syntactic_zero(db):
            return ZERO
        return mul(Const(e.exponent), power(e.base, e.exponent - 1), db)
    if isinstance(e, Func):
        if e.name == "atan2":
            y, x = e.args
            dy = differentiate(y, index)
            dx = differentiate(x, index)
            num = add(mul(x, dy), negate(mul(y, dx)))
            return quotient(num, add(power(x, 2), power(y, 2)))
        a = e.args[0]
        da = differentiate(a, index)
        if is_syntactic_zero(da):
            return ZERO
        if e.name == "sin":
            return mul(func("cos", a), da)
        if e.name == "cos":
            return negate(mul(func("sin", a), da))
        if e.name == "exp":
            return mul(e, da)
        if e.name == "ln":
            return quotient(da, a)
        if e.name == "sqrt":
            return quotient(da, mul(Const(2), e))
    raise ExprError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Evaluation: one tape executor over a (k, n) array of points (see the
# module docstring); every public evaluator is a thin wrapper over it.


def _children(node: ScalarExpr) -> tuple[ScalarExpr, ...]:
    """The operands of node in evaluation order; () for a leaf.

    A quotient's denominator comes first: its zero test precedes the
    numerator.
    """
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Quotient):
        return (node.den, node.num)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Func):
        return node.args
    return ()


def _subtrees(e: ScalarExpr):
    """Every node object of e, each once."""
    seen: set[int] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(_children(node))


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt}

# tape opcodes, most frequent first: the executor tests them in this order
_PRODUCT, _SUM, _COORD, _CONST, _POW, _QUOTIENT, _FUNC, _ATAN2, _PARAM = range(9)


class Tape:
    """The distinct nodes of one or more roots as a straight-line program.

    Nodes are listed once per structural key, children before parents, in
    the order of a depth-first walk of the roots in turn; instruction i,
    (opcode, payload, operand slots), writes slot i.  `index` maps each
    node's key to its slot and `outputs` holds the roots' slots.  The
    compiler keeps an explicit stack, so depth is not bounded by Python's
    recursion limit.  A tape holds no values: run() executes it over a batch
    of rows.
    """

    def __init__(self, roots: Sequence[ScalarExpr]):
        index: dict[str, int] = {}
        code: list[tuple] = []
        for root in roots:
            stack: list = [root]
            while stack:
                node = stack.pop()
                if type(node) is tuple:  # (opcode, payload, children, key): children done
                    op, arg, kids, key = node
                    index[key] = len(code)
                    code.append((op, arg, [index[c._key] for c in kids]))  # keyed when popped
                    continue
                key = node.key
                if key in index:
                    continue
                t = type(node)
                if t is Product:
                    node = (_PRODUCT, None, node.factors, key)
                elif t is Sum:
                    node = (_SUM, None, node.terms, key)
                elif t is Pow:
                    node = (_POW, node.exponent, (node.base,), key)
                elif t is Quotient:  # the denominator first: its zeros are found first
                    node = (_QUOTIENT, None, (node.den, node.num), key)
                elif t is Func and node.name == "atan2":
                    node = (_ATAN2, None, node.args, key)
                elif t is Func:
                    node = (_FUNC, _UFUNCS[node.name], node.args, key)
                else:
                    index[key] = len(code)
                    if t is Coord:
                        code.append((_COORD, node.index, ()))
                    elif t is Const:
                        code.append((_CONST, float(node.value), ()))
                    elif t is Param:
                        code.append((_PARAM, node.name, ()))
                    else:
                        raise ExprError(f"unknown node {t.__name__}")
                    continue
                stack.append(node)
                stack.extend(reversed(node[2]))
        self.roots = tuple(roots)
        self.code = code
        self.index = index

    @functools.cached_property
    def outputs(self) -> tuple[int, ...]:
        """The roots' slots, in root order."""
        return tuple(self.index[r.key] for r in self.roots)

    @functools.cached_property
    def params(self) -> tuple[str, ...]:
        """The names of the parameters the roots use."""
        return tuple(sorted({arg for op, arg, _ in self.code if op == _PARAM}))

    @functools.cached_property
    def _dead(self) -> tuple[tuple[int, ...], ...]:
        """Per instruction, the slots read there for the last time (roots
        excepted)."""
        last = {}
        for i, (_, _, operands) in enumerate(self.code):
            for s in operands:
                last[s] = i
        for s in self.outputs:
            last.pop(s, None)
        dead: list[list[int]] = [[] for _ in self.code]
        for s, i in last.items():
            dead[i].append(s)
        return tuple(map(tuple, dead))

    def run(self, points: np.ndarray, params: Mapping, keep: bool = False) -> list:
        """Every slot's values at the rows of `points`; singular rows are NaN.

        A parameter binds to one number or to a column of one value per row.
        Unless `keep`, a slot is dropped (None) after its last use and only
        the roots' slots stay.  An infinity becomes NaN where it arises; a
        kept run first goes without that step and repeats with it only when
        some slot holds an infinity, which gives the same bits.
        """
        if not keep:
            return self._execute(points, params, True, self._dead)
        slots = self._execute(points, params, False, ())
        if slots and np.isinf(np.concatenate(slots)).any():
            slots = self._execute(points, params, True, ())
        return slots

    def _execute(self, points: np.ndarray, params: Mapping, finite: bool, dead) -> list:
        k, n = points.shape
        one = np.ones(k)
        slots: list = [None] * len(self.code)
        with np.errstate(all="ignore"):
            for i, (op, arg, operands) in enumerate(self.code):
                if op == _PRODUCT:
                    # 1.0 * x is x to the bit: the product of the factors alone
                    if len(operands) > 1:
                        v = slots[operands[0]] * slots[operands[1]]
                    else:
                        v = one * slots[operands[0]]
                    for s in operands[2:]:
                        v *= slots[s]
                elif op == _SUM:
                    v = np.zeros(k)
                    for s in operands:
                        v += slots[s]
                elif op == _COORD:
                    if arg >= n:
                        raise EvalError(
                            f"points have {n} coordinates but expression uses index {arg}"
                        )
                    v = points[:, arg].copy()
                elif op == _CONST:
                    v = one * arg
                elif op == _POW:
                    b = slots[operands[0]]
                    v = b ** arg
                    if arg == 0:
                        v[np.isnan(b)] = math.nan  # nan ** 0 is 1
                elif op == _QUOTIENT:
                    v = slots[operands[1]] / slots[operands[0]]
                elif op == _FUNC:
                    v = arg(slots[operands[0]])
                elif op == _ATAN2:
                    y, x = slots[operands[0]], slots[operands[1]]
                    v = np.arctan2(y, x)
                    v[(y == 0.0) & (x == 0.0)] = math.nan
                else:
                    try:
                        p = params[arg]
                    except KeyError:
                        raise EvalError(f"unbound parameter {arg!r}") from None
                    v = one * float(p) if np.ndim(p) == 0 else np.array(p, dtype=float)
                if finite:
                    v[np.isinf(v)] = math.nan  # every v here is a new array
                slots[i] = v
                if dead:
                    for s in dead[i]:
                        slots[s] = None
        return slots

    def values(self, points: np.ndarray, params: Mapping) -> list[np.ndarray]:
        """The roots' values at every row, from one run; raises as eval_many
        of each root in turn would, for the first root that fails."""
        try:
            slots = self.run(points, params)
        except EvalError:
            for root in self.roots:
                _run_one(root, points, params)
            raise
        out = [slots[s] for s in self.outputs]
        for root, v in zip(self.roots, out):
            if np.isnan(v).any():
                _run_one(root, points, params)  # raises root's error
        return out

    def at(self, point: Sequence[float], params: Mapping | None = None) -> list[float]:
        """The roots' values at one point, as eval_at of each would give."""
        return [float(v[0]) for v in self.values(_one_row(point), params or {})]


def _fault(node: ScalarExpr, memo: Mapping[str, np.ndarray], i: int) -> str:
    """What makes node singular at row i, its operands being finite there."""
    args = [memo[c.key][i] for c in _children(node)]
    if isinstance(node, Quotient) and args[0] == 0.0:
        return "division by zero"
    if isinstance(node, Pow):
        if node.exponent < 0 and args[0] == 0.0:
            return "zero base with negative exponent"
        return "overflow"
    if isinstance(node, Func):
        if node.name == "atan2" and args[0] == 0.0 and args[1] == 0.0:
            return "atan2(0, 0)"
        if node.name == "ln" and args[0] <= 0.0:
            return "ln of nonpositive value"
        if node.name == "sqrt" and args[0] < 0.0:
            return "sqrt of negative value"
        if node.name == "exp":
            return "overflow"
    return "nonfinite value"


def _singularity(e: ScalarExpr, memo, points: np.ndarray) -> SingularityError:
    """The error for the first node, in evaluation order, with a singular
    row, at that node's first such row; a quotient is singular where its
    denominator is zero before its numerator is reached."""
    seen: set[str] = set()

    def first(node: ScalarExpr):
        key = node.key
        if key in seen:
            return None
        seen.add(key)
        for j, child in enumerate(_children(node)):
            found = first(child)
            if found is not None:
                return found
            if j == 0 and isinstance(node, Quotient):
                zero = memo[child.key] == 0.0
                if zero.any():
                    return node, int(np.argmax(zero))
        bad = np.isnan(memo[key])
        return (node, int(np.argmax(bad))) if bad.any() else None

    try:
        node, i = first(e)
    finally:
        del first  # first refers to itself; break the cycle
    pt = tuple(points[i].tolist())
    return SingularityError(
        f"{_fault(node, memo, i)} in {to_text(node)} at point {pt}", node, pt
    )


def _run_one(e: ScalarExpr, points: np.ndarray, params, raising: bool = True) -> list:
    """Every slot of e's one-root tape at the rows of `points`, the root's
    last; when `raising`, a singular row raises SingularityError."""
    tape = Tape((e,))
    slots = tape.run(points, params, keep=True)
    if raising and np.isnan(slots[-1]).any():
        memo = {key: slots[i] for key, i in tape.index.items()}
        raise _singularity(e, memo, points)
    return slots


def _scale(slots: list) -> np.ndarray:
    """Per row, the largest magnitude over all slots (NaN where one is)."""
    return np.abs(np.concatenate(slots)).reshape(len(slots), -1).max(axis=0)


def _one_row(point: Sequence[float]) -> np.ndarray:
    try:
        return np.array([tuple(float(c) for c in point)])
    except TypeError:
        raise EvalError(f"point must be a coordinate sequence, got {point!r}") from None


def eval_at(
    e: ScalarExpr,
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> float:
    """Evaluate at a numeric point.  Deterministic; raises on singularities."""
    return float(_run_one(e, _one_row(point), params or {})[-1][0])


def eval_with_scale(
    e: ScalarExpr,
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> tuple[float, float]:
    """Evaluate, also returning the largest intermediate magnitude.

    The magnitude feeds the zero test's cancellation-aware tolerance: a
    difference of two large near-equal quantities is judged against the
    size of what was cancelled, not against 1.
    """
    slots = _run_one(e, _one_row(point), params or {})
    return float(slots[-1][0]), float(_scale(slots)[0])


def eval_rows(
    e: ScalarExpr,
    points: np.ndarray,
    params: Mapping[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """eval_with_scale at every row of a (k, n) array, in one pass.

    Returns the values and the largest intermediate magnitudes, both of
    length k and bit-identical row by row to eval_with_scale; `params` maps
    each name to a column of k values (or to one value for all rows).  A
    row where eval_with_scale would raise SingularityError has value NaN.
    """
    slots = _run_one(e, points, params, raising=False)
    return slots[-1], _scale(slots)


def eval_many(
    e: ScalarExpr,
    points: np.ndarray,
    params: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Vectorized evaluation over an (m, n) array of points.

    Used for quadrature and flow integration, where any singular sample is
    an error for the whole batch.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise EvalError("points must be a 2-d array (m, n)")
    return _run_one(e, points, params or {})[-1]


# ---------------------------------------------------------------------------
# Introspection and printing


def collect_params(e: ScalarExpr) -> tuple[str, ...]:
    return tuple(sorted({n.name for n in _subtrees(e) if isinstance(n, Param)}))


def max_coord_index(e: ScalarExpr) -> int:
    """Largest coordinate index used, or -1 if none."""
    return max((n.index for n in _subtrees(e) if isinstance(n, Coord)), default=-1)


def _const_text(v: Number) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def to_text(e: ScalarExpr, chart: Chart | None = None) -> str:
    """Infix rendering, parseable by the expression grammar."""

    def name_of(i: int) -> str:
        if chart is not None and i < chart.dim:
            return chart.names[i]
        return f"x{i}"

    def prec(node) -> int:
        if isinstance(node, Sum):
            return 1
        if isinstance(node, (Product, Quotient)):
            return 2
        if isinstance(node, Pow):
            return 3
        return 4

    def wrap(node, minimum):
        s = rec(node)
        return f"({s})" if prec(node) < minimum else s

    def rec(node) -> str:
        if isinstance(node, Const):
            # a negative constant keeps its sign; callers parenthesize by prec
            return _const_text(node.value)
        if isinstance(node, Coord):
            return name_of(node.index)
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Sum):
            parts = []
            for i, t in enumerate(node.terms):
                s = wrap(t, 2) if i else wrap(t, 1)
                if i and not s.startswith("-"):
                    parts.append("+ " + s)
                elif i:
                    parts.append("- " + s[1:] if s.startswith("-") else s)
                else:
                    parts.append(s)
            return " ".join(parts)
        if isinstance(node, Product):
            fs = node.factors
            if isinstance(fs[0], Const) and fs[0].value == -1 and len(fs) > 1:
                rest = mul_text(fs[1:])
                return f"-{rest}"
            return mul_text(fs)
        if isinstance(node, Quotient):
            return f"{wrap(node.num, 3)} / {wrap(node.den, 3)}"
        if isinstance(node, Pow):
            base = wrap(node.base, 4)
            if base.startswith("-"):  # -3^2 would read as -(3^2)
                base = f"({base})"
            return f"{base}^{node.exponent}"
        if isinstance(node, Func):
            args = ", ".join(rec(a) for a in node.args)
            return f"{node.name}({args})"
        raise ExprError(f"unknown node {type(node).__name__}")

    def mul_text(factors) -> str:
        texts = []
        for f in factors:
            s = wrap(f, 3)
            if s.startswith("-"):
                s = f"({s})"
            texts.append(s)
        return "*".join(texts)

    return rec(e)


# ---------------------------------------------------------------------------
# Probabilistic zero test


@dataclass(frozen=True)
class Box:
    """Sampling domain: per-coordinate intervals, parameter ranges, guards.

    A guard is an expression whose magnitude must stay above guard_tol at a
    sample for the sample to count; it fences off declared singular loci
    (for instance x^2 + y^2 for a form with a polar axis).
    """

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    param_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    guards: tuple[ScalarExpr, ...] = ()
    guard_tol: float = 1e-2

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ExprError("box lows/highs length mismatch")
        for lo, hi in zip(self.lows, self.highs):
            if not lo < hi:
                raise ExprError(f"empty box interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.lows)


def default_box(dim: int) -> Box:
    return Box(lows=(-1.0,) * dim, highs=(1.0,) * dim)


DEFAULT_PARAM_RANGE = (0.25, 1.75)
DEFAULT_SEED = 20180425


def draw_rows(
    box: Box, rng: np.random.Generator, names: Sequence[str], k: int
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """k sample rows from `box`: (k, dim) points and a column per parameter.

    Each row is the box coordinates, then the parameters in `names` order,
    so k rows consume the stream exactly as k single draws of one row each.
    """
    ranges = [box.param_ranges.get(nm, DEFAULT_PARAM_RANGE) for nm in names]
    lows = [*box.lows, *(lo for lo, _ in ranges)]
    highs = [*box.highs, *(hi for _, hi in ranges)]
    rows = rng.uniform(lows, highs, size=(k, len(lows)))
    params = {nm: rows[:, box.dim + j] for j, nm in enumerate(names)}
    return rows[:, : box.dim], params


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of the sampled zero test."""

    zero: bool
    witness: tuple[float, ...] | None = None
    witness_params: dict[str, float] | None = None
    witness_value: float | None = None
    samples: int = 0
    skipped: int = 0
    syntactic: bool = False

    def __bool__(self):
        return self.zero


class ZeroTester:
    """Seeded probabilistic zero test for expressions on a sampling box.

    An expression is reported zero when, after simplification, it either is
    the literal constant 0 or its magnitude stays below
    eps * (1 + largest intermediate magnitude) at every valid sample.
    Samples that hit singularities or the box's guard exclusions are
    skipped; of at most 8 * n_samples rows drawn, if fewer than min_valid
    survive, the test is inconclusive and raises rather than guessing.
    """

    n_samples = 64
    eps = 1e-9
    min_valid = 8

    def __init__(self, box: Box, seed: int = DEFAULT_SEED):
        self.box = box
        self.seed = int(seed)

    def test(self, e: ScalarExpr) -> ZeroVerdict:
        e = simplify(e)
        if isinstance(e, Const):
            v = float(e.value)
            if abs(v) <= self.eps:
                return ZeroVerdict(True, None, None, None, 0, 0, True)
            return ZeroVerdict(False, None, None, v, 0, 0, True)

        box = self.box
        needed = max_coord_index(e) + 1
        for g in box.guards:
            needed = max(needed, max_coord_index(g) + 1)
        if needed > box.dim:
            raise ExprError(
                f"expression uses coordinate index {needed - 1} but the sampling box "
                f"has dimension {box.dim}"
            )

        names = collect_params(e)
        for g in box.guards:
            names = tuple(sorted(set(names) | set(collect_params(g))))
        rng = np.random.default_rng(self.seed)

        # Rows are drawn in chunks no larger than the rows still needed, so
        # the test stops at the same row, with the same counts, as a draw of
        # one row at a time from the same stream.
        valid = 0
        skipped = 0
        attempts = 0
        max_attempts = self.n_samples * 8
        while valid < self.n_samples and attempts < max_attempts:
            k = min(self.n_samples - valid, max_attempts - attempts)
            points, params = draw_rows(box, rng, names, k)
            skip = np.zeros(k, dtype=bool)
            for g in box.guards:
                gv, _ = eval_rows(g, points, params)
                skip |= ~(np.abs(gv) >= box.guard_tol)  # guarded or singular
            v, scale = eval_rows(e, points, params)
            skip |= np.isnan(v)
            over = np.flatnonzero(~skip & (np.abs(v) > self.eps * (1.0 + scale)))
            if over.size:
                i = int(over[0])
                skipped += int(skip[:i].sum())
                valid = attempts + i + 1 - skipped
                pr = {nm: float(params[nm][i]) for nm in names}
                return ZeroVerdict(
                    False, tuple(points[i].tolist()), pr, float(v[i]), valid, skipped, False
                )
            attempts += k
            skipped += int(skip.sum())
            valid = attempts - skipped
        if valid < self.min_valid:
            raise InconclusiveError(
                f"zero test inconclusive: only {valid} valid samples out of "
                f"{attempts} attempts for {to_text(e)}"
            )
        return ZeroVerdict(True, None, None, None, valid, skipped, False)

    def with_guards(self, *guards: ScalarExpr) -> "ZeroTester":
        """A tester with this one's box and seed plus `guards`: the one way to add a guard."""
        return ZeroTester(replace(self.box, guards=(*self.box.guards, *guards)), self.seed)
