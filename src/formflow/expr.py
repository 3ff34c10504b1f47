"""Symbolic scalar expressions over chart coordinates and named parameters.

Expressions are immutable trees built from rational/float constants,
coordinates (by chart index), free parameters (by name), sums, products,
quotients, integer powers, and a small set of unary/binary functions
(sin, cos, exp, ln, sqrt, atan2).  Construction normalizes each node with
a value-preserving rule set: constant folding, like-term collection,
x**0 -> 1, and zero annihilation.  No trigonometric or rational rewrites
are performed; equality of expressions beyond syntax is the job of the
probabilistic zero test, not the simplifier.

Evaluation is deterministic: the same tree at the same point with the same
parameter bindings produces a bit-identical float.  Singular operations
(division by zero, ln/sqrt outside their domain, overflow) raise
SingularityError naming the offending subexpression rather than returning
NaN or infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    __slots__ = ("_key",)

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


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool):
            raise ExprError("booleans are not expression constants")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (float, Fraction)):
            raise ExprError(f"unsupported constant type {type(value).__name__}")
        object.__setattr__(self, "value", value)

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

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return f"p({self.name})"


class Sum(ScalarExpr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return "(+ " + " ".join(t.key for t in self.terms) + ")"


class Product(ScalarExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def _build_key(self):
        return "(* " + " ".join(f.key for f in self.factors) + ")"


class Quotient(ScalarExpr):
    __slots__ = ("num", "den")

    def __init__(self, num: ScalarExpr, den: ScalarExpr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
# layer of local rules; full simplify() runs these bottom-up.


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
            out.append(rest[0] if len(rest) == 1 else Product(rest))
        else:
            out.append(Product((Const(coeff),) + rest))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def mul(*factors) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)

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

    rest: list[ScalarExpr] = []
    for k in sorted(order):
        base, expo = bases[k]
        if expo == 0:
            continue
        rest.append(base if expo == 1 else Pow(base, expo))

    if coeff == 0:
        return ZERO
    if not rest:
        return Const(coeff)
    if coeff != 1:
        # distribute a bare constant over a lone sum so that c*(a+b) and
        # c*a + c*b collect to the same tree (linear, no expression swell)
        if len(rest) == 1 and isinstance(rest[0], Sum):
            return add(*(mul(Const(coeff), t) for t in rest[0].terms))
        return Product((Const(coeff),) + tuple(rest))
    if len(rest) == 1:
        return rest[0]
    return Product(tuple(rest))


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
    return Quotient(cnum, mul(*bottom))


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
    return Quotient(num, den)


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
        try:
            return Const(bv ** exponent)
        except OverflowError:
            return Pow(base, exponent)
    if isinstance(base, Pow):
        return power(base.base, base.exponent * exponent)
    if isinstance(base, Product):
        return mul(*(power(f, exponent) for f in base.factors))
    if isinstance(base, Quotient):
        if exponent > 0:
            return quotient(power(base.num, exponent), power(base.den, exponent))
        return quotient(power(base.den, -exponent), power(base.num, -exponent))
    return Pow(base, exponent)


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
    node = Func(name, args)  # validates name and arity
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
    """
    e = as_expr(e)
    if isinstance(e, (Const, Coord, Param)):
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
    """Exact partial derivative with respect to chart coordinate `index`."""
    e = as_expr(e)
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.index == index else ZERO
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
# Evaluation


def _point_tuple(point) -> tuple[float, ...]:
    try:
        return tuple(float(c) for c in point)
    except TypeError:
        raise EvalError(f"point must be a coordinate sequence, got {point!r}") from None


def eval_at(
    e: ScalarExpr,
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> float:
    """Evaluate at a numeric point.  Deterministic; raises on singularities."""
    value, _ = eval_with_scale(e, point, params)
    return value


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
    pt = _point_tuple(point)
    params = params or {}
    memo: dict[int, float] = {}
    scale = 0.0

    def rec(node: ScalarExpr) -> float:
        nonlocal scale
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            v = float(node.value)
        elif isinstance(node, Coord):
            if node.index >= len(pt):
                raise EvalError(
                    f"point has {len(pt)} coordinates but expression uses index {node.index}"
                )
            v = pt[node.index]
        elif isinstance(node, Param):
            try:
                v = float(params[node.name])
            except KeyError:
                raise EvalError(f"unbound parameter {node.name!r}") from None
        elif isinstance(node, Sum):
            v = 0.0
            for t in node.terms:
                v += rec(t)
        elif isinstance(node, Product):
            v = 1.0
            for f in node.factors:
                v *= rec(f)
        elif isinstance(node, Quotient):
            den = rec(node.den)
            if den == 0.0:
                raise SingularityError(
                    f"division by zero in {to_text(node)} at point {pt}", node, pt
                )
            v = rec(node.num) / den
        elif isinstance(node, Pow):
            b = rec(node.base)
            if b == 0.0 and node.exponent < 0:
                raise SingularityError(
                    f"zero base with negative exponent in {to_text(node)} at point {pt}",
                    node,
                    pt,
                )
            try:
                v = b ** node.exponent
            except OverflowError:
                raise SingularityError(
                    f"overflow in {to_text(node)} at point {pt}", node, pt
                ) from None
        elif isinstance(node, Func):
            if node.name == "atan2":
                ay = rec(node.args[0])
                ax = rec(node.args[1])
                if ay == 0.0 and ax == 0.0:
                    raise SingularityError(
                        f"atan2(0, 0) in {to_text(node)} at point {pt}", node, pt
                    )
                v = math.atan2(ay, ax)
            else:
                a = rec(node.args[0])
                if node.name == "ln" and a <= 0.0:
                    raise SingularityError(
                        f"ln of nonpositive value in {to_text(node)} at point {pt}",
                        node,
                        pt,
                    )
                if node.name == "sqrt" and a < 0.0:
                    raise SingularityError(
                        f"sqrt of negative value in {to_text(node)} at point {pt}",
                        node,
                        pt,
                    )
                try:
                    v = _FLOAT_FUNCS[node.name](a)
                except OverflowError:
                    raise SingularityError(
                        f"overflow in {to_text(node)} at point {pt}", node, pt
                    ) from None
        else:
            raise ExprError(f"unknown node {type(node).__name__}")
        if not math.isfinite(v):
            raise SingularityError(
                f"nonfinite value in {to_text(node)} at point {pt}", node, pt
            )
        memo[id(node)] = v
        a = abs(v)
        if a > scale:
            scale = a
        return v

    return rec(e), scale


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
    m = points.shape[0]
    params = params or {}
    memo: dict[int, np.ndarray] = {}

    def bad_point(mask) -> tuple[float, ...]:
        idx = int(np.argmax(mask))
        return tuple(points[idx])

    def rec(node: ScalarExpr) -> np.ndarray:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            v = np.full(m, float(node.value))
        elif isinstance(node, Coord):
            if node.index >= points.shape[1]:
                raise EvalError(
                    f"points have {points.shape[1]} coordinates but expression uses "
                    f"index {node.index}"
                )
            v = points[:, node.index].copy()
        elif isinstance(node, Param):
            try:
                v = np.full(m, float(params[node.name]))
            except KeyError:
                raise EvalError(f"unbound parameter {node.name!r}") from None
        elif isinstance(node, Sum):
            v = np.zeros(m)
            for t in node.terms:
                v += rec(t)
        elif isinstance(node, Product):
            v = np.ones(m)
            for f in node.factors:
                v *= rec(f)
        elif isinstance(node, Quotient):
            den = rec(node.den)
            zero = den == 0.0
            if zero.any():
                raise SingularityError(
                    f"division by zero in {to_text(node)} at point {bad_point(zero)}",
                    node,
                    bad_point(zero),
                )
            v = rec(node.num) / den
        elif isinstance(node, Pow):
            b = rec(node.base)
            if node.exponent < 0:
                zero = b == 0.0
                if zero.any():
                    raise SingularityError(
                        f"zero base with negative exponent in {to_text(node)} "
                        f"at point {bad_point(zero)}",
                        node,
                        bad_point(zero),
                    )
            with np.errstate(over="ignore"):
                v = b.astype(float) ** node.exponent
        elif isinstance(node, Func):
            if node.name == "atan2":
                ay = rec(node.args[0])
                ax = rec(node.args[1])
                both = (ay == 0.0) & (ax == 0.0)
                if both.any():
                    raise SingularityError(
                        f"atan2(0, 0) in {to_text(node)} at point {bad_point(both)}",
                        node,
                        bad_point(both),
                    )
                v = np.arctan2(ay, ax)
            else:
                a = rec(node.args[0])
                if node.name == "ln":
                    bad = a <= 0.0
                    if bad.any():
                        raise SingularityError(
                            f"ln of nonpositive value in {to_text(node)} at point "
                            f"{bad_point(bad)}",
                            node,
                            bad_point(bad),
                        )
                    v = np.log(a)
                elif node.name == "sqrt":
                    bad = a < 0.0
                    if bad.any():
                        raise SingularityError(
                            f"sqrt of negative value in {to_text(node)} at point "
                            f"{bad_point(bad)}",
                            node,
                            bad_point(bad),
                        )
                    v = np.sqrt(a)
                else:
                    with np.errstate(over="ignore"):
                        v = {"sin": np.sin, "cos": np.cos, "exp": np.exp}[node.name](a)
        else:
            raise ExprError(f"unknown node {type(node).__name__}")
        finite = np.isfinite(v)
        if not finite.all():
            raise SingularityError(
                f"nonfinite value in {to_text(node)} at point {bad_point(~finite)}",
                node,
                bad_point(~finite),
            )
        memo[id(node)] = v
        return v

    return rec(e)


# ---------------------------------------------------------------------------
# Introspection and printing


def collect_params(e: ScalarExpr) -> tuple[str, ...]:
    names: set[str] = set()

    def rec(node):
        if isinstance(node, Param):
            names.add(node.name)
        elif isinstance(node, Sum):
            for t in node.terms:
                rec(t)
        elif isinstance(node, Product):
            for f in node.factors:
                rec(f)
        elif isinstance(node, Quotient):
            rec(node.num)
            rec(node.den)
        elif isinstance(node, Pow):
            rec(node.base)
        elif isinstance(node, Func):
            for a in node.args:
                rec(a)

    rec(e)
    return tuple(sorted(names))


def max_coord_index(e: ScalarExpr) -> int:
    """Largest coordinate index used, or -1 if none."""
    best = -1

    def rec(node):
        nonlocal best
        if isinstance(node, Coord):
            best = max(best, node.index)
        elif isinstance(node, Sum):
            for t in node.terms:
                rec(t)
        elif isinstance(node, Product):
            for f in node.factors:
                rec(f)
        elif isinstance(node, Quotient):
            rec(node.num)
            rec(node.den)
        elif isinstance(node, Pow):
            rec(node.base)
        elif isinstance(node, Func):
            for a in node.args:
                rec(a)

    rec(e)
    return best


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
            return f"{wrap(node.base, 4)}^{node.exponent}"
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
    Samples that hit singularities or guard exclusions are skipped; if
    fewer than min_valid samples survive, the test is inconclusive and
    raises rather than guessing.
    """

    def __init__(
        self,
        box: Box,
        seed: int = 20180425,
        n_samples: int = 64,
        eps: float = 1e-9,
        min_valid: int = 8,
    ):
        self.box = box
        self.seed = int(seed)
        self.n_samples = int(n_samples)
        self.eps = float(eps)
        self.min_valid = int(min_valid)

    def test(self, e: ScalarExpr, extra_guards: Sequence[ScalarExpr] = ()) -> ZeroVerdict:
        e = simplify(e)
        if isinstance(e, Const):
            v = float(e.value)
            if abs(v) <= self.eps:
                return ZeroVerdict(True, None, None, None, 0, 0, True)
            return ZeroVerdict(False, None, None, v, 0, 0, True)

        box = self.box
        needed = max_coord_index(e) + 1
        for g in tuple(box.guards) + tuple(extra_guards):
            needed = max(needed, max_coord_index(g) + 1)
        if needed > box.dim:
            raise ExprError(
                f"expression uses coordinate index {needed - 1} but the sampling box "
                f"has dimension {box.dim}"
            )

        names = collect_params(e)
        for g in extra_guards:
            names = tuple(sorted(set(names) | set(collect_params(g))))
        rng = np.random.default_rng(self.seed)
        guards = tuple(box.guards) + tuple(extra_guards)

        valid = 0
        skipped = 0
        attempts = 0
        max_attempts = self.n_samples * 8
        while valid < self.n_samples and attempts < max_attempts:
            attempts += 1
            pt = tuple(
                float(rng.uniform(lo, hi)) for lo, hi in zip(box.lows, box.highs)
            )
            pr = {}
            for nm in names:
                lo, hi = box.param_ranges.get(nm, DEFAULT_PARAM_RANGE)
                pr[nm] = float(rng.uniform(lo, hi))
            try:
                guarded = False
                for g in guards:
                    gv, _ = eval_with_scale(g, pt, pr)
                    if abs(gv) < box.guard_tol:
                        guarded = True
                        break
                if guarded:
                    skipped += 1
                    continue
                v, scale = eval_with_scale(e, pt, pr)
            except SingularityError:
                skipped += 1
                continue
            valid += 1
            if abs(v) > self.eps * (1.0 + scale):
                return ZeroVerdict(False, pt, pr, v, valid, skipped, False)
        if valid < self.min_valid:
            raise InconclusiveError(
                f"zero test inconclusive: only {valid} valid samples out of "
                f"{attempts} attempts for {to_text(e)}"
            )
        return ZeroVerdict(True, None, None, None, valid, skipped, False)

    def with_guards(self, *guards: ScalarExpr) -> "ZeroTester":
        box = Box(
            lows=self.box.lows,
            highs=self.box.highs,
            param_ranges=self.box.param_ranges,
            guards=tuple(self.box.guards) + tuple(guards),
            guard_tol=self.box.guard_tol,
        )
        return ZeroTester(box, self.seed, self.n_samples, self.eps, self.min_valid)
