"""Independent reference computations used to freeze expected values.

Everything here recomputes a result by a route the library does not use:
polynomial expansion over an exponent-keyed ring, RK4 flow maps with
finite-difference Jacobians and Richardson extrapolation, and direct
Gauss-Legendre quadrature on explicit parametrizations, and sympy, which
reads the library's printed text.  Tests compare library output against
these oracles, never the other way around.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np

import formflow.chains as ch
import formflow.expr as ex
import formflow.finite_topology as ft
import formflow.forms as fm
import formflow.pfaff as pf
import formflow.systems as sy
import formflow.thermo as th

# ---------------------------------------------------------------------------
# Polynomial ring over exponent dictionaries
#
# A polynomial in n variables is {exponent tuple: coefficient}.  Expansion
# here is full distribution, so equal polynomials collapse to equal dicts
# regardless of how the library chose to leave products factored.

Poly = dict[tuple[int, ...], float]


def poly_const(value: float, nvars: int) -> Poly:
    if value == 0:
        return {}
    return {(0,) * nvars: float(value)}


def poly_var(index: int, nvars: int) -> Poly:
    exponent = [0] * nvars
    exponent[index] = 1
    return {tuple(exponent): 1.0}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0.0) + v
        if s == 0.0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0.0) + va * vb
            if s == 0.0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def poly_diff(a: Poly, index: int) -> Poly:
    out: Poly = {}
    for k, v in a.items():
        if k[index] == 0:
            continue
        nk = list(k)
        nk[index] -= 1
        out[tuple(nk)] = v * k[index]
    return out


def poly_is_zero(a: Poly, tol: float = 0.0) -> bool:
    return all(abs(v) <= tol for v in a.values())


def poly_from_expr(e, nvars: int, param_order: tuple[str, ...] = ()) -> Poly | None:
    """Expand a library expression into the ring; None when not polynomial.

    Parameters become extra trailing variables in param_order, so symbolic
    identities in the parameters are checked exactly as well.
    """
    total = nvars + len(param_order)

    def rec(node) -> Poly | None:
        if isinstance(node, ex.Const):
            return poly_const(float(node.value), total)
        if isinstance(node, ex.Coord):
            return poly_var(node.index, total)
        if isinstance(node, ex.Param):
            if node.name not in param_order:
                return None
            return poly_var(nvars + param_order.index(node.name), total)
        if isinstance(node, ex.Sum):
            acc: Poly = {}
            for t in node.terms:
                p = rec(t)
                if p is None:
                    return None
                acc = poly_add(acc, p)
            return acc
        if isinstance(node, ex.Product):
            acc = poly_const(1.0, total)
            for f in node.factors:
                p = rec(f)
                if p is None:
                    return None
                acc = poly_mul(acc, p)
            return acc
        if isinstance(node, ex.Pow):
            if node.exponent < 0:
                return None
            p = rec(node.base)
            if p is None:
                return None
            acc = poly_const(1.0, total)
            for _ in range(node.exponent):
                acc = poly_mul(acc, p)
            return acc
        return None  # Quotient, Func: not polynomial

    return rec(e)


# ---------------------------------------------------------------------------
# Numeric bridges: evaluate forms and fields at points

def value_at(e, point, params=None) -> float:
    """e at one point, from a one-root Tape of e; raises SingularityError
    where e is singular."""
    row = np.array([tuple(float(c) for c in point)])
    return float(ex.Tape((e,)).values(row, params or {})[0][0])


def eval_form(w, point, params=None) -> dict[tuple[int, ...], float]:
    return {
        idx: reference_eval_with_scale(c, point, params)[0] for idx, c in w.coeffs.items()
    }


# ---------------------------------------------------------------------------
# Flow-pullback Lie derivative
#
# L(V)w at p is the t-derivative of the pullback (Phi_t^* w)(p) where Phi_t
# is the time-t flow of V.  The flow is advanced by classical RK4, the flow
# Jacobian by central finite differences, the t-derivative by a central
# difference Richardson-extrapolated over step halving.  The library never
# computes flows for its Lie derivative, so agreement is a genuine check of
# the algebraic route.


# vector field -> its compiled effective components, for the field's lifetime
_FIELD_FUNCS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def rk4_flow(V, point, t: float, steps: int = 2, params=None) -> np.ndarray:
    comps = _FIELD_FUNCS.get(V)
    if comps is None:
        comps = _FIELD_FUNCS[V] = tuple(map(compiled_eval, V.effective_components()))

    def f(x):
        pt = tuple(float(c) for c in x)
        return np.array([c(pt, params) for c in comps])

    x = np.array(point, dtype=float)
    dt = t / steps
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def flow_jacobian(V, point, t: float, delta: float = 1e-5, params=None) -> np.ndarray:
    n = len(point)
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = delta
        plus = rk4_flow(V, np.array(point) + e, t, params=params)
        minus = rk4_flow(V, np.array(point) - e, t, params=params)
        J[:, j] = (plus - minus) / (2 * delta)
    return J


def pullback_values(w, V, point, t: float, params=None) -> dict[tuple[int, ...], float]:
    """(Phi_t^* w) at point, one number per strictly increasing index tuple."""
    image = rk4_flow(V, point, t, params=params)
    wvals = eval_form(w, image, params)
    if w.degree == 0:
        return wvals
    J = flow_jacobian(V, point, t, params=params)
    n = len(point)
    out: dict[tuple[int, ...], float] = {}
    for I in itertools.combinations(range(n), w.degree):
        total = 0.0
        for K, val in wvals.items():
            minor = J[np.ix_(K, I)]
            total += val * np.linalg.det(minor)
        out[I] = total
    return out


def lie_oracle(w, V, point, eps: float = 1e-2, params=None) -> dict[tuple[int, ...], float]:
    """t-derivative of the pullback at t = 0, Richardson-extrapolated."""

    def central(h: float) -> dict[tuple[int, ...], float]:
        plus = pullback_values(w, V, point, h, params=params)
        minus = pullback_values(w, V, point, -h, params=params)
        return {k: (plus[k] - minus[k]) / (2 * h) for k in plus}

    full = central(eps)
    half = central(eps / 2)
    return {k: (4 * half[k] - full[k]) / 3.0 for k in full}


# ---------------------------------------------------------------------------
# Quadrature on explicit parametrizations


def gauss_rule(n: int, lo: float = 0.0, hi: float = 1.0):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * w


def line_integral(w, gamma, dgamma, n: int = 64, params=None) -> float:
    """Integral of a 1-form over u in [0, 1] along gamma with velocity dgamma."""
    us, wts = gauss_rule(n)
    total = 0.0
    for u, wt in zip(us, wts):
        p = gamma(u)
        v = dgamma(u)
        vals = eval_form(w, p, params)
        total += wt * sum(val * v[idx[0]] for idx, val in vals.items())
    return total


def surface_integral(w, sigma, d_du, d_dv, n: int = 32, params=None) -> float:
    """Integral of a 2-form over [0,1]^2 under the map sigma."""
    us, wts = gauss_rule(n)
    total = 0.0
    for u, wu in zip(us, wts):
        for v, wv in zip(us, wts):
            p = sigma(u, v)
            tu = np.array(d_du(u, v))
            tv = np.array(d_dv(u, v))
            vals = eval_form(w, p, params)
            acc = 0.0
            for (i, j), val in vals.items():
                acc += val * (tu[i] * tv[j] - tu[j] * tv[i])
            total += wu * wv * acc
    return total


def circle_path(radius: float = 1.0, center=(0.0, 0.0), plane=(0, 1), dim: int = 4,
                fixed: dict[int, float] | None = None, turns: int = 1):
    """Parametrized circle and its velocity, for line_integral."""
    fixed = fixed or {}
    i, j = plane

    def gamma(u):
        p = [0.0] * dim
        for k, val in fixed.items():
            p[k] = val
        ang = 2 * math.pi * turns * u
        p[i] = center[0] + radius * math.cos(ang)
        p[j] = center[1] + radius * math.sin(ang)
        return tuple(p)

    def dgamma(u):
        v = [0.0] * dim
        ang = 2 * math.pi * turns * u
        rate = 2 * math.pi * turns * radius
        v[i] = -rate * math.sin(ang)
        v[j] = rate * math.cos(ang)
        return tuple(v)

    return gamma, dgamma


def disk_cell(chart: ex.Chart, plane=(0, 1), center=(0.0, 0.0), radius: float = 1.0,
              fixed: dict[int, float] | None = None, name: str = "disk") -> ch.ExprCell:
    """Disk in a coordinate plane: u0 radial, u1 angular; its boundary is
    the matching ch.circle_cell with the same orientation."""
    comps = [ex.ZERO] * chart.dim
    i, j = plane
    r = ex.mul(ex.Const(float(radius)), ex.Coord(0))
    theta = ex.mul(ex.Const(2.0 * math.pi), ex.Coord(1))
    comps[i] = ex.add(ex.Const(float(center[0])), ex.mul(r, ex.cos(theta)))
    comps[j] = ex.add(ex.Const(float(center[1])), ex.mul(r, ex.sin(theta)))
    for k, v in (fixed or {}).items():
        comps[k] = ex.Const(float(v))
    return ch.ExprCell(chart, 2, tuple(comps), name=name)


def box_cell(chart: ex.Chart, spans: dict[int, tuple[float, float]],
             fixed: dict[int, float] | None = None, name: str = "box") -> ch.ExprCell:
    """Axis-aligned p-cube: each mapped axis k sweeps spans[k] linearly in
    its own parameter, in ascending coordinate order."""
    comps = [ex.ZERO] * chart.dim
    for slot, (k, (lo, hi)) in enumerate(sorted(spans.items())):
        comps[k] = ex.add(ex.Const(float(lo)), ex.mul(ex.Const(float(hi - lo)), ex.Coord(slot)))
    for k, v in (fixed or {}).items():
        comps[k] = ex.Const(float(v))
    return ch.ExprCell(chart, len(spans), tuple(comps), name=name)


# ---------------------------------------------------------------------------
# Simplify and differentiate without the per-node caches
#
# simplify as a full bottom-up rebuild of every node through the
# constructors, and differentiate as a fresh recursion on every call.  The
# library must return trees equal to what these return.

def reference_simplify(e):
    e = ex.as_expr(e)
    if isinstance(e, (ex.Const, ex.Coord, ex.Param)):
        return e
    if isinstance(e, ex.Sum):
        return ex.add(*(reference_simplify(t) for t in e.terms))
    if isinstance(e, ex.Product):
        return ex.mul(*(reference_simplify(f) for f in e.factors))
    if isinstance(e, ex.Quotient):
        return ex.quotient(reference_simplify(e.num), reference_simplify(e.den))
    if isinstance(e, ex.Pow):
        return ex.power(reference_simplify(e.base), e.exponent)
    if isinstance(e, ex.Func):
        return ex.func(e.name, *(reference_simplify(a) for a in e.args))
    raise ex.ExprError(f"unknown node {type(e).__name__}")


def reference_differentiate(e, index: int):
    d = reference_differentiate
    e = ex.as_expr(e)
    if isinstance(e, (ex.Const, ex.Param)):
        return ex.ZERO
    if isinstance(e, ex.Coord):
        return ex.ONE if e.index == index else ex.ZERO
    if isinstance(e, ex.Sum):
        return ex.add(*(d(t, index) for t in e.terms))
    if isinstance(e, ex.Product):
        terms = []
        for i, f in enumerate(e.factors):
            df = d(f, index)
            if ex.is_syntactic_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(ex.mul(df, *rest))
        return ex.add(*terms) if terms else ex.ZERO
    if isinstance(e, ex.Quotient):
        du = d(e.num, index)
        dv = d(e.den, index)
        num = ex.add(ex.mul(du, e.den), ex.negate(ex.mul(e.num, dv)))
        return ex.quotient(num, ex.power(e.den, 2))
    if isinstance(e, ex.Pow):
        db = d(e.base, index)
        if ex.is_syntactic_zero(db):
            return ex.ZERO
        return ex.mul(ex.Const(e.exponent), ex.power(e.base, e.exponent - 1), db)
    if isinstance(e, ex.Func):
        if e.name == "atan2":
            y, x = e.args
            num = ex.add(ex.mul(x, d(y, index)), ex.negate(ex.mul(y, d(x, index))))
            return ex.quotient(num, ex.add(ex.power(x, 2), ex.power(y, 2)))
        a = e.args[0]
        da = d(a, index)
        if ex.is_syntactic_zero(da):
            return ex.ZERO
        if e.name == "sin":
            return ex.mul(ex.func("cos", a), da)
        if e.name == "cos":
            return ex.negate(ex.mul(ex.func("sin", a), da))
        if e.name == "exp":
            return ex.mul(e, da)
        if e.name == "ln":
            return ex.quotient(da, a)
        if e.name == "sqrt":
            return ex.quotient(da, ex.mul(ex.Const(2), e))
    raise ex.ExprError(f"unknown node {type(e).__name__}")


def reference_exterior_derivative(w):
    """d of w as every coefficient's partial along every coordinate, each
    kept where dx^k ^ dx^idx does not vanish."""
    out = {}
    for idx, c in w.coeffs.items():
        for k in range(w.chart.dim):
            dc = reference_differentiate(c, k)
            m = fm.merge_sign((k,), idx)
            if m is None or ex.is_syntactic_zero(dc):
                continue
            sign, merged = m
            term = dc if sign == 1 else ex.negate(dc)
            out[merged] = ex.add(out.get(merged, ex.ZERO), term)
    return fm.DifferentialForm(w.chart, w.degree + 1, out)


# ---------------------------------------------------------------------------
# Sums and products rebuilt term by term
#
# add and mul as they were before the constructors handed back the nodes
# they were given: every term of a sum and every constant or power factor
# of a product is built again through its constructor, the term order is
# the keys of the symbolic factors joined afresh, and nothing is kept in a
# run memo.  Over any operands the library must return the node these do.

def _reference_coeff_and_rest(term):
    if isinstance(term, ex.Const):
        return term.value, ()
    if isinstance(term, ex.Product):
        head = term.factors[0]
        if isinstance(head, ex.Const):
            return head.value, term.factors[1:]
        return Fraction(1), term.factors
    return Fraction(1), (term,)


def _reference_rest_order(rest) -> str:
    return rest[0].key if len(rest) == 1 else " ".join(f.key for f in rest)


def reference_add(*terms):
    flat = []
    for t in terms:
        t = ex.as_expr(t)
        if isinstance(t, ex.Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)

    # collect like terms keyed on the symbolic factor tuple
    buckets: dict[tuple, list] = {}
    for t in flat:
        coeff, rest = _reference_coeff_and_rest(t)
        bucket = buckets.get(rest)
        if bucket is None:
            buckets[rest] = [coeff, rest]
        else:
            bucket[0] = bucket[0] + coeff

    out = []
    for coeff, rest in sorted(buckets.values(), key=lambda b: _reference_rest_order(b[1])):
        if coeff == 0:
            continue
        if not rest:
            out.append(ex.Const(coeff))
        elif coeff == 1:
            out.append(rest[0] if len(rest) == 1 else ex.Product(rest))
        else:
            out.append(ex.Product((ex.Const(coeff),) + rest))
    if not out:
        return ex.ZERO
    if len(out) == 1:
        return out[0]
    return ex.Sum(tuple(out))


def reference_mul(*factors):
    flat = []
    for f in factors:
        f = ex.as_expr(f)
        if isinstance(f, ex.Product):
            flat.extend(f.factors)
        else:
            flat.append(f)

    coeff = None  # the product of the constant factors, if any
    # powers of identical bases are merged: keyed on the base node
    bases: dict = {}
    for f in flat:
        t = type(f)
        if t is ex.Const:
            if f.value == 0:
                return ex.ZERO
            coeff = f.value if coeff is None else coeff * f.value
        elif t is ex.Pow:
            bases[f.base] = bases.get(f.base, 0) + f.exponent
        else:
            bases[f] = bases.get(f, 0) + 1
    if coeff is None:
        coeff = Fraction(1)

    if coeff == 0:
        return ex.ZERO
    rest = []
    folded = False
    for base in sorted(bases, key=lambda b: b.key):
        expo = bases[base]
        if expo == 0:
            continue
        if expo == 1:
            rest.append(base)
        else:
            p = ex.power(base, expo)
            folded = folded or not (isinstance(p, ex.Pow) and p.base is base)
            rest.append(p)
    if folded:
        return reference_mul(*((ex.Const(coeff),) if coeff != 1 else ()), *rest)

    if not rest:
        return ex.Const(coeff)
    if coeff != 1:
        # distribute a bare constant over a lone sum
        if len(rest) == 1 and isinstance(rest[0], ex.Sum):
            return reference_add(*(reference_mul(ex.Const(coeff), t) for t in rest[0].terms))
        return ex.Product((ex.Const(coeff),) + tuple(rest))
    if len(rest) == 1:
        return rest[0]
    return ex.Product(tuple(rest))


# ---------------------------------------------------------------------------
# Printing: the recursive printer the library replaced with an explicit
# stack.  The library's text must equal this one's wherever this one
# reaches (it raises RecursionError on trees a few hundred levels deep).

def reference_to_text(e, chart=None) -> str:
    def name_of(i: int) -> str:
        if chart is not None and i < chart.dim:
            return chart.names[i]
        return f"x{i}"

    def prec(node) -> int:
        if isinstance(node, ex.Sum):
            return 1
        if isinstance(node, (ex.Product, ex.Quotient)):
            return 2
        if isinstance(node, ex.Pow):
            return 3
        return 4

    def wrap(node, minimum):
        s = rec(node)
        return f"({s})" if prec(node) < minimum else s

    def rec(node) -> str:
        if isinstance(node, ex.Const):
            return ex._const_text(node.value)
        if isinstance(node, ex.Coord):
            return name_of(node.index)
        if isinstance(node, ex.Param):
            return node.name
        if isinstance(node, ex.Sum):
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
        if isinstance(node, ex.Product):
            fs = node.factors
            if isinstance(fs[0], ex.Const) and fs[0].value == -1 and len(fs) > 1:
                return f"-{mul_text(fs[1:])}"
            return mul_text(fs)
        if isinstance(node, ex.Quotient):
            return f"{wrap(node.num, 3)} / {wrap(node.den, 3)}"
        if isinstance(node, ex.Pow):
            base = wrap(node.base, 4)
            if base.startswith("-"):
                base = f"({base})"
            return f"{base}^{node.exponent}"
        if isinstance(node, ex.Func):
            args = ", ".join(rec(a) for a in node.args)
            return f"{node.name}({args})"
        raise ex.ExprError(f"unknown node {type(node).__name__}")

    def mul_text(factors) -> str:
        texts = []
        for f in factors:
            s = wrap(f, 3)
            if s.startswith("-"):
                s = f"({s})"
            texts.append(s)
        return "*".join(texts)

    try:
        return rec(e)
    finally:
        del rec, wrap, mul_text  # they refer to each other; break the cycle


# ---------------------------------------------------------------------------
# Scalar evaluation: one recursive walk through Python floats
#
# The evaluator as it was before the library ran every node as numpy
# operations over a batch of rows: Python's arithmetic and math functions,
# memoized by node identity, raising at the first singular operation.  A
# node is computed at every point before its parent is, so over several
# points the walk raises at the first node, in evaluation order, that is
# singular at some point, at the first such point.

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


def bounded_text(e) -> str:
    """The text of e in an error message: past 60 characters, its first 60
    and its length."""
    text = ex.to_text(e)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def reference_eval_with_scale(e, point, params=None) -> tuple[float, float]:
    return reference_eval_rows(e, [point], params)[0]


def reference_eval_rows(e, points, params=None) -> list[tuple[float, float]]:
    """(value, largest intermediate magnitude) of e at each of points."""
    pts = [tuple(float(c) for c in p) for p in points]
    params = params or {}
    memo: dict[int, list[float]] = {}
    scales = [0.0] * len(pts)

    def singular(kind, node, i):
        return ex.SingularityError(f"{kind} in {bounded_text(node)} at point {pts[i]}",
                                   node, pts[i])

    def rec(node) -> list[float]:
        got = memo.get(id(node))
        if got is not None:
            return got
        v: list[float] = []
        if isinstance(node, ex.Const):
            v = [float(node.value)] * len(pts)
        elif isinstance(node, ex.Coord):
            for pt in pts:
                if node.index >= len(pt):
                    raise ex.EvalError(
                        f"point has {len(pt)} coordinates but expression uses index {node.index}"
                    )
                v.append(pt[node.index])
        elif isinstance(node, ex.Param):
            try:
                v = [float(params[node.name])] * len(pts)
            except KeyError:
                raise ex.EvalError(f"unbound parameter {node.name!r}") from None
        elif isinstance(node, ex.Sum):
            v = [0.0] * len(pts)
            for t in node.terms:
                v = [a + b for a, b in zip(v, rec(t))]
        elif isinstance(node, ex.Product):
            v = [1.0] * len(pts)
            for f in node.factors:
                v = [a * b for a, b in zip(v, rec(f))]
        elif isinstance(node, ex.Quotient):
            den = rec(node.den)
            for i, d in enumerate(den):
                if d == 0.0:
                    raise singular("division by zero", node, i)
            v = [n / d for n, d in zip(rec(node.num), den)]
        elif isinstance(node, ex.Pow):
            for i, b in enumerate(rec(node.base)):
                if b == 0.0 and node.exponent < 0:
                    raise singular("zero base with negative exponent", node, i)
                try:
                    v.append(b ** node.exponent)
                except OverflowError:
                    raise singular("overflow", node, i) from None
        elif isinstance(node, ex.Func) and node.name == "atan2":
            for i, (ay, ax) in enumerate(zip(rec(node.args[0]), rec(node.args[1]))):
                if ay == 0.0 and ax == 0.0:
                    raise singular("atan2(0, 0)", node, i)
                v.append(math.atan2(ay, ax))
        elif isinstance(node, ex.Func):
            for i, a in enumerate(rec(node.args[0])):
                if node.name == "ln" and a <= 0.0:
                    raise singular("ln of nonpositive value", node, i)
                if node.name == "sqrt" and a < 0.0:
                    raise singular("sqrt of negative value", node, i)
                try:
                    v.append(_MATH_FUNCS[node.name](a))
                except OverflowError:
                    raise singular("overflow", node, i) from None
        else:
            raise ex.ExprError(f"unknown node {type(node).__name__}")
        for i, x in enumerate(v):
            if not math.isfinite(x):
                raise singular("nonfinite value", node, i)
            if abs(x) > scales[i]:
                scales[i] = abs(x)
        memo[id(node)] = v
        return v

    try:
        return list(zip(rec(e), scales))
    finally:
        del rec  # rec refers to itself; break the cycle so the memo dies here


# Compiled scalar evaluation: the walk above unrolled once per tree into a
# straight-line Python function, for oracles that evaluate one tree at many
# points.  Each node is one line with the same float operation, operands in
# the same order, and a node shared by identity is computed once, as the
# memo above computes it.  A call that raises on the way or meets a
# nonfinite intermediate (found from the sum of all of them) returns what
# reference_eval_with_scale returns instead, singularity errors included.

def _atan2(y: float, x: float) -> float:
    if y == 0.0 and x == 0.0:
        raise ZeroDivisionError("atan2(0, 0)")
    return math.atan2(y, x)


def compiled_eval(e):
    """A function (point, params) -> the value reference_eval_with_scale
    gives, for a point given as a tuple of floats."""
    names: dict[int, str] = {}
    consts: dict[str, object] = {}
    lines: list[str] = []

    def rec(node) -> str:
        name = names.get(id(node))
        if name is not None:
            return name
        if isinstance(node, ex.Const):
            rhs = f"_k{len(consts)}"
            consts[rhs] = float(node.value)
        elif isinstance(node, ex.Coord):
            rhs = f"pt[{node.index}]"
        elif isinstance(node, ex.Param):
            rhs = f"float(params[{node.name!r}])"
        elif isinstance(node, ex.Sum):
            rhs = " + ".join(["0.0", *map(rec, node.terms)])
        elif isinstance(node, ex.Product):
            rhs = " * ".join(["1.0", *map(rec, node.factors)])
        elif isinstance(node, ex.Quotient):
            den = rec(node.den)
            rhs = f"{rec(node.num)} / {den}"
        elif isinstance(node, ex.Pow):
            rhs = f"{rec(node.base)} ** {node.exponent}"
        elif isinstance(node, ex.Func) and node.name == "atan2":
            rhs = f"_atan2({rec(node.args[0])}, {rec(node.args[1])})"
        elif isinstance(node, ex.Func):
            rhs = f"_{node.name}({rec(node.args[0])})"
        else:
            raise ex.ExprError(f"unknown node {type(node).__name__}")
        name = names[id(node)] = f"v{len(names)}"
        lines.append(f"    {name} = {rhs}")
        return name

    try:
        root = rec(e)
    finally:
        del rec  # rec refers to itself; break the cycle
    source = "\n".join([
        "def body(pt, params):",
        *lines,
        f"    if not isfinite(fsum(({', '.join(names.values())},))):",
        "        return None",
        f"    return {root}",
    ])
    scope = {"isfinite": math.isfinite, "fsum": math.fsum, "_atan2": _atan2,
             **{f"_{k}": f for k, f in _MATH_FUNCS.items()}, **consts}
    exec(source, scope)
    body = scope["body"]

    def fn(pt, params=None):
        params = params or {}
        try:
            v = body(pt, params)
        except (ArithmeticError, ValueError, LookupError):
            v = None
        return reference_eval_with_scale(e, pt, params)[0] if v is None else v

    return fn


# ---------------------------------------------------------------------------
# Scalar sampling loops: one row at a time, one eval_with_scale walk per row
#
# This is the zero test as it was before the library drew and evaluated its
# samples in chunks; the library must return exactly what it returns.

def reference_zero_test(tester: ex.ZeroTester, e, extra_guards=()) -> ex.ZeroVerdict:
    e = reference_simplify(e)
    if isinstance(e, ex.Const):
        v = float(e.value)
        if abs(v) <= tester.eps:
            return ex.ZeroVerdict(True, None, None, None, 0, 0, True)
        return ex.ZeroVerdict(False, None, None, v, 0, 0, True)

    box = tester.box
    needed = max(ex.Tape((e,)).coords, default=-1) + 1
    for g in tuple(box.guards) + tuple(extra_guards):
        needed = max(needed, max(ex.Tape((g,)).coords, default=-1) + 1)
    if needed > box.dim:
        raise ex.ExprError(
            f"expression uses coordinate index {needed - 1} but the sampling box "
            f"has dimension {box.dim}"
        )

    guards = tuple(box.guards) + tuple(extra_guards)
    names = ex.Tape((e,)).params
    for g in guards:
        names = tuple(sorted(set(names) | set(ex.Tape((g,)).params)))
    rng = np.random.default_rng(tester.seed)

    valid = 0
    skipped = 0
    attempts = 0
    max_attempts = tester.n_samples * 8
    while valid < tester.n_samples and attempts < max_attempts:
        attempts += 1
        pt = tuple(
            float(rng.uniform(lo, hi)) for lo, hi in zip(box.lows, box.highs)
        )
        pr = {}
        for nm in names:
            lo, hi = box.param_ranges.get(nm, ex.DEFAULT_PARAM_RANGE)
            pr[nm] = float(rng.uniform(lo, hi))
        try:
            guarded = False
            for g in guards:
                gv, _ = ex.eval_with_scale(g, pt, pr)
                if abs(gv) < box.guard_tol:
                    guarded = True
                    break
            if guarded:
                skipped += 1
                continue
            v, scale = ex.eval_with_scale(e, pt, pr)
        except ex.SingularityError:
            skipped += 1
            continue
        valid += 1
        if abs(v) > tester.eps * (1.0 + scale):
            return ex.ZeroVerdict(False, pt, pr, v, valid, skipped, False)
    if valid < tester.min_valid:
        raise ex.InconclusiveError(
            f"zero test inconclusive: only {valid} valid samples out of "
            f"{attempts} attempts for {bounded_text(e)}"
        )
    return ex.ZeroVerdict(True, None, None, None, valid, skipped, False)


def reference_sampled(tester: ex.ZeroTester, e) -> ex.ZeroVerdict:
    """The sampled verdict on the simplified, non-constant tree e, as
    ZeroTester._sampled gave it before a tester kept tapes per row set:
    one one-root tape of e, every chunk of rows run through it."""
    tape, guards = ex.Tape((e,)), ex.Tape(tester.box.guards)
    needed = max((*tape.coords, *guards.coords), default=-1) + 1
    if needed > tester.box.dim:
        raise ex.ExprError(
            f"expression uses coordinate index {needed - 1} but the sampling box "
            f"has dimension {tester.box.dim}"
        )
    names = tuple(sorted({*tape.params, *guards.params}))
    # the rows the tester draws for these names
    points, params = ex.draw_rows(tester.box, np.random.default_rng(tester.seed), names,
                                  8 * tester.n_samples)
    slots = guards.run(points, params)
    guarded = np.zeros(len(points), dtype=bool)
    for s in guards.outputs:
        guarded |= ~(np.abs(slots[s]) >= tester.box.guard_tol)

    valid = 0
    skipped = 0
    attempts = 0
    max_attempts = len(points)
    while valid < tester.n_samples and attempts < max_attempts:
        k = min(tester.n_samples - valid, max_attempts - attempts)
        chunk = slice(attempts, attempts + k)
        (v,), (scale,) = reference_scaled_rows(
            tape, points[chunk], {nm: col[chunk] for nm, col in params.items()}
        )
        skip = guarded[chunk] | np.isnan(v)
        over = np.flatnonzero(~skip & (np.abs(v) > tester.eps * (1.0 + scale)))
        if over.size:
            i = int(over[0])
            skipped += int(skip[:i].sum())
            valid = attempts + i + 1 - skipped
            pr = {nm: float(col[attempts + i]) for nm, col in params.items()}
            return ex.ZeroVerdict(False, tuple(points[attempts + i].tolist()), pr,
                                  float(v[i]), valid, skipped, False)
        attempts += k
        skipped += int(skip.sum())
        valid = attempts - skipped
    if valid < tester.min_valid:
        raise ex.InconclusiveError(
            f"zero test inconclusive: only {valid} valid samples out of "
            f"{attempts} attempts for {bounded_text(e)}"
        )
    return ex.ZeroVerdict(True, None, None, None, valid, skipped, False)


# ---------------------------------------------------------------------------
# Chain layer, one time and one call at a time
#
# Advection, quadrature and the invariance stencil as they were before the
# library batched them: every advect runs its own RK4 loop per cell, every
# integrate recomputes its Gauss-Legendre rule, barycentric weights,
# interpolation and differentiation matrices and differentiates each cell
# map again.  The library must return exactly what these return.

def reference_gl_axis(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def reference_barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    n = len(nodes)
    w = np.ones(n)
    for j in range(n):
        diff = nodes[j] - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w


def reference_interp_matrix(nodes, weights, query) -> np.ndarray:
    L = np.zeros((len(query), len(nodes)))
    for qi, q in enumerate(query):
        diff = q - nodes
        hit = np.where(np.abs(diff) < 1e-14)[0]
        if hit.size:
            L[qi, hit[0]] = 1.0
            continue
        terms = weights / diff
        L[qi] = terms / terms.sum()
    return L


def reference_diff_matrix(nodes, weights) -> np.ndarray:
    n = len(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (weights[j] / weights[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, np.arange(n) != i])
    return D


def _reference_grid_points(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _reference_interp_grid(cell, axes, derivative_axis) -> np.ndarray:
    out = cell.values
    for k, q in enumerate(axes):
        nodes = cell.node_axes[k]
        weights = reference_barycentric_weights(nodes)
        L = reference_interp_matrix(nodes, weights, np.asarray(q))
        if derivative_axis == k:
            L = L @ reference_diff_matrix(nodes, weights)
        out = np.moveaxis(np.tensordot(L, out, axes=(1, k)), 0, k)
    return out


def _reference_map_values(cell, e, U, params) -> np.ndarray:
    """e, a component of cell's map or one of its partials, at the rows of
    U; a singular row names the cell and reads in u0..u{p-1}."""
    try:
        return ex.Tape((e,)).values(U, dict(params or {}), ch.param_chart(cell.degree))[0]
    except ex.SingularityError as err:
        raise ex.SingularityError(
            f"cell map singular on cell {cell.name or '?'}: {err}", err.subexpression, err.point
        ) from err


def reference_eval_grid(cell, axes, params=None) -> np.ndarray:
    if isinstance(cell, ch.InterpCell):
        return _reference_interp_grid(cell, axes, None)
    U = _reference_grid_points(axes)
    cols = [_reference_map_values(cell, c, U, params) for c in cell.components]
    return np.stack(cols, axis=-1).reshape(tuple(len(a) for a in axes) + (cell.chart.dim,))


def reference_jacobian_grid(cell, axes, params=None) -> np.ndarray:
    if isinstance(cell, ch.InterpCell):
        return np.stack(
            [_reference_interp_grid(cell, axes, j) for j in range(cell.degree)], axis=-1
        )
    U = _reference_grid_points(axes)
    n, p = cell.chart.dim, cell.degree
    J = np.empty((U.shape[0], n, p))
    for i, c in enumerate(cell.components):
        for j in range(p):
            J[:, i, j] = _reference_map_values(cell, ex.differentiate(c, j), U, params)
    return J.reshape(tuple(len(a) for a in axes) + (n, p))


def reference_minor(M: np.ndarray) -> np.ndarray:
    """det of each k x k matrix of the stack M (shape (rows, k, k)) from the
    Leibniz definition: sum over the permutations s of range(k), in
    itertools order, of sign(s) * M[0, s(0)] * ... * M[k-1, s(k-1)], with
    sign(s) = (-1)^(number of inversions of s), each product taken left to
    right and the sum accumulated from the first (identity) term."""
    k = M.shape[-1]
    total = None
    for s in itertools.permutations(range(k)):
        inversions = 0
        for i in range(k):
            for j in range(i + 1, k):
                if s[i] > s[j]:
                    inversions += 1
        term = M[:, 0, s[0]].copy()
        for i in range(1, k):
            term = term * M[:, i, s[i]]
        if total is None:
            total = term
        elif inversions % 2:
            total = total - term
        else:
            total = total + term
    return total


def reference_integrate(w, chain, order=None, params=None) -> ch.IntegralResult:
    order = order or ch.DEFAULT_QUAD_ORDER[chain.degree]
    params = dict(params or {})
    cell = chain.cell

    def run(o: int) -> tuple[float, float]:
        nodes, wts = reference_gl_axis(o)
        axes = [nodes] * chain.degree
        X = reference_eval_grid(cell, axes, params)
        J = reference_jacobian_grid(cell, axes, params)
        flatX = X.reshape(-1, w.chart.dim)
        flatJ = J.reshape(-1, w.chart.dim, chain.degree)
        vals = np.zeros(flatX.shape[0])
        for idx, c in w.coeffs.items():
            try:
                coeff_vals = ex.Tape((c,)).values(flatX, params, w.chart)[0]
            except ex.SingularityError as err:
                raise ex.SingularityError(
                    f"integrand singular on cell {cell.name or '?'}: {err}",
                    err.subexpression,
                    err.point,
                ) from err
            vals += coeff_vals * reference_minor(flatJ[:, list(idx), :])
        weight = wts
        for _ in range(chain.degree - 1):
            weight = np.multiply.outer(weight, wts)
        weight = weight.ravel()
        return float(vals @ weight), float(np.abs(vals) @ weight)

    coarse, _ = run(order)
    fine, scale = run(2 * order)
    return ch.IntegralResult(fine, abs(fine - coarse), scale, order)


def reference_rk4_flow(V, X0, dt: float, steps: int, params=None) -> np.ndarray:
    comps = V.effective_components()
    bound = dict(params or {})

    def f(X):
        return np.stack([ex.eval_many(c, X, bound) for c in comps], axis=-1)

    X = np.array(X0, dtype=float)
    h = dt / steps
    for _ in range(steps):
        k1 = f(X)
        k2 = f(X + 0.5 * h * k1)
        k3 = f(X + 0.5 * h * k2)
        k4 = f(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > 1e8:
            raise ch.AdvectionError("flow left the computational domain (blow-up)")
    return X


def reference_advect(chain, V, dt: float, steps=None, fit_nodes=None, params=None):
    if dt == 0.0:
        return chain
    steps = steps or max(8, int(math.ceil(abs(dt) / 0.02)))
    cell = chain.cell
    if isinstance(cell, ch.InterpCell):
        axes = cell.node_axes
    else:
        n = fit_nodes or ch.DEFAULT_FIT_NODES[cell.degree]
        axes = tuple(
            (1.0 - np.cos(np.pi * np.arange(n) / (n - 1))) / 2.0 for _ in range(cell.degree)
        )
    X = reference_eval_grid(cell, axes, params)
    moved = reference_rk4_flow(V, X.reshape(-1, cell.chart.dim), dt, steps, params)
    fitted = ch.InterpCell(cell.chart, cell.degree, tuple(axes), moved.reshape(X.shape), cell.name)
    return ch.Chain(fitted, chain.closed)


def reference_invariance_check(w, chain, V, mode="invariant", h=0.02, tol=1e-6,
                               order=None, steps=None, drift_factor=100.0, params=None):
    def at(t: float) -> float:
        moved = reference_advect(chain, V, t, steps=steps, params=params)
        return reference_integrate(w, moved, order=order, params=params).value

    i_ph, i_mh = at(h), at(-h)
    i_p2, i_m2 = at(2 * h), at(-2 * h)
    derivative = (8.0 * (i_ph - i_mh) - (i_p2 - i_m2)) / (12.0 * h)
    base = reference_integrate(w, chain, order=order, params=params)
    lie = reference_integrate(fm.lie_derivative(V, w), chain, order=order, params=params)
    scale = 1.0 + base.scale + lie.scale
    gap = abs(derivative - lie.value)
    if mode == "invariant":
        passed = abs(derivative) <= tol * scale
    elif mode == "drift":
        passed = abs(derivative) >= drift_factor * tol * scale
    else:
        passed = gap <= tol * scale
    return ch.InvarianceResult(derivative, lie.value, scale, tol, mode, passed, gap)


# ---------------------------------------------------------------------------
# The tape executor that sweeps every instruction
#
# Tape.run as it was while every instruction's value was swept for
# infinities as it was made; a kept run went unswept and repeated swept
# when some slot held an infinity.  Tape.run and Tape.grow, which sweep
# only loaded values unless an operation raises numpy's overflow or
# divide-by-zero flag, must give these bits, and grow() the scales of
# reference_scaled_rows.


def reference_tape_run(tape: ex.Tape, points: np.ndarray, params, keep: bool = False) -> list:
    if not keep:
        return _reference_tape_execute(tape, points, params, True, tape._dead)
    slots = _reference_tape_execute(tape, points, params, False, ())
    if slots and np.isinf(np.concatenate(slots)).any():
        slots = _reference_tape_execute(tape, points, params, True, ())
    return slots


def reference_scaled_rows(tape: ex.Tape, points: np.ndarray, params) -> tuple[list, list]:
    """Each root's values and, per row, the largest magnitude over the slots
    of its subtree, from one kept run: a root's scale is its own whatever
    other roots the tape holds."""
    slots = reference_tape_run(tape, points, params, keep=True)
    scales = []
    for root in tape.outputs:
        subtree, stack = {root}, [root]
        while stack:
            new = set(tape.code[stack.pop()][2]) - subtree
            subtree |= new
            stack.extend(new)
        scales.append(np.abs(np.array([slots[s] for s in sorted(subtree)])).max(axis=0))
    return [slots[s] for s in tape.outputs], scales


def _reference_tape_execute(tape: ex.Tape, points: np.ndarray, params, finite: bool, dead) -> list:
    k, n = points.shape
    one = np.ones(k)
    slots: list = [None] * len(tape.code)
    with np.errstate(all="ignore"):
        for i, (op, arg, operands) in enumerate(tape.code):
            if op == ex._PRODUCT:
                if len(operands) > 1:
                    v = slots[operands[0]] * slots[operands[1]]
                else:
                    v = one * slots[operands[0]]
                for s in operands[2:]:
                    v *= slots[s]
            elif op == ex._SUM:
                v = np.zeros(k)
                for s in operands:
                    v += slots[s]
            elif op == ex._COORD:
                if arg >= n:
                    raise ex.EvalError(
                        f"points have {n} coordinates but expression uses index {arg}"
                    )
                v = points[:, arg].copy()
            elif op == ex._CONST:
                v = one * arg
            elif op == ex._POW:
                b = slots[operands[0]]
                v = b ** arg
                if arg == 0:
                    v[np.isnan(b)] = math.nan
            elif op == ex._QUOTIENT:
                v = slots[operands[1]] / slots[operands[0]]
            elif op == ex._FUNC:
                v = arg(slots[operands[0]])
            elif op == ex._ATAN2:
                y, x = slots[operands[0]], slots[operands[1]]
                v = np.arctan2(y, x)
                v[(y == 0.0) & (x == 0.0)] = math.nan
            else:
                try:
                    p = params[arg]
                except KeyError:
                    raise ex.EvalError(f"unbound parameter {arg!r}") from None
                v = one * float(p) if np.ndim(p) == 0 else np.array(p, dtype=float)
            if finite:
                v[np.isinf(v)] = math.nan
            slots[i] = v
            if dead:
                for s in dead[i]:
                    slots[s] = None
    return slots


# ---------------------------------------------------------------------------
# Topology axioms on frozensets


def reference_is_topology(sets, ground) -> ft.TopologyVerdict:
    """is_topology over the sets themselves: every pair's union and
    intersection looked up as a frozenset, the first failure reported."""
    ground = frozenset(ground)
    opens = ft._canon_sets(sets)
    for s in opens:
        if not s <= ground:
            return ft.TopologyVerdict(False, f"set {ft._fmt(s)} is not a subset of the ground set")
    have = set(opens)
    if frozenset() not in have:
        return ft.TopologyVerdict(False, "empty set missing", missing_set=frozenset())
    if ground not in have:
        return ft.TopologyVerdict(False, "ground set missing", missing_set=ground)
    for a, b in itertools.combinations(opens, 2):
        for kind, sign, out in (("union", "|", a | b), ("intersection", "&", a & b)):
            if out not in have:
                return ft.TopologyVerdict(
                    False,
                    f"{kind} {ft._fmt(a)} {sign} {ft._fmt(b)} = {ft._fmt(out)} is not open",
                    offending_pair=(a, b),
                    missing_set=out,
                )
    return ft.TopologyVerdict(True)


# ---------------------------------------------------------------------------
# Identities that hold by construction
#
# A run does not re-check these theorems of the calculus; the tests do, on
# the corpus and on the trees of the bench jobs.  Each helper returns
# (identity, tester, residual) triples: every residual must be a zero
# verdict on its tester, and exactly 0 under sympy on rational trees.


def volume_form(chart: ex.Chart) -> fm.DifferentialForm:
    """dx^dy^..., the top-degree form with coefficient 1."""
    return fm.DifferentialForm(chart, chart.dim, {tuple(range(chart.dim)): ex.ONE})


def with_guards(tester: ex.ZeroTester, *guards) -> ex.ZeroTester:
    """A fresh tester with tester's box and seed and guards added."""
    return ex.ZeroTester(replace(tester.box, guards=(*tester.box.guards, *guards)), tester.seed)


def _residuals(name: str, tester: ex.ZeroTester, x) -> list:
    """One triple per coefficient of a form x, per entry of a sequence, or for x."""
    if isinstance(x, fm.DifferentialForm):
        x = tuple(x.coeffs.values())
    return [(name, tester, e) for e in ((x,) if isinstance(x, ex.ScalarExpr) else x)]


def torsion_residuals(a: pf.Anatomy) -> list:
    """i(T)Omega = A^dA, i(T)A = 0, d(A^dA) = dA^dA, every component's
    quotient giving Gamma, and i(T)dA = Gamma*A, for a 1-form on a 4-chart.

    The quotients are tested off the zeros of the components they divide
    by, as the Gamma of torsion_data is read off the first one."""
    A, tester = a.A, a.context
    T, gamma = a.torsion.vector, a.torsion.gamma
    M = fm.interior(T, a.dA)
    out = [
        *_residuals("i(T)Omega = A^dA", tester,
                    fm.sub_forms(fm.interior(T, volume_form(A.chart)), a.H)),
        *_residuals("i(T)A = 0", tester, fm.interior(T, A)),
        *_residuals("d(A^dA) = dA^dA", tester,
                    fm.sub_forms(fm.exterior_derivative(a.H), pf.parity(a)[0])),
    ]
    lead = [A.coeff((mu,)) for mu in range(A.chart.dim)]
    nonzero = [mu for mu, c in enumerate(lead) if not ex.is_syntactic_zero(c)]
    if nonzero:
        first = lead[nonzero[0]]
        for mu in nonzero[1:]:
            out += _residuals(f"Gamma from component {mu}", with_guards(tester, first, lead[mu]),
                              gamma - ex.quotient(M.coeff((mu,)), lead[mu]))
        out += _residuals("i(T)dA = Gamma*A", with_guards(tester, first),
                          fm.sub_forms(M, fm.scale_form(gamma, A)))
    return out


def mass_residuals(rho, v, tester: ex.ZeroTester) -> list:
    """dJ = -(div(rho v) + drho/dt) Omega for the transversal mass current."""
    m = sy.mass_current(rho, v)
    return _residuals("dJ = -residual*Omega", tester, fm.add_forms(
        fm.exterior_derivative(m.J), fm.scale_form(m.residual, volume_form(sy.SPACETIME))))


def listed_residuals(name: str, tester: ex.ZeroTester, T: fm.VectorField, listed) -> list:
    """T = COMPONENT_LIST_SIGN * listed, for a classical (T_x, T_y, T_z, h)
    list; the sign is read when called."""
    sign = ex.Const(sy.COMPONENT_LIST_SIGN)
    return _residuals(name, tester, [t - sign * c for t, c in zip(T.components, listed)])


def fluid_residuals(s: sy.FluidSystem, a: pf.Anatomy) -> list:
    """The induction identities, the torsion balance law and the listed
    torsion current, the first-law work split, the engineering torsion
    difference, K = 2 a.omega and the unit-density mass current, for any
    velocity; a is the anatomy of s.action()."""
    tester, v = a.context, s.velocity
    vort = sy.vorticity_fields(s)
    omega, acc = vort.omega, vort.acceleration
    built = fm.form_from_coeffs(sy.SPACETIME, 2, {
        (0, 1): omega[2], (1, 2): omega[0], (0, 2): -omega[1],
        (0, 3): acc[0], (1, 3): acc[1], (2, 3): acc[2],
    })
    torsion = sy.torsion_current(s)
    current, h = torsion.current, torsion.helicity_density
    eng = sy.ns_engineering_torsion(s, a)
    residual = eng.ns.residual
    split = fm.sub_forms(
        fm.interior(s.spacetime_velocity(), a.dA),
        fm.add_forms(eng.ns.work_form, sy._transversal_form(residual, v)),
    )
    return [
        *_residuals("dA = F(omega, a)", tester, fm.sub_forms(built, a.dA)),
        *_residuals("curl a + d(omega)/dt = 0", tester,
                    sy._add3(sy._curl(acc), sy._time(omega))),
        *_residuals("div omega = 0", tester, sy._div(omega)),
        *_residuals("div T + dh/dt = anomaly", tester,
                    sy._div(current) + ex.differentiate(h, 3) - torsion.anomaly),
        *listed_residuals("T = sign*(a x v + H omega, v.omega)", tester, a.torsion.vector,
                          (*current, h)),
        *_residuals("i(V)dA = work + residual.(dx - v dt)", tester, split),
        *_residuals("kinematic - engineering = -(residual x v)", tester,
                    sy._add3(sy._sub3(eng.kinematic.current, eng.current),
                             sy._cross(residual, v))),
        *_residuals("K = 2 a.omega", tester, pf.parity(a)[1] - ex.mul(
            ex.Const(2), sy._dot(s.acceleration, s.omega))),
        *mass_residuals(ex.ONE, v, tester),
    ]


def em_residuals(s: sy.EMSystem, a: pf.Anatomy) -> list:
    """dF = 0, the listed torsion current, Gamma = E.B, k = 2 E.B and the
    divergence law div T + dh/dt = -2 E.B, for any potentials; a is the
    anatomy of s.action()."""
    tester, rep = a.context, sy.em_diagnostics(s, a)
    EdotB = sy._dot(rep.E, rep.B)
    h = rep.helicity_density
    return [
        *_residuals("dF = 0", tester, fm.exterior_derivative(a.dA)),
        *listed_residuals("T = sign*(E x A + phi B, A.B)", tester, rep.torsion.vector,
                          (*rep.current, h)),
        *_residuals("Gamma = E.B", tester, rep.torsion.gamma - EdotB),
        *_residuals("k = 2 E.B", tester, rep.parity_coefficient - 2 * EdotB),
        *_residuals("div T + dh/dt = -2 E.B", tester,
                    sy._div(rep.current) + ex.differentiate(h, 3) + 2 * EdotB),
    ]


def process_residuals(a: pf.Anatomy, J: fm.VectorField) -> list:
    """W + dU = L(J)A, dQ = dW and i(J)W = 0 for the first-law split of
    a.A along J."""
    Q, W, _ = th.first_law(a, J)
    return [
        *_residuals("W + dU = L(J)A", a.context, fm.sub_forms(Q, fm.lie_derivative(J, a.A))),
        *_residuals("dQ = dW", a.context,
                    fm.sub_forms(fm.exterior_derivative(Q), fm.exterior_derivative(W))),
        *_residuals("i(J)W = 0", a.context, fm.interior(J, W)),
    ]


def second_variation_residuals(a: pf.Anatomy, J: fm.VectorField) -> list:
    """R - d(i(J)Q) = i(J)dQ, dR = d(i(J)dQ) and
    L(J)(Q^F) - d(i(J)Q F) = i(J)dQ^F + Q^dQ for R = L(J)Q, the heat form
    Q of a.A along J and F = dA.  On a closed flow, dQ = 0, they read
    R = d(i(J)Q), dR = 0 and L(J)(Q^F) = d(i(J)Q F): the three fields that
    thermo.second_variation writes True."""
    Q, d = th.first_law(a, J)[0], fm.exterior_derivative
    F, dQ, potential = a.dA, d(Q), fm.interior(J, Q)
    R, iJdQ = fm.lie_derivative(J, Q), fm.interior(J, dQ)
    return [
        *_residuals("R - d(i(J)Q) = i(J)dQ", a.context, R - d(potential) - iJdQ),
        *_residuals("dR = d(i(J)dQ)", a.context, d(R) - d(iJdQ)),
        *_residuals("L(J)(Q^F) - d(i(J)Q F) = i(J)dQ^F + Q^dQ", a.context,
                    fm.lie_derivative(J, fm.wedge(Q, F)) - d(fm.wedge(potential, F))
                    - fm.wedge(iJdQ, F) - fm.wedge(Q, dQ)),
    ]


def failing(residuals) -> list[str]:
    """The identities, each once, with a residual that is not a zero verdict
    on its tester."""
    return list(dict.fromkeys(name for name, tester, e in residuals if not tester.test(e)))


def run_residuals(rt) -> list:
    """Every identity above that a run's Runtime rt holds by construction:
    its action's torsion identities on a 4-chart, its fluid or
    electromagnetic system's, and the first-law split and second variation
    along each of its processes."""
    a, out = rt.anatomy, []
    if a.A.chart.dim == 4 and a.A.degree == 1:
        out += torsion_residuals(a)
    if isinstance(rt.system, sy.FluidSystem):
        out += fluid_residuals(rt.system, a)
    if isinstance(rt.system, sy.EMSystem):
        out += em_residuals(rt.system, a)
    for J in rt.processes.values():
        out += process_residuals(a, J) + second_variation_residuals(a, J)
    return out


# ---------------------------------------------------------------------------
# sympy, reading the library's printed text


@functools.cache
def _sympy():
    """sympy and its parser of the library's text, imported on first use:
    once per session."""
    import sympy
    from sympy.parsing.sympy_parser import parse_expr, rationalize, standard_transformations

    return sympy, functools.partial(parse_expr, transformations=(*standard_transformations, rationalize))


def to_sympy(e, chart: ex.Chart):
    """e as a sympy expression, parsed from ex.to_text(e, chart): the
    printer's text must read back as the tree it printed.  Coordinates and
    parameters become symbols, `^` a power and `ln` a log; a decimal is the
    rational it spells, so 0.5 is exactly 1/2."""
    sympy, parse = _sympy()
    symbols = {n: sympy.Symbol(n) for n in (*chart.names, *ex.Tape((e,)).params)}
    return parse(ex.to_text(e, chart).replace("^", "**"), local_dict={"ln": sympy.log, **symbols})


def inexact(residuals, chart: ex.Chart) -> list[str]:
    """The identities, each once, with a residual that sympy.cancel does not
    reduce to 0: exact for rational trees."""
    sympy = _sympy()[0]
    return list(dict.fromkeys(
        name for name, _, e in residuals if sympy.cancel(to_sympy(e, chart)) != 0))
