"""Differential forms with symbolic coefficients and the Cartan operations.

A p-form on an n-chart is a map from strictly increasing p-tuples of
coordinate indices to scalar expressions; the basis orientation is fixed by
ascending tuples, with reordering signs given by permutation parity.  On
the default 4-chart the volume form is dx^dy^dz^dt.

The operations are the exterior derivative d, the wedge product, the
interior product i(V), and the Lie derivative computed by the Cartan
formula L(V)w = i(V)dw + d(i(V)w).  Vector fields carry an optional scalar
support function rho; i(rho v) = rho i(v), so the support simply scales the
effective components.  Inside expr.run_memo(), d, the wedge, i(V) and L(V)
are each built once per run for the same operand nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import expr as ex
from .expr import ScalarExpr, Chart

__all__ = [
    "DifferentialForm",
    "VectorField",
    "FormError",
    "zero_form",
    "form_from_coeffs",
    "scalar_form",
    "one_form",
    "add_forms",
    "sub_forms",
    "scale_form",
    "exterior_derivative",
    "wedge",
    "interior",
    "lie_derivative",
    "excess_function",
    "form_to_text",
    "merge_sign",
]


class FormError(Exception):
    pass


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two ascending index tuples.

    Returns (sign, merged) where sign is the parity of the permutation that
    sorts left+right, or None when the tuples share an index (the wedge of
    repeated differentials vanishes).
    """
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of left
            if (len(left) - i) % 2 == 1:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


@dataclass(frozen=True)
class DifferentialForm:
    """A p-form; coeffs maps ascending index tuples to expressions."""

    chart: Chart
    degree: int
    coeffs: dict[tuple[int, ...], ScalarExpr] = field(default_factory=dict)

    def __post_init__(self):
        n = self.chart.dim
        if not 0 <= self.degree <= n:
            raise FormError(f"degree {self.degree} out of range for a {n}-chart")
        clean: dict[tuple[int, ...], ScalarExpr] = {}
        for idx, c in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise FormError(f"index tuple {idx} has wrong length for degree {self.degree}")
            if any(not 0 <= k < n for k in idx):
                raise FormError(f"index tuple {idx} out of chart range")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise FormError(f"index tuple {idx} is not strictly increasing")
            c = ex.as_expr(c)
            if not ex.is_syntactic_zero(c):
                clean[idx] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def coeff(self, idx: Sequence[int]) -> ScalarExpr:
        return self.coeffs.get(tuple(idx), ex.ZERO)

    @functools.cached_property
    def tape(self) -> ex.Tape:
        """The nonzero coefficients, in coeffs order, compiled once per form."""
        return ex.Tape(tuple(self.coeffs.values()))

    @property
    def is_syntactically_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return add_forms(self, other)

    def __sub__(self, other):
        return sub_forms(self, other)

    def __neg__(self):
        return scale_form(ex.Const(-1), self)

    def __rmul__(self, scalar):
        return scale_form(scalar, self)

    def __repr__(self):
        return f"<{self.degree}-form {form_to_text(self)}>"


@dataclass(frozen=True)
class VectorField:
    """A vector field with an optional scalar support function.

    The support rho scales the field: the object models J = rho * v, and all
    operations use the effective components rho * v^k.
    """

    chart: Chart
    components: tuple[ScalarExpr, ...]
    support: ScalarExpr = ex.ONE

    def __post_init__(self):
        comps = tuple(ex.as_expr(c) for c in self.components)
        if len(comps) != self.chart.dim:
            raise FormError(
                f"vector field needs {self.chart.dim} components, got {len(comps)}"
            )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "support", ex.as_expr(self.support))

    def effective_components(self) -> tuple[ScalarExpr, ...]:
        if ex.is_syntactic_zero(self.support - ex.ONE):
            return self.components
        return tuple(ex.mul(self.support, c) for c in self.components)

    @functools.cached_property
    def tape(self) -> ex.Tape:
        """The effective components, compiled once per field."""
        return ex.Tape(self.effective_components())

    def __repr__(self):
        comps = ", ".join(ex.to_text(c, self.chart) for c in self.components)
        s = ex.to_text(self.support, self.chart)
        return f"<vector ({comps}) support {s}>"


# ---------------------------------------------------------------------------
# Constructors


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    return DifferentialForm(chart, degree, {})


def form_from_coeffs(
    chart: Chart, degree: int, coeffs: Mapping[tuple[int, ...], ScalarExpr]
) -> DifferentialForm:
    return DifferentialForm(chart, degree, dict(coeffs))


def scalar_form(chart: Chart, f) -> DifferentialForm:
    """Wrap a scalar expression as a 0-form."""
    return DifferentialForm(chart, 0, {(): ex.as_expr(f)})


def one_form(chart: Chart, components: Sequence) -> DifferentialForm:
    if len(components) != chart.dim:
        raise FormError(f"need {chart.dim} components for a 1-form")
    return DifferentialForm(
        chart, 1, {(k,): ex.as_expr(c) for k, c in enumerate(components)}
    )


# ---------------------------------------------------------------------------
# Linear operations


def _check_same_chart(a: DifferentialForm, b: DifferentialForm):
    if a.chart != b.chart:
        raise FormError("forms live on different charts")


def add_forms(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    _check_same_chart(a, b)
    if a.degree != b.degree:
        if a.is_syntactically_zero:
            return b
        if b.is_syntactically_zero:
            return a
        raise FormError(f"cannot add a {a.degree}-form and a {b.degree}-form")
    coeffs = dict(a.coeffs)
    for idx, c in b.coeffs.items():
        coeffs[idx] = ex.add(coeffs.get(idx, ex.ZERO), c)
    return DifferentialForm(a.chart, a.degree, coeffs)


def sub_forms(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return add_forms(a, scale_form(ex.Const(-1), b))


def scale_form(f, w: DifferentialForm) -> DifferentialForm:
    f = ex.as_expr(f)
    return DifferentialForm(
        w.chart, w.degree, {idx: ex.mul(f, c) for idx, c in w.coeffs.items()}
    )


# ---------------------------------------------------------------------------
# Cartan operations
#
# Inside ex.run_memo(), each operation is built once per run for operands
# with the same coefficient nodes (a field: the same components and
# support).  Nodes are interned, so the kept form is the one a new call
# would build.


def _operand_key(x: DifferentialForm | VectorField) -> tuple:
    if isinstance(x, VectorField):
        return (x.chart, x.components, x.support)
    return (x.chart, x.degree, tuple(x.coeffs.items()))


def _kept(op):
    """op, its result kept in the run memo per operation and operand keys."""

    @functools.wraps(op)
    def kept(*operands):
        return ex.remember((op, *map(_operand_key, operands)), op, *operands)

    return kept


@_kept
def exterior_derivative(w: DifferentialForm) -> DifferentialForm:
    """The exterior derivative.  dd = 0 holds identically, though for
    quotient coefficients not always as a syntactic tree.  A coefficient
    at idx is differentiated along each x_k it holds for k not in idx: the
    other partials are 0 or drop out (dx^k ^ dx^k = 0)."""
    chart = w.chart
    n = chart.dim
    if w.degree == n:
        # d of a top-degree form is the zero form one degree up, which does
        # not exist on the chart; represent it as the zero top-degree form.
        return zero_form(chart, w.degree)
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for idx, c in w.coeffs.items():
        for k in range(n):
            m = merge_sign((k,), idx)
            if m is None or not c._coords >> k & 1:
                continue
            dc = ex.differentiate(c, k)
            if ex.is_syntactic_zero(dc):
                continue
            sign, merged = m
            term = dc if sign == 1 else ex.negate(dc)
            out[merged] = ex.add(out.get(merged, ex.ZERO), term)
    return DifferentialForm(chart, w.degree + 1, out)


@_kept
def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    _check_same_chart(a, b)
    chart = a.chart
    degree = a.degree + b.degree
    if degree > chart.dim:
        # wedge beyond top degree vanishes identically
        return zero_form(chart, chart.dim)
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            m = merge_sign(ia, ib)
            if m is None:
                continue
            sign, merged = m
            term = ex.mul(ca, cb)
            if sign == -1:
                term = ex.negate(term)
            out[merged] = ex.add(out.get(merged, ex.ZERO), term)
    return DifferentialForm(chart, degree, out)


@_kept
def interior(v: VectorField, w: DifferentialForm) -> DifferentialForm:
    """Interior product i(v)w; errors on 0-forms, which have no slots."""
    if w.degree == 0:
        raise FormError("interior product of a 0-form is undefined")
    if v.chart != w.chart:
        raise FormError("vector field and form live on different charts")
    comps = v.effective_components()
    out: dict[tuple[int, ...], ScalarExpr] = {}
    for idx, c in w.coeffs.items():
        for pos, k in enumerate(idx):
            comp = comps[k]
            if ex.is_syntactic_zero(comp):
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = ex.mul(comp, c)
            if pos % 2 == 1:
                term = ex.negate(term)
            out[rest] = ex.add(out.get(rest, ex.ZERO), term)
    return DifferentialForm(w.chart, w.degree - 1, out)


@_kept
def lie_derivative(v: VectorField, w: DifferentialForm) -> DifferentialForm:
    """Lie derivative along v by the Cartan formula i(v)dw + d(i(v)w)."""
    if w.degree == 0:
        # d(i(v)w) has no meaning for 0-forms; the transport is i(v)dw alone
        return interior(v, exterior_derivative(w))
    if w.degree == w.chart.dim:
        # dw vanishes at top degree
        return exterior_derivative(interior(v, w))
    return add_forms(
        interior(v, exterior_derivative(w)), exterior_derivative(interior(v, w))
    )


def excess_function(
    rho: ScalarExpr, v: VectorField, sigma: DifferentialForm
) -> DifferentialForm:
    """Continuity defect of transport along rho*v.

    Equals dd(rho) ^ i(v)sigma + rho * dd(i(v)sigma), the terms that obstruct
    d(L(rho v)sigma) = L(rho v)(d sigma).  For twice-differentiable
    coefficient trees both dd blocks vanish identically, so the defect is the
    zero form: transport then commutes with the exterior derivative no matter
    how the support varies.
    """
    rho = ex.as_expr(rho)
    chart = sigma.chart
    if sigma.degree == 0:
        raise FormError("excess function needs a form of degree at least 1")
    iv = interior(v, sigma)
    dd_rho = exterior_derivative(exterior_derivative(scalar_form(chart, rho)))
    first = wedge(dd_rho, iv)
    second = scale_form(rho, exterior_derivative(exterior_derivative(iv)))
    return add_forms(first, second)


# ---------------------------------------------------------------------------
# Printing


def form_to_text(w: DifferentialForm) -> str:
    if not w.coeffs:
        return "0"
    chart = w.chart
    parts = []
    for idx, c in w.coeffs.items():
        basis = "^".join("d" + chart.names[k] for k in idx)
        ct = ex.to_text(c, chart)
        if idx == ():
            parts.append(ct)
        elif ct == "1":
            parts.append(basis)
        else:
            if any(op in ct for op in (" + ", " - ")) or ct.startswith("-"):
                ct = f"({ct})"
            parts.append(f"{ct} {basis}")
    return " + ".join(parts)
