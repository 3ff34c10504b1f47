"""Integration of p-forms over parametrized chains, chain advection, and
instantaneous integral-invariance checks.

A chain is a weighted list of cells, each a smooth map from the unit
p-cube into the chart.  Cells come in two flavours: ExprCell holds the map
symbolically (components are expressions in the cube parameters u0..u_{p-1});
InterpCell holds it numerically as tensor-product Chebyshev-Lobatto node
values with barycentric evaluation, which is how advected cells are
re-fitted after their nodes are pushed along a flow.

Integration pulls the form back through each cell map and applies
Gauss-Legendre quadrature; the reported error estimate comes from doubling
the order.  The rows of every cell at both orders are stacked, and the
form's coefficients are evaluated in one run of its tape; RK4 advection
runs the field's tape once per stage.  Each Jacobian minor of the pullback
is the Leibniz expansion in a fixed term order, so a 1 x 1 minor is the
Jacobian entry itself and integral bytes depend on IEEE arithmetic alone,
not on the LAPACK build numpy ships with.  Invariance of an integral under a
flow is tested as the t-derivative at t = 0 of the integral over the
advected chain (fourth-order central stencil), cross-checked against the
integral of the Lie derivative over the original chain, which is the
identity the theorem checks rest on.

Inside a run memo, a chain's quadrature (the grids and Jacobians of its
cells at both orders, and each Jacobian minor) is built once per run and
order and serves every form integrated over the chain in that run: the
base and Lie integrals of each process's invariance checks, the periods of
R and W in thermo, and those of A.

invariance_checks takes every (form, chain) pair of one flow at once: all
chains are advected to the four stencil times in one RK4 run per step
count, and the base and Lie integrals read the chain's run quadrature.  The
four advected copies of a chain are integrated in one stacked pass: at each
quadrature order a cell's copies are interpolated as one stack, one matmul
per axis operator whose items are the products of one cell alone, and the
form's tape runs once over the rows of all four, so the integrals equal
four one-copy integrals bit for bit.
If the batch raises, the pairs are checked again one at a time, so the
error is the one checking them in turn meets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from . import forms as fm
from .expr import Chart, ScalarExpr, SingularityError
from .forms import DifferentialForm, VectorField

__all__ = [
    "ChainError",
    "AdvectionError",
    "ExprCell",
    "InterpCell",
    "Chain",
    "IntegralResult",
    "InvarianceResult",
    "PeriodSpectrum",
    "param_chart",
    "integrate",
    "advect",
    "invariance_check",
    "invariance_checks",
    "period_spectrum",
    "spot_check_closed",
    "circle_cell",
    "disk_cell",
    "box_cell",
    "DEFAULT_QUAD_ORDER",
    "DEFAULT_FIT_NODES",
]


class ChainError(Exception):
    pass


class AdvectionError(ChainError):
    pass


DEFAULT_QUAD_ORDER = {1: 16, 2: 12, 3: 8, 4: 6}
DEFAULT_FIT_NODES = {1: 24, 2: 10, 3: 7, 4: 5}
PERIOD_FLOOR = 1e-9  # periods at most this times (1 + scale) count as zero
_BLOWUP = 1e8


def param_chart(p: int) -> Chart:
    return Chart(tuple(f"u{i}" for i in range(p)))


# ---------------------------------------------------------------------------
# Cells


@dataclass(frozen=True)
class ExprCell:
    """Map from the unit p-cube given by expressions in u0..u_{p-1}."""

    chart: Chart
    degree: int
    components: tuple[ScalarExpr, ...]
    params: dict[str, float] = field(default_factory=dict)
    name: str = ""
    map_tape: ex.Tape = field(init=False, repr=False, compare=False)  # the components alone

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ChainError(
                f"cell map needs {self.chart.dim} components, got {len(self.components)}"
            )
        comps = tuple(ex.simplify(ex.as_expr(c)) for c in self.components)
        map_tape = ex.Tape(comps)
        top = max(map_tape.coords, default=-1)
        if top >= self.degree:
            raise ChainError(
                f"cell map uses parameter u{top} but the cell has degree {self.degree}"
            )
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "map_tape", map_tape)

    def _bound(self, params: Mapping[str, float] | None) -> dict[str, float]:
        merged = dict(self.params)
        merged.update(params or {})
        return merged

    @functools.cached_property
    def partials(self) -> tuple[tuple[ScalarExpr, ...], ...]:
        """d(component i)/du_j, differentiated once per cell."""
        return tuple(
            tuple(ex.differentiate(c, j) for j in range(self.degree)) for c in self.components
        )

    @functools.cached_property
    def tape(self) -> ex.Tape:
        """The components, then the partials row by row, compiled once per cell."""
        return ex.Tape(self.components + tuple(d for row in self.partials for d in row))

    def grids(
        self, axes: Sequence[np.ndarray], params: Mapping[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The map and its Jacobian at the grid of axes (C order), shaped
        (m, n) and (m, n, p), from one run of the cell's tape."""
        cols = self.tape.values(_grid_points(axes), self._bound(params))
        n = self.chart.dim
        return _columns(cols[:n]), _columns(cols[n:]).reshape(-1, n, self.degree)

    def eval_grid(
        self, axes: Sequence[np.ndarray], params: Mapping[str, float] | None = None
    ) -> np.ndarray:
        """The map alone at the grid of axes, from one run of map_tape."""
        cols = self.map_tape.values(_grid_points(axes), self._bound(params))
        return _columns(cols).reshape(tuple(len(a) for a in axes) + (self.chart.dim,))


def _columns(cols: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays as the columns of one (m, len(cols)) array."""
    out = np.empty((len(cols[0]), len(cols)))
    for j, c in enumerate(cols):
        out[:, j] = c
    return out


def _grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of 1-d axes as an (m, p) array, C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _lobatto_nodes(n: int) -> np.ndarray:
    # Chebyshev points of the second kind mapped to [0, 1]
    if n < 2:
        raise ChainError("interpolation needs at least 2 nodes per axis")
    return (1.0 - np.cos(np.pi * np.arange(n) / (n - 1))) / 2.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    n = len(nodes)
    w = np.ones(n)
    for j in range(n):
        diff = nodes[j] - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w


def _interp_matrix(nodes: np.ndarray, weights: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix taking node values to query values."""
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


def _diff_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix at the interpolation nodes."""
    n = len(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (weights[j] / weights[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, np.arange(n) != i])
    return D


@functools.lru_cache(maxsize=256)
def _axis_operator(nodes: bytes, query: bytes, derivative: bool) -> np.ndarray:
    """Read-only matrix taking values at the node axis to values (or
    derivatives) at the query axis; axes are passed as float64 bytes so the
    matrix is built once per pair of axes."""
    x, q = np.frombuffer(nodes), np.frombuffer(query)
    w = _barycentric_weights(x)
    L = _interp_matrix(x, w, q)
    if derivative:
        L = L @ _diff_matrix(x, w)
    return _frozen(L)


def _axis_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _apply_axis(op: np.ndarray, values: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
    """op applied along `axis` of an array, or of each array of a stack
    whose first `lead` axes index the arrays.

    One matmul: its item per array is the (len(op), rest) product that
    np.tensordot(op, array, (1, axis)) forms, so every array of a stack
    gets the bits it gets alone."""
    moved = np.moveaxis(values, lead + axis, lead)
    head = moved.shape[: lead + 1]
    out = np.matmul(op, moved.reshape(head + (-1,)))
    out = out.reshape(head[:lead] + (len(op),) + moved.shape[lead + 1 :])
    return np.moveaxis(out, lead, lead + axis)


def _interp_grids(
    values: np.ndarray,
    node_axes: Sequence[np.ndarray],
    axes: Sequence[np.ndarray],
    X: np.ndarray,
    J: np.ndarray,
) -> None:
    """The maps and Jacobians of a stack of InterpCells on one set of node
    axes, at the grid of axes, written to X and J.

    values is the stack of node values, shaped (s, *nodes, n); X and J are
    shaped (s, *grid, n) and (s, *grid, n, p).  Each output applies one
    operator per axis, in axis order.  The interpolation prefix is carried
    forward axis by axis, and Jacobian column j branches off it at axis j,
    so no prefix is applied twice."""
    p = len(axes)

    def operator(k: int, derivative: bool) -> np.ndarray:
        return _axis_operator(_axis_bytes(node_axes[k]), _axis_bytes(axes[k]), derivative)

    interp = [operator(k, False) for k in range(p)]
    prefix = values
    for j in range(p):
        column = _apply_axis(operator(j, True), prefix, j, 1)
        for k in range(j + 1, p):
            column = _apply_axis(interp[k], column, k, 1)
        J[..., j] = column
        del column  # before the prefix grows
        prefix = _apply_axis(interp[j], prefix, j, 1)
    X[...] = prefix


@dataclass(frozen=True, eq=False)
class InterpCell:
    """Tensor-product polynomial fit of a cell map, stored as node values.

    Node axes are Chebyshev-Lobatto grids; evaluation anywhere on the cube
    goes through barycentric interpolation, derivatives through the spectral
    differentiation matrices, so integrating over an advected cell needs no
    symbolic form of the flow map.
    """

    chart: Chart
    degree: int
    node_axes: tuple[np.ndarray, ...]
    values: np.ndarray  # shape (len(axis0), ..., chart.dim)
    name: str = ""

    def __post_init__(self):
        expected = tuple(len(a) for a in self.node_axes) + (self.chart.dim,)
        if self.values.shape != expected:
            raise ChainError(f"node values shaped {self.values.shape}, expected {expected}")

    def eval_grid(
        self, axes: Sequence[np.ndarray], params: Mapping[str, float] | None = None
    ) -> np.ndarray:
        out = self.values
        for k, q in enumerate(axes):
            op = _axis_operator(_axis_bytes(self.node_axes[k]), _axis_bytes(q), False)
            out = _apply_axis(op, out, k)
        return out

    def grids(
        self, axes: Sequence[np.ndarray], params: Mapping[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The map and its Jacobian at the grid of axes (C order), shaped
        (m, n) and (m, n, p): _interp_grids on a stack of one."""
        n, p = self.chart.dim, self.degree
        grid = tuple(len(a) for a in axes)
        X, J = np.empty((math.prod(grid), n)), np.empty((math.prod(grid), n, p))
        _interp_grids(
            self.values[None], self.node_axes, axes,
            X.reshape((1,) + grid + (n,)), J.reshape((1,) + grid + (n, p)),
        )
        return X, J


Cell = ExprCell | InterpCell


@dataclass(frozen=True)
class Chain:
    """Oriented formal sum of cells of one degree."""

    degree: int
    cells: tuple[Cell, ...]
    orientations: tuple[int, ...] = ()
    closed: bool = False
    name: str = ""

    def __post_init__(self):
        if not self.cells:
            raise ChainError("chain needs at least one cell")
        if not self.orientations:
            object.__setattr__(self, "orientations", (1,) * len(self.cells))
        if len(self.orientations) != len(self.cells):
            raise ChainError("one orientation per cell required")
        if any(o not in (1, -1) for o in self.orientations):
            raise ChainError("orientations must be +1 or -1")
        for c in self.cells:
            if c.degree != self.degree:
                raise ChainError(
                    f"cell of degree {c.degree} in a degree-{self.degree} chain"
                )
        if not 1 <= self.degree <= 4:
            raise ChainError("chain degree must be between 1 and 4")


# ---------------------------------------------------------------------------
# Quadrature


@functools.lru_cache(maxsize=64)
def _gl_axis(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return _frozen((x + 1.0) / 2.0), _frozen(w / 2.0)


@functools.lru_cache(maxsize=64)
def _gl_weights(order: int, degree: int) -> np.ndarray:
    """Read-only tensor-product weights of the order-point rule on the
    degree-cube, flattened in grid (C) order."""
    _, wts = _gl_axis(order)
    weight = wts
    for _ in range(degree - 1):
        weight = np.multiply.outer(weight, wts)
    return _frozen(weight.ravel())


@functools.lru_cache(maxsize=None)
def _leibniz_terms(k: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """(permutation, odd) for every permutation of range(k), in
    itertools.permutations order, so the identity comes first."""
    return tuple(
        (perm, sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 1)
        for perm in itertools.permutations(range(k))
    )


def _cell_bound(cell: Cell, params: Mapping[str, float] | None) -> dict[str, float]:
    bound = dict(getattr(cell, "params", {}) or {})
    bound.update(params or {})
    return bound


def _one_stack(cells: Sequence[Cell]) -> bool:
    """Whether the cells are InterpCells on one set of node axes, as the
    copies of a cell that _advect_all refits are."""
    return all(isinstance(c, InterpCell) and c.node_axes is cells[0].node_axes for c in cells)


class _Quadrature:
    """Every cell of one or more copies of a chain on the Gauss-Legendre
    grids of both orders (order, then 2 * order).  The copies share their
    degree, chart and number of cells: the stencil's copies are one chain
    advected to four times.

    Rows go copy by copy, order by order, cell by cell into one
    preallocated array of points and one of Jacobians.  The copies of one
    cell that share their node axes are interpolated as one stack, each
    Jacobian minor is computed once over all rows, and both are shared by
    every form integrated over the copies.  A cell map that fails to
    evaluate is kept and raised by `integrals`, once the cells before it
    are known to integrate."""

    def __init__(
        self, copies: Sequence[Chain], order: int | None, params: Mapping[str, float] | None
    ):
        self.copies = tuple(copies)
        cells = self.copies[0].cells
        self.degree = p = self.copies[0].degree
        self.order = order or DEFAULT_QUAD_ORDER[p]
        self.params = params
        orders = (self.order, 2 * self.order)
        n, nc, s = cells[0].chart.dim, len(cells), len(self.copies)
        per_copy = nc * sum(o**p for o in orders)
        self.flatX = np.empty((s * per_copy, n))
        self._flatJ = np.empty((s * per_copy, n, p))
        # (cell, bound, start, stop, orientation, weights, copy, fine) in row order
        self.segments: list[tuple] = []
        for t, copy in enumerate(self.copies):
            start = t * per_copy
            for o in orders:
                for cell, ori in zip(copy.cells, copy.orientations):
                    stop = start + o**p
                    bound = _cell_bound(cell, params)
                    self.segments.append(
                        (cell, bound, start, stop, ori, _gl_weights(o, p), t, o != self.order)
                    )
                    start = stop
        self.failure: ex.EvalError | None = None
        self._minors: dict[tuple[int, ...], np.ndarray] = {}
        X, J = self.flatX.reshape(s, per_copy, n), self._flatJ.reshape(s, per_copy, n, p)
        first = 0  # the order's first row within a copy
        for k, o in enumerate(orders):
            axes, grid = [_gl_axis(o)[0]] * p, (o,) * p
            rows = slice(first, first + nc * o**p)
            Xo = X[:, rows].reshape((s, nc) + grid + (n,))
            Jo = J[:, rows].reshape((s, nc) + grid + (n, p))
            first = rows.stop
            for c in range(nc):
                stack = [copy.cells[c] for copy in self.copies]
                if _one_stack(stack):
                    values = np.stack([cell.values for cell in stack])
                    _interp_grids(values, stack[0].node_axes, axes, Xo[:, c], Jo[:, c])
                    continue
                for t, cell in enumerate(stack):
                    try:
                        Xc, Jc = cell.grids(axes, _cell_bound(cell, params))
                    except ex.EvalError as err:
                        # one copy: the segments before this cell are filled
                        self.failure = err
                        del self.segments[k * nc + c :]
                        return
                    Xo[t, c] = Xc.reshape(grid + (n,))
                    Jo[t, c] = Jc.reshape(grid + (n, p))

    def minor(self, idx: tuple[int, ...]) -> np.ndarray:
        """det of the Jacobian rows idx at every stacked row, by the Leibniz
        expansion: each term's product taken left to right, the terms summed
        in order from the identity.  A 1 x 1 minor is the entry itself."""
        if idx not in self._minors:
            J = self._flatJ
            total = None
            for perm, odd in _leibniz_terms(len(idx)):
                term = J[:, idx[0], perm[0]]
                for row, col in zip(idx[1:], perm[1:]):
                    term = term * J[:, row, col]
                if total is None:
                    total = term
                else:  # k >= 2 here, so total is a fresh array
                    (np.subtract if odd else np.add)(total, term, out=total)
            self._minors[idx] = total
        return self._minors[idx]

    def integrals(self, w: DifferentialForm) -> list["IntegralResult"]:
        """The integral of w over each copy, in order.  Over several copies,
        a failure (of a cell map, or of the form at some row) integrates
        them one at a time instead, so the error raised is the first that
        integrating them in turn meets."""
        if w.degree != self.degree:
            raise ChainError(f"cannot integrate a {w.degree}-form over a {self.degree}-chain")
        several = len(self.copies) > 1
        coeffs = None
        # a form with no coefficients integrates to exactly 0 without evaluation
        if w.coeffs and self.segments and not (several and self.failure is not None):
            coeffs = _coefficients(w, self)
        if several and (self.failure is not None or (w.coeffs and coeffs is None)):
            # built afresh: only a base chain's quadrature is kept in the run memo
            return [_Quadrature([c], self.order, self.params).integrals(w)[0] for c in self.copies]
        if self.failure is not None:
            raise self.failure
        if coeffs is None:
            return [IntegralResult(0.0, 0.0, 0.0, self.order)] * len(self.copies)
        vals = np.zeros(len(self.flatX))
        for idx, coeff_vals in zip(w.coeffs, coeffs):
            vals += coeff_vals * self.minor(idx)
        coarse, fine, scale = ([0.0] * len(self.copies) for _ in range(3))
        for _, _, start, stop, ori, weight, t, is_fine in self.segments:
            part = vals[start:stop]
            if is_fine:
                fine[t] += ori * float(part @ weight)
                scale[t] += float(np.abs(part) @ weight)
            else:
                coarse[t] += ori * float(part @ weight)
        return [
            IntegralResult(f, abs(f - c), a, self.order) for c, f, a in zip(coarse, fine, scale)
        ]


def _coefficients(w: DifferentialForm, quad: _Quadrature) -> list[np.ndarray] | None:
    """The form's coefficients at the rows of every segment of quad, from
    one run of the form's tape.  Over one copy, a failure is raised as
    evaluating segment by segment, coefficient by coefficient would; over
    several it gives None."""
    segments = quad.segments
    X = quad.flatX[: segments[-1][3]]
    try:
        sizes = [stop - start for _, _, start, stop, *_ in segments]
        stacked = {
            nm: np.repeat([float(bound[nm]) for _, bound, *_ in segments], sizes)
            for nm in w.tape.params
        }
        slots = w.tape.run(X, stacked)
        coeffs = [slots[s] for s in w.tape.outputs]
    except (KeyError, ex.EvalError):  # a cell lacks a parameter, or a bad index
        coeffs = None
    if coeffs is None or any(np.isnan(v).any() for v in coeffs):
        if len(quad.copies) > 1:
            return None
        for cell, bound, start, stop, *_ in segments:
            try:
                w.tape.values(X[start:stop], bound, w.chart)
            except SingularityError as err:
                raise SingularityError(
                    f"integrand singular on cell {cell.name or '?'}: {err}",
                    err.subexpression,
                    err.point,
                ) from err
    return coeffs


def integrate(
    w: DifferentialForm,
    chain: Chain,
    order: int | None = None,
    params: Mapping[str, float] | None = None,
) -> "IntegralResult":
    """Quadrature of a p-form over a p-chain with an order-doubling error
    estimate; `scale` is the integral of the absolute pulled-back integrand,
    the natural yardstick for zero tests on the result.

    The grid and Jacobian of every cell at both orders are built first; the
    form's tape then runs once over all their rows.  Inside a run memo they
    are built once per chain, order and params (see _quadrature)."""
    return _quadrature(chain, order, params).integrals(w)[0]


def _quadrature(
    chain: Chain, order: int | None, params: Mapping[str, float] | None
) -> _Quadrature:
    """The chain's quadrature, kept in the run memo for every form
    integrated over the chain in the run, or built afresh outside a scope.
    The kept quadrature holds the chain, so its id names no other chain
    while the key lives."""
    order = order or DEFAULT_QUAD_ORDER[chain.degree]
    key = (_Quadrature, id(chain), order, tuple(sorted((params or {}).items())))
    return ex.remember(key, _Quadrature, [chain], order, params)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    scale: float
    order: int


# ---------------------------------------------------------------------------
# Advection


def rk4_flow(
    V: VectorField,
    X0: np.ndarray,
    dt: float | np.ndarray,
    steps: int,
    params: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Push points along the flow of V for time dt with classical RK4.

    dt is one time for every row, or an array of one time per row; each row
    takes steps steps of its own dt / steps.
    """
    tape = V.tape
    bound = dict(params or {})

    def f(X: np.ndarray) -> np.ndarray:
        return _columns(tape.values(X, bound))

    X = np.array(X0, dtype=float)
    h = np.asarray(dt, dtype=float) / steps
    if h.ndim:
        h = h[:, None]
    for _ in range(steps):
        k1 = f(X)
        k2 = f(X + 0.5 * h * k1)
        k3 = f(X + 0.5 * h * k2)
        k4 = f(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > _BLOWUP:
            raise AdvectionError("flow left the computational domain (blow-up)")
    return X


def _default_steps(dt: float) -> int:
    return max(8, int(math.ceil(abs(dt) / 0.02)))


def _advect_all(
    chains: Sequence[Chain],
    V: VectorField,
    times: Sequence[float],
    steps: int | None = None,
    params: Mapping[str, float] | None = None,
) -> list[list[Chain]]:
    """Each chain advected along V to each of times, in order: one list of
    len(times) chains per chain.

    Each cell's node grid is evaluated once; the grids of every cell of
    every chain are stacked once per nonzero time, and all times that take
    the same number of steps run in one rk4_flow call.  Rows do not
    interact, so each chain moves exactly as it would alone.  Time 0 gives
    the chain itself.
    """
    if not chains or all(t == 0.0 for t in times):
        return [[chain] * len(times) for chain in chains]
    cells = [cell for chain in chains for cell in chain.cells]
    axes, grids = [], []
    for cell in cells:
        if isinstance(cell, InterpCell):
            axes.append(cell.node_axes)
        else:
            n = DEFAULT_FIT_NODES[cell.degree]
            axes.append(tuple(_lobatto_nodes(n) for _ in range(cell.degree)))
        grids.append(cell.eval_grid(axes[-1], params))
    X0 = np.concatenate([X.reshape(-1, X.shape[-1]) for X in grids])
    cuts = np.cumsum([X.size // X.shape[-1] for X in grids])[:-1]

    groups: dict[int, list[int]] = {}
    for i, t in enumerate(times):
        if t != 0.0:
            groups.setdefault(steps or _default_steps(t), []).append(i)
    moved: dict[int, np.ndarray] = {}
    for n, members in groups.items():
        dts = np.repeat([times[i] for i in members], len(X0))
        out = rk4_flow(V, np.tile(X0, (len(members), 1)), dts, n, params)
        moved.update(zip(members, np.split(out, len(members))))

    def refit(block: np.ndarray) -> list[Chain]:
        fitted = iter(
            InterpCell(c.chart, c.degree, ax, part.reshape(X.shape), c.name)
            for c, ax, X, part in zip(cells, axes, grids, np.split(block, cuts))
        )
        return [replace(c, cells=tuple(itertools.islice(fitted, len(c.cells)))) for c in chains]

    at_time = [refit(moved[i]) if i in moved else list(chains) for i in range(len(times))]
    return [list(per_chain) for per_chain in zip(*at_time)]


def advect(
    chain: Chain,
    V: VectorField,
    dt: float,
    steps: int | None = None,
    params: Mapping[str, float] | None = None,
) -> Chain:
    """Advect every cell node grid along V and re-fit polynomial cells."""
    return _advect_all([chain], V, (dt,), steps, params)[0][0]


# ---------------------------------------------------------------------------
# Invariance checks


@dataclass(frozen=True)
class InvarianceResult:
    derivative_estimate: float
    lie_integral: float
    scale: float
    tolerance: float
    mode: str
    passed: bool
    identity_gap: float  # |derivative - lie integral|


def invariance_checks(
    pairs: Sequence[tuple[DifferentialForm, Chain]],
    V: VectorField,
    mode: str = "invariant",
    h: float = 0.02,
    tol: float = 1e-6,
    drift_factor: float = 100.0,
    params: Mapping[str, float] | None = None,
) -> list[InvarianceResult]:
    """One invariance check per (form, chain) pair, in order: (d/dt) at t=0
    of the integral over the advected chain, vs the integral of the Lie
    derivative over the chain itself.

    mode "invariant": pass when the derivative vanishes within tol*scale.
    mode "drift": pass when it exceeds drift_factor*tol*scale (the
    counterexample direction).
    mode "identity": pass when derivative and Lie integral agree.

    Every chain is advected to the four stencil times in one batch.  The
    base and Lie integrals read the chain's quadrature, which inside a run
    memo serves every integral over the chain in the run.  When
    the batch raises, the pairs are checked again one at a time, so the
    error is the first that checking them one by one meets.
    """
    if mode not in ("invariant", "drift", "identity"):
        raise ChainError(f"unknown invariance mode {mode!r}")
    pairs = list(pairs)

    def batch() -> list[InvarianceResult]:
        advected = _advect_all([c for _, c in pairs], V, (h, -h, 2 * h, -2 * h), params=params)
        out = []
        for (w, chain), moved in zip(pairs, advected):
            stencil = _Quadrature(moved, None, params).integrals(w)
            i_ph, i_mh, i_p2, i_m2 = (r.value for r in stencil)
            derivative = (8.0 * (i_ph - i_mh) - (i_p2 - i_m2)) / (12.0 * h)

            quad = _quadrature(chain, None, params)
            base = quad.integrals(w)[0]
            lie = quad.integrals(fm.lie_derivative(V, w))[0]
            scale = 1.0 + base.scale + lie.scale
            gap = abs(derivative - lie.value)

            if mode == "invariant":
                passed = abs(derivative) <= tol * scale
            elif mode == "drift":
                passed = abs(derivative) >= drift_factor * tol * scale
            else:
                passed = gap <= tol * scale
            out.append(InvarianceResult(derivative, lie.value, scale, tol, mode, passed, gap))
        return out

    try:
        return batch()
    except (ChainError, ex.ExprError):
        if len(pairs) < 2:
            raise
    # replayed outside the handler, so the error raised does not chain the batch's
    return [invariance_check(w, c, V, mode, h, tol, drift_factor, params) for w, c in pairs]


def invariance_check(
    w: DifferentialForm,
    chain: Chain,
    V: VectorField,
    mode: str = "invariant",
    h: float = 0.02,
    tol: float = 1e-6,
    drift_factor: float = 100.0,
    params: Mapping[str, float] | None = None,
) -> InvarianceResult:
    """The invariance check of one (form, chain) pair; see invariance_checks."""
    return invariance_checks([(w, chain)], V, mode, h, tol, drift_factor, params)[0]


# ---------------------------------------------------------------------------
# Periods


@dataclass(frozen=True)
class PeriodSpectrum:
    periods: tuple[float, ...]
    base: float | None  # smallest nonzero |period|
    ratios: tuple[float, ...]  # period / base (0 where below PERIOD_FLOOR)
    integer_deviation: tuple[float, ...]  # |ratio - nearest integer|

    @classmethod
    def of(cls, results: Sequence[IntegralResult]) -> "PeriodSpectrum":
        """Spectrum of the integrals of one closed 1-form over its cycles;
        periods at most PERIOD_FLOOR * (1 + largest scale) count as zero."""
        periods = tuple(r.value for r in results)
        scale = max((r.scale for r in results), default=0.0)
        cut = PERIOD_FLOOR * (1.0 + scale)
        nonzero = [abs(p) for p in periods if abs(p) > cut]
        base = min(nonzero) if nonzero else None
        ratios = tuple((p / base if base else 0.0) for p in periods)
        deviation = tuple(abs(r - round(r)) for r in ratios)
        return cls(periods, base, ratios, deviation)


def period_spectrum(
    w: DifferentialForm,
    cycles: Sequence[Chain],
    context: ex.ZeroTester,
    params: Mapping[str, float] | None = None,
) -> PeriodSpectrum:
    """Periods of a closed 1-form over cycles, with ratio-to-smallest report.

    Raises ChainError when w is not closed under the context's zero test:
    periods of non-closed forms are path-dependent numbers, not topological
    ones.
    """
    for c in fm.exterior_derivative(w).coeffs.values():
        if not context.test(c):
            raise ChainError("period spectrum requires a closed form")
    return PeriodSpectrum.of([integrate(w, c, params=params) for c in cycles])


def spot_check_closed(chain: Chain) -> bool:
    """Evidence that a declared-closed chain really is closed: the integral
    of d(phi) over it must vanish for three seeded smooth test functions phi."""
    if chain.degree != 1:
        raise ChainError("closedness spot check implemented for 1-chains")
    chart = chain.cells[0].chart
    rng = np.random.default_rng(ex.DEFAULT_SEED)
    for _ in range(3):
        phi = _random_smooth_scalar(chart, rng)
        res = integrate(fm.exterior_derivative(fm.scalar_form(chart, phi)), chain)
        if abs(res.value) > 1e-7 * (1.0 + res.scale):
            return False
    return True


def _random_smooth_scalar(chart: Chart, rng: np.random.Generator) -> ScalarExpr:
    terms = []
    for i in range(chart.dim):
        c1, c2, c3 = rng.uniform(-1, 1, size=3)
        xi = ex.Coord(i)
        terms.append(ex.mul(ex.Const(float(c1)), xi))
        terms.append(ex.mul(ex.Const(float(c2)), xi, xi))
        terms.append(ex.mul(ex.Const(float(c3)), ex.sin(xi)))
    i, j = rng.integers(0, chart.dim, size=2)
    terms.append(ex.mul(ex.Const(float(rng.uniform(-1, 1))), ex.Coord(int(i)), ex.Coord(int(j))))
    return ex.add(*terms)


# ---------------------------------------------------------------------------
# Cell builders for common shapes


def circle_cell(
    chart: Chart,
    plane: tuple[int, int] = (0, 1),
    center: Sequence[float] = (0.0, 0.0),
    radius: float = 1.0,
    fixed: Mapping[int, float] | None = None,
    name: str = "circle",
) -> ExprCell:
    """Counterclockwise circle in a coordinate plane, parametrized by u0."""
    comps: list[ScalarExpr] = [ex.ZERO] * chart.dim
    i, j = plane
    theta = ex.mul(ex.Const(2.0 * math.pi), ex.Coord(0))
    comps[i] = ex.add(ex.Const(float(center[0])), ex.mul(ex.Const(float(radius)), ex.cos(theta)))
    comps[j] = ex.add(ex.Const(float(center[1])), ex.mul(ex.Const(float(radius)), ex.sin(theta)))
    for k, v in (fixed or {}).items():
        comps[k] = ex.Const(float(v))
    return ExprCell(chart, 1, tuple(comps), name=name)


def disk_cell(
    chart: Chart,
    plane: tuple[int, int] = (0, 1),
    center: Sequence[float] = (0.0, 0.0),
    radius: float = 1.0,
    fixed: Mapping[int, float] | None = None,
    name: str = "disk",
) -> ExprCell:
    """Disk in a coordinate plane: u0 radial, u1 angular; boundary is the
    matching circle_cell with the same orientation."""
    comps: list[ScalarExpr] = [ex.ZERO] * chart.dim
    i, j = plane
    r = ex.mul(ex.Const(float(radius)), ex.Coord(0))
    theta = ex.mul(ex.Const(2.0 * math.pi), ex.Coord(1))
    comps[i] = ex.add(ex.Const(float(center[0])), ex.mul(r, ex.cos(theta)))
    comps[j] = ex.add(ex.Const(float(center[1])), ex.mul(r, ex.sin(theta)))
    for k, v in (fixed or {}).items():
        comps[k] = ex.Const(float(v))
    return ExprCell(chart, 2, tuple(comps), name=name)


def box_cell(
    chart: Chart,
    spans: Mapping[int, tuple[float, float]],
    fixed: Mapping[int, float] | None = None,
    name: str = "box",
) -> ExprCell:
    """Axis-aligned p-cube: each mapped axis k sweeps spans[k] linearly in
    its own parameter, in ascending coordinate order."""
    comps: list[ScalarExpr] = [ex.ZERO] * chart.dim
    for slot, (k, (lo, hi)) in enumerate(sorted(spans.items())):
        comps[k] = ex.add(
            ex.Const(float(lo)), ex.mul(ex.Const(float(hi - lo)), ex.Coord(slot))
        )
    for k, v in (fixed or {}).items():
        comps[k] = ex.Const(float(v))
    return ExprCell(chart, len(spans), tuple(comps), name=name)
