"""Symbolic scalar expressions over chart coordinates and named parameters.

Expressions are immutable trees built from rational/float constants,
coordinates (by chart index), free parameters (by name), sums, products,
quotients, integer powers, and a small set of unary/binary functions
(sin, cos, exp, ln, sqrt, atan2).  Nodes are hash-consed: structurally
equal trees are one object, so equality and hashing are identity, and
`key`, the canonical structural string, only orders terms and factors.
Construction normalizes each node with a value-preserving rule set:
constant folding, like-term collection, x**0 -> 1, and zero annihilation.
No trigonometric or rational rewrites are performed; equality of
expressions beyond syntax is the job of the probabilistic zero test, not
the simplifier.

Construction normalizes once.  Every node a constructor builds from normal
inputs is normal: it is what the full simplify() rebuild would return, and
it is marked, so simplify() returns it as it is.  Over normal inputs a
constructor hands back an input node wherever the rebuild would give that
node: add() keeps a term no like term merged into, mul() its one constant
and a base's one power factor.  mul() sends a merged power of a constant,
quotient, product or power through power() at once (q*q is num^2/den^2,
not Pow(q, 2)).  Only hand-built trees (a Sum or Product nested in another,
say) and the nodes built over them stay unmarked; simplify() runs where
such trees enter: form, vector field and chain cell construction, and the
zero test.

Each partial derivative of a node is built once per scope, and only where
it can be nonzero: a normal node's partial along a coordinate it does not
hold (see _fill) is the constant 0, which no walk builds or keeps.  Inside
run_memo(), the scope cli.run opens for one run, add() and mul() remember
their result per tuple of normal operands, every partial is kept in the
scope's memo, and remember() keeps other modules' results (each Cartan
operation of forms) per operand nodes; all of it is dropped when the scope
ends, so no state crosses runs.  Outside a scope nothing is remembered:
each differentiate() call keeps its partials for that call only.

One evaluator, a Tape, runs every expression over a batch of points at
once.  A tape lists the distinct nodes of one or more roots, children
before parents, and one loop executes the list, each node one numpy
operation over all rows.  Forms, vector fields and chain cells keep
theirs, compiled once per object; a zero tester compiles its box guards
once and each distinct tree it tests once, keeping the tree's verdict.  A
node that is singular at a row (division by zero, ln/sqrt outside their
domain, atan2(0, 0), overflow) is NaN there, and NaN reaches the root:
an infinity becomes NaN where it arises.  Loaded coordinates, parameters
and infinite constants are swept for infinities; an operation makes one
from finite operands only with numpy's overflow or divide-by-zero flag,
so a run raises on those flags and only then repeats with every value
swept.  Tape.scaled_rows returns such rows as NaN; Tape.values and
Tape.at raise SingularityError naming the first singular subexpression in
evaluation order, at its first singular point, rather than returning NaN
or infinity.  Evaluation is deterministic: the same tree at the same point
with the same parameter bindings produces a bit-identical float, whether
the point is evaluated alone, as a row of a batch, or as one root of a
tape with several.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import operator
import weakref
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
    "param_names",
    "differentiate",
    "eval_many",
    "Tape",
    "draw_rows",
    "to_text",
    "is_syntactic_zero",
    "Box",
    "default_box",
    "ZeroVerdict",
    "ZeroTester",
    "run_memo",
    "remember",
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
#
# Nodes are hash-consed: each class constructs through __new__, which looks
# the node's structure (class, payload, child nodes) up in one table of weak
# references and returns the live node with that structure when there is
# one.  Structurally equal trees are therefore one object, and equality and
# hashing are object identity.  A node leaves the table when it dies.

_NODES: dict = {}  # structure -> weakref.KeyedRef to the one live node


def _forget(ref, nodes=_NODES):
    """Weak-reference callback: a node died; drop its entry unless a newer
    node already took the structure."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _interned(cls, structure) -> tuple["ScalarExpr", bool]:
    """(the live node of `structure`, False), or (a new bare node of cls
    registered under it, True), which the caller fills."""
    ref = _NODES.get(structure)
    if ref is not None:
        node = ref()
        if node is not None:
            return node, False
    node = object.__new__(cls)
    _NODES[structure] = weakref.KeyedRef(node, _forget, structure)
    object.__setattr__(node, "_key", None)
    object.__setattr__(node, "_order", None)
    return node, True


class ScalarExpr:
    # _key: the canonical key, built on first use; _order: the node's sort
    # order as a term of a sum, the key of its symbolic factors, cached by
    # _term_order; _normal: the node is a fixed point of the full
    # simplify() rebuild (set by the leaf classes and by the normalizing
    # constructors, never unset); _coords: bit k set when the tree holds
    # x_k, or -1 when a partial in it divides by 0.  A node keeps no
    # partials: differentiate() keeps them in the run memo or for one call.
    __slots__ = ("_key", "_order", "_normal", "_coords", "__weakref__")

    def _build_key(self) -> str:
        raise NotImplementedError

    @property
    def key(self) -> str:
        """Canonical structural key, the order of terms and factors; equal
        keys mean the same node."""
        if self._key is None:
            # the keys below first, off an explicit stack: depth is bounded
            # by memory, not by the recursion limit
            stack = [self]
            while stack:
                node = stack[-1]
                if node._key is None:
                    todo = [c for c in _children(node) if c._key is None]
                    if todo:
                        stack.extend(todo)
                        continue
                    object.__setattr__(node, "_key", node._build_key())
                stack.pop()
        return self._key

    def __setattr__(self, name, value):  # immutable: a node is shared by every tree equal to it
        raise AttributeError("expressions are immutable")

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


def _fill(node: ScalarExpr, normal: bool, coords: int = 0, **fields) -> ScalarExpr:
    """A new node's fields, marks and coordinate support: coords for a leaf,
    else its operands' union, or -1 when its partials divide by squares that
    all fold to 0 (a quotient's denominator's, or both arguments' of atan2)."""
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    for kid in _children(node):
        coords |= kid._coords
    if type(node) is Quotient and _square_vanishes(node.den) or (
        type(node) is Func and node.name == "atan2" and all(map(_square_vanishes, node.args))
    ):
        coords = -1
    object.__setattr__(node, "_normal", normal)
    object.__setattr__(node, "_coords", coords)
    return node


def _square_vanishes(e: ScalarExpr) -> bool:
    """Whether power(e, 2) of a normal e folds to the constant 0, through
    the products and quotient numerators power() itself recurses into."""
    while isinstance(e, Quotient):
        e = e.num
    if isinstance(e, Product):
        return any(map(_square_vanishes, e.factors))
    return isinstance(e, Const) and abs(e.value) < 1 and e.value**2 == 0


def _mark(node: ScalarExpr, normal: bool = True) -> ScalarExpr:
    """node, marked as a fixed point of simplify() when `normal` holds."""
    if normal and not node._normal:
        object.__setattr__(node, "_normal", True)
    return node


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __new__(cls, value: Number):
        if isinstance(value, bool):
            raise ExprError("booleans are not expression constants")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (float, Fraction)):
            raise ExprError(f"unsupported constant type {type(value).__name__}")
        # the key tells 1 from 1.0 and 0.0 from -0.0, and gives every nan one
        if isinstance(value, Fraction):
            if value.numerator.bit_length() > 1000:
                try:
                    float(value)  # every constant evaluates as a float
                except OverflowError:
                    raise ExprError("exact constant too large for a float") from None
            key = f"c{value.numerator}/{value.denominator}"
        else:
            key = f"cf{value!r}"
        node, fresh = _interned(cls, key)
        if not fresh:
            return node
        object.__setattr__(node, "_key", key)
        return _fill(node, True, value=value)


class Coord(ScalarExpr):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        if not isinstance(index, int) or index < 0:
            raise ExprError(f"coordinate index must be a nonnegative int, got {index!r}")
        index = int(index)
        node, fresh = _interned(cls, (cls, index))
        return _fill(node, True, 1 << index, index=index) if fresh else node

    def _build_key(self):
        return f"x{self.index}"


class Param(ScalarExpr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name or not isinstance(name, str):
            raise ExprError("parameter name must be a nonempty string")
        node, fresh = _interned(cls, (cls, name))
        return _fill(node, True, name=name) if fresh else node

    def _build_key(self):
        return f"p({self.name})"


class Sum(ScalarExpr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        terms = tuple(terms)
        node, fresh = _interned(cls, (cls, terms))
        return _fill(node, False, terms=terms) if fresh else node

    def _build_key(self):
        return "(+ " + " ".join(t.key for t in self.terms) + ")"


class Product(ScalarExpr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        factors = tuple(factors)
        node, fresh = _interned(cls, (cls, factors))
        return _fill(node, False, factors=factors) if fresh else node

    def _build_key(self):
        return "(* " + " ".join(f.key for f in self.factors) + ")"


class Quotient(ScalarExpr):
    __slots__ = ("num", "den")

    def __new__(cls, num: ScalarExpr, den: ScalarExpr):
        node, fresh = _interned(cls, (cls, num, den))
        return _fill(node, False, num=num, den=den) if fresh else node

    def _build_key(self):
        return f"(/ {self.num.key} {self.den.key})"


class Pow(ScalarExpr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: ScalarExpr, exponent: int):
        if not isinstance(exponent, int):
            raise ExprError("power exponents must be integers")
        exponent = int(exponent)
        node, fresh = _interned(cls, (cls, base, exponent))
        return _fill(node, False, base=base, exponent=exponent) if fresh else node

    def _build_key(self):
        return f"(^ {self.base.key} {self.exponent})"


class Func(ScalarExpr):
    __slots__ = ("name", "args")

    def __new__(cls, name: str, args: tuple):
        args = tuple(args)
        if name not in FUNCTION_ARITY:
            raise ExprError(f"unknown function {name!r}")
        if len(args) != FUNCTION_ARITY[name]:
            raise ExprError(
                f"{name} takes {FUNCTION_ARITY[name]} argument(s), got {len(args)}"
            )
        node, fresh = _interned(cls, (cls, name, args))
        return _fill(node, False, name=name, args=args) if fresh else node

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
# The run memo
#
# Inside run_memo(), add() and mul() remember their result for each tuple of
# operands that are all marked normal (a node's mark is never unset, so the
# result stays what a new call would build), differentiate() keeps every
# partial, and remember() keeps the results of other modules' operations
# (the Cartan operations of forms).  The memo holds its nodes for the
# length of the scope and is dropped at its end; outside a scope every call
# builds afresh.


_MEMO: contextvars.ContextVar = contextvars.ContextVar("formflow_expr_memo", default=None)


@contextlib.contextmanager
def run_memo():
    """A scope whose add, mul, partials and remember() results are each
    built once; cli.run opens one per run."""
    token = _MEMO.set(({}, {}, {}, {}))  # add results, mul results, partials, remembered
    try:
        yield
    finally:
        _MEMO.reset(token)


def remember(key: tuple, build, *args):
    """build(*args), kept under key until the run_memo() scope ends, or
    built afresh outside a scope.  key must determine the result: 2, 2.0
    and Fraction(2) are equal keys, so it holds nodes rather than numbers
    wherever those would build different results."""
    memo = _MEMO.get()
    if memo is None:
        return build(*args)
    kept = memo[3]
    out = kept.get(key)
    if out is None:
        out = kept[key] = build(*args)
    return out


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


_UNIT = Fraction(1)


def _coeff_and_rest(term: ScalarExpr) -> tuple[Number, tuple[ScalarExpr, ...]]:
    """Split a normalized term into (numeric coefficient, symbolic factors)."""
    if isinstance(term, Const):
        return term.value, ()
    if isinstance(term, Product):
        head = term.factors[0]
        if isinstance(head, Const):
            return head.value, term.factors[1:]
        return _UNIT, term.factors
    return _UNIT, (term,)


def _term_order(term: ScalarExpr, rest: tuple[ScalarExpr, ...]) -> str:
    """The sort order in a sum of term, whose symbolic factors are rest:
    their key, cached on the node."""
    order = term._order
    if order is None:
        order = rest[0].key if len(rest) == 1 else " ".join(f.key for f in rest)
        object.__setattr__(term, "_order", order)
    return order


_key_of = operator.attrgetter("key")


def _remembered(build, table: int, operands: tuple) -> ScalarExpr:
    """build(*operands), remembered in the run memo's table when every
    operand is marked normal."""
    memo = _MEMO.get()
    if memo is None:
        return build(*operands)
    results = memo[table]
    # the table's keys are tuples of nodes, which no tuple holding a number
    # equals: 2, 2.0 and Fraction(2) are equal and hash alike, their nodes not
    out = results.get(operands)
    if out is not None:
        return out
    for o in operands:
        if not (isinstance(o, ScalarExpr) and o._normal):
            break
    else:  # every operand is a normal node already
        out = results[operands] = build(*operands)
        return out
    operands = tuple(map(as_expr, operands))
    if not all(o._normal for o in operands):
        return build(*operands)
    out = results.get(operands)
    if out is None:
        out = results[operands] = build(*operands)
    return out


def add(*terms) -> ScalarExpr:
    return _remembered(_add, 0, terms)


def mul(*factors) -> ScalarExpr:
    return _remembered(_mul, 1, factors)


def _add(*terms) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)

    # collect like terms keyed on the symbolic factor tuple; a bucket keeps
    # its first term, and whether it is still the only one
    normal = True
    buckets: dict[tuple, list] = {}
    for t in flat:
        # a term that is itself a Sum comes from a hand-built nested Sum
        if not t._normal or type(t) is Sum:
            normal = False
        coeff, rest = _coeff_and_rest(t)
        bucket = buckets.get(rest)
        if bucket is None:
            buckets[rest] = [coeff, rest, t, True]
        else:
            bucket[0] = bucket[0] + coeff
            bucket[3] = False

    out: list[ScalarExpr] = []
    for coeff, rest, term, alone in sorted(buckets.values(), key=lambda b: _term_order(b[2], b[1])):
        if coeff == 0:
            continue
        if normal and alone:
            out.append(term)  # a normal term, untouched: the rebuild gives it back
        elif not rest:
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


def _mul(*factors) -> ScalarExpr:
    flat: list[ScalarExpr] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)

    normal = True
    coeff: Number | None = None  # the product of the constant factors, if any
    lone = ONE  # the one constant factor, while there is at most one
    # powers of identical bases are merged: keyed on the base node; `pows`
    # keeps a base's Pow factor while it is the base's only factor
    bases: dict[ScalarExpr, int] = {}
    pows: dict[ScalarExpr, ScalarExpr | None] = {}
    for f in flat:
        t = type(f)
        # a factor that is itself a Product comes from a hand-built nested one
        if not f._normal or t is Product:
            normal = False
        if t is Const:
            if f.value == 0:
                return ZERO
            if coeff is None:
                coeff, lone = f.value, f
            else:
                coeff, lone = coeff * f.value, None
        elif t is Pow:
            pows[f.base] = None if f.base in bases else f
            bases[f.base] = bases.get(f.base, 0) + f.exponent
        else:
            pows[f] = None
            bases[f] = bases.get(f, 0) + 1
    if coeff is None:
        coeff = _UNIT

    if coeff == 0:
        return ZERO
    c = lone or Const(coeff)
    rest: list[ScalarExpr] = []
    folded = False
    for base in sorted(bases, key=_key_of):
        expo = bases[base]
        if expo == 0:
            continue
        if expo == 1:
            rest.append(base)
        elif not normal:
            rest.append(Pow(base, expo))  # over a hand-built input: simplify() rebuilds it
        else:
            # power() folds a constant base and expands a quotient, product
            # or power (q*q is num^2/den^2), as simplify() would; a lone
            # normal Pow factor is what it would give back
            p = pows[base] or power(base, expo)
            folded = folded or not (isinstance(p, Pow) and p.base is base)
            rest.append(p)
    if folded:
        return mul(*((c,) if coeff != 1 else ()), *rest)

    if not rest:
        return c
    if coeff != 1:
        # distribute a bare constant over a lone sum so that c*(a+b) and
        # c*a + c*b collect to the same tree (linear, no expression swell)
        if len(rest) == 1 and isinstance(rest[0], Sum):
            return add(*(mul(c, t) for t in rest[0].terms))
        return _mark(Product((c,) + tuple(rest)), normal)
    if len(rest) == 1:
        return rest[0]
    return _mark(Product(tuple(rest)), normal)


def negate(e) -> ScalarExpr:
    return mul(MINUS_ONE, as_expr(e))


def _as_monomial(e: ScalarExpr):
    """Decompose into (constant, {base: int exponent}) or None.

    Sums and quotients are not monomials; Func nodes count as atomic bases.
    """
    coeff: Number = Fraction(1)
    bases: dict[ScalarExpr, int] = {}
    factors = e.factors if isinstance(e, Product) else (e,)
    for f in factors:
        if isinstance(f, Const):
            coeff = coeff * f.value
        elif isinstance(f, (Sum, Quotient)):
            return None
        elif isinstance(f, Pow):
            bases[f.base] = bases.get(f.base, 0) + f.exponent
        else:
            bases[f] = bases.get(f, 0) + 1
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
    if not any(b in nbases for b in dbases):
        return None
    merged = dict(nbases)
    for b, e in dbases.items():
        merged[b] = merged.get(b, 0) - e
    top = [power(b, e) for b, e in merged.items() if e > 0]
    bottom = [power(b, -e) for b, e in merged.items() if e < 0]
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

    The rebuild runs off an explicit stack, operands before their node and
    each operand's subtree in turn, so depth is bounded by memory, not by
    the recursion limit.
    """
    e = as_expr(e)
    if e._normal:  # most calls: no table or stack to set up
        return e
    done: dict[ScalarExpr, ScalarExpr] = {}
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its operands are rebuilt
            node = node[0]
            done[node] = _rebuilt(node, done.__getitem__)
        elif node not in done:
            if node._normal:
                done[node] = node
            else:
                stack.append((node,))
                kids = (node.num, node.den) if isinstance(node, Quotient) else _children(node)
                stack.extend(reversed(kids))
    return done[e]


def _rebuilt(e: ScalarExpr, simplified) -> ScalarExpr:
    """One layer of the simplify() rebuild; simplified(child) gives each
    child's rebuild."""
    if isinstance(e, Sum):
        return add(*map(simplified, e.terms))
    if isinstance(e, Product):
        return mul(*map(simplified, e.factors))
    if isinstance(e, Quotient):
        return quotient(simplified(e.num), simplified(e.den))
    if isinstance(e, Pow):
        return power(simplified(e.base), e.exponent)
    if isinstance(e, Func):
        return func(e.name, *map(simplified, e.args))
    raise ExprError(f"unknown node {type(e).__name__}")


def param_names(e: ScalarExpr) -> tuple[str, ...]:
    """The sorted names of the parameters e uses."""
    names: set[str] = set()
    seen: set[ScalarExpr] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if isinstance(node, Param):
                names.add(node.name)
            stack.extend(_children(node))
    return tuple(sorted(names))


def is_syntactic_zero(e: ScalarExpr) -> bool:
    return isinstance(e, Const) and e.value == 0


# ---------------------------------------------------------------------------
# Differentiation


def differentiate(e: ScalarExpr, index: int) -> ScalarExpr:
    """Exact partial derivative with respect to chart coordinate `index`.

    Inside run_memo() each partial of a compound node is built once and
    kept in the memo for the scope.  Outside one nothing is remembered:
    the call keeps its partials for itself only, so a subtree shared within
    e is differentiated once per call.

    The compound nodes below e whose partials are not kept are
    differentiated first, bottom-up off an explicit stack, so depth is
    bounded by memory, not by the recursion limit.
    """
    e = as_expr(e)
    memo = _MEMO.get()
    partials = None if memo is None else memo[2]
    d = _kept_partial(e, index, partials)
    if d is not None:
        return d
    done: dict[ScalarExpr, ScalarExpr] = {}  # this call's partials
    partial = done.__getitem__
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its children's partials are done
            node = node[0]
            d = done[node] = _derivative(node, index, partial)
            if partials is not None:
                partials[(node, index)] = d
            continue
        if node in done:
            continue
        stack.append((node,))
        for c in _children(node):
            if c not in done:
                d = _kept_partial(c, index, partials)
                if d is None:
                    stack.append(c)
                else:
                    done[c] = d
    return done[e]


def _kept_partial(e: ScalarExpr, index: int, partials: dict | None) -> ScalarExpr | None:
    """The partial of a leaf or of a normal node free of x_index, or the one
    the run memo's partials keep; None when there is no such partial."""
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.index == index else ZERO
    if e._normal and index >= 0 and not e._coords >> index & 1:
        return ZERO  # the constructors fold its partial to 0: nothing to walk
    return None if partials is None else partials.get((e, index))


def _derivative(e: ScalarExpr, index: int, partial) -> ScalarExpr:
    """One layer of the chain rule over a compound node; partial(child)
    gives each child's partial."""
    if isinstance(e, Sum):
        return add(*(partial(t) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            df = partial(f)
            if is_syntactic_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mul(df, *rest))
        return add(*terms) if terms else ZERO
    if isinstance(e, Quotient):
        du = partial(e.num)
        dv = partial(e.den)
        num = add(mul(du, e.den), negate(mul(e.num, dv)))
        return quotient(num, power(e.den, 2))
    if isinstance(e, Pow):
        db = partial(e.base)
        if is_syntactic_zero(db):
            return ZERO
        return mul(Const(e.exponent), power(e.base, e.exponent - 1), db)
    if isinstance(e, Func):
        if e.name == "atan2":
            y, x = e.args
            dy = partial(y)
            dx = partial(x)
            num = add(mul(x, dy), negate(mul(y, dx)))
            return quotient(num, add(power(x, 2), power(y, 2)))
        a = e.args[0]
        da = partial(a)
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
# module docstring).


_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt}

# tape opcodes, most frequent first: the executor tests them in this order
_PRODUCT, _SUM, _COORD, _CONST, _POW, _QUOTIENT, _FUNC, _ATAN2, _PARAM = range(9)


class Tape:
    """The distinct nodes of one or more roots as a straight-line program.

    Nodes are listed once each, children before parents, in the order of a
    depth-first walk of the roots in turn; instruction i, (opcode, payload,
    operand slots), writes slot i.  `index` maps each node to its slot and
    `outputs` holds the roots' slots.  The compiler keeps an explicit stack,
    so depth is not bounded by Python's recursion limit.  A tape holds no
    values: run() executes it over a batch of rows.
    """

    def __init__(self, roots: Sequence[ScalarExpr]):
        index: dict[ScalarExpr, int] = {}
        code: list[tuple] = []
        for root in roots:
            stack: list = [root]
            while stack:
                node = stack.pop()
                if type(node) is tuple:  # (opcode, payload, children, node): children done
                    op, arg, kids, node = node
                    index[node] = len(code)
                    code.append((op, arg, [index[c] for c in kids]))
                    continue
                if node in index:
                    continue
                t = type(node)
                if t is Product:
                    node = (_PRODUCT, None, node.factors, node)
                elif t is Sum:
                    node = (_SUM, None, node.terms, node)
                elif t is Pow:
                    node = (_POW, node.exponent, (node.base,), node)
                elif t is Quotient:  # the denominator first: its zeros are found first
                    node = (_QUOTIENT, None, (node.den, node.num), node)
                elif t is Func and node.name == "atan2":
                    node = (_ATAN2, None, node.args, node)
                elif t is Func:
                    node = (_FUNC, _UFUNCS[node.name], node.args, node)
                else:
                    index[node] = len(code)
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
        self.outputs = tuple(index[r] for r in self.roots)

    @functools.cached_property
    def params(self) -> tuple[str, ...]:
        """The names of the parameters the roots use."""
        return tuple(sorted({arg for op, arg, _ in self.code if op == _PARAM}))

    @functools.cached_property
    def coords(self) -> tuple[int, ...]:
        """The coordinate indices the roots use."""
        return tuple(sorted({arg for op, arg, _ in self.code if op == _COORD}))

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
        the roots' slots stay.  An infinity becomes NaN where it arises.  A
        coordinate, parameter or infinite constant is swept for infinities
        as it is loaded; an operation on finite operands makes one only
        with numpy's overflow or divide-by-zero flag, so the run raises on
        those flags and only then repeats with every instruction swept,
        which gives the bits sweeping every instruction always gives.
        """
        dead = () if keep else self._dead
        try:
            return self._execute(points, params, False, dead)
        except FloatingPointError:
            return self._execute(points, params, True, dead)

    def _execute(self, points: np.ndarray, params: Mapping, sweep: bool, dead, slots=None) -> list:
        """The slots of one run, filled into `slots` when given: a run that
        raises leaves every slot before the failing instruction set.  Unless
        `sweep`, only loaded values are swept, and an overflow or a division
        by zero raises FloatingPointError."""
        k, n = points.shape
        one = np.ones(k)
        if slots is None:
            slots = [None] * len(self.code)
        flags = "ignore" if sweep else "raise"
        with np.errstate(over=flags, divide=flags, invalid="ignore", under="ignore"):
            for i, (op, arg, operands) in enumerate(self.code):
                load = False
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
                    load = True
                elif op == _CONST:
                    v = one * arg
                    load = math.isinf(arg)
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
                    load = True
                if sweep or load:
                    v[np.isinf(v)] = math.nan  # every v here is a new array
                slots[i] = v
                if dead:
                    for s in dead[i]:
                        slots[s] = None
        return slots

    @functools.cached_property
    def _subtrees(self) -> tuple:
        """Per root, its slot and those of its descendants: for the first
        root every slot up to its own, as the compiler lists it first."""
        out: list = [slice(0, self.outputs[0] + 1)] if self.outputs else []
        for root in self.outputs[1:]:
            seen, stack = {root}, [root]
            while stack:
                new = set(self.code[stack.pop()][2]) - seen
                seen |= new
                stack.extend(new)
            out.append(np.array(sorted(seen)))
        return tuple(out)

    def scaled_rows(
        self, points: np.ndarray, params: Mapping
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each root's values at the rows of `points` and, per row, the
        largest magnitude over the slots of that root's subtree: what a
        one-root tape of the root gives.  Singular rows are NaN."""
        slots = self.run(points, params, keep=True)
        magnitudes = np.abs(np.array(slots))
        return (
            [slots[s] for s in self.outputs],
            [magnitudes[sub].max(axis=0) for sub in self._subtrees],
        )

    def values(
        self, points: np.ndarray, params: Mapping, chart: Chart | None = None
    ) -> list[np.ndarray]:
        """The roots' values at every row, from one run.  A failure raises
        the error of the first root that fails, as a one-root tape of each
        root in turn would raise it; a SingularityError names the
        subexpression in chart's coordinate names."""
        try:
            slots = self.run(points, params)
        except EvalError:
            slots = None
        if slots is None or any(np.isnan(slots[s]).any() for s in self.outputs):
            self._raise_first_error(points, params, chart)
        return [slots[s] for s in self.outputs]

    def _raise_first_error(self, points: np.ndarray, params: Mapping, chart: Chart | None) -> None:
        """Raise the error of the first root that fails, found on one more
        run that keeps every slot: a run that raises stops in the first
        root whose slot it does not reach, and a root before it fails first
        if it is singular at some row."""
        slots: list = [None] * len(self.code)
        try:
            self._execute(points, params, True, (), slots)
        except EvalError:
            self._raise_singular(slots, points, chart)
            raise
        self._raise_singular(slots, points, chart)

    def _raise_singular(self, slots: list, points: np.ndarray, chart: Chart | None) -> None:
        """Raise _singularity's error for the first root singular at some
        row, among the roots before the first slot the run did not fill."""
        memo = {node: slots[i] for node, i in self.index.items()}
        for root, s in zip(self.roots, self.outputs):
            if slots[s] is None:
                return
            if np.isnan(slots[s]).any():
                raise _singularity(root, memo, points, chart) from None

    def at(self, point: Sequence[float], params: Mapping | None = None) -> list[float]:
        """The roots' values at one point; raises as values() does."""
        try:
            row = np.array([tuple(float(c) for c in point)])
        except TypeError:
            raise EvalError(f"point must be a coordinate sequence, got {point!r}") from None
        return [float(v[0]) for v in self.values(row, params or {})]


def _fault(node: ScalarExpr, memo: Mapping[ScalarExpr, np.ndarray], i: int) -> str:
    """What makes node singular at row i, its operands being finite there."""
    args = [memo[c][i] for c in _children(node)]
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


def _singularity(e: ScalarExpr, memo, points: np.ndarray, chart: Chart | None) -> SingularityError:
    """The error for the first node, in evaluation order, with a singular
    row, at that node's first such row; a quotient is singular where its
    denominator is zero before its numerator is reached.  The walk keeps
    its own stack, so a tree of any depth gets its error."""
    seen: set[ScalarExpr] = set()
    stack = [(e, 0)]  # (node, how many of its operands are walked)
    while stack:
        node, done = stack.pop()
        if done == 0 and node in seen:
            continue
        seen.add(node)
        kids, bad = _children(node), None
        if done == 1 and isinstance(node, Quotient):
            bad = memo[kids[0]] == 0.0
        elif done == len(kids):
            bad = np.isnan(memo[node])
        if bad is not None and bad.any():
            break
        if done < len(kids):
            stack += [(node, done + 1), (kids[done], 0)]
    i = int(np.argmax(bad))
    pt = tuple(points[i].tolist())
    text = to_text(node, chart)
    if len(text) > 60:  # bounded as parse.quoted bounds a config text
        text = f"{text[:60]}... ({len(text)} characters)"
    return SingularityError(f"{_fault(node, memo, i)} in {text} at point {pt}", node, pt)


def eval_with_scale(
    e: ScalarExpr,
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> tuple[float, float]:
    """e and its largest intermediate magnitude at one point; raises where e
    is singular.  No package caller: bench/tracing.py wraps it by name until
    the run trace of ROADMAP item 5 replaces that tracer."""
    tape, row = Tape((e,)), np.array([point], dtype=float)
    (value,), (scale,) = tape.scaled_rows(row, params or {})
    if np.isnan(value[0]):
        tape._raise_first_error(row, params or {}, None)
    return float(value[0]), float(scale[0])


def eval_many(
    e: ScalarExpr,
    points: np.ndarray,
    params: Mapping[str, float] | None = None,
) -> np.ndarray:
    """e at every row of an (m, n) array of points; a singular row raises.
    No package caller: kept for bench/tracing.py, as eval_with_scale is."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise EvalError("points must be a 2-d array (m, n)")
    return Tape((e,)).values(points, params or {})[0]


# ---------------------------------------------------------------------------
# Printing


def _const_text(v: Number) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


# binding strength of each compound node's own text; leaves and calls bind
# tightest (4)
_PREC = {Sum: 1, Product: 2, Quotient: 2, Pow: 3}


def to_text(e: ScalarExpr, chart: Chart | None = None) -> str:
    """Infix rendering, parseable by the expression grammar.

    Each distinct node is rendered once, children first, off an explicit
    stack, so depth is bounded by memory, not by the recursion limit.
    Inside run_memo() the node -> text table is kept per chart for the
    run, so each node is rendered once per run.
    """
    text: dict[ScalarExpr, str] = remember(("to_text", chart), dict)
    stack = [e]
    while stack:
        node = stack[-1]
        if node in text:
            stack.pop()
            continue
        todo = [k for k in _children(node) if k not in text]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        text[node] = _node_text(node, text, chart)
    return text[e]


def _wrapped(node: ScalarExpr, text: Mapping, minimum: int) -> str:
    s = text[node]
    return f"({s})" if _PREC.get(type(node), 4) < minimum else s


def _factor_text(node: ScalarExpr, text: Mapping) -> str:
    s = _wrapped(node, text, 3)
    return f"({s})" if s.startswith("-") else s


def _node_text(node: ScalarExpr, text: Mapping, chart: Chart | None) -> str:
    """node's text, its children's being in `text`."""
    t = type(node)
    if t is Const:
        # a negative constant keeps its sign; parents parenthesize by _PREC
        return _const_text(node.value)
    if t is Coord:
        i = node.index
        return chart.names[i] if chart is not None and i < chart.dim else f"x{i}"
    if t is Param:
        return node.name
    if t is Sum:
        first, *rest = node.terms
        parts = [text[first]]
        for term in rest:
            s = _wrapped(term, text, 2)
            parts.append("- " + s[1:] if s.startswith("-") else "+ " + s)
        return " ".join(parts)
    if t is Product:
        fs = node.factors
        if isinstance(fs[0], Const) and fs[0].value == -1 and len(fs) > 1:
            return "-" + "*".join(_factor_text(f, text) for f in fs[1:])
        return "*".join(_factor_text(f, text) for f in fs)
    if t is Quotient:
        return f"{_wrapped(node.num, text, 3)} / {_wrapped(node.den, text, 3)}"
    if t is Pow:
        base = _wrapped(node.base, text, 4)
        if base.startswith("-"):  # -3^2 would read as -(3^2)
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if t is Func:
        return f"{node.name}({', '.join(text[a] for a in node.args)})"
    raise ExprError(f"unknown node {t.__name__}")


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

    A tester draws the rows of each set of parameter names once, from a
    fresh stream seeded with its seed, and keeps them and their guard mask,
    so no verdict depends on the tests before it.  A verdict is thus a
    function of the simplified tree, and the tester keeps one per distinct
    tree: a repeated test returns it without sampling.  An inconclusive
    test keeps nothing and raises again when repeated.
    """

    n_samples = 64
    eps = 1e-9
    min_valid = 8

    def __init__(self, box: Box, seed: int = DEFAULT_SEED):
        self.box = box
        self.seed = int(seed)
        self._guards = Tape(box.guards)
        self._rows: dict[tuple[str, ...], tuple] = {}  # names -> draw_rows' rows
        self._guarded: dict[tuple[str, ...], np.ndarray] = {}  # names -> guard mask
        self._verdicts: dict[ScalarExpr, ZeroVerdict] = {}  # simplified tree -> verdict

    def rows(self, names: tuple[str, ...], k: int | None = None) -> tuple:
        """The first k (by default all 8 * n_samples) sample rows for the
        parameter names `names`, as draw_rows returns them."""
        if names not in self._rows:
            rng = np.random.default_rng(self.seed)
            self._rows[names] = draw_rows(self.box, rng, names, 8 * self.n_samples)
        points, params = self._rows[names]
        return points[:k], {nm: col[:k] for nm, col in params.items()}

    def test(self, e: ScalarExpr) -> ZeroVerdict:
        e = simplify(e)
        if isinstance(e, Const):
            v = float(e.value)
            if abs(v) <= self.eps:
                return ZeroVerdict(True, None, None, None, 0, 0, True)
            return ZeroVerdict(False, None, None, v, 0, 0, True)
        verdict = self._verdicts.get(e)
        if verdict is None:
            verdict = self._verdicts[e] = self._sampled(e)
        return verdict

    def _sampled(self, e: ScalarExpr) -> ZeroVerdict:
        """The sampled verdict on the simplified, non-constant tree e."""
        tape, guards = Tape((e,)), self._guards
        needed = max((*tape.coords, *guards.coords), default=-1) + 1
        if needed > self.box.dim:
            raise ExprError(
                f"expression uses coordinate index {needed - 1} but the sampling box "
                f"has dimension {self.box.dim}"
            )
        names = tuple(sorted({*tape.params, *guards.params}))
        points, params = self.rows(names)
        guarded = self._guarded.get(names)
        if guarded is None:
            slots = guards.run(points, params)
            guarded = self._guarded[names] = np.zeros(len(points), dtype=bool)
            for s in guards.outputs:
                guarded |= ~(np.abs(slots[s]) >= self.box.guard_tol)  # guarded or singular

        # Rows are read in chunks no larger than the rows still needed, so
        # the test stops at the same row, with the same counts, as a read of
        # one row at a time.
        valid = 0
        skipped = 0
        attempts = 0
        max_attempts = len(points)
        while valid < self.n_samples and attempts < max_attempts:
            k = min(self.n_samples - valid, max_attempts - attempts)
            chunk = slice(attempts, attempts + k)
            (v,), (scale,) = tape.scaled_rows(
                points[chunk], {nm: col[chunk] for nm, col in params.items()}
            )
            skip = guarded[chunk] | np.isnan(v)
            over = np.flatnonzero(~skip & (np.abs(v) > self.eps * (1.0 + scale)))
            if over.size:
                i = int(over[0])
                skipped += int(skip[:i].sum())
                valid = attempts + i + 1 - skipped
                pr = {nm: float(col[attempts + i]) for nm, col in params.items()}
                return ZeroVerdict(False, tuple(points[attempts + i].tolist()), pr,
                                   float(v[i]), valid, skipped, False)
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
        """A tester with this one's box and seed plus `guards`: the one way to
        add a guard.  It shares this one's rows, which no guard changes."""
        tester = ZeroTester(replace(self.box, guards=(*self.box.guards, *guards)), self.seed)
        tester._rows = self._rows
        return tester
