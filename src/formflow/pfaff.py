"""Topological anatomy of a single action 1-form.

Given a 1-form A on an n-chart this module builds the Pfaff sequence
{A, dA, A^dA, dA^dA, ...}, reports its global and pointwise dimension,
assembles the Cartan topological base (disconnected exactly when A is not
Frobenius-integrable), and on 4-charts extracts the torsion vector T
solving i(T)Omega = A^dA, the dissipation coefficient Gamma with
i(T)dA = Gamma*A, the parity 4-form K = dA^dA and the genus dichotomy.
An Anatomy holds these objects for one action, so that a run builds each of
them once and zero-tests them with the run's zero tester.

Orientation convention: Omega = dx^dy^dz^dt, so
    i(T)Omega = T1 dy^dz^dt - T2 dx^dz^dt + T3 dx^dy^dt - T4 dx^dy^dz.
All signs downstream (torsion current, helicity density, Gamma, parity)
follow from this single choice; see docs/conventions.md for the table
relating it to the component lists common in the fluids literature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from . import forms as fm
from .expr import ScalarExpr, ZeroTester, ZeroVerdict
from .forms import DifferentialForm, VectorField

__all__ = [
    "Anatomy",
    "PfaffSequence",
    "TopologicalBase",
    "TorsionData",
    "GenusReport",
    "pfaff_sequence",
    "cartan_topological_base",
    "torsion_data",
    "torsion_vector",
    "parity",
    "genus_diagnostic",
    "form_is_zero",
]


class Anatomy:
    """The objects derived from one 1-form A, each built on first use and kept.

    dA and its zero verdict, H = A^dA, K = dA^dA, the Pfaff sequence, the
    torsion data (T, Gamma) and the genus are computed at most once per
    instance; `process_reports` keeps thermo's classification along each J.
    Every sampled verdict uses `context`, the zero tester of the run that
    owns the instance.  `cycles` (the closed 1-chains among `chains`),
    `points` and `params` are that run's probes: period cycles, points of
    the pointwise Pfaff dimension, and parameter bindings for evaluation.
    """

    def __init__(
        self,
        A: DifferentialForm,
        context: ZeroTester,
        chains: Sequence = (),
        points: Sequence[Sequence[float]] = (),
        params: Mapping[str, float] | None = None,
    ):
        self.A = A
        self.context = context
        self.cycles = tuple(c for c in chains if c.degree == 1 and c.closed)
        self.points = tuple(tuple(float(c) for c in p) for p in points)
        self.params = dict(params or {})
        self.process_reports: dict = {}

    @cached_property
    def dA(self) -> DifferentialForm:
        return fm.exterior_derivative(self.A)

    @cached_property
    def H(self) -> DifferentialForm:
        return fm.wedge(self.A, self.dA)

    @cached_property
    def K(self) -> DifferentialForm:
        return fm.wedge(self.dA, self.dA)

    @cached_property
    def closed(self) -> ZeroVerdict:
        """dA's zero verdict, read by the Pfaff sequence and the periods."""
        return form_is_zero(self.dA, self.context)

    @cached_property
    def sequence(self) -> "PfaffSequence":
        return pfaff_sequence(self)

    @cached_property
    def torsion(self) -> "TorsionData":
        return torsion_data(self)

    @cached_property
    def genus(self) -> "GenusReport":
        return genus_diagnostic(self)


def form_is_zero(w: DifferentialForm, tester: ZeroTester) -> ZeroVerdict:
    """Zero verdict for a form: every coefficient must pass the zero test."""
    for idx, c in w.coeffs.items():
        v = tester.test(c)
        if not v:
            return v
    return ZeroVerdict(zero=True, syntactic=w.is_syntactically_zero)


# ---------------------------------------------------------------------------
# Pfaff sequence


@dataclass(frozen=True)
class PfaffSequence:
    """The alternating sequence {A, dA, A^dA, dA^dA, ...} up to top degree."""

    elements: tuple[DifferentialForm, ...]
    verdicts: tuple[ZeroVerdict, ...]
    dimension: int
    pointwise: tuple[tuple[tuple[float, ...], int], ...] = ()

    def zero(self, k: int) -> ZeroVerdict:
        """Zero verdict of element k; an element past the top degree is zero."""
        if k < len(self.verdicts):
            return self.verdicts[k]
        return ZeroVerdict(zero=True, syntactic=True)

    @property
    def labels(self) -> tuple[str, ...]:
        return _SEQUENCE_LABELS[: len(self.elements)]


_SEQUENCE_LABELS = ("A", "dA", "A^dA", "dA^dA", "A^dA^dA", "dA^dA^dA")


def _build_sequence(a: Anatomy) -> list[DifferentialForm]:
    # element k has degree k + 1 and is element k - 2 wedged with dA:
    # A, dA, A^dA, dA^dA, A^dA^dA, ... up to the top degree
    n = a.A.chart.dim
    out = [a.A, a.dA, a.H, a.K][:n]
    while len(out) < n:
        out.append(fm.wedge(out[-2], a.dA))
    return out


def pfaff_sequence(a: Anatomy) -> PfaffSequence:
    """Pfaff sequence of a.A with zero verdicts, global and pointwise dimension.

    The global dimension counts leading nonzero elements over the sampling
    box; the pointwise dimension repeats the count using the element
    coefficients evaluated at each of a.points.
    """
    if a.A.degree != 1:
        raise fm.FormError("pfaff sequence is defined for 1-forms")
    elements = _build_sequence(a)
    verdicts = [form_is_zero(w, a.context) if k != 1 else a.closed for k, w in enumerate(elements)]
    dimension = 0
    for v in verdicts:
        if v.zero:
            break
        dimension += 1

    # elements x points; a point's dimension counts its leading nonzero rows
    nonzero = np.array([_nonzero_at(w, a.points, a.params) for w in elements])
    dims = np.logical_and.accumulate(nonzero, axis=0).sum(axis=0)
    pointwise = tuple((p, int(d)) for p, d in zip(a.points, dims))
    return PfaffSequence(tuple(elements), tuple(verdicts), dimension, pointwise)


def _nonzero_at(w: DifferentialForm, points, params) -> np.ndarray:
    """Per point: does some coefficient of w, nonsingular there, exceed the
    zero test's tolerance?"""
    out = np.zeros(len(points), dtype=bool)
    if points:
        values, scales = ex.Tape().grow(
            tuple(w.coeffs.values()), np.array(points, dtype=float), params
        )
        for v, scale in zip(values, scales):
            out |= np.abs(v) > ZeroTester.eps * (1.0 + scale)  # False on singular (NaN) rows
    return out


# ---------------------------------------------------------------------------
# Cartan topological base


@dataclass(frozen=True)
class TopologicalBase:
    """Base elements {A, A u F, H, H u K} with closures; F = dA, K = dH = dA^dA."""

    elements: tuple[tuple[str, tuple[DifferentialForm, ...]], ...]
    disconnected: bool


def cartan_topological_base(a: Anatomy) -> TopologicalBase:
    """Assemble the base from the odd Pfaff elements and their closures.

    The closure of a form adjoins its exterior derivative, so the base reads
    {A} -> {A, F}, {H} -> {H, K}.  The induced topology is disconnected
    exactly when H = A^dA does not vanish.
    """
    elements = (
        ("A", (a.A,)),
        ("A u F", (a.A, a.dA)),
        ("H", (a.H,)),
        ("H u K", (a.H, a.K)),
    )
    disconnected = not a.sequence.zero(2)
    return TopologicalBase(elements, disconnected)


# ---------------------------------------------------------------------------
# Torsion and parity on the 4-chart


@dataclass(frozen=True)
class TorsionData:
    """Torsion 3-form and its vector counterpart on a 4-chart."""

    torsion_form: DifferentialForm  # H = A^dA
    parity_form: DifferentialForm  # K = dA^dA
    parity_coefficient: ScalarExpr  # K = k * Omega
    vector: VectorField  # T with i(T)Omega = H
    gamma: ScalarExpr  # i(T)dA = Gamma * A
    spatial_current: tuple[ScalarExpr, ScalarExpr, ScalarExpr]
    helicity_density: ScalarExpr


def _require_4chart(A: DifferentialForm):
    if A.chart.dim != 4:
        raise fm.FormError("torsion extraction needs a 4-chart")
    if A.degree != 1:
        raise fm.FormError("torsion extraction needs a 1-form")


def torsion_vector(H: DifferentialForm) -> tuple[ScalarExpr, ...]:
    """Components of the T solving i(T)Omega = H for a 3-form H on a 4-chart."""
    # i(T)Omega = T1 dy^dz^dt - T2 dx^dz^dt + T3 dx^dy^dt - T4 dx^dy^dz
    return (
        H.coeff((1, 2, 3)),
        ex.negate(H.coeff((0, 2, 3))),
        H.coeff((0, 1, 3)),
        ex.negate(H.coeff((0, 1, 2))),
    )


def torsion_data(a: Anatomy) -> TorsionData:
    """Extract T solving i(T)Omega = A^dA, Gamma with i(T)dA = Gamma*A, and
    the parity coefficient.

    i(T)Omega = A^dA, i(T)A = 0 and i(T)dA = Gamma*A are theorems for every
    smooth 1-form; the test suite checks them, a run does not.
    """
    _require_4chart(a.A)
    A, H, K = a.A, a.H, a.K
    comps = torsion_vector(H)
    T = VectorField(A.chart, comps)
    gamma = _extract_gamma(A, a.dA, T)
    spatial = (comps[0], comps[1], comps[2])
    return TorsionData(H, K, K.coeff((0, 1, 2, 3)), T, gamma, spatial, comps[3])


def _extract_gamma(A: DifferentialForm, dA: DifferentialForm, T: VectorField) -> ScalarExpr:
    """Gamma in i(T)dA = Gamma*A, solved in the first component of A that is
    not syntactically zero; every other component gives the same quotient."""
    for mu in range(A.chart.dim):
        a_mu = A.coeff((mu,))
        if not ex.is_syntactic_zero(a_mu):
            return ex.quotient(fm.interior(T, dA).coeff((mu,)), a_mu)
    return ex.ZERO  # A is the zero form; proportionality is vacuous


def parity(a: Anatomy) -> tuple[DifferentialForm, ScalarExpr]:
    """Parity 4-form K = dA^dA and its lone coefficient; K = d(A^dA) holds
    for every smooth A, and the test suite checks it."""
    _require_4chart(a.A)
    return a.K, a.K.coeff((0, 1, 2, 3))


# ---------------------------------------------------------------------------
# Genus dichotomy


@dataclass(frozen=True)
class GenusReport:
    genus: int  # 3 when the spatial torsion current vanishes, else 2
    torsion_current_zero: bool


def genus_diagnostic(a: Anatomy) -> GenusReport:
    """Genus of the exterior system {A = 0, dA = 0}: 3 without a torsion
    current, 2 with one.

    The discriminating object is the dt-free 2-form obtained by eliminating
    dt between the two equations; its coefficients are the components of the
    spatial torsion current, so the verdict reduces to a zero test on them.
    """
    t1, t2, t3 = a.torsion.spatial_current
    two_form = DifferentialForm(
        a.A.chart, 2, {(1, 2): t1, (0, 2): ex.negate(t2), (0, 1): t3}
    )
    current_zero = bool(form_is_zero(two_form, a.context))
    return GenusReport(3 if current_zero else 2, current_zero)

