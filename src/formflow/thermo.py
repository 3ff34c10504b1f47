"""Process analysis for action 1-forms: first law, classification, reversibility.

Everything here hangs off one split.  Propagating an action 1-form A along
a flow J decomposes as

    L(J)A = i(J)dA + d(i(J)A) = W + dU = Q,

which casts the Lie derivative as a first law: heat = work + change of
internal energy.  The split is exact by construction; what varies between
processes is how much structure Q retains.  dQ = 0 marks a closed flow,
Q^dQ = 0 marks a reversible one (an integrating factor exists), W = 0 marks
a Hamiltonian one, and the periods of a closed W over registered test
cycles separate exact work forms from merely-closed ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import chains as ch
from . import forms as fm
from . import pfaff as pf
from .expr import InconclusiveError
from .forms import DifferentialForm, VectorField
from .pfaff import Anatomy, InternalConsistencyError

__all__ = [
    "ProcessFlags",
    "ProcessReport",
    "SecondVariation",
    "ThermoError",
    "classify",
    "process_report",
    "first_law",
    "second_variation",
    "CATEGORY_HAMILTONIAN",
    "CATEGORY_BERNOULLI",
    "CATEGORY_STOKES",
    "CATEGORY_OPEN",
    "CATEGORY_CLOSED_UNDETERMINED",
    "CATEGORY_UNCLASSIFIED",
]


class ThermoError(Exception):
    """Misuse of the process-analysis API."""


CATEGORY_HAMILTONIAN = "Hamiltonian"
CATEGORY_BERNOULLI = "Euler-Bernoulli"
CATEGORY_STOKES = "Stokes"
CATEGORY_OPEN = "open/Navier-Stokes-like"
CATEGORY_CLOSED_UNDETERMINED = "closed (exactness undetermined)"
CATEGORY_UNCLASSIFIED = "unclassified"

# A period of magnitude at most PERIOD_TOL * (1 + integrand scale) vanishes.
PERIOD_TOL = 1e-7


def first_law(
    a: Anatomy, J: VectorField
) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm]:
    """Split L(J)A into (Q, W, U): heat, work, internal energy, for A = a.A.

    W = i(J)dA, U = i(J)A, Q = W + dU.  Cartan's formula makes Q the Lie
    derivative L(J)A; the test suite checks the two against each other.
    """
    A = a.A
    if A.degree != 1:
        raise ThermoError("first law operates on action 1-forms")
    W = fm.interior(J, a.dA)
    U = fm.interior(J, A)
    Q = fm.add_forms(W, fm.exterior_derivative(U))
    return Q, W, U


@dataclass(frozen=True)
class SecondVariation:
    """Second propagation R = L(J)Q and its exactness evidence.

    For closed flows (dQ = 0) the transversality i(J)W = 0 forces
    R = d(i(J)Q): exact, so dR = 0 and every period of R vanishes.  The
    same mechanism gives L(J)(Q^F) = d(i(J)Q * F).  Open flows get the
    same residuals reported without any claim.
    """

    radiation: DifferentialForm
    closed_flow: bool
    dR_zero: bool
    exactness_residual_zero: bool  # R - d(i(J)Q)
    wedge_comparison_zero: bool  # L(J)(Q^F) - d(i(J)Q * F)
    integrals: tuple[ch.IntegralResult, ...]  # R over each registered cycle
    periods_vanish: bool | None  # None when no cycles are registered

    @property
    def periods(self) -> tuple[float, ...]:
        return tuple(r.value for r in self.integrals)


def second_variation(a: Anatomy, J: VectorField, heat: Anatomy) -> SecondVariation:
    """Propagate the heat form Q = heat.A of a.A along J once more:
    R = L(J)Q, with exactness evidence and its periods over a.cycles.
    dQ = 0 is read off heat's Pfaff sequence."""
    Q, F = heat.A, a.dA
    R = fm.lie_derivative(J, Q)
    potential = fm.interior(J, Q)

    tester = a.context
    closed_flow = heat.sequence.zero(1).zero

    dR = fm.exterior_derivative(R)
    dR_zero = pf.form_is_zero(dR, tester).zero
    residual = fm.sub_forms(R, fm.exterior_derivative(potential))
    residual_zero = pf.form_is_zero(residual, tester).zero

    wedge_diff = fm.sub_forms(
        fm.lie_derivative(J, fm.wedge(Q, F)),
        fm.exterior_derivative(fm.wedge(potential, F)),
    )
    wedge_zero = pf.form_is_zero(wedge_diff, tester).zero

    if closed_flow and not dR_zero:
        raise InternalConsistencyError(
            "closed flow produced a non-closed radiation form"
        )
    if closed_flow and not residual_zero:
        raise InternalConsistencyError(
            "closed flow radiation differs from d(i(J)Q)"
        )

    integrals = tuple(ch.integrate(R, c, params=a.params) for c in a.cycles)
    vanish = (
        all(abs(r.value) <= PERIOD_TOL * (1.0 + r.scale) for r in integrals)
        if integrals
        else None
    )
    return SecondVariation(
        R, closed_flow, dR_zero, residual_zero, wedge_zero, integrals, vanish
    )


@dataclass(frozen=True)
class ProcessFlags:
    adiabatic: bool  # Q = 0
    closed_flow: bool  # dQ = 0
    open_flow: bool
    reversible: bool  # Q^dQ = 0
    irreversible: bool
    associated: bool  # i(J)A = 0
    extremal: bool  # i(J)dA = 0
    characteristic: bool  # both
    hamiltonian: bool  # W = 0 (same test as extremal; named per category)
    radiative: bool  # L(J)Q != 0

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


@dataclass(frozen=True)
class ProcessReport:
    Q: DifferentialForm
    W: DifferentialForm
    U: DifferentialForm
    dQ: DifferentialForm
    QdQ: DifferentialForm
    pfaff: pf.PfaffSequence  # Pfaff sequence of Q
    flags: ProcessFlags
    category: str
    second: SecondVariation
    work_periods: tuple[float, ...]


def process_report(a: Anatomy, J: VectorField) -> ProcessReport:
    """classify(a, J), computed once per anatomy and field."""
    if J not in a.process_reports:
        a.process_reports[J] = classify(a, J)
    return a.process_reports[J]


def classify(a: Anatomy, J: VectorField) -> ProcessReport:
    """Full process report for A = a.A along J: first-law split, flags,
    category, second variation.

    Category logic: W = 0 is Hamiltonian; dW = 0 splits into Euler-Bernoulli
    (all periods of W over a.cycles vanish) and Stokes (some period
    survives), or stays undetermined without cycles; anything else is open.
    The verdicts on Q, dQ and Q^dQ are read off Q's Pfaff sequence, which
    the report keeps.
    """
    Q, W, U = first_law(a, J)
    heat = Anatomy(Q, a.context, points=a.points, params=a.params)
    dQ, QdQ = heat.dA, heat.H

    tester = a.context
    q_zero = heat.sequence.zero(0).zero
    w_zero = pf.form_is_zero(W, tester).zero
    qdq_zero = heat.sequence.zero(2).zero
    u_zero = pf.form_is_zero(U, tester).zero

    second = second_variation(a, J, heat)
    dq_zero = second.closed_flow
    r_zero = pf.form_is_zero(second.radiation, tester).zero

    flags = ProcessFlags(
        adiabatic=q_zero,
        closed_flow=dq_zero,
        open_flow=not dq_zero,
        reversible=qdq_zero,
        irreversible=not qdq_zero,
        associated=u_zero,
        extremal=w_zero,
        characteristic=u_zero and w_zero,
        hamiltonian=w_zero,
        radiative=not r_zero,
    )

    work_periods: tuple[float, ...] = ()
    try:
        if w_zero:
            category = CATEGORY_HAMILTONIAN
        elif dq_zero:
            if not a.cycles:
                category = CATEGORY_CLOSED_UNDETERMINED
            else:
                results = [ch.integrate(W, c, params=a.params) for c in a.cycles]
                work_periods = tuple(r.value for r in results)
                exact = all(
                    abs(r.value) <= PERIOD_TOL * (1.0 + r.scale) for r in results
                )
                category = CATEGORY_BERNOULLI if exact else CATEGORY_STOKES
        else:
            category = CATEGORY_OPEN
    except InconclusiveError:
        category = CATEGORY_UNCLASSIFIED

    return ProcessReport(
        Q=Q,
        W=W,
        U=U,
        dQ=dQ,
        QdQ=QdQ,
        pfaff=heat.sequence,
        flags=flags,
        category=category,
        second=second,
        work_periods=work_periods,
    )
