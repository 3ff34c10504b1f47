"""Acceptance battery: one test per release criterion, one verdict line each.

Every test funnels through _verdict, which records a PASS/FAIL line in the
terminal summary and then asserts, so a red criterion is visible both in the
pytest report and in the one-line-per-criterion block at the end.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np

import formflow.chains as ch
import formflow.config as config
import formflow.expr as ex
import formflow.finite_topology as ft
import formflow.forms as fm
import formflow.parse as ps
import formflow.pfaff as pf
import formflow.systems as sy
import formflow.thermo as th

import conftest
import oracles as oc
from corpus import (
    CHART,
    action_process_pairs,
    mixed_forms,
    random_field,
    random_form,
    random_point,
    random_poly_scalar,
    rng,
)

ROOT = Path(__file__).resolve().parents[1]


def _verdict(n: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} - {description}"
    conftest.record_acceptance(line)
    print(line)
    assert ok, f"{line}{(': ' + detail) if detail else ''}"


def _tester() -> ex.ZeroTester:
    return ex.ZeroTester(ex.default_box(4))


def _is_zero(w: fm.DifferentialForm, tester: ex.ZeroTester) -> bool:
    return bool(pf.form_is_zero(w, tester))


def test_criterion_01_exact_calculus():
    r = rng(11)
    tester = _tester()
    failures = []

    for k in range(200):
        w = random_form(r, k % 4)
        dd = fm.exterior_derivative(fm.exterior_derivative(w))
        if not dd.is_syntactically_zero:
            failures.append(f"dd #{k}")

    for k in range(100):
        p_deg = int(r.integers(0, 4))
        q_deg = int(r.integers(0, 4 - p_deg)) if p_deg < 3 else 0
        a = random_form(r, p_deg)
        b = random_form(r, q_deg)
        gap = fm.sub_forms(
            fm.exterior_derivative(fm.wedge(a, b)),
            fm.add_forms(
                fm.wedge(fm.exterior_derivative(a), b),
                fm.scale_form(
                    ex.Const(float((-1) ** p_deg)),
                    fm.wedge(a, fm.exterior_derivative(b)),
                ),
            ),
        )
        if not _is_zero(gap, tester):
            failures.append(f"leibniz #{k}")

    for k in range(100):
        w = random_form(r, 2 + k % 3)
        V = random_field(r)
        if not _is_zero(fm.interior(V, fm.interior(V, w)), tester):
            failures.append(f"ii #{k}")

    # the Leibniz rule on (A, dA) for a 1-form A: d(A^dA) = dA^dA
    for k in range(50):
        a = pf.Anatomy(random_form(r, 1), tester)
        if not _is_zero(fm.sub_forms(fm.exterior_derivative(a.H), pf.parity(a)[0]), tester):
            failures.append(f"parity #{k}")

    _verdict(
        1,
        "dd = 0 syntactically on 200 corpus forms; graded Leibniz and "
        "i(V)i(V) = 0 as zero verdicts on 100 cases each, d(A^dA) = dA^dA on 50",
        not failures,
        ", ".join(failures[:5]),
    )


def test_criterion_02_lie_vs_flow_pullback():
    r = rng(424242)
    worst = 0.0
    for k in range(30):
        degree = 1 + k % 3
        w = random_form(r, degree, smooth=True)
        V = random_field(r, smooth=True)
        lib = fm.lie_derivative(V, w)
        for _ in range(20):
            pt = random_point(r)
            got = {idx: oc.value_at(c, pt) for idx, c in lib.coeffs.items()}
            want = oc.lie_oracle(w, V, pt)
            keys = set(got) | set(want)
            diff = max(
                (abs(got.get(i, 0.0) - want.get(i, 0.0)) for i in keys),
                default=0.0,
            )
            base = max(1.0, max((abs(v) for v in want.values()), default=0.0))
            worst = max(worst, diff / base)
    _verdict(
        2,
        "lie_derivative matches the RK4 flow-pullback oracle on 30 pairs "
        "x 20 points, relative error <= 1e-5",
        worst <= 1e-5,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_03_transport_commutes_with_d():
    r = rng(33)
    tester = _tester()
    failures = []

    for k, sigma in enumerate(mixed_forms(24, seed=33)):
        V = random_field(r)
        gap = fm.sub_forms(
            fm.exterior_derivative(fm.lie_derivative(V, sigma)),
            fm.lie_derivative(V, fm.exterior_derivative(sigma)),
        )
        if not _is_zero(gap, tester):
            failures.append(f"rho=1 #{k}")

    for k in range(24):
        sigma = random_form(r, 1 + k % 3)
        rho = random_poly_scalar(r)
        bare = random_field(r)
        supported = fm.VectorField(CHART, bare.components, rho)
        gap = fm.sub_forms(
            fm.exterior_derivative(fm.lie_derivative(supported, sigma)),
            fm.lie_derivative(supported, fm.exterior_derivative(sigma)),
        )
        excess = fm.excess_function(rho, bare, sigma)
        if not _is_zero(fm.sub_forms(gap, excess), tester):
            failures.append(f"supported #{k}")

    _verdict(
        3,
        "d(L(V)S) = L(V)(dS) as zero verdicts; with nonconstant support the "
        "difference equals the excess function",
        not failures,
        ", ".join(failures[:5]),
    )


def test_criterion_04_first_law_split():
    # first_law returns Q = W + dU as built; the split's agreement with the
    # Lie derivative, and dQ = dW, are checked here
    failures = []
    for k, (A, J) in enumerate(action_process_pairs()):
        a = pf.Anatomy(A, _tester())
        failures += [f"{name} #{k}" for name in oc.failing(oc.process_residuals(a, J))]
        if not _is_zero(fm.interior(J, th.first_law(a, J)[1]), a.context):
            failures.append(f"transversal #{k}")
    _verdict(
        4,
        "first_law's Q = W + dU minus L(J)A, dQ - dW and i(J)W are zero verdicts "
        "on every (A, J) corpus pair",
        not failures,
        ", ".join(failures[:5]),
    )


def test_criterion_05_torsion_vector_identities():
    p = sy.get_preset("em.torsion_nonzero")
    tester = p.context
    rep = sy.em_diagnostics(p.system, p.anatomy)
    A = p.action
    T = rep.torsion.vector
    gamma = rep.torsion.gamma
    dA = fm.exterior_derivative(A)

    contraction_ok = _is_zero(fm.interior(T, A), tester)
    proportional_ok = _is_zero(
        fm.sub_forms(fm.interior(T, dA), fm.scale_form(gamma, A)), tester
    )

    Q = fm.lie_derivative(T, A)
    QdQ = fm.wedge(Q, fm.exterior_derivative(Q))
    AdA = fm.wedge(A, dA)
    wedge_ok = _is_zero(
        fm.sub_forms(QdQ, fm.scale_form(ex.power(gamma, 2), AdA)), tester
    )

    E, B = p.system.fields()
    EdotB = ex.simplify(ex.add(*(ex.mul(e, b) for e, b in zip(E, B))))
    gamma_ok = ex.is_syntactic_zero(
        ex.simplify(ex.add(gamma, ex.negate(EdotB)))
    )  # documented sign: gamma = +E.B in this orientation
    parity_ok = ex.is_syntactic_zero(
        ex.simplify(ex.add(rep.listed_parity, ex.mul(ex.Const(2), EdotB)))
    )  # classical list convention: parity = -2 E.B
    nontrivial = not tester.test(EdotB).zero

    ok = all([contraction_ok, proportional_ok, wedge_ok, gamma_ok, parity_ok, nontrivial])
    _verdict(
        5,
        "i(T)A = 0, i(T)dA = Gamma A, QdQ = Gamma^2 AdA on the E.B != 0 "
        "preset; Gamma = E.B and listed parity = -2 E.B exactly",
        ok,
        f"contraction={contraction_ok} proportional={proportional_ok} "
        f"wedge={wedge_ok} gamma={gamma_ok} parity={parity_ok} EB!=0={nontrivial}",
    )


def test_criterion_06_theorem_battery():
    rigid = sy.get_preset("euler.rigid_rotation")
    beltrami = sy.get_preset("fluid.beltrami_abc")
    torsion = sy.get_preset("em.torsion_nonzero")
    failures = []

    def invariant(tag, w, chain, V, params):
        res = ch.invariance_check(w, chain, V, mode="invariant", tol=1e-6, params=params)
        if not res.passed:
            failures.append(f"{tag} drift {res.derivative_estimate:.3e}")

    # flux integrals are invariant under arbitrary transport
    F_rigid = fm.exterior_derivative(rigid.action)
    invariant("I.rigid/probe", F_rigid, rigid.chains["torus"], rigid.processes["probe"],
              rigid.params)
    invariant(
        "I.torsion/timelike",
        fm.exterior_derivative(torsion.action),
        torsion.chains["torus"],
        torsion.processes["timelike"],
        torsion.params,
    )

    # the classical vortex-conservation statement: same flux along the
    # actual closed-flow evolution
    invariant("II.rigid", F_rigid, rigid.chains["torus"], rigid.processes["spacetime"],
              rigid.params)

    # circulation and torsion flux along extremal evolution
    invariant("III.circ", rigid.action, rigid.chains["circle"], rigid.processes["spacetime"],
              rigid.params)
    H_beltrami = fm.wedge(beltrami.action, fm.exterior_derivative(beltrami.action))
    invariant(
        "III.torsion-flux",
        H_beltrami,
        beltrami.chains["shell"],
        beltrami.processes["spacetime"],
        beltrami.params,
    )

    # radiation periods vanish for closed flows, including a pair whose
    # radiation form is nonzero
    A = fm.form_from_coeffs(CHART, 1, {(1,): ex.Coord(0)})
    J = fm.VectorField(CHART, (ex.Coord(1), ex.Coord(0), ex.ZERO, ex.ZERO))
    circle = ch.Chain(ch.circle_cell(CHART, fixed={2: 0.0, 3: 0.0}), closed=True)
    a = pf.Anatomy(A, _tester(), chains=(circle,))
    sv = th.second_variation(a, J, pf.Anatomy(th.first_law(a, J)[0], a.context))
    if not (sv.closed_flow and not pf.form_is_zero(sv.radiation, _tester()).zero):
        failures.append("IV fixture degenerate")
    res = ch.integrate(sv.radiation, circle)
    if abs(res.value) > 1e-6 * (1.0 + res.scale):
        failures.append(f"IV period {res.value:.3e}")
    a_rigid = pf.Anatomy(
        rigid.action, _tester(), chains=(rigid.chains["circle"],), params=rigid.params
    )
    sv_rigid = th.second_variation(
        a_rigid,
        rigid.processes["spacetime"],
        pf.Anatomy(th.first_law(a_rigid, rigid.processes["spacetime"])[0], a_rigid.context),
    )
    if sv_rigid.periods_vanish is not True:
        failures.append("IV rigid periods")

    # the open-flow counterexample must drift at >= 100x tolerance
    drift = ch.invariance_check(
        torsion.action,
        torsion.chains["circle"],
        torsion.processes["torsion"],
        mode="drift",
        tol=1e-6,
        drift_factor=100.0,
        params=torsion.params,
    )
    if not drift.passed:
        failures.append("counterexample too small")
    if abs(drift.derivative_estimate + 48 * math.pi) > 0.01 * 48 * math.pi:
        failures.append(f"counterexample rate {drift.derivative_estimate:.4f}")

    _verdict(
        6,
        "flux/circulation/torsion-flux/radiation invariance at 1e-6 x scale "
        "with a 100x open-flow counterexample",
        not failures,
        "; ".join(failures),
    )


def test_criterion_07_integer_periods():
    p = sy.get_preset("harmonic.winding")
    cycles = [c for c in p.chains.values() if c.degree == 1]
    spec = ch.period_spectrum(p.action, cycles, p.context, params=p.params)
    base_ok = abs(abs(spec.periods[0]) - 2 * math.pi) <= 1e-8
    double_ok = abs(spec.periods[1] / spec.periods[0] - 2.0) <= 1e-8
    _verdict(
        7,
        "winding periods: |circle| = 2 pi and the double cycle gives exactly "
        "twice that, both within 1e-8",
        base_ok and double_ok,
        f"periods {spec.periods}",
    )


def test_criterion_08_fluid_identities():
    failures = []
    tester = _tester()

    def is_zero_scalar(e, box=None):
        e = ex.simplify(e)
        if ex.is_syntactic_zero(e):
            return True
        t = ex.ZeroTester(box) if box is not None else tester
        return bool(t.test(e))

    for name in ("euler.rigid_rotation", "ns.decaying_shear", "fluid.beltrami_abc"):
        p = sy.get_preset(name)
        s = p.system
        vort = sy.vorticity_fields(s)
        induction = sy._add3(sy._curl(vort.acceleration), sy._time(vort.omega))
        for i, c in enumerate(induction):
            if not is_zero_scalar(c, p.context.box):
                failures.append(f"{name} induction[{i}]")
        if not is_zero_scalar(sy._div(vort.omega), p.context.box):
            failures.append(f"{name} div omega")
        tc = sy.torsion_current(s)
        balance = ex.add(
            sy._div(tc.current),
            ex.differentiate(tc.helicity_density, 3),
            ex.mul(ex.Const(2), sy._dot(vort.acceleration, vort.omega)),
        )
        if not is_zero_scalar(balance, p.context.box):
            failures.append(f"{name} balance")

    rigid = sy.get_preset("euler.rigid_rotation")
    rep = th.classify(rigid.anatomy, rigid.processes["spacetime"])
    euler_zero = all(is_zero_scalar(c, rigid.context.box) for c in sy.euler_residual(rigid.system))
    if not (rep.flags.extremal and euler_zero):
        failures.append("extremal<=>euler positive case")
    bad = sy.FluidSystem(rigid.system.velocity, ex.ZERO, ex.ZERO)
    bad_rep = th.classify(
        pf.Anatomy(bad.action(), _tester(), params={"Omega": 0.7}), bad.spacetime_velocity()
    )
    bad_euler_zero = all(is_zero_scalar(c, rigid.context.box) for c in sy.euler_residual(bad))
    if bad_rep.flags.extremal or bad_euler_zero:
        failures.append("extremal<=>euler negative case")

    shear = sy.get_preset("ns.decaying_shear")
    srep = sy.fluid_diagnostics(shear.system, shear.anatomy)
    # the viscous parity source -2 nu omega . curl omega
    source = ex.mul(ex.Const(-2), shear.system.viscosity,
                    sy._dot(shear.system.omega, shear.system.curl_omega))
    if not is_zero_scalar(ex.add(srep.parity_coefficient, ex.negate(source)), shear.context.box):
        failures.append("shear parity formula")
    if not srep.ns.satisfied:
        failures.append("shear momentum balance")

    mass_cases = [
        (ex.ONE, rigid.system.velocity),
        (
            ps.parse_scalar("exp(-t)", CHART),
            tuple(ps.parse_scalar(t, CHART) for t in ("x/3", "y/3", "z/3")),
        ),
        (ex.ONE, (ex.Coord(0), ex.ZERO, ex.ZERO)),
    ]
    r = rng(88)
    mass_cases += [
        (random_poly_scalar(r), tuple(random_poly_scalar(r) for _ in range(3))) for _ in range(6)
    ]
    for k, (rho, v) in enumerate(mass_cases):
        if oc.failing(oc.mass_residuals(rho, v, tester)):
            failures.append(f"mass case {k}")

    _verdict(
        8,
        "induction identities, torsion balance law, extremal<=>Euler both "
        "ways, shear parity formula, and mass-current identity on 9 cases",
        not failures,
        "; ".join(failures),
    )


def test_criterion_09_continuity_definitions_exhaustive():
    failures = []
    for n in (1, 2, 3):
        ground = "abc"[:n]
        tops = list(ft.enumerate_topologies(ground))
        maps = [
            ft.PointMap(dict(zip(ground, images)), ground, ground)
            for images in product(ground, repeat=n)
        ]
        for t1, t2 in product(tops, repeat=2):
            for f in maps:
                if bool(ft.is_continuous(f, t1, t2)) != bool(
                    ft.is_continuous_via_closure(f, t1, t2)
                ):
                    failures.append(f"n={n} {f} {t1} {t2}")

    t1, t2, _ = ft.figure1()
    for d in ft.FIGURE1_D_IMAGES:
        f = ft.figure1_map(d)
        if bool(ft.is_continuous(f, t1, t2)) != bool(
            ft.is_continuous_via_closure(f, t1, t2)
        ):
            failures.append(f"figure1 agreement d={d}")
    for d in ft.FIGURE1_ADMISSIBLE_D:
        f = ft.figure1_map(d)
        if not ft.is_continuous(f, t1, t2):
            failures.append(f"figure1 forward d={d}")
        if ft.inverse_continuous(f, t1, t2):
            failures.append(f"figure1 inverse d={d}")

    _verdict(
        9,
        "preimage and closure continuity agree on all topologies/maps up to "
        "3 points and the 4-point worked example; forward holds, inverse "
        "fails for every admissible d",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_10_cli_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    failures = []
    digests = {}
    for name in sy.preset_names():
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}.{attempt}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "formflow.cli", "run",
                    "--preset", name, "--out", str(out), "--no-summary",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            if proc.returncode != 0:
                failures.append(f"{name}/{attempt} exit {proc.returncode}: {proc.stderr[:100]}")
                continue
            digests[(name, attempt)] = out.read_bytes()
        a, b = digests.get((name, "a")), digests.get((name, "b"))
        if a is not None and b is not None and a != b:
            failures.append(f"{name} reruns differ")
        if a is not None:
            doc = json.loads(a)
            if not doc["passed"]:
                failures.append(f"{name} report failed")
            if set(doc["batteries"]) != set(config.BATTERIES):
                failures.append(f"{name} battery set {sorted(doc['batteries'])}")
    _verdict(
        10,
        "full default battery exits 0 on all bundled presets and reruns are "
        "byte-identical",
        not failures,
        "; ".join(failures[:5]),
    )
