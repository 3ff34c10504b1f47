"""Seeded random corpus of expressions, forms, and fields shared by tests.

Generation is reproducible: every helper takes an explicit numpy Generator,
and module-level corpora are built from fixed seeds, so frozen expected
values stay valid run to run.
"""

from __future__ import annotations

import numpy as np

import formflow.expr as ex
import formflow.forms as fm
import formflow.systems as sy

CHART = ex.spacetime_chart()
DIM = 4


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_poly_scalar(r: np.random.Generator, max_terms: int = 3,
                       max_degree: int = 2) -> ex.ScalarExpr:
    """Small integer-coefficient polynomial in the four coordinates."""
    terms = []
    for _ in range(int(r.integers(1, max_terms + 1))):
        coeff = int(r.integers(1, 4)) * (1 if r.random() < 0.5 else -1)
        factors: list = [ex.Const(coeff)]
        exponents = r.integers(0, max_degree + 1, size=DIM)
        for i, p in enumerate(exponents):
            if p:
                factors.append(ex.power(ex.coord(i), int(p)))
        terms.append(ex.mul(*factors))
    return ex.add(*terms)


def random_smooth_scalar(r: np.random.Generator) -> ex.ScalarExpr:
    """Polynomial, optionally times sine/cosine/exponential of a linear form."""
    base = random_poly_scalar(r)
    roll = r.random()
    if roll < 0.4:
        return base
    arg = ex.add(*[
        ex.mul(ex.Const(int(r.integers(-1, 2))), ex.coord(i)) for i in range(DIM)
    ])
    wrap = ex.sin(arg) if roll < 0.6 else ex.cos(arg) if roll < 0.8 else ex.func(
        "exp", ex.mul(ex.Const(0.25), arg)
    )
    return ex.add(base, wrap) if r.random() < 0.5 else ex.mul(base, wrap)


def random_monomial_scalar(r: np.random.Generator,
                           max_degree: int = 2) -> ex.ScalarExpr:
    """Single signed monomial; products of these distribute fully."""
    return random_poly_scalar(r, max_terms=1, max_degree=max_degree)


def random_form(r: np.random.Generator, degree: int,
                smooth: bool = False) -> fm.DifferentialForm:
    gen = random_smooth_scalar if smooth else random_poly_scalar
    if degree == 0:
        return fm.scalar_form(CHART, gen(r))
    coeffs = {}
    import itertools
    for idx in itertools.combinations(range(DIM), degree):
        if r.random() < 0.7:
            coeffs[idx] = gen(r)
    if not coeffs:
        coeffs[tuple(range(degree))] = gen(r)
    return fm.form_from_coeffs(CHART, degree, coeffs)


def single_entry_form(r: np.random.Generator, degree: int) -> fm.DifferentialForm:
    """One basis entry with a monomial coefficient: the fragment where every
    identity collapses syntactically because no factored sums ever form."""
    if degree == 0:
        return fm.scalar_form(CHART, random_monomial_scalar(r))
    import itertools
    choices = list(itertools.combinations(range(DIM), degree))
    idx = choices[int(r.integers(0, len(choices)))]
    return fm.form_from_coeffs(CHART, degree, {idx: random_monomial_scalar(r)})


def random_field(r: np.random.Generator, smooth: bool = False,
                 supported: bool = False) -> fm.VectorField:
    gen = random_smooth_scalar if smooth else random_poly_scalar
    comps = tuple(gen(r) for _ in range(DIM))
    support = gen(r) if supported else ex.ONE
    return fm.VectorField(CHART, comps, support)


def random_point(r: np.random.Generator, scale: float = 0.8) -> tuple[float, ...]:
    return tuple(float(v) for v in r.uniform(-scale, scale, size=DIM))


def mixed_forms(n: int, seed: int = 101) -> list[fm.DifferentialForm]:
    """n forms cycling through degrees 0..3, polynomial and smooth mixed."""
    r = rng(seed)
    out = []
    for k in range(n):
        out.append(random_form(r, degree=k % 4, smooth=(k % 3 == 0)))
    return out


def action_process_pairs(n_random: int = 12, seed: int = 202):
    """(A, J) pairs: every bundled preset process plus random pairs."""
    pairs = []
    for name in sy.preset_names():
        preset = sy.get_preset(name)
        for J in preset.processes.values():
            pairs.append((preset.action, J))
    r = rng(seed)
    for k in range(n_random):
        A = fm.one_form(CHART, tuple(random_poly_scalar(r) for _ in range(DIM)))
        J = random_field(r, smooth=False, supported=(k % 3 == 0))
        pairs.append((A, J))
    return pairs


def actions(n_random: int = 12, seed: int = 202) -> list[fm.DifferentialForm]:
    """The 4-chart 1-forms of action_process_pairs, each once: every bundled
    preset's action and the random polynomial ones."""
    return list({id(A): A for A, _ in action_process_pairs(n_random, seed)}.values())
