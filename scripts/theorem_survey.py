#!/usr/bin/env python3
"""Survey integral invariance across every preset, process, and chain.

For each bundled preset this advects every registered chain along every
declared process and reports the rate of change of the matching integrals:
circulation of A over 1-chains, flux of dA over 2-chains, torsion flux of
A^dA over 3-chains. Rates within tolerance of zero are conserved; the rest
are the deliberate counterexamples.
"""

from __future__ import annotations

import argparse

import formflow.chains as ch
import formflow.forms as fm
import formflow.systems as sy

INTEGRANDS = ("A", "dA", "A^dA")


def integrand(action, degree: int):
    if degree == 1:
        return action
    dA = fm.exterior_derivative(action)
    if degree == 2:
        return dA
    if degree == 3:
        return fm.wedge(action, dA)
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--preset", default=None, help="survey a single preset")
    args = ap.parse_args()

    names = (args.preset,) if args.preset else sy.preset_names()
    print(f"{'preset':<22} {'process':<12} {'chain':<9} "
          f"{'integrand':<9} {'rate':>12}  verdict")
    for name in names:
        p = sy.get_preset(name)
        pairs = [(integrand(p.action, chain.degree), chain) for chain in p.chains.values()]
        pairs = [(w, c) for w, c in pairs if w is not None and not w.is_syntactically_zero]
        for pname, V in p.processes.items():
            results = ch.invariance_checks(
                pairs, V, mode="invariant", tol=args.tol, params=p.params
            )
            for (_, chain), res in zip(pairs, results):
                verdict = "conserved" if res.passed else "drifts"
                print(f"{name:<22} {pname:<12} {chain.name:<9} "
                      f"{INTEGRANDS[chain.degree - 1]:<9} "
                      f"{res.derivative_estimate:>12.3e}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
