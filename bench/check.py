"""Compare a formflow report document with the known answer of its job."""

from __future__ import annotations

from workloads import Expect

RATIO_TOL = 1e-6


def mismatches(doc: dict, expect: Expect) -> list[str]:
    """Every way `doc` differs from `expect`; empty when the report is right."""
    out: list[str] = []
    got = {c["name"]: c["passed"] for c in doc.get("checks", [])}
    for name in sorted(set(expect.checks) - set(got)):
        out.append(f"missing check {name}")
    for name in sorted(set(got) - set(expect.checks)):
        out.append(f"unexpected check {name}")
    for name in sorted(set(got) & set(expect.checks)):
        if got[name] != expect.checks[name]:
            out.append(f"check {name}: passed={got[name]}, expected {expect.checks[name]}")
    if doc.get("passed") != all(expect.checks.values()):
        out.append(f"report passed={doc.get('passed')}")

    batteries = doc.get("batteries", {})
    for name, body in sorted(batteries.items()):
        if "error" in body:
            out.append(f"battery {name}: {body['error']}")

    def field(path: str):
        node = batteries
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                return _MISSING
            node = node[part]
        return node

    facts = [
        ("pfaff.sequence.dimension", expect.pfaff_dimension),
        ("residuals.euler_satisfied", expect.euler_satisfied),
        ("pfaff.genus.genus", expect.genus),
    ]
    facts += [(f"topology.{k}", v) for k, v in (expect.topology or {}).items()]
    for path, want in facts:
        if want is not None and field(path) != want:
            out.append(f"{path} = {field(path)}, expected {want}")
    if expect.period_ratios is not None:
        ratios = field("periods.spectrum.ratios")
        if ratios is _MISSING or len(ratios) != len(expect.period_ratios) or any(
            abs(r - w) > RATIO_TOL for r, w in zip(ratios, expect.period_ratios)
        ):
            out.append(f"period ratios {ratios}, expected {list(expect.period_ratios)}")
    return out


class _Missing:
    def __repr__(self):
        return "<missing>"


_MISSING = _Missing()
