"""Point-set topology on finite ground sets.

Small exhaustive machinery used to ground the continuity notions the rest
of the package applies to differential forms: topology validation with
counterexamples, Kuratowski closure, the preimage and closure definitions
of continuity (provably equivalent; tested exhaustively), the open-map
test for the inverse correspondence of a non-invertible map, and a
four-point worked example of a continuous map whose inverse correspondence
fails to be continuous.

Everything is brute force by design; ground sets are capped at 16 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

__all__ = [
    "FiniteTopology",
    "PointMap",
    "TopologyVerdict",
    "ContinuityVerdict",
    "MAX_GROUND",
    "is_topology",
    "closure",
    "is_continuous",
    "is_continuous_via_closure",
    "inverse_continuous",
    "is_homeomorphism",
    "image_topology",
    "enumerate_topologies",
    "figure1",
    "figure1_map",
    "FIGURE1_D_IMAGES",
    "FIGURE1_ADMISSIBLE_D",
]

MAX_GROUND = 16

Point = str
Subset = frozenset


def _canon_sets(sets: Iterable[Iterable[Point]]) -> tuple[Subset, ...]:
    uniq = {frozenset(s) for s in sets}
    return tuple(sorted(uniq, key=lambda s: (len(s), tuple(sorted(s)))))


def _fmt(s: Subset) -> str:
    return "{" + ",".join(sorted(s)) + "}" if s else "{}"


@dataclass(frozen=True)
class TopologyVerdict:
    valid: bool
    reason: str = ""
    offending_pair: tuple[Subset, Subset] | None = None
    missing_set: Subset | None = None

    def __bool__(self):
        return self.valid


def is_topology(sets: Iterable[Iterable[Point]], ground: Iterable[Point]) -> TopologyVerdict:
    """Check the open-set axioms exhaustively, reporting the first failure."""
    ground = frozenset(ground)
    opens = _canon_sets(sets)
    for s in opens:
        if not s <= ground:
            return TopologyVerdict(False, f"set {_fmt(s)} is not a subset of the ground set")
    # each open as an integer bitmask over the ground points: a pair's union
    # and intersection are one integer operation and one set lookup each
    bit = {p: 1 << i for i, p in enumerate(ground)}
    masks = [sum(bit[p] for p in s) for s in opens]
    have = set(masks)
    if 0 not in have:
        return TopologyVerdict(False, "empty set missing", missing_set=frozenset())
    if sum(bit.values()) not in have:
        return TopologyVerdict(False, "ground set missing", missing_set=ground)
    for (a, ma), (b, mb) in combinations(zip(opens, masks), 2):
        if ma | mb not in have:
            return TopologyVerdict(
                False,
                f"union {_fmt(a)} | {_fmt(b)} = {_fmt(a | b)} is not open",
                offending_pair=(a, b),
                missing_set=a | b,
            )
        if ma & mb not in have:
            return TopologyVerdict(
                False,
                f"intersection {_fmt(a)} & {_fmt(b)} = {_fmt(a & b)} is not open",
                offending_pair=(a, b),
                missing_set=a & b,
            )
    return TopologyVerdict(True)


@dataclass(frozen=True)
class FiniteTopology:
    """Validated open-set topology on a finite ground set."""

    ground: Subset
    opens: tuple[Subset, ...]

    def __init__(self, ground: Iterable[Point], opens: Iterable[Iterable[Point]]):
        ground = frozenset(ground)
        if len(ground) > MAX_GROUND:
            raise ValueError(f"ground set larger than {MAX_GROUND} points")
        opens = _canon_sets(opens)
        verdict = is_topology(opens, ground)
        if not verdict:
            raise ValueError(f"not a topology: {verdict.reason}")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "opens", opens)

    def is_open(self, s: Iterable[Point]) -> bool:
        return frozenset(s) in set(self.opens)

    @property
    def closed_sets(self) -> tuple[Subset, ...]:
        return _canon_sets(self.ground - s for s in self.opens)

    def __repr__(self):
        opens = ", ".join(_fmt(s) for s in self.opens)
        return f"<topology on {_fmt(self.ground)}: [{opens}]>"


def closure(s: Iterable[Point], top: FiniteTopology) -> Subset:
    """Smallest closed superset of s (intersection of closed supersets)."""
    s = frozenset(s)
    if not s <= top.ground:
        raise ValueError("subset escapes the ground set")
    out = top.ground
    for c in top.closed_sets:
        if s <= c:
            out = out & c
    return out


@dataclass(frozen=True)
class PointMap:
    """Total function between two finite ground sets."""

    domain: Subset
    codomain: Subset
    mapping: tuple[tuple[Point, Point], ...]

    def __init__(self, mapping: Mapping[Point, Point], domain: Iterable[Point], codomain: Iterable[Point]):
        domain = frozenset(domain)
        codomain = frozenset(codomain)
        missing = domain - set(mapping)
        if missing:
            raise ValueError(f"map is not total: no image for {_fmt(frozenset(missing))}")
        extra = set(mapping) - domain
        if extra:
            raise ValueError(f"map defined outside the domain: {_fmt(frozenset(extra))}")
        bad = {v for v in mapping.values() if v not in codomain}
        if bad:
            raise ValueError(f"images escape the codomain: {_fmt(frozenset(bad))}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "mapping", tuple(sorted(mapping.items())))

    def __call__(self, p: Point) -> Point:
        return dict(self.mapping)[p]

    def image(self, s: Iterable[Point]) -> Subset:
        m = dict(self.mapping)
        return frozenset(m[p] for p in s)

    def preimage(self, s: Iterable[Point]) -> Subset:
        s = frozenset(s)
        return frozenset(p for p, q in self.mapping if q in s)

    @property
    def bijective(self) -> bool:
        values = [q for _, q in self.mapping]
        return len(set(values)) == len(values) and set(values) == set(self.codomain)

    def inverse(self) -> "PointMap":
        if not self.bijective:
            raise ValueError("only bijections invert to a point map")
        return PointMap({q: p for p, q in self.mapping}, self.codomain, self.domain)

    def __repr__(self):
        pairs = ", ".join(f"{p}->{q}" for p, q in self.mapping)
        return f"<map {pairs}>"


@dataclass(frozen=True)
class ContinuityVerdict:
    holds: bool
    witness: Subset | None = None
    detail: str = ""

    def __bool__(self):
        return self.holds


def _check_map(f: PointMap, t1: FiniteTopology, t2: FiniteTopology):
    if f.domain != t1.ground or f.codomain != t2.ground:
        raise ValueError("map ground sets do not match the topologies")


def is_continuous(f: PointMap, t1: FiniteTopology, t2: FiniteTopology) -> ContinuityVerdict:
    """Preimage definition: every open set of t2 pulls back to an open set."""
    _check_map(f, t1, t2)
    for s in t2.opens:
        pre = f.preimage(s)
        if not t1.is_open(pre):
            return ContinuityVerdict(
                False, witness=s, detail=f"preimage {_fmt(pre)} of {_fmt(s)} is not open"
            )
    return ContinuityVerdict(True)


def is_continuous_via_closure(f: PointMap, t1: FiniteTopology, t2: FiniteTopology) -> ContinuityVerdict:
    """Closure definition: f(closure(S)) inside closure(f(S)) for every S.

    Exhaustive over all subsets of the domain, so the ground set is capped
    at MAX_GROUND points.
    """
    _check_map(f, t1, t2)
    points = sorted(t1.ground)
    if len(points) > MAX_GROUND:
        raise ValueError(f"ground set larger than {MAX_GROUND} points")
    for bits in range(1 << len(points)):
        s = frozenset(p for i, p in enumerate(points) if bits >> i & 1)
        lhs = f.image(closure(s, t1))
        rhs = closure(f.image(s), t2)
        if not lhs <= rhs:
            return ContinuityVerdict(
                False,
                witness=s,
                detail=f"f(closure({_fmt(s)})) = {_fmt(lhs)} escapes closure(f(S)) = {_fmt(rhs)}",
            )
    return ContinuityVerdict(True)


def inverse_continuous(f: PointMap, t1: FiniteTopology, t2: FiniteTopology) -> ContinuityVerdict:
    """Continuity of the inverse correspondence, i.e. the open-map test.

    For a non-invertible f the inverse is a correspondence, not a map; its
    preimages are forward images.  The verdict therefore asks whether every
    open set of t1 has an open image in t2, with the first failure returned
    as witness.
    """
    _check_map(f, t1, t2)
    for s in t1.opens:
        img = f.image(s)
        if not t2.is_open(img):
            return ContinuityVerdict(
                False, witness=s, detail=f"image {_fmt(img)} of {_fmt(s)} is not open"
            )
    return ContinuityVerdict(True)


def is_homeomorphism(f: PointMap, t1: FiniteTopology, t2: FiniteTopology) -> bool:
    """Bijective, continuous, with continuous inverse."""
    _check_map(f, t1, t2)
    if not f.bijective:
        return False
    return bool(is_continuous(f, t1, t2)) and bool(is_continuous(f.inverse(), t2, t1))


def image_topology(f: PointMap, t1: FiniteTopology) -> FiniteTopology:
    """Pushforward of t1 through a bijection f (open sets = images of opens)."""
    if not f.bijective:
        raise ValueError("image topology needs a bijection")
    return FiniteTopology(f.codomain, (f.image(s) for s in t1.opens))


# ---------------------------------------------------------------------------
# Enumeration (exhaustive, small grounds only)


def enumerate_topologies(ground: Iterable[Point]):
    """Yield every topology on the ground set (brute force; <= 4 points)."""
    ground = frozenset(ground)
    points = sorted(ground)
    if len(points) > 4:
        raise ValueError("exhaustive enumeration is limited to 4 points")
    proper = [
        frozenset(p for i, p in enumerate(points) if bits >> i & 1)
        for bits in range(1, (1 << len(points)) - 1)
    ]
    for bits in range(1 << len(proper)):
        chosen = [s for i, s in enumerate(proper) if bits >> i & 1]
        candidate = [frozenset(), ground] + chosen
        if is_topology(candidate, ground):
            yield FiniteTopology(ground, candidate)


# ---------------------------------------------------------------------------
# The four-point worked example


FIGURE1_D_IMAGES = ("y", "z", "t")
# d -> y sends the preimage of the open set {y} to {a,d}, which is not open;
# the other two choices keep the forward map continuous.
FIGURE1_ADMISSIBLE_D = ("z", "t")


def figure1() -> tuple[FiniteTopology, FiniteTopology, PointMap]:
    """Initial/final topologies and forward map of the worked example.

    The initial state carries [{}, X, {a}, {a,b}, {a,b,c}] on {a,b,c,d};
    the final state carries [{}, Y, {x}, {y}, {x,y}, {y,z,t}] on
    {x,y,z,t}.  The forward map sends a,b,c to y,z,t; the bundled choice
    for d is t (see FIGURE1_ADMISSIBLE_D for the alternatives that keep
    the map continuous).  The map is continuous while its inverse
    correspondence is not: the open set {a,b} has image {y,z}, not open.
    """
    t1, t2 = _figure1_topologies()
    return t1, t2, figure1_map("t")


def figure1_map(d_image: Point) -> PointMap:
    """Forward map of the worked example with a chosen image for d."""
    if d_image not in FIGURE1_D_IMAGES:
        raise ValueError(f"d must land in one of {FIGURE1_D_IMAGES}")
    return PointMap(
        {"a": "y", "b": "z", "c": "t", "d": d_image},
        frozenset("abcd"),
        frozenset("xyzt"),
    )


def _figure1_topologies() -> tuple[FiniteTopology, FiniteTopology]:
    x = frozenset("abcd")
    y = frozenset("xyzt")
    t1 = FiniteTopology(
        x,
        [frozenset(), x, frozenset("a"), frozenset("ab"), frozenset("abc")],
    )
    t2 = FiniteTopology(
        y,
        [
            frozenset(),
            y,
            frozenset("x"),
            frozenset("y"),
            frozenset("xy"),
            frozenset("yzt"),
        ],
    )
    return t1, t2
