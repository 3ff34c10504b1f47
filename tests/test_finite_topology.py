"""Finite point-set topology: axioms, closure, continuity, enumeration."""

from __future__ import annotations

import itertools
import random

import pytest

import formflow.finite_topology as ft
from oracles import reference_is_topology


def discrete(points: str) -> ft.FiniteTopology:
    """Every subset open: the finest topology the enumeration yields."""
    return max(ft.enumerate_topologies(points), key=lambda t: len(t.opens))


def indiscrete(points: str) -> ft.FiniteTopology:
    return ft.FiniteTopology(points, [frozenset(), frozenset(points)])


def test_axiom_checks_report_first_failure():
    ground = {"a", "b", "c"}
    assert ft.is_topology([set(), ground, {"a"}], ground)

    v = ft.is_topology([ground, {"a"}], ground)
    assert not v and v.missing_set == frozenset()

    v = ft.is_topology([set(), {"a"}], ground)
    assert not v and v.missing_set == frozenset(ground)

    v = ft.is_topology([set(), ground, {"a"}, {"b"}], ground)
    assert not v
    assert v.missing_set == frozenset("ab")
    assert v.offending_pair == (frozenset("a"), frozenset("b"))

    v = ft.is_topology([set(), ground, {"a", "b"}, {"b", "c"}], ground)
    assert not v and v.missing_set == frozenset("b")

    v = ft.is_topology([set(), ground, {"q"}], ground)
    assert not v and "not a subset" in v.reason


def test_axiom_checks_match_the_frozenset_reference():
    # every family of subsets of three points, and families drawn on five
    # and on twelve points with a stray point now and then: the same
    # verdict, first failing pair, missing set and message
    def subsets(points):
        return [frozenset(c) for r in range(len(points) + 1)
                for c in itertools.combinations(points, r)]

    families = [
        [s for i, s in enumerate(subsets("abc")) if bits >> i & 1] for bits in range(1 << 8)
    ]
    rng = random.Random(7)
    for points in ("abcde", "abcdefghijkl"):
        pool = subsets(points)[:300] + [frozenset("q"), frozenset("aq")]
        for _ in range(300):
            family = rng.sample(pool, rng.randint(0, 12))
            families.append(family + [frozenset(), frozenset(points)][: rng.randint(0, 2)])
    for family in families:
        for ground in ("abc", "abcde", "abcdefghijkl"):
            assert ft.is_topology(family, ground) == reference_is_topology(family, ground)


def test_constructor_rejects_non_topologies():
    with pytest.raises(ValueError):
        ft.FiniteTopology("abc", [frozenset(), frozenset("a"), frozenset("b"), frozenset("abc")])
    with pytest.raises(ValueError):
        ft.FiniteTopology(range(ft.MAX_GROUND + 1), [frozenset()])


def test_closed_sets_are_complements():
    t = ft.FiniteTopology("ab", [set(), {"a"}, {"a", "b"}])
    assert set(t.closed_sets) == {frozenset(), frozenset("b"), frozenset("ab")}
    assert frozenset("b") in t.closed_sets and frozenset("a") not in t.closed_sets
    assert t.is_open("a") and not t.is_open("b")


def test_closure_satisfies_kuratowski_axioms():
    # exhaustive over every topology on three points and every subset
    ground = frozenset("abc")
    subsets = [
        frozenset(s)
        for r in range(4)
        for s in itertools.combinations(sorted(ground), r)
    ]
    for top in ft.enumerate_topologies(ground):
        assert ft.closure(frozenset(), top) == frozenset()
        for s in subsets:
            c = ft.closure(s, top)
            assert s <= c
            assert ft.closure(c, top) == c
            assert c in top.closed_sets
        for s, u in itertools.product(subsets, repeat=2):
            assert ft.closure(s | u, top) == ft.closure(s, top) | ft.closure(u, top)


def test_closure_rejects_escaping_subsets():
    t = discrete("ab")
    with pytest.raises(ValueError):
        ft.closure({"z"}, t)


def test_discrete_and_indiscrete_extremes():
    d = discrete("abc")
    i = indiscrete("abc")
    assert len(d.opens) == 8
    assert len(i.opens) == 2
    # identity between them is continuous one way only
    ident = ft.PointMap({p: p for p in "abc"}, "abc", "abc")
    assert ft.is_continuous(ident, d, i)
    assert not ft.is_continuous(ident, i, d)
    assert not ft.is_homeomorphism(ident, d, i)
    assert ft.is_homeomorphism(ident, d, d)


def test_point_map_validation():
    with pytest.raises(ValueError):
        ft.PointMap({"a": "x"}, "ab", "xy")  # b unmapped
    with pytest.raises(ValueError):
        ft.PointMap({"a": "x", "b": "y", "c": "x"}, "ab", "xy")  # c outside
    with pytest.raises(ValueError):
        ft.PointMap({"a": "q", "b": "y"}, "ab", "xy")  # image escapes


def test_point_map_images_and_inverse():
    f = ft.PointMap({"a": "x", "b": "y"}, "ab", "xy")
    assert f("a") == "x"
    assert f.image("ab") == frozenset("xy")
    assert f.preimage({"y"}) == frozenset("b")
    assert f.bijective
    g = f.inverse()
    assert g("x") == "a"
    squash = ft.PointMap({"a": "x", "b": "x"}, "ab", "xy")
    assert not squash.bijective
    assert squash.preimage({"x"}) == frozenset("ab")
    with pytest.raises(ValueError):
        squash.inverse()


def test_continuity_definitions_agree_on_small_grounds():
    # every pair of 2-point topologies, every self-map
    tops = list(ft.enumerate_topologies("pq"))
    maps = [
        ft.PointMap(dict(zip("pq", images)), "pq", "pq")
        for images in itertools.product("pq", repeat=2)
    ]
    for t1, t2 in itertools.product(tops, repeat=2):
        for f in maps:
            assert bool(ft.is_continuous(f, t1, t2)) == bool(
                ft.is_continuous_via_closure(f, t1, t2)
            )


def test_continuity_witnesses_name_the_failure():
    d = discrete("ab")
    i = indiscrete("ab")
    ident = ft.PointMap({p: p for p in "ab"}, "ab", "ab")
    v = ft.is_continuous(ident, i, d)
    assert not v and v.witness in d.opens and v.detail

    v = ft.inverse_continuous(ident, d, i)
    assert not v and v.witness in d.opens


def test_enumeration_counts():
    assert len(list(ft.enumerate_topologies("a"))) == 1
    assert len(list(ft.enumerate_topologies("ab"))) == 4
    assert len(list(ft.enumerate_topologies("abc"))) == 29
    with pytest.raises(ValueError):
        list(ft.enumerate_topologies("abcde"))


def test_via_closure_respects_ground_cap():
    big = [str(n) for n in range(ft.MAX_GROUND + 1)]
    f = ft.PointMap({p: p for p in big}, big, big)

    class Fake:
        ground = frozenset(big)
        opens = (frozenset(), frozenset(big))

    with pytest.raises(ValueError):
        ft.is_continuous_via_closure(f, Fake(), Fake())


def test_ground_mismatch_rejected():
    t1 = discrete("ab")
    t2 = discrete("xy")
    f = ft.PointMap({"a": "x", "b": "y"}, "ab", "xy")
    with pytest.raises(ValueError):
        ft.is_continuous(f, t1, t1)
    assert ft.is_homeomorphism(f, t1, t2)


def test_image_topology_is_homeomorphic_pushforward():
    t1 = ft.FiniteTopology("ab", [set(), {"a"}, {"a", "b"}])
    f = ft.PointMap({"a": "x", "b": "y"}, "ab", "xy")
    t2 = ft.image_topology(f, t1)
    assert t2.is_open("x") and not t2.is_open("y")
    assert ft.is_homeomorphism(f, t1, t2)
    squash = ft.PointMap({"a": "x", "b": "x"}, "ab", "xy")
    with pytest.raises(ValueError):
        ft.image_topology(squash, t1)


def test_worked_example_forward_continuous_inverse_not():
    t1, t2, f = ft.figure1()
    assert f("d") == "t"
    assert ft.is_continuous(f, t1, t2)
    assert ft.is_continuous_via_closure(f, t1, t2)
    v = ft.inverse_continuous(f, t1, t2)
    assert not v
    assert v.witness == frozenset("ab")


@pytest.mark.parametrize("d_image", ft.FIGURE1_D_IMAGES)
def test_worked_example_every_choice_of_d(d_image):
    t1, t2, _ = ft.figure1()
    f = ft.figure1_map(d_image)
    forward = ft.is_continuous(f, t1, t2)
    assert bool(forward) == (d_image in ft.FIGURE1_ADMISSIBLE_D)
    assert bool(forward) == bool(ft.is_continuous_via_closure(f, t1, t2))
    assert not ft.inverse_continuous(f, t1, t2)


def test_worked_example_rejects_bad_d():
    with pytest.raises(ValueError):
        ft.figure1_map("x")
