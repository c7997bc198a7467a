import numpy as np
import pytest

from ccakit import search
from ccakit.cayley import build_cayley, cartesian_product
from ccakit.groups import group_from_name, make_cyclic, make_symmetric_table
from ccakit.perms import PermGroup, permgroup_from_elements
from ccakit.search import (
    are_isomorphic,
    brute_force_color_group,
    brute_force_color_perms,
    color_bijection_between,
    color_preserving_group,
    exact_color_digraph_group,
    matrix_aut_group,
    matrix_isomorphism,
    pair_orbit_matrix,
    preserves_matrix,
    two_closure,
    uncolored_aut_group,
)


def cycle_graph(n):
    return build_cayley(make_cyclic(n), {1, n - 1})


def test_color_group_of_plain_cycle():
    # a single color leaves the full dihedral symmetry
    g = color_preserving_group(cycle_graph(5))
    assert g.order() == 10
    assert g.contains(tuple(-i % 5 for i in range(5)))


def test_color_group_of_two_colored_cycle():
    # two generator pairs of Z7 with distinct colors: translations and negation
    g = color_preserving_group(build_cayley(make_cyclic(7), {1, 6, 2, 5}))
    assert g.order() == 14


def test_exact_digraph_group_is_regular():
    g = exact_color_digraph_group(build_cayley(make_cyclic(5), {1}, digraph_mode=True))
    assert g.order() == 5
    assert g.is_semiregular() and g.is_transitive()


def test_uncolored_group_of_cycle():
    assert uncolored_aut_group(cycle_graph(6)).order() == 12


def test_search_matches_brute_force():
    fixtures = [
        build_cayley(make_cyclic(8), {1, 7, 4}),
        build_cayley(group_from_name("d4"), {1, 3, 4}),
        build_cayley(group_from_name("z2xz4"), {1, 3, 4}),
    ]
    for graph in fixtures:
        fast = color_preserving_group(graph)
        slow = brute_force_color_group(graph)
        assert fast.order() == slow.order()
        assert all(fast.contains(p) for p in slow.generators)


def test_brute_force_lists_every_map():
    graph = cycle_graph(5)
    perms = brute_force_color_perms(graph)
    assert len(perms) == 10
    assert all(preserves_matrix(graph.color_matrix, p) for p in perms)


def test_brute_force_degree_cap():
    with pytest.raises(ValueError):
        brute_force_color_perms(cycle_graph(11))


def test_preserves_matrix():
    m = cycle_graph(5).color_matrix
    assert preserves_matrix(m, (1, 2, 3, 4, 0))
    assert not preserves_matrix(m, (1, 0, 2, 3, 4))


def test_matrix_aut_group_with_seed_hint():
    m = cycle_graph(7).color_matrix
    rot = tuple((i + 1) % 7 for i in range(7))
    assert matrix_aut_group(m).order() == matrix_aut_group(m, seeds=[rot]).order() == 14


def test_matrix_aut_group_rejects_bad_seed():
    m = cycle_graph(5).color_matrix
    with pytest.raises(ValueError):
        matrix_aut_group(m, seeds=[(1, 0, 2, 3, 4)])


def test_matrix_isomorphism_modes():
    # same cycle wearing different color ids
    m1 = build_cayley(make_cyclic(7), {1, 6}).color_matrix
    m2 = build_cayley(make_cyclic(7), {2, 5}).color_matrix
    assert matrix_isomorphism(m1, m2, match_colors="exact") is None
    p = matrix_isomorphism(m1, m2, match_colors="bijection")
    assert p is not None
    assert color_bijection_between(m1, m2, p) is not None


def test_are_isomorphic_positive():
    g1 = build_cayley(make_cyclic(9), {1, 8})
    g2 = build_cayley(make_cyclic(9), {2, 7})
    assert are_isomorphic(g1, g2, respect_colors=True)
    assert are_isomorphic(g1, g2, respect_colors=False)


def test_are_isomorphic_negative():
    # circulant with chords vs the rook graph: same order and valency
    g1 = build_cayley(make_cyclic(9), {1, 8, 3, 6})
    g2 = cartesian_product(
        build_cayley(make_cyclic(3), {1, 2}), build_cayley(make_cyclic(3), {1, 2})
    )
    assert g1.valency == g2.valency == 4
    assert not are_isomorphic(g1, g2, respect_colors=False)
    assert not are_isomorphic(g1, g2, respect_colors=True)


def test_are_isomorphic_size_mismatch():
    with pytest.raises(ValueError):
        are_isomorphic(cycle_graph(5), cycle_graph(7), respect_colors=False)


def test_pair_orbit_matrix_of_cycle():
    c5 = PermGroup(5, [(1, 2, 3, 4, 0)])
    m = pair_orbit_matrix(c5)
    assert m.shape == (5, 5)
    # diagonal is one orbit, each difference class another
    assert len({int(m[i, i]) for i in range(5)}) == 1
    assert len(set(m.ravel().tolist())) == 5


def test_two_closure_of_rotations_stays_rotations():
    c5 = PermGroup(5, [(1, 2, 3, 4, 0)])
    closed = two_closure(c5)
    assert closed.order() == 5
    assert not closed.contains((0, 4, 3, 2, 1))


def test_two_closure_grows_two_transitive_group():
    a4 = permgroup_from_elements(
        4, [p for p in _even_perms_4()]
    )
    closed = two_closure(a4)
    assert a4.order() == 12
    # one off-diagonal orbital, so the closure is the full symmetric group
    assert closed.order() == 24


def _even_perms_4():
    from itertools import permutations

    def sign(p):
        s = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    s = -s
        return s

    return [p for p in permutations(range(4)) if sign(p) == 1]


def test_two_closure_requires_transitivity():
    g = PermGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError):
        two_closure(g)


def test_symmetric_group_is_closed():
    s4 = PermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    assert two_closure(s4).order() == 24


def test_color_group_chain_is_checked_against_the_searched_orbits(
    monkeypatch, noncca_graph
):    # A chain built from too few generators disagrees with the orbit
    # lengths the search proved, and the cross-check must say so.
    monkeypatch.setattr(search, "PermGroup", lambda n, gens: PermGroup(n, gens[:1]))
    with pytest.raises(AssertionError, match="orbit lengths"):
        color_preserving_group(noncca_graph)
