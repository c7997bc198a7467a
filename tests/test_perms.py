import itertools
import random
from functools import reduce

import numpy as np
import pytest

from ccakit.cayley import (
    build_cayley,
    connection_set_orbits,
    inverse_pairs,
    mask_to_connection_set,
)
from ccakit.cca import cca_verdict_with_group
from ccakit.groups import group_from_name, left_regular_group
from ccakit.harness import _random_connected_set
from ccakit.perms import (
    BlockSystem,
    PermGroup,
    _check_chain_order,
    all_block_systems,
    block_action,
    fixer,
    identity_perm,
    is_identity_perm,
    is_normal_subgroup,
    minimal_block_system,
    orbit_of_point,
    orbits_of_gens,
    permgroup_from_elements,
    pinv,
    pmul,
    point_stabilizer,
    proved_orbits,
)
from ccakit.search import color_preserving_group
from ccakit.suites import _groups_equal
from oracles import (
    all_subgroups,
    closure_of_perms,
    join_block_systems,
    one_block_partition,
    singleton_partition,
)

S4_GENS = [(1, 2, 3, 0), (1, 0, 2, 3)]


def rotation(n, k=1):
    return tuple((i + k) % n for i in range(n))


def reflection(n):
    return tuple(-i % n for i in range(n))


def test_perm_arithmetic():
    a = (1, 2, 0)
    b = (0, 2, 1)
    # pmul(a, b) applies b first, then a
    assert pmul(a, b) == tuple(a[b[i]] for i in range(3))
    assert pmul(a, pinv(a)) == identity_perm(3)
    assert pinv(pinv(a)) == a


def test_perm_arithmetic_at_low_degree():
    assert pmul((), ()) == pinv(()) == identity_perm(0) == ()
    assert is_identity_perm(())
    assert pmul((0,), (0,)) == pinv((0,)) == (0,)
    assert is_identity_perm((0,))
    swap = (1, 0)
    assert pmul(swap, swap) == (0, 1) and pinv(swap) == swap
    assert is_identity_perm((0, 1)) and not is_identity_perm(swap)
    assert pmul((1, 2, 0), (0, 2, 1)) == (1, 0, 2)


def test_permgroup_at_low_degree():
    for degree, gens, order in ((0, [], 1), (1, [(0,)], 1), (2, [(1, 0)], 2)):
        g = PermGroup(degree, gens)
        assert g.order() == order
        assert g.generators == tuple(p for p in gens if not is_identity_perm(p))
        assert sorted(g.elements()) == sorted(closure_of_perms(degree, gens))
        assert g.contains(identity_perm(degree))
        assert all(g.contains(p) for p in gens)
        for p in range(degree):
            assert point_stabilizer(g, p).order() == 1
        if degree:
            assert fixer(g, one_block_partition(degree)).order() == order
            assert fixer(g, singleton_partition(degree)).order() == 1


@pytest.mark.parametrize(
    "gens",
    [
        S4_GENS,
        [rotation(5), reflection(5)],
        [rotation(6)],
        [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)],
    ],
)
def test_contains_agrees_with_closure(gens):
    degree = len(gens[0])
    group = PermGroup(degree, gens)
    elements = closure_of_perms(degree, gens)
    assert group.order() == len(elements)
    for p in itertools.permutations(range(degree)):
        assert group.contains(p) == (p in elements)


def _full_point_stabilizer(group, point):
    """The stabilizer from a full Schreier-Sims run of the rebased chain,
    rebuilt from its strong generators by a second full run."""
    rebased = PermGroup(group.degree, group.generators, base_prefix=(point,))
    gens = [g for lvl in rebased.strong_generators_by_level()[1:] for g in lvl]
    return PermGroup(group.degree, gens)


def _full_fixer(group, system):
    """The fixer from full Schreier-Sims runs, as for _full_point_stabilizer."""
    n, m = group.degree, system.block_count
    extended = [
        g + tuple(n + system.block_of[g[blk[0]]] for blk in system.blocks)
        for g in group.generators
    ]
    chain = PermGroup(n + m, extended, base_prefix=tuple(range(n, n + m)))
    gens = [g[:n] for lvl in chain.strong_generators_by_level()[m:] for g in lvl]
    return PermGroup(n, gens)


def _assert_same_subgroup(fast, full, elements, member):
    assert fast.generators == full.generators
    assert fast.order() == full.order()
    assert _groups_equal(fast, full)
    # The chain it carries enumerates and sifts the right elements.
    assert set(fast.elements()) == {g for g in elements if member(g)}
    assert all(fast.contains(g) == member(g) for g in elements)


@pytest.mark.parametrize("instance", ["product", "noncca", "d6", "s3"])
def test_known_order_stabilizers_match_full_rebuilds(instance, request):
    group = {
        "product": lambda: request.getfixturevalue("product_ao"),
        "noncca": lambda: request.getfixturevalue("noncca_ao"),
        "d6": lambda: PermGroup(6, [rotation(6), reflection(6)]),
        "s3": lambda: PermGroup(3, [(1, 2, 0), (1, 0, 2)]),
    }[instance]()
    n = group.degree
    elements = closure_of_perms(n, group.generators)
    points = (0, 1, 22, 57, 104) if n == 105 else range(n)
    for p in points:
        _assert_same_subgroup(
            point_stabilizer(group, p),
            _full_point_stabilizer(group, p),
            elements,
            lambda g: g[p] == p,
        )
    systems = all_block_systems(group) + [singleton_partition(n)]
    for system in systems:
        fx = fixer(group, system)
        # The fixer is normal in the transitive group, so its orbits form
        # one of the group's block systems.
        assert BlockSystem.from_blocks(n, fx.orbits()) in systems
        full = _full_fixer(group, system)
        blocks = list(enumerate(system.blocks))
        _assert_same_subgroup(
            fx,
            full,
            elements,
            lambda g: all(system.block_of[g[b[0]]] == i for i, b in blocks),
        )
        q = system.blocks[-1][0]
        assert (
            point_stabilizer(fx, q).generators
            == _full_point_stabilizer(full, q).generators
        )


def _c6():
    return PermGroup(6, [rotation(6)])


def test_permgroup_order_and_contains():
    g = PermGroup(4, S4_GENS)
    assert g.order() == 24
    assert g.contains((3, 2, 1, 0))
    with pytest.raises(ValueError):
        g.contains((0, 1, 2))  # wrong degree
    assert len(set(g.elements())) == 24


def test_permgroup_base_levels_cover_order():
    g = PermGroup(4, S4_GENS)
    total = 1
    for lvl, base in zip(g.strong_generators_by_level(), g.base):
        orbit = orbit_of_point(base, list(lvl))
        total *= len(orbit)
    assert total == 24


def test_base_prefix_is_respected():
    g = PermGroup(5, [rotation(5), reflection(5)], base_prefix=(2, 3))
    assert g.base[:2] == (2, 3)
    assert g.order() == 10


def test_permgroup_from_elements_roundtrip():
    elems = closure_of_perms(5, [rotation(5)])
    assert len(elems) == 5
    g = permgroup_from_elements(5, elems)
    assert g.order() == 5
    assert all(g.contains(e) for e in elems)


def test_orbits_and_transitivity():
    g = PermGroup(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5)])
    assert sorted(g.orbits()) == [(0, 1), (2, 3), (4,), (5,)]
    assert not g.is_transitive()
    c6 = PermGroup(6, [rotation(6)])
    assert c6.is_transitive() and c6.is_semiregular()
    d6 = PermGroup(6, [rotation(6), reflection(6)])
    assert d6.is_transitive() and not d6.is_semiregular()


def test_orbits_of_gens_matches_group_orbits():
    gens = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 2, 5)]
    assert orbits_of_gens(6, gens) == [(0, 1), (2, 3, 4), (5,)]


def test_proved_orbits_searches_only_outside_the_orbit():
    # D4 on the corners 0..3 of a square, with the rotation known: it
    # settles the orbit of 0, so only vertex 1's level searches, and only
    # for the images its orbit does not yet hold.
    d4 = list(PermGroup(4, [(1, 2, 3, 0), (0, 3, 2, 1)]).elements())
    asked = []

    def level(b, prefix):
        def search(w):
            asked.append((b, w))
            fixing = (g for g in d4 if all(g[p] == p for p in prefix))
            return next((g for g in fixing if g[b] == w), None)

        return b, range(4), search

    found, lengths = proved_orbits([(1, 2, 3, 0)], [level(0, []), level(1, [0])])
    assert found == [(0, 3, 2, 1)]
    assert lengths == [4, 2]
    assert asked == [(1, 0), (1, 2), (1, 3)]
    _check_chain_order(PermGroup(4, [(1, 2, 3, 0)] + found).order(), lengths)
    with pytest.raises(AssertionError, match=r"chain order 4 differs .* lengths \[4, 2\]"):
        _check_chain_order(PermGroup(4, [(1, 2, 3, 0)]).order(), lengths)


def test_block_system_constructors_validate():
    with pytest.raises(ValueError):
        BlockSystem.from_blocks(4, [[0, 1], [2]])
    with pytest.raises(ValueError):
        BlockSystem.from_blocks(4, [[0, 1], [1, 2, 3]])
    bs = BlockSystem.from_blocks(4, [[2, 3], [0, 1]])
    assert bs.blocks == ((0, 1), (2, 3))
    assert bs.block_of[3] == 1


def test_trivial_partitions():
    assert singleton_partition(3).block_count == 3
    assert one_block_partition(3).block_count == 1
    for bs in (singleton_partition(3), one_block_partition(3)):
        assert bs.block_size in (1, bs.degree)


def test_join_block_systems():
    a = BlockSystem.from_blocks(6, [[0, 2, 4], [1, 3, 5]])
    b = BlockSystem.from_blocks(6, [[0, 3], [1, 4], [2, 5]])
    j = join_block_systems(a, b)
    assert j.block_count == 1


def test_minimal_block_system_c6():
    bs = minimal_block_system(_c6(), (0, 3))
    assert bs.blocks == ((0, 3), (1, 4), (2, 5))


def test_all_block_systems_c6():
    systems = all_block_systems(_c6())
    sizes = sorted(bs.block_count for bs in systems)
    # one-block plus the proper systems; singletons are never minimal
    assert sizes == [1, 2, 3]


def test_all_block_systems_edge_cases():
    assert all_block_systems(PermGroup(1)) == []
    assert all_block_systems(PermGroup(2, [(1, 0)])) == [one_block_partition(2)]
    with pytest.raises(ValueError):
        all_block_systems(PermGroup(4, [(1, 0, 2, 3)]))


def test_all_block_systems_returns_a_new_list():
    # Changing a returned list does not change the next call's list.
    group = PermGroup(8, [tuple((x + 1) % 8 for x in range(8))])
    expected = [bs.block_of for bs in all_block_systems(group)]
    for _ in range(2):
        systems = all_block_systems(group)
        assert [bs.block_of for bs in systems] == expected
        systems.append(singleton_partition(8))
        systems.reverse()
    assert [bs.block_of for bs in all_block_systems(group)] == expected


def _seeded_color_group(name, seed):
    """The color group of a seeded connected set.  Its point stabilizer is
    nontrivial, so a block's stabilizer holds more than translations."""
    group = group_from_name(name)
    members = _random_connected_set(group, random.Random(seed)).members
    ao = color_preserving_group(build_cayley(group, members))
    assert ao.order() > group.order
    return ao


def test_all_block_systems_do_not_depend_on_first_base_point(noncca_ao, product_ao):
    # The joins skipped are read off the chain at b0, so a new b0 must not
    # change the list.
    for group in (noncca_ao, product_ao, _seeded_color_group("d25", 2)):
        assert group.order() > group.degree
        expected = all_block_systems(group)
        for k in (5, 20):
            rebased = PermGroup(group.degree, group.generators, base_prefix=(k,))
            assert rebased.base[0] == k
            assert all_block_systems(rebased) == expected


@pytest.mark.parametrize(
    "name",
    ["f21", "d8", "z3xs3", "z2xq8", "z3xz9", "d16", "q8xz2^2", "d25", "d27", "z3xf21"],
)
def test_regular_group_systems_are_the_subgroups(name):
    # The blocks of a regular action containing the identity are exactly
    # its subgroups; the trivial subgroup gives the singletons, never listed.
    group = group_from_name(name)
    systems = all_block_systems(left_regular_group(group))
    subgroups = all_subgroups(group)
    assert len(systems) == len(subgroups) - 1
    zero_blocks = {frozenset(bs.blocks[bs.block_of[group.identity]]) for bs in systems}
    assert zero_blocks == set(subgroups) - {frozenset({group.identity})}


def _check_block_lattice(group):
    systems = all_block_systems(group)
    keys = [bs.block_of for bs in systems]
    assert keys == sorted(set(keys))
    listed = set(keys)
    minimal = {p: minimal_block_system(group, (0, p)) for p in range(1, group.degree)}
    assert {bs.block_of for bs in minimal.values()} <= listed
    for a in systems:
        for b in systems:
            assert join_block_systems(a, b).block_of in listed
    for bs in systems:
        zero_block = bs.blocks[0]
        assert reduce(join_block_systems, (minimal[p] for p in zero_block[1:])) == bs


def test_block_lattice_of_f21_color_groups(f21):
    reps = connection_set_orbits(f21, connected_only=True)
    assert len(reps) == 51
    pairs = inverse_pairs(f21)
    for mask, _ in reps:
        graph = build_cayley(f21, mask_to_connection_set(f21, pairs, mask))
        _check_block_lattice(color_preserving_group(graph))


def test_block_lattice_of_product_color_group(product_ao):
    _check_block_lattice(product_ao)


@pytest.mark.parametrize("name", ["d25", "d27", "z3xf21"])
def test_block_lattice_of_regular_groups(name):
    _check_block_lattice(left_regular_group(group_from_name(name)))


@pytest.mark.parametrize(
    "name, seed", [("d16", 1), ("d25", 2), ("z3xf21", 0), ("q8xz2^2", 2)]
)
def test_block_lattice_of_seeded_color_groups(name, seed):
    _check_block_lattice(_seeded_color_group(name, seed))


def test_block_action_and_fixer():
    c6 = _c6()
    bs = BlockSystem.from_blocks(6, [[0, 3], [1, 4], [2, 5]])
    action, project = block_action(c6, bs)
    assert action.order() == 3
    assert project(rotation(6)) == (1, 2, 0)
    fx = fixer(c6, bs)
    assert fx.order() == 2
    assert fx.contains(rotation(6, 3))


def test_block_action_rejects_bad_partition():
    d6 = PermGroup(6, [rotation(6), reflection(6)])
    bad = BlockSystem.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    with pytest.raises(ValueError):
        block_action(d6, bad)


def test_fixer_of_trivial_partitions():
    d6 = PermGroup(6, [rotation(6), reflection(6)])
    assert fixer(d6, one_block_partition(6)).order() == d6.order()
    assert fixer(d6, singleton_partition(6)).order() == 1


def test_normality_and_stabilizers():
    s3 = PermGroup(3, [(1, 2, 0), (1, 0, 2)])
    a3 = PermGroup(3, [(1, 2, 0)])
    flip = PermGroup(3, [(1, 0, 2)])
    assert is_normal_subgroup(a3, s3)
    assert not is_normal_subgroup(flip, s3)
    stab = point_stabilizer(s3, 2)
    assert stab.order() == 2 and stab.contains((1, 0, 2))


def test_normality_when_the_group_shares_the_subgroups_generators(noncca_graph):
    # A generator of sub is no conjugator to try; the others decide.
    cycle, flip = (1, 2, 0), (1, 0, 2)
    s3 = PermGroup(3, [flip, cycle])
    assert is_normal_subgroup(PermGroup(3, [cycle]), s3)
    assert not is_normal_subgroup(PermGroup(3, [flip]), s3)
    assert not is_normal_subgroup(PermGroup(3, [flip]), PermGroup(3, [cycle, flip]))
    # A shared generator is in the group; the others are still looked up.
    with pytest.raises(ValueError, match="not a subgroup"):
        is_normal_subgroup(s3, PermGroup(3, [cycle]))
    # The F21 instance: ao's generators are G_L's and then the found ones.
    verdict, ao = cca_verdict_with_group(noncca_graph)
    gl = left_regular_group(noncca_graph.group)
    assert ao.generators[: len(gl.generators)] == gl.generators
    assert not is_normal_subgroup(gl, ao) and not verdict.notes["gl_normal"]
    assert verdict.witness == (
        0, 2, 1, 8, 6, 7, 15, 17, 16, 3, 4, 5, 19, 20, 18, 10, 9, 11, 12, 14, 13
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: PermGroup(3, [(1.0, 2.0, 0.0)]),
        lambda: permgroup_from_elements(2, [(0, 1), (1.0, 0.0)]),
    ],
    ids=["PermGroup", "permgroup_from_elements"],
)
def test_non_integer_entries_are_refused(build):
    with pytest.raises(ValueError, match="not a permutation"):
        build()


def test_numpy_integer_entries_are_stored_as_ints():
    (p,) = PermGroup(3, [np.array([1, 0, 2])]).generators
    assert p == (1, 0, 2) and all(type(x) is int for x in p)

