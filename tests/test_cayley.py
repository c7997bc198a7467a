import dataclasses
import random

import numpy as np
import pytest

from ccakit.cayley import (
    ColoredCayleyGraph,
    ConnectionSet,
    build_cayley,
    cartesian_product,
    connection_set_mask,
    connection_set_orbits,
    count_orbits_burnside,
    f21_noncca_connection_set,
    f21_noncca_graph,
    inverse_pairs,
    mask_orbit,
    mask_to_connection_set,
    quotient_graph,
)
from ccakit.groups import (
    GroupTable,
    group_automorphisms,
    group_from_name,
    make_cyclic,
    make_dihedral,
    make_f21,
    subgroup_generated,
)
from ccakit.suites import groups_up_to_order_8


def test_connection_set_validation():
    z5 = make_cyclic(5)
    with pytest.raises(ValueError):
        ConnectionSet(z5, frozenset({0}))  # identity
    with pytest.raises(ValueError):
        ConnectionSet(z5, frozenset({7}))  # out of range
    z7 = group_from_name("z7")
    for not_indices in ([1.0, 6.0], ["1"]):
        with pytest.raises(ValueError, match="is not an element index"):
            build_cayley(z7, not_indices)
    cs = ConnectionSet(z5, frozenset({1, 4}))
    assert cs.is_inverse_closed()
    assert cs.sorted_members() == (1, 4)
    assert not ConnectionSet(z5, frozenset({1})).is_inverse_closed()


def test_inverse_pairs():
    assert inverse_pairs(make_cyclic(9)) == [(1, 8), (2, 7), (3, 6), (4, 5)]
    z8_pairs = inverse_pairs(make_cyclic(8))
    assert (4,) in z8_pairs  # the involution sits alone
    assert len(z8_pairs) == 4
    assert len(inverse_pairs(make_f21())) == 10


def test_build_cycle_graph():
    z5 = make_cyclic(5)
    g = build_cayley(z5, {1, 4})
    assert g.n == 5 and g.valency == 2
    assert np.count_nonzero(g.color_matrix) == 10  # both arc directions
    assert g.connection.generates_group()
    # one inverse pair means a single color, keyed by the smaller member
    m = g.color_matrix
    assert set(m[m != 0].tolist()) == {2}
    assert m[0, 1] == m[0, 4] == 2  # stored as 1 + color id
    assert m[0, 2] == 0
    assert np.array_equal(m, m.T)


def test_graph_mode_requires_inverse_closure():
    z5 = make_cyclic(5)
    with pytest.raises(ValueError):
        build_cayley(z5, {1})
    # The graph itself checks its set, however it is made.
    with pytest.raises(ValueError, match=r"missing inverses of \['1'\]"):
        ColoredCayleyGraph(ConnectionSet(z5, frozenset({1})), False)


def test_a_graph_is_its_connection_set_and_mode():
    # The group and the color matrix come from the set.
    z5 = make_cyclic(5)
    digraph = ColoredCayleyGraph(ConnectionSet(z5, frozenset({1})), True)
    assert [f.name for f in dataclasses.fields(ColoredCayleyGraph)] == [
        "connection",
        "digraph_mode",
    ]
    assert digraph.group is digraph.connection.group is z5
    assert np.array_equal(digraph.color_matrix, build_cayley(z5, {1}, True).color_matrix)
    graph = build_cayley(z5, {1, 4})
    assert graph.group is graph.connection.group


def test_build_cayley_puts_the_set_on_its_table():
    # A set of the same table is used as it is; one of an equal but
    # distinct table is rebuilt on the table build_cayley was given.
    z5, twin = make_cyclic(5), make_cyclic(5)
    assert twin is not z5 and twin.mult == z5.mult
    cs = ConnectionSet(z5, frozenset({1, 4}))
    assert build_cayley(z5, cs).connection is cs
    graph = build_cayley(twin, cs)
    assert graph.connection.group is graph.group is twin
    assert graph.connection.members == cs.members


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: build_cayley(make_dihedral(3), build_cayley(make_cyclic(6), {1, 5}).connection),
            "belongs to a different group",
        ),
        (
            lambda: cartesian_product(
                build_cayley(make_cyclic(3), {1}, True), build_cayley(make_cyclic(5), {1, 4})
            ),
            "defined for graph mode",
        ),
    ],
    ids=["set of another table", "digraph product"],
)
def test_documented_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_digraph_mode():
    g = build_cayley(make_cyclic(5), {1}, digraph_mode=True)
    assert g.valency == 1
    assert np.count_nonzero(g.color_matrix) == 5
    m = g.color_matrix
    assert m[0, 1] != 0 and m[1, 0] == 0


def test_connection_set_from_text():
    g = build_cayley(make_f21(), "a,a^-1,ax,(ax)^-1")
    assert g.valency == 4
    assert g.connection.members == f21_noncca_connection_set(make_f21()).members


def test_colors_pair_elements_with_inverses():
    g = f21_noncca_graph()
    grp = g.group
    m = g.color_matrix
    e = grp.identity
    for s in g.connection.members:
        assert m[e, s] == m[e, grp.inv[s]] != 0
    assert len(set(m[m != 0].tolist())) == 2


def test_disconnected_detection():
    z6 = make_cyclic(6)
    assert not build_cayley(z6, {2, 4}).connection.generates_group()
    assert build_cayley(z6, {1, 5}).connection.generates_group()


def test_quotient_graph():
    g = f21_noncca_graph()
    members = subgroup_generated(g.group, [g.group.index_of("x")])
    q, coset_map = quotient_graph(g, members)
    assert q.n == 3
    assert len(coset_map) == 21
    assert q.connection.generates_group()


def test_cartesian_product_shape():
    c3 = build_cayley(make_cyclic(3), {1, 2})
    c5 = build_cayley(make_cyclic(5), {1, 4})
    prod = cartesian_product(c3, c5)
    assert prod.n == 15 and prod.valency == 4
    assert prod.connection.generates_group()
    # factor colors stay disjoint
    m = prod.color_matrix
    assert len(set(m[m != 0].tolist())) == 2
    # vertex a*5+b keeps both factor adjacencies
    assert m[0, 5] != 0 and m[0, 1] != 0 and m[0, 6] == 0


def test_connection_set_orbits_z5():
    z5 = make_cyclic(5)
    orbits = connection_set_orbits(z5)
    # masks over the two pairs {1,4}, {2,3}: the singles fuse, the full set is alone
    assert orbits == [(1, 2), (3, 1)]
    assert count_orbits_burnside(z5) == 2
    assert connection_set_orbits(z5, connected_only=True) == orbits


def test_orbit_counts_agree_for_f21(f21):
    assert len(connection_set_orbits(f21)) == count_orbits_burnside(f21)
    connected = connection_set_orbits(f21, connected_only=True)
    assert len(connected) == count_orbits_burnside(f21, connected_only=True)


def test_mask_roundtrip(f21):
    pairs = inverse_pairs(f21)
    cs = f21_noncca_connection_set(f21)
    mask = connection_set_mask(f21, pairs, cs)
    assert mask_to_connection_set(f21, pairs, mask).members == cs.members
    assert mask in mask_orbit(f21, mask)
    assert len(mask_orbit(f21, mask)) == 21


def test_masks_out_of_range_are_refused(f21):
    pairs = inverse_pairs(f21)
    for mask in (-1, 1 << len(pairs)):
        with pytest.raises(ValueError):
            mask_orbit(f21, mask)
        with pytest.raises(ValueError):
            mask_to_connection_set(f21, pairs, mask)
    assert mask_orbit(f21, 0) == [0]
    assert len(mask_orbit(f21, (1 << len(pairs)) - 1)) == 1
    with pytest.raises(ValueError):
        mask_orbit(make_cyclic(51), 1)  # 25 pairs, past the enumeration cap


def _renumbered(group, seed):
    """The same group with its elements renumbered by a seeded shuffle."""
    n = group.order
    new = list(range(n))
    random.Random(seed).shuffle(new)
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[new[a]][new[b]] = new[group.mult[a][b]]
    labels = [""] * n
    for a in range(n):
        labels[new[a]] = group.labels[a]
    return GroupTable.from_mult(mult, labels, name=group.name)


def _every_automorphism_pair_actions(group, pairs):
    index = {p[0]: i for i, p in enumerate(pairs)}
    return {
        tuple(index[min(a[p[0]], group.inv[a[p[0]]])] for p in pairs)
        for a in group_automorphisms(group).elements()
    }


def _reference_orbits(group):
    """(mask, orbit size, connected) for every mask that is the least of its
    orbit, the orbit taken under the pair action of every automorphism."""
    pairs = inverse_pairs(group)
    actions = _every_automorphism_pair_actions(group, pairs)
    out = []
    for mask in range(1, 1 << len(pairs)):
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        orbit = {sum(1 << perm[i] for i in bits) for perm in actions}
        if min(orbit) == mask:
            reach = subgroup_generated(group, [pairs[i][0] for i in bits])
            out.append((mask, len(orbit), len(reach) == group.order))
    return out


@pytest.mark.parametrize("seed", [None, 17])
@pytest.mark.parametrize("name", ["f21", "z3xs3", "z2xq8", "d8"])
def test_connection_set_orbits_match_every_automorphism(name, seed):
    group = group_from_name(name)
    if seed is not None:
        group = _renumbered(group, seed)
    ref = _reference_orbits(group)
    assert connection_set_orbits(group) == [(m, size) for m, size, _ in ref]
    assert connection_set_orbits(group, connected_only=True) == [
        (m, size) for m, size, connected in ref if connected
    ]


def _cycle_count(perm):
    seen: set[int] = set()
    count = 0
    for i in range(len(perm)):
        count += i not in seen
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return count


def test_connection_set_orbits_z2_squared_x_z6():
    group = group_from_name("z2^2xz6")
    pairs = inverse_pairs(group)
    # Burnside in closed form over the pair actions: one with c cycles
    # fixes 2^c - 1 nonempty masks.
    actions = _every_automorphism_pair_actions(group, pairs)
    fixed = sum((1 << _cycle_count(perm)) - 1 for perm in actions)
    assert fixed == 527 * len(actions)
    orbits = connection_set_orbits(group)
    assert len(orbits) == 527
    assert sum(size for _, size in orbits) == (1 << len(pairs)) - 1
    connected = connection_set_orbits(group, connected_only=True)
    assert len(connected) == 482
    assert set(connected) <= set(orbits)


def test_connection_set_orbits_at_twenty_pairs():
    # 2^20 masks, labelled a chunk of 2^16 at a time.
    z41 = make_cyclic(41)
    assert len(inverse_pairs(z41)) == 20
    orbits = connection_set_orbits(z41)
    assert len(orbits) == count_orbits_burnside(z41) == 52487
    assert sum(size for _, size in orbits) == (1 << 20) - 1


def test_mask_orbit_sizes_match_connection_set_orbits():
    group = group_from_name("z3xz9")
    for mask, size in connection_set_orbits(group):
        orbit = mask_orbit(group, mask)
        assert len(orbit) == size and orbit[0] == mask


def test_mask_rejects_broken_pairs(f21):
    pairs = inverse_pairs(f21)
    half = ConnectionSet.__new__(ConnectionSet)
    object.__setattr__(half, "group", f21)
    object.__setattr__(half, "members", frozenset({f21.index_of("a")}))
    with pytest.raises(ValueError):
        connection_set_mask(f21, pairs, half)


def _color_matrix_by_definition(graph):
    """m[g, g·s] = color(s) + 1, entry by entry."""
    group = graph.group
    m = np.zeros((graph.n, graph.n), dtype=np.int64)
    for g in range(graph.n):
        for s in graph.connection.members:
            color = s if graph.digraph_mode else min(s, group.inv[s])
            m[g, group.mult[g][s]] = color + 1
    return m


SMALL_GROUPS = groups_up_to_order_8()


@pytest.mark.parametrize(
    "group", [g for _, g in SMALL_GROUPS], ids=[name for name, _ in SMALL_GROUPS]
)
def test_color_matrix_matches_its_definition(group):
    pairs = inverse_pairs(group)
    graphs = [  # every inverse-closed set, the empty one included
        build_cayley(group, mask_to_connection_set(group, pairs, mask))
        for mask in range(1 << len(pairs))
    ]
    rng = random.Random(group.name)
    others = [s for s in range(group.order) if s != group.identity]
    graphs += [
        build_cayley(group, rng.sample(others, rng.randint(0, len(others))), digraph_mode=True)
        for _ in range(8)
    ]
    for graph in graphs:
        m = graph.color_matrix
        assert np.array_equal(m, _color_matrix_by_definition(graph))
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1
        assert not graph.uncolored_matrix.flags.writeable
        assert np.count_nonzero(m) == graph.n * graph.valency


def _burnside_per_mask(group, connected_only):
    """Burnside's count testing every eligible mask against the pair action
    of every automorphism, one mask at a time."""
    pairs = inverse_pairs(group)
    index = {p[0]: i for i, p in enumerate(pairs)}

    def members(mask):
        return [p[0] for i, p in enumerate(pairs) if mask >> i & 1]

    eligible = [
        mask
        for mask in range(1, 1 << len(pairs))
        if not connected_only
        or len(subgroup_generated(group, members(mask))) == group.order
    ]
    auts = list(group_automorphisms(group).elements())
    total = 0
    for a in auts:
        perm = [index[min(a[p[0]], group.inv[a[p[0]]])] for p in pairs]
        for mask in eligible:
            image = sum(1 << perm[i] for i in range(len(pairs)) if mask >> i & 1)
            total += image == mask
    count, rem = divmod(total, len(auts))
    assert rem == 0
    return count


@pytest.mark.parametrize("connected_only", [False, True])
@pytest.mark.parametrize(
    "group", [g for _, g in SMALL_GROUPS], ids=[name for name, _ in SMALL_GROUPS]
)
def test_burnside_by_cycles_matches_per_mask_count(group, connected_only):
    expected = _burnside_per_mask(group, connected_only)
    assert count_orbits_burnside(group, connected_only) == expected
    assert len(connection_set_orbits(group, connected_only)) == expected


def test_burnside_counts_past_sixteen_pairs():
    # Z35 has 17 inverse pairs, so the identity's 2^17 unions are counted
    # in chunks of 2^16.
    z35 = make_cyclic(35)
    assert len(inverse_pairs(z35)) == 17
    assert count_orbits_burnside(z35) == len(connection_set_orbits(z35)) == 11143
