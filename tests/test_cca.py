import random
from functools import reduce

import pytest

from ccakit import cca, groups
from ccakit.cayley import (
    build_cayley,
    connection_set_mask,
    connection_set_orbits,
    count_orbits_burnside,
    f21_noncca_connection_set,
    f21_noncca_graph,
    inverse_pairs,
    mask_orbit,
    mask_to_connection_set,
)
from ccakit.cca import (
    _color_group_systems,
    _found_generators,
    cca_group_verdict,
    cca_verdict,
    cca_verdict_with_group,
    complete_connection_set,
    complete_graph,
    is_affine,
    is_hamiltonian_2group,
)
from ccakit.groups import (
    direct_product,
    group_from_name,
    left_cosets,
    left_regular_group,
    left_translation,
    make_cyclic,
    make_f21,
    make_q8,
    subgroup_generated,
)
from ccakit.harness import DEFAULT_ROSTER
from ccakit.perms import (
    PermGroup,
    _block_image,
    all_block_systems,
    minimal_block_system,
    orbit_of_point,
)
from ccakit.search import color_preserving_group, preserves_matrix
from ccakit.suites import _seeded_generating_set
from oracles import all_subgroups


def test_translations_are_affine():
    z7 = make_cyclic(7)
    for g in range(7):
        assert is_affine(left_translation(z7, g), z7)


def test_negation_is_affine():
    z7 = make_cyclic(7)
    negation = tuple(-i % 7 for i in range(7))
    assert is_affine(negation, z7)


def test_inversion_not_affine_on_q8():
    q8 = make_q8()
    inversion = tuple(q8.inv[g] for g in range(8))
    assert not is_affine(inversion, q8)


@pytest.mark.parametrize(
    "perm",
    [(0,) * 21, [0.5] * 21, tuple(range(20)), tuple(range(1, 22))],
    ids=["constant", "floats", "short", "out of range"],
)
def test_is_affine_refuses_non_permutations(perm):
    # The constant map and the floats used to pass as affine, and an entry
    # out of range raised IndexError.
    with pytest.raises(ValueError, match="not a permutation"):
        is_affine(perm, make_f21())


def test_affine_elements_of_cycle_group():
    graph = build_cayley(make_cyclic(5), {1, 4})
    ao = color_preserving_group(graph)
    assert len([g for g in ao.elements() if is_affine(g, graph.group)]) == ao.order() == 10


def test_positive_verdict_on_cycle():
    v = cca_verdict(build_cayley(make_cyclic(5), {1, 4}))
    assert v.is_cca
    assert v.ao_order == 10
    assert v.witness is None
    assert v.notes["gl_normal"]


def test_negative_verdict_on_f21_instance(noncca_graph):
    v = cca_verdict(noncca_graph)
    assert not v.is_cca
    assert v.ao_order == 168
    assert v.witness is not None
    assert preserves_matrix(noncca_graph.color_matrix, v.witness)
    assert not is_affine(v.witness, noncca_graph.group)
    data = v.to_json()
    assert data["is_cca"] is False and "witness_images" in data


def test_affine_part_of_f21_color_group(noncca_graph, noncca_ao):
    # exactly the translations survive the affinity filter
    aff = [g for g in noncca_ao.elements() if is_affine(g, noncca_graph.group)]
    assert len(aff) == 21


def test_verdict_rejects_bad_graphs():
    with pytest.raises(ValueError):
        cca_verdict(build_cayley(make_cyclic(5), {1}, digraph_mode=True))
    with pytest.raises(ValueError):
        cca_verdict(build_cayley(make_cyclic(6), {2, 4}))


def _is_power_of_two(q):
    return q >= 1 and q & (q - 1) == 0


def test_vertex_stabilizer_is_a_two_group_on_a_roster_slice():
    # Every connected representative: the verdict checks |ao|/n, and the
    # slice reaches stabilizers of order 1 up to 128.
    stabilizers = set()
    for name in ("z3xs3", "z2xq8", "d4xz2", "z4xz4", "z2^2xz6"):
        group = group_from_name(name)
        pairs = inverse_pairs(group)
        for mask, _ in connection_set_orbits(group, connected_only=True):
            graph = build_cayley(group, mask_to_connection_set(group, pairs, mask))
            q, r = divmod(cca_verdict(graph).ao_order, group.order)
            assert r == 0 and _is_power_of_two(q)
            stabilizers.add(q)
    assert stabilizers == {1, 2, 4, 8, 128}


def test_connected_digraphs_have_the_translations_as_color_group():
    # Each arc color is one element s, so the stabilizer of a vertex fixes
    # all its out-neighbours, and by connectivity every vertex.
    checked = 0
    for name in ("z3xs3", "d8", "d16", "z35", "d27", "z3xf21"):
        group = group_from_name(name)
        rng = random.Random(name)
        for _ in range(8):
            members = set(rng.sample(range(group.order), rng.randint(2, 5)))
            members.discard(group.identity)
            if len(subgroup_generated(group, members)) != group.order:
                continue
            graph = build_cayley(group, members, digraph_mode=True)
            assert color_preserving_group(graph).order() == group.order
            checked += 1
    assert checked >= 24


def test_a_disconnected_graph_needs_no_two_group_stabilizer():
    # Three disjoint triangles of one color: the color group is S3 wr S3,
    # of order 6^3 * 3! = 1296, so the stabilizer has order 144.  Only
    # connected graphs get a verdict, so the check never sees this one.
    graph = build_cayley(make_cyclic(9), {3, 6})
    assert color_preserving_group(graph).order() == 1296
    assert not _is_power_of_two(1296 // 9)
    with pytest.raises(ValueError, match="connected"):
        cca_verdict(graph)


def test_a_stabilizer_of_order_three_fails_the_verdict(monkeypatch):
    # A stand-in color group for the 7-cycle with x -> 2x, of order 3,
    # beside the translations: |ao|/n = 3.
    z7 = make_cyclic(7)
    gens = left_regular_group(z7).generators + (tuple(2 * x % 7 for x in range(7)),)
    monkeypatch.setattr(cca, "color_preserving_group", lambda graph: PermGroup(7, gens))
    with pytest.raises(AssertionError, match="2-group"):
        cca_verdict(build_cayley(z7, {1, 6}))


# The groups the sweep and verdict-stream benchmarks decide.
SWEEP_GROUPS = ("f21", "z3xs3", "z2xq8", "d8", "z3xz9")
STREAM_GROUPS = (
    "d16", "q8xz2^2", "z2xz16", "z35", "d25", "d27", "z7xz9", "z3xf21", "z5xf21",
)


def _subgroups(group):
    """Every subgroup: the lattice oracle up to order 64, else the joins of
    two cyclic subgroups.  Those are all 20 subgroups of z5xf21: each is
    A x B with A <= Z5 and B <= F21, as the orders are coprime, and each
    such B is generated by at most two elements."""
    if group.order <= 64:
        return all_subgroups(group)
    cyclic = {subgroup_generated(group, [g]) for g in range(group.order)}
    return cyclic | {subgroup_generated(group, a | b) for a in cyclic for b in cyclic}


@pytest.mark.parametrize("name", SWEEP_GROUPS + STREAM_GROUPS)
def test_translations_are_transitive_affine_and_keep_every_coset_partition(name):
    # What the verdict skips: G_L's generators reach every vertex, are
    # affine, and map each left coset gH to the coset hgH.
    group = group_from_name(name)
    gens = left_regular_group(group).generators
    assert len(orbit_of_point(group.identity, gens)) == group.order
    assert all(is_affine(g, group) for g in gens)
    subgroups = _subgroups(group)
    if name == "z5xf21":
        assert len(subgroups) == 20
    for members in subgroups:
        cosets = left_cosets(group, members)
        assert all(_block_image(g, cosets) is not None for g in gens)


def test_the_verdict_reads_only_the_found_generators(noncca_graph):
    group = noncca_graph.group
    verdict, ao = cca_verdict_with_group(noncca_graph)
    gl = left_regular_group(group).generators
    found = _found_generators(group, ao)
    assert ao.generators == gl + tuple(found) and found
    # The witness is still the first generator of ao that is not affine.
    assert verdict.witness == next(g for g in ao.generators if not is_affine(g, group))


def test_group_verdict_z5():
    ok, failing = cca_group_verdict(make_cyclic(5))
    assert ok and failing == []


def test_group_verdict_f21(f21):
    ok, failing = cca_group_verdict(f21)
    assert not ok
    assert len(failing) == 1
    pairs = inverse_pairs(f21)
    expanded = [
        mask_to_connection_set(f21, pairs, mask)
        for mask in mask_orbit(f21, connection_set_mask(f21, pairs, failing[0]))
    ]
    assert len(expanded) == 21
    assert all(len(cs.members) == 4 for cs in expanded)


def test_group_verdict_z2_4():
    z2_4 = group_from_name("z2^4")
    ok, failing = cca_group_verdict(z2_4)
    assert ok and failing == []
    assert len(connection_set_orbits(z2_4, connected_only=True)) == 36
    assert count_orbits_burnside(z2_4, connected_only=True) == 36


def test_group_verdict_s4():
    s4 = group_from_name("s4")
    ok, failing = cca_group_verdict(s4)
    assert not ok and len(failing) == 6
    assert len(connection_set_orbits(s4, connected_only=True)) == 3751
    assert count_orbits_burnside(s4, connected_only=True) == 3751


def _oracle_graphs():
    """Every connected representative of f21, z3xs3 and d8, seeded sets on
    groups of order 32-105, and the complete graphs of the default roster."""
    for name in ("f21", "z3xs3", "d8"):
        group = group_from_name(name)
        pairs = inverse_pairs(group)
        for mask, _ in connection_set_orbits(group, connected_only=True):
            yield build_cayley(group, mask_to_connection_set(group, pairs, mask))
    for name in ("d16", "q8xz2^2", "d25", "z3xf21", "z5xf21"):
        group = group_from_name(name)
        rng = random.Random(0)
        for _ in range(30):
            yield build_cayley(group, _seeded_generating_set(rng, group, inverse_pairs(group)))
    for name in DEFAULT_ROSTER:
        yield complete_graph(group_from_name(name))


def test_color_group_systems_match_the_closure():
    # The coset partitions a color group preserves are its block systems:
    # the closure on the color group itself is the reference, and Atkinson's
    # minimal systems from every seed pair decide primitivity independently.
    count = primitive = 0
    for graph in _oracle_graphs():
        ao = color_preserving_group(graph)
        found = _found_generators(graph.group, ao)
        assert list(_color_group_systems(graph.group, found)) == all_block_systems(ao)
        atkinson = all(
            minimal_block_system(ao, (0, p)).block_count == 1 for p in range(1, graph.n)
        )
        assert cca_verdict(graph).notes["ao_primitive"] == atkinson
        count += 1
        primitive += atkinson
    assert count == 51 + 217 + 280 + 5 * 30 + len(DEFAULT_ROSTER)
    assert primitive == 2  # the complete graphs of z5 and z7


def test_block_systems_closed_once_per_table(monkeypatch):
    # G_L's block systems are kept with the table, so a second verdict on
    # the same table closes no block lattice.
    calls = []

    def counted(gl):
        calls.append(gl.degree)
        return all_block_systems(gl)

    monkeypatch.setattr(cca, "all_block_systems", counted)
    group = make_f21()  # a new table, with nothing kept
    negative = cca_verdict(build_cayley(group, f21_noncca_connection_set(group)))
    cycle = {group.index_of(label) for label in ("x", "x^6", "a", "a^2")}
    positive = cca_verdict(build_cayley(group, cycle))
    assert (negative.is_cca, positive.is_cca) == (False, True)
    assert calls == [21]


@pytest.mark.parametrize("k", [7, 8])
def test_colored_cubes_close_no_block_lattice(monkeypatch, k):
    # The color group is G_L, so primitivity is read off n = 2^k; closing
    # the lattice of Z2^k's subgroups took seconds for the 7-cube, and the
    # 8-cube's 417,199 subgroups did not finish in a minute.
    calls = []

    def counted(gl):
        calls.append(gl.degree)
        return all_block_systems(gl)

    monkeypatch.setattr(cca, "all_block_systems", counted)
    # The k-cube, one color per direction, on a new table: element
    # (b1, ..., bk) sits at index b1...bk in binary.
    group = reduce(direct_product, [make_cyclic(2)] * k)
    verdict = cca_verdict(build_cayley(group, [1 << i for i in range(k)]))
    assert (verdict.is_cca, verdict.ao_order, verdict.notes["ao_primitive"]) == (True, 2**k, False)
    assert calls == []


def test_z2_6_x_z3_verdict_closes_the_lattice_in_time():
    # The slowest admitted input of this family in tier-1: the color group
    # is twice G_L, so the note closes the lattice of Z2^6 x Z3's subgroups
    # (under 2 s).  Z2^7 x Z3 takes about 20 s and 1.2 GB, bounded in CI.
    group = group_from_name("z2^6xz3")
    verdict = cca_verdict(build_cayley(group, [3 << i for i in range(6)] + [1, 2]))
    assert (verdict.is_cca, verdict.ao_order, verdict.notes["ao_primitive"]) == (True, 384, False)


def test_hamiltonian_2group_detection():
    assert is_hamiltonian_2group(make_q8())
    assert is_hamiltonian_2group(group_from_name("q8xz2"))
    assert not is_hamiltonian_2group(make_cyclic(8))  # abelian
    assert not is_hamiltonian_2group(group_from_name("d4"))  # non-normal subgroup
    assert not is_hamiltonian_2group(group_from_name("s3"))  # odd part
    assert not is_hamiltonian_2group(group_from_name("q8xz3"))


@pytest.mark.parametrize(
    "name",
    ["z2", "z4", "z2^2", "z8", "z4xz2", "z2^3", "d4", "q8", "z16", "z2^4", "d8",
     "q8xz2", "q8xz4", "z4xq8xz2", "d16", "d4xz2^2", "q8xz2^2", "q8xq8"],
)
def test_hamiltonian_2group_matches_the_lattice_definition(name):
    group = group_from_name(name)
    n = group.order

    def normal(h):
        return all(group.conjugate(g, x) in h for g in range(n) for x in h)

    lattice = not group.is_abelian and all(normal(h) for h in all_subgroups(group))
    assert is_hamiltonian_2group(group) == lattice


def test_complete_graph_verdicts():
    v = cca_verdict(complete_graph(make_q8()))
    assert not v.is_cca and v.ao_order == 64
    assert cca_verdict(complete_graph(group_from_name("d4"))).is_cca
    assert len(complete_connection_set(make_q8()).members) == 7


def test_colored_cycle_of_order_1024_is_decided():
    # Each refinement pass costs O(n k), not a sort of every row of the
    # n x n matrix; this verdict took 37 s when it did.
    try:
        graph = build_cayley(group_from_name("z1024"), {1, 1023})
        verdict = cca_verdict(graph)
    finally:
        groups._group_from_text.cache_clear()  # a 1024-element table is large to keep
    assert verdict.is_cca and verdict.ao_order == 2048
