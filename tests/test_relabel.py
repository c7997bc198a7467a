"""Verdicts and stabilizer classes do not depend on how elements are numbered."""

import random

import numpy as np
import pytest

from ccakit.cartesian import _factor_product, stabilizer_classes
from ccakit.cayley import (
    build_cayley,
    cartesian_product,
    connection_set_orbits,
    f21_noncca_connection_set,
    inverse_pairs,
    mask_to_connection_set,
)
from ccakit.cca import cca_group_verdict, cca_verdict
from ccakit.groups import (
    GroupTable,
    group_automorphisms,
    group_from_name,
    left_cosets,
    make_cyclic,
    parse_elements,
)
from ccakit.perms import BlockSystem, PermGroup, all_block_systems
from ccakit.search import are_isomorphic, color_preserving_group


def renumber(group, new):
    """The same group with element a renumbered to new[a]; labels travel along."""
    n = group.order
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[new[a]][new[b]] = new[group.mult[a][b]]
    labels = [""] * n
    for a in range(n):
        labels[new[a]] = group.labels[a]
    return GroupTable.from_mult(mult, labels, name=group.name)


def shuffled(n, seed):
    new = list(range(n))
    random.Random(seed).shuffle(new)
    return new


@pytest.mark.parametrize("through_automorphism", [False, True])
def test_f21_verdicts_survive_renumbering(f21, through_automorphism):
    new = shuffled(21, seed=7)
    if through_automorphism:
        # Renumbering through a table automorphism phi first makes the
        # canonical labels name phi(S) rather than S.
        canon = f21_noncca_connection_set(f21).members
        phi = next(
            g
            for g in group_automorphisms(f21).generators
            if {g[s] for s in canon} != canon
        )
        new = [new[phi[a]] for a in range(21)]
    group = renumber(f21, new)
    reps = connection_set_orbits(group, connected_only=True)
    ok, failing = cca_group_verdict(group)
    assert len(reps) == 51
    assert not ok and len(failing) == 1
    verdict = cca_verdict(build_cayley(group, f21_noncca_connection_set(group)))
    assert not verdict.is_cca and verdict.ao_order == 168


@pytest.mark.parametrize(
    "name, reps, failing",
    [("z3xs3", 217, 2), ("z2xq8", 44, 44), ("d8", 280, 0), ("z3xz9", 274, 0)],
)
def test_sweep_roster_verdicts_survive_renumbering(name, reps, failing):
    # The rest of the sweep benchmark's roster, with the identity moved off
    # element 0: the translations and coset partitions read off the table
    # must not assume it sits there.
    base = group_from_name(name)
    new = shuffled(base.order, seed=17)
    if new[base.identity] == 0:
        new.reverse()
    group = renumber(base, new)
    assert group.identity != 0
    ok, failing_sets = cca_group_verdict(group)
    assert len(connection_set_orbits(group, connected_only=True)) == reps
    assert len(failing_sets) == failing and ok == (failing == 0)


@pytest.mark.parametrize("name", ["z3xs3", "z2xq8", "d8", "z3xz9"])
def test_sweep_roster_verdicts_survive_table_automorphisms(name):
    # cca_group_verdict decides one set per Aut(G)-orbit, so S and phi(S)
    # must get the same verdict and color group order for every phi.
    group = group_from_name(name)
    pairs = inverse_pairs(group)
    reps = connection_set_orbits(group, connected_only=True)
    auts = group_automorphisms(group).generators
    moved = 0
    for mask, _ in random.Random(23).sample(reps, 12):
        members = mask_to_connection_set(group, pairs, mask).members
        verdict = cca_verdict(build_cayley(group, members))
        for phi in auts:
            image = {phi[s] for s in members}
            moved += image != members
            other = cca_verdict(build_cayley(group, image))
            assert (other.is_cca, other.ao_order) == (verdict.is_cca, verdict.ao_order)
    assert moved > 0


def test_stabilizer_classes_survive_renumbering():
    three = build_cayley(make_cyclic(3), {1, 2})
    five = build_cayley(make_cyclic(5), {1, 4})
    prod = cartesian_product(three, five)
    new = shuffled(15, seed=3)
    group = renumber(prod.group, new)
    graph = build_cayley(group, {new[s] for s in prod.connection.members})
    fibers = BlockSystem.from_blocks(
        15, [[new[v] for v in range(a * 5, (a + 1) * 5)] for a in range(3)]
    )
    e = stabilizer_classes(color_preserving_group(graph), fibers)
    assert e.block_count == 5 and e.block_size == 3
    assert {frozenset(blk) for blk in e.blocks} == {
        frozenset(new[v] for v in (b, b + 5, b + 10)) for b in range(5)
    }


def test_cartesian_product_embeds_beside_each_identity():
    # Z3 with its identity at 2 and Z5 with its identity at 3; pair (a, b)
    # is element 5a + b of the product.
    three = build_cayley(renumber(make_cyclic(3), [2, 0, 1]), {0, 1})
    five = build_cayley(renumber(make_cyclic(5), [3, 0, 1, 2, 4]), {0, 4})
    prod = cartesian_product(three, five)
    assert prod.group.identity == 13
    assert prod.connection.members == {3, 8, 10, 14}


def test_product_factors_over_the_renumbered_fibers():
    # (c, f) is element 21c + f of z5xf21, so its order-21 fibers are v // 21.
    base = group_from_name("z5xf21")
    members = parse_elements(base, "(1,e),(4,e),(e,a),(e,a^2),(e,x^4a),(e,x^6a^2)")
    new = shuffled(105, seed=13)
    group = renumber(base, new)
    graph = build_cayley(group, {new[s] for s in members})
    assert not cca_verdict(graph).is_cca
    result = _factor_product(graph)
    assert (result.factor1.n, result.factor2.n) == (5, 21)
    assert {frozenset(blk) for blk in left_cosets(group, result.g2).blocks} == {
        frozenset(new[v] for v in range(21 * c, 21 * c + 21)) for c in range(5)
    }


@pytest.mark.parametrize("color_group", ["noncca_ao", "product_ao"])
def test_block_systems_follow_relabeling(color_group, request):
    ao = request.getfixturevalue(color_group)
    n = ao.degree
    new = shuffled(n, seed=5)

    def conjugate(g):
        out = [0] * n
        for x in range(n):
            out[new[x]] = new[g[x]]
        return tuple(out)

    def partitions(systems, relabel):
        return {
            frozenset(frozenset(relabel[x] for x in blk) for blk in bs.blocks)
            for bs in systems
        }

    moved = PermGroup(n, [conjugate(g) for g in ao.generators])
    assert moved.order() == ao.order()
    systems = all_block_systems(ao)
    assert partitions(all_block_systems(moved), range(n)) == partitions(systems, new)
    assert len(systems) > 1


@pytest.mark.parametrize("name, classes", [("f21", 51), ("z3xs3", 131), ("d8", 190)])
def test_uncolored_class_counts_survive_renumbering(name, classes):
    # Pairwise isomorphism tests within equal valency, as in the
    # iso-classify benchmark workload, on a renumbered copy of the group.
    base = group_from_name(name)
    group = renumber(base, shuffled(base.order, seed=11))
    reps: dict[int, list] = {}
    pairs = inverse_pairs(group)
    for mask, _ in connection_set_orbits(group, connected_only=True):
        graph = build_cayley(group, mask_to_connection_set(group, pairs, mask))
        same_valency = reps.setdefault(graph.valency, [])
        for rep in same_valency:
            iso = are_isomorphic(graph, rep, respect_colors=False)
            if iso is not None:
                p = np.asarray(iso, dtype=np.intp)
                carried = rep.uncolored_matrix[np.ix_(p, p)]
                assert np.array_equal(carried, graph.uncolored_matrix)
                break
        else:
            same_valency.append(graph)
    assert sum(len(v) for v in reps.values()) == classes
