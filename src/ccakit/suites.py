"""Oracle and property suites backing the verification harness.

Each suite returns one row per checked instance with an "ok" flag and
enough detail to replay the check by hand.  The suites are deterministic:
pseudorandom instances derive from an explicit seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .cartesian import cartesian_decompose, stabilizer_classes, strip_block_edges
from .cayley import (
    ColoredCayleyGraph,
    build_cayley,
    cartesian_product,
    f21_noncca_graph,
    inverse_pairs,
    mask_to_connection_set,
    quotient_graph,
)
from .cca import cca_verdict, complete_graph, is_affine
from .groups import (
    GroupTable,
    group_from_name,
    left_cosets,
    left_regular_group,
    left_translation,
    subgroup_generated,
)
from .perms import (
    BlockSystem,
    PermGroup,
    block_action,
    fixer,
    is_normal_subgroup,
    orbits_of_gens,
)
from .search import (
    brute_force_color_group,
    color_preserving_group,
    preserves_matrix,
    two_closure,
)

__all__ = [
    "groups_up_to_order_8",
    "white_oracle_suite",
    "brute_vs_search_suite",
    "two_closure_suite",
    "lemma_property_suite",
    "run_oracle_suites",
]


def _row(suite: str, name: str, ok: bool, **details) -> dict:
    out = {"suite": suite, "name": name, "ok": bool(ok)}
    out.update(details)
    return out


def _groups_equal(a: PermGroup, b: PermGroup) -> bool:
    if a.degree != b.degree or a.order() != b.order():
        return False
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
    )


_SMALL_GROUP_NAMES = (
    "z1", "z2", "z3", "z4", "z2xz2", "z5", "z6", "s3", "z7", "z8", "z4xz2", "z2xz2xz2", "d4", "q8",
)


def groups_up_to_order_8() -> list[tuple[str, GroupTable]]:
    """All 14 groups of order at most 8, as named tables."""
    return [(name, group_from_name(name)) for name in _SMALL_GROUP_NAMES]


def _seeded_generating_set(
    rng: random.Random, group: GroupTable, units: Sequence[Sequence[int]]
) -> frozenset[int]:
    """The elements of 2 to 4 of the units drawn by rng, drawn again until
    they generate the group: replayable by seed.  The units are single
    elements for a digraph's set and inverse pairs for a graph's."""
    while True:
        chosen = rng.sample(units, rng.randint(2, min(4, len(units))))
        members = frozenset(x for unit in chosen for x in unit)
        if len(subgroup_generated(group, members)) == group.order:
            return members


# -- exact-arc-color oracle ---------------------------------------------------


_DIGRAPH_ROSTER = ("z6", "z7", "z8", "d4", "z9", "z10", "d5", "z12", "q8", "f21")


def white_oracle_suite(seed: int = 0) -> list[dict]:
    """Exact-arc-color groups of connected Cayley digraphs are the
    translations, and nothing else."""
    rng = random.Random(seed)
    rows: list[dict] = []
    for name in 2 * _DIGRAPH_ROSTER:  # each group twice, on different sets
        group = group_from_name(name)
        units = [(g,) for g in range(group.order) if g != group.identity]
        members = tuple(sorted(_seeded_generating_set(rng, group, units)))
        graph = build_cayley(group, members, digraph_mode=True)
        found = color_preserving_group(graph)
        ok = found.order() == group.order
        ok = ok and all(found.contains(t) for t in group.mult)  # the translations
        for g in found.generators:
            ok = ok and g == left_translation(group, g[group.identity])
        rows.append(
            _row(
                "white-oracle",
                f"{name} S={list(members)}",
                ok,
                group_order=group.order,
                found_order=found.order(),
            )
        )
    return rows


# -- search vs brute force ----------------------------------------------------


def brute_vs_search_suite() -> list[dict]:
    """Search equals n!-filter on every inverse-closed set of every group
    of order at most 8, the empty set included."""
    rows: list[dict] = []
    for name, group in groups_up_to_order_8():
        pairs = inverse_pairs(group)
        for mask in range(1 << len(pairs)):
            cs = mask_to_connection_set(group, pairs, mask)
            graph = build_cayley(group, cs)
            searched = color_preserving_group(graph)
            brute = brute_force_color_group(graph)
            ok = _groups_equal(searched, brute)
            rows.append(
                _row(
                    "brute-vs-search",
                    f"{name} mask={mask}",
                    ok,
                    searched_order=searched.order(),
                    brute_order=brute.order(),
                )
            )
    return rows


# -- 2-closure ----------------------------------------------------------------


def _closure_fixtures() -> list[tuple[str, ColoredCayleyGraph]]:
    return [
        ("z5 pair", build_cayley(group_from_name("z5"), {1, 4})),
        ("z7 two pairs", build_cayley(group_from_name("z7"), {1, 6, 2, 5})),
        ("z8 pair+half", build_cayley(group_from_name("z8"), {1, 7, 4})),
        ("s3 complete", complete_graph(group_from_name("s3"))),
        ("d4 pair+flip", build_cayley(group_from_name("d4"), {1, 3, 4})),
    ]


def two_closure_suite() -> list[dict]:
    rows: list[dict] = []

    gamma = f21_noncca_graph()
    ao = color_preserving_group(gamma)
    closed = two_closure(ao)
    rows.append(
        _row(
            "two-closure",
            "color group of the order-21 negative instance",
            _groups_equal(ao, closed),
            order=ao.order(),
            closed_order=closed.order(),
        )
    )
    again = two_closure(closed)
    rows.append(
        _row(
            "two-closure",
            "idempotence on that group",
            _groups_equal(closed, again),
            closed_order=again.order(),
        )
    )

    for name, graph in _closure_fixtures():
        verdict = cca_verdict(graph)
        group = color_preserving_group(graph)
        closed = two_closure(group)
        ok = verdict.is_cca and _groups_equal(group, closed)
        ok = ok and _groups_equal(closed, two_closure(closed))
        rows.append(
            _row(
                "two-closure",
                f"{name} (positive verdict)",
                ok,
                order=group.order(),
                closed_order=closed.order(),
            )
        )

    sym4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    closed = two_closure(sym4)
    rows.append(
        _row(
            "two-closure",
            "full symmetric group stays closed",
            closed.order() == 24,
            closed_order=closed.order(),
        )
    )

    # A reflection swaps the two directed orbitals of the rotation group,
    # so it lies outside the closure: rotations are already 2-closed.
    rot5 = PermGroup(5, [(1, 2, 3, 4, 0)])
    closed = two_closure(rot5)
    reflection = tuple((-i) % 5 for i in range(5))
    rows.append(
        _row(
            "two-closure",
            "5-cycle rotations are already closed",
            closed.order() == 5 and not closed.contains(reflection),
            closed_order=closed.order(),
        )
    )
    return rows


# -- lemma properties ---------------------------------------------------------


def _coset_partition(group: GroupTable, s: int) -> BlockSystem:
    """Left cosets of the cyclic subgroup generated by s."""
    return left_cosets(group, subgroup_generated(group, [s]))


def _product_instance() -> tuple[ColoredCayleyGraph, PermGroup, BlockSystem, BlockSystem]:
    gamma = f21_noncca_graph()
    c5 = build_cayley(group_from_name("z5"), {1, 4})
    prod = cartesian_product(c5, gamma)
    ao = color_preserving_group(prod)
    # (a, b) is element 21a + b: the fibers of the F21 and Z5 factors.
    fipart = left_cosets(prod.group, range(21))
    zpart = left_cosets(prod.group, range(0, 105, 21))
    return prod, ao, fipart, zpart


def lemma_property_suite() -> list[dict]:
    rows: list[dict] = []
    gamma = f21_noncca_graph()
    group = gamma.group
    ao = color_preserving_group(gamma)

    # The left translations are the rows of the table.
    ok = all(ao.contains(t) for t in group.mult)
    rows.append(_row("lemma", "translations inside the color group", ok))

    ok = all(preserves_matrix(gamma.color_matrix, t) for t in group.mult)
    rows.append(_row("lemma", "translations preserve every color class", ok))

    for s in sorted(gamma.connection.members):
        system = _coset_partition(group, s)
        try:
            block_action(ao, system)
            ok = True
        except ValueError:
            ok = False
        rows.append(
            _row(
                "lemma",
                f"cosets of <{group.label_of(s)}> invariant under the color group",
                ok,
                block_size=system.block_size,
            )
        )

    ok = all(
        preserves_matrix(gamma.uncolored_matrix, g) for g in ao.generators
    )
    rows.append(_row("lemma", "color group inside the plain automorphisms", ok))

    inversion = tuple(group_from_name("z9").inv)
    graph9 = build_cayley(group_from_name("z9"), {1, 8, 3, 6})
    rows.append(
        _row(
            "lemma",
            "negation is color-preserving on a commutative instance",
            preserves_matrix(graph9.color_matrix, inversion),
        )
    )
    q8 = group_from_name("q8")
    rows.append(
        _row(
            "lemma",
            "inversion is color-preserving on the complete quaternion graph",
            preserves_matrix(complete_graph(q8).color_matrix, tuple(q8.inv)),
        )
    )

    # fixers over coset partitions of the regular representation
    xpart = _coset_partition(group, group.index_of("x"))
    fx = fixer(left_regular_group(group), xpart)
    ok = fx.order() == 7 and sorted(map(sorted, fx.orbits())) == sorted(
        map(sorted, map(list, xpart.blocks))
    )
    rows.append(
        _row(
            "lemma",
            "regular fixer over the order-7 coset blocks has the blocks as orbits",
            ok,
            fixer_order=fx.order(),
        )
    )

    # semiregular fixer case: when the full color group's fixer is
    # semiregular it coincides with the regular representation's fixer
    z15 = group_from_name("z15")
    g15 = build_cayley(z15, {1, 14})
    ao15 = color_preserving_group(g15)
    b15 = _coset_partition(z15, 5)
    fx_ao = fixer(ao15, b15)
    fx_gl = fixer(left_regular_group(z15), b15)
    ok = fx_ao.is_semiregular() and _groups_equal(fx_ao, fx_gl)
    ok = ok and sorted(map(sorted, fx_ao.orbits())) == sorted(
        map(sorted, map(list, b15.blocks))
    )
    rows.append(
        _row(
            "lemma",
            "semiregular fixer equals the translation fixer on a 15-cycle",
            ok,
            fixer_order=fx_ao.order(),
        )
    )

    bpart = _coset_partition(group, group.index_of("a"))
    fx_ao21 = fixer(ao, bpart)
    fx_gl21 = fixer(left_regular_group(group), bpart)
    ok = fx_ao21.is_semiregular() and _groups_equal(fx_ao21, fx_gl21)
    rows.append(
        _row(
            "lemma",
            "trivial semiregular fixer case over order-3 coset blocks",
            ok,
            fixer_order=fx_ao21.order(),
        )
    )

    # quotient lemma on the 105-vertex product
    prod, ao105, fipart, zpart = _product_instance()
    nsub = sorted(subgroup_generated(prod.group, [21]))  # the order-5 direct factor
    quotient, coset_map = quotient_graph(prod, nsub)
    translations = [left_translation(prod.group, h) for h in nsub]
    orbit_blocks = BlockSystem.from_blocks(
        105, orbits_of_gens(105, translations)
    )
    ok = orbit_blocks.block_of == zpart.block_of
    induced, project = block_action(ao105, orbit_blocks)
    for g in ao105.generators:
        ok = ok and preserves_matrix(quotient.color_matrix, project(g))
    rows.append(
        _row(
            "lemma",
            "block images of the product color group act on the quotient graph",
            ok,
            quotient_order=quotient.n,
        )
    )

    # coset numbering of the quotient matches block numbering
    ok = all(
        coset_map[p] == orbit_blocks.block_of[p] for p in range(105)
    )
    rows.append(_row("lemma", "coset numbering aligns with block numbering", ok))

    # product of two positive-verdict graphs of coprime odd orders
    left = build_cayley(group_from_name("z3"), {1, 2})
    right = build_cayley(group_from_name("z5"), {1, 4})
    both = cartesian_product(left, right)
    ok = (
        cca_verdict(left).is_cca
        and cca_verdict(right).is_cca
        and cca_verdict(both).is_cca
    )
    rows.append(
        _row("lemma", "product of positive-verdict coprime factors stays positive", ok)
    )

    # decomposition structure on the 105-vertex instance
    e = stabilizer_classes(ao105, fipart)
    ok = e.block_of == zpart.block_of
    stripped = strip_block_edges(prod, fipart)
    for comp in stripped.components:
        classes = {e.block_of[p] for p in comp}
        ok = ok and len(classes) == 1
    result = cartesian_decompose(prod, ao105, fipart)
    ok = ok and result.success and result.phrasings_agree
    rows.append(
        _row(
            "lemma",
            "stabilizer classes split the 105-vertex product as expected",
            ok,
            class_count=e.block_count,
        )
    )

    # normality facts on the 21-vertex instance
    gl = left_regular_group(group)
    ok = not is_normal_subgroup(gl, ao)
    xl = PermGroup(21, [left_translation(group, group.index_of("x"))])
    ok = ok and is_normal_subgroup(xl, gl)
    rows.append(_row("lemma", "translation normality facts on 21 vertices", ok))

    # affinity of translations and of negation on a commutative group
    z7 = group_from_name("z7")
    ok = all(is_affine(left_translation(z7, g), z7) for g in range(7))
    ok = ok and is_affine(tuple(z7.inv), z7)
    ok = ok and not is_affine(tuple(q8.inv), q8)
    rows.append(_row("lemma", "affinity of translations, negation, and inversion", ok))

    return rows


def run_oracle_suites(seed: int = 0) -> list[dict]:
    rows: list[dict] = []
    rows.extend(white_oracle_suite(seed=seed))
    rows.extend(brute_vs_search_suite())
    rows.extend(two_closure_suite())
    rows.extend(lemma_property_suite())
    return rows
