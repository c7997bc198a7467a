"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line carrying the measured values, then
asserts.  All quantities are exact integers; the timed criteria must also come
in under their wall-clock budgets.
"""

import time

from ccakit.cartesian import (
    cartesian_decompose,
    product_structure_verdict,
    stabilizer_classes,
    strip_block_edges,
)
from ccakit.cayley import f21_noncca_graph, quotient_graph
from ccakit.groups import group_automorphisms, subgroup_generated
from ccakit.harness import check_f21_census, cmd_complete_cca, f21_census
from ccakit.perms import BlockSystem, block_action, point_stabilizer
from ccakit.search import are_isomorphic, preserves_matrix
from ccakit.suites import (
    brute_vs_search_suite,
    two_closure_suite,
    white_oracle_suite,
)


def _criterion(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _fibers(n: int, block_size: int) -> BlockSystem:
    count = n // block_size
    return BlockSystem.from_blocks(
        n, [range(a * block_size, (a + 1) * block_size) for a in range(count)]
    )


def test_criterion_01_f21_census():
    start = time.time()
    report = f21_census()
    check_f21_census(report)
    elapsed = time.time() - start
    noncca = next(row for row in report.rows if not row["is_cca"])
    ok = (
        report.total_sets == 1023
        and report.noncca_class_count == 1
        and report.noncca_sets_per_class == [21]
        and noncca["valency"] == 4
        and noncca["ao_order"] == 168
        and noncca["aut_order"] == 336
        and elapsed < 300
    )
    _criterion(
        1,
        ok,
        f"census: {report.total_sets} sets, {report.noncca_class_count} negative "
        f"class of {report.noncca_sets_per_class[0]} sets, valency "
        f"{noncca['valency']}, color group {noncca['ao_order']}, full group "
        f"{noncca['aut_order']} ({elapsed:.1f}s)",
    )


def test_criterion_02_suborbits_every_base(noncca_aut):
    profiles = set()
    for base in range(21):
        stab = point_stabilizer(noncca_aut, base)
        profiles.add(tuple(sorted(len(o) for o in stab.orbits())))
    ok = profiles == {(1, 4, 8, 8)}
    _criterion(
        2,
        ok,
        f"uncolored automorphism suborbits at all 21 bases: {sorted(profiles)}",
    )


def test_criterion_03_group_automorphisms(f21, noncca_graph):
    auts = group_automorphisms(f21)
    shared = sum(
        1
        for phi in auts.elements()
        if preserves_matrix(noncca_graph.uncolored_matrix, phi)
    )
    ok = auts.order() == 42 and shared == 2
    _criterion(
        3,
        ok,
        f"table automorphisms: {auts.order()}, of which {shared} act on the graph",
    )


def test_criterion_04_complete_graph_roster():
    rows, _ = cmd_complete_cca()
    negatives = sorted(row["group"] for row in rows if not row["is_cca"])
    biconditional = all(
        row["is_cca"] == (not row["hamiltonian_2_group"]) for row in rows
    )
    ok = biconditional and negatives == ["q8", "q8xz2", "q8xz2^2"]
    _criterion(
        4,
        ok,
        f"complete graphs on {len(rows)} groups, negatives exactly {negatives}",
    )


def test_criterion_05_digraph_color_groups():
    rows = white_oracle_suite(seed=0)
    orders = {row["group_order"] for row in rows}
    ok = (
        len(rows) == 20
        and all(row["ok"] for row in rows)
        and min(orders) == 6
        and max(orders) == 21
    )
    _criterion(
        5,
        ok,
        f"{len(rows)} seeded digraphs, orders {min(orders)}..{max(orders)}, "
        f"exact color group always the translations",
    )


def test_criterion_06_search_matches_brute_force():
    start = time.time()
    rows = brute_vs_search_suite()
    elapsed = time.time() - start
    failures = [row["name"] for row in rows if not row["ok"]]
    ok = not failures and elapsed < 600
    _criterion(
        6,
        ok,
        f"search equals brute force on {len(rows)} instances "
        f"({elapsed:.1f}s){': ' + str(failures[:3]) if failures else ''}",
    )


def test_criterion_07_two_closure():
    rows = two_closure_suite()
    failures = [row["name"] for row in rows if not row["ok"]]
    ok = not failures
    _criterion(
        7,
        ok,
        f"pair-orbit closure checks: {len(rows) - len(failures)}/{len(rows)} ok"
        f"{': ' + str(failures[:3]) if failures else ''}",
    )


def test_criterion_08_product_factorization(product_graph, product_ao):
    start = time.time()
    factors = product_structure_verdict(product_graph)
    recovered = factors is not None
    f1_n = f2_n = 0
    canon_match = False
    if recovered:
        f1, f2 = factors
        f1_n, f2_n = f1.n, f2.n
        canon_match = are_isomorphic(f2, f21_noncca_graph(), respect_colors=False)
    result = cartesian_decompose(product_graph, product_ao, _fibers(105, 21))
    elapsed = time.time() - start
    ok = (
        recovered
        and f1_n == 5
        and f2_n == 21
        and canon_match
        and result.success
        and len(result.g1) == 5
        and elapsed < 600
    )
    _criterion(
        8,
        ok,
        f"105-vertex product: factors {f1_n} and {f2_n}, order-21 factor matches "
        f"the canonical instance, first subgroup size {len(result.g1)} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_09_decomposition_conditions(product_graph, product_ao):
    fibers = _fibers(105, 21)
    classes = stabilizer_classes(product_ao, fibers)
    # the class partition must itself be invariant
    block_action(product_ao, classes)
    stripped = strip_block_edges(product_graph, fibers)
    comps_inside = all(
        len({classes.block_of[v] for v in comp}) == 1 for comp in stripped.components
    )
    meets_once = all(
        sum(1 for v in cls if v in set(blk)) == 1
        for cls in classes.blocks
        for blk in fibers.blocks
    )
    group = product_graph.group
    inside = [s for s in product_graph.connection.members if s < 21]
    outside = [s for s in product_graph.connection.members if s >= 21]
    commute = all(
        group.mul(s1, s2) == group.mul(s2, s1) for s1 in outside for s2 in inside
    )
    ok = (
        classes.block_count == 21
        and classes.block_size == 5
        and comps_inside
        and meets_once
        and commute
    )
    _criterion(
        9,
        ok,
        f"{classes.block_count} stabilizer classes of {classes.block_size}, "
        f"components stay inside classes ({comps_inside}), every class meets "
        f"every fiber once ({meets_once}), parts commute ({commute})",
    )


def test_criterion_10_quotient_action(product_graph, product_ao):
    group = product_graph.group
    cycle_part = sorted(subgroup_generated(group, [21]))
    orbits = BlockSystem.from_blocks(
        105, [[group.mul(v, z) for z in cycle_part] for v in range(21)]
    )
    qgraph, coset_map = quotient_graph(product_graph, cycle_part)
    numbering_aligned = all(
        coset_map[v] == orbits.block_of[v] for v in range(105)
    )
    action, project = block_action(product_ao, orbits)
    projections_preserve = all(
        preserves_matrix(qgraph.color_matrix, project(g))
        for g in product_ao.generators
    )
    ok = (
        qgraph.n == 21
        and numbering_aligned
        and action.degree == 21
        and projections_preserve
    )
    _criterion(
        10,
        ok,
        f"quotient on {qgraph.n} vertices, numbering aligned "
        f"({numbering_aligned}), every color group generator projects to a "
        f"color-preserving map ({projections_preserve})",
    )
