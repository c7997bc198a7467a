"""Command layer behind the CLI.

Each cmd_* function returns (rows, summary): rows are JSON-ready dicts, one
per instance checked, and summary is a list of human-readable lines.  Failed
checks raise AssertionError, bad inputs raise ValueError; the CLI maps those
to exit codes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .cartesian import _factor_product, _is_square_free, cartesian_decompose
from .cayley import (
    _MAX_PAIRS_FOR_ENUMERATION,
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
)
from .cca import (
    CcaVerdict,
    cca_group_verdict,
    cca_verdict,
    cca_verdict_with_group,
    complete_graph,
    is_hamiltonian_2group,
)
from .groups import (
    GroupTable,
    group_from_name,
    left_cosets,
    make_cyclic,
    subgroup_generated,
)
from .search import are_isomorphic, uncolored_aut_group
from .suites import run_oracle_suites

DEFAULT_ROSTER = (
    "z5",
    "z7",
    "z8",
    "z9",
    "z2^3",
    "d4",
    "q8",
    "q8xz2",
    "q8xz2^2",
    "s3",
    "f21",
)


def _check(ok: bool, message: object) -> None:
    """A failed check; unlike a bare assert, it also runs under python -O."""
    if not ok:
        raise AssertionError(message)


@dataclass
class CensusReport:
    """Aggregate view of the sweep over the inverse-closed sets of F21."""

    group_name: str
    total_sets: int
    connected_sets: int
    orbit_count: int
    connected_orbit_count: int
    burnside_orbit_count: int
    noncca_class_count: int
    noncca_sets_per_class: list[int]
    rows: list[dict]

    def summary_dict(self) -> dict:
        return {
            "kind": "summary",
            "group": self.group_name,
            "total_sets": self.total_sets,
            "connected_sets": self.connected_sets,
            "orbit_count": self.orbit_count,
            "connected_orbit_count": self.connected_orbit_count,
            "burnside_orbit_count": self.burnside_orbit_count,
            "noncca_class_count": self.noncca_class_count,
            "noncca_sets_per_class": list(self.noncca_sets_per_class),
        }


def f21_census() -> CensusReport:
    """Sweep every connected inverse-closed set of F21, one orbit rep each.

    Verdicts are computed per representative and counts are expanded back to
    full orbits.  Negative reps are clustered by color-respecting graph
    isomorphism; the orbit count is cross-checked against a Burnside count.
    """
    group = group_from_name("f21")
    pairs = inverse_pairs(group)
    orbits = connection_set_orbits(group)
    rows: list[dict] = []
    negatives: list[tuple[dict, ColoredCayleyGraph]] = []
    connected_sets = 0
    for mask, size in orbits:
        cs = mask_to_connection_set(group, pairs, mask)
        if not cs.generates_group():
            continue
        connected_sets += size
        graph = build_cayley(group, cs)
        verdict = cca_verdict(graph)
        row = {
            "kind": "connection-set",
            "mask": mask,
            "set": list(cs.labels()),
            "valency": graph.valency,
            "ao_order": verdict.ao_order,
            "is_cca": verdict.is_cca,
            "iso_class": None,
            "orbit_size": size,
        }
        if not verdict.is_cca:
            row["aut_order"] = uncolored_aut_group(graph).order()
            negatives.append((row, graph))
        rows.append(row)

    # Each negative graph is kept, so it keeps its refined root for are_isomorphic.
    class_reps: list[ColoredCayleyGraph] = []
    per_class: list[int] = []
    for row, graph in negatives:
        for k, rep in enumerate(class_reps):
            if are_isomorphic(graph, rep, respect_colors=True):
                row["iso_class"] = k
                per_class[k] += row["orbit_size"]
                break
        else:
            row["iso_class"] = len(class_reps)
            class_reps.append(graph)
            per_class.append(row["orbit_size"])

    return CensusReport(
        group_name="F21",
        total_sets=(1 << len(pairs)) - 1,
        connected_sets=connected_sets,
        orbit_count=len(orbits),
        connected_orbit_count=len(rows),
        burnside_orbit_count=count_orbits_burnside(group),
        noncca_class_count=len(class_reps),
        noncca_sets_per_class=per_class,
        rows=rows,
    )


def check_f21_census(report: CensusReport) -> None:
    """Assert the known shape of the F21 sweep."""
    _check(report.total_sets == 1023, report.total_sets)
    _check(
        report.orbit_count == report.burnside_orbit_count,
        f"orbit dedup found {report.orbit_count}, "
        f"Burnside says {report.burnside_orbit_count}",
    )
    noncca = [row for row in report.rows if not row["is_cca"]]
    _check(report.noncca_class_count == 1, report.noncca_class_count)
    _check(report.noncca_sets_per_class == [21], report.noncca_sets_per_class)
    _check(len(noncca) == 1, f"{len(noncca)} negative rows")
    row = noncca[0]
    _check(row["valency"] == 4, row)
    _check(row["ao_order"] == 168, row)
    _check(row["aut_order"] == 336, row)
    # The canonical set {a, a^-1, ax, (ax)^-1} must land in that orbit.
    group = group_from_name("f21")
    canonical = connection_set_mask(
        group, inverse_pairs(group), f21_noncca_connection_set(group)
    )
    _check(canonical in mask_orbit(group, row["mask"]), "canonical set missing")


def cmd_f21_census() -> tuple[list[dict], list[str]]:
    report = f21_census()
    check_f21_census(report)
    rows = list(report.rows)
    rows.append(report.summary_dict())
    noncca = next(row for row in report.rows if not row["is_cca"])
    summary = [
        f"{report.total_sets} nonempty inverse-closed sets, "
        f"{report.connected_sets} connected",
        f"{report.orbit_count} orbits under table automorphisms "
        f"(Burnside agrees), {report.connected_orbit_count} of them connected",
        f"negative verdicts: {report.noncca_class_count} isomorphism class, "
        f"{report.noncca_sets_per_class[0]} connection sets, "
        f"valency {noncca['valency']}",
        f"negative instance: color group order {noncca['ao_order']}, "
        f"full automorphism group order {noncca['aut_order']}",
    ]
    return rows, summary


def cmd_complete_cca(
    roster: Sequence[str] | None = None,
) -> tuple[list[dict], list[str]]:
    """Verdict for the complete graph of each roster group, checked against
    the subgroup criterion: negative exactly for nonabelian groups of
    2-power order whose subgroups are all normal."""
    names = list(roster) if roster is not None else list(DEFAULT_ROSTER)
    if not names:
        raise ValueError("empty roster")
    rows: list[dict] = []
    bad: list[str] = []
    for name in names:
        group = group_from_name(name)
        graph = complete_graph(group)
        verdict = cca_verdict(graph)
        exceptional = is_hamiltonian_2group(group)
        ok = verdict.is_cca == (not exceptional)
        rows.append(
            {
                "kind": "complete-graph",
                "group": name,
                "order": group.order,
                "is_cca": verdict.is_cca,
                "hamiltonian_2_group": exceptional,
                "ao_order": verdict.ao_order,
                "ok": ok,
            }
        )
        if not ok:
            bad.append(name)
    _check(not bad, f"verdict disagrees with the subgroup criterion for {bad}")
    positive = sum(1 for row in rows if row["is_cca"])
    summary = [
        f"complete graphs over {len(rows)} groups: "
        f"{positive} positive, {len(rows) - positive} negative",
        "every verdict matches the subgroup criterion",
    ]
    return rows, summary


def _demo_cycle_factor(m: int):
    members: frozenset[int] = frozenset() if m == 1 else frozenset({1, m - 1})
    return build_cayley(make_cyclic(m), members)


def _random_connected_set(group: GroupTable, rng: random.Random) -> ConnectionSet:
    """A small seeded inverse-closed generating set, replayable by seed."""
    pairs = inverse_pairs(group)
    while True:
        chosen = rng.sample(range(len(pairs)), rng.randint(2, 4))
        members = frozenset(e for i in chosen for e in pairs[i])
        if len(subgroup_generated(group, members)) == group.order:
            return ConnectionSet(group, members)


def _product_theorem_factors(graph: ColoredCayleyGraph, verdict: CcaVerdict) -> dict:
    """The paper's product theorem as a check on one verdict.

    A negative verdict on a group of odd square-free order must factor as
    Cay(H,P) □ Γ with Γ the order-21 negative instance, and H = ⟨P⟩ must be
    CCA; that clause is decided by cca_group_verdict when H has at most
    _MAX_PAIRS_FOR_ENUMERATION inverse pairs.  Past that bound it follows
    from the theorem the paper builds on: |G| = |H| * 21 is odd and
    square-free, so |H| is odd and prime to 21, and H has no section
    isomorphic to F21; every non-CCA group of odd order has such a section
    (Hujdurović, Kutnar, D. W. Morris and J. Morris), so H is CCA.  The
    exhaustive run stays an independent check where it runs.  The two
    factor orders are returned as row fields.  Other verdicts give no fields.
    """
    order = graph.n
    if verdict.is_cca or order % 2 == 0 or not _is_square_free(order):
        return {}
    result = _factor_product(graph)
    _check(
        result is not None,
        f"negative verdict of odd square-free order {order} has no "
        "factor isomorphic to the order-21 instance",
    )
    h = result.factor1.group
    if len(inverse_pairs(h)) <= _MAX_PAIRS_FOR_ENUMERATION:
        _check(
            cca_group_verdict(h)[0],
            f"product theorem: the factor H of order {h.order} is not CCA",
        )
    return {"factor1_n": result.factor1.n, "factor2_n": result.factor2.n}


def cmd_product_demo(m: int, seed: int = 0) -> tuple[list[dict], list[str]]:
    """Build the m-cycle product of the order-21 negative instance, confirm
    the verdict stays negative, and split the connection set along its
    order-21 subgroup K, checked by the stabilizer-class decomposition over
    K's cosets.  Also reports three seeded random sets; a negative one must
    pass the product theorem."""
    if m not in (1, 5):
        raise ValueError("m must be odd, square-free, coprime to 21 and at most 5: 1 or 5")
    base = f21_noncca_graph()
    prod = cartesian_product(_demo_cycle_factor(m), base)
    verdict, ao = cca_verdict_with_group(prod)
    _check(not verdict.is_cca, "the product should keep a negative verdict")
    _check(ao.order() == {1: 168, 5: 1680}[m], ao.order())
    rows: list[dict] = [
        {
            "kind": "verdict",
            "n": prod.n,
            "is_cca": verdict.is_cca,
            "ao_order": verdict.ao_order,
            "notes": dict(verdict.notes),
        }
    ]

    result = _factor_product(prod)
    _check(result is not None, "the product does not factor through the order-21 instance")
    # The oracle checks its identity stabilizer class against H = result.g1.
    oracle = cartesian_decompose(prod, ao, left_cosets(prod.group, result.g2))
    fibers = tuple(v // 21 for v in range(prod.n))
    _check(oracle.block_system.block_of == fibers, "not factored over the order-21 fibers")
    _check(oracle.success and oracle.phrasings_agree, "intersection phrasings disagree")
    f1, f2 = result.factor1, result.factor2
    rows.append(
        {
            "kind": "factors",
            "factor1_n": f1.n,
            "factor2_n": f2.n,
            "g1_size": len(result.g1),
            "g2_size": len(result.g2),
            "block_count": oracle.block_system.block_count,
            "class_count": oracle.stab_classes.block_count,
            "phrasings_agree": oracle.phrasings_agree,
        }
    )

    rng = random.Random(seed)
    for i in range(3):
        cs = _random_connected_set(prod.group, rng)
        graph = build_cayley(prod.group, cs)
        v = cca_verdict(graph)
        rows.append(
            {
                "kind": "random-set",
                "index": i,
                "set": list(cs.labels()),
                "valency": graph.valency,
                "is_cca": v.is_cca,
                "ao_order": v.ao_order,
                **_product_theorem_factors(graph, v),
            }
        )
    random_pos = sum(1 for row in rows if row["kind"] == "random-set" and row["is_cca"])
    summary = [
        f"product on {prod.n} vertices: negative verdict, "
        f"color group order {verdict.ao_order}",
        f"factors recovered: {f1.n} vertices and {f2.n} vertices "
        f"(subgroup sizes {len(result.g1)} and {len(result.g2)})",
        f"3 seeded random sets (seed {seed}): {random_pos} positive verdicts",
    ]
    return rows, summary


def cmd_verdict(group_name: str, set_text: str) -> tuple[list[dict], list[str]]:
    """One replayable verdict for a named group and a comma-separated set.

    A negative verdict of odd square-free order is checked against the
    product theorem, and the row gains the two factor orders.
    """
    group = group_from_name(group_name)
    graph = build_cayley(group, set_text)
    verdict = cca_verdict(graph)
    row = {
        "kind": "verdict",
        "group": group_name,
        "order": group.order,
        "set": list(graph.connection.labels()),
        "valency": graph.valency,
    }
    row.update(verdict.to_json())
    row.update(_product_theorem_factors(graph, verdict))
    state = "positive" if verdict.is_cca else "negative"
    summary = [
        f"{group_name} on {{{', '.join(graph.connection.labels())}}}: "
        f"{state} verdict, color group order {verdict.ao_order}"
    ]
    if verdict.witness is not None:
        summary.append(
            "non-affine witness images: "
            + " ".join(str(x) for x in verdict.witness)
        )
    if "factor1_n" in row:
        summary.append(
            f"product theorem: factors on {row['factor1_n']} and "
            f"{row['factor2_n']} vertices"
        )
    return [row], summary


def cmd_oracle_suite(seed: int = 0) -> tuple[list[dict], list[str]]:
    rows = run_oracle_suites(seed=seed)
    by_suite: dict[str, list[dict]] = {}
    for row in rows:
        by_suite.setdefault(row["suite"], []).append(row)
    summary = [
        f"{name}: {sum(1 for r in group if r['ok'])}/{len(group)} ok"
        for name, group in by_suite.items()
    ]
    failures = [row["name"] for row in rows if not row["ok"]]
    _check(not failures, "failing rows: " + ", ".join(failures))
    return rows, summary
