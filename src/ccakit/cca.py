"""Affine maps, CCA verdicts, and the complete-graph criterion.

A permutation of the group is affine when it is a left translation composed
with a table automorphism.  A connected Cayley graph whose color-preserving
automorphisms are all affine gets a positive verdict; a group gets one when
every connected Cayley graph of it does.  Two independent criteria are
computed for every graph and must agree: normality of the left-translation
subgroup inside the color group, and the per-generator affinity test.

The verdict also notes whether the color group is primitive.  It contains
the left-regular group G_L, whose block systems are the left coset
partitions {gH} of the subgroups H (Dixon & Mortimer, *Permutation Groups*,
1996, section 1.5); so the color group's systems are those coset partitions
that each of its generators preserves, and the note stops at the first
nontrivial one.  G_L and its coset partitions are read off the group table
once and kept with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cayley import (
    ColoredCayleyGraph,
    ConnectionSet,
    build_cayley,
    connection_set_orbits,
    inverse_pairs,
    is_connected,
    mask_to_connection_set,
)
from .groups import (
    GroupTable,
    _left_regular_systems,
    is_normal,
    left_regular_group,
    subgroup_generated,
)
from .perms import BlockSystem, Perm, PermGroup, _block_image, is_normal_subgroup
from .search import color_preserving_group, preserves_matrix

__all__ = [
    "CcaVerdict",
    "is_affine",
    "cca_verdict",
    "cca_verdict_with_group",
    "cca_group_verdict",
    "is_hamiltonian_2group",
    "complete_connection_set",
    "complete_graph",
    "InversionReport",
    "inversion_conjugation_report",
    "affine_elements",
]


def is_affine(perm: Sequence[int], group: GroupTable) -> bool:
    """Whether the map is a translation composed with a table automorphism.

    Normalizing by the image of the identity must leave a multiplication
    homomorphism; bijectivity then makes it an automorphism.
    """
    alpha = np.asarray(perm, dtype=np.intp)
    if alpha.shape != (group.order,):
        raise ValueError("degree does not match the group order")
    m = group.mult_array
    k_inv = group.inv[int(alpha[group.identity])]
    beta = m[k_inv, alpha]
    return bool(np.array_equal(beta[m], m[beta[:, np.newaxis], beta[np.newaxis, :]]))


def affine_elements(perm_group: PermGroup, group: GroupTable) -> list[Perm]:
    """The affine members of a permutation group on the group's elements."""
    return [g for g in perm_group.elements() if is_affine(g, group)]


@dataclass(frozen=True)
class CcaVerdict:
    """Outcome of the all-affine test for one connected Cayley graph."""

    is_cca: bool
    ao_order: int
    witness: Perm | None
    notes: dict[str, bool]

    def to_json(self) -> dict:
        out: dict = {
            "is_cca": self.is_cca,
            "ao_order": self.ao_order,
            "notes": dict(self.notes),
        }
        if self.witness is not None:
            out["witness_images"] = list(self.witness)
        return out


def _color_group_systems(group: GroupTable, ao: PermGroup) -> Iterator[BlockSystem]:
    """The block systems of a group ao containing G_L, in the order of
    all_block_systems: those of G_L that every generator of ao preserves."""
    for bs in _left_regular_systems(group):
        if all(_block_image(g, bs) is not None for g in ao.generators):
            yield bs


def cca_verdict_with_group(
    graph: ColoredCayleyGraph,
) -> tuple[CcaVerdict, PermGroup]:
    """The verdict together with the color-preserving group it came from."""
    if graph.digraph_mode:
        raise ValueError("verdicts are defined for graph mode only")
    if not is_connected(graph):
        raise ValueError("verdicts are defined for connected graphs only")
    ao = color_preserving_group(graph)
    gl_normal = is_normal_subgroup(left_regular_group(graph.group), ao)
    # Affine maps form a group, so ao is all affine iff its generators are.
    witness = next(
        (g for g in ao.generators if not is_affine(g, graph.group)), None
    )
    if gl_normal != (witness is None):
        raise AssertionError("normality and affinity criteria disagree")
    if witness is not None and not preserves_matrix(graph.color_matrix, witness):
        raise AssertionError("witness does not preserve the coloring")
    n = graph.n
    ao_primitive = all(
        len(bs.blocks) in (1, n) for bs in _color_group_systems(graph.group, ao)
    )
    verdict = CcaVerdict(
        is_cca=gl_normal,
        ao_order=ao.order(),
        witness=witness,
        notes={"gl_normal": gl_normal, "ao_primitive": ao_primitive},
    )
    return verdict, ao


def cca_verdict(graph: ColoredCayleyGraph) -> CcaVerdict:
    verdict, _ = cca_verdict_with_group(graph)
    return verdict


def cca_group_verdict(group: GroupTable) -> tuple[bool, list[ConnectionSet]]:
    """Whether every connected Cayley graph of the group gets a positive
    verdict, plus the failing connection sets.

    One set per Aut(G)-orbit is decided, since verdicts are invariant under
    relabeling by a table automorphism; the failing list holds those
    representatives.
    """
    pairs = inverse_pairs(group)
    failing: list[ConnectionSet] = []
    for mask, _ in connection_set_orbits(group, connected_only=True):
        cs = mask_to_connection_set(group, pairs, mask)
        verdict = cca_verdict(build_cayley(group, cs))
        if not verdict.is_cca:
            failing.append(cs)
    return not failing, failing


def is_hamiltonian_2group(group: GroupTable) -> bool:
    """Nonabelian 2-group in which every subgroup is normal.

    A subgroup is generated by its cyclic subgroups, and a product of normal
    subgroups is normal, so every subgroup is normal exactly when every
    cyclic one is (Dedekind, 1897)."""
    n = group.order
    if n & (n - 1) != 0 or group.is_abelian:
        return False
    return all(is_normal(group, subgroup_generated(group, [g])) for g in range(n))


def complete_connection_set(group: GroupTable) -> ConnectionSet:
    members = frozenset(range(group.order)) - {group.identity}
    return ConnectionSet(group, members)


def complete_graph(group: GroupTable) -> ColoredCayleyGraph:
    """The complete Cayley graph: every non-identity element connects."""
    return build_cayley(group, complete_connection_set(group))


@dataclass(frozen=True)
class InversionReport:
    """Conjugation constraints satisfied by a color-preserving map of the
    complete Cayley graph that fixes the identity.

    Such a map sends every element to itself or its inverse.  For every
    properly inverted x and every fixed g of order above 2, conjugation by
    x must invert g; and unless the map inverts everything, every properly
    inverted x has order 4.
    """

    fixed: tuple[int, ...]
    inverted: tuple[int, ...]
    global_inversion: bool
    pairs_checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "fixed": list(self.fixed),
            "inverted": list(self.inverted),
            "global_inversion": self.global_inversion,
            "pairs_checked": self.pairs_checked,
            "violations": list(self.violations),
        }


def inversion_conjugation_report(
    group: GroupTable, phi: Sequence[int]
) -> InversionReport:
    graph = complete_graph(group)
    perm = tuple(phi)
    if len(perm) != group.order:
        raise ValueError("degree does not match the group order")
    if perm[group.identity] != group.identity:
        raise ValueError("map must fix the identity")
    if not preserves_matrix(graph.color_matrix, perm):
        raise ValueError("map must preserve every color class")
    inv = group.inv
    for g in range(group.order):
        if perm[g] not in (g, inv[g]):
            raise AssertionError("color-preserving identity-fixing map moved "
                                 "an element outside its inverse pair")
    fixed = tuple(g for g in range(group.order) if perm[g] == g)
    inverted = tuple(
        x for x in range(group.order) if perm[x] == inv[x] and inv[x] != x
    )
    global_inversion = all(perm[g] == inv[g] for g in range(group.order))
    violations: list[str] = []
    checked = 0
    fixed_big = [g for g in fixed if group.order_of(g) > 2]
    for x in inverted:
        for g in fixed_big:
            checked += 1
            if group.conjugate(x, g) != inv[g]:
                violations.append(
                    f"conjugating {group.label_of(g)} by {group.label_of(x)} "
                    f"does not invert it"
                )
            if not global_inversion and group.order_of(x) != 4:
                violations.append(
                    f"{group.label_of(x)} is inverted but has order "
                    f"{group.order_of(x)}, not 4"
                )
    return InversionReport(
        fixed=fixed,
        inverted=inverted,
        global_inversion=global_inversion,
        pairs_checked=checked,
        violations=tuple(violations),
    )
