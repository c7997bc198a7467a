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
once and kept with it.  When |ao| = n, ao is G_L itself, and no partition
is needed: it is primitive exactly when n is 1 or prime, since a composite
n has a subgroup of prime order (Cauchy), whose cosets form a nontrivial
system.

The color group's generators are G_L's, then those its search found.  The
affinity test and the block systems read only the found ones, told apart
from G_L's by a set test: a translation is affine, and it maps each coset
gH to hgH, so it preserves every coset partition.

Every verdict checks that |ao|/n is a power of 2, because the stabilizer
ao_e of a vertex e of a connected colored Cayley graph is a 2-group.  Let
K_r be the elements of ao_e that fix every vertex at distance at most r
from e, so K_0 = ao_e.  An element of K_r fixes each vertex v at distance
r, and v has exactly the neighbours vs and vs^-1 in the color of the pair
{s, s^-1}, so the element fixes both or swaps them.  Every vertex at
distance r + 1 is such a neighbour.  So restriction maps K_r into a product
of groups of order at most 2, with kernel K_{r+1}: K_r/K_{r+1} is an
elementary abelian 2-group.  The graph is connected, so K_d = 1 at its
diameter d, and |ao_e| is a power of 2; ao is transitive, so |ao| = n|ao_e|
(orbit-stabilizer).  In digraph mode each color is one element s, so K_r =
K_{r+1} and ao = G_L.  The bound needs connectivity: the color group of
three disjoint triangles, Cay(Z9, {3, 6}), is S3 wr S3, of order 1296 =
9 * 144.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cayley import (
    ColoredCayleyGraph,
    ConnectionSet,
    build_cayley,
    connection_set_orbits,
    inverse_pairs,
    mask_to_connection_set,
)
from .groups import (
    GroupTable,
    _left_regular_systems,
    is_normal,
    left_regular_group,
    subgroup_generated,
)
from .perms import BlockSystem, Perm, PermGroup, _as_perm, _block_image, is_normal_subgroup
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
]


def is_affine(perm: Sequence[int], group: GroupTable) -> bool:
    """Whether the map is a translation composed with a table automorphism.

    Normalizing by the image of the identity must leave a multiplication
    homomorphism; bijectivity then makes it an automorphism.  ValueError
    unless perm permutes the group's elements.
    """
    alpha = np.asarray(_as_perm(perm, group.order), dtype=np.intp)
    m = group.mult_array
    k_inv = group.inv[int(alpha[group.identity])]
    beta = m[k_inv, alpha]
    return bool(np.array_equal(beta[m], m[beta[:, np.newaxis], beta[np.newaxis, :]]))


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


def _found_generators(group: GroupTable, ao: PermGroup) -> list[Perm]:
    """The generators of a group ao containing G_L other than G_L's own, in
    order: with those, they generate ao."""
    translations = set(left_regular_group(group).generators)
    return [g for g in ao.generators if g not in translations]


def _color_group_systems(
    group: GroupTable, found: Sequence[Perm]
) -> Iterator[BlockSystem]:
    """The block systems of the group generated by G_L and found, in the
    order of all_block_systems: those of G_L that every found generator
    preserves.  Every left translation preserves them all."""
    for bs in _left_regular_systems(group):
        if all(_block_image(g, bs) is not None for g in found):
            yield bs


def cca_verdict_with_group(
    graph: ColoredCayleyGraph,
) -> tuple[CcaVerdict, PermGroup]:
    """The verdict together with the color-preserving group it came from."""
    if graph.digraph_mode:
        raise ValueError("verdicts are defined for graph mode only")
    if not graph.connection.generates_group():
        raise ValueError("verdicts are defined for connected graphs only")
    ao = color_preserving_group(graph)
    n = graph.n
    ao_order = ao.order()
    # The vertex stabilizer is a 2-group (see the module docstring).
    stabilizer, rem = divmod(ao_order, n)
    if rem or stabilizer & (stabilizer - 1):
        raise AssertionError(
            f"vertex stabilizer of order {ao_order}/{n} is not a 2-group"
        )
    gl_normal = is_normal_subgroup(left_regular_group(graph.group), ao)
    # Affine maps form a group, so ao is all affine iff its generators are;
    # the translations are affine, so only the found ones are tested.
    found = _found_generators(graph.group, ao)
    witness = next((g for g in found if not is_affine(g, graph.group)), None)
    if gl_normal != (witness is None):
        raise AssertionError("normality and affinity criteria disagree")
    if witness is not None and not preserves_matrix(graph.color_matrix, witness):
        raise AssertionError("witness does not preserve the coloring")
    if ao_order == n:  # ao = G_L: primitive iff n is 1 or prime
        ao_primitive = all(n % d for d in range(2, math.isqrt(n) + 1))
    else:
        ao_primitive = all(
            len(bs.blocks) in (1, n) for bs in _color_group_systems(graph.group, found)
        )
    verdict = CcaVerdict(
        is_cca=gl_normal,
        ao_order=ao_order,
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

