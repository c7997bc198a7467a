"""Cartesian factorization of colored Cayley graphs through block systems.

Given an invariant partition B of the vertices, points are compared by
their stabilizers inside the kernel of the block action, one stabilizer
per orbit of that kernel; the classes E of that comparison form a second
invariant partition.  When every class meets every block exactly once (odd
group order required), the connection set splits along the block at the
identity and the graph is a color-respecting Cartesian product of the two
induced factor graphs.  The search wrapper tries the nontrivial block
systems of the color group, then the singleton partition, until a
factorization with a distinguished order-21 factor appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cayley import (
    ColoredCayleyGraph,
    build_cayley,
    cartesian_product,
    f21_noncca_graph,
    is_connected,
)
from .cca import cca_verdict_with_group
from .groups import (
    GroupTable,
    left_translation,
    minimal_generating_set,
    subgroup_generated,
    subgroup_table,
)
from .perms import (
    BlockSystem,
    Perm,
    PermGroup,
    _block_image,
    all_block_systems,
    fixer,
    point_stabilizer,
    singleton_partition,
)
from .search import (
    are_isomorphic,
    color_bijection_between,
    color_preserving_group,
    preserves_matrix,
    uncolored_aut_group,
)

__all__ = [
    "stabilizer_classes",
    "StrippedGraph",
    "strip_block_edges",
    "DecompositionResult",
    "cartesian_decompose",
    "product_structure_verdict",
    "aut_product_check",
]

_AUT_PRODUCT_MAX = 126


def _stabilizer_classes(
    a: PermGroup, b: BlockSystem
) -> tuple[BlockSystem, list[frozenset[int]]]:
    """The classes, plus the points F(p) fixed by each point's stabilizer.

    Stab(s(p)) = s Stab(p) s^-1 gives F(s(p)) = s(F(p)), so one stabilizer
    per fixer orbit suffices; stabilizers are equal exactly when their
    fixed-point sets are.
    """
    if not a.is_transitive():
        raise ValueError("stabilizer classes require a transitive group")
    fx = fixer(a, b)
    n = a.degree
    fixed: dict[int, frozenset[int]] = {}
    for r in range(n):
        if r in fixed:
            continue
        gens = point_stabilizer(fx, r).generators
        fixed[r] = frozenset(v for v in range(n) if all(g[v] == v for g in gens))
        queue = [r]
        while queue:
            p = queue.pop()
            for s in fx.generators:
                if s[p] not in fixed:
                    fixed[s[p]] = frozenset(s[v] for v in fixed[p])
                    queue.append(s[p])
    members: dict[frozenset[int], list[int]] = {}
    for p in range(n):
        members.setdefault(fixed[p], []).append(p)
    system = BlockSystem.from_blocks(n, list(members.values()))
    for g in a.generators:
        if _block_image(g, system) is None:
            raise AssertionError("stabilizer classes not preserved by the group")
    return system, [fixed[p] for p in range(n)]


def stabilizer_classes(a: PermGroup, b: BlockSystem) -> BlockSystem:
    """Partition of the points by equality of stabilizers in fixer(a, b).

    Built from one stabilizer per fixer orbit, carried along the orbit by
    conjugation.  The classes always form an invariant partition of a
    transitive group; this is asserted on every generator before returning.
    """
    system, _ = _stabilizer_classes(a, b)
    return system


@dataclass(frozen=True)
class StrippedGraph:
    """What remains after deleting all edges inside blocks."""

    degree: int
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    components: tuple[tuple[int, ...], ...]


def strip_block_edges(graph: ColoredCayleyGraph, b: BlockSystem) -> StrippedGraph:
    if b.degree != graph.n:
        raise ValueError("degree mismatch")
    # Arc (u, u·s) has the color of s, which the identity's row holds.
    row_e = graph.color_matrix[graph.group.identity]
    arcs = [(s, int(row_e[s]) - 1) for s in graph.connection.sorted_members()]
    adjacency = tuple(
        tuple((row[s], c) for s, c in arcs if b.block_of[row[s]] != b.block_of[u])
        for u, row in enumerate(graph.group.mult)
    )
    seen = [False] * graph.n
    components: list[tuple[int, ...]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for v, _ in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        components.append(tuple(sorted(comp)))
    return StrippedGraph(graph.n, adjacency, tuple(components))


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of one factorization attempt over a block system."""

    success: bool
    block_system: BlockSystem
    stab_classes: BlockSystem
    factor1: ColoredCayleyGraph | None
    factor2: ColoredCayleyGraph | None
    g1: tuple[int, ...]
    g2: tuple[int, ...]
    iso: Perm | None
    failing_pair: tuple[int, int] | None
    phrasings_agree: bool

    def to_json(self) -> dict:
        out: dict = {
            "success": self.success,
            "block_count": self.block_system.block_count,
            "class_count": self.stab_classes.block_count,
            "phrasings_agree": self.phrasings_agree,
        }
        if self.success:
            assert self.factor1 is not None and self.factor2 is not None
            out["factor1_connection"] = list(self.factor1.connection.labels())
            out["factor2_connection"] = list(self.factor2.connection.labels())
            out["g1"] = list(self.g1)
            out["g2"] = list(self.g2)
            out["iso_images"] = list(self.iso or ())
        else:
            out["failing_pair"] = list(self.failing_pair or ())
        return out


def _intersection_condition(
    e: BlockSystem, b: BlockSystem
) -> tuple[int, int] | None:
    """The first (class, block) pair meeting other than once, or None."""
    for i, cls in enumerate(e.blocks):
        counts = [0] * b.block_count
        for p in cls:
            counts[b.block_of[p]] += 1
        for j, c in enumerate(counts):
            if c != 1:
                return i, j
    return None


def _fixed_points_condition(b: BlockSystem, fixed: list[frozenset[int]]) -> bool:
    """Alternative phrasing: each point's stabilizer in the fixer leaves
    exactly one point of every block unmoved."""
    return all(
        sum(1 for v in blk if v in f) == 1 for f in fixed for blk in b.blocks
    )


def cartesian_decompose(
    graph: ColoredCayleyGraph, a: PermGroup, b: BlockSystem
) -> DecompositionResult:
    """Try to split the graph as a color-respecting Cartesian product.

    The group a must contain all left translations, consist of
    color-preserving maps, and leave b invariant; the group order must be
    odd.  Success requires every stabilizer class to meet every block
    exactly once; the factors and the vertex isomorphism onto their
    product are then built and re-verified.
    """
    group = graph.group
    n = graph.n
    if graph.digraph_mode:
        raise ValueError("decomposition applies to graph mode only")
    if n % 2 == 0:
        raise ValueError("decomposition requires odd group order")
    if not is_connected(graph):
        raise ValueError("decomposition requires a connected graph")
    if a.degree != n or b.degree != n:
        raise ValueError("degree mismatch")
    for g in minimal_generating_set(group):
        if not a.contains(left_translation(group, g)):
            raise ValueError("group must contain every left translation")
    for g in a.generators:
        if not preserves_matrix(graph.color_matrix, g):
            raise ValueError("group contains a non color-preserving permutation")

    e, fixed = _stabilizer_classes(a, b)
    failing = _intersection_condition(e, b)
    condition2 = _fixed_points_condition(b, fixed)
    phrasings_agree = (failing is None) == condition2
    if failing is not None:
        return DecompositionResult(
            success=False,
            block_system=b,
            stab_classes=e,
            factor1=None,
            factor2=None,
            g1=(),
            g2=(),
            iso=None,
            failing_pair=failing,
            phrasings_agree=phrasings_agree,
        )

    b0 = set(b.blocks[b.block_of[group.identity]])
    members = graph.connection.members
    s2 = sorted(members & b0)
    s1 = sorted(members - b0)
    g1 = subgroup_generated(group, s1)
    g2 = subgroup_generated(group, s2)
    mult = group.mult
    for x in s1:
        for y in s2:
            if mult[x][y] != mult[y][x]:
                raise AssertionError("split connection halves do not commute")
    if g1 & g2 != {group.identity}:
        raise AssertionError("factor subgroups intersect nontrivially")
    if len(g1) * len(g2) != n:
        raise AssertionError("factor subgroup orders do not multiply to |G|")
    if g2 != b0:
        raise AssertionError("identity block is not the second factor subgroup")
    e0 = set(e.blocks[e.block_of[group.identity]])
    if g1 != e0:
        raise AssertionError("identity class is not the first factor subgroup")

    elems1 = sorted(g1)
    elems2 = sorted(g2)
    split: dict[int, tuple[int, int]] = {}
    for i, x in enumerate(elems1):
        for j, y in enumerate(elems2):
            g = mult[x][y]
            if g in split:
                raise AssertionError("factor products are not unique")
            split[g] = (i, j)
    table1, order1 = subgroup_table(group, g1)
    table2, order2 = subgroup_table(group, g2)
    if tuple(order1) != tuple(elems1) or tuple(order2) != tuple(elems2):
        raise AssertionError("subgroup tables disagree on element order")
    factor1 = build_cayley(table1, {elems1.index(s) for s in s1})
    factor2 = build_cayley(table2, {elems2.index(s) for s in s2})
    product = cartesian_product(factor1, factor2)
    iso = tuple(
        split[g][0] * len(elems2) + split[g][1] for g in range(n)
    )
    if color_bijection_between(graph.color_matrix, product.color_matrix, iso) is None:
        raise AssertionError("factor product is not color-isomorphic to the input")
    return DecompositionResult(
        success=True,
        block_system=b,
        stab_classes=e,
        factor1=factor1,
        factor2=factor2,
        g1=tuple(elems1),
        g2=tuple(elems2),
        iso=iso,
        failing_pair=None,
        phrasings_agree=phrasings_agree,
    )


def _is_square_free(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _candidate_systems(ao: PermGroup) -> list[BlockSystem]:
    """The nontrivial block systems of ao by ``block_of``, then the singletons.

    A trivial partition gives factor orders 1 and n, so it yields an
    order-21 factor only when n = 21, where no nontrivial system can; last,
    it spares a product a whole n-vertex decomposition before its fibers.
    The singletons always decompose (trivial fixer) into the one-block
    partition's orders mirrored, so that one is left out.  Fixer orbits are
    already listed: a fixer is normal in the transitive ao, so its orbits
    form a block system (Dixon & Mortimer, *Permutation Groups*, 1996, ch. 1).
    """
    systems = [b for b in all_block_systems(ao) if not b.is_trivial()]
    return systems + [singleton_partition(ao.degree)]


def product_structure_verdict(
    graph: ColoredCayleyGraph,
) -> tuple[ColoredCayleyGraph, ColoredCayleyGraph] | None:
    """Factor a connected negative-verdict graph of odd square-free order.

    Searches candidate invariant partitions of the color group for a
    successful factorization having an order-21 factor isomorphic, colors
    respected, to the canonical order-21 negative instance.  The returned
    pair puts that factor second.  None when no candidate works.
    """
    group = graph.group
    if group.order % 2 == 0 or not _is_square_free(group.order):
        raise ValueError("verdict requires odd square-free group order")
    verdict, ao = cca_verdict_with_group(graph)
    if verdict.is_cca:
        raise ValueError("verdict requires a graph with a negative verdict")
    return _factor_product(graph, ao)


def _factor_product(
    graph: ColoredCayleyGraph, ao: PermGroup
) -> tuple[ColoredCayleyGraph, ColoredCayleyGraph] | None:
    """The candidate-system search of product_structure_verdict, given the
    graph's color group ao."""
    canon = f21_noncca_graph()
    for system in _candidate_systems(ao):
        result = cartesian_decompose(graph, ao, system)
        if not result.success:
            continue
        f1, f2 = result.factor1, result.factor2
        assert f1 is not None and f2 is not None
        for other, f in ((f1, f2), (f2, f1)):
            if f.n == 21 and are_isomorphic(f, canon, respect_colors=True):
                return other, f
    return None


def _embed_product_perm(
    p: Perm, n1: int, n2: int, left: bool
) -> Perm:
    if left:
        return tuple(p[u] * n2 + v for u in range(n1) for v in range(n2))
    return tuple(u * n2 + p[v] for u in range(n1) for v in range(n2))


def aut_product_check(
    g1: ColoredCayleyGraph, g2: ColoredCayleyGraph
) -> bool:
    """Whether automorphisms of the product factor through the parts.

    Checks, for coprime vertex counts, that the product's automorphism
    group has order |Aut1|·|Aut2| and contains both embedded factor
    groups, and the same for the color-preserving groups.
    """
    n1, n2 = g1.n, g2.n
    if n1 * n2 > _AUT_PRODUCT_MAX:
        raise ValueError(f"product size capped at {_AUT_PRODUCT_MAX}")
    if gcd(n1, n2) != 1:
        raise ValueError("factor orders must be coprime")
    product = cartesian_product(g1, g2)
    for colored in (False, True):
        if colored:
            whole = color_preserving_group(product)
            part1 = color_preserving_group(g1)
            part2 = color_preserving_group(g2)
        else:
            whole = uncolored_aut_group(product)
            part1 = uncolored_aut_group(g1)
            part2 = uncolored_aut_group(g2)
        if whole.order() != part1.order() * part2.order():
            return False
        for p in part1.generators:
            if not whole.contains(_embed_product_perm(p, n1, n2, left=True)):
                return False
        for p in part2.generators:
            if not whole.contains(_embed_product_perm(p, n1, n2, left=False)):
                return False
    return True
