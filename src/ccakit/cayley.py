"""Cayley graphs with the natural edge coloring by inverse pairs.

Vertices are group element indices.  In graph mode the connection set must
be inverse-closed and the edge between g and gs gets the color of the pair
{s, s^-1}; the color id is the smaller of the two element indices.  In
digraph mode the arc (g, gs) is colored by s itself, so s and s^-1 receive
different colors.

An inverse-closed set is a mask over the inverse pairs, and Aut(G) acts on
masks through its action on pairs.  That action is applied to whole int32
arrays of masks, by two table lookups per mask: one for the low half of its
bits and one for the high half.  Orbits on all 2^p masks are found by
labelling every mask with the least mask of its orbit, a chunk of masks at
a time, so the one array over all masks is the labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import (
    GroupTable,
    _element_set,
    direct_product,
    group_automorphisms,
    make_f21,
    parse_elements,
    quotient as group_quotient,
    subgroup_generated,
)

__all__ = [
    "ConnectionSet",
    "ColoredCayleyGraph",
    "inverse_pairs",
    "build_cayley",
    "quotient_graph",
    "cartesian_product",
    "connection_set_orbits",
    "count_orbits_burnside",
    "f21_noncca_connection_set",
    "f21_noncca_graph",
]

_MAX_PAIRS_FOR_ENUMERATION = 24


@dataclass(frozen=True)
class ConnectionSet:
    """A set of non-identity elements used to build a Cayley graph."""

    group: GroupTable
    members: frozenset[int]

    def __post_init__(self) -> None:
        _element_set(self.group, self.members)
        if self.group.identity in self.members:
            raise ValueError("connection set may not contain the identity")

    def is_inverse_closed(self) -> bool:
        return all(self.group.inv[s] in self.members for s in self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.group.labels[s] for s in self.sorted_members())

    def generates_group(self) -> bool:
        """Whether Cay(G, S) is connected: S must generate the group."""
        return len(subgroup_generated(self.group, self.members)) == self.group.order


def inverse_pairs(group: GroupTable) -> list[tuple[int, ...]]:
    """The pairs {s, s^-1} over non-identity elements, sorted by representative."""
    out: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for s in range(group.order):
        if s == group.identity or s in seen:
            continue
        t = group.inv[s]
        seen.update({s, t})
        out.append((s,) if s == t else (s, t))
    return sorted(out)


@dataclass(frozen=True, eq=False)
class ColoredCayleyGraph:
    """A Cayley graph as its color matrix: n x n, 0 for non-adjacent,
    otherwise 1 + color id; read-only."""

    group: GroupTable
    connection: ConnectionSet
    digraph_mode: bool
    color_matrix: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def valency(self) -> int:
        return len(self.connection.members)

    @cached_property
    def uncolored_matrix(self) -> np.ndarray:
        m = (self.color_matrix != 0).astype(np.int64)
        m.setflags(write=False)
        return m

    def __repr__(self) -> str:
        kind = "digraph" if self.digraph_mode else "graph"
        return (
            f"ColoredCayleyGraph({self.group.name}, {kind}, "
            f"S={list(self.connection.labels())})"
        )


def build_cayley(
    group: GroupTable,
    connection: ConnectionSet | Iterable[int] | str,
    digraph_mode: bool = False,
) -> ColoredCayleyGraph:
    """Build the colored Cayley graph of a connection set.

    Graph mode requires an inverse-closed set; digraph mode accepts any set
    of non-identity elements and colors arc (g, gs) by s.
    """
    if isinstance(connection, str):
        connection = parse_elements(group, connection)
    if not isinstance(connection, ConnectionSet):
        connection = ConnectionSet(group, frozenset(connection))
    if connection.group is not group and connection.group.mult != group.mult:
        raise ValueError("connection set belongs to a different group")
    if not digraph_mode and not connection.is_inverse_closed():
        missing = sorted(
            s for s in connection.members if group.inv[s] not in connection.members
        )
        raise ValueError(
            f"graph mode needs an inverse-closed set; missing inverses of "
            f"{[group.labels[s] for s in missing]}"
        )
    members = connection.sorted_members()
    colors = [s if digraph_mode else min(s, group.inv[s]) for s in members]
    n = group.order
    matrix = np.zeros((n, n), dtype=np.int64)
    matrix[np.arange(n)[:, None], group.mult_array[:, list(members)]] = np.add(colors, 1)
    matrix.setflags(write=False)
    return ColoredCayleyGraph(group, connection, digraph_mode, matrix)


def quotient_graph(
    graph: ColoredCayleyGraph, members: Iterable[int]
) -> tuple[ColoredCayleyGraph, tuple[int, ...]]:
    """The Cayley graph of G/N on the image of S, dropping loops.

    Returns the quotient graph and the coset map; vertex i of the quotient
    is coset i of the quotient table.
    """
    qtable, coset_map = group_quotient(graph.group, members)
    image = {coset_map[s] for s in graph.connection.members}
    image.discard(qtable.identity)
    q = build_cayley(qtable, image, digraph_mode=graph.digraph_mode)
    return q, coset_map


def cartesian_product(
    g1: ColoredCayleyGraph, g2: ColoredCayleyGraph
) -> ColoredCayleyGraph:
    """Cartesian product as the Cayley graph of the direct product group.

    The connection set is the union of both sets embedded in the product, so
    factor colors stay disjoint.
    """
    if g1.digraph_mode or g2.digraph_mode:
        raise ValueError("cartesian product is defined for graph mode")
    prod = direct_product(g1.group, g2.group)
    m, e1, e2 = g2.group.order, g1.group.identity, g2.group.identity
    members = {s * m + e2 for s in g1.connection.members}
    members |= {e1 * m + t for t in g2.connection.members}
    return build_cayley(prod, members)


def _enumerable_pairs(group: GroupTable) -> list[tuple[int, ...]]:
    pairs = inverse_pairs(group)
    if len(pairs) > _MAX_PAIRS_FOR_ENUMERATION:
        raise ValueError(f"too many inverse pairs ({len(pairs)}) to enumerate")
    return pairs


def _check_mask(pairs: Sequence[tuple[int, ...]], mask: int) -> None:
    if not 0 <= mask < 1 << len(pairs):
        raise ValueError(f"mask {mask} out of range for {len(pairs)} inverse pairs")


def _pair_perm_from_automorphism(
    group: GroupTable, pairs: Sequence[tuple[int, ...]], auto: Sequence[int]
) -> tuple[int, ...]:
    index = {p[0]: i for i, p in enumerate(pairs)}
    image = []
    for p in pairs:
        s = auto[p[0]]
        rep = min(s, group.inv[s])
        image.append(index[rep])
    return tuple(image)


def _pair_luts(perm: Sequence[int]) -> np.ndarray:
    """Lookup tables of a pair action: row 0 maps the low half of a mask's
    bits to the bits of their image, row 1 the high half."""
    half = (len(perm) + 1) // 2
    bits = np.arange(1 << half)[:, np.newaxis] >> np.arange(half) & 1
    weights = np.left_shift(1, perm, dtype=np.int64)
    low = bits @ weights[:half]
    high = bits[:, : len(perm) - half] @ weights[half:]
    return np.array([low, high], dtype=np.int32)


def _images(masks: np.ndarray, luts: np.ndarray) -> np.ndarray:
    """The images of an int32 array of masks under one pair action, one
    table lookup per half."""
    width = luts.shape[1]
    out = luts[0].take(masks & width - 1)
    out |= luts[1].take(masks >> width.bit_length() - 1)
    return out


def _generator_perms(
    group: GroupTable, pairs: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The pair actions of the generators of Aut(G)."""
    return [
        _pair_perm_from_automorphism(group, pairs, a)
        for a in group_automorphisms(group).generators
    ]


_CHUNK = 1 << 16
"""Masks per chunk of the whole-array passes, which bounds their
temporaries; the one array over all masks is the labels."""


def _chunks(size: int) -> Iterator[np.ndarray]:
    """The masks below size, ascending, as int32 arrays of _CHUNK masks."""
    for lo in range(0, size, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, size), dtype=np.int32)


def _orbits(luts: Sequence[np.ndarray], size: int) -> tuple[np.ndarray, np.ndarray]:
    """The least mask of each orbit on the masks below size, ascending, and
    the size of that orbit.

    Every mask m gets a label, which starts as m and only falls to the
    label of an image of m under a generator or its inverse, or to the
    label of its own label (pointer jumping).  So a label stays in its
    mask's orbit and is at most the mask.  A pass over all masks that
    changes nothing leaves every label at most the labels of its images,
    so labels are constant on orbits, and an orbit's least mask, which no
    label goes below, is its label.  The representatives are the masks
    that are their own label, and an orbit's size is the count of its
    label.
    """
    label = np.arange(size, dtype=np.int32)
    changed = True
    while changed:
        changed = False
        for masks in _chunks(size):
            old = label.take(masks)
            new = old
            for lut in luts:
                new = np.minimum(new, label.take(_images(masks, lut)))
            new = label.take(new)
            if not np.array_equal(new, old):
                label[masks] = new
                changed = True
    reps = np.concatenate([m[label.take(m) == m] for m in _chunks(size)])
    # A representative's label becomes -1 minus its index in reps, which
    # every other mask reaches through its own label.
    label[reps] = -1 - np.arange(len(reps), dtype=np.int32)
    sizes = np.zeros(len(reps), dtype=np.int64)
    for masks in _chunks(size):
        code = label.take(masks)
        hop = code >= 0
        code[hop] = label.take(code[hop])
        sizes += np.bincount(-1 - code, minlength=len(reps))
    return reps, sizes


def connection_set_orbits(
    group: GroupTable, connected_only: bool = False
) -> list[tuple[int, int]]:
    """Orbit representatives of nonempty inverse-closed sets under Aut(G).

    Returns (mask, orbit size) pairs where mask selects inverse pairs; only
    lexicographically least masks are reported, ascending.  The orbits are
    found as whole-array operations over the generators of Aut(G) and
    their inverses, a chunk of masks at a time (_orbits).
    """
    pairs = _enumerable_pairs(group)
    luts = [
        _pair_luts(p)
        for perm in _generator_perms(group, pairs)
        for p in (perm, np.argsort(perm).tolist())
    ]
    reps, sizes = _orbits(luts, 1 << len(pairs))
    return [
        (mask, count)
        for mask, count in zip(reps[1:].tolist(), sizes[1:].tolist())
        if not connected_only or _mask_generates(group, pairs, mask)
    ]


def mask_to_connection_set(
    group: GroupTable, pairs: Sequence[tuple[int, ...]], mask: int
) -> ConnectionSet:
    _check_mask(pairs, mask)
    members: set[int] = set()
    for i, p in enumerate(pairs):
        if mask >> i & 1:
            members.update(p)
    return ConnectionSet(group, frozenset(members))


def connection_set_mask(
    group: GroupTable, pairs: Sequence[tuple[int, ...]], connection: ConnectionSet
) -> int:
    mask = 0
    for i, p in enumerate(pairs):
        if p[0] in connection.members:
            mask |= 1 << i
    if mask_to_connection_set(group, pairs, mask).members != connection.members:
        raise ValueError("connection set is not a union of inverse pairs")
    return mask


def mask_orbit(group: GroupTable, mask: int) -> list[int]:
    """All masks in the Aut(G)-orbit of the given pair mask, ascending.

    The orbit grows by frontiers: the images of the masks found last, under
    every generator, that are not yet in it.  An orbit of a finite group is
    closed under its generators alone, so their inverses are not needed."""
    pairs = _enumerable_pairs(group)
    _check_mask(pairs, mask)
    luts = [_pair_luts(perm) for perm in _generator_perms(group, pairs)]
    orbit = frontier = np.array([mask], dtype=np.int32)
    while len(frontier):
        images = np.concatenate([_images(frontier, lut) for lut in luts])
        frontier = np.setdiff1d(images, orbit)
        orbit = np.union1d(orbit, frontier)
    return orbit.tolist()


def _mask_generates(
    group: GroupTable, pairs: Sequence[tuple[int, ...]], mask: int
) -> bool:
    gens = [p[0] for i, p in enumerate(pairs) if mask >> i & 1]
    return len(subgroup_generated(group, gens)) == group.order


def _cycle_masks(perm: Sequence[int]) -> list[int]:
    """The cycles of a permutation of pair indices, each as a mask."""
    seen = 0
    out: list[int] = []
    for i in range(len(perm)):
        if seen >> i & 1:
            continue
        cycle, j = 0, i
        while not cycle >> j & 1:
            cycle |= 1 << j
            j = perm[j]
        seen |= cycle
        out.append(cycle)
    return out


def _unions(masks: Sequence[int]) -> np.ndarray:
    """All 2^len(masks) unions of the given disjoint masks."""
    out = np.zeros(1, dtype=np.int64)
    for mask in masks:
        out = np.concatenate([out, out | mask])
    return out


def count_orbits_burnside(group: GroupTable, connected_only: bool = False) -> int:
    """Independent orbit count: average number of fixed masks over Aut(G).

    A mask is fixed by an automorphism exactly when it is a union of the
    automorphism's cycles on inverse pairs, so each automorphism counts the
    eligible masks among those unions, at most 2^16 of them at a time.
    """
    pairs = _enumerable_pairs(group)
    eligible = np.ones(1 << len(pairs), dtype=bool)
    eligible[0] = False
    if connected_only:
        for mask in range(1, 1 << len(pairs)):
            eligible[mask] = _mask_generates(group, pairs, mask)
    # All automorphisms, not just distinct pair actions, must be averaged.
    auts = group_automorphisms(group)
    total = 0
    for a in auts.elements(limit=100_000):
        cycles = _cycle_masks(_pair_perm_from_automorphism(group, pairs, a))
        low = _unions(cycles[:16])
        for high in _unions(cycles[16:]).tolist():
            total += int(np.count_nonzero(eligible[low | high]))
    count, rem = divmod(total, auts.order())
    if rem:
        raise AssertionError("orbit count is not an integer")
    return count


def f21_noncca_connection_set(group: GroupTable) -> ConnectionSet:
    """The connection set {a, a^-1, ax, (ax)^-1} on a table built by make_f21."""
    members = parse_elements(group, "a,a^-1,ax,(ax)^-1")
    return ConnectionSet(group, frozenset(members))


def f21_noncca_graph() -> ColoredCayleyGraph:
    """The order-21 connected graph whose color group is not all affine.

    Its table is a fresh make_f21(), not group_from_name's kept one, so no
    value another caller computed per table (G_L's block systems among
    them) is already on it."""
    group = make_f21()
    return build_cayley(group, f21_noncca_connection_set(group))

