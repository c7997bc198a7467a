"""Color automorphism and isomorphism search by individualization-refinement.

Every operation here reduces to one primitive: permutations of 0..n-1 that
preserve an n x n color matrix entrywise (entry 0 meaning non-adjacent).
The pair-color matrix of a graph, the arc-color matrix of a digraph, the
0/1 matrix of an uncolored graph and the orbit matrix of a 2-closure are
all instances.

The search maintains an ordered partition of the vertices as one array
of cell indices, the cells numbered in order.  Each row's nonzero columns
and their colors are kept as n x d arrays, and the columns' too when the
matrix is asymmetric; a symmetric matrix keeps no transpose.  A regular
matrix is a reshape of its nonzero entries, and a shorter row is padded
with its own index and color 0; a Cayley graph's arrays are read off its
identity row instead (see below).  A pass hashes each vertex v to
h(v) = sum of A[color] * B[cell(w)] mod 2^64 over its arcs (v, w), plus
the same sum over its arcs (w, v) with another table for A when there is
a transpose.  A and B are fixed splitmix64 tables, and one lexsort on
(cell, hash) splits every cell, pieces in hash order.  h depends only on
colors and cell indices, so refinement is invariant under relabeling
the vertices.  A collision of two hashes only leaves a cell coarser: the
search then runs longer, and the leaf check stays exact.  The branching
rule individualizes the first smallest non-singleton cell and tries
images in ascending vertex order.

When colors may be relabeled, the colors form a second ordered
partition, also an array of cell indices, refined beside the vertices: an
arc weighs the word of its color's cell instead of its color's, and a
color hashes to the sum, over its arcs (u, v), of the words of cell(u)
and cell(v) multiplied.  Both partitions split until neither changes.
Exact colors are the discrete case: no color is refined.  At a leaf, each
color maps to the color its first arc lands on, and the vertex map must
carry the recolored first matrix onto the second.

One routine, _refine, does all refinement, one pair of partitions at a
time.  It records a trace: per pass, the bytes of the vertex hashes, then
the color hashes, in their new order.  Two aligned partitions with equal
traces split alike, and when the hashes do not collide they refine alike
exactly when their traces are equal (McKay and Piperno, "Practical graph
isomorphism, II", 2014).  A pass is compared with the expected one before
its new cells are made, and refinement stops, with no confirming pass, once
every vertex cell is a singleton.  The fixed side only ever individualizes
the first vertex of its target cell, so its nodes form one first path,
refined once per search and shared by every branch; each candidate image
on the other side is refined against the trace of the path's next node,
stopping at the first pass that differs.

Isomorphism of two Cayley graphs branches once at the root.  A graph made by
build_cayley has the left translations of its group among its automorphisms,
colored or not, so an isomorphism followed by a translation maps vertex 0 to
vertex 0: the search starts from the partition {0}, {1..n-1} on both sides
and is complete below it.  The trace of that root refinement is a graph
invariant, so two graphs whose root traces differ are told apart without
a search.  Each graph keeps its prepared matrix and refined root per
color mode, and its automorphism searches start from the same root.
matrix_isomorphism, whose matrices need not be vertex-transitive, tries
every root image.

The automorphism group is perms.proved_orbits over the first path's
target cells: the first vertex of each is a base point, the others its
candidate images, each searched for below the path's node, so the levels
and all their searches share one path.  A Cayley graph's matrix must be
invariant under the left translations G_L, which one comparison with its
identity row checks, and that row then gives every vertex's arcs.  G_L is
transitive, so the group is G_L times the stabilizer of vertex 0
(orbit-stabilizer).  Only the stabilizer is searched, from {0}, {1..n-1}
with no seeds: a translation fixes no vertex, so it prunes no level.  The
chain's top level is G_L's at vertex 0, read off the group table once per
table, and Schreier-Sims runs only on the found generators.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import count, permutations as iter_permutations
from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .cayley import ColoredCayleyGraph
from .groups import GroupTable, left_regular_group
from .perms import Perm, PermGroup, _check_chain_order, permgroup_from_elements, proved_orbits

__all__ = [
    "color_preserving_group",
    "uncolored_aut_group",
    "brute_force_color_perms",
    "brute_force_color_group",
    "are_isomorphic",
    "two_closure",
    "matrix_aut_group",
    "matrix_isomorphism",
    "pair_orbit_matrix",
    "preserves_matrix",
    "color_bijection_between",
]

_BRUTE_FORCE_MAX = 10
_TWO_CLOSURE_MAX_DEGREE = 150

# Salts of the hash tables: arc colors out and in, vertex cells, and the
# tail and head cells of a color's arcs.
_OUT, _IN, _CELL, _TAIL, _HEAD = range(5)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)

Trace = list[bytes]
Node = tuple[np.ndarray, np.ndarray | None, Trace]


def _hash_table(size: int, salt: int) -> np.ndarray:
    """At least size fixed pseudo-random 64-bit words; entry i is the same
    for every size.  Kept per power of two, so that few tables are kept."""
    return _splitmix64_table(max(64, 1 << (size - 1).bit_length()), salt)


@lru_cache(maxsize=32)
def _splitmix64_table(size: int, salt: int) -> np.ndarray:
    z = (np.arange(1, size + 1, dtype=np.uint64) + np.uint64(salt << 40)) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    table = z ^ (z >> np.uint64(31))
    table.flags.writeable = False
    return table


class _Struct:
    """A matrix prepared for refinement.

    m is the matrix the leaf check reads, its colors ranked 1..k with
    relabel.  sides holds (neighbours, colors, weights, salt) of the rows,
    and of the columns when the matrix is asymmetric: n x d arrays of each
    row's nonzero columns and their colors, a row with fewer than d padded
    with its own index and color 0.  weights are the fixed colors' hash
    words, None with relabel.  With relabel, arcs holds every arc's tail and
    head ordered by color, and where each color's arcs start.  Given a
    group table, the sides are read off the identity row instead
    (_translation_sides), and colors and weights are one row of d that
    every vertex shares.
    """

    __slots__ = ("m", "n", "k", "relabel", "sides", "arcs")

    def __init__(
        self, matrix: np.ndarray, relabel: bool, group: GroupTable | None = None
    ) -> None:
        m = np.ascontiguousarray(matrix, dtype=np.int64)
        self.n, self.relabel, self.arcs = m.shape[0], relabel, None
        if relabel:
            values = np.unique(m[m != 0])
            m = np.where(m != 0, np.searchsorted(values, m) + 1, 0)
        if group is not None:
            rows = _translation_sides(m, group)
        else:
            rows = [_scan(m)] if np.array_equal(m, m.T) else [_scan(m), _scan(m.T)]
        self.m, self.k = m, int(rows[0][1].max(initial=0))
        self.sides = [self._side(*side, salt) for side, salt in zip(rows, (_OUT, _IN))]
        if relabel and self.k:
            tails, heads = np.nonzero(m)
            colors = m[tails, heads]
            order = np.argsort(colors, kind="stable")
            starts = np.searchsorted(colors[order], np.arange(1, self.k + 1))
            self.arcs = (tails[order], heads[order], starts)

    def _side(self, nbrs: np.ndarray, cols: np.ndarray, salt: int) -> tuple:
        weights = None
        if not self.relabel:
            top = int(cols.max(initial=0))
            if top > self.n or int(cols.min(initial=0)) < 0:
                # Ranks, so that no table grows with the values.
                cols = np.unique(cols, return_inverse=True)[1].reshape(cols.shape)
                top = int(cols.max(initial=0))
            weights = _hash_table(top + 1, salt)[cols]
        return nbrs, cols, weights, salt


def _scan(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzero columns and their colors as n x d arrays, d the
    largest degree, a shorter row padded with its own index and color 0."""
    n = m.shape[0]
    tails, heads = np.nonzero(m)
    colors = m[tails, heads]
    degrees = np.bincount(tails, minlength=n)
    d = int(degrees.max(initial=0))
    if len(tails) == n * d:  # every row has the largest degree
        return heads.reshape(n, d), colors.reshape(n, d)
    nbrs = np.repeat(np.arange(n), d).reshape(n, d)
    cols = np.zeros((n, d), dtype=np.int64)
    slots = np.arange(len(tails)) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    nbrs[tails, slots], cols[tails, slots] = heads, colors
    return nbrs, cols


def _translation_sides(m: np.ndarray, group: GroupTable) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sides of a matrix invariant under the left translations, read
    off its identity row e, or ValueError if it is not invariant.  Then
    m[u, v] = m[e, u^-1 v]: with S the columns of e's row, vertex u has
    arcs to u·s and from u·s^-1, colored m[e, s].  The columns are a side
    of their own only when m[e, S^-1] differs from m[e, S].  A row lists
    its arcs in the order of S, which leaves every hash sum as _scan's."""
    e, mult, inv = group.identity, group.mult_array, np.asarray(group.inv)
    row = m[e]
    if m.shape != mult.shape or not np.array_equal(m, row[mult[inv]]):
        raise ValueError("the matrix is not invariant under the left translations")
    s = np.flatnonzero(row)
    cols = row[s]
    sides = [(mult[:, s], cols)]
    if not np.array_equal(row[inv[s]], cols):
        sides.append((mult[:, inv[s]], cols))
    return sides


def _split(ids: np.ndarray, order: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, int]:
    """Each cell split by the hashes of its members, pieces in hash order,
    given the members ordered by (cell, hash) and their hashes in that
    order: the new cell of each member, and the number of cells."""
    cells = ids[order]
    # Each piece after the first starts where the cell or the hash changes.
    starts = np.zeros(len(ids), dtype=np.intp)
    np.not_equal(cells[1:], cells[:-1], out=starts[1:], casting="unsafe")
    starts[1:] |= hashes[1:] != hashes[:-1]
    pieces = starts.cumsum()
    new = np.empty_like(pieces)
    new[order] = pieces
    return new, int(pieces[-1]) + 1


def _refine(
    struct: _Struct,
    ids: np.ndarray,
    colors: np.ndarray | None = None,
    expect: Trace | None = None,
) -> Node | None:
    """Split vertex and color cells until neither splits or the vertex
    cells are singletons, recording the trace.

    ids gives each vertex's cell, the cells numbered in order.  colors is
    None when colors are fixed: each arc weighs its color's hash word.
    Otherwise it gives the cell of each ranked color of a relabeled struct,
    and an arc weighs its color cell's word.  A vertex hashes to the sum,
    over its arcs out and, with a transpose, in, of weight times the hash
    word of the neighbour's cell; a color to the sum, over its arcs (u, v),
    of the product of the words of cell(u) and cell(v).  The trace has one
    entry per pass, the bytes of the hashes in their new order, vertices
    then colors; it is compared with expect before the new cells are made.
    Returns (ids, colors, trace), or None at the first pass that differs
    from expect.
    """
    n = struct.n
    ncells = int(ids.max(initial=-1)) + 1
    trace: Trace = []
    words = _hash_table(n, _CELL)
    while ncells < n:
        cell_words = words[ids]
        if colors is not None:
            lut = np.concatenate(([0], colors + 1))
        h = None
        for nbrs, cols, weights, salt in struct.sides:
            if colors is not None:
                weights = _hash_table(struct.k + 1, salt)[lut[cols]]
            part = (weights * cell_words[nbrs]).sum(axis=1, dtype=np.uint64)
            h = part if h is None else h + part
        order = np.lexsort((h, ids))
        hashes = h[order]
        entry = hashes.tobytes()
        if struct.arcs is not None:
            tails, heads, starts = struct.arcs
            pair = _hash_table(n, _TAIL)[ids[tails]] * _hash_table(n, _HEAD)[ids[heads]]
            hc = np.add.reduceat(pair, starts)
            color_order = np.lexsort((hc, colors))
            color_hashes = hc[color_order]
            entry += color_hashes.tobytes()
        # A pass equal to expect's last one ends here too.
        if expect is not None and entry != expect[len(trace)]:
            return None
        trace.append(entry)
        new, count = _split(ids, order, hashes)
        split = count > ncells
        if struct.arcs is not None:
            new_colors, color_count = _split(colors, color_order, color_hashes)
            if color_count > colors.max() + 1:
                split, colors = True, new_colors
        if not split:
            break
        ids, ncells = new, count
    return ids, colors, trace


def _target_cell(ids: np.ndarray) -> int | None:
    """Index of the first smallest non-singleton cell, or None if discrete."""
    sizes = np.bincount(ids)
    if len(sizes) == len(ids):
        return None
    sizes[sizes == 1] = len(ids) + 1
    return int(sizes.argmin())


def _individualize(ids: np.ndarray, t: int, v: int) -> np.ndarray:
    """v alone in cell t, the rest of cell t next, the later cells moved up."""
    ids = ids + (ids >= t)
    ids[v] = t
    return ids


class _FirstPath:
    """The fixed side's path of a search, refined once per search.

    Node 0 is a refined start; node d+1 individualizes the first vertex of
    node d's target cell and refines, and is computed when first read.
    Each node is what _refine returns, (ids, colors, trace), and targets[d]
    is node d's target cell.
    """

    def __init__(self, struct: _Struct, start: Node) -> None:
        self.struct = struct
        self.nodes = [start]
        self.targets = [_target_cell(start[0])]

    def node(self, depth: int) -> Node:
        while len(self.nodes) <= depth:
            ids, colors, _ = self.nodes[-1]
            t = self.targets[-1]
            v = int(np.flatnonzero(ids == t)[0])
            self.nodes.append(_refine(self.struct, _individualize(ids, t, v), colors))
            self.targets.append(_target_cell(self.nodes[-1][0]))
        return self.nodes[depth]


def _leaf_map(s1: _Struct, s2: _Struct, ids1: np.ndarray, ids2: np.ndarray) -> Perm | None:
    """The map of aligned singleton cells if it carries s1's matrix onto
    s2's.  With relabel, each color of s1 maps to the color its first arc
    lands on; the matrices are then equal only if that is a bijection,
    since the image shows all k colors of s2."""
    n = s1.n
    where2 = np.empty(n, dtype=np.intp)
    where2[ids2] = np.arange(n)
    p = where2[ids1]
    m1 = s1.m
    if s1.arcs is not None:
        tails, heads, starts = s1.arcs
        lut = np.zeros(s1.k + 1, dtype=np.int64)
        lut[1:] = s2.m[p[tails[starts]], p[heads[starts]]]
        m1 = lut[m1]
    return tuple(p.tolist()) if np.array_equal(s2.m[np.ix_(p, p)], m1) else None


def _search_pair(
    path: _FirstPath,
    s2: _Struct,
    depth: int,
    ids2: np.ndarray,
    colors2: np.ndarray | None,
) -> Perm | None:
    """A map carrying the path's struct onto s2 below node depth of the path
    and a refined partition of s2 with the same trace.

    Each candidate image on the other side is refined against the trace of
    the path's next node; at a leaf, _leaf_map decides.
    """
    ids1 = path.node(depth)[0]
    t = path.targets[depth]
    if t is None:
        return _leaf_map(path.struct, s2, ids1, ids2)
    trace = path.node(depth + 1)[2]
    for w in np.flatnonzero(ids2 == t).tolist():
        child2 = _refine(s2, _individualize(ids2, t, w), colors2, trace)
        if child2 is not None:
            found = _search_pair(path, s2, depth + 1, child2[0], child2[1])
            if found is not None:
                return found
    return None


def preserves_matrix(matrix: np.ndarray, perm: Sequence[int]) -> bool:
    """Whether matrix[p(u), p(v)] == matrix[u, v] for all u, v."""
    p = np.asarray(perm, dtype=np.intp)
    return bool(np.array_equal(matrix[np.ix_(p, p)], matrix))


def color_bijection_between(
    m1: np.ndarray, m2: np.ndarray, perm: Sequence[int]
) -> dict[int, int] | None:
    """The color relabeling under which perm carries m1 onto m2, if any.

    Non-edges (0) must map to non-edges; every other color must map to
    exactly one color, injectively.  Returns the color map or None.
    """
    p = np.asarray(perm, dtype=np.intp)
    a = np.asarray(m1, dtype=np.int64).ravel()
    b = np.asarray(m2, dtype=np.int64)[np.ix_(p, p)].ravel()
    if np.any((a == 0) != (b == 0)):
        return None
    # Each pair (x, y) as one code x * k + y, shifted so that no entry is
    # negative; the sorted codes list the distinct pairs in (x, y) order.
    low = int(min(a.min(), b.min()))
    k = int(b.max()) - low + 1
    xs, ys = np.divmod(np.unique((a - low) * k + (b - low)), k)
    if np.any(xs[1:] == xs[:-1]) or len(np.unique(ys)) != len(ys):
        return None
    return {int(x) + low: int(y) + low for x, y in zip(xs, ys) if int(x) + low != 0}


def _image_search(path: _FirstPath, depth: int, w: int) -> Perm | None:
    """An automorphism of the path's struct that maps the first vertex of
    node depth's target cell to w and fixes node depth's other
    individualized vertices, or None."""
    ids, t = path.node(depth)[0], path.targets[depth]
    other = _refine(path.struct, _individualize(ids, t, w), None, path.node(depth + 1)[2])
    if other is None:
        return None
    return _search_pair(path, path.struct, depth + 1, other[0], None)


def _search_levels(path: _FirstPath, known: Sequence[Perm] = ()) -> tuple[list[Perm], list[int]]:
    """The generators found and the orbit lengths proved by a search along
    the path, the known elements of the group pruning the orbits
    (perms.proved_orbits)."""

    def levels():
        for depth in count():
            ids, t = path.node(depth)[0], path.targets[depth]
            if t is None:
                return
            base, *candidates = np.flatnonzero(ids == t).tolist()
            yield base, candidates, partial(_image_search, path, depth)

    return proved_orbits(known, levels())


def matrix_aut_group(matrix: np.ndarray, seeds: Sequence[Perm] = ()) -> PermGroup:
    """The group of permutations preserving the color matrix entrywise.

    Seeds must already preserve the matrix; they bootstrap orbit pruning.
    A full Schreier-Sims build of the seeds, then the found generators, is
    checked against the orbit lengths perms.proved_orbits proved.
    """
    struct = _Struct(matrix, relabel=False)
    n = struct.n
    seeds = [tuple(seed) for seed in seeds]
    for perm in seeds:
        if len(perm) != n:
            raise ValueError("seed degree mismatch")
        if not preserves_matrix(struct.m, perm):
            raise ValueError("seed does not preserve the matrix")
    path = _FirstPath(struct, _refine(struct, np.zeros(n, np.intp)))
    found, orbit_lengths = _search_levels(path, seeds)
    group = PermGroup(n, seeds + found)
    _check_chain_order(group.order(), orbit_lengths)
    return group


def matrix_isomorphism(
    m1: np.ndarray, m2: np.ndarray, match_colors: str = "exact"
) -> Perm | None:
    """A vertex bijection carrying matrix m1 onto m2, or None.

    match_colors: "exact" keeps color values fixed, "bijection" allows a
    global color relabeling, found by refining the colors as a partition
    beside the vertices.  Every root image is tried, so the search needs no
    symmetry of the matrices.
    """
    if match_colors not in ("exact", "bijection"):
        raise ValueError(f"unknown color matching mode {match_colors!r}")
    if m1.shape != m2.shape:
        return None
    relabel = match_colors == "bijection"
    s1, s2 = _Struct(m1, relabel), _Struct(m2, relabel)
    if relabel and s1.k != s2.k:
        return None
    root = np.zeros(s1.n, np.intp)
    first = _refine_start(s1, root)
    refined = _refine_start(s2, root, first[2])
    if refined is None:
        return None
    return _search_pair(_FirstPath(s1, first), s2, 0, refined[0], refined[1])


def _refine_start(
    struct: _Struct, root: np.ndarray, expect: Trace | None = None
) -> Node | None:
    """_refine from root, the colors of a relabeled struct in one cell."""
    colors = np.zeros(struct.k, np.intp) if struct.relabel else None
    return _refine(struct, root, colors, expect)


# -- public graph operations --------------------------------------------------


def _top_root(n: int) -> np.ndarray:
    """The partition {0}, {1..n-1}."""
    return (np.arange(n) > 0).astype(np.intp)


# Per graph, the struct and refined root of each (colored, relabel) asked for.
_ROOTS: WeakKeyDictionary = WeakKeyDictionary()


def _graph_root(graph: ColoredCayleyGraph, colored: bool, relabel: bool) -> tuple[_Struct, Node]:
    """The struct of the graph's color or uncolored matrix, its sides read
    off the group table, and its refined root {0}, {1..n-1}.  Both are kept
    per graph when its color matrix is read-only, as build_cayley makes
    it, so the automorphism searches and are_isomorphic refine the root
    once.  ValueError if the matrix is not invariant under G_L."""
    kept = not graph.color_matrix.flags.writeable
    roots = _ROOTS.setdefault(graph, {}) if kept else {}
    if (colored, relabel) not in roots:
        matrix = graph.color_matrix if colored else graph.uncolored_matrix
        struct = _Struct(matrix, relabel, graph.group)
        roots[colored, relabel] = struct, _refine_start(struct, _top_root(graph.n))
    return roots[colored, relabel]


def _cayley_aut_group(graph: ColoredCayleyGraph, colored: bool) -> PermGroup:
    """The automorphisms of the graph's color or uncolored matrix, as G_L
    times the stabilizer of vertex 0 (see the module docstring), searched
    from the kept root (_graph_root).  The stabilizer's chain is checked
    against the orbit lengths its search proved, and G_L's chain, one level
    at vertex 0, is put on top."""
    n, gl = graph.n, left_regular_group(graph.group)
    found, orbit_lengths = _search_levels(_FirstPath(*_graph_root(graph, colored, False)))
    below = PermGroup(n, found)
    _check_chain_order(below.order(), orbit_lengths)
    return PermGroup._from_levels(n, gl._levels + below._levels, gl.generators + tuple(found))


def color_preserving_group(graph: ColoredCayleyGraph) -> PermGroup:
    """All automorphisms preserving the color matrix: each inverse pair's
    class setwise in graph mode, each arc color in digraph mode.  The
    chain reads its top level off the group table (_cayley_aut_group)."""
    return _cayley_aut_group(graph, True)


def uncolored_aut_group(graph: ColoredCayleyGraph) -> PermGroup:
    """The full automorphism group, ignoring colors.  The chain reads its
    top level off the group table (_cayley_aut_group)."""
    return _cayley_aut_group(graph, False)


def brute_force_color_perms(graph: ColoredCayleyGraph) -> list[Perm]:
    """Filter all n! permutations by the color-matrix predicate (n <= 10)."""
    n = graph.n
    if n > _BRUTE_FORCE_MAX:
        raise ValueError(f"brute force capped at degree {_BRUTE_FORCE_MAX}")
    m = graph.color_matrix
    perms = np.array(list(iter_permutations(range(n))), dtype=np.int8)
    mask = np.ones(len(perms), dtype=bool)
    for u in range(n):
        for v in range(n):
            mask &= m[perms[:, u], perms[:, v]] == m[u, v]
        if not mask.any():
            break
    return [tuple(int(x) for x in p) for p in perms[mask]]


def brute_force_color_group(graph: ColoredCayleyGraph) -> PermGroup:
    return permgroup_from_elements(graph.n, brute_force_color_perms(graph))


def are_isomorphic(
    g1: ColoredCayleyGraph, g2: ColoredCayleyGraph, respect_colors: bool
) -> Perm | None:
    """A vertex isomorphism between two graphs, or None.

    With respect_colors, colors must match under some global bijection of
    color ids; otherwise only adjacency matters.

    Both sides start from the partition {0}, {1..n-1}.  Graphs made by
    build_cayley, in graph and digraph mode, have the left translations
    x -> hx among the automorphisms of both their color and uncolored
    matrices: the arc (x, xs) goes to (hx, hxs), with the same color.
    So if some isomorphism exists, following it by a translation of g2
    gives one that maps vertex 0 to vertex 0, and the search below that
    root is complete.  The returned map is any isomorphism, not a canonical
    one.

    The trace that refines that root is a graph invariant, so two graphs
    whose root traces differ, compared as bytes, are not isomorphic, and
    otherwise the search runs below the two roots.  Each graph's root is
    kept (_graph_root), shared with uncolored_aut_group in the uncolored
    mode.  A matrix that the translations do not preserve raises
    ValueError, as in the automorphism searches.
    """
    if g1.n != g2.n:
        raise ValueError("vertex counts differ")
    if g1.digraph_mode != g2.digraph_mode:
        raise ValueError("mixed graph and digraph modes")
    s1, root1 = _graph_root(g1, respect_colors, respect_colors)
    s2, root2 = _graph_root(g2, respect_colors, respect_colors)
    if s1.k != s2.k or root1[2] != root2[2]:
        return None
    return _search_pair(_FirstPath(s1, root1), s2, 0, root2[0], root2[1])


def pair_orbit_matrix(group: PermGroup) -> np.ndarray:
    """Orbits of the group on ordered pairs, as a color matrix.

    Orbit ids are assigned in lexicographic order of each orbit's smallest
    pair, so diagonal pairs of a transitive group get color 0.
    """
    n = group.degree
    color = np.full((n, n), -1, dtype=np.int64)
    next_id = 0
    for u in range(n):
        for v in range(n):
            if color[u, v] >= 0:
                continue
            stack = [(u, v)]
            color[u, v] = next_id
            while stack:
                x, y = stack.pop()
                for g in group.generators:
                    gx, gy = g[x], g[y]
                    if color[gx, gy] < 0:
                        color[gx, gy] = next_id
                        stack.append((gx, gy))
            next_id += 1
    return color


def two_closure(group: PermGroup) -> PermGroup:
    """The largest group with the same orbits on ordered pairs.

    Computed as the exact-color automorphism group of the pair-orbit matrix.
    """
    if not group.is_transitive():
        raise ValueError("2-closure computed for transitive groups only")
    if group.degree > _TWO_CLOSURE_MAX_DEGREE:
        raise ValueError(f"degree capped at {_TWO_CLOSURE_MAX_DEGREE}")
    matrix = pair_orbit_matrix(group)
    closed = matrix_aut_group(matrix, seeds=group.generators)
    for g in group.generators:
        if not closed.contains(g):
            raise AssertionError("2-closure lost a generator")
    return closed
