"""Color automorphism and isomorphism search by individualization-refinement.

Every operation here reduces to one primitive: permutations of 0..n-1 that
preserve an n x n color matrix entrywise (entry 0 meaning non-adjacent).
The pair-color matrix of a graph, the arc-color matrix of a digraph, the
0/1 matrix of an uncolored graph and the orbit matrix of a 2-closure are
all instances.

The search maintains an ordered partition of the vertices, refined to an
equitable fixpoint: the invariant of a vertex is the multiset of
(color, count) signatures toward every cell, for in- and out-colors when
the matrix is asymmetric; a symmetric matrix keeps no transpose.  Cells
only split, never merge, and new subcells are ordered by signature value,
so refinement is deterministic.  The branching rule individualizes the
first smallest non-singleton cell and tries images in ascending vertex
order.

When colors may be relabeled, the color ids form a second ordered
partition, refined beside the vertices: a vertex's signature reads the
cell of each color instead of the color, and a color's signature is the
sorted multiset of (cell(u), cell(v)) over its arcs.  Both partitions
split until neither changes.  Exact colors are the discrete case: the
matrix is read as is and no color is refined.  Relabeled colors start as
one cell, and at a leaf the aligned color cells give the color map, so one
leaf test serves both: the vertex map must carry the recolored first
matrix onto the second.

One routine, _refine, does all refinement, one pair of partitions at a
time.  It records a trace: per pass, the signature key of each vertex or
color cell that stays whole and the sorted (key, count) pairs of each cell
that splits.  Two aligned partitions refine alike exactly when their
traces are equal (McKay and Piperno, "Practical graph isomorphism, II",
2014).  The fixed side only ever individualizes the first vertex of its
target cell, so its nodes form one first path, refined once per search
and shared by every branch; each candidate image on the other side is
refined against the trace of the path's next node, stopping at the first
pass that differs.

Isomorphism of two Cayley graphs branches once at the root.  A graph made by
build_cayley has the left translations of its group among its automorphisms,
colored or not, so an isomorphism followed by a translation maps vertex 0 to
vertex 0: the search starts from the partition {0}, {1..n-1} on both sides
and is complete below it.  The trace of that root refinement is a graph
invariant, so each graph keeps a hash of it per color mode, and two graphs
whose hashes differ are told apart without a search.  matrix_isomorphism,
whose matrices need not be vertex-transitive, tries every root image.

The automorphism group is perms.proved_orbits over the first path's
target cells: the first vertex of each is a base point, the others its
candidate images, each searched for below the path's node, so the levels
and all their searches share one path.  On a Cayley graph the seeds are
the left translations, which are transitive, so the group is G_L times
the stabilizer of vertex 0 (orbit-stabilizer): the search starts at
{0}, {1..n-1}, the chain's top level is G_L's, read off the group table,
and Schreier-Sims runs only on the found generators, which all fix 0.
"""

from __future__ import annotations

from functools import partial
from itertools import count, permutations as iter_permutations
from typing import Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .cayley import ColoredCayleyGraph
from .groups import _translation_level, left_regular_group
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

Cells = list[list[int]]
Struct = tuple[np.ndarray, np.ndarray | None, tuple | None]
Trace = list[list]
Node = tuple[Cells, Cells | None, Trace]


def _prep(matrix: np.ndarray, relabel: bool = False) -> Struct:
    """The matrix, its transpose or None when the matrix is symmetric, and
    the arcs.

    With relabel, the colors are ranked 1..k and arcs holds every arc's
    color, tail and head, ordered by color, with the bounds between colors;
    otherwise arcs is None and the colors stay as given.
    """
    m = np.ascontiguousarray(matrix, dtype=np.int64)
    arcs = None
    if relabel:
        values = np.unique(m[m != 0])
        m = np.where(m != 0, np.searchsorted(values, m) + 1, 0)
        tails, heads = np.nonzero(m)
        order = np.argsort(m[tails, heads], kind="stable")
        tails, heads = tails[order], heads[order]
        colors = m[tails, heads]
        arcs = (colors, tails, heads, np.cumsum(np.bincount(colors))[1:-1])
    mt = None if np.array_equal(m, m.T) else np.ascontiguousarray(m.T)
    return m, mt, arcs


def _signatures(
    m: np.ndarray, mt: np.ndarray | None, cell_ids: np.ndarray, ncells: int
) -> np.ndarray:
    """Per-vertex row signatures toward the current cells, sortable as bytes:
    out-signatures, then in-signatures when there is a transpose."""
    keys = m * ncells + cell_ids[np.newaxis, :]
    sig = np.sort(keys, axis=1)
    if mt is not None:
        keys_in = mt * ncells + cell_ids[np.newaxis, :]
        sig = np.hstack([sig, np.sort(keys_in, axis=1)])
    return sig


def _cell_ids(cells: Cells, n: int) -> np.ndarray:
    ids = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            ids[v] = i
    return np.array(ids, dtype=np.int64)


def _split(cells: Cells, keys: Sequence[bytes]) -> tuple[Cells, list]:
    """Split each cell by the keys of its members, pieces in key order.

    The trace entry lists, cell by cell, the key of a cell that stays whole
    or the sorted (key, count) pairs of its pieces.
    """
    new_cells: Cells = []
    entry: list = []
    for cell in cells:
        if len(cell) == 1:
            entry.append(keys[cell[0]])
            new_cells.append(cell)
            continue
        groups: dict[bytes, list[int]] = {}
        for x in cell:
            groups.setdefault(keys[x], []).append(x)
        if len(groups) == 1:
            entry.extend(groups)  # its one key
            new_cells.append(cell)
        else:
            ordered = sorted(groups)
            entry.append([(key, len(groups[key])) for key in ordered])
            new_cells.extend(groups[key] for key in ordered)
    return new_cells, entry


def _refine(
    struct: Struct,
    cells: Cells,
    colors: Cells | None = None,
    expect: Trace | None = None,
) -> Node | None:
    """Split vertex and color cells until neither splits, recording the trace.

    colors is None when colors are fixed: the matrix is read as is and no
    color is refined.  Otherwise it partitions the ranked colors of a
    relabeled struct: a vertex's signature reads color-cell ids, and a
    color's signature is the sorted multiset of (cell(u), cell(v)) over its
    arcs.  The trace has one entry per pass, the last one splitting nothing:
    the vertex cells' entries, then the color cells'.  Returns
    (cells, colors, trace), or None at the first pass that differs from
    expect.
    """
    m, mt, arcs = struct
    n = m.shape[0]
    trace: Trace = []
    while True:
        ids = _cell_ids(cells, n)
        ncells = len(cells)
        new_colors, color_entry = None, []
        if colors is None:
            sig = _signatures(m, mt, ids, ncells)
        else:
            lut = _cell_ids(colors, 1 + sum(map(len, colors))) + 1
            lut[0] = 0  # non-adjacent stays apart from every color
            sig = _signatures(lut[m], None if mt is None else lut[mt], ids, ncells)
            arc_colors, tails, heads, bounds = arcs
            square = ncells * ncells
            codes = arc_colors * square + ids[tails] * ncells + ids[heads]
            pieces = np.split(np.sort(codes) % square, bounds)
            color_keys = [b""] + [piece.tobytes() for piece in pieces]
            new_colors, color_entry = _split(colors, color_keys)
        # Each row as one bytes key, converted in a single call.
        rows = sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1])))
        new_cells, entry = _split(cells, rows.ravel().tolist())
        entry += color_entry
        # A pass equal to expect's last one splits nothing and ends here too.
        if expect is not None and entry != expect[len(trace)]:
            return None
        trace.append(entry)
        if len(new_cells) == ncells and new_colors == colors:
            return cells, colors, trace
        cells, colors = new_cells, new_colors


def _target_cell(cells: Cells) -> int | None:
    """Index of the first smallest non-singleton cell, or None if discrete."""
    best = None
    best_size = None
    for i, cell in enumerate(cells):
        size = len(cell)
        if size > 1 and (best_size is None or size < best_size):
            best, best_size = i, size
    return best


def _individualize(cells: Cells, index: int, v: int) -> Cells:
    cell = cells[index]
    rest = [x for x in cell if x != v]
    return cells[:index] + [[v], rest] + cells[index + 1 :]


class _FirstPath:
    """The fixed side's path of a search, refined once per search.

    Node 0 is a refined start; node d+1 individualizes the first vertex of
    node d's target cell and refines, and is computed when first read.
    Each node is what _refine returns: (cells, colors, trace).
    """

    def __init__(self, struct: Struct, start: Node) -> None:
        self.struct = struct
        self.nodes = [start]

    def node(self, depth: int) -> Node:
        while len(self.nodes) <= depth:
            cells, colors, _ = self.nodes[-1]
            t = _target_cell(cells)
            self.nodes.append(
                _refine(self.struct, _individualize(cells, t, cells[t][0]), colors)
            )
        return self.nodes[depth]


def _search_pair(
    path: _FirstPath, s2: Struct, depth: int, cells2: Cells, colors2: Cells | None
) -> Perm | None:
    """A map carrying the path's struct onto s2 below node depth of the path
    and a refined partition of s2 with the same trace.

    Each candidate image on the other side is refined against the trace of
    the path's next node.  At a leaf, aligned color cells give the color
    map; a color left unmatched maps to -1, which no entry equals.
    """
    cells1, colors1, _ = path.node(depth)
    t = _target_cell(cells1)
    if t is None:
        image = [0] * len(cells1)
        for c1, c2 in zip(cells1, cells2):
            image[c1[0]] = c2[0]
        m1 = path.struct[0]
        if colors1 is not None:
            lut = np.full(1 + sum(map(len, colors1)), -1, dtype=np.int64)
            lut[0] = 0
            for a, b in zip(colors1, colors2):
                lut[a[0]] = b[0]
            m1 = lut[m1]
        p = np.asarray(image, dtype=np.intp)
        return tuple(image) if np.array_equal(s2[0][np.ix_(p, p)], m1) else None
    trace = path.node(depth + 1)[2]
    for w in cells2[t]:
        child2 = _refine(s2, _individualize(cells2, t, w), colors2, trace)
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
    cells = path.node(depth)[0]
    t = _target_cell(cells)
    other = _refine(path.struct, _individualize(cells, t, w), None, path.node(depth + 1)[2])
    if other is None:
        return None
    return _search_pair(path, path.struct, depth + 1, other[0], None)


def _search_levels(
    matrix: np.ndarray, seeds: Sequence[Perm], top: bool
) -> tuple[list[Perm], list[Perm], list[int]]:
    """The seeds, checked and without repeats or the identity, the found
    generators and the proved orbit lengths.  The first path starts from
    the unit partition, or with top from {0}, {1..n-1}, vertex 0 then the
    first base point, its orbit under the seeds taken as proved."""
    struct = _prep(matrix)
    m = struct[0]
    n = m.shape[0]
    gens: list[Perm] = []
    for seed in seeds:
        perm = tuple(seed)
        if len(perm) != n:
            raise ValueError("seed degree mismatch")
        if not preserves_matrix(m, perm):
            raise ValueError("seed does not preserve the matrix")
        if any(i != x for i, x in enumerate(perm)) and perm not in gens:
            gens.append(perm)
    path = _FirstPath(struct, _refine(struct, _top_root(n) if top else [list(range(n))]))

    def levels():
        if top:
            yield 0, (), None
        for depth in count():
            cells = path.node(depth)[0]
            t = _target_cell(cells)
            if t is None:
                return
            yield cells[t][0], cells[t][1:], partial(_image_search, path, depth)

    found, orbit_lengths = proved_orbits(gens, levels())
    return gens, found, orbit_lengths


def matrix_aut_group(matrix: np.ndarray, seeds: Sequence[Perm] = ()) -> PermGroup:
    """The group of permutations preserving the color matrix entrywise.

    Seeds must already preserve the matrix; they bootstrap orbit pruning.
    A full Schreier-Sims build of the seeds, then the found generators, is
    checked against the orbit lengths perms.proved_orbits proved.
    """
    n = len(matrix)
    seeds, found, orbit_lengths = _search_levels(matrix, seeds, top=False)
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
    return _isomorphism(m1, m2, match_colors, [list(range(m1.shape[0]))])


def _isomorphism(
    m1: np.ndarray, m2: np.ndarray, match_colors: str, root: Cells
) -> Perm | None:
    """matrix_isomorphism below the same root partition on both sides.

    The search is complete only for isomorphisms that map each cell of
    root onto the same cell.  Exact colors stay fixed; relabeled colors
    start as one cell on each side, which needs as many colors on both.
    """
    if m1.shape != m2.shape:
        return None
    relabel = match_colors == "bijection"
    s1, s2 = _prep(m1, relabel), _prep(m2, relabel)
    if relabel and s1[0].max(initial=0) != s2[0].max(initial=0):
        return None
    first = _refine_start(s1, root)
    refined = _refine_start(s2, root, first[2])
    if refined is None:
        return None
    return _search_pair(_FirstPath(s1, first), s2, 0, refined[0], refined[1])


def _refine_start(
    struct: Struct, root: Cells, expect: Trace | None = None
) -> Node | None:
    """_refine from root, the colors of a relabeled struct in one cell."""
    colors = None
    if struct[2] is not None:
        k = int(struct[0].max(initial=0))
        colors = [list(range(1, k + 1))] if k else []
    return _refine(struct, root, colors, expect)


# -- public graph operations --------------------------------------------------


def _top_root(n: int) -> Cells:
    """The partition {0}, {1..n-1}."""
    return [[0], list(range(1, n))] if n > 1 else [[0]]


def _cayley_aut_group(graph: ColoredCayleyGraph, matrix: np.ndarray) -> PermGroup:
    """matrix_aut_group of one of the graph's matrices, seeded with the
    generators of G_L, its chain's top level read off the group table (see
    the module docstring): n times the order of the found generators'
    chain must be the product of the proved orbit lengths."""
    n = graph.n
    seeds, found, orbit_lengths = _search_levels(
        matrix, left_regular_group(graph.group).generators, top=True
    )
    if orbit_lengths[0] != n:
        raise AssertionError("the translations do not reach every vertex")
    below = PermGroup(n, found)
    _check_chain_order(n * below.order(), orbit_lengths)
    levels = [_translation_level(graph.group, 0)] if n > 1 else []
    return PermGroup._from_levels(n, levels + below._levels, tuple(seeds + found))


def color_preserving_group(graph: ColoredCayleyGraph) -> PermGroup:
    """All automorphisms preserving the color matrix: each inverse pair's
    class setwise in graph mode, each arc color in digraph mode.  The
    chain reads its top level off the group table (_cayley_aut_group)."""
    return _cayley_aut_group(graph, graph.color_matrix)


def uncolored_aut_group(graph: ColoredCayleyGraph) -> PermGroup:
    """The full automorphism group, ignoring colors.  The chain reads its
    top level off the group table (_cayley_aut_group)."""
    return _cayley_aut_group(graph, graph.uncolored_matrix)


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


def _root_digest(matrix: np.ndarray, relabel: bool) -> int:
    """A hash of the trace that refines {0}, {1..n-1} of matrix, with the
    colors relabeled or not, as _isomorphism refines it."""
    struct = _prep(matrix, relabel)
    digest = 0
    # One key or (key, count) pair at a time: hashing the trace as nested
    # tuples kept about 1 MB in the tuple free lists on iso-classify.
    for entry in _refine_start(struct, _top_root(matrix.shape[0]))[2]:
        for e in entry:
            for x in (e,) if isinstance(e, bytes) else e:
                digest = hash((digest, x))
    return digest


# Per graph, the root digest of each mode (respect_colors) asked for so far.
_ROOT_DIGESTS: WeakKeyDictionary = WeakKeyDictionary()


def _graph_root_digest(graph: ColoredCayleyGraph, respect_colors: bool) -> int:
    """The root digest of the graph's color or uncolored matrix, kept per
    graph when its color matrix is read-only, as build_cayley makes it."""
    kept = not graph.color_matrix.flags.writeable
    digests = _ROOT_DIGESTS.setdefault(graph, {}) if kept else {}
    if respect_colors not in digests:
        matrix = graph.color_matrix if respect_colors else graph.uncolored_matrix
        digests[respect_colors] = _root_digest(matrix, respect_colors)
    return digests[respect_colors]


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

    The trace that refines that root is a graph invariant.  Each graph
    keeps a hash of it per mode, computed at its first call, and two graphs
    whose hashes differ are not isomorphic: refining the second side
    against the first side's trace would stop at the first pass that
    differs.  Equal hashes only let the search run, so a collision costs
    time and cannot change an answer.  Keeping the hash relies on the
    graph's matrices being read-only.
    """
    if g1.n != g2.n:
        raise ValueError("vertex counts differ")
    if g1.digraph_mode != g2.digraph_mode:
        raise ValueError("mixed graph and digraph modes")
    if _graph_root_digest(g1, respect_colors) != _graph_root_digest(
        g2, respect_colors
    ):
        return None
    if respect_colors:
        m1, m2, mode = g1.color_matrix, g2.color_matrix, "bijection"
    else:
        m1, m2, mode = g1.uncolored_matrix, g2.uncolored_matrix, "exact"
    return _isomorphism(m1, m2, mode, _top_root(g1.n))


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
