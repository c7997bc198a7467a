import itertools
import random
import time
import types
from math import factorial

import numpy as np
import pytest

from ccakit import perms, search
from ccakit.cayley import (
    build_cayley,
    cartesian_product,
    connection_set_orbits,
    f21_noncca_graph,
    inverse_pairs,
    mask_to_connection_set,
)
from ccakit.groups import (
    GroupTable,
    group_automorphisms,
    group_from_name,
    left_regular_group,
    make_cyclic,
    make_dihedral,
    make_symmetric_table,
    subgroup_generated,
)
from ccakit.perms import PermGroup, identity_perm, permgroup_from_elements, pmul
from ccakit.search import (
    are_isomorphic,
    brute_force_color_group,
    brute_force_color_perms,
    color_bijection_between,
    color_preserving_group,
    matrix_aut_group,
    matrix_isomorphism,
    pair_orbit_matrix,
    preserves_matrix,
    two_closure,
    uncolored_aut_group,
)
from ccakit.cca import cca_verdict, complete_graph
from ccakit.harness import check_f21_census, f21_census
from ccakit.suites import groups_up_to_order_8
from oracles import closure_of_perms, reference_refine


def cycle_graph(n):
    return build_cayley(make_cyclic(n), {1, n - 1})


def test_color_group_of_plain_cycle():
    # a single color leaves the full dihedral symmetry
    g = color_preserving_group(cycle_graph(5))
    assert g.order() == 10
    assert g.contains(tuple(-i % 5 for i in range(5)))


def test_color_group_of_two_colored_cycle():
    # two generator pairs of Z7 with distinct colors: translations and negation
    g = color_preserving_group(build_cayley(make_cyclic(7), {1, 6, 2, 5}))
    assert g.order() == 14


def test_exact_digraph_group_is_regular():
    g = color_preserving_group(build_cayley(make_cyclic(5), {1}, digraph_mode=True))
    assert g.order() == 5
    assert g.is_semiregular() and g.is_transitive()


def test_uncolored_group_of_cycle():
    assert uncolored_aut_group(cycle_graph(6)).order() == 12


def test_search_matches_brute_force():
    fixtures = [
        build_cayley(make_cyclic(8), {1, 7, 4}),
        build_cayley(group_from_name("d4"), {1, 3, 4}),
        build_cayley(group_from_name("z2xz4"), {1, 3, 4}),
    ]
    for graph in fixtures:
        fast = color_preserving_group(graph)
        slow = brute_force_color_group(graph)
        assert fast.order() == slow.order()
        assert all(fast.contains(p) for p in slow.generators)


def test_brute_force_lists_every_map():
    graph = cycle_graph(5)
    perms = brute_force_color_perms(graph)
    assert len(perms) == 10
    assert all(preserves_matrix(graph.color_matrix, p) for p in perms)


def test_brute_force_degree_cap():
    with pytest.raises(ValueError):
        brute_force_color_perms(cycle_graph(11))


def test_preserves_matrix():
    m = cycle_graph(5).color_matrix
    assert preserves_matrix(m, (1, 2, 3, 4, 0))
    assert not preserves_matrix(m, (1, 0, 2, 3, 4))


# Maps of 0..4 that are no permutation of it.  The two predicates below
# answered False and None for the constant map, a wrong length raised
# NumPy's broadcast error and an entry out of range IndexError.
NON_PERMUTATIONS = pytest.mark.parametrize(
    "perm",
    [(0,) * 5, [0.5] * 5, (0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5)],
    ids=["constant", "floats", "short", "long", "out of range"],
)


@NON_PERMUTATIONS
def test_preserves_matrix_refuses_non_permutations(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        preserves_matrix(cycle_graph(5).color_matrix, perm)


@NON_PERMUTATIONS
def test_color_bijection_between_refuses_non_permutations(perm):
    m = cycle_graph(5).color_matrix
    with pytest.raises(ValueError, match="not a permutation"):
        color_bijection_between(m, m, perm)


# Matrices that are not n x n, which no color matrix can be.
NOT_SQUARE = pytest.mark.parametrize(
    "matrix",
    [np.array([[0, 1, 1], [1, 0, 1]]), np.array([0, 1, 1]), np.zeros((2, 2, 2), int)],
    ids=["2x3", "1-D", "3-D"],
)


@NOT_SQUARE
def test_preserves_matrix_refuses_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError, match="must be square"):
        preserves_matrix(matrix, (1, 0))


@NOT_SQUARE
def test_matrix_aut_group_refuses_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError, match="must be square"):
        matrix_aut_group(matrix)


@NOT_SQUARE
def test_matrix_isomorphism_refuses_a_matrix_that_is_not_square(matrix):
    square = np.zeros((2, 2), int)
    for mode in ("exact", "bijection"):
        for m1, m2 in ((matrix, matrix), (matrix, square), (square, matrix)):
            with pytest.raises(ValueError, match="must be square"):
                matrix_isomorphism(m1, m2, mode)
        # Square matrices of two sizes are simply not isomorphic.
        assert matrix_isomorphism(square, np.zeros((3, 3), int), mode) is None


def test_color_bijection_between_refuses_other_shapes():
    # A larger m2 must not be read through its leading 2 x 2 block.
    m1 = np.array([[0, 1], [1, 0]])
    m2 = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    for a, b, perm in ((m1, m2, (0, 1)), (m2, m1, (0, 1, 2))):
        with pytest.raises(ValueError, match=r"shapes \(\d, \d\) and \(\d, \d\)"):
            color_bijection_between(a, b, perm)
    with pytest.raises(ValueError, match="must be square"):
        color_bijection_between(m2[:2], m2[:2], (0, 1))
    assert color_bijection_between(m1, m1, (1, 0)) == {1: 1}


def test_matrix_aut_group_with_seed_hint():
    m = cycle_graph(7).color_matrix
    rot = tuple((i + 1) % 7 for i in range(7))
    assert matrix_aut_group(m).order() == matrix_aut_group(m, seeds=[rot]).order() == 14


def test_matrix_aut_group_rejects_bad_seed():
    m = cycle_graph(5).color_matrix
    with pytest.raises(ValueError):
        matrix_aut_group(m, seeds=[(1, 0, 2, 3, 4)])


def _oracle_color_map(m1, m2, perm):
    """The color map built entry by entry with two dicts, or None."""
    forward, backward = {}, {}
    for u, v in itertools.product(range(len(perm)), repeat=2):
        x, y = int(m1[u, v]), int(m2[perm[u], perm[v]])
        if (x == 0) != (y == 0):
            return None
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return None
    return {x: y for x, y in forward.items() if x != 0}


def test_color_bijection_matches_dict_oracle():
    rng = np.random.default_rng(5)
    group = group_from_name("z3xf21")
    m1 = build_cayley(group, "(1,e),(2,e),(e,a),(e,a^2),(e,x),(e,x^6)").color_matrix
    colors = np.unique(m1[m1 != 0])
    assert len(colors) == 3
    # Relabel the vertices by perm and the colors by a bijection.
    perm = rng.permutation(len(m1))
    relabel = np.zeros(m1.max() + 1, dtype=np.int64)
    relabel[colors] = rng.permutation(colors) + 100
    m2 = np.empty_like(m1)
    m2[np.ix_(perm, perm)] = relabel[m1]
    expected = {int(c): int(relabel[c]) for c in colors}
    assert color_bijection_between(m1, m2, perm) == expected
    assert _oracle_color_map(m1, m2, perm) == expected
    # Near misses, each wrong at one place.
    non_edge = tuple(perm[np.argwhere(m1 == 0)[1]])
    edge = tuple(perm[np.argwhere(m1 == colors[0])[0]])
    to_edge = m2.copy()
    to_edge[non_edge] = relabel[colors[0]]
    merged = np.where(m2 == relabel[colors[1]], relabel[colors[0]], m2)
    split = m2.copy()
    split[edge] = 999
    for bad in (to_edge, merged, split):
        assert color_bijection_between(m1, bad, perm) is None
        assert _oracle_color_map(m1, bad, perm) is None


def test_matrix_isomorphism_modes():
    # same cycle wearing different color ids
    m1 = build_cayley(make_cyclic(7), {1, 6}).color_matrix
    m2 = build_cayley(make_cyclic(7), {2, 5}).color_matrix
    assert matrix_isomorphism(m1, m2, match_colors="exact") is None
    p = matrix_isomorphism(m1, m2, match_colors="bijection")
    assert p is not None
    assert color_bijection_between(m1, m2, p) is not None
    # no arcs at all: every map is an isomorphism, with or without relabeling
    empty = np.zeros((3, 3), dtype=np.int64)
    assert matrix_isomorphism(empty, empty, "exact") == (0, 1, 2)
    assert matrix_isomorphism(empty, empty, "bijection") == (0, 1, 2)
    # an unknown mode is refused before any shape test
    with pytest.raises(ValueError):
        matrix_isomorphism(m1, m2, match_colors="bogus")
    with pytest.raises(ValueError):
        matrix_isomorphism(np.zeros((2, 2), int), np.zeros((3, 3), int), "bogus")


def _graph_matrix(n, edges):
    m = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        m[u, v] = m[v, u] = 1
    return m


def _hash_counts(entry, start, stop):
    """The multiplicities of the hashes in entry[start:stop], 8 bytes each."""
    hashes = np.frombuffer(entry, dtype=np.uint64)[start:stop]
    return sorted(np.unique(hashes, return_counts=True)[1].tolist())


def test_refinement_trace():
    refine, prep = search._refine, search._Struct
    root = np.zeros(6, dtype=np.intp)
    top = np.array([0, 1, 1, 1, 1, 1], dtype=np.intp)
    c6 = _graph_matrix(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = _graph_matrix(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    k33 = _graph_matrix(6, [(u, v) for u in range(3) for v in range(3, 6)])
    # regular graphs: one pass that keeps the root whole, one hash per vertex
    ids, colors, trace = refine(prep(c6, False), root)
    assert np.array_equal(ids, root) and colors is None
    assert len(trace) == 1 and _hash_counts(trace[0], 0, 6) == [6]
    # equal valency: the root refinement cannot tell these two apart ...
    ids, colors, same = refine(prep(triangles, False), root, None, trace)
    assert np.array_equal(ids, root) and colors is None and same == trace
    # ... but one individualized vertex can
    _, _, below = refine(prep(c6, False), top)
    assert refine(prep(triangles, False), top, None, below) is None
    # a whole cell is compared by its hash
    assert refine(prep(k33, False), root, None, trace) is None
    # a split cell records its pieces with their sizes
    p5 = _graph_matrix(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    root = np.zeros(5, dtype=np.intp)
    ids, _, trace = refine(prep(p5, False), root)
    assert _hash_counts(trace[0], 0, 5) == [2, 3]
    # ends, then the center split off; the last pass keeps every cell whole
    assert len(trace) == 3 and all(isinstance(entry, bytes) for entry in trace)
    assert sorted(np.bincount(ids).tolist()) == [1, 2, 2]
    assert _hash_counts(trace[-1], 0, 5) == [1, 2, 2]
    p3_p2 = _graph_matrix(5, [(0, 1), (1, 2), (3, 4)])
    assert refine(prep(p3_p2, False), root, None, trace) is None
    # The path 0-1-2-3 with colors 7, 7, 9: the color classes differ in size,
    # so the one color cell splits in the first pass, beside the vertices.
    path = _graph_matrix(4, [(0, 1), (1, 2)]) * 7
    path[2, 3] = path[3, 2] = 9
    root, one_cell = np.zeros(4, dtype=np.intp), np.zeros(2, dtype=np.intp)
    ids, colors, trace = refine(prep(path, True), root, one_cell)
    assert sorted(ids.tolist()) == [0, 1, 2, 3]
    assert sorted(colors.tolist()) == [0, 1]
    # The first entry holds the 4 vertex hashes, then the 2 color hashes.
    assert _hash_counts(trace[0], 0, 4) == [2, 2]
    assert _hash_counts(trace[0], 4, 6) == [1, 1]
    # Swapped colors refine alike; one color on every edge does not.
    swapped = np.where(path == 7, 9, np.where(path == 9, 7, 0))
    assert refine(prep(swapped, True), root, one_cell, trace) is not None
    uniform = _graph_matrix(4, [(0, 1), (1, 2), (2, 3)]) * 7
    assert refine(prep(uniform, True), root, np.zeros(1, np.intp), trace) is None
    # With exact colors the four rows differ, and refinement stops after that
    # one pass: no confirming pass once every cell is a singleton.
    ids, _, trace = refine(prep(path, False), root)
    assert sorted(ids.tolist()) == [0, 1, 2, 3] and len(trace) == 1


def _in_degree_arcs():
    """Arcs 0->2, 1->2, 2->3, 3->0: every vertex has one out-arc, so only
    the in-arcs tell the vertices apart (in-degrees 1, 0, 2, 1)."""
    arcs = np.zeros((4, 4), dtype=np.int64)
    arcs[[0, 1, 2, 3], [2, 2, 3, 0]] = 1
    return arcs


@pytest.mark.parametrize("relabel", [False, True])
def test_only_an_asymmetric_matrix_keeps_its_transpose(relabel):
    refine, prep = search._refine, search._Struct
    root = np.zeros(4, dtype=np.intp)
    assert len(prep(_graph_matrix(4, [(0, 1), (1, 2)]), relabel).sides) == 1
    arcs = _in_degree_arcs()
    struct = prep(arcs, relabel)
    assert len(struct.sides) == 2
    # The second side lists each column's arcs: the rows of the transpose,
    # padded with the vertex itself and color 0.
    nbrs, cols = struct.sides[1][:2]
    assert nbrs.shape == (4, 2)
    for v in range(4):
        assert sorted(nbrs[v][cols[v] != 0].tolist()) == np.flatnonzero(arcs.T[v]).tolist()
        assert set(nbrs[v][cols[v] == 0].tolist()) <= {v}
    ids = refine(struct, root, np.zeros(1, np.intp) if relabel else None)[0]
    assert sorted(ids.tolist()) == [0, 1, 2, 3]


def _same_cells(a, b):
    """Whether two arrays of cell indices make the same cells, whatever
    their numbering: the cells pair off one to one."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _start_partitions(n):
    """Every vertex in one cell, {0} | rest, and {0} | {v} | rest for v the
    first, middle and last of the other vertices."""
    yield np.zeros(n, np.intp)
    yield search._top_root(n)
    for v in sorted({1, n // 2, n - 1}):
        ids = np.full(n, 2, np.intp)
        ids[0], ids[v] = 0, 1
        yield ids


def _assert_refines_as_the_reference(struct, ids):
    got_ids, got_colors, trace = search._refine(struct, ids)
    ref_ids, ref_colors, passes = reference_refine(struct, ids)
    assert len(trace) == passes and _same_cells(got_ids, ref_ids)
    assert (got_colors is None) == (ref_colors is None)
    assert got_colors is None or _same_cells(got_colors, ref_colors)


def test_one_key_refinement_matches_the_lexsort_reference():
    # The pass sorts one key per vertex, cell over the hash's low bits; the
    # reference sorts (cell, full hash) with lexsort.  Both must make the
    # same cells in the same number of passes, pieces in any order.
    checked = 0
    for name in ("f21", "z3xs3", "d8"):
        group = group_from_name(name)
        pairs = inverse_pairs(group)
        for mask, _ in connection_set_orbits(group, connected_only=True):
            graph = build_cayley(group, mask_to_connection_set(group, pairs, mask))
            structs = [
                search._Struct(graph.color_matrix, False, group),
                search._Struct(graph.uncolored_matrix, False, group),
                search._Struct(graph.color_matrix, True, group),
            ]
            for ids in _start_partitions(graph.n):
                for struct in structs:
                    _assert_refines_as_the_reference(struct, ids)
                    checked += 1
    # A scanned matrix (n x d weights) and one with a transpose.
    p5 = _graph_matrix(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for matrix in (p5, _in_degree_arcs()):
        for relabel in (False, True):
            for ids in _start_partitions(len(matrix)):
                _assert_refines_as_the_reference(search._Struct(matrix, relabel), ids)
                checked += 1
    assert checked == 3 * 5 * (51 + 217 + 280) + 2 * 2 * 5


def _low_bits(hashes, size):
    """The hash bits below the cell index of a partition of size members."""
    return hashes & np.uint64((1 << (64 - max(1, (size - 1).bit_length()))) - 1)


@pytest.mark.parametrize("size", [2, 2048, 2049])
def test_sort_keys_order_by_cell_then_the_hashes_low_bits(size):
    # The cell index takes b = max(1, (size - 1).bit_length()) bits: 1 at
    # size 2, 11 at 2048 and 12 at 2049, where cell 2048 needs the twelfth.
    rng = np.random.default_rng(size)
    cells = rng.integers(0, size, size)
    cells[:2] = size - 1
    hashes = rng.integers(0, 1 << 64, size, dtype=np.uint64, endpoint=False)
    # Two hashes of the last cell differ in the top bit only: one key.
    hashes[1] = hashes[0] ^ np.uint64(1 << 63)
    keys, order = search._sorted_keys(cells, hashes)
    assert np.array_equal(order, np.lexsort((_low_bits(hashes, size), cells)))
    # The keys themselves sort: the trace is their bytes in this order.
    assert np.array_equal(np.sort(keys), keys)
    key_of = np.empty_like(keys)
    key_of[order] = keys
    assert key_of[0] == key_of[1]


def test_relabeled_colors_take_their_key_width_from_the_colors(monkeypatch):
    # Twenty colors on the 20 arcs of 5 vertices: from {0} | {1} | {2} |
    # {3, 4}, the colors split into 13 cells, more than there are vertices,
    # while 3 and 4 stay together.
    matrix = np.arange(1, 26).reshape(5, 5)
    np.fill_diagonal(matrix, 0)
    struct = search._Struct(matrix, True)
    assert (struct.n, struct.k) == (5, 20)
    sorted_keys, sizes = search._sorted_keys, []

    def checked(cells, hashes):
        # Each call sorts a whole partition, vertices or colors, by
        # (cell, the low bits below that partition's cell width).
        keys, order = sorted_keys(cells, hashes)
        assert np.array_equal(order, np.lexsort((_low_bits(hashes, len(cells)), cells)))
        sizes.append(len(cells))
        return keys, order

    monkeypatch.setattr(search, "_sorted_keys", checked)
    ids, colors, _ = search._refine(struct, np.array([0, 1, 2, 3, 3]))
    assert sorted(np.bincount(ids).tolist()) == [1, 1, 1, 2]
    assert colors.max() + 1 == 13 and set(sizes) == {5, 20}
    _assert_refines_as_the_reference(struct, np.array([0, 1, 2, 3, 3]))


def _random_matrix(rng, n, colors, symmetric):
    m = rng.integers(0, colors + 1, size=(n, n))
    if symmetric:
        m = np.triu(m, 1)
        m = m + m.T
    np.fill_diagonal(m, 0)
    return m


def _relabeled(rng, m, recolor):
    """m carried by a random vertex map, its colors optionally permuted."""
    p = rng.permutation(m.shape[0])
    out = np.empty_like(m)
    out[np.ix_(p, p)] = m
    if recolor:
        out = np.concatenate([[0], 1 + rng.permutation(m.max())])[out]
    return out


def _near_miss(rng, m):
    """A relabeled copy with one entry (both entries if symmetric) changed."""
    out = _relabeled(rng, m, recolor=False)
    n = m.shape[0]
    i, j = rng.choice(n, size=2, replace=False)
    out[i, j] = (out[i, j] + 1) % (m.max() + 2)
    if np.array_equal(m, m.T):
        out[j, i] = out[i, j]
    return out


def _one_class_size(rng, n, colors, complete):
    """A symmetric matrix whose color classes all have one size; complete
    ones need colors to divide n(n-1)/2."""
    upper = np.triu_indices(n, 1)
    size = len(upper[0]) // (colors if complete else colors + 1)
    values = np.zeros(len(upper[0]), dtype=np.int64)
    values[: size * colors] = np.repeat(np.arange(1, colors + 1), size)
    m = np.zeros((n, n), dtype=np.int64)
    m[upper] = rng.permutation(values)
    return m + m.T


def _two_edges_swapped(rng, m):
    """A relabeled, recolored copy with the colors of an edge of color 1 and
    an edge of color 2 exchanged, so every class keeps its size."""
    out = _relabeled(rng, m, recolor=True)
    (a, b), (c, d) = np.argwhere(out == 1)[0], np.argwhere(out == 2)[0]
    out[a, b] = out[b, a] = 2
    out[c, d] = out[d, c] = 1
    return out


def _brute_isomorphism_exists(m1, m2, mode):
    """Scan all n! vertex maps; independent of the refinement search."""
    n = m1.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    images = m2[perms[:, :, None], perms[:, None, :]]
    if mode == "exact":
        return bool(np.all(images == m1, axis=(1, 2)).any())
    same_edges = np.all((images == 0) == (m1 == 0), axis=(1, 2))
    return any(
        color_bijection_between(m1, m2, p) is not None for p in perms[same_edges]
    )


def _oracle_pairs():
    rng = np.random.default_rng(2015)
    pairs = []
    for k in range(36):
        n = 3 + k % 5
        m = _random_matrix(rng, n, colors=1 + k % 3, symmetric=k % 3 != 2)
        if k % 2:
            pairs.append((m, _relabeled(rng, m, recolor=k % 4 == 1)))
        else:
            pairs.append((m, _near_miss(rng, m)))
    # symmetric against asymmetric: one arc of an edge dropped
    sym = _random_matrix(rng, 5, colors=2, symmetric=True)
    sym[0, 1] = sym[1, 0] = 1
    asym = _relabeled(rng, sym, recolor=False)
    asym[np.nonzero(asym == 1)[0][0], np.nonzero(asym == 1)[1][0]] = 0
    pairs.append((sym, asym))
    # the 6-cycle against two triangles: equal root refinements
    c6 = build_cayley(make_cyclic(6), {1, 5}).uncolored_matrix
    triangles = np.kron(np.eye(2, dtype=c6.dtype), 1 - np.eye(3, dtype=c6.dtype))
    pairs.append((c6, triangles))
    # color classes of one size, which only refining the colors tells apart
    for n, colors, complete in (
        (4, 3, True), (5, 2, True), (6, 3, True), (7, 3, True),
        (5, 3, False), (6, 2, False), (7, 2, False),
    ):
        m = _one_class_size(rng, n, colors, complete)
        pairs.append((m, _relabeled(rng, m, recolor=True)))
        pairs.append((m, _two_edges_swapped(rng, m)))
    return pairs


@pytest.mark.parametrize("mode", ["exact", "bijection"])
def test_matrix_isomorphism_matches_brute_force(mode):
    answers = []
    for m1, m2 in _oracle_pairs():
        found = matrix_isomorphism(m1, m2, match_colors=mode)
        assert (found is not None) == _brute_isomorphism_exists(m1, m2, mode), (m1, m2)
        if found is not None:
            p = np.asarray(found, dtype=np.intp)
            if mode == "exact":
                assert np.array_equal(m2[np.ix_(p, p)], m1)
            else:
                assert color_bijection_between(m1, m2, found) is not None
        answers.append(found is not None)
    # both answers occur often enough to mean something
    assert 10 <= sum(answers) <= len(answers) - 10


def test_are_isomorphic_positive():
    g1 = build_cayley(make_cyclic(9), {1, 8})
    g2 = build_cayley(make_cyclic(9), {2, 7})
    assert are_isomorphic(g1, g2, respect_colors=True)
    assert are_isomorphic(g1, g2, respect_colors=False)


def test_are_isomorphic_negative():
    # circulant with chords vs the rook graph: same order and valency
    g1 = build_cayley(make_cyclic(9), {1, 8, 3, 6})
    g2 = cartesian_product(
        build_cayley(make_cyclic(3), {1, 2}), build_cayley(make_cyclic(3), {1, 2})
    )
    assert g1.valency == g2.valency == 4
    assert not are_isomorphic(g1, g2, respect_colors=False)
    assert not are_isomorphic(g1, g2, respect_colors=True)


def _shuffled(group, seed):
    """The same group with its elements renumbered at random."""
    new = np.random.default_rng(seed).permutation(group.order)
    old = np.argsort(new)
    mult = new[group.mult_array[np.ix_(old, old)]]
    return GroupTable.from_mult(mult, [group.labels[a] for a in old], name=group.name)


def _same_answer_as_full_search(g1, g2, respect_colors):
    """are_isomorphic agrees with the full search of matrix_isomorphism,
    and a map it returns carries one matrix onto the other."""
    if respect_colors:
        m1, m2, mode = g1.color_matrix, g2.color_matrix, "bijection"
    else:
        m1, m2, mode = g1.uncolored_matrix, g2.uncolored_matrix, "exact"
    found = are_isomorphic(g1, g2, respect_colors)
    assert (found is None) == (matrix_isomorphism(m1, m2, mode) is None), (g1, g2)
    if found is not None:
        if respect_colors:
            assert color_bijection_between(m1, m2, found) is not None
        else:
            p = np.asarray(found, dtype=np.intp)
            assert np.array_equal(m2[np.ix_(p, p)], m1)
    return found is not None


def _carried(graph, copy):
    """The same Cayley graph built on a renumbered copy of its group."""
    labels = graph.group.labels
    members = [copy.index_of(labels[s]) for s in graph.connection.members]
    return build_cayley(copy, members, digraph_mode=graph.digraph_mode)


def _unrefined_roots(monkeypatch):
    """Start every graph's searches at the unrefined root {0}, {1..n-1}
    with an empty trace, so that no root trace tells a pair apart and the
    search below the root decides every pair that are_isomorphic is asked."""

    def graph_root(graph, colored, relabel):
        matrix = graph.color_matrix if colored else graph.uncolored_matrix
        struct = search._Struct(matrix, relabel, graph.group)
        colors = np.zeros(struct.k, np.intp) if relabel else None
        return struct, (search._top_root(graph.n), colors, [])

    monkeypatch.setattr(search, "_graph_root", graph_root)


@pytest.mark.parametrize(
    "respect_colors, unrefined_roots",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-unrefined-roots", "True-unrefined-roots"],
)
def test_one_top_branch_matches_full_search_on_f21(
    respect_colors, unrefined_roots, monkeypatch
):
    # Every pair of equal valency among the connected orbit representatives,
    # which are 51 classes, colored or not.  The second graph is carried to
    # a renumbered copy of F21, so that the maps found are not the identity.
    if unrefined_roots:
        _unrefined_roots(monkeypatch)
    f21 = group_from_name("f21")
    pairs = inverse_pairs(f21)
    reps = [
        build_cayley(f21, mask_to_connection_set(f21, pairs, mask))
        for mask, _ in connection_set_orbits(f21, connected_only=True)
    ]
    copy = _shuffled(f21, seed=21)
    others = [_carried(graph, copy) for graph in reps]
    for i, a in enumerate(reps):
        for j, b in enumerate(others):
            if a.valency == b.valency:
                assert _same_answer_as_full_search(a, b, respect_colors) == (i == j)


def test_complete_graphs_of_order_21_colored():
    # All ten color classes of a complete graph on F21 or Z21 have 42 arcs,
    # and uncolored both graphs are K21, so only refining the colors as a
    # partition separates them.  Each answer takes milliseconds on a 2-core
    # VM; a search that meets the color map only at the leaves runs for
    # minutes.
    f21, z21 = group_from_name("f21"), group_from_name("z21")
    copy = _shuffled(f21, seed=21)
    kf, kc, kz = (
        build_cayley(g, [x for x in range(21) if x != g.identity])
        for g in (f21, copy, z21)
    )
    assert np.unique(kz.color_matrix, return_counts=True)[1][1:].tolist() == [42] * 10
    assert are_isomorphic(kf, kz, respect_colors=False) is not None
    start = time.perf_counter()
    assert _same_answer_as_full_search(kf, kc, respect_colors=True)
    assert not _same_answer_as_full_search(kf, kz, respect_colors=True)
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("name", ["f21", "z3xs3", "q8"])
def test_one_top_branch_matches_full_search_on_digraphs(name):
    rng = np.random.default_rng(9)
    group = group_from_name(name)
    copy = _shuffled(group, seed=3)
    others = np.arange(1, group.order)  # every constructor puts e at 0
    answers = []
    for k in range(24):
        size = 1 + k % 4
        s = rng.choice(others, size=size, replace=False).tolist()
        t = rng.choice(others, size=size, replace=False).tolist()
        g1 = build_cayley(group, s, digraph_mode=True)
        for target in (s, t):
            g2 = _carried(build_cayley(group, target, digraph_mode=True), copy)
            for respect_colors in (False, True):
                answers.append(_same_answer_as_full_search(g1, g2, respect_colors))
    assert 48 <= sum(answers) < len(answers)


def test_one_top_branch_on_degrees_one_and_two():
    z1, z2 = make_cyclic(1), make_cyclic(2)
    point = build_cayley(z1, set())
    assert are_isomorphic(point, point, True) == are_isomorphic(point, point, False) == (0,)
    for digraph_mode in (False, True):
        empty = build_cayley(z2, set(), digraph_mode=digraph_mode)
        edge = build_cayley(z2, {1}, digraph_mode=digraph_mode)
        for respect_colors in (False, True):
            assert _same_answer_as_full_search(edge, edge, respect_colors)
            assert _same_answer_as_full_search(empty, empty, respect_colors)
            assert not _same_answer_as_full_search(empty, edge, respect_colors)


def test_shrikhande_and_rook_graph_are_told_apart_below_the_top_branch(monkeypatch):
    # Two strongly regular graphs with parameters (16, 6, 2, 2).  Their
    # traces agree at the root and after vertex 0 is individualized, so
    # only the search below the single top branch can refute the pair.
    z4z4 = group_from_name("z4xz4")  # (a, b) at index 4a + b
    shrikhande = build_cayley(z4z4, {4, 12, 1, 3, 5, 15})
    rook = build_cayley(z4z4, {4, 12, 8, 1, 3, 2})
    s1 = search._Struct(shrikhande.uncolored_matrix, False)
    s2 = search._Struct(rook.uncolored_matrix, False)
    root = np.zeros(16, dtype=np.intp)
    _, _, trace = search._refine(s1, root)
    assert search._refine(s2, root, None, trace) is not None
    (_, (ids, _, trace)), (_, (_, _, other)) = (
        search._graph_root(g, False, False) for g in (shrikhande, rook)
    )
    assert ids[0] == 0 and sorted(np.bincount(ids).tolist()) == [1, 6, 9]
    assert trace == other
    for respect_colors in (False, True):
        assert not _same_answer_as_full_search(shrikhande, rook, respect_colors)
    # Again from unrefined roots: the search below the root decides the pair.
    _unrefined_roots(monkeypatch)
    for respect_colors in (False, True):
        assert not _same_answer_as_full_search(shrikhande, rook, respect_colors)


def test_roots_are_kept_per_mode():
    # Uncolored, the complete graphs on Z4 and Z2 x Z2 are both K4; colored,
    # they have 2 and 3 colors, and their root traces differ.  The same two
    # graph objects are compared in both modes and both argument orders,
    # once with each mode asked first, so a root kept for one mode must
    # not answer for the other.
    for first in (True, False):
        k4, kv = (build_cayley(group_from_name(g), {1, 2, 3}) for g in ("z4", "z2^2"))
        for respect_colors in (first, not first):
            for a, b in ((k4, kv), (kv, k4)):
                assert _same_answer_as_full_search(a, b, respect_colors) != respect_colors
        for graph in (k4, kv):
            assert sorted(search._ROOTS[graph]) == [(False, False), (True, True)]
        colored, uncolored = (
            [search._graph_root(g, mode, mode)[1][2] for g in (k4, kv)] for mode in (True, False)
        )
        assert colored[0] != colored[1] and uncolored[0] == uncolored[1]


def test_matrix_isomorphism_finds_a_map_that_moves_vertex_0():
    # The paths 0-1-2 and 1-0-2 are isomorphic, but every isomorphism maps
    # the end 0 of the first to an end of the second, 1 or 2: only the
    # search over every root image finds the map.
    paths = [_graph_matrix(3, edges) for edges in ([(0, 1), (1, 2)], [(1, 0), (0, 2)])]
    assert matrix_isomorphism(*paths) == (1, 0, 2)


def test_every_graph_keeps_its_root_after_its_verdict():
    # Every Cayley graph's matrix is derived from its set, so every graph's
    # root is kept, under the graph itself.
    for group, members in (
        (make_cyclic(4), {1, 3}),
        (make_cyclic(7), {1, 2, 5, 6}),
        (group_from_name("f21"), "a,a^-1,ax,(ax)^-1"),
    ):
        graph = build_cayley(group, members)
        assert graph not in search._ROOTS
        cca_verdict(graph)
        assert (True, False) in search._ROOTS[graph]


def test_are_isomorphic_and_the_aut_group_refine_each_root_once(monkeypatch):
    # are_isomorphic refines the root of each graph, and the automorphism
    # search of either graph starts from the same kept root: counted like
    # the first path below, no root is refined twice.
    f21 = group_from_name("f21")
    graph = build_cayley(f21, mask_to_connection_set(f21, inverse_pairs(f21), 877))
    other = _carried(graph, _shuffled(f21, seed=21))
    refine = search._refine
    roots = []

    def counting(struct, ids, colors=None, expect=None):
        if expect is None and np.array_equal(ids, search._top_root(len(ids))):
            roots.append(struct)
        return refine(struct, ids, colors, expect)

    monkeypatch.setattr(search, "_refine", counting)
    assert are_isomorphic(graph, other, respect_colors=False) is not None
    assert len(roots) == 2
    assert uncolored_aut_group(graph).order() == uncolored_aut_group(other).order()
    assert len(roots) == 2


def test_aut_group_refines_the_first_path_once(monkeypatch):
    # The F21 set of mask 877 gives the complete tripartite graph K(7,7,7),
    # whose automorphism group S7 wr S3 has order 7!^3 * 3!.  Every
    # refinement without a trace to match walks the fixed side's first
    # path, which the whole search shares: one per node of that path, the
    # root included.
    f21 = group_from_name("f21")
    graph = build_cayley(f21, mask_to_connection_set(f21, inverse_pairs(f21), 877))
    struct = search._Struct(graph.uncolored_matrix, False)
    ids = search._refine(struct, np.zeros(graph.n, dtype=np.intp))[0]
    nodes = 1
    while (t := search._target_cell(ids)) is not None:
        first = int(np.flatnonzero(ids == t)[0])
        ids = search._refine(struct, search._individualize(ids, t, first))[0]
        nodes += 1
    refine = search._refine
    unmatched = []

    def counting(struct, ids, colors=None, expect=None):
        if expect is None:
            unmatched.append(ids)
        return refine(struct, ids, colors, expect)

    monkeypatch.setattr(search, "_refine", counting)
    group = uncolored_aut_group(graph)
    assert group.order() == 5040**3 * 6
    assert len(unmatched) <= nodes


def test_are_isomorphic_size_mismatch():
    with pytest.raises(ValueError):
        are_isomorphic(cycle_graph(5), cycle_graph(7), respect_colors=False)


def test_pair_orbit_matrix_of_cycle():
    c5 = PermGroup(5, [(1, 2, 3, 4, 0)])
    m = pair_orbit_matrix(c5)
    assert m.shape == (5, 5)
    # diagonal is one orbit, each difference class another
    assert len({int(m[i, i]) for i in range(5)}) == 1
    assert len(set(m.ravel().tolist())) == 5


@pytest.mark.parametrize(
    "graph, order",
    [(f21_noncca_graph(), 168), (cycle_graph(15), 30)],
    ids=["gamma", "z15 cycle"],
)
def test_pair_orbit_matrix_matches_the_orbits_of_every_element(graph, order):
    # Each pair's orbit from the group's elements, closed by brute force;
    # ids in lexicographic order of each orbit's least pair.
    group = color_preserving_group(graph)
    n = group.degree
    elements = closure_of_perms(n, group.generators)
    assert len(elements) == order
    expected = np.full((n, n), -1)
    next_id = 0
    for u, v in itertools.product(range(n), repeat=2):
        if expected[u, v] < 0:
            for g in elements:
                expected[g[u], g[v]] = next_id
            next_id += 1
    assert np.array_equal(pair_orbit_matrix(group), expected)


def test_two_closure_of_rotations_stays_rotations():
    c5 = PermGroup(5, [(1, 2, 3, 4, 0)])
    closed = two_closure(c5)
    assert closed.order() == 5
    assert not closed.contains((0, 4, 3, 2, 1))


def test_two_closure_grows_two_transitive_group():
    a4 = permgroup_from_elements(
        4, [p for p in _even_perms_4()]
    )
    closed = two_closure(a4)
    assert a4.order() == 12
    # one off-diagonal orbital, so the closure is the full symmetric group
    assert closed.order() == 24


def _even_perms_4():
    from itertools import permutations

    def sign(p):
        s = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    s = -s
        return s

    return [p for p in permutations(range(4)) if sign(p) == 1]


def test_two_closure_requires_transitivity():
    g = PermGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError):
        two_closure(g)


def test_symmetric_group_is_closed():
    s4 = PermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    assert two_closure(s4).order() == 24


def test_color_group_chain_is_checked_against_the_searched_orbits(
    monkeypatch, noncca_graph
):
    # A chain built from too few generators disagrees with the orbit
    # lengths the search proved, and perms.proved_chain must say so.  A
    # subclass, so that G_L's chain, read off the table, is still built.
    class FirstGeneratorOnly(PermGroup):
        def __init__(self, n, gens, base_prefix):
            super().__init__(n, gens[:1], base_prefix)

    monkeypatch.setattr(perms, "PermGroup", FirstGeneratorOnly)
    with pytest.raises(AssertionError, match="orbit lengths"):
        color_preserving_group(noncca_graph)


def test_complete_graph_stabilizer_search_is_pruned_from_below():
    # Aut(K_n) is S_n, searched below {0}, {1..n-1} along a path of n - 2
    # levels.  Searched deepest first, the elements found below a level
    # fix its base point, so the level's first find settles its orbit: one
    # generator per level.  Top-down, a level finds one per image, 465 on
    # K_32.
    for n in (32, 64):
        graph = complete_graph(group_from_name(f"z{n}"))
        start = time.perf_counter()
        aut = uncolored_aut_group(graph)
        elapsed = time.perf_counter() - start
        assert aut.order() == factorial(n)
        gl = set(left_regular_group(graph.group).generators)
        assert len([g for g in aut.generators if g not in gl]) == n - 2
    # K_64 takes 0.7 s on a 2-core VM, and about 16 s searched top-down.
    assert elapsed < 5


def _assert_chain_matches_a_full_build(graph, respect_colors):
    """The chain read off the table against matrix_aut_group's full
    Schreier-Sims build of the same search."""
    group, n = graph.group, graph.n
    if respect_colors:
        ao, matrix = color_preserving_group(graph), graph.color_matrix
    else:
        ao, matrix = uncolored_aut_group(graph), graph.uncolored_matrix
    full = matrix_aut_group(matrix, seeds=left_regular_group(group).generators)
    assert ao.generators == full.generators
    assert ao.order() == full.order()
    assert ao.base[:1] == full.base[:1]
    if n > 1:
        # The top level's basic orbit is every vertex, u_x takes the base
        # point to x, and the stored inverses invert.
        b0, top = ao.base[0], ao._levels[0]
        assert sorted(top.transversal) == list(range(n))
        for x, u in top.transversal.items():
            assert u[b0] == x and pmul(top.inverses[x], u) == identity_perm(n)
    rng = random.Random(n)
    gens = ao.generators or (identity_perm(n),)
    words = [pmul(rng.choice(gens), rng.choice(gens)) for _ in range(20)]
    rights = [tuple(group.mult[x][g] for x in range(n)) for g in range(n)]
    probes = list(full.generators) + words + rights + list(
        group_automorphisms(group).generators
    )
    assert [ao.contains(p) for p in probes] == [full.contains(p) for p in probes]
    if ao.order() <= 5000:
        assert set(ao.elements()) == set(full.elements())
    return ao.order()


SMALL_GROUPS = groups_up_to_order_8()


@pytest.mark.parametrize("respect_colors", [True, False], ids=["color", "uncolored"])
@pytest.mark.parametrize(
    "group", [g for _, g in SMALL_GROUPS], ids=[name for name, _ in SMALL_GROUPS]
)
def test_table_read_chain_matches_a_full_build_on_small_groups(group, respect_colors):
    pairs = inverse_pairs(group)
    for mask in range(1 << len(pairs)):
        graph = build_cayley(group, mask_to_connection_set(group, pairs, mask))
        _assert_chain_matches_a_full_build(graph, respect_colors)


def _renumbered(group, seed):
    """group with its elements renumbered at random, the identity off 0."""
    rng = np.random.default_rng(seed)
    new = rng.permutation(group.order)
    while new[group.identity] == 0:
        new = rng.permutation(group.order)
    mult = np.empty_like(group.mult_array)
    mult[np.ix_(new, new)] = new[group.mult_array]
    labels = [""] * group.order
    for a, label in enumerate(group.labels):
        labels[new[a]] = label
    return GroupTable.from_mult(mult, labels, name=group.name)


# The groups the verdict-stream benchmark serves.
STREAM_GROUPS = (
    "d16", "q8xz2^2", "z2xz16", "z35", "d25", "d27", "z7xz9", "z3xf21", "z5xf21",
)


def test_table_read_chain_matches_a_full_build_when_the_identity_is_not_vertex_0():
    grew, stayed = 0, 0
    for name in STREAM_GROUPS:
        group = _renumbered(group_from_name(name), seed=len(name))
        assert group.identity != 0
        pairs = inverse_pairs(group)
        rng = random.Random(name)
        for _ in range(4):
            while True:
                chosen = rng.sample(range(len(pairs)), rng.randint(2, 5))
                members = {e for i in chosen for e in pairs[i]}
                if len(subgroup_generated(group, members)) == group.order:
                    break
            graph = build_cayley(group, members)
            for respect_colors in (True, False):
                order = _assert_chain_matches_a_full_build(graph, respect_colors)
                grew += order > group.order
                stayed += order == group.order
    # Both cases ran: levels below the top, and none (the group is G_L).
    assert grew and stayed



# The groups the sweep benchmark decides every connected set of.
SWEEP_GROUPS = ("f21", "z3xs3", "z2xq8", "d8", "z3xz9")


def test_table_read_chain_matches_a_full_build_on_the_sweep_roster():
    # The color group's search starts at {0}, {1..n-1}; matrix_aut_group
    # starts from the unit partition, which the translations keep as one
    # cell, and individualizes vertex 0 first.  Both paths meet there, so
    # the same generators come out.
    grew = checked = 0
    for name in SWEEP_GROUPS:
        group = group_from_name(name)
        pairs = inverse_pairs(group)
        for mask, _ in connection_set_orbits(group, connected_only=True)[::3]:
            graph = build_cayley(group, mask_to_connection_set(group, pairs, mask))
            grew += _assert_chain_matches_a_full_build(graph, True) > group.order
            checked += 1
    assert grew > checked // 4


def _assert_table_sides_refine_as_the_scan(graph):
    """The sides read off the identity row refine exactly as the scanned
    ones, from {0}, {1..n-1} and from the unit partition."""
    n = graph.n
    for matrix in (graph.color_matrix, graph.uncolored_matrix):
        scan = search._Struct(matrix, False)
        table = search._Struct(matrix, False, graph.group)
        assert len(table.sides) == len(scan.sides)
        for root in (search._top_root(n), np.zeros(n, np.intp)):
            ids, _, trace = search._refine(scan, root)
            ids2, _, trace2 = search._refine(table, root)
            assert np.array_equal(ids, ids2) and trace == trace2


def test_identity_row_sides_refine_as_the_matrix_scan():
    for name in SWEEP_GROUPS:  # relabeled, the identity off vertex 0
        group = _renumbered(group_from_name(name), seed=len(name))
        pairs = inverse_pairs(group)
        for mask, _ in connection_set_orbits(group, connected_only=True)[::9]:
            _assert_table_sides_refine_as_the_scan(
                build_cayley(group, mask_to_connection_set(group, pairs, mask))
            )
    rng = random.Random(24)
    for name in STREAM_GROUPS:
        group = group_from_name(name)
        pairs = inverse_pairs(group)
        for k in (2, 4):
            members = {e for i in rng.sample(range(len(pairs)), k) for e in pairs[i]}
            _assert_table_sides_refine_as_the_scan(build_cayley(group, members))
    # A digraph set that is not inverse-closed has two sides; one of
    # involutions only, each its own inverse, has one.
    for group, members, sides in ((make_cyclic(7), {1, 2}, 2), (make_dihedral(4), {4, 5}, 1)):
        digraph = build_cayley(group, members, digraph_mode=True)
        _assert_table_sides_refine_as_the_scan(digraph)
        assert len(search._Struct(digraph.color_matrix, False, group).sides) == sides


def _constant_tables(monkeypatch):
    """Every hash word equal: no vertex cell ever splits by refinement."""
    monkeypatch.setattr(
        search, "_hash_table", lambda size, salt: np.full(size, 7, dtype=np.uint64)
    )


def test_a_hash_that_never_splits_leaves_every_answer_exact(monkeypatch):
    # With every hash equal, refinement splits nothing, so only the
    # individualized vertices are singletons and the leaf check decides.
    _constant_tables(monkeypatch)
    p5 = _graph_matrix(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ids, _, trace = search._refine(search._Struct(p5, False), np.zeros(5, np.intp))
    assert not ids.any() and len(trace) == 1
    checked = 0
    for name, group in SMALL_GROUPS:
        if group.order > 7:
            continue
        pairs = inverse_pairs(group)
        graphs = []
        for mask in range(1 << len(pairs)):
            cs = mask_to_connection_set(group, pairs, mask)
            graph = build_cayley(group, cs)
            plain = types.SimpleNamespace(n=graph.n, color_matrix=graph.uncolored_matrix)
            assert color_preserving_group(graph).order() == len(brute_force_color_perms(graph))
            assert uncolored_aut_group(graph).order() == len(brute_force_color_perms(plain))
            graphs.append(graph)
        for g1, g2 in itertools.product(graphs, repeat=2):
            if g1.valency != g2.valency:
                continue
            for respect_colors, mode in ((True, "bijection"), (False, "exact")):
                m1 = g1.color_matrix if respect_colors else g1.uncolored_matrix
                m2 = g2.color_matrix if respect_colors else g2.uncolored_matrix
                found = are_isomorphic(g1, g2, respect_colors)
                assert (found is not None) == _brute_isomorphism_exists(m1, m2, mode)
                checked += 1
    assert checked > 100


def test_a_hash_with_two_values_keeps_the_f21_census(monkeypatch):
    # Fully constant tables leave the F21 searches without refinement, which
    # is a factorial search at n = 21; two values per table collide on most
    # signatures but still refine.
    expected = f21_census()
    monkeypatch.setattr(
        search,
        "_hash_table",
        lambda size, salt: np.arange(size, dtype=np.uint64) % np.uint64(2) + np.uint64(1),
    )
    report = f21_census()
    check_f21_census(report)
    assert report.rows == expected.rows
    assert report.noncca_sets_per_class == expected.noncca_sets_per_class == [21]


@pytest.mark.parametrize("digraph_mode", [False, True], ids=["graph", "digraph"])
def test_root_traces_survive_vertex_relabelling(digraph_mode):
    # A Cayley graph is vertex-transitive, so the trace below {0}, {1..n-1}
    # does not depend on which vertex is called 0; the kept root, read off
    # the group table, has the trace of the scanned matrix.
    rng = np.random.default_rng(23)
    for name in ("f21", "z3xs3", "q8", "z2xz4"):
        group = group_from_name(name)
        pairs = inverse_pairs(group)
        for size in (1, 2, 3):
            chosen = rng.choice(len(pairs), size=size, replace=False).tolist()
            members = [x for i in chosen for x in pairs[i]]
            if digraph_mode:
                members = members[::2]
            graph = build_cayley(group, members, digraph_mode=digraph_mode)
            top = search._top_root(graph.n)
            for relabel in (False, True):
                for colored in (True, False):
                    kept = search._graph_root(graph, colored, relabel)[1][2]
                    matrix = graph.color_matrix if colored else graph.uncolored_matrix
                    for x in (matrix, _relabeled(rng, matrix, recolor=relabel)):
                        trace = search._refine(search._Struct(x, relabel), top)[2]
                        assert trace == kept, (name, members)


@pytest.mark.parametrize("symmetric", [True, False])
def test_irregular_matrices_refine_alike_after_relabelling(symmetric):
    # Rows of unequal length are padded; the unit partition's trace and the
    # isomorphism found must not depend on the vertex numbering.
    rng = np.random.default_rng(29)
    padded = 0
    for n in (5, 7, 9, 12):
        m = _random_matrix(rng, n, colors=3, symmetric=symmetric)
        degrees = np.count_nonzero(m, axis=1)
        padded += degrees.min() < degrees.max()
        root = np.zeros(n, dtype=np.intp)
        for relabel, mode in ((False, "exact"), (True, "bijection")):
            other = _relabeled(rng, m, recolor=relabel)
            traces = [
                search._refine(search._Struct(x, relabel), root)[2] for x in (m, other)
            ]
            assert traces[0] == traces[1]
            found = matrix_isomorphism(m, other, match_colors=mode)
            assert found is not None
            assert color_bijection_between(m, other, found) is not None
    assert padded >= 3


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: are_isomorphic(
                cycle_graph(5), build_cayley(make_cyclic(5), {1, 4}, digraph_mode=True), False
            ),
            "mixed graph and digraph modes",
        ),
        (lambda: two_closure(PermGroup(151, [(*range(1, 151), 0)])), "degree capped at 150"),
    ],
    ids=["mixed modes", "two_closure at degree 151"],
)
def test_documented_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
