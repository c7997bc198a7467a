"""Independent oracles that only the tests use: brute-force closures, the
trivial partitions and a reference refinement pass, kept apart from the
library they cross-check."""

from collections import deque

import numpy as np

from ccakit import search
from ccakit.groups import GroupTable, subgroup_generated
from ccakit.perms import BlockSystem, Perm, _as_perm, _uf_blocks, _UnionFind, identity_perm, pmul


def order_of(group: GroupTable, a: int) -> int:
    """The order of a, by multiplying by a until the identity comes back."""
    k, x = 1, a
    while x != group.identity:
        x = group.mult[x][a]
        k += 1
    return k


def all_subgroups(group: GroupTable) -> list[frozenset[int]]:
    """Every subgroup, by closing the cyclic subgroups under pairwise joins."""
    if group.order > 64:
        raise ValueError("subgroup enumeration capped at order 64")
    subs: set[frozenset[int]] = {frozenset({group.identity})}
    for g in range(group.order):
        subs.add(subgroup_generated(group, [g]))
    frontier = list(subs)
    while frontier:
        new: list[frozenset[int]] = []
        for a in frontier:
            for b in list(subs):
                j = subgroup_generated(group, a | b)
                if j not in subs:
                    subs.add(j)
                    new.append(j)
        frontier = new
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def closure_of_perms(degree: int, gens) -> set[Perm]:
    """Brute-force closure of a generator list under composition."""
    gens = [_as_perm(g, degree) for g in gens]
    seen: set[Perm] = {identity_perm(degree)}
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for g in gens:
            q = pmul(g, p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def singleton_partition(degree: int) -> BlockSystem:
    return BlockSystem.from_blocks(degree, [[p] for p in range(degree)])


def one_block_partition(degree: int) -> BlockSystem:
    return BlockSystem.from_blocks(degree, [list(range(degree))])


def join_block_systems(a: BlockSystem, b: BlockSystem) -> BlockSystem:
    """Finest common coarsening of two partitions: the connected components
    of a union b."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    uf = _UnionFind(a.degree)
    for system in (a, b):
        for blk in system.blocks:
            for p in blk[1:]:
                uf.union(blk[0], p)
    return _uf_blocks(uf, a.degree)


def _lexsort_split(cells: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, int]:
    """Each cell split by the full hashes of its members, with np.lexsort on
    (cell, hash): a new piece starts where the cell or the hash changes."""
    order = np.lexsort((hashes, cells))
    cells, hashes = cells[order], hashes[order]
    starts = np.zeros(len(order), dtype=np.intp)
    starts[1:] = (cells[1:] != cells[:-1]) | (hashes[1:] != hashes[:-1])
    new = np.empty_like(starts)
    new[order] = starts.cumsum()
    return new, int(new.max()) + 1


def reference_refine(struct, ids: np.ndarray, colors: np.ndarray | None = None):
    """search._refine's passes with each member sorted by (cell, full 64-bit
    hash) and the hashes summed as an n x d product array, no trace and no
    expected one.  The same hash tables and stopping rule; returns (ids,
    colors, number of passes)."""
    n, table = struct.n, search._hash_table
    if struct.relabel and colors is None:
        colors = np.zeros(struct.k, np.intp)
    ncells, passes = int(ids.max(initial=-1)) + 1, 0
    while ncells < n:
        passes += 1
        cell_words = table(n, search._CELL)[ids]
        h = np.zeros(n, dtype=np.uint64)
        for nbrs, cols, weights, salt in struct.sides:
            if colors is not None:
                weights = table(struct.k + 1, salt)[np.concatenate(([0], colors + 1))[cols]]
            h += (weights * cell_words[nbrs]).sum(axis=1, dtype=np.uint64)
        new, count = _lexsort_split(ids, h)
        split = count > ncells
        if struct.arcs is not None:
            tails, heads, starts = struct.arcs
            pair = table(n, search._TAIL)[ids[tails]] * table(n, search._HEAD)[ids[heads]]
            new_colors, color_count = _lexsort_split(colors, np.add.reduceat(pair, starts))
            if color_count > colors.max() + 1:
                split, colors = True, new_colors
        if not split:
            break
        ids, ncells = new, count
    return ids, colors, passes
