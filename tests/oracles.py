"""Independent oracles that only the tests use: brute-force closures and the
trivial partitions, kept apart from the library they cross-check."""

from collections import deque

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
