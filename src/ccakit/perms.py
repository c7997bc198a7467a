"""Permutations and permutation groups with deterministic stabilizer chains.

A permutation on ``0..n-1`` is an image tuple: ``p[i]`` is the image of
point ``i``.  ``pmul(a, b)`` is function composition, b applied first.

``PermGroup`` keeps its generators plus a base and strong generating set
built by the deterministic Schreier-Sims procedure: base points are the
smallest moved points (after an optional caller-supplied prefix) and orbits
are explored breadth-first in fixed generator order, so building twice from
the same generator list yields identical bases, transversals and orders.
Instances are immutable once built.

Each level of the chain stores the inverse u_x^-1 of every transversal
element next to u_x, built along the same orbit walk, so sifting and the
Schreier generators u_{s(x)}^-1 s u_x never invert a permutation; a
Schreier generator is skipped as soon as s u_x equals u_{s(x)}.

When the group order is fixed in advance (a rebased chain of a known group,
the faithful block extension in ``fixer``), Schreier-Sims stops as soon as
the product of the basic-orbit lengths reaches it.  That stop is sound:
each basic orbit of a partial chain lies inside the true one, so the
product reaches |G| only when every basic orbit is full and the strong
generating set is complete; verification would add nothing more, so the
chain is the one a full run builds (Seress, *Permutation Group
Algorithms*, 2003, ch. 4).  ``point_stabilizer`` and ``fixer`` then read
the stabilizer off the chain's tail levels.

A block system of a transitive group is held as the int bitmask of its
block through the first base point; ``all_block_systems`` closes the
minimal blocks under joins, one join per orbit of a block's stabilizer on
the blocks of its system (Seress, *Permutation Group Algorithms*, 2003,
ch. 5); ``minimal_block_system`` is Atkinson's union-find (1975) from any
seed pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

Perm = tuple[int, ...]

__all__ = [
    "Perm",
    "identity_perm",
    "pmul",
    "pinv",
    "is_identity_perm",
    "PermGroup",
    "permgroup_from_elements",
    "orbit_of_point",
    "orbits_of_gens",
    "proved_orbits",
    "BlockSystem",
    "minimal_block_system",
    "all_block_systems",
    "block_action",
    "fixer",
    "is_normal_subgroup",
    "point_stabilizer",
]


@lru_cache(maxsize=64)
def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def pmul(a: Perm, b: Perm) -> Perm:
    """Compose: apply ``b`` first, then ``a``."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    # itemgetter needs an index and returns a bare item for exactly one.
    return tuple(a[x] for x in b)


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def is_identity_perm(p: Perm) -> bool:
    return p == identity_perm(len(p))


def _as_perm(p: Sequence[int], degree: int) -> Perm:
    """p as a tuple of Python ints, or ValueError unless it permutes
    0..degree-1.  Entries are read through operator.index, so NumPy
    integers become ints and floats are refused."""
    try:
        t = tuple(p)
        # Only a tuple of ints sums to an int; it is kept, not copied.
        if type(sum(t)) is not int:
            t = tuple(map(index, t))
    except TypeError:
        raise ValueError(f"not a permutation of 0..{degree - 1}: {p!r}") from None
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise ValueError(f"not a permutation of 0..{degree - 1}: {t!r}")
    return t


class _Level:
    """One level of a stabilizer chain.

    ``gens`` are the strong generators placed here: they fix every earlier
    base point and move this one.  ``gen_invs`` holds their inverses.  The
    transversal maps each point x of the basic orbit to u_x, with
    u_x(base) = x, and ``inverses`` maps x to u_x^-1.
    """

    __slots__ = ("base", "gens", "gen_invs", "transversal", "inverses")

    def __init__(self, base: int) -> None:
        self.base = base
        self.gens: list[Perm] = []
        self.gen_invs: list[Perm] = []
        self.transversal: dict[int, Perm] = {}
        self.inverses: dict[int, Perm] = {}

    def add(self, g: Perm) -> None:
        self.gens.append(g)
        self.gen_invs.append(pinv(g))

    def cut(self, n: int) -> "_Level":
        """This level on the points 0..n-1, which all its elements preserve."""
        out = _Level(self.base)
        out.gens = [g[:n] for g in self.gens]
        out.gen_invs = [g[:n] for g in self.gen_invs]
        out.transversal = {x: u[:n] for x, u in self.transversal.items()}
        out.inverses = {x: u[:n] for x, u in self.inverses.items()}
        return out


class PermGroup:
    """A permutation group of fixed degree with a stabilizer chain."""

    def __init__(
        self,
        degree: int,
        generators: Iterable[Sequence[int]] = (),
        base_prefix: Sequence[int] = (),
        *,
        _order: int | None = None,
    ) -> None:
        # _order, when given, is the order of the generated group, known in
        # advance; Schreier-Sims stops once the chain reaches it.
        self.degree = degree
        gens: list[Perm] = []
        seen: set[Perm] = set()
        for g in generators:
            p = _as_perm(g, degree)
            if is_identity_perm(p) or p in seen:
                continue
            seen.add(p)
            gens.append(p)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._levels: list[_Level] = [_Level(b) for b in base_prefix]
        for g in self.generators:
            self._place(g)
        self._schreier_sims(_order)

    @classmethod
    def _from_levels(
        cls,
        degree: int,
        levels: list[_Level],
        generators: tuple[Perm, ...] | None = None,
    ) -> PermGroup:
        """The group of a complete chain, such as the tail of a longer one.

        Its generators are the given tuple, kept as it is: the caller
        vouches that they generate the chain's group.  Without it they are
        the chain's strong generators in level order, so they equal those
        of a fresh build from them.  No Schreier-Sims runs.
        """
        group = cls.__new__(cls)
        group.degree = degree
        if generators is None:
            generators = tuple(dict.fromkeys(g for lvl in levels for g in lvl.gens))
        group.generators = generators
        group._levels = levels
        return group

    # -- chain construction ------------------------------------------------

    def _place(self, g: Perm) -> None:
        """Attach g to the first level whose base it moves, extending the chain."""
        for lvl in self._levels:
            if g[lvl.base] != lvl.base:
                lvl.add(g)
                return
        self._levels.append(_Level(min(i for i, x in enumerate(g) if x != i)))
        self._levels[-1].add(g)

    def _level_gens(self, i: int) -> list[tuple[Perm, Perm]]:
        """Strong generators of the i-th chain group, each with its inverse."""
        return [
            pair for lvl in self._levels[i:] for pair in zip(lvl.gens, lvl.gen_invs)
        ]

    def _rebuild_orbit(self, i: int) -> None:
        lvl = self._levels[i]
        gens = self._level_gens(i)
        ident = identity_perm(self.degree)
        transversal = lvl.transversal = {lvl.base: ident}
        inverses = lvl.inverses = {lvl.base: ident}
        queue = deque([lvl.base])
        while queue:
            x = queue.popleft()
            ux, vx = transversal[x], inverses[x]
            for s, s_inv in gens:
                y = s[x]
                if y not in transversal:
                    transversal[y] = pmul(s, ux)
                    inverses[y] = pmul(vx, s_inv)
                    queue.append(y)

    def _sift(self, g: Perm, start: int) -> tuple[Perm, int]:
        """Reduce g through levels >= start; return (residue, stuck level)."""
        i = start
        while i < len(self._levels):
            lvl = self._levels[i]
            x = g[lvl.base]
            if x != lvl.base:
                v = lvl.inverses.get(x)
                if v is None:
                    return g, i
                g = pmul(v, g)
            i += 1
        return g, len(self._levels)

    def _schreier_sims(self, order: int | None) -> None:
        # Verify levels deepest-first; a residue lodged at level j is new to
        # every chain group strictly below its origin, so verification
        # restarts from j and dribbles back up.
        for i in range(len(self._levels)):
            self._rebuild_orbit(i)
        i = len(self._levels) - 1
        while i >= 0 and (order is None or self.order() != order):
            j = self._verify_level(i)
            i = i - 1 if j is None else j

    def _verify_level(self, i: int) -> int | None:
        """Sift the Schreier generators u_{s(x)}^-1 s u_x of level i.

        The first nontrivial residue is added as a strong generator and the
        orbits it changes are rebuilt; returns the level it joined, or None
        when every Schreier generator sifts to the identity.
        """
        lvl = self._levels[i]
        gens = self._level_gens(i)
        for x in sorted(lvl.transversal):
            ux = lvl.transversal[x]
            for s, _ in gens:
                su = pmul(s, ux)
                y = s[x]
                if su == lvl.transversal[y]:
                    continue
                h, j = self._sift(pmul(lvl.inverses[y], su), i + 1)
                if not is_identity_perm(h):
                    self._place(h)
                    for k in range(i + 1, j + 1):
                        self._rebuild_orbit(k)
                    return j
        return None

    # -- queries -----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.base for lvl in self._levels)

    def strong_generators_by_level(self) -> tuple[tuple[Perm, ...], ...]:
        return tuple(tuple(lvl.gens) for lvl in self._levels)

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self._levels)

    def contains(self, p: Sequence[int]) -> bool:
        g = _as_perm(p, self.degree)
        residue, _ = self._sift(g, 0)
        return is_identity_perm(residue)

    def elements(self, limit: int = 200_000) -> Iterator[Perm]:
        """Iterate all elements in deterministic chain order."""
        if self.order() > limit:
            raise ValueError(f"group order {self.order()} exceeds limit {limit}")

        def rec(i: int) -> Iterator[Perm]:
            if i == len(self._levels):
                yield identity_perm(self.degree)
                return
            lvl = self._levels[i]
            for x in sorted(lvl.transversal):
                u = lvl.transversal[x]
                for rest in rec(i + 1):
                    yield pmul(u, rest)

        return rec(0)

    def orbits(self) -> list[tuple[int, ...]]:
        return orbits_of_gens(self.degree, self.generators)

    def orbit(self, point: int) -> tuple[int, ...]:
        return orbit_of_point(point, self.generators)

    def is_transitive(self) -> bool:
        return self.degree <= 1 or len(self.orbit(0)) == self.degree

    def is_semiregular(self) -> bool:
        """True when every point stabilizer is trivial.

        By orbit-stabilizer this holds exactly when every orbit has full
        group size.
        """
        n = self.order()
        return all(len(o) == n for o in self.orbits())

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def permgroup_from_elements(degree: int, perms: Iterable[Sequence[int]]) -> PermGroup:
    """Build a group from an explicit element list, keeping few generators.

    The list must be closed under composition (it is reduced, not closed).
    """
    perms = [_as_perm(p, degree) for p in perms]
    gens: list[Perm] = []
    group = PermGroup(degree, [])
    for p in perms:
        if not group.contains(p):
            gens.append(p)
            group = PermGroup(degree, gens)
    count = len(set(perms))
    if group.order() != count:
        raise ValueError(
            f"element list of size {count} is not closed: chain order {group.order()}"
        )
    return group


def orbit_of_point(point: int, gens: Sequence[Perm]) -> tuple[int, ...]:
    seen = {point}
    queue = deque([point])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def orbits_of_gens(degree: int, gens: Sequence[Perm]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    assigned = [False] * degree
    for p in range(degree):
        if assigned[p]:
            continue
        orb = orbit_of_point(p, gens)
        for x in orb:
            assigned[x] = True
        out.append(orb)
    return out


def proved_orbits(
    known: Sequence[Perm],
    levels: Iterable[tuple[int, Iterable[int], Callable[[int], Perm | None]]],
) -> tuple[list[Perm], list[int]]:
    """The elements a backtrack finds and the orbit lengths it proves, one
    base point at a time.

    Each level is (b, candidates, search): a base point; every point of
    b's orbit under the stabilizer S of the earlier base points that the
    known elements may not reach; and a search that returns an element of
    S taking b to a candidate w, or None when there is none.  The orbit
    grows under the known and found elements that fix the earlier base
    points (weak pruning), and each candidate outside it gets one search.
    So each orbit is proved, and the product of the lengths is the order
    of the group searched (orbit-stabilizer): _check_chain_order holds a
    chain of the known and found elements to it."""
    found: list[Perm] = []
    prefix: list[int] = []
    lengths: list[int] = []
    for b, candidates, search in levels:
        fixing = [g for g in (*known, *found) if all(g[p] == p for p in prefix)]
        orbit = set(orbit_of_point(b, fixing))
        for w in candidates:
            if w in orbit:
                continue
            g = search(w)
            if g is not None:
                found.append(g)
                fixing.append(g)
                orbit = set(orbit_of_point(b, fixing))
        lengths.append(len(orbit))
        prefix.append(b)
    return found, lengths


def _check_chain_order(order: int, lengths: Sequence[int]) -> None:
    """AssertionError unless a chain's order is the product of the orbit
    lengths proved_orbits proved."""
    if order != prod(lengths):
        raise AssertionError(
            f"chain order {order} differs from the searched orbit lengths {list(lengths)}"
        )


# -- block systems ----------------------------------------------------------


@dataclass(frozen=True)
class BlockSystem:
    """A partition of 0..n-1 into equal-size blocks, canonically ordered.

    Blocks are numbered by their smallest element, ascending; ``block_of[p]``
    is the index of the block containing p.
    """

    degree: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    @staticmethod
    def from_blocks(degree: int, blocks: Iterable[Iterable[int]]) -> "BlockSystem":
        blks = sorted(tuple(sorted(b)) for b in blocks)
        seen: list[int] = []
        for b in blks:
            seen.extend(b)
        if sorted(seen) != list(range(degree)):
            raise ValueError("blocks do not partition 0..n-1")
        sizes = {len(b) for b in blks}
        if len(sizes) != 1:
            raise ValueError(f"blocks have unequal sizes {sorted(sizes)}")
        block_of = [0] * degree
        for i, b in enumerate(blks):
            for p in b:
                block_of[p] = i
        return BlockSystem(degree, tuple(blks), tuple(block_of))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _uf_blocks(uf: _UnionFind, degree: int) -> BlockSystem:
    groups: dict[int, list[int]] = {}
    for p in range(degree):
        groups.setdefault(uf.find(p), []).append(p)
    return BlockSystem.from_blocks(degree, groups.values())


def minimal_block_system(group: PermGroup, seed: tuple[int, int]) -> BlockSystem:
    """The finest block system of a transitive group merging the seed pair.

    Atkinson's algorithm (1975): union-find over the pairs of images the
    generators force from the seed pair.  It works from any seed and needs
    no stabilizer chain, so it stays the independent cross-check of the
    atoms ``all_block_systems`` reads off the chain.
    """
    if not group.is_transitive():
        raise ValueError("block systems require a transitive group")
    a, b = seed
    if a == b:
        raise ValueError("seed points must differ")
    uf = _UnionFind(group.degree)
    queue: deque[tuple[int, int]] = deque()
    uf.union(a, b)
    queue.append((a, b))
    while queue:
        x, y = queue.popleft()
        for g in group.generators:
            gx, gy = g[x], g[y]
            if uf.find(gx) != uf.find(gy):
                uf.union(gx, gy)
                queue.append((gx, gy))
    system = _uf_blocks(uf, group.degree)
    return system


def all_block_systems(group: PermGroup) -> list[BlockSystem]:
    """Every block system of a transitive group except the singletons,
    sorted by ``block_of``; ``[]`` for degree 1.

    Each system is held as one int bitmask: its block through b0, the first
    base point of the group's chain.  Systems are invariant, so seeding at
    b0 finds the same systems as seeding at any other point.

    Blocks B through b0 correspond to the subgroups K_B containing Stab(b0),
    K_B being B's setwise stabilizer and B = K_B(b0) (Seress, *Permutation
    Group Algorithms*, 2003, ch. 5).  The atom of p, the minimal block
    containing {b0, p}, is the orbit of b0 under K = <Stab(b0), u_p>, where
    u_p is the level-0 transversal element taking b0 to p and Stab(b0) is
    generated by the chain's strong generators past level 0.  The atom is
    the same for every p in one suborbit (orbit of Stab(b0)) and for its
    paired suborbit, that of u_p^-1(b0), so one atom is computed per pair.
    The same minimal blocks come from Atkinson's union-find (1975) in
    ``minimal_block_system``.

    Every block through b0 is the join of the atoms inside it, so joining
    each block found with every atom not inside it reaches every system.
    The join J of a block B with the atom of p is the smallest block
    containing B and p, and its stabilizer is generated by K_B and u_p; so
    each block keeps the points q, one per join that built it, whose u_q
    generate K_B with Stab(b0).  Every k in K_B maps J to a block meeting
    J in B, so to J itself: J depends only on the K_B-orbit of the block of
    B's system that holds p.  One join is made per such orbit, read off the
    cached block table, and none twice with the same atom.  The join of two
    blocks starts from their union and ORs in every block of either system
    that meets it until nothing changes.

    The blocks of the system through B are its images u_x(B), cached per
    call as a per-point block table in least-point order, with a check
    that no two images overlap; each system is built from that table
    directly.
    """
    n = group.degree
    if n <= 1:
        return []
    if not group.is_transitive():
        raise ValueError("block systems require a transitive group")
    b0 = group.base[0]
    transversal = group._levels[0].transversal
    stab_gens = [g for lvl in group.strong_generators_by_level()[1:] for g in lvl]

    atom_of = [0] * n  # per point p != b0, the bitmask of its atom
    seeds: dict[int, tuple[int, ...]] = {}  # block -> points q generating K_B
    for p in range(n):
        if p == b0 or atom_of[p]:
            continue
        u = transversal[p]
        atom = sum(1 << x for x in orbit_of_point(b0, stab_gens + [u]))
        for x in orbit_of_point(p, stab_gens) + orbit_of_point(u.index(b0), stab_gens):
            atom_of[x] = atom
        seeds.setdefault(atom, (p,))

    cache: dict[int, tuple[list[int], list[int], list[int]]] = {}

    def system_of(block: int) -> tuple[list[int], list[int], list[int]]:
        """The system of ``block``: per point the bitmask and the index of
        the block holding it, and the least point of each block, ascending."""
        if block not in cache:
            members = [x for x in range(n) if block >> x & 1]
            at = [0] * n
            index = [0] * n
            firsts: list[int] = []
            covered = 0
            for x in range(n):
                if not at[x]:
                    image = [transversal[x][y] for y in members]
                    mask = sum(1 << y for y in image)
                    if mask & covered:
                        raise ValueError("blocks do not partition 0..n-1")
                    covered |= mask
                    for y in image:
                        at[y] = mask
                        index[y] = len(firsts)
                    firsts.append(x)
            cache[block] = at, index, firsts
        return cache[block]

    def join(a: int, b: int) -> int:
        at_a, at_b = system_of(a)[0], system_of(b)[0]
        while True:
            # Grow a, a union of its system's blocks, over every block meeting b.
            rest = b & ~a
            while rest:
                blk = at_a[(rest & -rest).bit_length() - 1]
                a |= blk
                rest &= ~blk
            if a == b:
                return a
            a, b, at_a, at_b = b, a, at_b, at_a

    queue = list(seeds)
    while queue:
        block = queue.pop()
        _, index, firsts = system_of(block)
        gens = stab_gens + [transversal[q] for q in seeds[block]]
        seen = [False] * len(firsts)
        seen[index[b0]] = True
        tried = set()
        for i, p in enumerate(firsts):
            if seen[i]:
                continue
            # Block i opens a new K_B-orbit of blocks: mark it, join once.
            seen[i] = True
            stack = [p]
            while stack:
                x = stack.pop()
                for g in gens:
                    y = g[x]
                    if not seen[index[y]]:
                        seen[index[y]] = True
                        stack.append(y)
            atom = atom_of[p]
            if atom in tried:
                continue
            tried.add(atom)
            joined = join(block, atom)
            if joined not in seeds:
                seeds[joined] = seeds[block] + (p,)
                queue.append(joined)

    systems = []
    for block in seeds:
        _, index, firsts = system_of(block)
        blocks: list[list[int]] = [[] for _ in firsts]
        for y, i in enumerate(index):
            blocks[i].append(y)
        # tuple() of a list, not of a generator: on CPython 3.11 the generator
        # form left about 0.6 MB in the tuple free lists over the sweep roster.
        systems.append(BlockSystem(n, tuple([tuple(b) for b in blocks]), tuple(index)))
    systems.sort(key=lambda bs: bs.block_of)
    return systems


def _block_image(g: Perm, system: BlockSystem) -> Perm | None:
    """Induced block permutation, or None if g does not respect the system."""
    image = [-1] * system.block_count
    for i, blk in enumerate(system.blocks):
        target = system.block_of[g[blk[0]]]
        for p in blk[1:]:
            if system.block_of[g[p]] != target:
                return None
        image[i] = target
    if sorted(image) != list(range(system.block_count)):
        return None
    return tuple(image)


def block_action(
    group: PermGroup, system: BlockSystem
) -> tuple[PermGroup, Callable[[Perm], Perm]]:
    """The induced action on blocks plus the projecting homomorphism."""
    if system.degree != group.degree:
        raise ValueError("degree mismatch")
    for g in group.generators:
        if _block_image(g, system) is None:
            raise ValueError(f"partition is not invariant: violated by generator {g}")

    def project(p: Perm) -> Perm:
        img = _block_image(_as_perm(p, group.degree), system)
        if img is None:
            raise ValueError("permutation does not respect the block system")
        return img

    images = [project(g) for g in group.generators]
    return PermGroup(system.block_count, images), project


def fixer(group: PermGroup, system: BlockSystem) -> PermGroup:
    """Kernel of the action on blocks: elements fixing every block setwise.

    Each generator is extended by its block action to degree n + m; a chain
    whose base starts with the m block points then stabilizes them all, so
    its levels past those points, cut to degree n, are a chain of the
    kernel.  The extension is faithful, so that chain stops at |G|.
    """
    n = group.degree
    if system.degree != n:
        raise ValueError("degree mismatch")
    m = system.block_count
    extended: list[Perm] = []
    for g in group.generators:
        img = _block_image(g, system)
        if img is None:
            raise ValueError(f"partition is not invariant: violated by generator {g}")
        extended.append(tuple(g) + tuple(n + b for b in img))
    chain = PermGroup(
        n + m, extended, base_prefix=tuple(range(n, n + m)), _order=group.order()
    )
    return PermGroup._from_levels(n, [lvl.cut(n) for lvl in chain._levels[m:]])


def is_normal_subgroup(sub: PermGroup, group: PermGroup) -> bool:
    """Whether sub is normal in group; requires sub <= group.  Generators
    the two share need neither a membership test nor a conjugation: a
    generator of sub conjugates sub onto itself."""
    if sub.degree != group.degree:
        raise ValueError("degree mismatch")
    own, theirs = set(sub.generators), set(group.generators)
    for h in sub.generators:
        if h not in theirs and not group.contains(h):
            raise ValueError("not a subgroup: generator outside the group")
    for k in group.generators:
        if k in own:
            continue
        kinv = pinv(k)
        for h in sub.generators:
            if not sub.contains(pmul(k, pmul(h, kinv))):
                return False
    return True


def point_stabilizer(group: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point: the tail of a chain rebuilt with that point
    first, which stops at the known order |G|."""
    if not 0 <= point < group.degree:
        raise ValueError("point out of range")
    rebased = PermGroup(
        group.degree, group.generators, base_prefix=(point,), _order=group.order()
    )
    return PermGroup._from_levels(group.degree, rebased._levels[1:])

