"""Finite groups as multiplication tables, with constructors and subgroup ops.

Elements are indices 0..n-1; ``mult[a][b]`` is the product.  The identity
index is derived during validation (all constructors here place it at 0).
Every table, built here or given from outside, passes ``GroupTable.from_mult``,
which validates it as one integer array: Latin square, two-sided identity,
inverses, and associativity at every order by Light's test.  Derived tables
(products, subgroups, quotients) are computed by index arithmetic on the
arrays of their parents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, wraps
from itertools import permutations
from math import factorial, gcd
from typing import Callable, Iterable, Sequence, TypeVar
from weakref import WeakKeyDictionary

import numpy as np

from .perms import BlockSystem, Perm, PermGroup, _Level, all_block_systems, orbit_of_point
from .perms import _check_chain_order, proved_orbits

__all__ = [
    "MAX_GROUP_ORDER",
    "GroupTable",
    "make_cyclic",
    "make_f21",
    "make_q8",
    "make_dihedral",
    "make_symmetric_table",
    "direct_product",
    "subgroup_generated",
    "is_subgroup",
    "is_normal",
    "left_cosets",
    "quotient",
    "subgroup_table",
    "minimal_generating_set",
    "group_automorphisms",
    "left_translation",
    "left_regular_group",
    "parse_elements",
    "group_from_name",
]


MAX_GROUP_ORDER = 2048
"""The largest order group_from_name builds.

A table holds its order**2 entries twice, as tuples of Python ints that
share one int object per element and as an int64 array, 32 MB each at
2048; the build peaks at about 160 MB resident and takes under a second.
Larger inputs raise ValueError before any table is allocated."""


def _is_associative(m: np.ndarray, identity: int) -> bool:
    """Light's test (Clifford & Preston, *The Algebraic Theory of
    Semigroups*, 1961): the g with (xg)y = x(gy) for all x, y are closed
    under products, so it suffices to test a generating set, taken greedily
    from the closure of the identity under right multiplication."""
    reached = np.zeros(len(m), dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    for g in range(len(m)):
        if reached[g]:
            continue
        if not np.array_equal(m[m[:, g]], m[:, m[g]]):
            return False
        gens.append(g)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            images = np.zeros(len(m), dtype=bool)
            images[m[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(images & ~reached)
            reached |= images
    return True


@dataclass(frozen=True, eq=False)
class GroupTable:
    """An immutable finite group given by its multiplication table: tuple
    rows in mult, and the read-only array they were validated on in
    mult_array."""

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    mult_array: np.ndarray = field(repr=False)
    name: str = field(default="group", compare=False)

    @staticmethod
    def from_mult(
        mult: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        name: str = "group",
    ) -> "GroupTable":
        n = len(mult)
        if n == 0:
            raise ValueError("empty table")
        # Only the rows before the first one of the wrong length can form an
        # array; they are checked first, so the first bad row is the one named.
        k = next((a for a, row in enumerate(mult) if len(row) != n), n)
        m = np.asarray(mult[:k]) if k else np.empty((0, n), dtype=np.intp)
        # numpy stores a list mixing ints and bools as ints, so the entries
        # of a list are also looked at; an array's dtype says it all.
        if (
            m.dtype.kind not in "iu"
            or m.shape != (k, n)
            or (
                not isinstance(mult, np.ndarray)
                and any(isinstance(x, (bool, np.bool_)) for row in mult[:k] for x in row)
            )
        ):
            raise ValueError("table entries must be integers")
        # A copy, so that no array of the caller's is kept.
        m = m.astype(np.intp)
        m.setflags(write=False)
        span = np.arange(n)
        bad = np.flatnonzero((np.sort(m, axis=1) != span).any(axis=1))
        if bad.size or k < n:
            a = bad[0] if bad.size else k
            raise ValueError(f"row {a} is not a permutation of 0..{n - 1}")
        bad = np.flatnonzero((np.sort(m, axis=0) != span[:, None]).any(axis=0))
        if bad.size:
            raise ValueError(f"column {bad[0]} is not a permutation of 0..{n - 1}")
        found = np.flatnonzero((m == span).all(axis=1) & (m == span[:, None]).all(axis=0))
        if not found.size:
            raise ValueError("no two-sided identity")
        identity = int(found[0])
        # Each row is a permutation, so it holds the identity exactly once.
        inv = np.nonzero(m == identity)[1]
        bad = np.flatnonzero(m[inv, span] != identity)
        if bad.size:
            raise ValueError(f"one-sided inverse at element {bad[0]}")
        if not _is_associative(m, identity):
            raise ValueError("multiplication is not associative")
        if labels is None:
            labels = tuple(f"g{i}" for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("labels must be distinct, one per element")
        # One int object per element, shared by every row that holds it;
        # row by row, so that no n x n list is held beside the tuples.
        rows = tuple([tuple(row.tolist()) for row in np.array(range(n), dtype=object)[m]])
        return GroupTable(n, rows, identity, tuple(inv.tolist()), labels, m, name)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def conjugate(self, g: int, x: int) -> int:
        """g^-1 * x * g."""
        return self.mul(self.mul(self.inv[g], x), g)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[a], -k)
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element, from one walk of <a> for each element
        a whose order is still unknown: if <a> has m elements, a^j has order
        m / gcd(j, m)."""
        mult, e = self.mult, self.identity
        orders = [0] * self.order
        for a in range(self.order):
            if orders[a]:
                continue
            powers, x = [e], a
            while x != e:
                powers.append(x)
                x = mult[x][a]
            m = len(powers)
            for j, p in enumerate(powers):
                orders[p] = m // gcd(j, m)
        return tuple(orders)

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mult_array, self.mult_array.T))

    def label_of(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labeled {label!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


# -- constructors -------------------------------------------------------------


def make_cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("order must be positive")
    a = np.arange(n)
    labels = ["e"] + [str(i) for i in range(1, n)]
    return GroupTable.from_mult((a[:, None] + a) % n, labels, name=f"Z{n}")


def _f21_label(i: int, j: int) -> str:
    if i == 0 and j == 0:
        return "e"
    xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
    as_ = "" if j == 0 else ("a" if j == 1 else f"a^{j}")
    return xs + as_


def make_f21() -> GroupTable:
    """The nonabelian group of order 21: x of order 7, a of order 3, a^-1 x a = x^2.

    Element x^i a^j sits at index 3i + j, so the order-7 subgroup is the set
    of indices divisible by 3.
    """
    i, j = np.divmod(np.arange(21), 3)
    twist = np.array([1, 4, 2])[j]  # 4^j mod 7
    mult = 3 * ((i[:, None] + i * twist[:, None]) % 7) + (j[:, None] + j) % 3
    labels = [_f21_label(i, j) for i in range(7) for j in range(3)]
    return GroupTable.from_mult(mult, labels, name="F21")


_Q8_UNIT_MULT = {
    (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def make_q8() -> GroupTable:
    """The quaternion group: 1, -1, i, -i, j, -j, k, -k in that order."""
    def decode(e: int) -> tuple[int, int]:
        return e % 2, e // 2

    def encode(s: int, u: int) -> int:
        return 2 * u + s

    mult = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            s1, u1 = decode(a)
            s2, u2 = decode(b)
            if u1 == 0 or u2 == 0:
                s, u = 0, u1 or u2
            else:
                s, u = _Q8_UNIT_MULT[(u1, u2)]
            mult[a][b] = encode((s1 + s2 + s) % 2, u)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return GroupTable.from_mult(mult, labels, name="Q8")


def make_dihedral(k: int) -> GroupTable:
    """Dihedral group of order 2k: rotations r^i, reflections r^i f."""
    if k < 1:
        raise ValueError("k must be positive")
    flip, i = np.divmod(np.arange(2 * k), k)
    sign = 1 - 2 * flip
    mult = (i[:, None] + sign[:, None] * i) % k + k * (flip[:, None] ^ flip)
    labels = ["e"] + [f"r^{i}" if i > 1 else "r" for i in range(1, k)]
    labels += [f"r^{i}f" if i > 1 else ("f" if i == 0 else "rf") for i in range(k)]
    return GroupTable.from_mult(mult, labels, name=f"D{k}")


def make_symmetric_table(n: int) -> GroupTable:
    """The symmetric group on n letters as a table; small n only."""
    if n < 1 or n > 5:
        raise ValueError("table form supported for 1 <= n <= 5")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    mult = [
        [index[tuple(p[q[x]] for x in range(n))] for q in elems]
        for p in elems
    ]
    labels = ["".join(str(x) for x in p) for p in elems]
    return GroupTable.from_mult(mult, labels, name=f"S{n}")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product; pair (a, b) sits at index a * |H| + b."""
    n, m = g.order, h.order
    G, H = g.mult_array, h.mult_array
    mult = (G[:, None, :, None] * m + H[None, :, None, :]).reshape(n * m, n * m)
    labels = [
        f"({g.labels[a]},{h.labels[b]})" for a in range(n) for b in range(m)
    ]
    return GroupTable.from_mult(mult, labels, name=f"{g.name}x{h.name}")


# -- subgroup machinery -------------------------------------------------------


def _element_set(group: GroupTable, members: Iterable[int]) -> frozenset[int]:
    """members as a set, or ValueError unless each is an int (a NumPy int
    too, a bool not) in 0..order-1; one look per member."""
    mem = frozenset(members)
    for x in mem:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < group.order:
            raise ValueError(f"{x!r} is not an element index of {group.name}")
    return mem


def subgroup_generated(group: GroupTable, gens: Iterable[int]) -> frozenset[int]:
    """The subgroup the gens generate: the identity's closure under them,
    one generator at a time.  A generator already in the closure is
    skipped; a new one multiplies the closure so far, which the earlier
    generators keep, and what it adds is closed under all of them."""
    mult = group.mult
    seen = {group.identity}
    reached = [group.identity]
    used: list[int] = []
    for s in _element_set(group, gens):
        if s in seen:
            continue
        used.append(s)
        old = len(reached)
        for i, u in enumerate(reached):  # grows while it is read
            row = mult[u]
            for t in used if i >= old else (s,):
                if row[t] not in seen:
                    seen.add(row[t])
                    reached.append(row[t])
    return frozenset(seen)


def is_subgroup(group: GroupTable, members: Iterable[int]) -> bool:
    mem = _element_set(group, members)
    if group.identity not in mem:
        return False
    return all(group.mul(a, b) in mem for a in mem for b in mem)


def is_normal(group: GroupTable, members: Iterable[int]) -> bool:
    """Whether a subgroup is normal; raises if members is not a subgroup.

    The g with g^-1 H g = H form a subgroup, the normalizer of H, so H is
    normal once every element of a generating set of G normalizes it."""
    mem = frozenset(members)
    if not is_subgroup(group, mem):
        raise ValueError("not a subgroup")
    return all(
        group.conjugate(g, h) in mem for g in minimal_generating_set(group) for h in mem
    )


def left_cosets(group: GroupTable, members: Iterable[int]) -> BlockSystem:
    """The left cosets gH of a subgroup H, numbered by their least element,
    ascending.  Raises ValueError when they do not partition G."""
    cosets = group.mult_array[:, sorted(_element_set(group, members))]  # row g is gH
    _, firsts = np.unique(cosets.min(axis=1), return_index=True)
    return BlockSystem.from_blocks(group.order, cosets[firsts].tolist())


def quotient(group: GroupTable, members: Iterable[int]) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns the table and the coset map.

    The cosets are numbered as left_cosets numbers them."""
    mem = frozenset(members)
    if not is_subgroup(group, mem):
        raise ValueError("not a subgroup")
    for g in minimal_generating_set(group):  # normal once each generator normalizes it
        for h in mem:
            c = group.conjugate(g, h)
            if c not in mem:
                raise ValueError(
                    f"not normal: conjugating {group.labels[h]} by "
                    f"{group.labels[g]} gives {group.labels[c]}"
                )
    cosets = left_cosets(group, mem)
    reps = [blk[0] for blk in cosets.blocks]
    mult = np.asarray(cosets.block_of)[group.mult_array[np.ix_(reps, reps)]]
    labels = [f"[{group.labels[r]}]" for r in reps]
    table = GroupTable.from_mult(mult, labels, name=f"{group.name}/N{len(mem)}")
    return table, cosets.block_of


def subgroup_table(group: GroupTable, members: Iterable[int]) -> tuple[GroupTable, tuple[int, ...]]:
    """A closed subset as its own group; returns the table and sorted elements."""
    elems = tuple(sorted(_element_set(group, members)))
    if not is_subgroup(group, elems):
        raise ValueError("not a subgroup")
    pos = np.zeros(group.order, dtype=np.intp)
    pos[list(elems)] = range(len(elems))
    mult = pos[group.mult_array[np.ix_(elems, elems)]]
    labels = [group.labels[g] for g in elems]
    table = GroupTable.from_mult(mult, labels, name=f"{group.name}_sub{len(elems)}")
    return table, elems


# -- automorphisms ------------------------------------------------------------


_T = TypeVar("_T")


def _per_table(fn: Callable[[GroupTable], _T]) -> Callable[[GroupTable], _T]:
    """fn computed once per table and kept while the table lives.

    Tables are immutable and compare by identity, so the values are kept
    under weak keys; none of them refers to its table, so a table that is
    no longer used is freed with everything kept for it."""
    kept: WeakKeyDictionary = WeakKeyDictionary()

    @wraps(fn)
    def per_table(group: GroupTable) -> _T:
        if group not in kept:
            kept[group] = fn(group)
        return kept[group]

    return per_table


@_per_table
def minimal_generating_set(group: GroupTable) -> tuple[int, ...]:
    """A small generating set, scanning elements by descending order."""
    if group.order == 1:
        return ()
    gens: list[int] = []
    current: frozenset[int] = frozenset({group.identity})
    orders = group.element_orders
    ranked = sorted(range(group.order), key=lambda g: (-orders[g], g))
    for g in ranked:
        if g in current:
            continue
        gens.append(g)
        current = subgroup_generated(group, gens)
        if len(current) == group.order:
            break
    return tuple(gens)


def _hom_on(
    group: GroupTable, gens: Sequence[int], images: Sequence[int]
) -> list[int] | None:
    """phi with phi(gens[j]) = images[j] on the subgroup the gens generate
    (-1 elsewhere), walked from the identity by phi(x·g) = phi(x)·phi(g);
    None unless every step agrees and phi is injective.  A map that passes
    every step is a homomorphism, by induction on word length."""
    mult = group.mult
    phi = [-1] * group.order
    phi[group.identity] = group.identity
    reached = [group.identity]
    for x in reached:  # grows while it is read
        for g, h in zip(gens, images):
            y, fy = mult[x][g], mult[phi[x]][h]
            if phi[y] < 0:
                phi[y] = fy
                reached.append(y)
            elif phi[y] != fy:
                return None
    return phi if len({phi[x] for x in reached}) == len(reached) else None


@_per_table
def group_automorphisms(group: GroupTable) -> PermGroup:
    """All table automorphisms, one generator image at a time.

    An automorphism is fixed by its images of gens = minimal_generating_set,
    which are the base points of perms.proved_orbits; the candidate images
    of gens[i] are the elements of its order, each searched for by one
    backtrack over the later images."""
    gens = minimal_generating_set(group)
    orders = group.element_orders
    candidates = [[h for h in range(group.order) if orders[h] == orders[g]] for g in gens]

    def extend(images: list[int]) -> Perm | None:
        """An automorphism sending gens[j] to images[j] for each j given."""
        phi = _hom_on(group, gens[: len(images)], images)
        if phi is None:
            return None
        if len(images) == len(gens):
            return tuple(phi)
        autos = (extend(images + [h]) for h in candidates[len(images)])
        return next((a for a in autos if a is not None), None)

    levels = (
        (g, candidates[i], lambda h, fixed=list(gens[:i]): extend(fixed + [h]))
        for i, g in enumerate(gens)
    )
    found, orbit_lengths = proved_orbits((), levels)
    out = PermGroup(group.order, found)
    _check_chain_order(out.order(), orbit_lengths)
    return out


def left_translation(group: GroupTable, g: int) -> Perm:
    """The translation x -> gx: the table's own row of g, not a copy."""
    return group.mult[g]


@_per_table
def left_regular_group(group: GroupTable) -> PermGroup:
    """The left translations as a permutation group.

    The representation is regular, so its chain is one level, at point 0,
    read off the table.  It is also the top level of every group containing
    the transitive G_L, such as a Cayley graph's color group.  With g0 the
    element 0, u_x is the translation by x·g0^-1 and u_x^-1 the one by
    g0·x^-1, both rows of mult, so no row is copied.  The strong generators
    are the translations by minimal_generating_set(group).  No
    Schreier-Sims runs."""
    mult, inv = group.mult, group.inv
    level = _Level(0)
    gens = minimal_generating_set(group)
    level.gens = [mult[g] for g in gens]
    level.gen_invs = [mult[inv[g]] for g in gens]
    if len(orbit_of_point(0, level.gens)) != group.order:
        raise AssertionError("the generators do not reach every element")
    row0, inv0 = mult[0], inv[0]
    level.transversal = {x: mult[row[inv0]] for x, row in enumerate(mult)}
    level.inverses = {x: mult[row0[inv[x]]] for x in range(group.order)}
    return PermGroup._from_levels(group.order, [level] if group.order > 1 else [])


@_per_table
def _left_regular_systems(group: GroupTable) -> tuple[BlockSystem, ...]:
    """The block systems of G_L, in the order of all_block_systems: the
    left coset partitions {gH} of G's subgroups H other than 1 (Dixon &
    Mortimer, *Permutation Groups*, 1996, section 1.5)."""
    return tuple(all_block_systems(left_regular_group(group)))


# -- labels, parsing, registry ------------------------------------------------


_MAX_NESTING = 100
"""The deepest parenthesis nesting parse_elements reads; each level is one
recursive call."""


def parse_elements(group: GroupTable, text: str) -> tuple[int, ...]:
    """Resolve a comma-separated list of element expressions to indices.

    Each item is either an exact label or a word in labels with optional
    parenthesized subwords and integer exponents, e.g. ``a,x^2,(ax)^-1``.
    Only commas outside parentheses separate items, so product labels such
    as ``(e,a)`` can be named.  Nesting deeper than _MAX_NESTING is refused.
    """
    out: list[int] = []
    depth, start = 0, 0
    for i, ch in enumerate(text + ","):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth > _MAX_NESTING:
            raise ValueError(f"parentheses nested deeper than {_MAX_NESTING}")
        if ch == "," and depth == 0:
            item = text[start:i].strip()
            if not item:
                raise ValueError("empty element expression")
            out.append(_parse_word(group, item))
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return tuple(out)


_EXP_RE = re.compile(r"\^(-?\d+)")


def _parse_word(group: GroupTable, word: str) -> int:
    try:
        return group.index_of(word)
    except KeyError:
        pass
    by_length = sorted(group.labels, key=len, reverse=True)
    pos = 0
    acc = group.identity
    while pos < len(word):
        ch = word[pos]
        if ch in " *·":
            pos += 1
            continue
        if ch == "(":
            depth, j = 1, pos + 1
            while j < len(word) and depth:
                depth += {"(": 1, ")": -1}.get(word[j], 0)
                j += 1
            if depth:
                raise ValueError(f"unbalanced parentheses in {word!r}")
            if word[pos:j] in group.labels:
                atom = group.index_of(word[pos:j])
            else:
                atom = _parse_word(group, word[pos + 1 : j - 1])
            pos = j
        else:
            atom = None
            for lab in by_length:
                if word.startswith(lab, pos):
                    atom = group.index_of(lab)
                    pos += len(lab)
                    break
            if atom is None:
                raise ValueError(f"cannot read element at {word[pos:]!r} in {group.name}")
        m = _EXP_RE.match(word, pos)
        if m:
            atom = group.power(atom, int(m.group(1)))
            pos = m.end()
        acc = group.mul(acc, atom)
    return acc


_ATOM_RE = re.compile(r"^([a-z]+?)(\d+)(?:\^(\d+))?$")


def group_from_name(name: str) -> GroupTable:
    """Build a group from a short name like z7, f21, q8, d4, s3, q8xz2^2.

    Tables are immutable, so one is kept per normalized name."""
    return _group_from_text(name.strip().lower().replace(" ", ""))


# Every nontrivial factor at least doubles the order.
_MAX_FACTORS = MAX_GROUP_ORDER.bit_length() - 1

# Constructor and order of each family, by the letters of its name.
_FAMILIES: dict[str, tuple[Callable[[int], GroupTable], Callable[[int], int]]] = {
    "z": (make_cyclic, int),
    "c": (make_cyclic, int),
    "d": (make_dihedral, lambda k: 2 * k),
    "s": (make_symmetric_table, factorial),
}


def _parse_factor(part: str) -> tuple[Callable[[], GroupTable], int, int] | None:
    """(constructor, order, power) of one factor of a group name, or None."""
    if part == "f21":
        return make_f21, 21, 1
    if part == "q8":
        return make_q8, 8, 1
    m = _ATOM_RE.match(part)
    if not m or m.group(1) not in _FAMILIES:
        return None
    build, order_of = _FAMILIES[m.group(1)]
    num = int(m.group(2))
    # Each family has order at least num; no factorial of a huge num.
    size = order_of(num) if num <= MAX_GROUP_ORDER else MAX_GROUP_ORDER + 1
    return partial(build, num), size, int(m.group(3) or 1)


@lru_cache(maxsize=64)
def _group_from_text(text: str) -> GroupTable:
    """Parse every factor and check the order against MAX_GROUP_ORDER, then build."""
    factors = [_parse_factor(part) for part in text.split("x")]
    # A name whose every factor has power 0 names no table.
    if None in factors or not any(power for _, _, power in factors):
        raise ValueError(f"bad group name {text!r}")
    if sum(power for _, _, power in factors) > _MAX_FACTORS:
        raise ValueError(f"group name {text!r} has more than {_MAX_FACTORS} factors")
    order = 1
    for _, size, power in factors:
        order *= size**power
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"group {text!r} is larger than {MAX_GROUP_ORDER} elements")
    tables: list[GroupTable] = []
    for make, _, power in factors:
        tables.extend([make()] * power)
    out = tables[0]
    for t in tables[1:]:
        out = direct_product(out, t)
    return out

