import gc
import itertools
import random
import weakref

import numpy as np
import pytest

import time

from ccakit import groups, perms
from ccakit.groups import (
    _MAX_NESTING,
    MAX_GROUP_ORDER,
    GroupTable,
    _group_from_text,
    _is_associative,
    direct_product,
    group_automorphisms,
    group_from_name,
    is_normal,
    is_subgroup,
    left_cosets,
    left_regular_group,
    left_translation,
    make_cyclic,
    make_dihedral,
    make_f21,
    make_q8,
    make_symmetric_table,
    minimal_generating_set,
    parse_elements,
    quotient,
    subgroup_generated,
    subgroup_table,
)
from ccakit.cayley import build_cayley
from ccakit.cca import _left_regular_systems, cca_verdict
from ccakit.harness import DEFAULT_ROSTER
from ccakit.perms import PermGroup
from ccakit.suites import groups_up_to_order_8
from oracles import all_subgroups, order_of


def test_cyclic_arithmetic():
    z6 = make_cyclic(6)
    assert z6.order == 6
    assert z6.mul(4, 5) == 3
    assert z6.inv[2] == 4
    assert z6.power(2, 5) == 4
    assert order_of(z6, 2) == 3
    assert z6.is_abelian


def test_f21_relations():
    g = make_f21()
    assert g.order == 21
    a = g.index_of("a")
    x = g.index_of("x")
    assert order_of(g, a) == 3
    assert order_of(g, x) == 7
    # conjugation by a squares x
    assert g.mul(g.inv[a], g.mul(x, a)) == g.power(x, 2)
    assert sorted(g.element_orders) == [1] + [3] * 14 + [7] * 6
    assert not g.is_abelian


def test_q8_structure():
    q8 = make_q8()
    assert q8.order == 8
    assert sorted(q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    i = q8.index_of("i")
    j = q8.index_of("j")
    assert q8.mul(i, i) == q8.index_of("-1")
    assert q8.mul(i, j) != q8.mul(j, i)


def test_dihedral_and_symmetric():
    d4 = make_dihedral(4)
    assert d4.order == 8 and not d4.is_abelian
    s3 = make_symmetric_table(3)
    assert s3.order == 6 and not s3.is_abelian
    assert sorted(s3.element_orders) == [1, 2, 2, 2, 3, 3]


# The groups of the sweep and verdict-stream benchmarks, and the largest
# admitted cycle.
ORDER_GROUPS = (
    "f21", "z3xs3", "z2xq8", "d8", "z3xz9",
    "d16", "q8xz2^2", "z2xz16", "z35", "d25", "d27", "z7xz9", "z3xf21", "z5xf21",
    "z2048",
)


def test_element_orders_match_order_of():
    for group in [group_from_name(name) for name in ORDER_GROUPS] + [_renumbered_f21()]:
        assert group.element_orders == tuple(order_of(group, a) for a in range(group.order))
    # Every row refers to one int object per element.
    z2048 = group_from_name("z2048")
    assert len({id(x) for row in z2048.mult[:64] for x in row}) == 2048


def test_conjugate_convention():
    d4 = make_dihedral(4)
    r = next(g for g in range(8) if order_of(d4, g) == 4)
    s = next(g for g in range(8) if order_of(d4, g) == 2 and g != d4.power(r, 2))
    # conjugate(g, x) is g^-1 x g
    assert d4.conjugate(s, r) == d4.inv[r]


def test_direct_product():
    p = direct_product(make_cyclic(2), make_cyclic(3))
    assert p.order == 6
    assert p.is_abelian
    assert p.labels[0] == "(e,e)"
    g = p.index_of("(1,1)")
    assert order_of(p, g) == 6


@pytest.mark.parametrize("pair", [("q8", "f21"), ("z1", "z3"), ("s3", "z2")])
def test_direct_product_matches_its_definition(pair):
    g, h = (group_from_name(name) for name in pair)
    p = direct_product(g, h)
    m = h.order
    assert p.order == g.order * m
    for a1, b1, a2, b2 in itertools.product(range(g.order), range(m), repeat=2):
        assert p.mult[a1 * m + b1][a2 * m + b2] == g.mult[a1][a2] * m + h.mult[b1][b2]
    assert p.identity == g.identity * m + h.identity
    assert p.inv == tuple(g.inv[a] * m + h.inv[b] for a in range(g.order) for b in range(m))
    assert p.labels == tuple(f"({x},{y})" for x in g.labels for y in h.labels)


@pytest.mark.parametrize("name", ["f21", "q8"])
def test_subgroup_tables_match_their_definition(name):
    g = group_from_name(name)
    for members in all_subgroups(g):
        sub, elems = subgroup_table(g, members)
        assert elems == tuple(sorted(members))
        for i, j in itertools.product(range(sub.order), repeat=2):
            assert elems[sub.mult[i][j]] == g.mult[elems[i]][elems[j]]
        assert sub.labels == tuple(g.labels[x] for x in elems)


@pytest.mark.parametrize("name", ["f21", "d4", "q8"])
def test_quotients_match_their_definition(name):
    g = group_from_name(name)
    normal = [s for s in all_subgroups(g) if is_normal(g, s)]
    assert len(normal) > 2
    for members in normal:
        q, coset_map = quotient(g, members)
        assert q.order * len(members) == g.order
        for a, b in itertools.product(range(g.order), repeat=2):
            assert coset_map[g.mult[a][b]] == q.mult[coset_map[a]][coset_map[b]]
        # Cosets are numbered by their smallest element, ascending.
        reps = [coset_map.index(c) for c in range(q.order)]
        assert reps == sorted(reps)
        assert all(coset_map[g.mult[a][h]] == coset_map[a] for a in range(g.order) for h in members)
        assert q.labels == tuple(f"[{g.labels[r]}]" for r in reps)


def _cyclic_oracle(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _dihedral_oracle(k):
    def idx(i, flip):
        return (i % k) + k * flip

    mult = [[0] * (2 * k) for _ in range(2 * k)]
    for i, fa, j, fb in itertools.product(range(k), range(2), range(k), range(2)):
        mult[idx(i, fa)][idx(j, fb)] = idx(i + j if fa == 0 else i - j, fa ^ fb)
    return mult


def _f21_oracle():
    def idx(i, j):
        return 3 * (i % 7) + (j % 3)

    mult = [[0] * 21 for _ in range(21)]
    for i, j, k, l in itertools.product(range(7), range(3), range(7), range(3)):
        mult[idx(i, j)][idx(k, l)] = idx(i + k * pow(4, j, 7), j + l)
    return mult


@pytest.mark.parametrize(
    "builder, oracle, args",
    [(make_cyclic, _cyclic_oracle, (n,)) for n in (1, 2, 7, 12)]
    + [(make_dihedral, _dihedral_oracle, (k,)) for k in (1, 2, 3, 8)]
    + [(make_f21, _f21_oracle, ())],
    ids=["z1", "z2", "z7", "z12", "d1", "d2", "d3", "d8", "f21"],
)
def test_closed_form_builders_match_nested_loops(builder, oracle, args):
    g = builder(*args)
    assert g.mult == tuple(map(tuple, oracle(*args)))
    assert g.identity == 0


def test_subgroups_of_f21():
    g = make_f21()
    x = g.index_of("x")
    a = g.index_of("a")
    xs = subgroup_generated(g, [x])
    assert len(xs) == 7
    assert is_subgroup(g, xs)
    assert is_normal(g, xs)
    assert not is_normal(g, subgroup_generated(g, [a]))


def test_quotient_of_f21_by_x():
    g = make_f21()
    members = subgroup_generated(g, [g.index_of("x")])
    q, coset_map = quotient(g, members)
    assert q.order == 3
    # the projection is a homomorphism
    for u in range(21):
        for v in range(21):
            assert coset_map[g.mul(u, v)] == q.mul(coset_map[u], coset_map[v])


def test_quotient_rejects_non_normal():
    g = make_f21()
    with pytest.raises(ValueError, match="not normal: conjugating") as err:
        quotient(g, subgroup_generated(g, [g.index_of("a")]))
    # The conjugating element named is a generator of G.
    named = str(err.value).split(" by ")[1].split(" gives ")[0]
    assert g.index_of(named) in minimal_generating_set(g)


def test_subgroup_table():
    g = make_f21()
    members = subgroup_generated(g, [g.index_of("x")])
    sub, elems = subgroup_table(g, members)
    assert sub.order == 7
    assert sorted(elems) == sorted(members)
    assert any(order_of(sub, s) == 7 for s in range(7))


def test_subgroup_generated_matches_a_naive_fixpoint():
    for _, g in groups_up_to_order_8():
        others = [x for x in range(g.order) if x != g.identity]
        for k in range(len(others) + 1):
            for gens in itertools.combinations(others, k):
                assert subgroup_generated(g, gens) == _naive_closure(g, gens)


def _naive_closure(g, gens):
    closed = {g.identity, *gens}
    while True:
        products = {g.mult[a][b] for a in closed for b in closed}
        if products <= closed:
            return closed
        closed |= products


def test_subgroup_generated_matches_a_naive_fixpoint_on_larger_groups():
    # Orders 32 to 105, the groups the verdict-stream benchmark serves.
    rng = random.Random(24)
    for name in STREAM_GROUPS:
        g = group_from_name(name)
        for k in (1, 2, 3, 5):
            gens = [rng.randrange(g.order) for _ in range(k)]
            # Repeats, the identity, another order and NumPy ints.
            lists = [gens, gens + gens[:1], [g.identity] + gens, rng.sample(gens, k)]
            lists.append(list(np.array(gens, dtype=np.int64)))
            closed = _naive_closure(g, gens)
            assert all(subgroup_generated(g, x) == closed for x in lists)
    assert subgroup_generated(g, []) == {g.identity}


def test_is_subgroup_matches_the_subgroup_lattice():
    # Every subset of each group of order at most 8, the empty one included.
    for _, g in groups_up_to_order_8():
        subgroups = set(all_subgroups(g))
        for mask in range(1 << g.order):
            members = [x for x in range(g.order) if mask >> x & 1]
            assert is_subgroup(g, members) == (frozenset(members) in subgroups)


def test_is_normal_matches_conjugation_by_every_element():
    names = ["f21", "z3xs3", "d8", "q8xz2", "s4", "q8xz4", "d16", "q8xz2^2", "z3xf21"]
    roster = groups_up_to_order_8() + [(name, group_from_name(name)) for name in names]
    for _, g in roster:
        for members in all_subgroups(g):
            definition = all(
                g.conjugate(x, h) in members for x in range(g.order) for h in members
            )
            assert is_normal(g, members) == definition


MEMBER_FUNCTIONS = {
    "subgroup_generated": subgroup_generated,
    "is_subgroup": is_subgroup,
    "is_normal": is_normal,
    "left_cosets": left_cosets,
    "quotient": quotient,
    "subgroup_table": subgroup_table,
}


@pytest.mark.parametrize("bad", [-3, 9, 3.0, True], ids=["negative", "too-large", "float", "bool"])
@pytest.mark.parametrize("name", MEMBER_FUNCTIONS)
def test_member_indices_are_checked(name, bad):
    # -3 would index a row from its end; 9 and 3.0 would fail inside the lookups.
    with pytest.raises(ValueError, match="not an element index of Z6"):
        MEMBER_FUNCTIONS[name](make_cyclic(6), [0, bad, 3])


def test_numpy_member_indices_are_accepted():
    z6 = make_cyclic(6)
    members = np.array([0, 2, 4])
    assert subgroup_generated(z6, members[1:]) == {0, 2, 4}
    assert is_subgroup(z6, members) and is_normal(z6, members)
    assert left_cosets(z6, members).block_count == 2
    assert quotient(z6, members)[0].order == 2
    assert subgroup_table(z6, members)[1] == (0, 2, 4)


def test_all_subgroups_q8():
    q8 = make_q8()
    subs = all_subgroups(q8)
    assert len(subs) == 6
    assert all(is_normal(q8, s) for s in subs)


def test_minimal_generating_set():
    g = make_f21()
    gens = minimal_generating_set(g)
    assert len(subgroup_generated(g, gens)) == 21
    assert len(gens) == 2
    cube = group_from_name("z2^3")
    assert len(minimal_generating_set(cube)) == 3


def test_automorphism_group_orders():
    assert group_automorphisms(make_cyclic(8)).order() == 4
    assert group_automorphisms(make_q8()).order() == 24
    assert group_automorphisms(group_from_name("z2^3")).order() == 168
    assert group_automorphisms(make_symmetric_table(3)).order() == 6


def test_automorphism_chain_is_checked_against_the_proved_orbits(monkeypatch):
    # A chain built from too few generators disagrees with the orbit
    # lengths the backtrack proved, and perms.proved_chain must say so.
    q8 = make_q8()  # a new table, with nothing kept
    monkeypatch.setattr(
        perms, "PermGroup", lambda n, gens, base_prefix: PermGroup(n, gens[:1], base_prefix)
    )
    with pytest.raises(AssertionError, match="orbit lengths"):
        group_automorphisms(q8)


SMALL_GROUPS = groups_up_to_order_8()


@pytest.mark.parametrize(
    "group", [g for _, g in SMALL_GROUPS], ids=[name for name, _ in SMALL_GROUPS]
)
def test_automorphism_count_matches_brute_force(group):
    """|Aut(G)| is the number of identity-fixing bijections that are
    homomorphisms."""
    n, e = group.order, group.identity
    m = np.array(group.mult)
    others = [x for x in range(n) if x != e]
    images = list(itertools.permutations(others))
    phis = np.empty((len(images), n), dtype=np.intp)
    phis[:, e] = e
    phis[:, others] = images
    homs = (phis[:, m] == m[phis[:, :, None], phis[:, None, :]]).all(axis=(1, 2))
    auts = group_automorphisms(group)
    assert auts.order() == int(homs.sum())
    assert set(auts.generators) <= set(map(tuple, phis[homs].tolist()))


@pytest.mark.parametrize(
    "group", [g for _, g in SMALL_GROUPS], ids=[name for name, _ in SMALL_GROUPS]
)
def test_center_and_commutativity_match_their_definition(group):
    commutes = {
        (a, b) for a in range(group.order) for b in range(group.order)
        if group.mult[a][b] == group.mult[b][a]
    }
    center = {
        z for z in range(group.order) if all((z, g) in commutes for g in range(group.order))
    }
    assert group.is_abelian == (len(center) == group.order) == (len(commutes) == group.order**2)


def test_left_regular_group():
    g = make_f21()
    reg = left_regular_group(g)
    assert reg.order() == 21
    assert reg.is_transitive() and reg.is_semiregular()
    t = left_translation(g, g.index_of("a"))
    assert t[g.identity] == g.index_of("a")
    assert reg.contains(t)


# The groups the verdict-stream benchmark serves.
STREAM_GROUPS = (
    "d16", "q8xz2^2", "z2xz16", "z35", "d25", "d27", "z7xz9", "z3xf21", "z5xf21",
)


@pytest.mark.parametrize(
    "group",
    [g for _, g in SMALL_GROUPS] + [group_from_name(name) for name in STREAM_GROUPS],
    ids=[name for name, _ in SMALL_GROUPS] + list(STREAM_GROUPS),
)
def test_left_regular_group_read_off_the_table(group):
    # The chain read off the table is the one Schreier-Sims builds.
    n = group.order
    translations = [left_translation(group, g) for g in range(n)]
    reference = PermGroup(n, translations)
    reg = left_regular_group(group)
    assert reg.order() == reference.order() == n
    assert reg.base == reference.base
    assert set(reg.elements()) == set(reference.elements()) == set(translations)
    rights = [tuple(group.mult[x][g] for x in range(n)) for g in range(n)]
    others = rights + list(group_automorphisms(group).generators)
    assert [reg.contains(p) for p in others] == [reference.contains(p) for p in others]


def _renumbered_f21():
    """F21 with element a renumbered to new[a]; its identity is not 0."""
    f21 = make_f21()
    new = np.random.default_rng(7).permutation(21)
    mult = np.empty_like(f21.mult_array)
    mult[np.ix_(new, new)] = new[f21.mult_array]
    labels = [""] * 21
    for a, label in enumerate(f21.labels):
        labels[new[a]] = label
    return GroupTable.from_mult(mult, labels, name="F21")


@pytest.mark.parametrize(
    "group",
    [g for _, g in SMALL_GROUPS] + [_renumbered_f21()],
    ids=[name for name, _ in SMALL_GROUPS] + ["f21-renumbered"],
)
def test_left_cosets_match_their_definition(group):
    for members in all_subgroups(group):
        cosets = left_cosets(group, members)
        rows = [frozenset(group.mult[g][h] for h in members) for g in range(group.order)]
        assert {frozenset(blk) for blk in cosets.blocks} == set(rows)
        # Numbered by least element, ascending, as quotient numbers them.
        leasts = sorted({min(row) for row in rows})
        assert cosets.block_of == tuple(leasts.index(min(row)) for row in rows)
        if is_normal(group, members):
            assert quotient(group, members)[1] == cosets.block_of
    assert group.order < 21 or group.identity != 0


def test_per_table_caches_die_with_their_table():
    # Every value kept for a table is dropped with it: none refers back.
    table = direct_product(make_cyclic(3), make_f21())
    members = {table.index_of("(1,e)"), table.index_of("(2,e)")}
    members |= set(parse_elements(table, "(e,a),(e,a^2),(e,x),(e,x^6)"))
    assert cca_verdict(build_cayley(table, members)).is_cca
    group_automorphisms(table)
    gl = left_regular_group(table)
    systems = _left_regular_systems(table)
    assert minimal_generating_set(table) and systems is _left_regular_systems(table)
    refs = [weakref.ref(table), weakref.ref(gl), weakref.ref(systems[0])]
    del table, gl, systems
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_parse_elements():
    g = make_f21()
    got = parse_elements(g, "a,a^-1,ax,(ax)^-1")
    assert len(got) == 4
    assert {g.labels[i] for i in got} == {"a", "a^2", "x^4a", "x^6a^2"}
    with pytest.raises(ValueError):
        parse_elements(g, "b")
    # nesting is refused before the recursion that reads it
    deepest = "(" * _MAX_NESTING + "a" + ")" * _MAX_NESTING
    assert parse_elements(g, deepest) == (g.index_of("a"),)
    for depth in (_MAX_NESTING + 1, 3000):
        with pytest.raises(ValueError, match="nested deeper"):
            parse_elements(g, "x," + "(" * depth + "a" + ")" * depth)


@pytest.mark.parametrize("name", list(DEFAULT_ROSTER) + ["z3xf21", "z2xq8"])
def test_every_label_parses_back(name):
    g = group_from_name(name)
    for i, label in enumerate(g.labels):
        assert parse_elements(g, label) == (i,)
    assert parse_elements(g, ",".join(g.labels)) == tuple(range(g.order))
    if name == "z3xf21":
        x = g.index_of("(1,a)")
        assert parse_elements(g, "(1,a)^-1") == (g.inv[x],)


def test_group_from_name():
    assert group_from_name("z12").order == 12
    assert group_from_name("q8xz2^2").order == 32
    assert group_from_name("d5").order == 10
    assert group_from_name("s4").order == 24
    assert group_from_name("z3xz2^0").order == 3
    for bad in ("", "foo", "zx", "q9"):
        with pytest.raises(ValueError):
            group_from_name(bad)


def test_group_from_name_keeps_one_table_per_name():
    assert group_from_name("z3xs3") is group_from_name(" Z3 x S3 ")
    assert group_from_name("z3xs3") is not group_from_name("s3xz3")
    for bad in ("", "foo", "zx", "q9"):
        for _ in range(2):
            with pytest.raises(ValueError):
                group_from_name(bad)


@pytest.mark.parametrize(
    "name, message",
    [
        ("z1000000", "larger than 2048"),
        ("s8", "larger than 2048"),
        ("z3000", "larger than 2048"),
        ("s1000000", "larger than 2048"),
        ("z2^6xz3^2xz5", "larger than 2048"),
        ("z1^1000000", "more than 11 factors"),
        ("z2^0", "bad group name"),
    ],
)
def test_group_from_name_refuses_up_front(name, message):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        group_from_name(name)
    assert time.perf_counter() - start < 1.0


def test_groups_at_the_order_cap_build():
    assert MAX_GROUP_ORDER == 2048
    a = np.arange(MAX_GROUP_ORDER)
    assert GroupTable.from_mult((a[:, None] + a) % MAX_GROUP_ORDER).order == 2048
    try:
        assert group_from_name("z2048").order == 2048
    finally:
        _group_from_text.cache_clear()  # a 2048-element table is large to keep


def test_hamiltonian_2group_builder():
    g = group_from_name("q8xz2^2")
    assert g.order == 32
    assert not g.is_abelian


def _swap_intercalate(n, rows, cols):
    """Z_n with the 2x2 subsquare at rows x cols swapped: still a Latin
    square with a two-sided identity when row and column 0 are avoided."""
    m = [list(r) for r in make_cyclic(n).mult]
    (r1, r2), (c1, c2) = rows, cols
    assert m[r1][c1] == m[r2][c2] and m[r1][c2] == m[r2][c1]
    for r in rows:
        m[r][c1], m[r][c2] = m[r][c2], m[r][c1]
    return m


def _swap_labels(table, a, b):
    """The same table with elements a and b renamed into each other."""
    p = list(range(len(table)))
    p[a], p[b] = b, a
    n = range(len(table))
    return [[p[table[p[x]][p[y]]] for y in n] for x in n]


# The smallest non-associative loop: identity 0, every element self-inverse.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _oracle_associative(mult):
    m = np.array(mult, dtype=np.intp)
    return np.array_equal(m[m], m[:, m])


@pytest.mark.parametrize(
    "table",
    [
        _swap_intercalate(6, (1, 4), (1, 4)),
        # Element 1 of this one passes Light's test; a later generator fails.
        _swap_labels(_swap_intercalate(6, (1, 4), (1, 4)), 1, 3),
        _swap_intercalate(258, (1, 130), (2, 131)),
        LOOP5,
    ],
    ids=["z6-swap", "z6-swap-relabeled", "z258-swap", "loop5"],
)
def test_from_mult_refuses_non_associative_loops(table):
    # Latin squares with a two-sided identity and two-sided inverses, so
    # only the associativity check can refuse them.
    assert not _oracle_associative(table)
    assert not _is_associative(np.array(table, dtype=np.intp), 0)
    with pytest.raises(ValueError, match="not associative"):
        GroupTable.from_mult(table)


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "empty table"),
        ([[0, 1, 1], [1, 2, 0], [2, 0, 1]], "row 0"),
        ([[0, 1], [0, 1]], "column 0"),
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "no two-sided identity"),
        (_swap_intercalate(6, (1, 4), (2, 5)), "one-sided inverse at element 1"),
        ([[0, 1, 2], [1, 2], [2, 0, 1]], "row 1"),
        # A bad row before the first one of the wrong length is named first.
        ([[0, 1, 1], [1, 2, 0], [2, 0]], "row 0"),
        ([[1], [0]], "row 0"),
        ([[[0], [1]], [[1], [0]]], "entries must be integers"),
        # numpy stores these as int64 arrays; the bools must still be seen.
        ([[0, True], [True, 0]], "entries must be integers"),
    ],
    ids=[
        "empty", "row", "column", "identity", "inverse", "short-row", "bad-then-short",
        "long-row", "nested", "int-and-bool",
    ],
)
def test_from_mult_refusals(table, message):
    with pytest.raises(ValueError, match=message):
        GroupTable.from_mult(table)


@pytest.mark.parametrize(
    "flat",
    [[0, 1.5, 1, 0], [0, 1.9, True, 0], [False, True, True, False], ["0", "1", "1", "0"]],
    ids=["float", "float-and-bool", "bool", "string"],
)
def test_non_integer_entries_are_refused(flat):
    with pytest.raises(ValueError, match="table entries must be integers"):
        GroupTable.from_mult([flat[:2], flat[2:]])


@pytest.mark.parametrize(
    "name",
    list(DEFAULT_ROSTER) + ["z3xs3", "z2xq8", "d8", "z3xz9", "z5xf21"],
)
def test_light_test_matches_exhaustive_associativity(name):
    g = group_from_name(name)
    assert _oracle_associative(g.mult)
    assert _is_associative(np.array(g.mult, dtype=np.intp), g.identity)


def test_from_mult_keeps_its_own_array():
    a = np.arange(5)
    arr = (a[:, None] + a) % 5
    table = GroupTable.from_mult(arr)
    arr[[0, 1]] = arr[[1, 0]]
    assert table.mult[0] == (0, 1, 2, 3, 4)
    assert np.array_equal(table.mult_array, (a[:, None] + a) % 5)
    assert np.array_equal(table.mult_array, np.array(table.mult))
    assert not table.mult_array.flags.writeable


@pytest.mark.parametrize(
    "call, message",
    [
        # -1 would index from the end and give the translation by 5.
        (lambda: left_translation(make_cyclic(6), -1), r"not a point of 0\.\.5"),
        (lambda: left_translation(make_cyclic(6), 6), r"not a point of 0\.\.5"),
        (lambda: left_translation(make_cyclic(6), True), r"not a point of 0\.\.5"),
        (lambda: GroupTable.from_mult([[0, 1], [1, 0]], ["a", "a"]), "labels must be distinct"),
        (lambda: make_cyclic(0), "order must be positive"),
        (lambda: make_dihedral(0), "k must be positive"),
        (lambda: make_symmetric_table(6), "1 <= n <= 5"),
        (lambda: is_normal(make_cyclic(6), {0, 1}), "not a subgroup"),
        (lambda: subgroup_table(make_cyclic(6), {0, 1}), "not a subgroup"),
        (lambda: parse_elements(make_cyclic(5), "1,,2"), "empty element expression"),
        (lambda: parse_elements(make_cyclic(5), "(1"), "unbalanced parentheses"),
        (lambda: parse_elements(make_f21(), "x(a"), "unbalanced parentheses"),
    ],
    ids=[
        "translation by -1", "translation by 6", "translation by True", "duplicate labels",
        "cyclic of order 0", "dihedral of order 0", "symmetric table of S6",
        "is_normal of a non-subgroup", "subgroup_table of a non-subgroup", "empty item",
        "open parenthesis", "open parenthesis in a word",
    ],
)
def test_documented_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
