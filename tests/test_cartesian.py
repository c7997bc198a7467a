import random
from functools import lru_cache

import pytest

from ccakit import cartesian, harness
from ccakit.cartesian import (
    _cartesian_matrix,
    _factor_product,
    _split_product,
    _stabilizer_classes,
    cartesian_decompose,
    product_structure_verdict,
    stabilizer_classes,
    strip_block_edges,
)
from ccakit.cayley import (
    ConnectionSet,
    build_cayley,
    cartesian_product,
    connection_set_mask,
    f21_noncca_connection_set,
    f21_noncca_graph,
    inverse_pairs,
    mask_orbit,
    mask_to_connection_set,
    parse_elements,
)
from ccakit.cca import cca_verdict, cca_verdict_with_group
from ccakit.groups import (
    GroupTable,
    group_automorphisms,
    group_from_name,
    left_cosets,
    make_cyclic,
    make_f21,
    subgroup_generated,
)
from ccakit.harness import _random_connected_set
from ccakit.perms import (
    BlockSystem,
    PermGroup,
    all_block_systems,
    fixer,
    point_stabilizer,
)
from ccakit.search import are_isomorphic, color_bijection_between, color_preserving_group
from oracles import singleton_partition


def cycle_graph(n):
    return build_cayley(make_cyclic(n), {1, n - 1})


def fiber_system(n, block_size):
    count = n // block_size
    return BlockSystem.from_blocks(
        n, [range(a * block_size, (a + 1) * block_size) for a in range(count)]
    )


@pytest.fixture(scope="module")
def small_product():
    prod = cartesian_product(cycle_graph(3), cycle_graph(5))
    return prod, color_preserving_group(prod)


def test_stabilizer_classes_on_small_product(small_product):
    prod, ao = small_product
    # over the 5-point fibers the classes are the 3-point fibers
    e = stabilizer_classes(ao, fiber_system(15, 5))
    assert e.block_count == 5 and e.block_size == 3
    assert e.blocks[0] == (0, 5, 10)


def per_point_fixed_sets(a, b):
    """Oracle: each point's stabilizer in the fixer, built on its own."""
    fx = fixer(a, b)
    n = a.degree
    out = []
    for p in range(n):
        gens = point_stabilizer(fx, p).generators
        out.append(frozenset(v for v in range(n) if all(g[v] == v for g in gens)))
    return out


@pytest.mark.parametrize("instance", ["small_product", "noncca", "product"])
def test_transported_fixed_sets_match_per_point_stabilizers(
    instance, small_product, noncca_ao, product_ao
):
    ao = {"small_product": small_product[1], "noncca": noncca_ao, "product": product_ao}[
        instance
    ]
    for system in all_block_systems(ao) + [singleton_partition(ao.degree)]:
        e, fixed = _stabilizer_classes(ao, system)
        assert fixed == per_point_fixed_sets(ao, system)
        # equal stabilizers <=> each point is fixed by the other's stabilizer
        for p in range(ao.degree):
            for q in range(ao.degree):
                same = q in fixed[p] and p in fixed[q]
                assert (e.block_of[p] == e.block_of[q]) == same


def count_permgroup_builds(monkeypatch):
    """The degrees of the PermGroups built from now on, one per chain build."""
    builds = []
    init = PermGroup.__init__

    def counted(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counted)
    return builds


def test_stabilizer_classes_build_one_stabilizer(monkeypatch, product_ao):
    # The fixer's chain and one point stabilizer: nothing per fixer orbit.
    builds = count_permgroup_builds(monkeypatch)
    _stabilizer_classes(product_ao, fiber_system(105, 21))
    assert len(builds) == 2


def test_stabilizer_classes_need_transitive_group():
    g = PermGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError):
        stabilizer_classes(g, BlockSystem.from_blocks(4, [[0, 1], [2, 3]]))


def test_strip_block_edges(small_product):
    prod, _ = small_product
    stripped = strip_block_edges(prod, fiber_system(15, 5))
    assert len(stripped.components) == 5
    assert all(len(c) == 3 for c in stripped.components)
    # only cross-fiber edges survive, per vertex u as u·s over the sorted
    # members s = 5, 10 of the Z3 factor, whose pair has color 5
    assert stripped.adjacency == tuple(
        tuple(((u + s) % 15, 5) for s in (5, 10)) for u in range(15)
    )


def test_decompose_small_product(small_product):
    prod, ao = small_product
    fibers = fiber_system(15, 5)
    result = cartesian_decompose(prod, ao, fibers)
    assert result.success
    assert result.phrasings_agree
    assert len(result.g1) == 3 and result.g2 == (0, 1, 2, 3, 4)
    split = _split_product(prod, frozenset(fibers.blocks[0]))
    assert (split.g1, split.g2) == (result.g1, result.g2)
    assert split.factor1.n == 3 and split.factor2.n == 5


def test_decompose_other_fiber_system(small_product):
    prod, ao = small_product
    # the 3-point fibers are strided: {b, b+5, b+10}
    strided = BlockSystem.from_blocks(15, [[b, b + 5, b + 10] for b in range(5)])
    result = cartesian_decompose(prod, ao, strided)
    assert result.success
    assert len(result.g1) == 5 and len(result.g2) == 3


def test_decompose_fails_on_non_product():
    c9 = cycle_graph(9)
    ao = color_preserving_group(c9)
    blocks = BlockSystem.from_blocks(9, [[0, 3, 6], [1, 4, 7], [2, 5, 8]])
    result = cartesian_decompose(c9, ao, blocks)
    assert not result.success
    assert result.failing_pair is not None
    assert result.g1 == result.g2 == ()


def test_decompose_input_validation(small_product):
    prod, ao = small_product
    with pytest.raises(ValueError):
        cartesian_decompose(cycle_graph(6), color_preserving_group(cycle_graph(6)),
                            fiber_system(6, 2))  # even order
    with pytest.raises(ValueError):
        cartesian_decompose(prod, PermGroup(15, [tuple(range(15))]),
                            fiber_system(15, 5))  # group misses the translations


def test_decompose_on_big_instance(product_graph, product_ao):
    result = cartesian_decompose(product_graph, product_ao, fiber_system(105, 21))
    assert result.success and result.phrasings_agree
    assert len(result.g1) == 5 and len(result.g2) == 21
    assert result.stab_classes.block_count == 21
    assert result.stab_classes.block_size == 5


def test_product_structure_verdict_on_degenerate_instance(noncca_graph):
    factors = product_structure_verdict(noncca_graph)
    assert factors is not None
    one, canon = factors
    assert one.n == 1 and canon.n == 21
    assert are_isomorphic(canon, f21_noncca_graph(), respect_colors=False)


def test_product_structure_verdict_input_validation():
    with pytest.raises(ValueError):
        product_structure_verdict(cycle_graph(6))  # even order
    with pytest.raises(ValueError):
        product_structure_verdict(cycle_graph(15))  # positive verdict


def _theorem_sets(name, m):
    """Seeded sets of Z_m x F21 (element (c, f) at 21c + f): each cycle pair
    of Z_m joined to Aut(F21) images of the order-21 negative set, plus
    random connected draws."""
    group = group_from_name(name)
    f21 = make_f21()
    gamma = parse_elements(f21, "a,a^2,x^4a,x^6a^2")
    rng = random.Random(m)
    images = rng.sample(list(group_automorphisms(f21).elements()), 3)
    cycle_pairs = [(1, m - 1)] + ([(2, 3)] if m == 5 else [])
    sets = [
        {21 * c for c in pair} | {phi[s] for s in gamma}
        for pair in cycle_pairs
        for phi in images
    ]
    sets += [_random_connected_set(group, rng).members for _ in range(4)]
    return group, sets


@lru_cache(maxsize=None)
def _theorem_negatives(name, m):
    """The negative-verdict graphs among _theorem_sets, with color groups."""
    group, sets = _theorem_sets(name, m)
    out = []
    for members in sets:
        graph = build_cayley(group, members)
        verdict, ao = cca_verdict_with_group(graph)
        if not verdict.is_cca:
            out.append((graph, ao))
    return out


THEOREM_GROUPS = [("z3xf21", 3), ("z5xf21", 5)]


@pytest.mark.parametrize("name, m", THEOREM_GROUPS)
def test_negative_verdicts_factor_through_the_order_21_instance(name, m):
    negatives = _theorem_negatives(name, m)
    for graph, ao in negatives:
        factors = _factor_product(graph)
        assert factors is not None, graph.connection.labels()
        assert (factors.factor1.n, factors.factor2.n) == (m, 21)
    assert len(negatives) >= 1


def _lattice_search(graph, ao):
    """Reference: the factor orders of the first block system of ao, the
    nontrivial ones in block_of order and then the singletons, that
    decomposes with a factor isomorphic, colors respected, to the order-21
    instance."""
    canon = f21_noncca_graph()
    systems = [b for b in all_block_systems(ao) if b.block_size not in (1, b.degree)]
    for system in systems + [singleton_partition(ao.degree)]:
        if not cartesian_decompose(graph, ao, system).success:
            continue
        split = _split_product(graph, frozenset(system.blocks[system.block_of[graph.group.identity]]))
        for other, f in ((split.factor1, split.factor2), (split.factor2, split.factor1)):
            if f.n == 21 and are_isomorphic(f, canon, respect_colors=True):
                return other.n, f.n
    return None


@pytest.mark.parametrize("name, m", THEOREM_GROUPS)
def test_factor_product_matches_the_block_system_search(name, m):
    for graph, ao in _theorem_negatives(name, m):
        result = _factor_product(graph)
        assert (result.factor1.n, result.factor2.n) == _lattice_search(graph, ao)
        # The stabilizer classes over K's cosets must find the same split.
        oracle = cartesian_decompose(graph, ao, left_cosets(graph.group, result.g2))
        assert oracle.success and oracle.phrasings_agree
        assert (oracle.g1, oracle.g2) == (result.g1, result.g2)


Z5XF21_NEGATIVE = "(1,e),(4,e),(e,a),(e,a^2),(e,x^4a),(e,x^6a^2)"


def test_factor_product_builds_no_permutation_group(monkeypatch):
    group = group_from_name("z5xf21")
    graph = build_cayley(group, parse_elements(group, Z5XF21_NEGATIVE))
    builds = count_permgroup_builds(monkeypatch)
    result = _factor_product(graph)
    assert (result.factor1.n, result.factor2.n) == (5, 21)
    assert builds == []


def _split(name, labels, k_labels):
    group = group_from_name(name)
    graph = build_cayley(group, parse_elements(group, labels))
    return _split_product(graph, subgroup_generated(group, parse_elements(group, k_labels)))


def test_split_product_refuses_subgroups_s_does_not_split_along():
    # Γ's Z7 holds no element of S, so Q = S ∩ K generates only {e}.
    assert _split("f21", "a,a^2,x^4a,x^6a^2", "x") is None
    # Q generates Z7, H = <a> meets it in e and |H||K| = 21, but a and x
    # do not commute.
    assert _split("f21", "a,a^2,x,x^6", "x") is None
    # Disconnected sets, where only one of H ∩ K = 1 and |H||K| = |G| holds:
    # H = {(b, c, e)} contains K = {(b, e, e)}, and |H||K| = 27;
    assert _split("z3^3", "((1,1),e),((2,2),e),((e,1),e),((e,2),e),((1,e),e),((2,e),e)",
                  "((1,e),e)") is None
    # H = 1 meets K = {(b, e)} in e, and |H||K| = 3;
    assert _split("z3xz3", "(1,e),(2,e)", "(1,e)") is None
    # and with K = G, Q generates only {(b, e)}, though H = 1 and |H||K| = 9.
    assert _split("z3xz3", "(1,e),(2,e)", "(1,e),(e,1)") is None
    split = _split("z5xf21", Z5XF21_NEGATIVE, "(e,a),(e,x)")
    assert (split.factor1.n, split.factor2.n) == (5, 21)


def test_factor_product_needs_the_order_21_instance():
    # S splits along {e} x F21, but Cay(F21, {a, a^2, x, x^6}) is not Γ.
    group = group_from_name("z3xf21")
    graph = build_cayley(group, parse_elements(group, "(1,e),(2,e),(e,a),(e,a^2),(e,x),(e,x^6)"))
    assert _split_product(graph, subgroup_generated(group, parse_elements(group, "(e,a),(e,x)")))
    assert _factor_product(graph) is None


def test_product_structure_verdict_fails_without_the_order_21_factor(monkeypatch, noncca_graph):
    monkeypatch.setattr(cartesian, "_factor_product", lambda graph: None)
    with pytest.raises(AssertionError, match="order 21 has no factor isomorphic to the order-21"):
        product_structure_verdict(noncca_graph)


def test_product_structure_verdict_checks_that_h_is_cca(monkeypatch):
    seen = []

    def not_cca(group):
        seen.append(group.order)
        return False, []

    monkeypatch.setattr(cartesian, "cca_group_verdict", not_cca)
    group = group_from_name("z5xf21")
    graph = build_cayley(group, parse_elements(group, Z5XF21_NEGATIVE))
    with pytest.raises(AssertionError, match="the factor H of order 5 is not CCA"):
        product_structure_verdict(graph)
    assert seen == [5]


@lru_cache(maxsize=None)
def _z5xf21_predicted_sets():
    """The 63 sets T ∪ Q of Z5 x F21 (element (c, f) at 21c + f) whose graphs
    the product theorem predicts negative: T one of the 3 connected sets of
    Z5, Q one of the 21 sets in the Aut(F21)-orbit of Γ's set."""
    f21 = make_f21()
    pairs = inverse_pairs(f21)
    gamma = connection_set_mask(f21, pairs, f21_noncca_connection_set(f21))
    qs = [mask_to_connection_set(f21, pairs, mask).members for mask in mask_orbit(f21, gamma)]
    ts = [{1, 4}, {2, 3}, {1, 2, 3, 4}]
    return tuple(frozenset({21 * c for c in t} | q) for t in ts for q in qs)


def test_product_theorem_holds_on_every_predicted_negative_of_z5xf21():
    group = group_from_name("z5xf21")
    predicted = _z5xf21_predicted_sets()
    assert len(set(predicted)) == 63
    for members in predicted:
        # A positive verdict would be refused with ValueError; H = Z5 is
        # checked CCA by cca_group_verdict.
        factor1, factor2 = product_structure_verdict(build_cayley(group, members))
        assert (factor1.n, factor2.n) == (5, 21)


def test_one_pair_neighbours_of_predicted_sets_are_negative_exactly_when_predicted():
    group = group_from_name("z5xf21")
    pairs = inverse_pairs(group)
    predicted = set(_z5xf21_predicted_sets())
    seeds = random.Random(0).sample(_z5xf21_predicted_sets(), 20)
    neighbours = [members ^ set(pair) for members in seeds for pair in pairs]
    connected = [m for m in neighbours if ConnectionSet(group, m).generates_group()]
    negative = 0
    for members in connected:
        is_cca = cca_verdict(build_cayley(group, members)).is_cca
        assert is_cca == (members not in predicted), sorted(members)
        negative += not is_cca
    assert (len(connected), negative) == (986, 26)


@pytest.mark.parametrize("factors", ["c3 x c3", "c3 x c5", "c5 x gamma", "z11xf21 split"])
def test_cartesian_matrix_is_the_product_graph_up_to_colors(factors):
    # c3 x c3 gives both factors the same colors, which must stay apart.
    if factors == "z11xf21 split":
        split = _split("z11xf21", "(1,e),(10,e),(e,a),(e,a^2),(e,x^4a),(e,x^6a^2)", "(e,a),(e,x)")
        f1, f2 = split.factor1, split.factor2
        assert (f1.n, f2.n) == (11, 21)
    else:
        f1, f2 = {
            "c3 x c3": (cycle_graph(3), cycle_graph(3)),
            "c3 x c5": (cycle_graph(3), cycle_graph(5)),
            "c5 x gamma": (cycle_graph(5), f21_noncca_graph()),
        }[factors]
    matrix = _cartesian_matrix(f1.color_matrix, f2.color_matrix)
    product = cartesian_product(f1, f2).color_matrix
    assert color_bijection_between(matrix, product, range(f1.n * f2.n)) is not None


def test_product_demo_splits_each_factored_graph_once(monkeypatch):
    calls = []

    def counted(graph, k):
        calls.append(graph.n)
        return _split_product(graph, k)

    monkeypatch.setattr(cartesian, "_split_product", counted)
    rows, _ = harness.cmd_product_demo(5, seed=0)
    assert calls == [105] and [row["kind"] for row in rows if "factor1_n" in row] == ["factors"]


def test_cartesian_decompose_builds_no_group_table(monkeypatch, product_graph, product_ao):
    builds = []
    from_mult = GroupTable.from_mult

    def counted(*args, **kwargs):
        builds.append(len(args[0]))
        return from_mult(*args, **kwargs)

    monkeypatch.setattr(GroupTable, "from_mult", staticmethod(counted))
    assert cartesian_decompose(product_graph, product_ao, fiber_system(105, 21)).success
    assert builds == []
