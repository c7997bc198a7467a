"""The four benchmark workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one client in one process: the next
unit of work starts only after the previous one returned.  A unit is what
one timed call does; it covers ``ops`` operations (one for most workloads,
all orbit representatives of a group for ``sweep``).  Inputs come only from
the seed passed on the command line, drawn with ``random.Random``; the
library's own private generators are not used.

Checks run after the timed call and outside it.  They compare against the
values pinned below, which hold for every seed unless noted, and test
invariants that hold for any input.  A mismatch or an exception is counted
as a failed unit, never raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 0

# sweep: connected orbit representatives and failing representatives per
# group.  Both are invariant under relabeling the group, so they hold for
# every seed.  z2^2xz6 (482 reps, 31 s per sweep) is left out so a roster
# pass fits well inside one run.
SWEEP_ROSTER = ("f21", "z3xs3", "z2xq8", "d8", "z3xz9")
SWEEP_PINNED = {
    "f21": (51, 1),
    "z3xs3": (217, 2),
    "z2xq8": (44, 44),
    "d8": (280, 0),
    "z3xz9": (274, 0),
}
CENSUS_REPS = 51

# verdict-stream: groups of order 32..105; each round of requests visits
# every group once, in a seeded order.
STREAM_GROUPS = (
    "d16", "q8xz2^2", "z2xz16", "z35", "d25", "d27", "z7xz9", "z3xf21", "z5xf21",
)
# (is_cca, ao_order) of the first requests under the default seed.
STREAM_PINNED = [
    (True, 63), (False, 256), (True, 50), (True, 105), (True, 32), (True, 54),
    (True, 126), (True, 70), (True, 64), (True, 126), (True, 63), (True, 70),
    (True, 105), (True, 50), (True, 64), (True, 54), (True, 64), (False, 4096),
]

# product: the 105-vertex product of a 5-cycle with the order-21 negative
# instance; (is_cca, ao_order) of the three random-set rows of the first
# products under the default seed.
PRODUCT_M = 5
PRODUCT_AO_ORDER = 1680
PRODUCT_PINNED = [
    [(True, 105), (True, 105), (True, 105)],
    [(True, 105), (True, 105), (True, 105)],
]

# iso-classify: (connected orbit representatives, uncolored isomorphism
# classes) per group; invariant under relabeling, so they hold for every seed.
ISO_GROUPS = ("f21", "z3xs3", "d8")
ISO_PINNED = {"f21": (51, 51), "z3xs3": (217, 131), "d8": (280, 190)}


@dataclass
class Unit:
    """One timed call and the number of operations it performs.

    ``run`` looks ccakit functions up when it is called, never when the unit
    is made, so a tracer installed in between sees the call.
    """

    run: Callable[[], Any]
    ops: int
    check: Callable[[Any], list[str]]


def relabel(ck: Any, group: Any, rng: random.Random) -> Any:
    """An isomorphic copy of the group with its elements renumbered at random.

    Verdict counts, orbit counts and class counts do not change; the element
    indices, inverse pairs, masks and search order all do.
    """
    n = group.order
    new = list(range(n))
    rng.shuffle(new)
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        row = group.mult[a]
        for b in range(n):
            mult[new[a]][new[b]] = new[row[b]]
    labels = [""] * n
    for a in range(n):
        labels[new[a]] = group.labels[a]
    return ck.GroupTable.from_mult(mult, labels, name=group.name)


def _verdict_problems(ck: Any, graph: Any, verdict: Any) -> list[str]:
    """Invariants of any verdict: the color group contains the n left
    translations, and a witness preserves colors but is not affine."""
    out: list[str] = []
    n = graph.n
    if verdict.ao_order % n:
        out.append(f"ao_order {verdict.ao_order} not divisible by n={n}")
    if verdict.is_cca != verdict.notes.get("gl_normal"):
        out.append("is_cca disagrees with the gl_normal note")
    if verdict.is_cca:
        if verdict.witness is not None:
            out.append("positive verdict carries a witness")
        return out
    w = verdict.witness
    if w is None:
        out.append("negative verdict without a witness")
        return out
    p = np.asarray(w, dtype=np.intp)
    m = graph.color_matrix
    if not np.array_equal(m[np.ix_(p, p)], m):
        out.append("witness does not preserve the color matrix")
    if ck.is_affine(w, graph.group):
        out.append("witness is affine")
    return out


class Sweep:
    """cca_group_verdict over every group of a roster, plus the F21 census.

    A unit is one group's whole sweep; one operation is one connection-set
    orbit representative decided.  Each pass visits the roster in a seeded
    order; the loop only stops between passes so every run decides the same
    mix of representatives.
    """

    name = "sweep"

    def __init__(self, ck: Any, seed: int) -> None:
        self.ck = ck
        self.rng = random.Random(f"sweep:{seed}")
        self.groups = {
            name: relabel(ck, ck.group_from_name(name), self.rng) for name in SWEEP_ROSTER
        }
        self._queue: list[Unit] = []
        self._reps_checked: set[str] = set()

    def at_boundary(self) -> bool:
        return not self._queue

    def describe(self) -> list[str]:
        return [f"roster {', '.join(SWEEP_ROSTER)} and the F21 census, relabeled by the seed"]

    def next_unit(self) -> Unit:
        if not self._queue:
            names = list(self.groups)
            self.rng.shuffle(names)
            self._queue = [self._group_unit(name) for name in names]
            self._queue.insert(self.rng.randrange(len(names) + 1), self._census_unit())
        return self._queue.pop(0)

    def _group_unit(self, name: str) -> Unit:
        ck, group = self.ck, self.groups[name]
        reps, failing_count = SWEEP_PINNED[name]

        def check(result: Any) -> list[str]:
            ok, failing = result
            out: list[str] = []
            if len(failing) != failing_count:
                out.append(f"{name}: {len(failing)} failing sets, expected {failing_count}")
            if ok != (not failing):
                out.append(f"{name}: verdict flag disagrees with the failing list")
            for cs in failing:
                if not cs.is_inverse_closed() or not cs.generates_group():
                    out.append(f"{name}: failing set is not a connected inverse-closed set")
                    break
            if failing:
                graph = ck.build_cayley(group, failing[0])
                verdict = ck.cca_verdict(graph)
                if verdict.is_cca:
                    out.append(f"{name}: reported failing set gets a positive verdict")
                out.extend(f"{name}: {p}" for p in _verdict_problems(ck, graph, verdict))
            if name not in self._reps_checked:
                self._reps_checked.add(name)
                found = len(ck.connection_set_orbits(group, connected_only=True))
                if found != reps:
                    out.append(f"{name}: {found} orbit representatives, expected {reps}")
            return out

        return Unit(lambda: ck.cca_group_verdict(group), reps, check)

    def _census_unit(self) -> Unit:
        ck = self.ck
        expected = CENSUS_REPS

        def check(result: Any) -> list[str]:
            rows, _summary = result
            summary = rows[-1]
            got = summary.get("connected_orbit_count")
            if got != expected:
                return [f"census: {got} connected orbits, expected {expected}"]
            if summary.get("noncca_sets_per_class") != [21]:
                return ["census: negative class sizes differ from [21]"]
            return []

        # cmd_f21_census runs check_f21_census itself and raises on a mismatch.
        return Unit(lambda: ck.cmd_f21_census(), expected, check)


class VerdictStream:
    """Independent verdict requests: group name plus element indices.

    The handler is the serving path: group_from_name, build_cayley on the
    indices, cca_verdict.  Requests carry indices rather than label text
    because product-group labels such as ``(e,a)`` contain commas, which
    parse_elements splits on.
    """

    name = "verdict-stream"

    def __init__(self, ck: Any, seed: int) -> None:
        self.ck = ck
        self.rng = random.Random(f"verdict-stream:{seed}")
        self.pairs = {}
        for name in STREAM_GROUPS:
            group = ck.group_from_name(name)
            self.pairs[name] = (group, ck.inverse_pairs(group))
        self.pinned = list(STREAM_PINNED) if seed == DEFAULT_SEED else []
        self._round: list[str] = []
        self.sent = 0
        self.seen_groups: set[str] = set()
        self.seen_requests: set[tuple[str, tuple[int, ...]]] = set()
        self.repeated_groups = 0
        self.repeated_requests = 0
        self.valencies: list[int] = []

    def at_boundary(self) -> bool:
        return True

    def describe(self) -> list[str]:
        sent = max(self.sent, 1)
        spread = f"{min(self.valencies)}..{max(self.valencies)}" if self.valencies else "-"
        return [
            f"requests {self.sent}: repeated groups {self.repeated_groups} "
            f"({self.repeated_groups / sent:.1%}), repeated (group, set) pairs "
            f"{self.repeated_requests} ({self.repeated_requests / sent:.1%}), "
            f"valency {spread}"
        ]

    def request(self) -> tuple[str, tuple[int, ...]]:
        """Next request: a connected inverse-closed set made of 2 up to half
        of the group's inverse pairs."""
        if not self._round:
            self._round = list(STREAM_GROUPS)
            self.rng.shuffle(self._round)
        name = self._round.pop()
        group, pairs = self.pairs[name]
        while True:
            k = self.rng.randint(2, max(2, len(pairs) // 2))
            chosen = self.rng.sample(range(len(pairs)), k)
            members = tuple(sorted(e for i in chosen for e in pairs[i]))
            if len(self.ck.subgroup_generated(group, members)) == group.order:
                return name, members

    def next_unit(self) -> Unit:
        ck = self.ck
        name, members = self.request()
        index = self.sent
        self.sent += 1
        self.repeated_groups += name in self.seen_groups
        self.repeated_requests += (name, members) in self.seen_requests
        self.seen_groups.add(name)
        self.seen_requests.add((name, members))
        self.valencies.append(len(members))

        def run() -> tuple[Any, Any]:
            group = ck.group_from_name(name)
            graph = ck.build_cayley(group, members)
            return graph, ck.cca_verdict(graph)

        def check(result: Any) -> list[str]:
            graph, verdict = result
            out = [f"{name}: {p}" for p in _verdict_problems(ck, graph, verdict)]
            if graph.n != self.pairs[name][0].order or graph.valency != len(members):
                out.append(f"{name}: graph shape differs from the request")
            if index < len(self.pinned):
                got = (verdict.is_cca, verdict.ao_order)
                if got != self.pinned[index]:
                    out.append(f"request {index} ({name}): {got}, expected {self.pinned[index]}")
            return out

        return Unit(run, 1, check)


class Product:
    """harness.cmd_product_demo(5, seed=k) for successive k.

    One operation is one 105-vertex product analysed: its verdict, factor
    recovery, decomposition and three random-set verdicts.
    """

    name = "product"

    def __init__(self, ck: Any, seed: int) -> None:
        self.ck = ck
        self.base = seed * 1000
        self.k = 0
        self.pinned = [list(p) for p in PRODUCT_PINNED] if seed == DEFAULT_SEED else []

    def at_boundary(self) -> bool:
        return True

    def describe(self) -> list[str]:
        return [f"products analysed with seeds {self.base}..{self.base + self.k - 1}"]

    def next_unit(self) -> Unit:
        ck, k = self.ck, self.k
        self.k += 1
        n = 21 * PRODUCT_M

        def check(result: Any) -> list[str]:
            rows, _summary = result
            out: list[str] = []
            head = rows[0]
            if head["n"] != n or head["is_cca"] or head["ao_order"] != PRODUCT_AO_ORDER:
                out.append(f"product verdict row {head}")
            fac = rows[1]
            if (fac["factor1_n"], fac["factor2_n"]) != (PRODUCT_M, 21) or (
                fac["g1_size"], fac["g2_size"]
            ) != (PRODUCT_M, 21) or not fac["phrasings_agree"]:
                out.append(f"factor row {fac}")
            randoms = [(r["is_cca"], r["ao_order"]) for r in rows if r["kind"] == "random-set"]
            if len(randoms) != 3:
                out.append(f"{len(randoms)} random-set rows, expected 3")
            out.extend(f"random set ao_order {ao} not divisible by {n}" for _, ao in randoms if ao % n)
            if k < len(self.pinned) and randoms != self.pinned[k]:
                out.append(f"product {k}: random sets {randoms}, expected {self.pinned[k]}")
            return out

        return Unit(lambda: ck.cmd_product_demo(PRODUCT_M, seed=self.base + k), 1, check)


class IsoClassify:
    """Uncolored isomorphism classes of every connected orbit representative.

    Each set is compared with are_isomorphic against the class
    representatives of equal valency; a set that matches none opens a class
    and gets its uncolored automorphism group.  One operation is one set
    classified.  A round holds the sets of all groups, interleaved in a
    seeded order, so any prefix of a run has the same mix of groups.
    """

    name = "iso-classify"

    def __init__(self, ck: Any, seed: int) -> None:
        self.ck = ck
        self.rng = random.Random(f"iso-classify:{seed}")
        self.reps: dict[str, tuple[Any, list[Any]]] = {}
        for name in ISO_GROUPS:
            group = relabel(ck, ck.group_from_name(name), self.rng)
            pairs = ck.inverse_pairs(group)
            sets = [
                ck.cayley.mask_to_connection_set(group, pairs, mask)
                for mask, _ in ck.connection_set_orbits(group, connected_only=True)
            ]
            self.reps[name] = (group, sets)
        self._queue: list[tuple[str, Any]] = []
        self._classes: dict[str, dict[int, list[Any]]] = {}
        self._left: dict[str, int] = {}

    def at_boundary(self) -> bool:
        return True

    def describe(self) -> list[str]:
        return [
            "sets per group: "
            + ", ".join(f"{name} {len(sets)}" for name, (_, sets) in self.reps.items())
        ]

    def _new_round(self) -> None:
        self._queue = [(name, cs) for name, (_, sets) in self.reps.items() for cs in sets]
        self.rng.shuffle(self._queue)
        self._classes = {name: {} for name in self.reps}
        self._left = {name: len(sets) for name, (_, sets) in self.reps.items()}

    def next_unit(self) -> Unit:
        if not self._queue:
            self._new_round()
        ck = self.ck
        name, cs = self._queue.pop()
        group = self.reps[name][0]
        classes = self._classes[name]
        self._left[name] -= 1
        last_of_group = self._left[name] == 0

        def run() -> tuple[Any, Any, Any, Any]:
            graph = ck.build_cayley(group, cs)
            for rep in classes.setdefault(graph.valency, []):
                iso = ck.are_isomorphic(graph, rep, respect_colors=False)
                if iso is not None:
                    return graph, rep, iso, None
            classes[graph.valency].append(graph)
            return graph, None, None, ck.uncolored_aut_group(graph)

        def check(result: Any) -> list[str]:
            graph, rep, iso, aut = result
            out: list[str] = []
            if iso is not None:
                p = np.asarray(iso, dtype=np.intp)
                if not np.array_equal(rep.uncolored_matrix[np.ix_(p, p)], graph.uncolored_matrix):
                    out.append(f"{name}: returned isomorphism does not carry one graph onto the other")
            elif aut.order() % graph.n:
                out.append(f"{name}: automorphism group order {aut.order()} not divisible by n")
            if last_of_group:
                reps, classes_expected = ISO_PINNED[name]
                found = sum(len(v) for v in classes.values())
                if len(self.reps[name][1]) != reps:
                    out.append(f"{name}: {len(self.reps[name][1])} representatives, expected {reps}")
                if found != classes_expected:
                    out.append(f"{name}: {found} classes, expected {classes_expected}")
            return out

        return Unit(run, 1, check)


WORKLOADS = {cls.name: cls for cls in (Sweep, VerdictStream, Product, IsoClassify)}

