"""Layer tracing for the benchmark: spans around calls into ccakit.

Each traced function is wrapped by rebinding its name in every loaded
``ccakit`` module namespace that holds it.  That is needed because the
package's own modules import with ``from .x import y``, so patching one
module attribute would miss calls made from the others.  ``PermGroup`` is
traced through its ``__init__`` (each construction builds a stabilizer
chain), which keeps ``isinstance`` checks and the class identity intact.

Spans are kept in memory while tracing is on and written out afterwards.
Each span records its own id, the id of the span that caused it, the id of
the benchmark operation it belongs to, its name, and start and end times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (module, attribute) pairs naming the traced functions; the span name is
# "<module>.<attribute>".
TRACED_FUNCTIONS = (
    ("groups", "group_from_name"),
    ("groups", "left_regular_group"),
    ("groups", "group_automorphisms"),
    ("cayley", "connection_set_orbits"),
    ("cayley", "build_cayley"),
    ("search", "color_preserving_group"),
    ("search", "are_isomorphic"),
    ("search", "uncolored_aut_group"),
    ("perms", "all_block_systems"),
    ("perms", "is_normal_subgroup"),
    ("perms", "point_stabilizer"),
    ("perms", "fixer"),
    ("cca", "cca_verdict"),
    ("cca", "cca_verdict_with_group"),
    ("cca", "cca_group_verdict"),
    ("cartesian", "cartesian_decompose"),
    ("cartesian", "product_structure_verdict"),
    ("harness", "cmd_f21_census"),
    ("harness", "cmd_product_demo"),
)
TRACED_INITS = (("perms", "PermGroup"),)


def _ccakit_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ccakit" or name.startswith("ccakit."))
    ]


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every callable bound in a ccakit module namespace, plus
    the traced constructors, so a test can confirm nothing stays patched."""
    out: dict[tuple[str, str], int] = {}
    for mod in _ccakit_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and "__init__" in vars(value):
                out[(mod.__name__, attr + ".__init__")] = id(vars(value)["__init__"])
    return out


@dataclass
class Tracer:
    """Collects spans and per-name totals for the calls it wraps."""

    spans: list[tuple[int, int, int, str, float, float]] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    op_id: int = 0
    # Off while the benchmark checks outputs, so checks leave no spans.
    enabled: bool = True
    # Seconds of all_block_systems spent inside cca_verdict_with_group.
    block_in_verdict_s: float = 0.0
    _stack: list[list] = field(default_factory=list)
    _next_id: int = 1
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else 0, self.op_id, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if name == "perms.all_block_systems" and any(
            f[1] == "cca.cca_verdict_with_group" for f in self._stack
        ):
            self.block_in_verdict_s += dur

    def discount(self, seconds: float) -> None:
        """Leave an interval the benchmark spent on itself out of every open
        span, by moving their starts later."""
        for frame in self._stack:
            frame[2] += seconds

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run fn inside a span; the benchmark uses this for its own
        operation spans, the wrappers for layer spans."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _count(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        post = _POST_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name in every ccakit module that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _ccakit_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for short, attr in TRACED_FUNCTIONS:
            original = getattr(by_name["ccakit." + short], attr)
            wrapped = self._wrap(f"{short}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for short, attr in TRACED_INITS:
            cls = getattr(by_name["ccakit." + short], attr)
            original = vars(cls)["__init__"]
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self._wrap(f"{short}.{attr}", original)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of patching."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                )
                fh.write("\n")


def _orbits_post(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    from ccakit.cayley import inverse_pairs

    group = args[0] if args else kwargs["group"]
    tracer._count("orbits.masks", (1 << len(inverse_pairs(group))) - 1)
    tracer._count("orbits.reps", len(result))


def _iso_post(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer._count("iso.hits", result is not None)


def _decompose_post(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer._count("decompose.successes", bool(result.success))


_POST_HOOKS: dict[str, Callable[[Tracer, tuple, dict, Any], None]] = {
    "cayley.connection_set_orbits": _orbits_post,
    "search.are_isomorphic": _iso_post,
    "cartesian.cartesian_decompose": _decompose_post,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: calls and self seconds per benchmark operation,
    plus the ratios that show wasted work.  Layers a workload does not
    reach read 0."""
    out: dict[str, tuple[float, str]] = {}
    names = [f"{m}.{a}" for m, a in TRACED_FUNCTIONS + TRACED_INITS]
    for name in names:
        out[name + ".calls"] = (tracer.calls.get(name, 0) / ops, "calls/op")
        out[name + ".self_s"] = (tracer.self_s.get(name, 0.0) / ops, "s/op")
    out["cayley.connection_set_orbits.reps_per_mask"] = (
        _ratio(tracer.extra.get("orbits.reps", 0), tracer.extra.get("orbits.masks", 0)),
        "ratio",
    )
    out["search.are_isomorphic.hit_ratio"] = (
        _ratio(tracer.extra.get("iso.hits", 0), tracer.calls.get("search.are_isomorphic", 0)),
        "ratio",
    )
    out["cca.block_share"] = (
        _ratio(tracer.block_in_verdict_s, tracer.total_s.get("cca.cca_verdict_with_group", 0.0)),
        "ratio",
    )
    out["cartesian.cartesian_decompose.success_ratio"] = (
        _ratio(
            tracer.extra.get("decompose.successes", 0),
            tracer.calls.get("cartesian.cartesian_decompose", 0),
        ),
        "ratio",
    )
    return out
