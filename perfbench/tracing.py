"""Outside-in per-module tracing of k3stab.

`Tracer.install()` replaces the public functions listed in SPANS, in every
loaded `k3stab.*` module that binds them (modules import `pair`,
`central_charge` and others by name), with wrappers that time a span; the
`StabilityPoint.s_part` property and the `json.dumps` that `cli` renders with
are wrapped where they are used.  `QuadScalar` construction, `+`, `-` and `*`
are counted, not timed: a timing wrapper would cost more than the operation.
`uninstall()` puts every original back.

A span's self time is its duration minus the duration of the traced spans
nested in it.  Self time includes the wrapper cost of the children, which is
part of what `trace.overhead_frac` reports.  Spans are aggregated by name in
memory; no span is written out one by one.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Several report builders share one name.
SPANS = (
    ("k3stab.cli", "main", "cli.main"),
    ("k3stab.scenario", "scenario_from_file", "scenario.scenario_from_file"),
    *(
        ("k3stab.scenario", f"{kind}_report", "scenario.report")
        for kind in (
            "attractor",
            "slag_reality",
            "mirror_reality",
            "mirror",
            "regular_point",
            "wall_system",
            "wall_table",
            "charge_table",
        )
    ),
    ("k3stab.attractor", "solve_attractor", "attractor.solve_attractor"),
    ("k3stab.attractor", "hyperkahler_rotate", "attractor.hyperkahler_rotate"),
    ("k3stab.attractor", "threefold_central_charge", "attractor.threefold_central_charge"),
    ("k3stab.mirror", "mirror_period", "mirror.mirror_period"),
    ("k3stab.mirror", "mirror_class", "mirror.mirror_class"),
    ("k3stab.stability", "central_charge", "stability.central_charge"),
    ("k3stab.stability", "mukai_pair", "stability.mukai_pair"),
    ("k3stab.stability", "wall_member", "stability.wall_member"),
    ("k3stab.stability", "p0_violations", "stability.p0_violations"),
    ("k3stab.stability", "search_kahler_class", "stability.search_kahler_class"),
    ("k3stab.lattice", "pair", "lattice.pair"),
    ("k3stab.lattice", "orth_complement", "lattice.orth_complement"),
    ("k3stab.intmat", "enumerate_quadric", "intmat.enumerate_quadric"),
    ("k3stab.intmat", "is_negative_definite", "intmat.is_negative_definite"),
    ("k3stab.intmat", "kernel_basis", "intmat.kernel_basis"),
    ("k3stab.forms", "enumerate_reduced", "forms.enumerate_reduced"),
)
COUNTED = {"new": "__init__", "add": "__add__", "sub": "__sub__", "mul": "__mul__"}


class Span:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.search_candidates = 0
        self.search_successes = 0
        self.quadric_hits = 0
        self.charge_calls = 0
        self.charge_distinct = 0
        self._charge_args: list[tuple] = []
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                span = spans[name]
                span.calls += 1
                span.self += elapsed - frame[0]
                if not depth[name]:  # recursion: count the outermost call only
                    span.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if observe is not None:
                    observe(args, result, exc)

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observers ------------------------------------------------------------

    def _saw_charge(self, args, result, exc):
        self._charge_args.append(args[:2])

    def _saw_quadric(self, args, result, exc):
        if result is not None:
            self.quadric_hits += len(result)

    def _saw_search(self, args, result, exc):
        if result is not None:
            self.search_candidates += result.candidates_tried
            self.search_successes += 1
        elif isinstance(exc, self._exhausted):
            self.search_candidates += len(exc.rejections)

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import k3stab.cli  # noqa: F401  loads every module that binds a wrapped name
        from k3stab.exact import QuadScalar
        from k3stab.stability import SearchExhausted, StabilityPoint

        self._exhausted = SearchExhausted

        observers = {
            "stability.central_charge": self._saw_charge,
            "intmat.enumerate_quadric": self._saw_quadric,
            "stability.search_kahler_class": self._saw_search,
        }
        modules = [m for n, m in sys.modules.items() if n == "k3stab" or n.startswith("k3stab.")]
        for module_name, attr, name in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, observers.get(name))
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound, wrapped)
        s_part = StabilityPoint.s_part
        self._set(StabilityPoint, "s_part", property(self._wrap("stability.s_part", s_part.fget)))
        cli = sys.modules["k3stab.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self._wrap("cli.json_dumps", json.dumps)
        self._set(cli, "json", proxy)
        for short, dunder in COUNTED.items():
            original = vars(QuadScalar)[dunder]
            counted = self._count(f"exact.QuadScalar.{short}.calls", original)
            for attr, value in list(vars(QuadScalar).items()):
                if value is original:  # __radd__ = __add__, __rmul__ = __mul__
                    self._set(QuadScalar, attr, counted)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- per operation ----------------------------------------------------------

    def end_op(self) -> None:
        """Fold the central-charge arguments of the finished operation into
        the distinct count, keyed by exact strings, outside any span."""
        keys = {(str(psi.B), str(psi.omega), str(v)) for psi, v in self._charge_args}
        self.charge_calls += len(self._charge_args)
        self.charge_distinct += len(keys)
        self._charge_args.clear()

    # -- metrics ----------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-module figures averaged over `ops` operations."""
        s = self.spans
        per = 1.0 / ops

        def calls(name):
            return (s[name].calls * per, "calls/op")

        def secs(name, kind):
            return (getattr(s[name], kind) * per, "s/op")

        out = {
            f"exact.QuadScalar.{short}.calls": (self.counts[f"exact.QuadScalar.{short}.calls"] * per, "calls/op")
            for short in COUNTED
        }
        for name in ("lattice.pair", "intmat.enumerate_quadric", "attractor.hyperkahler_rotate",
                     "mirror.mirror_period", "mirror.mirror_class", "stability.central_charge",
                     "stability.s_part", "stability.wall_member", "stability.p0_violations"):
            out[f"{name}.calls"] = calls(name)
        for name in ("lattice.pair", "lattice.orth_complement", "intmat.enumerate_quadric",
                     "intmat.is_negative_definite", "intmat.kernel_basis",
                     "attractor.threefold_central_charge", "mirror.mirror_period",
                     "mirror.mirror_class", "stability.central_charge", "stability.mukai_pair",
                     "stability.p0_violations", "scenario.report", "cli.main"):
            out[f"{name}.self_s"] = secs(name, "self")
        for name in ("attractor.solve_attractor", "attractor.hyperkahler_rotate",
                     "stability.central_charge", "stability.s_part", "stability.p0_violations",
                     "stability.search_kahler_class", "scenario.scenario_from_file",
                     "cli.json_dumps"):
            out[f"{name}.total_s"] = secs(name, "total")
        # Runs while the sweep's inputs are generated, not in any operation.
        out["forms.enumerate_reduced.total_s"] = (s["forms.enumerate_reduced"].total, "s")
        out["intmat.enumerate_quadric.hits"] = (self.quadric_hits * per, "hits/op")
        out["stability.central_charge.distinct_ratio"] = (
            self.charge_distinct / self.charge_calls if self.charge_calls else 0.0,
            "ratio",
        )
        out["stability.search.candidates"] = (self.search_candidates * per, "candidates/op")
        out["stability.search.accept_ratio"] = (
            self.search_successes / self.search_candidates if self.search_candidates else 0.0,
            "ratio",
        )
        return out
