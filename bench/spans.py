"""Outside-in tracing of catbound's layers, from the benchmark's own code.

``Tracer.install`` replaces every public function of the library modules
(plus the family-structure helper ``_structure``, the ``Tree`` and ``SegmentFamily``
validators and ``ContractionPlan.apply``) with a timing wrapper, at every
module binding inside ``catbound``.  Calls the library makes to itself are
therefore traced too, so a span's children are the layer calls it caused.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

``catbound.cli.main`` gets a span per call, named ``cli.<command>``.

A span is (name, parent span, input size n, start, end, operation), timed
with the sampler's clock, which leaves out reference sampling.  For the
generator ``free_trees`` a span is one step of the iterator.

Per-layer metrics (``LayerStats``), named ``<module>.<function>.<stat>``:
``calls`` and ``total_s`` (inclusive) per pass, as medians over the traced
passes; ``p50_us``, the median call; ``slope``, the log-log growth of the
median call time with n; for ``cli.<command>`` and ``oracle.verify_all``
also their self time (``overhead_s``, ``unattributed_s``): time not spent in
a traced call.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
from collections import defaultdict

import catbound

MODULES = ("trees", "contraction", "induced", "duality", "oracle", "render")
# traced besides the public functions: (module, class or None, attribute,
# span name); constructors are traced through their validators
EXTRA = (
    ("duality", None, "_structure", "duality._structure"),
    ("trees", "Tree", "__post_init__", "trees.Tree"),
    ("duality", "SegmentFamily", "__post_init__", "duality.SegmentFamily"),
    ("contraction", "ContractionPlan", "apply", "contraction.ContractionPlan.apply"),
)

# per-layer metrics: functions that get calls / total_s / p50_us
REPORTED = (
    "trees.Tree",
    "trees.parse_tree",
    "trees.canonical_code",
    "trees.diameter_path",
    "trees.contract_edge",
    "contraction.max_caterpillar_by_contraction",
    "contraction.contract_to_caterpillar",
    "contraction.ContractionPlan.apply",
    "contraction.extremal_spider",
    "induced.max_caterpillar",
    "induced.extremal_branch_star",
    "duality.SegmentFamily",
    "duality._structure",
    "duality.tree_to_segments",
    "duality.segments_to_tree",
    "duality.compatible_path",
    "duality.among_path",
    "duality.validate_path",
    "oracle.free_trees",
    "oracle.brute_max_caterpillar",
    "oracle.verify_all",
    "render.render_segments",
)
CLI_COMMANDS = ("verify", "path", "render", "build", "analyze")
SLOPE_KERNELS = (
    "trees.diameter_path",
    "induced.max_caterpillar",
    "contraction.contract_to_caterpillar",
    "duality.compatible_path",
    "duality.among_path",
    "duality.validate_path",
    "trees.canonical_code",
)
# growth slopes use only inputs this large, where per-call overhead is small
SLOPE_MIN_N = 100


def _size(args) -> int | None:
    for a in args:
        if isinstance(a, catbound.Tree):
            return a.vertex_count
        if isinstance(a, catbound.SegmentFamily):
            return a.n
        if isinstance(a, int) and not isinstance(a, bool):
            return a
    return None


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.active = False
        self.operation = ""
        self.records: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def enter(self) -> tuple[int, int | None]:
        sid = len(self.records)
        self.records.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def leave(self, sid, parent, name, n, start) -> None:
        end = self.clock()
        self._stack.pop()
        self.records[sid] = (name, parent, n, start, end, self.operation)

    def span(self, name: str, n: int | None, fn, *args, **kwargs):
        """Call ``fn`` inside a span (used around the benchmark's own
        top-level calls, such as ``cli.main``)."""
        sid, parent = self.enter()
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(sid, parent, name, n, start)

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    return gen
                n = _size(args)

                def steps():
                    while True:
                        sid, parent = tracer.enter()
                        start = tracer.clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.leave(sid, parent, name, n, start)
                        yield item

                return steps()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer.enter()
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(sid, parent, name, _size(args), start)

        return traced

    # ------------------------------------------------------- patching

    def install(self) -> None:
        modules = [getattr(catbound, m) for m in MODULES]
        namespaces = [catbound, catbound.cli, *modules]
        targets = []
        for mod_name, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    targets.append((f"{mod_name}.{attr}", obj))
        for mod_name, cls, attr, label in EXTRA:
            mod = getattr(catbound, mod_name)
            if cls is None:
                targets.append((label, getattr(mod, attr)))
            else:
                owner = getattr(mod, cls)
                self._set(owner, attr, self._wrap(label, vars(owner)[attr]))
        # rebind every module-level name of each function, so that calls
        # the library makes to itself are traced too
        for label, obj in targets:
            wrapped = self._wrap(label, obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        self._set(ns, key, wrapped)

        main = catbound.cli.main
        tracer = self

        def traced_main(argv=None):
            if not tracer.active:
                return main(argv)
            return tracer.span(f"cli.{argv[0]}", None, main, argv)

        self._set(catbound.cli, "main", traced_main)

    def _set(self, owner, key, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()


# ======================================================================
# per-layer statistics
# ======================================================================


class LayerStats:
    """Accumulates traced passes into the per-layer metrics."""

    def __init__(self) -> None:
        self.per_pass: list[dict[str, tuple[int, float, float]]] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.sized: dict[str, list[tuple[str, int, float]]] = defaultdict(list)

    def add_pass(self, records: list, shapes: dict[str, str]) -> None:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, parent, n, start, end, op in records:
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, (name, parent, n, start, end, op) in enumerate(records):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[sid]
            self.durations[name].append(dur)
            if n is not None and n >= SLOPE_MIN_N and name in SLOPE_KERNELS:
                self.sized[name].append((shapes[op], n, dur))
        self.per_pass.append({k: (calls[k], total[k], own[k]) for k in calls})

    def _median(self, name: str, field: int) -> float:
        return statistics.median(p.get(name, (0, 0.0, 0.0))[field] for p in self.per_pass)

    def slope(self, name: str) -> float:
        """Steepest log-log growth of per-call time with input size over the
        input shapes that reached at least two sizes; 0 when none did."""
        by_shape: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        for shape, n, dur in self.sized.get(name, ()):
            by_shape[shape][n].append(dur)
        fits = [
            statistics.linear_regression(
                [math.log(n) for n in sizes],
                [math.log(statistics.median(d)) for d in sizes.values()],
            ).slope
            for sizes in by_shape.values()
            if len(sizes) >= 2
        ]
        return max(fits, default=0.0)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-pass medians of call counts and times; p50 over all calls."""
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED + tuple(f"cli.{c}" for c in CLI_COMMANDS):
            durs = self.durations.get(name)
            out[f"{name}.calls"] = (self._median(name, 0), "count")
            out[f"{name}.total_s"] = (self._median(name, 1), "s")
            out[f"{name}.p50_us"] = (statistics.median(durs) * 1e6 if durs else 0.0, "us")
        for c in CLI_COMMANDS:
            out[f"cli.{c}.overhead_s"] = (self._median(f"cli.{c}", 2), "s")
        out["oracle.verify_all.unattributed_s"] = (self._median("oracle.verify_all", 2), "s")
        for name in SLOPE_KERNELS:
            out[f"{name}.slope"] = (self.slope(name), "1")
        return out
