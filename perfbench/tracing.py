"""Span tracing around ghckit's public functions, installed from outside.

Nothing in ghckit knows about this module.  ``install`` replaces each traced
function with a wrapper in every ``ghckit.*`` module namespace that binds it
(``fk`` binds ``cones_intersect_trivially``, ``shadow`` binds ``cone_member``,
...), so calls made inside the library are seen as well as the benchmark's
own.  Spans stay in memory as ``[name, start, end, parent, op, extra]`` lists
and are aggregated, and written out, only when the run ends.

A layer's self time is its span duration minus the time its child spans
cover; calls are strictly nested in one thread, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

# (module, attribute) of every traced public function; span names are
# "<module>.<attribute>".
TARGETS = [
    ("exact", "lp_feasible"),
    ("exact", "cones_intersect_trivially"),
    ("exact", "cone_member"),
    ("exact", "solve_linear"),
    ("exact", "nullspace"),
    ("shadow", "shadow"),
    ("shadow", "closed_subsets"),
    ("shadow", "is_closed"),
    ("fk", "theorem8_finite_type"),
    ("fk", "singular_weights"),
    ("fk", "theorem6_solvable_finite_type"),
    ("fk", "is_primal"),
    ("rootsys", "build"),
    ("rootsys", "weyl_dim"),
    ("principal", "partition_P"),
    ("principal", "PrincipalData.build"),
    ("principal", "ktype_series"),
    ("mathieu", "sp_degree"),
    ("cli", "run"),
]

# targets reported as {calls, self_s}; closed_subsets and build have their own counters
TIMED = [f"{m}.{a}" for m, a in TARGETS if a not in ("closed_subsets", "build")]

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _lp_cells(args, kwargs):
    # tableau of lp_feasible: m rows, n structural + m artificial + rhs columns
    m = len(_arg(args, kwargs, 0, "equalities"))
    n = _arg(args, kwargs, 1, "nonneg_vars")
    return m * (n + m + 1)


def _dp_cells(args, kwargs):
    # inner-loop updates of partition_P's table for this target
    multiset = _arg(args, kwargs, 0, "multiset")
    t = Fraction(_arg(args, kwargs, 1, "target"))
    if t < 0 or t.denominator != 1:
        return 0
    return sum(mult * max(0, int(t) + 1 - part) for part, mult in multiset.items())


class Tracer:
    """Collects spans for one process.  ``op`` labels the spans that follow;
    while ``active`` is false the wrappers call straight through."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self.active = True
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._built: set = set()

    def call(self, name, fn, args, kwargs, extra=None, post=None):
        if not self.active:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, extra]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if post is not None:
            span[EXTRA] = post(span[EXTRA], result)
        return result

    def _wrap(self, name, fn):
        if name == "shadow.closed_subsets":
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = post = None
            if name == "exact.lp_feasible":
                extra = _lp_cells(args, kwargs)
                post = lambda cells, res: (cells, res is not None)  # noqa: E731
            elif name == "principal.partition_P":
                extra = _dp_cells(args, kwargs)
            elif name == "rootsys.build":
                key = (args, tuple(sorted(kwargs.items())))
                extra = key not in self._built  # cold: first build of this type here
                self._built.add(key)
            return self.call(name, fn, args, kwargs, extra, post)

        return wrapper

    def _wrap_generator(self, name, fn):
        # one span per next(): the enumeration's work happens inside next()
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    try:
                        item = self.call(name, next, (gen,), {}, False, lambda _, __: True)
                    except StopIteration:
                        return
                    yield item

            return traced()

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ghckit module that binds it."""
        for mod_name in {m for m, _ in TARGETS}:
            importlib.import_module(f"ghckit.{mod_name}")
        modules = [m for k, m in list(sys.modules.items()) if k == "ghckit" or k.startswith("ghckit.")]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            module = importlib.import_module(f"ghckit.{mod_name}")
            if "." in attr:  # a classmethod, e.g. PrincipalData.build
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        if self.missing:
            print(f"perfbench: not traced (missing): {', '.join(self.missing)}", file=sys.stderr)


def aggregate(spans: list[list]) -> dict:
    """Per-span-name totals: calls, self seconds and the extra counters."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        st = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (s[END] - s[START]) - child[i]
        extra = s[EXTRA]
        if name == "exact.lp_feasible":
            cells, feasible = extra if isinstance(extra, (list, tuple)) else (extra, False)
            st["tableau_cells"] = st.get("tableau_cells", 0) + cells
            st["feasible"] = st.get("feasible", 0) + int(feasible)
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "exact.cones_intersect_trivially":
                cit = out.setdefault("exact.cones_intersect_trivially", {"calls": 0, "self_s": 0.0})
                cit["lps"] = cit.get("lps", 0) + 1
        elif name == "principal.partition_P":
            st["dp_cells"] = st.get("dp_cells", 0) + extra
        elif name == "rootsys.build" and extra:
            st["cold_calls"] = st.get("cold_calls", 0) + 1
            st["cold_s"] = st.get("cold_s", 0.0) + (s[END] - s[START])
        elif name == "shadow.closed_subsets":
            st["yielded"] = st.get("yielded", 0) + int(bool(extra))
    return out


def merge(into: dict, other: dict) -> dict:
    for name, st in other.items():
        dst = into.setdefault(name, {})
        for key, value in st.items():
            dst[key] = dst.get(key, 0) + value
    return into


def layer_metrics(stats: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json that come from spans."""

    def get(name, key, default=0):
        return stats.get(name, {}).get(key, default)

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s", 0.0)
    lp_calls = get("exact.lp_feasible", "calls")
    out["exact.lp_feasible.tableau_cells"] = get("exact.lp_feasible", "tableau_cells")
    out["exact.lp_feasible.feasible_share"] = (
        get("exact.lp_feasible", "feasible") / lp_calls if lp_calls else 0.0
    )
    cit_calls = get("exact.cones_intersect_trivially", "calls")
    out["exact.cones_intersect_trivially.lps_per_call"] = (
        get("exact.cones_intersect_trivially", "lps") / cit_calls if cit_calls else 0.0
    )
    out["shadow.closed_subsets.yielded"] = get("shadow.closed_subsets", "yielded")
    out["shadow.closed_subsets.self_s"] = get("shadow.closed_subsets", "self_s", 0.0)
    out["rootsys.build.calls"] = get("rootsys.build", "calls")
    out["rootsys.build.cold_calls"] = get("rootsys.build", "cold_calls")
    out["rootsys.build.cold_s"] = get("rootsys.build", "cold_s", 0.0)
    out["principal.partition_P.dp_cells"] = get("principal.partition_P", "dp_cells")
    return out
