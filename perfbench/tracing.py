"""Span tracing of the ``sandpiles`` modules, done entirely from outside.

:meth:`Tracer.installed` replaces every public function, every class
constructor and every public method of each module under ``src/sandpiles/``
by a wrapper that records one span per call: name, start, end, parent span
and op id.  A function is replaced under every name that refers to it, in
every ``sandpiles`` module, because ``groups``, ``harness`` and ``cli`` look
names up in their own namespace after a from-import.  Nothing is wrapped
while the context is closed, so untraced ops run the program unchanged.

Spans stay in memory (parallel lists) and are aggregated, or written out, at
the end of a run.  A few wrappers also add exact work counts at the boundary
where the work happens (:data:`COUNTERS`).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("bigraph", "cli", "gfp", "groups", "harness", "intmat", "reduction", "rng", "theory", "verify")

# Sub-microsecond leaves called once per scalar draw: a span would cost more
# than the call itself and swamp the rng layer.  mix64 is left alone;
# next_u64 is counted without a span, for next_below's acceptance ratio.
UNTRACED = "rng.mix64"
COUNT_ONLY = "rng.SplitMix64.next_u64"


def _rank_name(args) -> str:
    return "gfp.rank_gf2" if args[0].p == 2 else "gfp.rank_generic"


# Span names chosen per call: rank_mod_p has two algorithms behind one name.
DISPATCH = {"gfp.rank_mod_p": (_rank_name, ("gfp.rank_gf2", "gfp.rank_generic"))}


def _count_rank(tracer, args, result, _before):
    m = args[0]
    tracer.count("gfp.pivots", result)
    tracer.count("gfp.row_updates.computed", result * m.rows * m.cols)


def _count_invert(tracer, args, _result, _before):
    n = args[0].rows
    tracer.count("gfp.pivots", n)
    # Gauss-Jordan on the n x 2n augmented matrix.
    tracer.count("gfp.row_updates.computed", n * n * 2 * n)


def _count_next_below(tracer, _args, _result, before):
    tracer.count("rng.SplitMix64.next_below.accepted", 1)
    tracer.count("rng.SplitMix64.next_below.draws", tracer.raw_draws - before)


# name -> (value read before the call or None, post-call counter)
COUNTERS = {
    "gfp.rank_mod_p": (None, _count_rank),
    "gfp.invert_mod_p": (None, _count_invert),
    "bigraph.connected_components": (
        None, lambda t, _a, r, _b: t.count("bigraph.components", len(r))),
    "intmat.determinant": (
        None, lambda t, _a, r, _b: t.count("intmat.order_bits", abs(r).bit_length())),
    "theory.rank_pmf_theoretical": (
        None, lambda t, _a, r, _b: t.count("theory.support_points", len(r.pmf))),
    "rng.SplitMix64.next_below": (lambda t: t.raw_draws, _count_next_below),
}


def _targets():
    """Yield (span name, owner, attribute, original) for everything traced."""
    for mod in MODULES:
        module = sys.modules[f"sandpiles.{mod}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod}.{attr}", None, attr, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in vars(obj).items():
                    if not inspect.isfunction(fn):
                        continue
                    if meth == "__init__":
                        yield f"{mod}.{attr}", obj, meth, fn
                    elif not meth.startswith("_"):
                        yield f"{mod}.{attr}.{meth}", obj, meth, fn


class Tracer:
    """Records spans of wrapped ``sandpiles`` calls and counts of their work.

    ``current_op`` is the op id stamped on every span that starts; ``unit``
    keys the work counts.  The runner sets both.  Spans are kept in parallel lists
    indexed by span id, which is also the start order.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.outer_name: list[bool] = []
        self.outer_module: list[bool] = []
        self._stack: list[int] = []
        self._open_names: dict[int, int] = defaultdict(int)
        self._open_modules: dict[str, int] = defaultdict(int)
        self.current_op = None
        self.unit = None
        self.raw_draws = 0
        self.counts: dict = defaultdict(lambda: defaultdict(int))

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def count(self, key: str, value: int) -> None:
        self.counts[self.unit][key] += value

    def _wrap(self, name: str, fn):
        tracer = self
        if name == COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.raw_draws += 1
                return fn(*args, **kwargs)
            return counted
        namer, names = DISPATCH.get(name, (None, (name,)))
        ids = {n: (self._intern(n), n.split(".", 1)[0]) for n in names}
        fixed = ids[name] if namer is None else None
        before, after = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, module = fixed if namer is None else ids[namer(args)]
            sid = len(tracer.name)
            tracer.name.append(idx)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.outer_name.append(tracer._open_names[idx] == 0)
            tracer.outer_module.append(tracer._open_modules[module] == 0)
            tracer._open_names[idx] += 1
            tracer._open_modules[module] += 1
            tracer._stack.append(sid)
            token = before(tracer) if before is not None else None
            tracer.start[sid] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._open_names[idx] -= 1
                tracer._open_modules[module] -= 1
            if after is not None:
                after(tracer, args, result, token)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable under every name that refers to it."""
        restore = []
        try:
            for name, owner, attr, original in _targets():
                if name == UNTRACED:
                    continue
                wrapper = self._wrap(name, original)
                if owner is not None:
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for modname, module in list(sys.modules.items()):
                    if modname != "sandpiles" and not modname.startswith("sandpiles."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def known_names(self) -> set[str]:
        """Every span name a wrapper can record, modules included."""
        names = set()
        for name, *_ in _targets():
            if name not in (UNTRACED, COUNT_ONLY):
                names.update(DISPATCH.get(name, (None, (name,)))[1])
        return names | {n.split(".", 1)[0] for n in names}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy ns and self ns per span name and per module.

        Busy time counts only spans with no enclosing span of the same name
        (or module), so recursion and nesting are not double counted.  Self
        time is a span's duration minus its direct children's.
        """
        child = [0] * len(self.name)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0}
        )
        for sid, idx in enumerate(self.name):
            dur = self.end[sid] - self.start[sid]
            name = self.names[idx]
            module = name.split(".", 1)[0]
            for key, outer in ((name, self.outer_name[sid]), (module, self.outer_module[sid])):
                row = totals[key]
                row["calls"] += 1
                row["self_ns"] += dur - child[sid]
                if outer:
                    row["ns"] += dur
        return totals

    def spans(self):
        """(name, start_ns, end_ns, parent_span, op) for every span, by id."""
        for sid, idx in enumerate(self.name):
            yield self.names[idx], self.start[sid], self.end[sid], self.parent[sid], self.op[sid]
