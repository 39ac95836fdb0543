"""Per-layer tracing by wrapping the public functions of every bhfix module.

Nothing in the program is edited: each public function and each public
method of a class defined in a ``bhfix`` module is replaced by a wrapper,
on every name binding a caller looks up (module attributes, including names
imported into other modules, and class attributes).  Layers are the module
names; a metric is ``<module>.<function>``.

Spans are kept in memory only at the coarse boundaries (``COARSE``).  Calls
below them are aggregated per parent span as [calls, self seconds], because
hot functions such as ``System.compare`` run millions of times.  Self time
is a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

MODULES = (
    "finite_orders",
    "dilator",
    "standard_dilators",
    "systems",
    "limits",
    "interpret",
    "syntax",
    "verify",
    "cli",
)

# Method name prefixes for classes whose methods would otherwise share a
# metric name with a more important method of the same module.
CLASS_PREFIX = {
    "systems.ThetaCarrier": "carrier_",
    "systems.EmptyCarrier": "carrier_",
    "interpret.Witness": "witness_",
    "interpret.OmegaSuccessorWitness": "witness_",
    "interpret.SelfWitness": "witness_",
    "verify.CheckReport": "report_",
}

VERIFY_CHECKS = (
    "dilator_laws",
    "theta_linear",
    "collapse_admissible",
    "commuting_square",
    "goodness",
    "fixed_point",
    "witness",
    "minimality",
)

# The boundaries at which spans are kept.
COARSE = {
    "cli.main",
    "limits.enumerate",
    "interpret.embed_bh",
    "syntax.parse_bh",
    "syntax.format_bh",
} | {f"verify.{check}" for check in VERIFY_CHECKS}

# Functions whose time the deep-compare share counts, outermost call only.
REMAP = {"limits.lift", "systems.embed"}

# One-line helpers that relabel supports inside System.embed and compare_at.
# They run millions of times per deep compare, so they are left unwrapped and
# their time counts to their caller.
UNWRAPPED = {"finite_orders.finset_map", "finite_orders.sgn", "dilator.map_coded"}


class Span:
    __slots__ = ("sid", "name", "parent", "request", "start", "end", "agg")

    def __init__(self, sid, name, parent, request, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = None
        # name -> [calls, self seconds] of the calls made under this span
        self.agg = {}

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            "calls": {k: [v[0], round(v[1], 9)] for k, v in self.agg.items()},
        }


class RequestTrace:
    """Counters of one request that are not call counts or times."""

    __slots__ = ("rid", "label", "root", "towers", "interned", "memo_hits",
                 "max_depth", "remap_s", "enumerations", "system_memo", "tower_memo")

    def __init__(self, rid: int, label: str, root: Span):
        self.rid = rid
        self.label = label
        self.root = root
        self.towers = []
        self.interned = 0
        self.memo_hits = 0
        self.max_depth = 0
        self.remap_s = 0.0
        # (terms interned during a Tower.enumerate call, elements returned)
        self.enumerations = []
        # Memo entries held by the request's towers when it ended.
        self.system_memo = 0
        self.tower_memo = 0

    def count_memos(self) -> None:
        """Count the memo entries of the request's towers, then drop them."""
        for tower in self.towers:
            self.tower_memo += len(getattr(tower, "_memo", ()))
            for system in getattr(tower, "_systems", ()):
                self.system_memo += len(getattr(system, "_memo", ()))
        self.towers = []


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[Span] = []
        self.requests: list[RequestTrace] = []
        # Child time of each active wrapped call; slot 0 is the request's.
        self._stack = [0.0]
        self._span: Span | None = None
        self._req: RequestTrace | None = None
        self._depth = 0
        self._remap_depth = 0

    # -- requests -----------------------------------------------------------

    def begin_request(self, label: str) -> None:
        root = Span(len(self.spans), "request", None, len(self.requests), perf_counter())
        self.spans.append(root)
        self._req = RequestTrace(len(self.requests), label, root)
        self.requests.append(self._req)
        self._span = root
        # A request that overflowed the stack may have left entries behind.
        self._stack = [0.0]
        self._depth = 0
        self._remap_depth = 0
        self.on = True

    def end_request(self, duration: float) -> RequestTrace:
        """Close the request; its unwrapped harness time becomes its self time."""
        self.on = False
        req = self._req
        req.root.end = perf_counter()
        req.root.agg["harness"] = [1, max(0.0, duration - self._stack[0])]
        req.count_memos()
        self._span = None
        self._req = None
        return req

    # -- wrappers -----------------------------------------------------------
    #
    # Every timed wrapper pushes a child-time slot on ``_stack``, calls the
    # wrapped function and hands the start time to ``_close``.  The variants
    # differ only in the counters they keep before the call.

    def _close(self, name: str, t0: float) -> None:
        dt = perf_counter() - t0
        stack = self._stack
        self_s = dt - stack.pop()
        stack[-1] += dt
        agg = self._span.agg
        rec = agg.get(name)
        if rec is None:
            agg[name] = [1, self_s]
        else:
            rec[0] += 1
            rec[1] += self_s

    def _fine(self, fn, name):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(name, t0)

        return wrapper

    def _compare(self, fn, name):
        """System.compare: memo hits and the deepest nesting, too."""
        tr = self

        def compare(system, s, t):
            if not tr.on:
                return fn(system, s, t)
            req = tr._req
            memo = getattr(system, "_memo", None)
            if s is t or (memo is not None and (id(s), id(t)) in memo):
                req.memo_hits += 1
            tr._depth += 1
            if tr._depth > req.max_depth:
                req.max_depth = tr._depth
            tr._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(system, s, t)
            finally:
                tr._depth -= 1
                tr._close(name, t0)

        return compare

    def _collapse(self, fn, name):
        """System.collapse: the number of newly interned terms, too."""
        tr = self

        def collapse(system, coded):
            if not tr.on:
                return fn(system, coded)
            intern = getattr(system, "_intern", ())
            before = len(intern)
            tr._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(system, coded)
            finally:
                tr._req.interned += len(intern) - before
                tr._close(name, t0)

        return collapse

    def _remap(self, fn, name):
        """Tower.lift and System.embed: inclusive time of the outermost call."""
        tr = self

        def remap(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            outer = tr._remap_depth == 0
            tr._remap_depth += 1
            tr._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tr._remap_depth -= 1
                if outer:
                    tr._req.remap_s += perf_counter() - t0
                tr._close(name, t0)

        return remap

    def _coarse(self, fn, name):
        """A kept span; Tower.enumerate also records interned per returned."""
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            parent = tr._span
            req = tr._req
            span = Span(len(tr.spans), name, parent.sid, req.rid, perf_counter())
            tr.spans.append(span)
            tr._span = span
            interned = req.interned
            result = None
            tr._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                tr._span = parent
                tr._close(name, t0)
                if name == "limits.enumerate" and result is not None:
                    req.enumerations.append((req.interned - interned, len(result)))

        return wrapper

    def _tower_init(self, fn):
        tr = self

        def __init__(tower, *args, **kwargs):
            fn(tower, *args, **kwargs)
            if tr.on:
                tr._req.towers.append(tower)

        return __init__

    # -- installation --------------------------------------------------------

    def install(self) -> int:
        """Wrap every public function; return the number of bindings replaced."""
        wrappers: dict[int, object] = {}
        replaced = 0
        for short in MODULES:
            mod = importlib.import_module(f"bhfix.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    fname = attr[len("check_"):] if short == "verify" and attr.startswith("check_") else attr
                    if f"{short}.{fname}" not in UNWRAPPED:
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{fname}"))
                elif inspect.isclass(obj):
                    prefix = CLASS_PREFIX.get(f"{short}.{attr}", "")
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        setattr(obj, mname, self._wrap(meth, f"{short}.{prefix}{mname}"))
                        replaced += 1
        # Constructions of validated embeddings, and towers created per request.
        from bhfix.finite_orders import Embedding
        from bhfix.limits import Tower

        Embedding.__post_init__ = self._fine(Embedding.__post_init__, "finite_orders.embeddings")
        Tower.__init__ = self._tower_init(Tower.__init__)
        replaced += 2
        for modname, mod in list(sys.modules.items()):
            if modname != "bhfix" and not modname.startswith("bhfix."):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])
                    replaced += 1
        return replaced

    def _wrap(self, fn, name):
        if name in COARSE:
            return self._coarse(fn, name)
        if name in REMAP:
            return self._remap(fn, name)
        if name == "systems.compare":
            return self._compare(fn, name)
        if name == "systems.collapse":
            return self._collapse(fn, name)
        return self._fine(fn, name)
