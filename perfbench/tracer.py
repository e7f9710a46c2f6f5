"""Outside-in tracer: spans around calls into ffgeom's public functions.

Installing the tracer replaces every public function and public method of
the traced modules with a wrapper that records one span (name, start, end,
parent span) per call.  Names that other modules imported directly, such as
`from .varieties import on_paraboloid`, are rebound to the same wrapper, so a
call is traced whichever namespace it goes through.  `uninstall` puts every
original object back; the untraced passes run with no wrapper at all.

`field` is not traced: its methods run per scalar, millions of times, and a
wrapper there would mostly time itself.  `oracle` runs only inside the
correctness checks, which are never traced.

Spans stay in memory as tuples `(id, parent, name, t0_ns, t1_ns, info)`,
where `parent` is -1 for a root span and `info` is a small tuple that an
extractor below took from the call's arguments and result, for the work
counters.  Traced passes run on one thread, so one stack suffices.
"""

from __future__ import annotations

import functools
import inspect
import time

# Module names (under ffgeom) that get spans; the layer of a span is the
# first component of its name.
TRACED_MODULES = ("cli", "sweep", "varieties", "counting", "fourier", "constructions")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _pairs(args, kwargs, result):
    E = _arg(args, kwargs, 0, "E")
    F = _arg(args, kwargs, 1, "F")
    return (len(E) * len(E if F is None else F),)


def _dense(args, kwargs, result):
    X = _arg(args, kwargs, 0, "X")
    return (X.field.p, X.dim, len(X))


def _surface(args, kwargs, result):
    V = _arg(args, kwargs, 0, "f").variety
    return (V.field.p, V.dim, len(V))


def _zero_table(args, kwargs, result):
    field = _arg(args, kwargs, 0, "field")
    return (field.p, _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "method", "closed"))


# Per-span extractors for the work counters; each reads sizes only.  The
# counting ones start with the pairs the call's n x n pass visits.
EXTRACTORS = {
    "varieties.PointSet.build": lambda a, k, r: (len(r),),
    "counting.dot_histogram": _pairs,
    "counting.count_D": lambda a, k, r: (len(_arg(a, k, 0, "E")) ** 2,),
    "counting.count_D_star": lambda a, k, r: (len(_arg(a, k, 0, "E")) ** 2,),
    "counting.isosceles_counts": lambda a, k, r: (
        len(_arg(a, k, 0, "X")) ** 2, r.degenerate_pairs, len(_arg(a, k, 0, "X"))
    ),
    "fourier.fourier_indicator": _dense,
    "fourier.inverse_surface_transform": _surface,
    "fourier.zero_sphere_hat_table": _zero_table,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, None)
            if extract is not None:
                spans[sid] = (sid, parent, name, t0, t1, extract(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, m) for m in TRACED_MODULES]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(f"{short}.{attr}", obj)
        # Rebind every module-level name bound to a wrapped function, in the
        # defining module and wherever it was imported by name.
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(desc, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(f"{prefix}.{attr}", desc.__func__)))
            elif inspect.isfunction(desc):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", desc))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


# -- reading spans -----------------------------------------------------------


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def span_metric(spans: list, prefix: str, kind: str) -> float:
    """Aggregate the spans named `prefix` or nested under it by name.

    kind "calls" counts them, "self_ms" sums their self time (duration minus
    the duration of their child spans), and "ms" sums the duration of the
    outermost ones, so a recursive or nested call is not counted twice.
    """
    hit = [_matches(s[2], prefix) for s in spans]
    if kind == "calls":
        return float(sum(hit))
    if kind == "self_ms":
        child = [0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        return sum(s[4] - s[3] - child[s[0]] for s, h in zip(spans, hit) if h) / 1e6
    if kind == "ms":
        total = 0
        for s, h in zip(spans, hit):
            if not h:
                continue
            parent = s[1]
            while parent >= 0 and not hit[parent]:
                parent = spans[parent][1]
            if parent < 0:
                total += s[4] - s[3]
        return total / 1e6
    raise ValueError(f"unknown span metric kind {kind!r}")


def root_ms(spans: list) -> float:
    return sum(s[4] - s[3] for s in spans if s[1] < 0) / 1e6
