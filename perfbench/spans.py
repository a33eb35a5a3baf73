"""In-memory spans around the library's public calls, and per-layer figures.

A span is (name, start, end, parent, thread, attrs).  The parent is the
innermost open span on the same thread; a span opened on a pool thread with
nothing open on it is parented to the innermost span open on the main
thread, which is the ``run_experiment`` call that owns the pool.

``instrument`` wraps module attributes of lcmoments for the duration of a
traced round, so the library's own internal calls (``run_experiment`` into
``estimate_pnorm`` into ``sample``, ``surrogate_bundle`` into
``gluskin_kwapien``) pass through the wrappers.  The ``built`` set of a
wrapper tells a ball's first marginal call, which builds its table, from
the queries after it.  Untraced rounds run the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
import time
import weakref
from dataclasses import dataclass, field


SQRT2 = math.sqrt(2.0)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def wrap(self, name: str, fn, label=None, after=None):
        """fn wrapped in a span; ``label(*args, **kwargs)`` gives span attrs
        and ``after(result, attrs)`` may add more once the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = label(*args, **kwargs) if label is not None else {}
            with self.span(name, **attrs) as live:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, live)
                return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "thread": s.thread, **s.attrs}) + "\n")


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set (module, attribute) -> value; restores on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for (mod, attr) in replacements]
    try:
        for (mod, attr), value in replacements.items():
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def family_label(family) -> str:
    """Short family name used in span attributes: exp, ball_q1, cube, ..."""
    from lcmoments import families

    if isinstance(family, families.UniformBall):
        return f"ball_q{family.q:g}"
    if isinstance(family, families.UniformCube):
        return "cube"
    if isinstance(family, families.GaussianStd):
        return "gauss"
    if family.is_linear and {t.rate for t in family.tails} == {SQRT2}:
        return "exp"
    return "product"


def tail_kind(tail_list) -> str:
    """GK solver path: tabulated if any tail is tabulated, else power if any
    is a power tail, else linear."""
    kinds = {t.kind for t in tail_list}
    for kind in ("tabulated", "power"):
        if kind in kinds:
            return kind
    return "linear"


def instrument(tracer: Tracer):
    """Wrap the public calls of montecarlo, families, surrogates and harness."""
    from lcmoments import families, harness, montecarlo, surrogates

    built: set = set()

    def marginal_attrs(ball, x):
        """The first marginal call on a ball builds its table."""
        key = (ball.n, ball.q, ball.r)
        fresh = key not in built
        built.add(key)
        return {"build": fresh}

    def report_bytes(paths, attrs):
        attrs["bytes"] = sum(path.stat().st_size for path in paths)

    labels: dict[int, tuple] = {}

    def sample_attrs(family, rng, size):
        # labelling a 64-tail product family on each of its 64 batches would
        # dominate the tracing cost; the weak reference guards against id reuse
        hit = labels.get(id(family))
        if hit is None or hit[0]() is not family:
            hit = labels[id(family)] = (weakref.ref(family), family_label(family))
        return {"family": hit[1], "draws": int(size) * family.n}

    def gk_attrs(b, tail_list, p):
        return {"kind": tail_kind(tail_list), "dim": len(tail_list)}

    estimate = tracer.wrap("montecarlo.estimate_pnorm", montecarlo.estimate_pnorm)
    bundle = tracer.wrap("surrogates.surrogate_bundle", surrogates.surrogate_bundle)
    return patched({
        (montecarlo, "sample"): tracer.wrap("montecarlo.sample", montecarlo.sample,
                                            sample_attrs),
        (montecarlo, "estimate_pnorm"): estimate,
        (harness, "estimate_pnorm"): estimate,
        (montecarlo, "estimate_fourth_moment"): tracer.wrap(
            "montecarlo.estimate_fourth_moment", montecarlo.estimate_fourth_moment),
        (montecarlo, "estimate_joint_tail"): tracer.wrap(
            "montecarlo.estimate_joint_tail", montecarlo.estimate_joint_tail),
        (montecarlo, "dependent_vs_independent"): tracer.wrap(
            "montecarlo.dependent_vs_independent", montecarlo.dependent_vs_independent),
        (surrogates, "surrogate_bundle"): bundle,
        (harness, "surrogate_bundle"): bundle,
        (surrogates, "gluskin_kwapien"): tracer.wrap(
            "surrogates.gluskin_kwapien", surrogates.gluskin_kwapien, gk_attrs),
        (harness, "run_experiment"): tracer.wrap(
            "harness.run_experiment", harness.run_experiment),
        (harness, "write_report"): tracer.wrap("harness.write_report", harness.write_report,
                                               after=report_bytes),
        (families, "marginal_cdf"): tracer.wrap("families.marginal", families.marginal_cdf,
                                                marginal_attrs),
        (families, "marginal_quantile"): tracer.wrap(
            "families.marginal", families.marginal_quantile, marginal_attrs),
    })


# -- derived figures ---------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.seconds - covered(children.get(s.sid, ())) for s in spans}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.sid]
    return out
