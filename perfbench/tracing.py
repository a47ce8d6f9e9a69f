"""Span tracer that wraps vineboost's public functions from the outside.

The traced run swaps module-level names (and ``ConditionalVineModel``
methods) for wrappers that record one span per call: name, start, end,
parent span, operation id, thread and an optional note (elements computed,
iteration counts, the family of an ``hinv`` call).  Nothing under ``src/``
changes; every swapped name is put back when :meth:`Tracer.installed`
exits, also when the operation inside raised.

Spans stay in memory.  :func:`self_times` turns the spans of one operation
into per-span self times: a span's duration minus the part of its interval
covered by the union of its children's intervals.  Children may come from
several threads (the ``fit_vine`` edge pool) and may overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from typing import NamedTuple


#: Functions traced per layer, as ``(layer, module, attribute)``.
FUNCTIONS = (
    ("families", "vineboost.families", "log_density"),
    ("families", "vineboost.families", "loss_gradient"),
    ("families", "vineboost.families", "link_tau"),
    ("families", "vineboost.families", "hfunc"),
    ("families", "vineboost.families", "hinv"),
    ("boosting", "vineboost.boosting", "fit_pair"),
    ("boosting", "vineboost.boosting", "fit_plain"),
    ("boosting", "vineboost.boosting", "boost"),
    ("boosting", "vineboost.boosting", "stop_aic"),
    ("boosting", "vineboost.boosting", "stop_cv"),
    ("boosting", "vineboost.boosting", "deselect"),
    ("boosting", "vineboost.boosting", "predict_tau"),
    ("vine", "vineboost.vine", "fit_vine"),
    ("scoring", "vineboost.scoring", "energy_score"),
    ("scoring", "vineboost.scoring", "variogram_score"),
    ("scoring", "vineboost.scoring", "mv_rank_histogram"),
    ("scoring", "vineboost.scoring", "reliability_index"),
    ("scoring", "vineboost.scoring", "dm_test"),
    ("scoring", "vineboost.scoring", "gca_fit"),
    ("scoring", "vineboost.scoring", "gca_sample"),
    ("simulation", "vineboost.simulation", "gen_covariates"),
    ("cli", "vineboost.cli", "main"),
    ("cli", "vineboost.cli", "read_csv_matrix"),
    ("cli", "vineboost.cli", "load_covariates"),
    ("cli", "vineboost.cli", "write_manifest"),
)

#: ``ConditionalVineModel`` methods traced as the ``vine`` layer.
MODEL_METHODS = ("sample", "inverse_rosenblatt", "rosenblatt", "log_density", "to_json", "from_json")

#: Every span name the tracer can produce, apart from the root span.
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in FUNCTIONS) + tuple(
    f"vine.{m}" for m in MODEL_METHODS
)

KERNELS = ("log_density", "loss_gradient", "link_tau", "hfunc", "hinv")

ROOT = "op"


class Span(NamedTuple):
    """One finished call.  A tuple of plain values, so the garbage collector
    stops tracking it and a run holding many spans stays cheap to trace."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    thread: int
    error: bool = False
    note: object = None

    @property
    def duration(self):
        return self.end - self.start


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _note_kernel(fn, args, kwargs, result):
    # kernels return one value per broadcast element
    return getattr(result, "size", 1)


def _note_hinv(fn, args, kwargs, result):
    family = _bound(fn, args, kwargs)["family"]
    return (getattr(family, "value", str(family)), getattr(result, "size", 1))


def _note_boost(fn, args, kwargs, result):
    refit = _bound(fn, args, kwargs).get("selectable") is not None
    return (len(result.selected), refit)


def _note_stop_aic(fn, args, kwargs, result):
    return (int(result), _bound(fn, args, kwargs)["path"].m_stop)


def _note_stop_cv(fn, args, kwargs, result):
    return (int(result), _bound(fn, args, kwargs)["control"].m_stop)


_NOTES = {
    **{f"families.{k}": _note_kernel for k in KERNELS},
    "families.hinv": _note_hinv,
    "boosting.boost": _note_boost,
    "boosting.stop_aic": _note_stop_aic,
    "boosting.stop_cv": _note_stop_cv,
}


class Tracer:
    """Records spans for calls made while it is installed.

    Spans opened outside an operation (see :meth:`op`) are dropped.  A span
    opened on a thread with no open span of its own (a pool worker) takes
    as parent the innermost open span of the thread that started the
    operation.
    """

    def __init__(self):
        # next() on a count and list.append are single atomic steps under the
        # interpreter lock, so pool threads can share both without a Lock
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = None
        self._op_stack = None
        self._swapped = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        """Start a span; returns ``[id, name, start, parent, op]`` or None outside an op."""
        if self._op is None:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            op_stack = self._op_stack
            parent = op_stack[-1][0] if op_stack else None
        span = [next(self._ids), name, time.perf_counter(), parent, self._op]
        stack.append(span)
        return span

    def _close(self, span, error=False, note=None, end=None):
        if span is None:
            return
        end = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        done = Span(*span[:3], end, *span[3:], threading.get_ident(), error, note)
        self.spans.append(done)

    @contextlib.contextmanager
    def op(self, op_id):
        """Open the root span of one operation on the calling thread."""
        self._op = op_id
        self._op_stack = self._stack()
        root = self._open(ROOT)
        error = True
        try:
            yield root
            error = False
        finally:
            self._close(root, error=error)
            self._op = None
            self._op_stack = None

    def wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, error=True)
                raise
            if span is not None and note is not None:
                end = time.perf_counter()
                self._close(span, note=note(fn, args, kwargs, result), end=end)
            else:
                self._close(span)
            return result

        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self):
        """Swap every traced name in every loaded vineboost module."""
        if self._swapped:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "vineboost" and m]
        try:
            for layer, modname, attr in FUNCTIONS:
                fn = getattr(sys.modules.get(modname), attr, None)
                if fn is None:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._swapped.append((module, key, value))
                            setattr(module, key, wrapper)
            cls = getattr(sys.modules.get("vineboost.vine"), "ConditionalVineModel", None)
            for meth in MODEL_METHODS if cls is not None else ():
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                self._swapped.append((cls, meth, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(f"vine.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(f"vine.{meth}", raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Put back every swapped name, last swapped first."""
        while self._swapped:
            owner, key, value = self._swapped.pop()
            setattr(owner, key, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- self times ----------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to self time, and the overlap excess of all children.

    Children are clipped to their parent's interval.  The returned excess is
    the sum, over spans, of the children's clipped durations minus the
    length of their union: the time counted twice because children ran
    concurrently.  Without concurrency it is zero and the self times of one
    operation's spans sum to its root span's duration; in general they sum
    to root duration plus excess.
    """
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    excess = 0.0
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if min(c.end, s.end) > max(c.start, s.start)
        ]
        covered = _union_length(clipped)
        excess += sum(e - b for b, e in clipped) - covered
        out[s.id] = s.duration - covered
    return out, excess
