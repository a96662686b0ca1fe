"""Epoch-boundary stamps and layer spans, recorded from outside graphcd.

Every hook replaces a public attribute of a graphcd module or class and
is undone on exit, so the package itself carries no tracing code. A name
is patched where it is looked up: `model` binds `forward`, `integrate`,
`apply_encoding` and `khop_support` by name, while `dynamics` reaches the
edge kernels through the `tensor` module.
"""
from __future__ import annotations

import time
from array import array

import numpy as np

import graphcd.analysis as an
import graphcd.dynamics as dyn
import graphcd.model as mdl
import graphcd.presets as presets
import graphcd.tensor as tz

# (owner, attribute, span name) of every plain timing wrapper. Tape.record
# and model.forward get their own wrappers in Tracer.
SPANS = (
    (tz, "edge_dot", "tensor.edge_dot"),
    (tz, "segment_softmax", "tensor.segment_softmax"),
    (tz, "edge_weighted_sum", "tensor.edge_weighted_sum"),
    (tz.Tape, "backward", "tensor.backward"),
    (dyn, "attention_values", "dynamics.attention"),
    (dyn.Dynamics, "rhs", "dynamics.rhs"),
    (dyn.Dynamics, "begin_step", "dynamics.begin_step"),
    (dyn.Dynamics, "rollback", "dynamics.rollback"),
    (mdl, "integrate", "solvers.integrate"),
    (mdl, "cross_entropy_loss", "model.loss"),
    (mdl, "accuracy", "model.accuracy"),
    (mdl.AdamW, "step", "model.opt_step"),
    (mdl, "softmax_rows", "model.softmax_rows"),
    (mdl, "learnable_homophily", "model.learnable_homophily"),
    (mdl, "apply_encoding", "encoding.apply_encoding"),
    (mdl, "khop_support", "graph.khop_support"),
    (presets, "load_preset", "presets.load_preset"),
    (an, "energy_trace", "analysis.energy_trace"),
)
SPECIAL = ((tz.Tape, "record"), (mdl, "forward"))
BOUNDARY = (mdl.AdamW, "zero_grad")
# Backward closures are recorded as spans named BWD + op name.
BWD = "tensor.bwd."


def patch_targets():
    """Every (owner, attribute) that a hook in this module may replace."""
    return [(o, a) for o, a, _ in SPANS] + list(SPECIAL) + [BOUNDARY]


class Abort(Exception):
    """Raised by a boundary hook to end a run at its first boundary."""


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Boundary:
    """Stamps time.perf_counter() on each call of one function.

    With `abort`, the first call raises Abort instead of running the
    function; set-up time is measured that way.
    """

    def __init__(self, owner, attr, abort: bool = False):
        self.owner, self.attr, self.abort = owner, attr, abort
        self.stamps: list[float] = []
        self._patches = _Patches()

    def __enter__(self) -> "Boundary":
        orig = vars(self.owner)[self.attr]
        stamps, abort, clock = self.stamps, self.abort, time.perf_counter

        def stamped(*args, **kwargs):
            stamps.append(clock())
            if abort:
                raise Abort
            return orig(*args, **kwargs)

        self._patches.set(self.owner, self.attr, stamped)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False


class Tracer:
    """Spans (name, start, end, parent) kept in memory as flat columns."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.record_times = array("d")
        self._stack: list[int] = []
        self._patches = _Patches()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPANS:
            self._patches.set(owner, attr, self.timed(name, vars(owner)[attr]))

        orig_record = vars(tz.Tape)["record"]
        times, clock = self.record_times, time.perf_counter

        def record(tape, t):
            times.append(clock())
            bw = t._backward
            if bw is not None:
                op = bw.__qualname__.split(".<locals>")[0]
                t._backward = self.timed(BWD + op, bw)
            return orig_record(tape, t)

        self._patches.set(tz.Tape, "record", record)

        orig_forward = vars(mdl)["forward"]
        fwd_train = self.timed("model.forward.train", orig_forward)
        fwd_eval = self.timed("model.forward.eval", orig_forward)

        def forward(*args, **kwargs):
            train = kwargs["train_mode"] if "train_mode" in kwargs else args[3]
            return (fwd_train if train else fwd_eval)(*args, **kwargs)

        self._patches.set(mdl, "forward", forward)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False

    def columns(self) -> dict:
        """Spans as numpy arrays, with self time computed."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": parent, "start": start, "end": end,
                "self": self_times(start, end, parent),
                "record_times": np.frombuffer(self.record_times,
                                              dtype=np.float64).copy()}

    def table(self, intervals) -> "SpanTable":
        return SpanTable(self.names, self.columns(), intervals)

    def save(self, path):
        """Write the spans out as one .npz file with the name table."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    parent = np.asarray(parent, dtype=np.intp)
    dur = end - start
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def in_intervals(times, intervals) -> np.ndarray:
    """Index of the (start, end) interval holding each time, or -1.

    Intervals must be sorted and disjoint.
    """
    times = np.asarray(times, float)
    if not intervals:
        return np.full(times.shape, -1, dtype=np.intp)
    lo = np.array([a for a, _ in intervals])
    hi = np.array([b for _, b in intervals])
    idx = np.searchsorted(lo, times, side="right") - 1
    ok = (idx >= 0) & (times < hi[np.maximum(idx, 0)])
    return np.where(ok, idx, -1)


class SpanTable:
    """Sums over the spans that start inside any of the given intervals."""

    def __init__(self, names: list, cols: dict, intervals):
        self.names = names
        inside = in_intervals(cols["start"], intervals) >= 0
        self.name_id = cols["name_id"][inside]
        self.dur = (cols["end"] - cols["start"])[inside]
        self.self_s = cols["self"][inside]
        self.records = int((in_intervals(cols["record_times"], intervals)
                            >= 0).sum())

    def _is(self, name: str) -> np.ndarray:
        nid = self.names.index(name) if name in self.names else -1
        return self.name_id == nid

    def total(self, name: str, field: str = "dur") -> float:
        """Summed duration (or self time) of the spans named `name`."""
        vals = self.self_s if field == "self" else self.dur
        return float(vals[self._is(name)].sum())

    def count(self, name: str) -> int:
        return int(self._is(name).sum())

    def prefix_total(self, prefix: str, exclude=()) -> float:
        ids = [i for i, n in enumerate(self.names)
               if n.startswith(prefix) and n not in exclude]
        return float(self.dur[np.isin(self.name_id, ids)].sum())
