"""Span recorder and patch table machinery, measured from outside.

The benchmark times calls into the program's public functions without
editing the program: a table of dotted names is resolved, each function
is replaced by a timing wrapper, and everything is put back afterwards.

A span is ``(id, name, start, end, parent, thread, self)``.  Stacks are
per thread, so a child running on another thread (the wire plane's
event loop) never subtracts from a parent on this one.  Self time is
duration minus the time covered by same-thread children and is never
negative.  Names called thousands of times per unit *fold* into
``[count, total, self]`` accumulators instead of one record each; they
still subtract from their parent and are subtracted from by their
children.  Coroutine functions get a *wall* accumulator only (count,
total): the loop interleaves other work while they wait, so they take
no part in the parent/child arithmetic.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
import types
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional


class Target(NamedTuple):
    """One row of the patch table."""

    span: str  # span name the call is recorded under
    module: str  # importable module holding the function or class
    path: str  # "function" or "Class.method"
    fold: bool = False  # accumulate (count, total, self) instead of records
    #: optional ``probe(args, result) -> number`` summed into
    #: ``probes[probe_name]`` — counts taken where the work happens
    probe_name: Optional[str] = None
    probe: Optional[Callable] = None


class _ThreadState:
    __slots__ = ("tid", "times", "ids", "folds", "walls")

    def __init__(self, tid):
        self.tid = tid
        self.times = []  # child-time total of each open frame
        self.ids = []  # ids of the open *recorded* spans
        self.folds = {}  # name -> [count, total_s, self_s]
        self.walls = {}  # name -> [count, total_s]


class SpanRecorder:
    """In-memory spans; nothing is written until the run is over."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count()
        self._states = []
        self._states_lock = threading.Lock()
        #: closed spans: (id, name, start, end, parent_id, thread, self_s)
        self.spans = []
        #: probe_name -> summed probe values
        self.probes = {}

    def _new_state(self):
        state = _ThreadState(threading.get_ident())
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    # -- wrappers ------------------------------------------------------
    #
    # Folded wrappers run thousands of times per unit, so their
    # thread-state lookup is inlined and they allocate one float a call.

    def wrap(self, fn, name, fold=False, probe_name=None, probe=None):
        """A timing wrapper around ``fn`` recorded as ``name``."""
        if inspect.iscoroutinefunction(fn):
            wrapper = self._wrap_wall(fn, name)
        elif fold:
            wrapper = self._wrap_folded(fn, name)
        else:
            wrapper = self._wrap_recorded(fn, name)
        if probe is not None:
            wrapper = self._wrap_probe(wrapper, probe_name, probe)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_recorded(self, fn, name):
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_folded(self, fn, name):
        clock, local, new_state = self._clock, self._local, self._new_state

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            times = state.times
            times.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - times.pop()
                if times:
                    times[-1] += duration
                try:
                    acc = state.folds[name]
                except KeyError:
                    acc = state.folds[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration
                if own > 0.0:
                    acc[2] += own

        return wrapper

    def _wrap_wall(self, fn, name):
        clock, local, new_state = self._clock, self._local, self._new_state

        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                acc = state.walls.setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += clock() - start

        return wrapper

    def _wrap_probe(self, inner, probe_name, probe):
        probes = self.probes

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            probes[probe_name] = probes.get(probe_name, 0) + probe(
                args, result
            )
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span."""
        try:
            state = self._local.state
        except AttributeError:
            state = self._new_state()
        times, open_ids = state.times, state.ids
        parent = open_ids[-1] if open_ids else -1
        span_id = next(self._ids)
        open_ids.append(span_id)
        times.append(0.0)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            children = times.pop()
            open_ids.pop()
            duration = end - start
            if times:
                times[-1] += duration
            self.spans.append(
                (span_id, name, start, end, parent, state.tid,
                 max(0.0, duration - children))
            )

    # -- read-out ------------------------------------------------------

    def totals(self):
        """``{name: {"count", "total_s", "self_s"}}`` over every thread,
        recorded spans and folds alike; wall accumulators carry
        ``self_s`` 0 (they overlap other work)."""
        out = {}

        def add(name, count, total, self_s):
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += count
            entry["total_s"] += total
            entry["self_s"] += self_s

        for _id, name, start, end, _parent, _tid, self_s in list(self.spans):
            add(name, 1, end - start, self_s)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, (count, total, self_s) in state.folds.items():
                add(name, count, total, self_s)
            for name, (count, total) in state.walls.items():
                add(name, count, total, 0.0)
        return out

    def to_dict(self):
        """The trace file's payload."""
        return {
            "span_fields": [
                "id", "name", "start_s", "end_s", "parent", "thread",
                "self_s",
            ],
            "spans": [list(span) for span in self.spans],
            "totals": self.totals(),
            "probes": dict(self.probes),
        }


# -- patching ----------------------------------------------------------


def _resolve(target):
    """``(owner, attribute, original function)`` or ``None`` when the
    name no longer exists (a later commit deleted or renamed it)."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    parts = target.path.split(".")
    if len(parts) == 1:
        owner, attribute = module, parts[0]
        original = vars(module).get(attribute)
    elif len(parts) == 2:
        cls = vars(module).get(parts[0])
        if not isinstance(cls, type):
            return None
        attribute = parts[1]
        # Patch where the method is defined, so a subclass that merely
        # inherits it is covered and one that overrides it is not hidden.
        owner = next(
            (k for k in cls.__mro__ if attribute in vars(k)), None
        )
        if owner is None:
            return None
        original = vars(owner)[attribute]
    else:
        return None
    if not isinstance(original, types.FunctionType):
        return None
    return owner, attribute, original


def _binding_sites(original):
    """Every ``repro.*`` module global that *is* ``original`` —
    ``from x import f`` copies the reference, so each copy is rebound."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attribute))
    return sites


class Patcher:
    """Install a table of timing wrappers; restore them exactly.

    The table is resolved once; ``install``/``restore`` may then
    alternate any number of times (the traced run patches around each
    traced unit only, so its audits and the untraced units interleaved
    with it run the program untouched).
    """

    def __init__(self, recorder, table):
        #: "module:path" of every row that could not be resolved
        self.missing = []
        self._sites = []  # (owner, attribute, original, wrapper)
        seen = set()
        for target in table:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append("%s:%s" % (target.module, target.path))
                continue
            owner, attribute, original = resolved
            if id(original) in seen:
                continue  # two rows naming one (inherited) function
            seen.add(id(original))
            wrapper = recorder.wrap(
                original,
                target.span,
                fold=target.fold,
                probe_name=target.probe_name,
                probe=target.probe,
            )
            if isinstance(owner, type):
                sites = [(owner, attribute)]
            else:
                sites = _binding_sites(original)
            self._sites.extend(
                (site_owner, site_attribute, original, wrapper)
                for site_owner, site_attribute in sites
            )

    def install(self):
        for owner, attribute, _original, wrapper in self._sites:
            setattr(owner, attribute, wrapper)
        return self

    def restore(self):
        for owner, attribute, original, _wrapper in self._sites:
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.restore()
