"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module. A traced run replaces a
layer's public functions with timing wrappers for the duration of the
traced phase and restores the originals afterwards; an untraced run
installs nothing at all.

A span is one call into a layer: ``[name, start, end, parent, op, cpu,
flag]``. ``parent`` is the enclosing span record (or ``None``), ``op`` is
the benchmark op the call belongs to (sweep cell index, flood run index,
service session token), ``cpu`` the thread CPU seconds for spans that ask
for it, and ``flag`` the boolean result for spans that record one
(``isValid``'s verdict). The current span travels in a context variable,
so nesting is right across threads (each runner thread has its own
context) and asyncio tasks (each task has its own copy). Spans are kept
in memory and written once, at the end of the run.

Granularity rule: spans wrap per-call boundaries no finer than one
process's ``send``/``deliver`` per round or one ``isValid`` call per
received vote. Wrapping per-message or per-id helpers (``is_sound_id`` is
called millions of times per run) inflates runs several-fold and measures
the tracer, not the program.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

NAME, START, END, PARENT, OP, CPU, FLAG = range(7)

_now = time.perf_counter
_cpu = time.thread_time


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )
        self._undo: List[tuple] = []
        #: ``(op, correct messages, correct bits)`` per traced run.
        self.run_metrics: List[tuple] = []

    def current_op(self):
        """The op the calling thread or task is working for."""
        return self._current.get()[1]

    # ------------------------------------------------------------ recording

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        op_of: Optional[Callable] = None,
        cpu: bool = False,
        keep_result: bool = False,
    ) -> Callable:
        """A timing wrapper around ``fn`` (async-aware).

        ``op_of(args, kwargs)`` names the op for calls that start on a
        thread or task with no op in context (server-side work); ``cpu``
        also records thread CPU time; ``keep_result`` stores
        ``bool(result)`` in the span.
        """
        spans = self.spans
        current = self._current

        def begin(args, kwargs):
            parent, op = current.get()
            if op_of is not None:
                op = op_of(args, kwargs) or op
            record = [name, 0.0, 0.0, parent, op, 0.0, None]
            return record, current.set((record, op))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token = begin(args, kwargs)
                record[START] = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record[END] = _now()
                    current.reset(token)
                    spans.append(record)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, token = begin(args, kwargs)
            cpu0 = _cpu() if cpu else 0.0
            record[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = _now()
                if cpu:
                    record[CPU] = _cpu() - cpu0
                current.reset(token)
                spans.append(record)
            if keep_result:
                record[FLAG] = bool(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; everything called inside it is
        attributed to ``op_id``."""
        record = ["op", _now(), 0.0, None, op_id, 0.0, None]
        token = self._current.set((record, op_id))
        try:
            yield
        finally:
            record[END] = _now()
            self._current.reset(token)
            self.spans.append(record)

    # ------------------------------------------------------------- patching

    def patch_function(
        self,
        original: Callable,
        name: str,
        *,
        body: Optional[Callable] = None,
        modules: Optional[Sequence[str]] = None,
        **options,
    ) -> None:
        """Replace ``original`` wherever a ``repro`` module holds it.

        Functions imported by name (``from .validation import
        is_valid_ranks``) live on in their callers' namespaces, so every
        import site is patched, not just the defining module. ``body`` is
        what the span times in place of ``original``; ``modules`` limits
        the patch to the named call sites.
        """
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            if modules is not None and module_name not in modules:
                continue
            wrapper = None
            for attr, value in list(vars(module).items()):
                if value is original:
                    if wrapper is None:
                        wrapper = self.wrap(name, body or original, **options)
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Replace a method on ``cls`` (instances look it up on the class)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **options))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- writing

    def write(self, path) -> int:
        """Write every span as gzip'd CSV (``id,name,start,end,parent,op,
        cpu,flag``); returns the span count."""
        ids: Dict[int, int] = {id(record): i for i, record in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start,end,parent,op,cpu,flag\n")
            for i, record in enumerate(self.spans):
                parent = record[PARENT]
                out.write(
                    f"{i},{record[NAME]},{record[START]:.9f},{record[END]:.9f},"
                    f"{'' if parent is None else ids.get(id(parent), '')},"
                    f"{'' if record[OP] is None else record[OP]},"
                    f"{record[CPU]:.9f},{'' if record[FLAG] is None else int(record[FLAG])}\n"
                )
        return len(self.spans)


def install(tracer: Tracer, resolve_op: Callable[[object], object]) -> None:
    """Patch every measured layer of the loaded ``repro`` modules.

    ``resolve_op(key)`` maps a server-side key (a session seed or an
    idempotency token) to its benchmark op id.
    """
    from repro.analysis import executor, properties
    from repro.core import approximation, validation
    from repro.service import frames, journal, load, session
    from repro.sim import ENGINES, NullAdversary, monitor, runner

    wrap = tracer.wrap
    tracer.patch_function(
        validation.is_valid_ranks, "core.validation.is_valid_ranks", keep_result=True
    )
    tracer.patch_function(approximation.approximate, "core.approximation.approximate")
    tracer.patch_function(
        properties.check_renaming, "analysis.properties.check_renaming"
    )
    tracer.patch_function(executor.execute_task, "analysis.executor.execute_task")
    for engine_cls in {type(engine) for engine in ENGINES.values()}:
        tracer.patch_method(engine_cls, "execute", "sim.engine.execute")
    tracer.patch_method(monitor.SafetyMonitor, "begin_round", "sim.monitor")
    tracer.patch_method(monitor.SafetyMonitor, "after_deliver", "sim.monitor")

    original_run_protocol = runner.run_protocol

    def instrumented_run_protocol(factory, **kwargs):
        # Per-run instance wrappers: the engines call processes[i].send /
        # .deliver and adversary.send / .observe through the instance, so
        # an instance attribute shadows the class method for this run only.
        adversary = kwargs.get("adversary")
        if adversary is None:
            adversary = NullAdversary()  # what run_protocol substitutes
        adversary.send = wrap("adversary.send", adversary.send)
        adversary.observe = wrap("adversary.observe", adversary.observe)
        kwargs["adversary"] = adversary

        def traced_factory(ctx):
            process = factory(ctx)
            process.send = wrap("sim.process.send", process.send)
            process.deliver = wrap("sim.process.deliver", process.deliver)
            return process

        result = original_run_protocol(traced_factory, **kwargs)
        metrics = result.metrics
        tracer.run_metrics.append(
            (tracer.current_op(), metrics.correct_messages, metrics.correct_bits)
        )
        return result

    tracer.patch_function(
        original_run_protocol,
        "sim.runner.run_protocol",
        body=instrumented_run_protocol,
        cpu=True,
    )

    tracer.patch_function(
        session.execute_session,
        "service.session.execute_session",
        cpu=True,
        op_of=lambda args, kwargs: resolve_op(args[0].seed),
    )
    tracer.patch_method(
        journal.SessionJournal,
        "append",
        "service.journal.SessionJournal.append",
        op_of=lambda args, kwargs: resolve_op(kwargs.get("session_id")),
    )
    for function in (frames.read_frame, frames.write_frame):
        for site, side in (("repro.service.load", "client"), ("repro.service.server", "server")):
            tracer.patch_function(
                function, f"service.frames.{function.__name__}.{side}", modules=(site,)
            )
    # The codec has other callers (chaos, models); time only the framing's.
    frame_site = ("repro.service.frames",)
    tracer.patch_function(
        frames.decode_message, "service.frames.decode", modules=frame_site
    )
    tracer.patch_function(
        frames.encode_message, "service.frames.encode", modules=frame_site
    )
    tracer.patch_function(load.validate_names, "service.load.validate_names")

