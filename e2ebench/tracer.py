"""Per-layer tracing for the end-to-end benchmark, installed from outside.

The traced run replaces public functions of each layer with timed
wrappers, at class level, for the length of one service run, and puts
the originals back afterwards.  Nothing under ``src/`` knows about it.

A span is one call of a wrapped function.  Spans nest through a stack,
so each layer's *self* time is its spans' duration minus the part spent
in child spans of other wrapped functions (a protocol handler's time
excludes the network sends and quorum checks it makes).  Time outside
every span -- the asyncio loop, the simulator's run loop, interpreter
work between callbacks -- is what the report calls ``unaccounted``.

Which end-to-end metric each layer should move, and where:

* ``sim.*`` -> ``wall_s`` on aptos-slot-sim; no change on the inproc rows.
* ``runtime.*`` -> ``wall_s`` on aptos-slot-inproc and ``latency_p50_s``
  on epochs-inproc; no change on aptos-slot-sim.
* ``weighted.quorum.*`` -> ``wall_s`` on both aptos-slot rows (the check
  costs O(n)); little on epochs-inproc.
* ``protocols.smr.*`` -> ``msgs_per_req``, ``bytes_per_req`` and
  ``wall_s`` on the aptos-slot rows; ``peak_rss_mb`` on epochs-inproc.
* ``protocols.checkpointing``, ``api.policy``, ``crypto.threshold_sig``
  -> ``handover_p50_s`` (mostly epochs-inproc) and ``setup_s``.
* ``codes.reed_solomon`` -> zero while SMR batches bypass dispersal.
* ``service.*`` -> ``latency_p50_s`` on epochs-inproc.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["Tracer"]

#: marks a wrapped attribute that ``owner`` inherited rather than defined
_INHERITED = object()


class Tracer:
    """Span stack, per-layer self time and per-layer counters."""

    def __init__(self) -> None:
        #: one ``[child_seconds, layer]`` cell per open span
        self._stack: list[list] = []
        #: layer -> self seconds
        self.self_s: dict[str, float] = {}
        #: counter name -> count
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------------------
    def _replace(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _close(self, cell: list, start: float) -> None:
        """End the innermost span, opened at ``start`` with ``cell``."""
        elapsed = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        self.self_s[cell[1]] += elapsed - cell[0]
        if stack:
            stack[-1][0] += elapsed

    def timed(
        self,
        fn: Callable,
        layer: str,
        counter: str | None = None,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable:
        """``fn`` with every call timed as a span of ``layer``.

        ``counter`` counts the calls; ``after(result, args)`` runs after
        each call, outside the span's timing, for counts that depend on
        the call's outcome.
        """
        stack = self._stack
        self.self_s.setdefault(layer, 0.0)
        if counter is not None:
            self.counts.setdefault(counter, 0)
        counts = self.counts
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            # a call nested in a span of its own layer (RS encode_bytes ->
            # encode) is one unit of that layer's work, so not counted again
            outermost = not stack or stack[-1][1] != layer
            cell = [0.0, layer]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(cell, start)
            if counter is not None and outermost:
                counts[counter] += 1
            if after is not None:
                after(result, args)
            return result

        return traced

    def span(
        self,
        owner: Any,
        name: str,
        layer: str,
        counter: str | None = None,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> None:
        """Replace ``owner.name`` by :meth:`timed` of it (an inherited
        ``name`` is shadowed on ``owner`` only, until :meth:`restore`)."""
        self._replace(
            owner, name, self.timed(getattr(owner, name), layer, counter, after)
        )

    def async_span(self, owner: Any, name: str, layer: str, counter: str) -> None:
        """Like :meth:`span` for a coroutine function that never suspends
        (``InProcTransport.send`` puts to an unbounded queue): one that
        did would leave its span open while the loop ran other work."""
        fn = getattr(owner, name)
        stack = self._stack
        self.self_s.setdefault(layer, 0.0)
        self.counts.setdefault(counter, 0)
        counts = self.counts
        clock = time.perf_counter
        close = self._close

        async def traced(*args, **kwargs):
            counts[counter] += 1
            cell = [0.0, layer]
            stack.append(cell)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                close(cell, start)

        self._replace(owner, name, traced)

    def span_init_callback(
        self, owner: Any, keyword: str, layer: str, counter: str | None = None
    ) -> None:
        """Time the ``keyword`` callback handed to ``owner(...)`` as a span
        of ``layer`` -- how service code that runs inside protocol
        callbacks is kept out of the protocols' self time."""
        init = owner.__init__
        timed = self.timed

        def traced_init(obj, *args, **kwargs):
            callback = kwargs.get(keyword)
            if callback is not None:
                kwargs[keyword] = timed(callback, layer, counter)
            init(obj, *args, **kwargs)

        self._replace(owner, "__init__", traced_init)

    # -- report ------------------------------------------------------------------------
    def total_self(self) -> float:
        return sum(self.self_s.values())

