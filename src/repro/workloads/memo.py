"""Sweep-scoped trace memo: record a function's traces once per sweep.

Every trace-consuming config cell (``reference``, ``baseline``,
``jukebox``, ``perfect``, ``pif``, ``spectrum_point``, ...) builds its
invocation traces through :func:`repro.experiments.common.make_traces`,
and cells of one sweep repeat the same ``(scaled profile, seed)`` for
each config.  A trace is a pure function of that pair plus its
invocation index, so the cells can share one recording -- the harness's
own version of Jukebox's record-once, replay-every-time idea.  Sharing a
trace also shares its cached :class:`~repro.workloads.trace.ColumnarTrace`
and machine columns, so the IR layer is reused too.

The memo is deliberately narrow:

* it is active only inside :func:`trace_memo_scope`, which
  :func:`repro.engine.sweep.sweep_outcomes` opens around one executor
  batch, so nothing outlives a sweep and a direct ``run_config`` call
  (no scope) is the unmemoized reference;
* it holds at most one trace key, evicted when the key changes -- sweeps
  list their jobs profile-major, so one key covers a run of cells while
  peak memory stays at one cell's working set;
* the traces it hands out are read-only (``TraceBuilder.build`` clears
  ``writeable`` on every event array), so a consumer cannot change what
  a later cell sees.

The active memo lives in a :class:`~contextvars.ContextVar`, never in
module state: other threads see none, and pool workers forked inside a
scope each get their own copy.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Tuple

from repro.workloads.function import FunctionModel
from repro.workloads.profiles import FunctionProfile
from repro.workloads.trace import InvocationTrace


class TraceMemo:
    """Traces of the most recent ``(profile, seed)``, extended on demand."""

    def __init__(self) -> None:
        self._entry: Optional[Tuple[Tuple[FunctionProfile, int],
                                    FunctionModel,
                                    List[InvocationTrace]]] = None

    def __len__(self) -> int:
        """Number of trace keys held (0 or 1)."""
        return 0 if self._entry is None else 1

    def traces(self, profile: FunctionProfile, seed: int,
               count: int) -> List[InvocationTrace]:
        """Invocations ``0 .. count-1`` of ``FunctionModel(profile, seed)``."""
        key = (profile, seed)
        if self._entry is None or self._entry[0] != key:
            self._entry = None  # release the old key before building
            self._entry = (key, FunctionModel(profile, seed=seed), [])
        _, model, traces = self._entry
        while len(traces) < count:
            traces.append(model.invocation_trace(len(traces)))
        return traces[:count]

    def clear(self) -> None:
        self._entry = None


_ACTIVE: ContextVar[Optional[TraceMemo]] = ContextVar(
    "repro_trace_memo", default=None)


def active_trace_memo() -> Optional[TraceMemo]:
    """The memo of the enclosing sweep, or ``None`` outside any sweep."""
    return _ACTIVE.get()


@contextmanager
def trace_memo_scope() -> Iterator[TraceMemo]:
    """Activate a fresh trace memo for the ``with`` block, emptied on exit."""
    memo = TraceMemo()
    token = _ACTIVE.set(memo)
    try:
        yield memo
    finally:
        _ACTIVE.reset(token)
        memo.clear()
