"""Two calls at once: one on a helper thread, one on the caller's.

numpy releases the GIL inside its array loops, so two calls that spend
their time there run on two cores. Matching takes one frame's features,
and scans half of A's descriptors, on the helper; labeling summarizes the
raster there while the caller extracts the hotspots. The helper is one
daemon thread, started on first use and kept. A thread started per call
can still hold its malloc arena after ``Thread.join`` returns, so the next
one may open another, and peak RSS rose by up to 5 MB. No executor is
used: importing the standard library's costs 5-8 ms.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable
from typing import TypeVar

A = TypeVar("A")
B = TypeVar("B")


def _outcome(call: Callable[[], A]) -> tuple[A | None, BaseException | None]:
    """``(call(), None)``, or ``(None, error)`` if it raised."""
    try:
        return call(), None
    except BaseException as exc:
        return None, exc


class _Helper:
    """A daemon thread that runs the calls handed to it, one at a time."""

    def __init__(self) -> None:
        self.todo: queue.SimpleQueue[Callable[[], object]] = queue.SimpleQueue()
        self.done: queue.SimpleQueue[tuple] = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="firescene-helper", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.done.put(_outcome(self.todo.get()))


_helper: _Helper | None = None
_busy = threading.Lock()  # held while a caller's first call is on the helper


def both(first: Callable[[], A], second: Callable[[], B]) -> tuple[A, B]:
    """``(first(), second())``, ``first`` on the helper thread while this thread runs ``second``.

    Both calls have finished before anything returns or raises. If a call
    raises, the error is the one the two calls made in order would raise:
    ``first``'s if it raised, else ``second``'s. While the helper is busy,
    with another thread's call or with the one that calls this, both calls
    run here in turn.
    """
    global _helper
    if not _busy.acquire(blocking=False):
        theirs, mine = _outcome(first), _outcome(second)
    else:
        try:
            helper = _helper = _helper or _Helper()
        except BaseException:
            _busy.release()
            raise
        helper.todo.put(first)
        mine = _outcome(second)
        theirs = helper.done.get()
        _busy.release()  # not if interrupted before: later calls then run here in turn
    (a, error_a), (b, error_b) = theirs, mine
    if error_a is not None:
        raise error_a
    if error_b is not None:
        raise error_b
    return a, b


def _forget_helper() -> None:
    """In a forked child, which has no helper thread and may inherit ``_busy`` held."""
    global _helper, _busy
    _helper, _busy = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)
