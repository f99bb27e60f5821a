"""Run a loop's side work on a helper thread, a bounded distance ahead.

Two hot loops hand work to one helper thread.  GBO training
(:mod:`repro.core.gbo`) prepares each step's stem, first-layer read and
noise draws one step ahead, since nothing the step computes feeds back
into them.  Stacked noisy evaluation (:class:`repro.sim.MultiSession`)
runs half of each batch's scenarios on a model replica, a lane beside the
calling thread's.  They use the two pieces here:

* :class:`StepAhead` iterates the items on one helper thread
  (a :class:`StepAheadThread`), at most ``window`` items ahead of the
  consuming thread, in a copy of the creating thread's :mod:`contextvars`
  context;
* :class:`DrawReplay` stands in for a noise stream on GBO's training
  thread: each ``normal`` call gets back the next draw the helper made on
  the real stream, and a call that finds none, or another shape, raises —
  so a forward that diverges from the helper's draws fails instead of
  shifting a stream.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from collections import deque
from typing import Deque, Iterator, List

import numpy as np

#: Marks the end of :class:`StepAhead`'s items.
_DONE = object()


class StepAheadThread(threading.Thread):
    """The helper thread of a :class:`StepAhead`; its class marks it as one."""


class StepAhead:
    """Iterates ``items`` on one helper thread, at most ``window`` items ahead.

    The helper makes an item only while fewer than ``window`` made items wait
    for the consumer, so at most ``window + 1`` are in flight: those waiting
    and the one being consumed.  An exception raised making an item is
    re-raised to the consumer in its place.  The helper runs in a copy of the
    creating thread's :mod:`contextvars` context, so it resolves the same
    execution context (dtype policy, default random state).  :meth:`close`
    stops and joins it; if ``items`` itself waits on the consumer, the
    consumer must first let it end (as stacked evaluation's lane does by
    sending its end-of-batches mark).
    """

    def __init__(self, items: Iterator, window: int, name: str) -> None:
        self._ready: "queue.SimpleQueue" = queue.SimpleQueue()
        self._turn = threading.Semaphore(window)
        self._stop = threading.Event()
        self._thread = StepAheadThread(
            target=contextvars.copy_context().run,
            args=(self._run, items),
            name=name,
            daemon=True,
        )
        self._thread.start()

    def _run(self, items: Iterator) -> None:
        try:
            while True:
                self._turn.acquire()
                if self._stop.is_set():
                    return
                item = next(items, _DONE)
                self._ready.put(item)
                if item is _DONE:
                    return
        except BaseException as error:  # handed to the consumer, re-raised there
            self._ready.put(error)

    def __iter__(self) -> Iterator:
        while True:
            item = self._ready.get()
            if item is _DONE:
                return
            if isinstance(item, BaseException):
                raise item
            self._turn.release()
            yield item

    def close(self) -> None:
        self._stop.set()
        self._turn.release()
        self._thread.join()


class DrawReplay:
    """A noise stream as the consuming thread sees it.

    Each ``normal`` call gets back the next draw :meth:`load` queued.  A
    call that finds none or another shape, and a :meth:`check_drained` that
    finds a loaded draw unused, raise: the forward and the helper disagree
    about the draws.
    """

    def __init__(self) -> None:
        self._draws: Deque[np.ndarray] = deque()

    def load(self, draws: List[np.ndarray]) -> None:
        self._draws.extend(draws)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        # loc and scale went into the helper's identical call; only the
        # shape, which the helper inferred, can disagree.
        if not self._draws:
            raise RuntimeError("a forward drew noise the helper thread did not prepare")
        draw = self._draws.popleft()
        if draw.shape != tuple(size):
            raise RuntimeError(
                f"a forward drew shape {tuple(size)}; the helper prepared {draw.shape}"
            )
        return draw

    def check_drained(self) -> None:
        if self._draws:
            raise RuntimeError(
                f"a forward left {len(self._draws)} prepared noise draw(s) unused"
            )
