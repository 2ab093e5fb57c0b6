"""One asyncio event loop on a private daemon thread, for blocking callers.

:class:`~repro.service.supervisor.SupervisorThread`,
:class:`~repro.service.chaosproxy.ChaosProxyThread` and the cluster
harness (its UDP chaos relays and the kill drill's query burst) run
their asyncio objects on a :class:`LoopThread` and drive them from
plain synchronous code.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Awaitable, Callable, Optional, TypeVar

__all__ = ["LoopThread"]

_T = TypeVar("_T")

#: Seconds :meth:`LoopThread.close` waits for the shutdown and the join.
_CLOSE_TIMEOUT = 10.0


class LoopThread:
    """An event loop running forever on a daemon thread it starts itself.

    The thread starts in the constructor, on the caller's thread, so it
    inherits that thread's CPU affinity, and so does every process the
    loop forks.  :meth:`close` ends what is still scheduled the way
    ``asyncio.run`` does: it cancels the remaining tasks, shuts down
    async generators and the default executor (whose threads
    ``run_in_executor`` started), then stops, joins and closes the loop.
    """

    def __init__(self, name: str = "event-loop") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def submit(self, coro: Awaitable[_T]) -> "concurrent.futures.Future[_T]":
        """Schedule ``coro`` on the loop; the future carries its outcome."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def call(self, coro: Awaitable[_T], timeout: Optional[float] = 10.0) -> _T:
        """Run ``coro`` on the loop and wait for it.

        Returns its result or re-raises its exception in the caller;
        raises ``concurrent.futures.TimeoutError`` after ``timeout``
        seconds, leaving the coroutine running.
        """
        return self.submit(coro).result(timeout)

    def fire(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule the plain callable ``fn(*args)`` on the loop."""
        self.loop.call_soon_threadsafe(fn, *args)

    @property
    def closed(self) -> bool:
        return self.loop.is_closed()

    def close(self) -> None:
        """Cancel what is left, stop and join the thread, close the loop."""
        if self.loop.is_closed():
            return
        if self._thread.is_alive():
            try:
                self.call(self._shutdown(), _CLOSE_TIMEOUT)
            finally:
                self.loop.call_soon_threadsafe(self.loop.stop)
                self._thread.join(_CLOSE_TIMEOUT)
        self.loop.close()

    async def _shutdown(self) -> None:
        current = asyncio.current_task()
        tasks = [task for task in asyncio.all_tasks() if task is not current]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self.loop.shutdown_asyncgens()
        await self.loop.shutdown_default_executor()
