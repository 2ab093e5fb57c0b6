"""Tests for :class:`repro.service.loop.LoopThread`."""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.service.chaosproxy import ChaosProxyThread
from repro.service.loop import LoopThread
from repro.service.supervisor import SupervisorConfig, SupervisorThread


def _new_threads(before):
    return [thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()]


def test_call_returns_the_result_and_reraises_the_exception():
    loop = LoopThread()
    try:
        async def double(value):
            await asyncio.sleep(0)
            return 2 * value

        async def fail():
            raise KeyError("boom")

        assert loop.call(double(21)) == 42
        with pytest.raises(KeyError, match="boom"):
            loop.call(fail())
    finally:
        loop.close()


def test_fire_runs_on_the_loop_thread():
    loop = LoopThread(name="fire-test")
    try:
        ran = threading.Event()
        seen = []

        def record(tag):
            seen.append((tag, threading.current_thread().name,
                         asyncio.get_running_loop() is loop.loop))
            ran.set()

        loop.fire(record, "x")
        assert ran.wait(5.0)
        assert seen == [("x", "fire-test", True)]
    finally:
        loop.close()


def test_close_leaves_no_thread_behind():
    """The loop thread and the default executor's threads all end."""
    before = set(threading.enumerate())
    loop = LoopThread()

    async def use_executor():
        running = asyncio.get_running_loop()
        await asyncio.gather(*[running.run_in_executor(None, time.sleep, 0.01)
                               for _ in range(3)])

    async def forever():
        await asyncio.Event().wait()

    loop.call(use_executor())
    pending = loop.submit(forever())
    assert _new_threads(before)  # the loop thread and executor workers
    loop.close()
    assert loop.closed
    assert pending.cancelled()
    assert _new_threads(before) == []
    loop.close()  # idempotent


def test_proxy_thread_on_an_occupied_port_raises_and_leaves_no_thread():
    taken = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        before = set(threading.enumerate())
        with pytest.raises(ServiceError, match="failed to start"):
            ChaosProxyThread("127.0.0.1", 1, port=port)
        assert _new_threads(before) == []
    finally:
        taken.close()


def _no_engine():
    raise RuntimeError("engine build failed")


def test_supervisor_thread_whose_start_fails_leaves_no_thread():
    before = set(threading.enumerate())
    with pytest.raises(ServiceError, match="exited during startup"):
        SupervisorThread(engine_factory=_no_engine,
                         config=SupervisorConfig(workers=1, max_restarts=0))
    assert _new_threads(before) == []
