"""Multi-core front end: a worker pool over one shared compiled table.

The asyncio :class:`~repro.service.server.RouteQueryServer` saturates a
single CPU long before the O(1) table tier does — event-loop and
frame-codec work, not routing, is the bottleneck (E21).  This module
scales the service across cores with the classic shared-nothing recipe:

* **Fork-per-core workers.**  :class:`ServiceSupervisor` forks ``N``
  worker processes; each builds its *own*
  :class:`~repro.service.engine.RouteQueryEngine` from an
  :class:`~repro.service.engine.EngineSpec` — mmap-loading the same
  compiled table file, so the only cross-worker state is the kernel
  page cache.  No locks, no shared interpreter, no GIL contention.
* **``SO_REUSEPORT`` listeners.**  Every worker binds the same
  ``host:port`` with ``SO_REUSEPORT`` and the kernel spreads incoming
  connections across them.  Where the option is unavailable the
  supervisor falls back to binding one listening socket itself and
  letting every forked worker accept from it (``listener="shared"``).
* **Shared-nothing metrics, merged on demand.**  Each worker keeps its
  own :class:`~repro.service.metrics.MetricsRegistry` (no cross-process
  locks on the hot path).  A ``STATS`` frame landing on any worker is
  answered fleet-wide: the worker asks the supervisor over its control
  channel (a unix socket), the supervisor collects every worker's
  snapshot and merges counters and latency histograms bucket-wise
  (:meth:`~repro.service.metrics.MetricsRegistry.merge`), so one frame
  reports true fleet p50/p95/p99.
* **Lifecycle.**  ``SIGTERM`` → graceful drain (every worker stops
  accepting, answers its queue, then exits); a crashed worker
  (``kill -9``, OOM, bug) is respawned with the same index under a
  restart budget.

:class:`SupervisorThread` runs the asyncio supervisor on a
:class:`~repro.service.loop.LoopThread` for synchronous callers
(benches, tests); the ``serve`` subcommand runs it on its own loop.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set

from repro.exceptions import ServiceError
from repro.service.engine import EngineSpec, RouteQueryEngine
from repro.service.loop import LoopThread
from repro.service.metrics import MetricsRegistry
from repro.service.server import RouteQueryServer, ServerConfig

#: Listener strategies (see :func:`resolve_listener`).
LISTENER_MODES = ("auto", "reuseport", "shared")
#: Seconds a new worker has to report ready over the control channel.
STARTUP_TIMEOUT = 30.0
#: Seconds one fleet aggregation waits for the workers' snapshots.
STATS_TIMEOUT = 2.0


def reuseport_supported(host: str = "127.0.0.1") -> bool:
    """True when two sockets can actually share ``host:0`` via SO_REUSEPORT."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    first = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    second = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        first.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        first.bind((host, 0))
        second.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        second.bind((host, first.getsockname()[1]))
        return True
    except OSError:
        return False
    finally:
        first.close()
        second.close()


def resolve_listener(mode: str, host: str) -> str:
    """Resolve ``"auto"`` to the strategy this platform supports."""
    if mode not in LISTENER_MODES:
        raise ServiceError(
            f"unknown listener mode {mode!r}; pick one of {LISTENER_MODES}"
        )
    if mode != "auto":
        return mode
    return "reuseport" if reuseport_supported(host) else "shared"


@dataclass
class SupervisorConfig:
    """Tunables for one :class:`ServiceSupervisor`."""

    workers: int = 2  #: worker processes to keep alive
    host: str = "127.0.0.1"
    port: int = 0  #: 0 claims an ephemeral port shared by every worker
    listener: str = "auto"  #: "reuseport", "shared", or auto-detect
    max_restarts: int = 3  #: crashed-worker respawns before giving up
    drain_timeout: float = 10.0  #: seconds workers get to drain on stop
    #: Seconds between liveness pings over the control channel; 0
    #: disables the probe.  A crashed worker is caught by its process
    #: sentinel, but a *hung* worker (stuck event loop, SIGSTOP,
    #: runaway C call) keeps its pid alive and its socket open — only
    #: the missing pongs give it away.
    heartbeat_interval: float = 2.0
    #: Seconds without a pong before a live worker is declared hung,
    #: SIGKILLed, and respawned under the same ``max_restarts`` budget
    #: as crash respawns (``supervisor.hung_recycles``).
    heartbeat_timeout: float = 10.0
    server: ServerConfig = field(default_factory=ServerConfig)


class _WorkerLink:
    """Supervisor-side state for one worker's control connection."""

    __slots__ = ("reader", "writer", "index", "pid", "generation",
                 "pending", "next_seq", "last_pong", "recycling")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.index = -1
        self.pid = 0
        self.generation = 0
        self.pending: Dict[int, "asyncio.Future[dict]"] = {}
        self.next_seq = 0
        self.last_pong = 0.0  #: loop time of the last heartbeat pong
        self.recycling = False  #: already SIGKILLed as hung, await reap

    def send(self, message: dict) -> None:
        self.writer.write(json.dumps(message).encode("utf-8") + b"\n")


class ServiceSupervisor:
    """Fork, monitor, aggregate, and drain a route-query worker pool.

    ``engine_spec`` describes the engine every worker builds after the
    fork; ``engine_factory`` (tests, exotic setups) overrides it with an
    arbitrary zero-argument callable — under the ``fork`` start method a
    closure over live objects works and copy-on-write shares them.

    Lifecycle mirrors :class:`RouteQueryServer`: ``await start()``
    returns the shared port, ``await stop()`` drains the fleet.
    """

    def __init__(
        self,
        engine_spec: Optional[EngineSpec] = None,
        config: Optional[SupervisorConfig] = None,
        engine_factory: Optional[Callable[[], RouteQueryEngine]] = None,
    ) -> None:
        if (engine_spec is None) == (engine_factory is None):
            raise ServiceError(
                "give exactly one of engine_spec or engine_factory"
            )
        self.spec = engine_spec
        self.factory = engine_factory
        self.config = config if config is not None else SupervisorConfig()
        if self.config.workers < 1:
            raise ServiceError(
                f"worker count must be >= 1, got {self.config.workers}"
            )
        self.port: Optional[int] = None
        self.listener_mode: Optional[str] = None
        self.restarts_used = 0
        self.workers_lost = 0  #: crashes past the restart budget
        self.hung_recycles = 0  #: heartbeat-detected hangs -> SIGKILL
        self.escalations = 0  #: second-SIGTERM hard kills of stragglers
        self.final_snapshot: Optional[dict] = None
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._generations: Dict[int, int] = {}
        self._links: Dict[int, _WorkerLink] = {}
        #: Every open control connection, whether or not it said hello.
        self._open_links: Set[_WorkerLink] = set()
        self._hello_waiters: Dict[int, "asyncio.Future[None]"] = {}
        self._placeholder: Optional[socket.socket] = None
        self._shared_sock: Optional[socket.socket] = None
        self._control_server: Optional[asyncio.base_events.Server] = None
        self._control_dir: Optional[str] = None
        self._control_path: Optional[str] = None
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._heartbeat_task: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> int:
        """Claim the port, start the control channel, fork the fleet."""
        self._loop = asyncio.get_running_loop()
        config = self.config
        self.listener_mode = resolve_listener(config.listener, config.host)
        if self.listener_mode == "reuseport":
            # A bound, never-listening placeholder claims the port number
            # for the supervisor's lifetime.  It is invisible to incoming
            # SYNs (only listening sockets join the SO_REUSEPORT group),
            # so it cannot swallow connections — it just stops another
            # process from stealing the port between worker restarts.
            self._placeholder = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            self._placeholder.bind((config.host, config.port))
            self.port = self._placeholder.getsockname()[1]
        else:
            # Fallback: one listening socket, accepted from by every
            # forked worker (thundering herd, but correct everywhere).
            self._shared_sock = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            self._shared_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            self._shared_sock.bind((config.host, config.port))
            self._shared_sock.listen(1024)
            self._shared_sock.setblocking(False)
            self.port = self._shared_sock.getsockname()[1]
        self._control_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        self._control_path = os.path.join(self._control_dir, "control.sock")
        self._control_server = await asyncio.start_unix_server(
            self._handle_control, path=self._control_path
        )
        try:
            await asyncio.gather(*[
                self._spawn_worker(index) for index in range(config.workers)
            ])
        except Exception:
            await self.stop()
            raise
        if config.heartbeat_interval > 0:
            self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        return self.port

    async def stop(self) -> None:
        """Drain the fleet: final aggregate, SIGTERM, bounded wait."""
        self._draining = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        if self._links:
            try:
                self.final_snapshot = await self.aggregate()
            except Exception:
                pass
        for proc in list(self._procs.values()):
            if proc.pid is not None and proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = (asyncio.get_running_loop().time()
                    + self.config.drain_timeout + 5.0)
        for proc in list(self._procs.values()):
            remaining = deadline - asyncio.get_running_loop().time()
            await self._join_process(proc, max(0.1, remaining))
            if proc.is_alive():  # pragma: no cover - drain-timeout safety
                proc.kill()
                await self._join_process(proc, 5.0)
        self._procs.clear()
        if self._control_server is not None:
            self._control_server.close()
            # From Python 3.12.1 wait_closed() also waits for every
            # accepted connection, so each must be closed first, the
            # ones that never said hello included.
            for link in list(self._open_links):
                link.writer.close()
            await self._control_server.wait_closed()
            self._control_server = None
        self._links.clear()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._shared_sock is not None:
            self._shared_sock.close()
            self._shared_sock = None
        if self._control_path and os.path.exists(self._control_path):
            try:
                os.unlink(self._control_path)
            except OSError:  # pragma: no cover
                pass
        if self._control_dir and os.path.isdir(self._control_dir):
            try:
                os.rmdir(self._control_dir)
            except OSError:  # pragma: no cover
                pass

    def escalate(self) -> None:
        """Immediately SIGKILL every still-live worker.

        The second-SIGTERM path: :meth:`stop` drains gracefully and
        waits out ``drain_timeout`` for slow workers, but an operator
        (or init system) sending a *second* SIGTERM means "now" — a
        worker wedged in a handler must not hold the shutdown hostage.
        Safe to call while :meth:`stop` is mid-wait: the kills make the
        pending joins return immediately, and draining mode keeps the
        exit sentinels from respawning anything.
        """
        self._draining = True  # never respawn what we are about to kill
        killed = 0
        for proc in list(self._procs.values()):
            if proc.pid is not None and proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed += 1
                except (ProcessLookupError, OSError):  # pragma: no cover
                    pass
        if killed:
            self.escalations += killed

    async def __aenter__(self) -> "ServiceSupervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _join_process(self, proc, timeout: float) -> None:
        """``proc.join`` without blocking the event loop."""
        await asyncio.get_running_loop().run_in_executor(
            None, proc.join, timeout
        )

    # -- workers ---------------------------------------------------------

    def worker_pids(self) -> List[int]:
        """Live worker pids, ordered by worker index."""
        return [proc.pid for _, proc in sorted(self._procs.items())
                if proc.pid is not None and proc.is_alive()]

    async def _spawn_worker(self, index: int) -> None:
        generation = self._generations.get(index, -1) + 1
        self._generations[index] = generation
        worker_config = replace(
            self.config.server,
            host=self.config.host,
            port=self.port,
            reuse_port=(self.listener_mode == "reuseport"),
        )
        hello: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._hello_waiters[index] = hello
        context = multiprocessing.get_context("fork")
        proc = context.Process(
            target=_worker_main,
            args=(index, generation, self.spec, self.factory, worker_config,
                  self._shared_sock, self._control_path),
            name=f"route-worker-{index}",
        )
        proc.start()
        self._procs[index] = proc
        asyncio.get_running_loop().add_reader(
            proc.sentinel, self._on_worker_exit, index, proc
        )
        try:
            await asyncio.wait_for(hello, timeout=STARTUP_TIMEOUT)
        except asyncio.TimeoutError:
            raise ServiceError(
                f"worker {index} (pid {proc.pid}) never reported ready"
            )
        finally:
            self._hello_waiters.pop(index, None)

    def _on_worker_exit(self, index: int, proc) -> None:
        """Sentinel callback: reap, then respawn under the budget."""
        try:
            asyncio.get_running_loop().remove_reader(proc.sentinel)
        except (ValueError, OSError):  # pragma: no cover
            pass
        if self._procs.get(index) is not proc:  # already replaced
            return
        del self._procs[index]
        self._links.pop(index, None)
        waiter = self._hello_waiters.get(index)
        if waiter is not None and not waiter.done():
            waiter.set_exception(
                ServiceError(f"worker {index} exited during startup")
            )
        if self._draining:
            return
        if self.restarts_used >= self.config.max_restarts:
            self.workers_lost += 1
            return
        self.restarts_used += 1
        asyncio.ensure_future(self._respawn(index))

    async def _respawn(self, index: int) -> None:
        try:
            await self._spawn_worker(index)
        except ServiceError:
            self.workers_lost += 1

    # -- liveness --------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        """Ping every worker; SIGKILL the ones that stop ponging.

        The kill is all this loop does — the process sentinel then fires
        exactly as it would for a crash, so hung-worker recycling shares
        the ordinary respawn path and its ``max_restarts`` budget.
        """
        config = self.config
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(config.heartbeat_interval)
            if self._draining:
                return
            now = loop.time()
            for index, link in list(self._links.items()):
                if link.recycling:
                    continue
                if link.last_pong == 0.0:
                    link.last_pong = now  # grace: first ping not yet sent
                if now - link.last_pong > config.heartbeat_timeout:
                    proc = self._procs.get(index)
                    if proc is None or proc.pid is None or not proc.is_alive():
                        continue  # crash path owns this worker
                    link.recycling = True
                    self.hung_recycles += 1
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except (ProcessLookupError, OSError):  # pragma: no cover
                        pass
                    continue
                try:
                    link.send({"op": "ping"})
                    await link.writer.drain()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

    # -- control channel -------------------------------------------------

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        link = _WorkerLink(reader, writer)
        self._open_links.add(link)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except ValueError:  # pragma: no cover - defensive
                    continue
                op = message.get("op")
                if op == "hello":
                    link.index = int(message["worker"])
                    link.pid = int(message["pid"])
                    link.generation = int(message.get("generation", 0))
                    self._links[link.index] = link
                    waiter = self._hello_waiters.get(link.index)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(None)
                elif op == "snapshot_reply":
                    future = link.pending.pop(int(message["seq"]), None)
                    if future is not None and not future.done():
                        future.set_result({
                            "data": message.get("data", {}),
                            "worker": message.get("worker", {}),
                        })
                elif op == "aggregate_request":
                    asyncio.ensure_future(
                        self._answer_aggregate(link, int(message["seq"]))
                    )
                elif op == "pong":
                    link.last_pong = asyncio.get_running_loop().time()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._open_links.discard(link)
            if self._links.get(link.index) is link:
                del self._links[link.index]
            for future in link.pending.values():
                if not future.done():
                    future.cancel()
            writer.close()

    async def _answer_aggregate(self, link: _WorkerLink, seq: int) -> None:
        try:
            snapshot = await self.aggregate()
        except Exception as exc:  # pragma: no cover - defensive
            snapshot = {"error": repr(exc)}
        try:
            link.send({"op": "aggregate_reply", "seq": seq, "data": snapshot})
            await link.writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def _collect_snapshots(self) -> List[dict]:
        """One snapshot per live worker (bounded wait, crash-tolerant)."""
        links = list(self._links.values())
        futures = []
        for link in links:
            link.next_seq += 1
            seq = link.next_seq
            future = asyncio.get_running_loop().create_future()
            link.pending[seq] = future
            link.send({"op": "snapshot_request", "seq": seq})
            futures.append((link, seq, future))
        for link in links:
            try:
                await link.writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        gathered: List[dict] = []
        done, pending = await asyncio.wait(
            [future for _, _, future in futures],
            timeout=STATS_TIMEOUT,
        ) if futures else (set(), set())
        for link, seq, future in futures:
            if future in done and not future.cancelled() \
                    and future.exception() is None:
                gathered.append(future.result())
            else:
                future.cancel()
                link.pending.pop(seq, None)
        return gathered

    async def aggregate(self) -> dict:
        """The fleet-wide metrics snapshot served over ``STATS``.

        Counters sum; histograms merge bucket-wise, so the reported
        p50/p95/p99 are quantiles of the union of every worker's
        latency observations.  A ``fleet`` section carries per-worker
        summary rows (pid, generation, queries, replies, p99) plus
        supervision counters.
        """
        wrapped = await self._collect_snapshots()
        merged = MetricsRegistry()
        per_worker = []
        for item in sorted(wrapped, key=lambda w: w.get("worker", {})
                           .get("index", 0)):
            data = item.get("data", {})
            merged.merge(data)
            info = dict(item.get("worker", {}))
            counters = data.get("counters", {})
            latency = data.get("histograms", {}).get(
                "server.latency_seconds", {})
            info["queries"] = int(counters.get("server.queries", 0))
            info["replies"] = int(counters.get("server.replies", 0))
            info["p99_ms"] = float(latency.get("p99", 0.0)) * 1e3
            per_worker.append(info)
        snapshot = merged.snapshot()
        snapshot["counters"]["fleet.workers"] = len(wrapped)
        snapshot["counters"]["fleet.restarts"] = self.restarts_used
        snapshot["counters"]["fleet.workers_lost"] = self.workers_lost
        snapshot["counters"]["supervisor.hung_recycles"] = self.hung_recycles
        snapshot["counters"]["supervisor.escalations"] = self.escalations
        snapshot["fleet"] = {
            "workers": len(wrapped),
            "expected_workers": self.config.workers,
            "listener": self.listener_mode,
            "restarts": self.restarts_used,
            "workers_lost": self.workers_lost,
            "hung_recycles": self.hung_recycles,
            "escalations": self.escalations,
            "per_worker": per_worker,
        }
        return snapshot


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------


def _worker_main(
    index: int,
    generation: int,
    spec: Optional[EngineSpec],
    factory: Optional[Callable[[], RouteQueryEngine]],
    server_config: ServerConfig,
    shared_sock: Optional[socket.socket],
    control_path: Optional[str],
) -> None:
    """Entry point of one forked worker (runs in the child process)."""
    try:
        asyncio.run(_worker_async(index, generation, spec, factory,
                                  server_config, shared_sock, control_path))
    except KeyboardInterrupt:  # pragma: no cover - CLI ctrl-C race
        pass


async def _worker_async(
    index: int,
    generation: int,
    spec: Optional[EngineSpec],
    factory: Optional[Callable[[], RouteQueryEngine]],
    server_config: ServerConfig,
    shared_sock: Optional[socket.socket],
    control_path: Optional[str],
) -> None:
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop_event.set)
    loop.add_signal_handler(signal.SIGINT, lambda: None)

    engine = factory() if factory is not None else spec.build()
    engine.registry.set_counter("worker.index", index)
    engine.registry.set_counter("worker.generation", generation)
    server = RouteQueryServer(engine, server_config)
    await server.start(listen_socket=shared_sock)

    control: Optional[_WorkerControl] = None
    if control_path is not None:
        control = _WorkerControl(index, generation, server, stop_event)
        await control.connect(control_path)
        server.stats_provider = control.aggregate
    try:
        await stop_event.wait()
    finally:
        await server.stop()
        if control is not None:
            await control.close()


class _WorkerControl:
    """Worker-side control channel: snapshots out, aggregates in."""

    def __init__(self, index: int, generation: int,
                 server: RouteQueryServer,
                 stop_event: asyncio.Event) -> None:
        self.index = index
        self.generation = generation
        self.server = server
        self.stop_event = stop_event
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._next_seq = 0
        self._reader_task: Optional[asyncio.Task] = None

    async def connect(self, path: str) -> None:
        self.reader, self.writer = await asyncio.open_unix_connection(path)
        self._send({"op": "hello", "worker": self.index,
                    "pid": os.getpid(), "generation": self.generation})
        await self.writer.drain()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    def _send(self, message: dict) -> None:
        self.writer.write(json.dumps(message).encode("utf-8") + b"\n")

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                message = json.loads(line)
                op = message.get("op")
                if op == "snapshot_request":
                    self._send({
                        "op": "snapshot_reply",
                        "seq": message["seq"],
                        "data": self.server.snapshot(),
                        "worker": {"index": self.index,
                                   "pid": os.getpid(),
                                   "generation": self.generation},
                    })
                    await self.writer.drain()
                elif op == "aggregate_reply":
                    future = self._pending.pop(int(message["seq"]), None)
                    if future is not None and not future.done():
                        future.set_result(message.get("data", {}))
                elif op == "ping":
                    # Liveness probe: answering requires a scheduling
                    # turn of this event loop, which is exactly the
                    # property the supervisor wants to verify.
                    self._send({"op": "pong", "worker": self.index})
                    await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, ValueError):
            pass
        finally:
            # Control channel gone means the supervisor died: drain and
            # exit instead of lingering as an orphan listener.
            self.stop_event.set()
            for future in self._pending.values():
                if not future.done():
                    future.cancel()

    async def aggregate(self) -> dict:
        """Ask the supervisor for the merged fleet snapshot."""
        if self.writer is None or self.writer.is_closing():
            raise ServiceError("control channel is down")
        self._next_seq += 1
        seq = self._next_seq
        future: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[seq] = future
        self._send({"op": "aggregate_request", "seq": seq})
        await self.writer.drain()
        try:
            return await asyncio.wait_for(future, timeout=5.0)
        finally:
            self._pending.pop(seq, None)

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


# ----------------------------------------------------------------------
# Synchronous wrapper (benches, tests, scripts)
# ----------------------------------------------------------------------


class SupervisorThread:
    """A live worker fleet on a private event-loop thread.

    The synchronous twin of :class:`ServiceSupervisor` for benchmark and
    test code: construct it, talk to ``port`` over TCP with the blocking
    client helpers, then :meth:`close`.  ``aggregate()`` and
    :meth:`escalate` bridge into the loop thread-safely.
    """

    def __init__(
        self,
        engine_spec: Optional[EngineSpec] = None,
        config: Optional[SupervisorConfig] = None,
        engine_factory: Optional[Callable[[], RouteQueryEngine]] = None,
    ) -> None:
        self.supervisor = ServiceSupervisor(
            engine_spec, config, engine_factory=engine_factory
        )
        self._loop = LoopThread(name="supervisor")
        timeout = STARTUP_TIMEOUT * self.supervisor.config.workers + 30
        try:
            self.port: int = self._loop.call(self.supervisor.start(), timeout)
        except BaseException:
            self._loop.close()
            raise

    def aggregate(self, timeout: float = 15.0) -> dict:
        """Fleet-wide snapshot, fetched through the supervisor directly."""
        return self._loop.call(self.supervisor.aggregate(), timeout)

    def worker_pids(self) -> List[int]:
        """Live worker pids, ordered by worker index."""
        return self.supervisor.worker_pids()

    def kill_worker(self, pid: int, sig: int = signal.SIGKILL) -> None:
        """Hard-kill one worker (crash-respawn scenarios)."""
        os.kill(pid, sig)

    def escalate(self) -> None:
        """Thread-safe :meth:`ServiceSupervisor.escalate` (second SIGTERM)."""
        self._loop.fire(self.supervisor.escalate)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` workers are alive (respawn settling)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.worker_pids()) >= count:
                return True
            time.sleep(0.05)
        return False

    def close(self) -> None:
        """Drain the fleet and join the loop thread."""
        if self._loop.closed:
            return
        try:
            self._loop.call(self.supervisor.stop(), timeout=60)
        finally:
            self._loop.close()

    def __enter__(self) -> "SupervisorThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
