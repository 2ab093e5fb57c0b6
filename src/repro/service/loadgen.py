"""Closed-loop load generation: capacity sweeps and soak scenarios.

Burst benchmarks (E21) measure *offered* throughput: fire a pipelined
burst, divide by wall clock.  That number lies near saturation — a
server answering 20k qps with a 2-second queue is not a 20k qps server
anyone should deploy.  This module measures *sustained* capacity the way
an operator would:

* :func:`run_step` drives ``connections`` closed-loop virtual users
  (send → await → record → repeat) for a fixed duration and reports
  exact latency percentiles from the raw per-query samples — no bucket
  interpolation, so SLO comparisons at millisecond scale are stable.
* :func:`run_sweep` walks an offered-rate ladder, rating each step
  against a p99 SLO, and reports the **knee**: the highest step the
  service sustains with p99 within SLO and ~every query answered.
  That "sustained-at-SLO qps" is the capacity number BENCH_service.json
  records per worker count.
* :func:`run_soak` holds steady load for minutes with client churn
  (vusers periodically reconnect) and window-0 slams (un-windowed
  bursts that exercise the overload path), sampling worker anonymous
  RSS from ``/proc``; drift in it or between first/last-quartile p99 is
  how a leak or a degrading event loop shows up.

Everything is stdlib + the existing pipelining client; async at the
core with blocking wrappers for benches and the CLI.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.word import WordTuple
from repro.exceptions import ServiceError
from repro.service.client import (
    CLIENT_DEADLINE_MESSAGE,
    BreakerConfig,
    RetryPolicy,
    RobustRouteClient,
    RouteServiceClient,
)
from repro.service.metrics import MetricsRegistry

#: Outcomes a vuser records per query.
_OK, _ERROR, _FAILED = 0, 1, 2


def _percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Exact q-quantile (nearest-rank with interpolation) of sorted data."""
    if not sorted_samples:
        return 0.0
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = q * (len(sorted_samples) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(sorted_samples) - 1)
    fraction = rank - low
    return sorted_samples[low] * (1.0 - fraction) + sorted_samples[high] * fraction


def read_rss_bytes(pid: int) -> Optional[int]:
    """Anonymous resident memory of ``pid`` (``RssAnon`` in ``/proc``;
    None off-Linux/dead).

    File-backed pages are left out on purpose: a worker that first
    faults in its mmap'd route table mid-soak grows its VmRSS by the
    table's size without leaking a byte.
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def fleet_rss_bytes(pids: Sequence[int]) -> Optional[int]:
    """Summed anonymous RSS across ``pids`` (None when none are
    readable)."""
    values = [rss for rss in (read_rss_bytes(pid) for pid in pids)
              if rss is not None]
    return sum(values) if values else None


@dataclass
class StepResult:
    """One load step's measurements."""

    offered_qps: Optional[float]  #: None means unpaced (as fast as possible)
    duration: float
    queries: int  #: replies + errors actually answered
    ok: int
    errors: int
    failures: int  #: queries lost to dead connections (after retries)
    achieved_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    slo_ms: Optional[float] = None

    @property
    def ok_fraction(self) -> float:
        total = self.queries + self.failures
        return self.ok / total if total else 0.0

    @property
    def within_slo(self) -> bool:
        """True when the step sustained its SLO (p99 and completeness)."""
        if self.slo_ms is None:
            return True
        return self.p99_ms <= self.slo_ms and self.ok_fraction >= 0.999

    def to_row(self) -> Dict[str, object]:
        """JSON-ready summary of this step for BENCH records."""
        return {
            "offered_qps": self.offered_qps,
            "duration_s": round(self.duration, 3),
            "queries": self.queries,
            "ok": self.ok,
            "errors": self.errors,
            "failures": self.failures,
            "achieved_qps": round(self.achieved_qps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "slo_ms": self.slo_ms,
            "within_slo": self.within_slo,
        }


@dataclass
class SweepResult:
    """A full offered-load ladder plus its knee."""

    steps: List[StepResult]
    slo_ms: float
    #: Highest step that sustained the SLO (None when even the first failed).
    knee: Optional[StepResult] = None

    @property
    def sustained_qps(self) -> float:
        """Achieved qps at the knee — the headline capacity number."""
        return self.knee.achieved_qps if self.knee is not None else 0.0

    def to_row(self) -> Dict[str, object]:
        """JSON-ready summary of the sweep and its knee."""
        return {
            "slo_ms": self.slo_ms,
            "sustained_qps": round(self.sustained_qps, 1),
            "knee_offered_qps": (
                self.knee.offered_qps if self.knee is not None else None
            ),
            "steps": [step.to_row() for step in self.steps],
        }


@dataclass
class SoakResult:
    """A soak run: per-quartile latency plus anonymous-RSS drift."""

    duration: float
    queries: int
    ok: int
    errors: int
    failures: int
    quartile_p99_ms: List[float]  #: exact p99 per elapsed-time quartile
    rss_first_bytes: Optional[int]
    rss_last_bytes: Optional[int]
    reconnects: int
    slams: int

    @property
    def rss_drift(self) -> Optional[float]:
        """Fractional anonymous-RSS growth over the soak (None when
        unreadable)."""
        if not self.rss_first_bytes or self.rss_last_bytes is None:
            return None
        return (self.rss_last_bytes - self.rss_first_bytes) / self.rss_first_bytes

    @property
    def p99_degradation(self) -> Optional[float]:
        """last-quartile p99 / first-quartile p99 (None without samples)."""
        if len(self.quartile_p99_ms) < 4:
            return None
        first, last = self.quartile_p99_ms[0], self.quartile_p99_ms[3]
        if first <= 0.0:
            return None
        return last / first

    def to_row(self) -> Dict[str, object]:
        """JSON-ready summary of the soak for BENCH records."""
        return {
            "duration_s": round(self.duration, 1),
            "queries": self.queries,
            "ok": self.ok,
            "errors": self.errors,
            "failures": self.failures,
            "quartile_p99_ms": [round(v, 3) for v in self.quartile_p99_ms],
            "rss_first_bytes": self.rss_first_bytes,
            "rss_last_bytes": self.rss_last_bytes,
            "rss_drift": (
                round(self.rss_drift, 4) if self.rss_drift is not None else None
            ),
            "p99_degradation": (
                round(self.p99_degradation, 3)
                if self.p99_degradation is not None
                else None
            ),
            "reconnects": self.reconnects,
            "slams": self.slams,
        }


@dataclass
class LoadScenario:
    """What every vuser sends: the query mix for one DG(d, k) service."""

    d: int
    k: int
    directed: bool = False
    want_path: bool = False
    seed: int = 1105  #: per-vuser streams derive from this

    def pairs(self, rng: random.Random, count: int) -> List[
        Tuple[WordTuple, WordTuple]
    ]:
        """``count`` random (source, destination) word pairs."""
        d, k = self.d, self.k
        return [
            (
                tuple(rng.randrange(d) for _ in range(k)),
                tuple(rng.randrange(d) for _ in range(k)),
            )
            for _ in range(count)
        ]


class _Recorder:
    """Shared latency/outcome sink for every vuser in one step."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.latencies: List[float] = []  #: seconds, ok replies only
        self.stamps: List[float] = []  #: elapsed-at-completion per ok reply
        self.ok = 0
        self.errors = 0
        self.failures = 0

    def record(self, outcome: int, latency: float, now: float) -> None:
        if outcome == _OK:
            self.ok += 1
            self.latencies.append(latency)
            self.stamps.append(now - self.started)
        elif outcome == _ERROR:
            self.errors += 1
        else:
            self.failures += 1


async def _vuser(
    host: str,
    port: int,
    scenario: LoadScenario,
    recorder: _Recorder,
    stop_at: float,
    interval: Optional[float],
    rng: random.Random,
    batch: int = 1,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[BreakerConfig] = None,
    client_registry: Optional[MetricsRegistry] = None,
) -> None:
    """One closed-loop virtual user: send, await, record, repeat.

    ``interval`` paces by absolute schedule (each batch is due at
    ``start + n*interval``; lateness is not forgiven, so a slow server
    sees the backlog as latency — the open-loop property that makes the
    knee visible).  ``interval=None`` runs flat out.

    With a ``policy`` the vuser drives a :class:`RobustRouteClient`
    (retries, deadline budget, breaker) instead of the plain client,
    which asks each batch once and records a failed batch as lost;
    synthetic client-deadline replies are recorded as *failures*, not
    answers, so ``--assert-complete`` stays honest under chaos.
    """
    client = (
        RobustRouteClient(host, port, d=scenario.d, policy=policy,
                          breaker=breaker, registry=client_registry)
        if policy is not None
        else RouteServiceClient(host, port, d=scenario.d)
    )
    next_due = time.perf_counter()
    try:
        while True:
            now = time.perf_counter()
            if now >= stop_at:
                break
            if interval is not None:
                if next_due > now:
                    await asyncio.sleep(min(next_due - now, stop_at - now))
                    if time.perf_counter() >= stop_at:
                        break
                next_due += interval
            pairs = scenario.pairs(rng, batch)
            sent_at = time.perf_counter()
            try:
                outcome = await client.query_many(
                    pairs,
                    directed=scenario.directed,
                    want_path=scenario.want_path,
                )
            except (ServiceError, OSError):
                done_at = time.perf_counter()
                for _ in pairs:
                    recorder.record(_FAILED, 0.0, done_at)
                await asyncio.sleep(0.05)
                continue
            done_at = time.perf_counter()
            latency = (done_at - sent_at) / max(1, len(pairs))
            for reply in outcome.replies:
                if reply.error_message == CLIENT_DEADLINE_MESSAGE:
                    recorder.record(_FAILED, 0.0, done_at)
                else:
                    recorder.record(
                        _OK if reply.ok else _ERROR, latency, done_at
                    )
    finally:
        await client.close()


def _step_from_recorder(
    recorder: _Recorder,
    offered_qps: Optional[float],
    duration: float,
    slo_ms: Optional[float],
) -> StepResult:
    samples = sorted(recorder.latencies)
    queries = recorder.ok + recorder.errors
    return StepResult(
        offered_qps=offered_qps,
        duration=duration,
        queries=queries,
        ok=recorder.ok,
        errors=recorder.errors,
        failures=recorder.failures,
        achieved_qps=queries / duration if duration > 0 else 0.0,
        p50_ms=_percentile(samples, 0.50) * 1e3,
        p95_ms=_percentile(samples, 0.95) * 1e3,
        p99_ms=_percentile(samples, 0.99) * 1e3,
        max_ms=(samples[-1] * 1e3) if samples else 0.0,
        slo_ms=slo_ms,
    )


async def run_step(
    host: str,
    port: int,
    scenario: LoadScenario,
    duration: float = 2.0,
    connections: int = 4,
    offered_qps: Optional[float] = None,
    slo_ms: Optional[float] = None,
    batch: int = 1,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[BreakerConfig] = None,
    client_registry: Optional[MetricsRegistry] = None,
) -> StepResult:
    """Drive one load step and measure it.

    ``offered_qps`` paces the fleet of vusers to that aggregate rate
    (each vuser gets ``offered_qps / connections``); ``None`` is
    closed-loop flat out — the saturation probe.
    """
    if connections < 1:
        raise ServiceError(f"connections must be >= 1, got {connections}")
    started = time.perf_counter()
    stop_at = started + duration
    recorder = _Recorder(started)
    interval = None
    if offered_qps is not None:
        if offered_qps <= 0:
            raise ServiceError(f"offered_qps must be > 0, got {offered_qps}")
        interval = connections * batch / offered_qps
    await asyncio.gather(*[
        _vuser(
            host, port, scenario, recorder, stop_at, interval,
            random.Random(scenario.seed + 7919 * index), batch,
            policy=policy, breaker=breaker,
            client_registry=client_registry,
        )
        for index in range(connections)
    ])
    elapsed = time.perf_counter() - started
    return _step_from_recorder(recorder, offered_qps, elapsed, slo_ms)


async def run_sweep(
    host: str,
    port: int,
    scenario: LoadScenario,
    rates: Sequence[float],
    slo_ms: float = 50.0,
    step_duration: float = 2.0,
    connections: int = 4,
    batch: int = 1,
    warmup: float = 0.5,
    stop_after_breach: int = 2,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[BreakerConfig] = None,
    client_registry: Optional[MetricsRegistry] = None,
) -> SweepResult:
    """Walk the offered-rate ladder and find the knee.

    The knee is the **highest** rate step whose p99 stays within
    ``slo_ms`` with ≥99.9 % of queries answered OK.  The walk stops
    early after ``stop_after_breach`` consecutive over-SLO steps —
    beyond the knee every step just queues harder.
    """
    if warmup > 0:
        await run_step(host, port, scenario, duration=warmup,
                       connections=connections, batch=batch)
    steps: List[StepResult] = []
    knee: Optional[StepResult] = None
    breaches = 0
    for rate in rates:
        step = await run_step(
            host, port, scenario,
            duration=step_duration,
            connections=connections,
            offered_qps=float(rate),
            slo_ms=slo_ms,
            batch=batch,
            policy=policy,
            breaker=breaker,
            client_registry=client_registry,
        )
        steps.append(step)
        if step.within_slo:
            breaches = 0
            if knee is None or step.achieved_qps > knee.achieved_qps:
                knee = step
        else:
            breaches += 1
            if breaches >= stop_after_breach:
                break
    return SweepResult(steps=steps, slo_ms=slo_ms, knee=knee)


async def run_soak(
    host: str,
    port: int,
    scenario: LoadScenario,
    duration: float = 60.0,
    connections: int = 4,
    offered_qps: Optional[float] = None,
    rss_pids: Sequence[int] = (),
    churn_every: float = 5.0,
    slam_size: int = 512,
    batch: int = 1,
) -> SoakResult:
    """Hold load for ``duration`` seconds with churn and window-0 slams.

    Churn: every ``churn_every`` seconds one extra short-lived vuser
    connects, works briefly, and disconnects — the connection-lifecycle
    path stays hot.  Slams: once per quartile a client fires a
    ``slam_size`` burst with ``window=0`` (everything in flight at
    once), exercising the admission queue / OVERLOADED path mid-soak.
    Anonymous RSS (:func:`read_rss_bytes`) is sampled from ``rss_pids``
    after warmup and again at the end.
    """
    started = time.perf_counter()
    stop_at = started + duration
    recorder = _Recorder(started)
    reconnects = 0
    slams = 0

    async def _churner() -> None:
        nonlocal reconnects
        rng = random.Random(scenario.seed ^ 0xC0FFEE)
        while time.perf_counter() + churn_every / 2 < stop_at:
            await asyncio.sleep(churn_every)
            if time.perf_counter() >= stop_at:
                break
            lifetime = min(1.0, churn_every / 2)
            try:
                await _vuser(
                    host, port, scenario, recorder,
                    time.perf_counter() + lifetime, None, rng, batch,
                )
                reconnects += 1
            except (ServiceError, OSError):  # pragma: no cover - best effort
                pass

    async def _slammer() -> None:
        nonlocal slams
        rng = random.Random(scenario.seed ^ 0x51A117)
        quarter = duration / 4.0
        client = RobustRouteClient(host, port, d=scenario.d,
                                   policy=RetryPolicy(retries=4))
        try:
            for quartile in range(4):
                due = started + quartile * quarter + quarter / 2
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if time.perf_counter() >= stop_at:
                    break
                # The hardened client never raises on a transport
                # failure, and re-asks what the slam got OVERLOADED.
                await client.query_many(
                    scenario.pairs(rng, slam_size),
                    directed=scenario.directed,
                    want_path=scenario.want_path,
                    window=0,
                )
                slams += 1
        finally:
            await client.close()

    interval = None
    if offered_qps is not None and offered_qps > 0:
        interval = connections * batch / offered_qps
    vusers = [
        _vuser(
            host, port, scenario, recorder, stop_at, interval,
            random.Random(scenario.seed + 104729 * index), batch,
        )
        for index in range(connections)
    ]
    # Sample RSS once load is flowing, not at cold start: page-cache
    # warmup in the first seconds would otherwise read as "drift".
    rss_first: Optional[int] = None

    async def _rss_probe() -> None:
        nonlocal rss_first
        await asyncio.sleep(min(2.0, duration / 10.0))
        rss_first = fleet_rss_bytes(rss_pids)

    await asyncio.gather(*vusers, _churner(), _slammer(), _rss_probe())
    elapsed = time.perf_counter() - started
    rss_last = fleet_rss_bytes(rss_pids)

    # Quartile latencies from completion stamps: elapsed time, not
    # sample count, defines the quartiles, so a slowdown late in the
    # soak cannot hide by answering fewer queries.
    buckets: List[List[float]] = [[], [], [], []]
    for latency, stamp in zip(recorder.latencies, recorder.stamps):
        quartile = min(3, int(4.0 * stamp / max(elapsed, 1e-9)))
        buckets[quartile].append(latency)
    quartile_p99 = [
        _percentile(sorted(bucket), 0.99) * 1e3 for bucket in buckets
    ]
    return SoakResult(
        duration=elapsed,
        queries=recorder.ok + recorder.errors,
        ok=recorder.ok,
        errors=recorder.errors,
        failures=recorder.failures,
        quartile_p99_ms=quartile_p99,
        rss_first_bytes=rss_first,
        rss_last_bytes=rss_last,
        reconnects=reconnects,
        slams=slams,
    )


# ----------------------------------------------------------------------
# Blocking wrappers (benches, CLI)
# ----------------------------------------------------------------------


def measure_step(host: str, port: int, scenario: LoadScenario,
                 **kwargs) -> StepResult:
    """Blocking :func:`run_step`."""
    return asyncio.run(run_step(host, port, scenario, **kwargs))


def measure_sweep(host: str, port: int, scenario: LoadScenario,
                  rates: Sequence[float], **kwargs) -> SweepResult:
    """Blocking :func:`run_sweep`."""
    return asyncio.run(run_sweep(host, port, scenario, rates, **kwargs))


def measure_soak(host: str, port: int, scenario: LoadScenario,
                 **kwargs) -> SoakResult:
    """Blocking :func:`run_soak`."""
    return asyncio.run(run_soak(host, port, scenario, **kwargs))
