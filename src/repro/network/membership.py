"""Distributed failure detection: per-site membership views (E20/E25).

Everything the resilience stack did until now — local detours,
table repair, the chaos campaign's self-healing strategy —
consulted the simulator's *oracle* liveness set, knowledge no real site
possesses.  This module closes that gap with a SWIM-style failure
detector (Das–Gupta–Motivala, DSN 2002):

* **Direct probing** — every live site periodically pings one uniformly
  random neighbor (its de Bruijn adjacency) and expects an ack within a
  timeout.
* **Indirect probing** — on timeout the prober asks ``indirect_probes``
  other neighbors to ping the silent target on its behalf, so one lossy
  or congested link cannot convict a healthy site by itself.
* **Suspicion state machine** — a target that stays silent becomes
  SUSPECT (not dead!) and is only confirmed DEAD after
  ``suspicion_timeout`` more time units pass without refutation.  A
  member runs that refutation window on its own evidence: a suspicion
  it only heard by gossip starts the window once its own probe of the
  suspect fails too, so no verdict hinges on a DEAD record arriving.
* **Incarnation refutation** — a site that learns it is suspected bumps
  its own incarnation number and disseminates a fresher ALIVE record,
  which overrides the suspicion everywhere (the SWIM ordering rules:
  higher incarnation wins; at equal incarnations SUSPECT > ALIVE and
  DEAD > both).  A recovered site likewise rejoins by bumping its
  incarnation, so confirmed deaths heal after the outage ends.
* **Piggybacked dissemination** — state updates ride on the protocol's
  own probe/ack traffic (each update re-transmitted O(log N) times, the
  epidemic budget), and optionally on the simulator's ordinary routed
  traffic via :meth:`SwimDetector.piggyback_on_traffic`.

The protocol state machine itself lives in :class:`SwimMember`, one
instance per participant, and talks to the world only through two small
seams: a :class:`Clock` (``now`` + ``call_later``) and a
:class:`Transport` (``send(source, destination, packet)`` of symbolic
:class:`SwimPacket` records).  :class:`SwimDetector` binds members to
the discrete-event simulator (timers via ``Simulator.call_at``, packets
over a latency/liveness/loss-modelled control channel), while
``repro.cluster.swim`` binds the *same* members to wall-clock asyncio
timers and real UDP datagrams — same state machine, different
transport, so simulator results and real-process results are directly
comparable.

Every site ends up with its **own** :class:`SiteView` — possibly stale,
possibly wrong — and the resilience layer consumes those views through
the small :class:`MembershipView` protocol.  The omniscient behaviour
is preserved as one trivial implementation (:class:`OracleMembership`)
so oracle-driven and detection-driven strategies are directly
comparable (``benchmarks/bench_detection.py``).

Measurement (never protocol) uses ground truth: the detector watches
FAIL/RECOVER events to score detection latency, false positives and
false negatives into :class:`repro.network.stats.SimulationStats`.

Determinism contract: all randomness (probe targets, tick phases,
indirect-helper choices) comes from per-site ``random.Random`` streams
seeded from ``config.seed``, so a campaign replays bit-for-bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Hashable, List, Optional,
                    Sequence, Set, Tuple)

from repro.core.packed import PackedSpace
from repro.core.word import WordTuple
from repro.exceptions import InvalidParameterError
from repro.network.events import EventKind
from repro.network.message import Message
from repro.network.simulator import Simulator

#: Member states, ordered by "badness" at equal incarnation.
ALIVE, SUSPECT, DEAD = 0, 1, 2

_STATE_NAMES = {ALIVE: "alive", SUSPECT: "suspect", DEAD: "dead"}

#: A protocol participant's identity.  The simulator uses de Bruijn
#: words (:class:`WordTuple`); the real-process cluster uses small ints.
Site = Hashable

#: One disseminated record: (state, subject, incarnation).
Update = Tuple[int, Any, int]

#: Estimated wire cost of one protocol packet: header + addresses.
_PACKET_BYTES = 8
#: Estimated wire cost of one piggybacked update.
_UPDATE_BYTES = 5


@dataclass(frozen=True)
class SwimConfig:
    """The detector's knobs (times in simulated units — or seconds).

    The defaults suit the chaos campaign's clock (link latency 1,
    MTTR ~120): a probe round-trip is ~2, so ``probe_timeout=3``
    tolerates one queued hop, and the full detection budget —
    ~``probe_interval/2`` until the next probe lands, plus the timeout,
    plus ``suspicion_timeout`` for refutation — stays well under a
    typical outage.  The real-process cluster reuses the same dataclass
    with sub-second wall-clock values.
    """

    probe_interval: float = 10.0
    probe_timeout: float = 3.0
    #: How many other neighbors are asked to probe a silent target.
    indirect_probes: int = 2
    #: Grace period between SUSPECT and DEAD (the refutation window).
    suspicion_timeout: float = 20.0
    #: Max updates piggybacked on one protocol packet.
    piggyback_limit: int = 8
    #: Each update is piggybacked ~``retransmit_mult * log2(N)`` times.
    retransmit_mult: float = 3.0
    seed: str = "swim"

    def __post_init__(self) -> None:
        if self.probe_interval <= 0 or self.probe_timeout <= 0:
            raise InvalidParameterError(
                "probe_interval and probe_timeout must be positive")
        if self.suspicion_timeout <= 0:
            raise InvalidParameterError("suspicion_timeout must be positive")
        if self.indirect_probes < 0:
            raise InvalidParameterError("indirect_probes must be >= 0")
        if self.piggyback_limit < 1:
            raise InvalidParameterError("piggyback_limit must be >= 1")


# ----------------------------------------------------------------------
# The transport seam: symbolic packets, a clock, a wire
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SwimPacket:
    """One symbolic protocol packet, transport-agnostic.

    ``kind`` is one of ``"ping"``, ``"ping-req"``, ``"ack"`` or
    ``"relayed-ack"``; the remaining fields are interpreted per kind:

    * ``ping``: ``source`` probes the destination; ``relay_to`` names
      the probe's origin when the ping travels the indirect leg (the
      destination acks toward ``source``, who relays).
    * ``ping-req``: ``source`` asks the destination (a helper) to ping
      ``target`` on its behalf.
    * ``ack``: ``source`` (== ``target``, the probed site) answers with
      its own ``incarnation``; ``relay_to`` is passed through from the
      ping so the helper knows where to forward the good news.
    * ``relayed-ack``: the helper forwards the probed ``target``'s
      ``incarnation`` back to the probe's origin.

    ``updates`` carries the piggybacked dissemination records.  The
    simulator delivers these records verbatim; the cluster runtime
    serializes them through ``repro.cluster.codec``.
    """

    kind: str
    source: Site
    probe_id: int
    target: Optional[Site] = None
    incarnation: int = 0
    relay_to: Optional[Site] = None
    updates: Tuple[Update, ...] = ()


class Clock:
    """Scheduling seam: simulated time or the asyncio event loop."""

    def now(self) -> float:  # pragma: no cover - protocol
        """The current time in this clock's domain."""
        raise NotImplementedError

    def call_later(self, delay: float,
                   fn: Callable[[], None]) -> None:  # pragma: no cover
        """Run ``fn`` after ``delay`` time units."""
        raise NotImplementedError


class Transport:
    """Wire seam: deliver one :class:`SwimPacket` (or drop it).

    Implementations own every wire property — latency, loss, liveness
    gating, serialization, byte accounting.  The member never learns
    whether a send succeeded; silence is what the protocol detects.
    """

    def send(self, source: Site, destination: Site,
             packet: SwimPacket) -> None:  # pragma: no cover - protocol
        """Deliver (or silently drop) one packet."""
        raise NotImplementedError


class SwimListener:
    """Who a member tells about verdict-relevant transitions.

    The simulator's :class:`SwimDetector` aggregates these into the
    cluster-level verdict and scores detection latency against ground
    truth; the real-process agent recomputes its local dead set and
    triggers table repair.
    """

    def on_dead_marked(self, observer: Site, subject: Site,
                       incarnation: int) -> None:  # pragma: no cover
        """``observer`` convicted ``subject`` DEAD."""
        raise NotImplementedError

    def on_cleared(self, observer: Site, subject: Site, incarnation: int,
                   firsthand: bool) -> None:  # pragma: no cover
        """``observer`` acquitted ``subject`` (refutation or ack)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# The view protocol and its trivial (oracle) implementation
# ----------------------------------------------------------------------


class MembershipView:
    """What one observer believes about everyone else.

    The protocol the resilience stack consumes; implementations answer
    from whatever knowledge they actually have — ground truth for
    :class:`OracleMembership`, the SWIM state machine for
    :class:`SiteView`.
    """

    def state(self, site: Site) -> int:  # pragma: no cover - protocol
        """The observer's belief about ``site``: ALIVE, SUSPECT or DEAD."""
        raise NotImplementedError

    def is_alive(self, site: Site) -> bool:
        """False only for sites this view has *confirmed* dead."""
        return self.state(site) != DEAD

    def trusts(self, site: Site) -> bool:
        """True when the view holds the site fully alive (not suspected).

        The detour policy routes around everything it does not trust:
        suspects are probably down (detection lag), so waiting out the
        refutation window before using them again costs little.
        """
        return self.state(site) == ALIVE

    def dead_sites(self) -> FrozenSet:  # pragma: no cover
        """Every site this view has confirmed dead."""
        raise NotImplementedError


class OracleMembership(MembershipView):
    """Ground truth dressed up as a membership view.

    The omniscient behaviour the resilience stack had before E20, kept
    as the trivial protocol implementation: every observer shares one
    perfect, instantly-updated view.  ``view_at`` returns ``self`` for
    any observer, so the oracle also satisfies the provider protocol
    the detour policy uses.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator

    def state(self, site: WordTuple) -> int:
        """DEAD exactly when the simulator says the site is down now."""
        return DEAD if self.simulator.is_failed(site) else ALIVE

    def dead_sites(self) -> FrozenSet[WordTuple]:
        """The simulator's ground-truth failed set."""
        return self.simulator.failed_sites

    def view_at(self, observer: WordTuple) -> "OracleMembership":
        """Every observer shares the one omniscient view."""
        return self


# ----------------------------------------------------------------------
# Per-site SWIM state
# ----------------------------------------------------------------------


class SiteView(MembershipView):
    """One site's (possibly stale, possibly wrong) membership table.

    Stores only deviations from the bootstrap state (everyone ALIVE at
    incarnation 0), so an all-healthy network costs O(1) per view.
    State transitions follow the SWIM ordering rules — see
    :meth:`apply` — and every accepted transition is queued for
    piggybacked re-dissemination with a fresh epidemic budget.

    ``host`` supplies the epidemic ``update_budget`` and receives the
    ``on_dead_marked``/``on_cleared`` notifications (the
    :class:`SwimListener` surface) — normally the owning
    :class:`SwimMember`.
    """

    __slots__ = ("observer", "incarnation", "_host", "_states",
                 "_incarnations", "_updates")

    def __init__(self, observer: Site, host) -> None:
        self.observer = observer
        #: The observer's *own* incarnation number (bumped to refute).
        self.incarnation = 0
        self._host = host
        self._states: Dict[Site, int] = {}
        self._incarnations: Dict[Site, int] = {}
        #: Dissemination buffer: subject -> [state, incarnation, budget].
        self._updates: Dict[Site, List] = {}

    # -- MembershipView -------------------------------------------------

    def state(self, site: Site) -> int:
        """This observer's current belief about ``site``."""
        return self._states.get(site, ALIVE)

    def incarnation_of(self, site: Site) -> int:
        """The freshest incarnation number this view has seen for ``site``."""
        if site == self.observer:
            return self.incarnation
        return self._incarnations.get(site, 0)

    def dead_sites(self) -> FrozenSet:
        """Sites this view has confirmed dead."""
        return frozenset(site for site, state in self._states.items()
                         if state == DEAD)

    def suspected_sites(self) -> FrozenSet:
        """Sites currently inside their suspicion (refutation) window."""
        return frozenset(site for site, state in self._states.items()
                         if state == SUSPECT)

    # -- the SWIM merge rule --------------------------------------------

    def apply(self, state: int, subject: Site, incarnation: int,
              firsthand: bool = False) -> bool:
        """Merge one record; True when it changed this view.

        Ordering (SWIM §4.2, plus the rejoin extension): a higher
        incarnation always wins; at equal incarnations SUSPECT overrides
        ALIVE and DEAD overrides both.  A record *about the observer
        itself* that is not ALIVE is refuted instead of applied: the
        observer bumps its incarnation past the accusation and
        disseminates the fresher ALIVE.

        ``firsthand`` marks direct evidence — an ack the observer just
        received from the subject itself.  Firsthand ALIVE clears a
        same-incarnation SUSPECT or DEAD (hearsay never can): the
        subject demonstrably answered *after* whatever silence earned
        the accusation, so the accusation is stale here even before the
        subject learns of it and refutes with a fresh incarnation.
        Firsthand clears are local only (not re-disseminated — other
        observers would reject the equal-incarnation ALIVE anyway).
        """
        if subject == self.observer:
            if state != ALIVE and incarnation >= self.incarnation:
                self.incarnation = incarnation + 1
                self._enqueue(ALIVE, subject, self.incarnation)
                self._host.on_cleared(self.observer, subject,
                                      self.incarnation, firsthand=True)
                return True
            return False
        current_state = self._states.get(subject, ALIVE)
        current_inc = self._incarnations.get(subject, 0)
        if incarnation < current_inc:
            return False
        was_dead = current_state == DEAD
        if incarnation == current_inc and state <= current_state:
            if firsthand and state == ALIVE and current_state != ALIVE:
                self._states.pop(subject, None)
                self._host.on_cleared(self.observer, subject,
                                      incarnation, firsthand=True)
                return True
            return False
        if state == ALIVE and incarnation == current_inc:
            return False  # same-incarnation hearsay ALIVE never overrides
        self._incarnations[subject] = incarnation
        if state == ALIVE:
            self._states.pop(subject, None)
        else:
            self._states[subject] = state
        self._enqueue(state, subject, incarnation)
        if state == DEAD and not was_dead:
            self._host.on_dead_marked(self.observer, subject, incarnation)
        elif state == ALIVE:
            self._host.on_cleared(self.observer, subject, incarnation,
                                  firsthand=firsthand)
        return True

    def _enqueue(self, state: int, subject: Site,
                 incarnation: int) -> None:
        self._updates[subject] = [state, incarnation,
                                  self._host.update_budget]

    # -- piggybacking ---------------------------------------------------

    def collect_piggyback(self, limit: int) -> List[Update]:
        """Up to ``limit`` buffered updates, freshest budgets first.

        Decrements each chosen update's remaining budget and drops
        exhausted entries — the standard SWIM infection-style
        dissemination schedule.
        """
        if not self._updates:
            return []
        chosen = sorted(self._updates.items(),
                        key=lambda item: (-item[1][2], item[0]))[:limit]
        out: List[Update] = []
        for subject, record in chosen:
            out.append((record[0], subject, record[1]))
            record[2] -= 1
            if record[2] <= 0:
                del self._updates[subject]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        summary = {_STATE_NAMES[s]: sum(1 for v in self._states.values()
                                        if v == s)
                   for s in (SUSPECT, DEAD)}
        return (f"SiteView({self.observer!r}, inc={self.incarnation}, "
                f"{summary})")


# ----------------------------------------------------------------------
# One protocol participant, transport-agnostic
# ----------------------------------------------------------------------


class SwimMember:
    """One SWIM participant: the whole per-site state machine.

    Drives probing, indirect probing, suspicion and dissemination for a
    single site, speaking only through its :class:`Clock` and
    :class:`Transport` — it never imports a simulator or a socket.  The
    discrete-event detector and the real-process cluster agent both run
    verbatim instances of this class; only the seams differ.

    ``down_check`` (optional) reports whether the member's own host is
    currently down — the simulator models crashed sites this way so a
    failed site's timers go quiet and its rejoin bumps the incarnation.
    A real process has no such oracle (a dead process simply stops), so
    the cluster leaves it ``None``.

    ``horizon`` (optional) stops the probe loop from rescheduling past
    a fixed time — required under the simulator (an immortal timer
    would keep ``run()`` alive forever), meaningless on a wall clock.
    """

    __slots__ = ("site", "config", "clock", "transport", "rng", "listener",
                 "update_budget", "down_check", "horizon", "neighbors",
                 "view", "_probe_seq", "_pending_probes", "_probe_order",
                 "_probe_cursor", "_was_down")

    def __init__(
        self,
        site: Site,
        neighbors: Sequence[Site],
        config: SwimConfig,
        *,
        clock: Clock,
        transport: Transport,
        rng: random.Random,
        listener: SwimListener,
        update_budget: int,
        down_check: Optional[Callable[[], bool]] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self.site = site
        self.neighbors = list(neighbors)
        self.config = config
        self.clock = clock
        self.transport = transport
        self.rng = rng
        self.listener = listener
        #: Piggyback budget handed to the view on every enqueue.
        self.update_budget = update_budget
        self.down_check = down_check
        self.horizon = horizon
        self.view = SiteView(site, self)
        self._probe_seq = 0
        #: Outstanding probes: probe id -> still waiting for an ack.
        #: Probe ids are member-local; every ack (direct or relayed)
        #: returns to the member that minted the id, so local sets are
        #: equivalent to a global registry.
        self._pending_probes: Set[int] = set()
        #: Shuffled round-robin permutation + cursor (SWIM §4.3:
        #: random-permutation round-robin bounds worst-case first-probe
        #: time at ``2 * |neighbors| - 1`` intervals, where uniform
        #: random sampling has an unbounded tail).
        self._probe_order: Optional[List[Site]] = None
        self._probe_cursor = 0
        self._was_down = False

    # -- SwimListener surface for the owned SiteView --------------------

    def on_dead_marked(self, observer: Site, subject: Site,
                       incarnation: int) -> None:
        """Forward the owned view's conviction to the outer listener."""
        self.listener.on_dead_marked(observer, subject, incarnation)

    def on_cleared(self, observer: Site, subject: Site, incarnation: int,
                   firsthand: bool) -> None:
        """Forward the owned view's acquittal to the outer listener."""
        self.listener.on_cleared(observer, subject, incarnation, firsthand)

    # -- the probe loop -------------------------------------------------

    def start(self) -> None:
        """Arm the probe loop at a random phase (de-synchronised ticks)."""
        phase = self.rng.uniform(0.0, self.config.probe_interval)
        self.clock.call_later(phase, self._tick)

    def _tick(self) -> None:
        now = self.clock.now()
        interval = self.config.probe_interval
        if self.horizon is None or now + interval <= self.horizon:
            self.clock.call_later(interval, self._tick)
        if self.down_check is not None and self.down_check():
            self._was_down = True
            return
        view = self.view
        if self._was_down:
            # Rejoin after an outage: refute any standing death verdict
            # with a fresher incarnation and announce it.  The rejoiner
            # is itself a live observer, so its announcement also
            # acquits it in the cluster-level verdict immediately.
            self._was_down = False
            view.incarnation += 1
            view._enqueue(ALIVE, self.site, view.incarnation)
            self.listener.on_cleared(self.site, self.site, view.incarnation,
                                     firsthand=True)
        neighbors = self.neighbors
        if not neighbors:  # pragma: no cover - k >= 1 graphs have neighbors
            return
        rng = self.rng
        # A suspect's refutation window is ticking: re-probing it beats
        # scanning a healthy neighbor, both for clearing a wrong
        # suspicion fast and for confirming a right one with evidence.
        suspects = [n for n in neighbors if view.state(n) == SUSPECT]
        if suspects:
            target = suspects[rng.randrange(len(suspects))]
        else:
            target = self._next_round_robin()
        self._probe(target)

    def _next_round_robin(self) -> Site:
        """The next probe target: shuffled round-robin."""
        order = self._probe_order
        cursor = self._probe_cursor
        if order is None or cursor >= len(order):
            order = list(self.neighbors)
            self.rng.shuffle(order)
            self._probe_order = order
            cursor = 0
        self._probe_cursor = cursor + 1
        return order[cursor]

    def _probe(self, target: Site) -> None:
        probe_id = self._probe_seq = self._probe_seq + 1
        self._pending_probes.add(probe_id)
        self._send_ping(target, probe_id)
        self.clock.call_later(
            self.config.probe_timeout,
            lambda: self._direct_timeout(target, probe_id))

    def _direct_timeout(self, target: Site, probe_id: int) -> None:
        if probe_id not in self._pending_probes:
            return  # acked in time
        if self.down_check is not None and self.down_check():
            self._pending_probes.discard(probe_id)
            return
        config = self.config
        helpers = [n for n in self.neighbors if n != target]
        count = min(config.indirect_probes, len(helpers))
        if count > 0:
            for helper in self.rng.sample(helpers, count):
                self.transport.send(self.site, helper, SwimPacket(
                    "ping-req", self.site, probe_id, target=target))
        self.clock.call_later(
            config.probe_timeout,
            lambda: self._indirect_timeout(target, probe_id))

    def _indirect_timeout(self, target: Site, probe_id: int) -> None:
        if probe_id not in self._pending_probes:
            return
        self._pending_probes.discard(probe_id)
        if self.down_check is not None and self.down_check():
            return
        self._start_suspicion(target)

    # -- suspicion ------------------------------------------------------

    def _start_suspicion(self, subject: Site) -> None:
        """Our own probe of ``subject`` failed: open a refutation window.

        Also when the subject is already SUSPECT by hearsay — otherwise
        this member could only learn the verdict from a DEAD record,
        whose epidemic budget may be spent before it arrives.  Extra
        windows for one suspicion are harmless: :meth:`_confirm` acts
        once and only while the suspicion stands.
        """
        view = self.view
        state = view.state(subject)
        if state == DEAD:
            return
        incarnation = view.incarnation_of(subject)
        if state == ALIVE:
            view.apply(SUSPECT, subject, incarnation)
        self.clock.call_later(
            self.config.suspicion_timeout,
            lambda: self._confirm(subject, incarnation))

    def _confirm(self, subject: Site, incarnation: int) -> None:
        if self.down_check is not None and self.down_check():
            return
        view = self.view
        if view.state(subject) != SUSPECT:
            return  # refuted (ALIVE) or already confirmed elsewhere
        if view.incarnation_of(subject) != incarnation:
            return  # a newer incarnation superseded this suspicion
        view.apply(DEAD, subject, incarnation)

    # -- packet I/O -----------------------------------------------------

    def _send_ping(self, target: Site, probe_id: int,
                   relay_to: Optional[Site] = None) -> None:
        updates = self.view.collect_piggyback(self.config.piggyback_limit)
        self.transport.send(self.site, target, SwimPacket(
            "ping", self.site, probe_id, relay_to=relay_to,
            updates=tuple(updates)))

    def on_packet(self, packet: SwimPacket) -> None:
        """Deliver one packet to this member (the transport's upcall)."""
        kind = packet.kind
        if kind == "ping":
            self._handle_ping(packet)
        elif kind == "ack":
            self._handle_ack(packet)
        elif kind == "ping-req":
            self._send_ping(packet.target, packet.probe_id,
                            relay_to=packet.source)
        elif kind == "relayed-ack":
            self._handle_relayed_ack(packet)
        # Unknown kinds are dropped: a codec/version mismatch must never
        # crash a member or fabricate evidence.

    def _handle_ping(self, packet: SwimPacket) -> None:
        view = self.view
        for state, subject, inc in packet.updates:
            view.apply(state, subject, inc)
        # Receiving the ping is itself firsthand evidence the prober is
        # alive (applied after the piggyback so a refutation-triggering
        # SUSPECT about the prober cannot immediately re-shadow it).
        view.apply(ALIVE, packet.source,
                   view.incarnation_of(packet.source), firsthand=True)
        # Ack back to the prober (or to the indirect helper, who relays).
        ack_updates = view.collect_piggyback(self.config.piggyback_limit)
        self.transport.send(self.site, packet.source, SwimPacket(
            "ack", self.site, packet.probe_id, target=self.site,
            incarnation=view.incarnation, relay_to=packet.relay_to,
            updates=tuple(ack_updates)))

    def _handle_ack(self, packet: SwimPacket) -> None:
        view = self.view
        for state, subject, inc in packet.updates:
            view.apply(state, subject, inc)
        # The ack is firsthand evidence: the target answered *after*
        # whatever silence earned any standing accusation at this
        # incarnation, so it clears a same-incarnation SUSPECT/DEAD.
        view.apply(ALIVE, packet.target,
                   max(packet.incarnation,
                       view.incarnation_of(packet.target)),
                   firsthand=True)
        if packet.relay_to is not None:
            # Indirect leg: pass the good news back to the origin.
            self.transport.send(self.site, packet.relay_to, SwimPacket(
                "relayed-ack", self.site, packet.probe_id,
                target=packet.target, incarnation=packet.incarnation))
            return
        self._pending_probes.discard(packet.probe_id)

    def _handle_relayed_ack(self, packet: SwimPacket) -> None:
        self.view.apply(ALIVE, packet.target, packet.incarnation)
        self._pending_probes.discard(packet.probe_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SwimMember({self.site!r}, {len(self.neighbors)} "
                f"neighbors, inc={self.view.incarnation})")


@dataclass
class DetectionReport:
    """What one detector run measured (mirrors the stats fields)."""

    outages: int = 0
    detected: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    messages: int = 0
    bytes: int = 0
    latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return (sum(self.latencies) / len(self.latencies)
                if self.latencies else 0.0)


# ----------------------------------------------------------------------
# Simulator bindings for the seams
# ----------------------------------------------------------------------


class _SimulatorClock(Clock):
    """Member timers on the discrete-event heap."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator

    def now(self) -> float:
        return self.simulator.now

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.simulator.call_at(self.simulator.now + delay,
                               lambda sim, _fn=fn: _fn())


class _SimulatorTransport(Transport):
    """The out-of-band control channel: latency, liveness, loss — no queue.

    Every packet costs one ``link_latency`` per leg, is dropped when the
    sender is down at send time, the connecting link is cut, the
    simulator's ``loss_fn`` loses it, or the receiver is down at arrival
    time — but control packets do not occupy data-link bandwidth, so
    installing the detector never perturbs data-traffic latency
    statistics.
    """

    def __init__(self, detector: "SwimDetector") -> None:
        self._detector = detector

    def send(self, source: WordTuple, destination: WordTuple,
             packet: SwimPacket) -> None:
        detector = self._detector
        simulator = detector.simulator
        stats = simulator.stats
        stats.membership_messages += 1
        stats.membership_bytes += _PACKET_BYTES + 2 * simulator.k \
            + _UPDATE_BYTES * len(packet.updates)
        if simulator.is_failed(source):
            return
        if simulator.is_link_failed(source, destination):
            return
        if simulator.loss_fn is not None \
                and simulator.loss_fn(source, destination):
            return
        member = detector._members[destination]

        def arrive(sim: Simulator) -> None:
            if sim.is_failed(destination):
                return
            member.on_packet(packet)

        simulator.call_at(simulator.now + simulator.link_latency, arrive)


# ----------------------------------------------------------------------
# The detector
# ----------------------------------------------------------------------


class SwimDetector(SwimListener):
    """SWIM failure detection for every site of one simulator.

    Owns one :class:`SwimMember` per site, bound to the simulator
    through :class:`_SimulatorClock` and :class:`_SimulatorTransport`,
    so :meth:`start` then ``simulator.run()`` is the whole integration.

    ``view_at(site)`` is the per-site :class:`SiteView`;
    ``detected_dead()`` aggregates the confirmed-dead sets of currently
    *live* observers (the converged cluster view a shared self-healing
    table repairs from).
    """

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[SwimConfig] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config or SwimConfig()
        #: Ticks stop rescheduling at this simulated time (a detector
        #: with no horizon would keep ``run()`` alive forever).
        self.horizon = horizon if horizon is not None else 0.0
        if self.horizon <= 0:
            raise InvalidParameterError(
                "SwimDetector needs a positive horizon (when to stop "
                "scheduling probe ticks)")
        space = PackedSpace(simulator.d, simulator.k)
        self.space = space
        self.sites: List[WordTuple] = [space.unpack(v)
                                       for v in range(space.order)]
        #: Piggyback budget: ~retransmit_mult * log2(N) sends per update.
        self.update_budget = max(
            3, math.ceil(self.config.retransmit_mult
                         * math.log2(space.order + 1)))
        self._neighbors: Dict[WordTuple, List[WordTuple]] = {
            site: self._adjacency(site) for site in self.sites}
        clock = _SimulatorClock(simulator)
        transport = _SimulatorTransport(self)
        self._members: Dict[WordTuple, SwimMember] = {
            site: SwimMember(
                site, self._neighbors[site], self.config,
                clock=clock, transport=transport,
                rng=random.Random(f"{self.config.seed}:site:{site}"),
                listener=self, update_budget=self.update_budget,
                down_check=(lambda _s=site: simulator.is_failed(_s)),
                horizon=self.horizon)
            for site in self.sites}
        self._views: Dict[WordTuple, SiteView] = {
            site: member.view for site, member in self._members.items()}
        #: Measurement-only fault bookkeeping (ground truth, stats only).
        self._down_since: Dict[WordTuple, float] = {}
        self._credited: Set[WordTuple] = set()
        #: The cluster-level verdict the shared healer repairs from:
        #: subject -> incarnation of its standing DEAD record.  Follows
        #: the freshest evidence anywhere — the first confirmation from
        #: any observer convicts, the first refutation (a fresher or
        #: firsthand ALIVE at any live observer) acquits — rather than
        #: waiting for every individual view to converge.
        self._global_dead: Dict[WordTuple, int] = {}
        #: Last acquittal per subject: (incarnation, time).  Guards the
        #: verdict against stale convictions still in the pipeline — a
        #: suspicion that started before the acquittal confirms at an
        #: older-or-equal incarnation within one refutation window.
        self._acquit: Dict[WordTuple, Tuple[int, float]] = {}
        #: Fired whenever the aggregated detected-dead set may have
        #: changed (detection-driven repair hangs its sync here).
        self.on_dead_change: Optional[Callable[["SwimDetector"], None]] = None
        self._started = False
        self._finalized = False

    def _adjacency(self, site: WordTuple) -> List[WordTuple]:
        """The site's probe targets: its de Bruijn neighbors, sans self."""
        space = self.space
        value = space.pack(site)
        packed: Set[int] = set(space.left_neighbors(value))
        if self.simulator.bidirectional:
            packed.update(space.right_neighbors(value))
        packed.discard(value)
        return [space.unpack(v) for v in sorted(packed)]

    # -- public API -----------------------------------------------------

    def view_at(self, observer: WordTuple) -> SiteView:
        """The observer's own membership view (the provider protocol)."""
        return self._views[observer]

    def detected_dead(self) -> FrozenSet[WordTuple]:
        """The cluster-level confirmed-dead set.

        The aggregation a *shared* self-healing table repairs from:
        the first confirmation from any observer convicts a site, the
        first refutation anywhere (a fresher-incarnation or firsthand
        ALIVE) acquits it.  Individual :class:`SiteView`\\ s converge to
        the same verdicts through dissemination, but the shared healer
        should not wait for the slowest view.
        """
        return frozenset(self._global_dead)

    def start(self) -> None:
        """Arm every site's probe loop and the fault observer."""
        if self._started:
            return
        self._started = True
        self.simulator.add_event_hook(self._observe_event)
        for site in self.sites:
            self._members[site].start()

    def piggyback_on_traffic(self) -> None:
        """Also disseminate on the simulator's ordinary routed traffic.

        Installs a delivery hook: whenever a data message is delivered,
        updates buffered at its *source* are applied at its destination,
        as if they had ridden along — the "piggyback on existing
        routing flow" channel.  Slightly optimistic (the updates are
        read at delivery time, not injection time), which matters only
        when the in-flight time exceeds the dissemination budget.
        """
        limit = self.config.piggyback_limit

        def relay(message: Message, simulator: Simulator) -> None:
            source_view = self._views.get(message.source)
            target_view = self._views.get(message.destination)
            if source_view is None or target_view is None:
                return
            if simulator.is_failed(message.destination):
                return
            for state, subject, inc in source_view.collect_piggyback(limit):
                target_view.apply(state, subject, inc)

        self.simulator.add_deliver_hook(relay)

    def finalize(self) -> DetectionReport:
        """Close the books: score still-undetected outages, report.

        Call after ``simulator.run()`` returns.  Outages that outlived
        the run without any confirmation count as false negatives
        (the detector had its chance and missed).
        """
        stats = self.simulator.stats
        if not self._finalized:
            self._finalized = True
            for site in list(self._down_since):
                if site not in self._credited:
                    stats.false_negatives += 1
        return DetectionReport(
            outages=self._outages,
            detected=len(stats.detection_latencies),
            false_positives=stats.false_positives,
            false_negatives=stats.false_negatives,
            messages=stats.membership_messages,
            bytes=stats.membership_bytes,
            latencies=list(stats.detection_latencies),
        )

    # -- measurement hooks (ground truth, stats only) -------------------

    _outages = 0

    def _observe_event(self, event, simulator: Simulator) -> None:
        kind = event.kind
        if kind == EventKind.FAIL:
            if event.node not in self._down_since:
                self._down_since[event.node] = event.time
                self._outages += 1
        elif kind == EventKind.RECOVER:
            started = self._down_since.pop(event.node, None)
            if started is not None and event.node not in self._credited:
                simulator.stats.false_negatives += 1
            self._credited.discard(event.node)

    def on_dead_marked(self, observer: WordTuple, subject: WordTuple,
                       incarnation: int) -> None:
        """An observer confirmed ``subject`` dead at ``incarnation``."""
        stats = self.simulator.stats
        standing = self._global_dead.get(subject)
        if standing is not None and standing >= incarnation:
            return  # already convicted at this (or fresher) evidence
        acquit = self._acquit.get(subject)
        if acquit is not None:
            acquit_inc, acquit_time = acquit
            if incarnation < acquit_inc:
                return  # conviction predates the subject's refutation
            if incarnation == acquit_inc and self.simulator.now \
                    < acquit_time + self.config.suspicion_timeout:
                # Within one refutation window of a same-incarnation
                # acquittal this can only be a suspicion that started
                # before the acquitting evidence — stale, not new.
                return
        self._global_dead[subject] = incarnation
        if standing is None:
            # A new conviction (not a fresher re-confirmation): score it.
            if subject in self._down_since:
                if subject not in self._credited:
                    self._credited.add(subject)
                    stats.detection_latencies.append(
                        self.simulator.now - self._down_since[subject])
            else:
                # Confirmed dead while actually alive: a false
                # conviction, counted once per episode to match the
                # once-per-outage detection credit.
                stats.false_positives += 1
        if self.on_dead_change is not None:
            self.on_dead_change(self)

    def on_cleared(self, observer: WordTuple, subject: WordTuple,
                   incarnation: int, firsthand: bool) -> None:
        """An observer saw ALIVE evidence against a standing verdict.

        Fresher-incarnation ALIVE (the subject's own refutation, so
        ``incarnation`` exceeds any accusation it answers) always
        acquits; firsthand equal-incarnation ALIVE (the subject just
        answered a probe) acquits the same incarnation's conviction.
        """
        standing = self._global_dead.get(subject)
        if standing is None:
            return
        if incarnation > standing or (firsthand and
                                      incarnation >= standing):
            del self._global_dead[subject]
            self._acquit[subject] = (incarnation, self.simulator.now)
            if self.on_dead_change is not None:
                self.on_dead_change(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SwimDetector(DG({self.simulator.d},{self.simulator.k}), "
                f"{len(self.sites)} sites, horizon={self.horizon})")
