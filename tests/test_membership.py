"""Tests for the SWIM-style distributed failure detector (E20)."""

from __future__ import annotations

import random

import pytest

from repro.core.tables import CompiledRouteTable
from repro.exceptions import InvalidParameterError
from repro.network.membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    MembershipView,
    OracleMembership,
    SwimConfig,
    SwimDetector,
    SwimMember,
    SwimPacket,
)
from repro.network.resilience import LocalDetourPolicy
from repro.network.router import TableDrivenRouter
from repro.network.simulator import Simulator


def _detector(d=2, k=3, horizon=400.0, **knobs):
    simulator = Simulator(d, k)
    config = SwimConfig(seed="test-swim", **knobs)
    return simulator, SwimDetector(simulator, config, horizon=horizon)


# ----------------------------------------------------------------------
# Configuration and construction
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(probe_interval=0.0),
    dict(probe_timeout=-1.0),
    dict(suspicion_timeout=0.0),
    dict(indirect_probes=-1),
    dict(piggyback_limit=0),
])
def test_swim_config_rejects_bad_knobs(bad):
    with pytest.raises(InvalidParameterError):
        SwimConfig(**bad)


def test_detector_requires_positive_horizon():
    simulator = Simulator(2, 3)
    with pytest.raises(InvalidParameterError):
        SwimDetector(simulator, SwimConfig())
    with pytest.raises(InvalidParameterError):
        SwimDetector(simulator, SwimConfig(), horizon=0.0)


def test_adjacency_excludes_self_loops():
    _, detector = _detector()
    for site in ((0, 0, 0), (1, 1, 1)):
        neighbors = detector._neighbors[site]
        assert site not in neighbors
        assert neighbors  # still has someone to probe


# ----------------------------------------------------------------------
# The oracle implementation of the view protocol
# ----------------------------------------------------------------------


def test_oracle_membership_mirrors_simulator_ground_truth():
    simulator = Simulator(2, 3)
    oracle = OracleMembership(simulator)
    dead = (0, 1, 1)
    simulator.fail_node(dead, at=1.0)
    simulator.run()
    assert isinstance(oracle, MembershipView)
    assert oracle.state(dead) == DEAD
    assert not oracle.is_alive(dead)
    assert not oracle.trusts(dead)
    assert oracle.dead_sites() == frozenset([dead])
    assert oracle.state((0, 0, 1)) == ALIVE
    # Every observer shares the one omniscient view.
    assert oracle.view_at((1, 0, 1)) is oracle


# ----------------------------------------------------------------------
# SiteView merge rules (SWIM ordering + firsthand evidence)
# ----------------------------------------------------------------------


def test_site_view_suspect_overrides_alive_at_equal_incarnation():
    _, detector = _detector()
    view = detector.view_at((0, 0, 1))
    subject = (0, 1, 0)
    assert view.state(subject) == ALIVE
    assert view.apply(SUSPECT, subject, 0)
    assert view.state(subject) == SUSPECT
    # Hearsay ALIVE at the same incarnation does not clear the suspicion.
    assert not view.apply(ALIVE, subject, 0)
    assert view.state(subject) == SUSPECT


def test_site_view_firsthand_alive_clears_same_incarnation_suspect():
    _, detector = _detector()
    view = detector.view_at((0, 0, 1))
    subject = (0, 1, 0)
    view.apply(SUSPECT, subject, 0)
    assert view.apply(ALIVE, subject, 0, firsthand=True)
    assert view.state(subject) == ALIVE


def test_site_view_fresher_incarnation_refutes_suspicion():
    _, detector = _detector()
    view = detector.view_at((0, 0, 1))
    subject = (0, 1, 0)
    view.apply(SUSPECT, subject, 0)
    assert view.apply(ALIVE, subject, 1)  # the subject's own refutation
    assert view.state(subject) == ALIVE
    assert view.incarnation_of(subject) == 1
    # Stale records at older incarnations bounce off.
    assert not view.apply(SUSPECT, subject, 0)
    assert not view.apply(DEAD, subject, 0)
    assert view.state(subject) == ALIVE


def test_site_view_dead_overrides_suspect_and_sticks():
    _, detector = _detector()
    view = detector.view_at((0, 0, 1))
    subject = (0, 1, 0)
    view.apply(SUSPECT, subject, 0)
    assert view.apply(DEAD, subject, 0)
    assert view.state(subject) == DEAD
    assert subject in view.dead_sites()
    # Same-incarnation SUSPECT (or hearsay ALIVE) cannot demote DEAD.
    assert not view.apply(SUSPECT, subject, 0)
    assert not view.apply(ALIVE, subject, 0)
    assert view.state(subject) == DEAD


def test_site_view_refutes_accusations_about_itself():
    _, detector = _detector()
    observer = (0, 0, 1)
    view = detector.view_at(observer)
    assert view.incarnation == 0
    assert view.apply(SUSPECT, observer, 0)
    # The observer never believes itself suspect: it outbids the
    # accusation with a fresher incarnation instead.
    assert view.state(observer) == ALIVE
    assert view.incarnation == 1
    # An accusation at the already-superseded incarnation is a no-op.
    assert not view.apply(SUSPECT, observer, 0)
    assert view.incarnation == 1


def test_collect_piggyback_drains_the_epidemic_budget():
    _, detector = _detector()
    view = detector.view_at((0, 0, 1))
    subject = (0, 1, 0)
    view.apply(SUSPECT, subject, 0)
    budget = detector.update_budget
    sends = 0
    while True:
        batch = view.collect_piggyback(limit=4)
        if not batch:
            break
        assert batch == [(SUSPECT, subject, 0)]
        sends += 1
        assert sends <= budget
    assert sends == budget


def test_suspected_sites_tracks_the_refutation_window():
    _, detector = _detector()
    view = detector.view_at((0, 0, 1))
    subject = (0, 1, 0)
    view.apply(SUSPECT, subject, 0)
    assert view.suspected_sites() == frozenset([subject])
    view.apply(DEAD, subject, 0)
    assert view.suspected_sites() == frozenset()


class _ManualClock:
    """A Clock whose timers fire only when the test advances it."""

    def __init__(self):
        self.t = 0.0
        self._timers = []

    def now(self):
        return self.t

    def call_later(self, delay, fn):
        self._timers.append((self.t + delay, fn))

    def advance(self, dt):
        end = self.t + dt
        while True:
            due = [timer for timer in self._timers if timer[0] <= end]
            if not due:
                break
            timer = min(due, key=lambda t: t[0])
            self._timers.remove(timer)
            self.t = timer[0]
            timer[1]()
        self.t = end


class _Sink:
    """Transport that drops every packet; listener that logs convictions."""

    def __init__(self):
        self.convicted = []

    def send(self, source, destination, packet):
        pass

    def on_dead_marked(self, observer, subject, incarnation):
        self.convicted.append(subject)

    def on_cleared(self, observer, subject, incarnation, firsthand):
        pass


def _hearsay_suspect():
    """Member 0 hears SUSPECT(2) from member 1; nobody ever answers it."""
    clock, sink = _ManualClock(), _Sink()
    config = SwimConfig(seed="hearsay", probe_interval=1.0,
                        probe_timeout=0.2, suspicion_timeout=5.0)
    member = SwimMember(0, [1, 2], config, clock=clock, transport=sink,
                        rng=random.Random(0), listener=sink,
                        update_budget=3)
    member.on_packet(SwimPacket("ping", 1, 1, updates=((SUSPECT, 2, 0),)))
    assert member.view.state(2) == SUSPECT
    return member, clock, sink


def test_hearsay_alone_never_convicts():
    member, clock, sink = _hearsay_suspect()
    clock.advance(60.0)  # the member never probes: no evidence of its own
    assert member.view.state(2) == SUSPECT
    assert sink.convicted == []


def test_failed_own_probe_confirms_a_hearsay_suspicion():
    """The member probes the suspect first; its own failed probe opens
    the refutation window, so it convicts without the DEAD record ever
    reaching it (the drop-everything transport delivers nothing)."""
    member, clock, sink = _hearsay_suspect()
    member.start()
    clock.advance(1.0 + 2 * 0.2 + 5.0 + 0.1)
    assert member.view.state(2) == DEAD
    assert sink.convicted == [2]


# ----------------------------------------------------------------------
# End-to-end detection in the simulator
# ----------------------------------------------------------------------


def _run_outage(recover_at=None, horizon=400.0):
    simulator, detector = _detector(horizon=horizon)
    dead = (0, 1, 1)
    simulator.fail_node(dead, at=50.0)
    if recover_at is not None:
        simulator.recover_node(dead, at=recover_at)
    detector.start()
    simulator.run()
    return simulator, detector, dead


def test_detector_convicts_a_silent_site():
    simulator, detector, dead = _run_outage()
    assert detector.detected_dead() == frozenset([dead])
    report = detector.finalize()
    assert report.outages == 1
    assert report.detected == 1
    assert report.false_positives == 0
    assert len(report.latencies) == 1
    # Latency is bounded by the detection budget: roughly one probe
    # interval + two probe timeouts + the suspicion window.
    assert 0 < report.mean_latency < 100.0
    assert report.messages > 0
    assert report.bytes > report.messages  # packets cost > 1 byte each
    # The verdict disseminated: other sites distrust the dead one too.
    distrusting = sum(
        1 for site in detector.sites
        if site != dead and not detector.view_at(site).trusts(dead))
    assert distrusting > len(detector.sites) // 2


def test_lossless_run_without_faults_stays_clean():
    simulator, detector = _detector(horizon=300.0)
    detector.start()
    simulator.run()
    report = detector.finalize()
    assert detector.detected_dead() == frozenset()
    assert report.outages == 0
    assert report.detected == 0
    assert report.false_positives == 0
    assert report.false_negatives == 0
    assert report.messages > 0  # the probe loop did run


def test_recovery_acquits_via_incarnation_bump():
    simulator, detector, dead = _run_outage(recover_at=150.0, horizon=600.0)
    # The outage was detected while it lasted...
    report = detector.finalize()
    assert report.detected == 1
    assert report.false_negatives == 0
    # ...and the rejoin (fresher incarnation) cleared the verdict.
    assert detector.detected_dead() == frozenset()
    assert detector.view_at(dead).incarnation >= 1


def test_on_dead_change_fires_on_conviction_and_acquittal():
    simulator, detector = _detector(horizon=600.0)
    dead = (0, 1, 1)
    simulator.fail_node(dead, at=50.0)
    simulator.recover_node(dead, at=150.0)
    snapshots = []
    detector.on_dead_change = lambda det: snapshots.append(
        det.detected_dead())
    detector.start()
    simulator.run()
    assert frozenset([dead]) in snapshots   # the conviction
    assert snapshots[-1] == frozenset()     # the acquittal


def test_finalize_scores_missed_outages_as_false_negatives():
    # A detector that never probes fast enough: the outage outlives the
    # horizon without a conviction.
    simulator = Simulator(2, 3)
    config = SwimConfig(seed="fn", probe_interval=500.0,
                        suspicion_timeout=500.0)
    detector = SwimDetector(simulator, config, horizon=100.0)
    simulator.fail_node((0, 1, 1), at=10.0)
    detector.start()
    simulator.run(until=100.0)  # the books close at the horizon
    report = detector.finalize()
    assert report.outages == 1
    assert report.detected == 0
    assert report.false_negatives == 1
    # finalize() is idempotent: the books close once.
    assert detector.finalize().false_negatives == 1


def test_detection_replays_bit_for_bit_from_the_seed():
    def run():
        simulator, detector, dead = _run_outage(recover_at=150.0,
                                                horizon=600.0)
        report = detector.finalize()
        return (detector.detected_dead(), report.messages, report.bytes,
                tuple(report.latencies), report.false_positives,
                report.false_negatives)

    assert run() == run()


# ----------------------------------------------------------------------
# The resilience stack consuming membership views
# ----------------------------------------------------------------------


def test_detour_policy_with_oracle_membership_matches_builtin_oracle():
    table = CompiledRouteTable.compile(2, 4, workers=1)
    space = table.space
    source, destination = (0, 0, 0, 1), (1, 1, 1, 1)
    dead = space.unpack(table.next_hop_packed(space.pack(source),
                                              space.pack(destination)))

    def run(with_membership):
        simulator = Simulator(2, 4)
        membership = OracleMembership(simulator) if with_membership else None
        simulator.detour_policy = LocalDetourPolicy(
            table, membership=membership)
        simulator.fail_node(dead, at=0.0)
        message = simulator.send(source, destination,
                                 TableDrivenRouter(table=table), at=1.0)
        stats = simulator.run()
        return stats.delivered_count, stats.detoured, tuple(message.trace)

    # The oracle dressed as a membership view is behaviourally identical
    # to the built-in oracle checks.
    assert run(True) == run(False)
    assert run(True)[0] == 1


def test_detour_policy_consults_the_per_site_detected_view():
    table = CompiledRouteTable.compile(2, 3, workers=1)

    class Paranoid:
        """A membership provider whose views trust nobody."""

        def view_at(self, observer):
            return self

        def trusts(self, site):
            return False

    simulator = Simulator(2, 3)
    policy = LocalDetourPolicy(table, membership=Paranoid())
    simulator.detour_policy = policy
    space = table.space
    source, destination = (0, 0, 1), (1, 1, 0)
    dead = space.unpack(table.next_hop_packed(space.pack(source),
                                              space.pack(destination)))
    simulator.fail_node(dead, at=0.0)
    simulator.send(source, destination, TableDrivenRouter(table=table),
                   at=1.0)
    stats = simulator.run()
    # With every candidate distrusted there is no detour to take: the
    # message is dropped (or rerouted), never detoured.
    assert stats.detoured == 0
