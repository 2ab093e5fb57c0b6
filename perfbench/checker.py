"""Check every answer against an answerer other than the one that gave it.

=====================  =====================  ==========================
reply                  produced by            checked against
=====================  =====================  ==========================
directed               Algorithm 1            Property 1 on packed words
                       (Morris–Pratt overlap) (``PackedSpace``)
undirected, table      reverse BFS table      suffix automaton
                                              (``core.batch``)
undirected path,       Algorithm 4            suffix automaton
planner                (suffix tree)
undirected distance,   suffix automaton       Algorithm 4
planner (batched)      (``MicroBatcher``)     (``method="suffix_tree"``)
=====================  =====================  ==========================

A returned path must replay from source to destination under
``verify_path`` in exactly the returned number of steps.  All of this
runs after the timed window.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.batch import undirected_distances_many
from repro.core.distance import undirected_distance
from repro.core.packed import PackedSpace
from repro.core.routing import RoutingStep, route, verify_path
from repro.exceptions import ProtocolError
from repro.service.protocol import FrameType, decode_error, decode_reply

Word = Tuple[int, ...]


@dataclass
class Answer:
    """One decoded reply to check."""

    source: Word
    destination: Word
    directed: bool
    want_path: bool
    distance: int
    path: list


@dataclass
class Tally:
    """Attempted queries and every way one can fail."""

    attempted: int = 0
    errors: Counter = field(default_factory=Counter)
    lost: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + self.lost + self.wrong

    @property
    def correct(self) -> int:
        return self.attempted - self.failed

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.errors.update(other.errors)
        self.lost += other.lost
        self.wrong += other.wrong
        self.reasons.update(other.reasons)

    def as_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": dict(self.errors), "lost": self.lost,
                "wrong": self.wrong, "reasons": dict(self.reasons)}


def undirected_reference(pairs: Sequence[Tuple[Word, Word]]) -> List[int]:
    """Suffix-automaton distances, one automaton per distinct source."""
    groups: Dict[Word, List[int]] = defaultdict(list)
    for index, (x, _) in enumerate(pairs):
        groups[x].append(index)
    out = [0] * len(pairs)
    for x, indices in groups.items():
        distances = undirected_distances_many(x, [pairs[i][1] for i in indices])
        for index, distance in zip(indices, distances):
            out[index] = distance
    return out


def path_mismatch(answer: Answer, d: int) -> Optional[str]:
    """Why the answer's path is invalid, or None when it replays."""
    if not answer.want_path:
        return "path-on-distance-query" if answer.path else None
    if len(answer.path) != answer.distance:
        return "path-length"
    if not verify_path(answer.source, answer.destination, answer.path, d):
        return "path-replay"
    return None


class Checker:
    """Expected distances for one DG(d, k) and one serving tier.

    ``batched_distances`` says undirected distance-only replies came
    from the micro-batcher's suffix automaton (the planner tier), so
    they must be checked against Algorithm 4 instead.
    """

    def __init__(self, d: int, k: int, batched_distances: bool) -> None:
        self.d = d
        self.space = PackedSpace(d, k)
        self.batched_distances = batched_distances
        #: A few answers found correct, for :meth:`self_test`.
        self.good: List[Answer] = []

    def expected(self, answers: Sequence[Answer]) -> List[int]:
        space = self.space
        out = [0] * len(answers)
        automaton: List[int] = []
        for index, a in enumerate(answers):
            if a.directed:
                out[index] = space.directed_distance(
                    space.pack(a.source), space.pack(a.destination))
            elif self.batched_distances and not a.want_path:
                out[index] = undirected_distance(
                    a.source, a.destination, method="suffix_tree")
            else:
                automaton.append(index)
        reference = undirected_reference(
            [(answers[i].source, answers[i].destination) for i in automaton])
        for index, distance in zip(automaton, reference):
            out[index] = distance
        return out

    def verify(self, answers: Sequence[Answer], tally: Tally) -> None:
        """Count the wrong ones among ``answers`` into ``tally``."""
        for answer, want in zip(answers, self.expected(answers)):
            reason = "distance" if answer.distance != want else path_mismatch(
                answer, self.d)
            if reason is not None:
                tally.wrong += 1
                tally.reasons[reason] += 1
            elif len(self.good) < 64:
                self.good.append(answer)

    def check_stream(self, queries, frames: Iterable, sent: int) -> Tally:
        """Check the replies to the first ``sent`` queries of one stream.

        ``frames`` are decoded protocol frames; a query without a reply
        is lost, an ``ERROR`` frame counts by its code.
        """
        tally = Tally(attempted=sent)
        by_id = {}
        for frame in frames:
            by_id[frame.request_id] = frame
        answers: List[Answer] = []
        for index in range(sent):
            frame = by_id.get(queries.base + index)
            if frame is None:
                tally.lost += 1
                continue
            if frame.frame_type == FrameType.ERROR:
                code, _ = decode_error(frame)
                tally.errors[code.name] += 1
                continue
            try:
                distance, path = decode_reply(frame)
            except ProtocolError:
                tally.wrong += 1
                tally.reasons["malformed"] += 1
                continue
            source, destination, directed, want_path = queries.query(index)
            answers.append(Answer(source, destination, directed, want_path,
                                  distance, path))
        self.verify(answers, tally)
        return tally

    def self_test(self) -> bool:
        """Feed one corrupted distance and one broken path; both must count.

        The two cases are made from answers of this run already found
        correct, so they differ from a right answer by one fault each.
        """
        answers = self.good
        distance_case = answers[0]
        path_case = next((a for a in answers
                          if a.path and a.path[-1].digit is not None), None)
        if path_case is None:
            # A distance-only run: plan a correct path for one of its pairs.
            source, destination = next(
                (a.source, a.destination) for a in answers
                if a.source != a.destination)
            path = route(source, destination, self.d, use_wildcards=False)
            path_case = Answer(source, destination, False, True, len(path), path)
        wrong_distance = Answer(
            distance_case.source, distance_case.destination,
            distance_case.directed, distance_case.want_path,
            distance_case.distance + 1, list(distance_case.path))
        # The last step's digit lands as the final word's last (L) or
        # first (R) digit, so changing it can never replay onto the
        # destination.
        step = path_case.path[-1]
        flipped = RoutingStep(step.direction, (step.digit + 1) % self.d)
        broken_path = Answer(
            path_case.source, path_case.destination, path_case.directed,
            True, path_case.distance, path_case.path[:-1] + [flipped])
        tally = Tally(attempted=2)
        self.verify([wrong_distance, broken_path], tally)
        return tally.wrong == 2
