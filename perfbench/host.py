"""Host and process readings from ``/proc``, and run provenance.

Everything here is read from outside the measured program: CPU time,
resident memory and last CPU of a pid, and the host's steal counter.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

CLK_TCK = os.sysconf("SC_CLK_TCK")


def stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` from field 3 (state) on.

    The command name (field 2) may hold spaces, so split after its
    closing parenthesis.
    """
    with open(f"/proc/{pid}/stat", "rb") as handle:
        text = handle.read().decode("ascii", "replace")
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds the process has used so far."""
    fields = stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def last_cpu(pid: int) -> int:
    """The CPU the process last ran on (``/proc/<pid>/stat`` field 39)."""
    return int(stat_fields(pid)[36])


def rss_mb(pid: int) -> float:
    """Resident set size in MiB (``VmRSS``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"pid {pid} has no VmRSS line")


def cpu_map(pids: Dict[str, int]) -> Dict[str, int]:
    """``{role: last CPU}`` for each live pid; dead pids are skipped."""
    out: Dict[str, int] = {}
    for role, pid in pids.items():
        try:
            out[role] = last_cpu(pid)
        except (OSError, ValueError):
            continue
    return out


class HostCpu:
    """A ``/proc/stat`` aggregate-CPU reading, for steal over an interval."""

    def __init__(self) -> None:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        # user nice system idle iowait irq softirq steal (guest fields are
        # already inside user/nice, so they are left out of the total).
        values = [int(v) for v in fields[1:9]]
        self.total = sum(values)
        self.steal = values[7]

    def steal_share_since(self, earlier: "HostCpu") -> float:
        """Steal jiffies ÷ all jiffies between ``earlier`` and this one."""
        total = self.total - earlier.total
        return (self.steal - earlier.steal) / total if total > 0 else 0.0


@dataclass(frozen=True)
class Placement:
    """The CPU the generator runs on and the one serving processes run on.

    On a host with fewer than two allowed CPUs nothing is pinned.
    """

    allowed: FrozenSet[int]
    generator: Optional[int]
    serving: Optional[int]

    @classmethod
    def split(cls) -> "Placement":
        allowed = frozenset(os.sched_getaffinity(0))
        ordered = sorted(allowed)
        if len(ordered) < 2:
            return cls(allowed, None, None)
        return cls(allowed, ordered[0], ordered[1])

    @staticmethod
    def pin(pid: int, cpu: Optional[int]) -> None:
        """Restrict ``pid`` (0: the calling thread) to ``cpu``, if any."""
        if cpu is not None:
            os.sched_setaffinity(pid, {cpu})

    @contextmanager
    def unpinned(self) -> Iterator[None]:
        """Threads and processes started inside may use every allowed CPU.

        A program's own start-up (e.g. a parallel table compile) then
        runs as it would unpinned; serving is pinned once it is up.
        """
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.allowed)
        try:
            yield
        finally:
            os.sched_setaffinity(0, before)

    def as_dict(self) -> Dict[str, object]:
        return {"allowed": sorted(self.allowed), "generator": self.generator,
                "serving": self.serving}


def total_cpu_seconds(pids: Iterable[int]) -> float:
    """Summed CPU seconds of the live pids in ``pids``."""
    total = 0.0
    for pid in pids:
        try:
            total += cpu_seconds(pid)
        except (OSError, ValueError):
            continue
    return total


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over ``src/**/*.py`` (path and bytes), sorted by path.

    Identifies the measured code when the checkout is not a git
    repository and no commit can be read.
    """
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path) -> Dict[str, object]:
    """What it takes to tell a noisy host from a regression."""
    return {
        "commit": _commit(root),
        "src_sha256_16": source_digest(root),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
