"""The processes a run starts, and how every one of them ends.

:func:`in_child` runs a step of the benchmark in a forked child.  The
benchmark joins the processes it forks, and the supervisor and the
cluster harness join theirs, but the measured program also starts
processes nobody joins: a parallel table compile registers shared
memory, which starts a ``multiprocessing`` resource tracker as a child
of the compiling process, and that tracker outlives it.  Once this
process is the child subreaper (Linux ``prctl``), such orphans are
re-parented to it instead of to init, and :func:`end_children` waits
for them, stops the ones that do not end, and reaps them all.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
import traceback
from typing import List

from perfbench.host import stat_fields

PR_SET_CHILD_SUBREAPER = 36
#: How long children get to end by themselves (a resource tracker ends
#: when the last holder of its pipe has), then after SIGTERM, before
#: SIGKILL.
GRACE_S = 2.0
#: Give up after this long; a child that survives SIGKILL is stuck in
#: the kernel and nothing more can be done from here.
GIVE_UP_S = 20.0


def adopt_orphans() -> bool:
    """Make orphaned descendants this process's children."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def children() -> List[int]:
    """Pids of this process's children, exited but unreaped ones too."""
    me = os.getpid()
    found: List[int] = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            if int(stat_fields(int(name))[1]) == me:
                found.append(int(name))
        except (OSError, ValueError, IndexError):
            continue
    return found


def _reap() -> bool:
    """Collect every exited child; True while some child still runs."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def end_children() -> List[int]:
    """Wait for, stop if need be, and reap every child.

    Returns the pids that had to be signalled; a clean run returns
    ``[]``.
    """
    signalled: List[int] = []
    started = time.monotonic()
    while _reap():
        waited = time.monotonic() - started
        if waited > GIVE_UP_S:
            break
        if waited > GRACE_S:
            sig = signal.SIGKILL if waited > 2 * GRACE_S else signal.SIGTERM
            for pid in children():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    continue
                if pid not in signalled:
                    signalled.append(pid)
        time.sleep(0.01)
    return signalled


def _child_main(fn, args, sender) -> None:
    try:
        result = fn(*args)
    except Exception:  # sent to the parent, which raises it
        result = RuntimeError(traceback.format_exc())
    sender.send(result)
    sender.close()


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child and return its result.

    Fork only while this process runs no other thread.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_main, args=(fn, args, sender))
    process.start()
    sender.close()
    try:
        result = receiver.recv()
    except EOFError:
        result = RuntimeError(f"child process exited with {process.exitcode}")
    finally:
        receiver.close()
        process.join(timeout=60.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=10.0)
    if isinstance(result, BaseException):
        raise result
    return result
