"""Share CPU-bound work between the caller and one forked child.

:func:`beside` runs one call in the child while the caller does its own
share. A large CSV export (:func:`solarasv.csvout.write_columns`) splits into
two static halves this way, and a strategy comparison
(:func:`solarasv.harness.compare_strategies`) runs its first config in the
child and the rest in the caller, in order. The child is a plain ``os.fork``
that sends its pickled return value back through a pipe, so it starts with
the caller's state and nothing is imported or re-built. Where ``os.fork`` is
missing or the process may run on one CPU only, both calls run in the
caller and return the same values.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, TypeVar

T = TypeVar("T")
U = TypeVar("U")


def _two_cpus() -> bool:
    """Whether this process may run on more than one CPU."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity mask on this platform
        return (os.cpu_count() or 1) > 1


def beside(child: Callable[[], T], own: Callable[[], U]) -> tuple[T, U]:
    """``(child(), own())``, with child() run in a forked process beside own().

    The child finishes its call before it writes, so a pipe that fills up
    never stalls it mid-call; it then sends its pickled return value, or the
    exception it raised, and ends in ``os._exit``, which runs none of the
    caller's exit handlers. The child's exception is raised here again; a
    child that dies or sends data that does not unpickle raises
    ChildProcessError. If own() raises, the child is killed, and it is
    reaped on every path. Only the calling thread is forked, so the caller
    must run no other Python threads. Without ``os.fork``, or on a single
    CPU, own() and then child() run here.
    """
    if not hasattr(os, "fork") or not _two_cpus():
        mine = own()
        return child(), mine
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, child())
            except Exception as exc:
                reply = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                mine = own()
            except BaseException:
                import signal

                os.kill(pid, signal.SIGKILL)
                raise
            try:
                ok, value = pickle.load(pipe)
            except Exception as exc:  # truncated, or an exception that will not rebuild
                ok, value = False, ChildProcessError(
                    f"forked child's reply does not unpickle: {exc!r}"
                )
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise ChildProcessError(f"forked child ended with exit code {code}")
    if not ok:
        raise value
    return value, mine

