"""Share CPU-bound work between the caller and one forked child.

:func:`beside` runs one call in the child while the caller does its own
share; a large CSV export (:func:`solarasv.csvout.write_columns`) splits into
two static halves this way. :func:`on_demand` hands a list of items out to
the two processes as each one becomes free, so a long item does not leave
the other CPU idle; a strategy comparison
(:func:`solarasv.harness.compare_strategies`) runs its configs this way. The
child is a plain ``os.fork`` that sends its pickled return value back
through a pipe, so it starts with the caller's state and nothing is imported
or re-built. Where ``os.fork`` is missing or the process may run on one CPU
only, everything runs in the caller, in order, and returns the same values.
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


# a write of at most PIPE_BUF bytes (>= 512 under POSIX) is atomic, and a new
# pipe holds at least that much, so this many one-byte claim tokens go in at once
_TOKENS = 256


def on_demand(n: int, call: Callable[[int], T]) -> list[T]:
    """``[call(0), ..., call(n - 1)]``, each run by whichever process is free.

    A token pipe filled before the fork holds one byte per claim, in item
    order; the caller and a forked child (:func:`beside`) each take the next
    token when they finish an item, until the pipe is empty. A token claims
    one item, or a run of ceil(n / 256) items when n exceeds 256. Every
    return value must pickle. Errors, killing and reaping follow
    :func:`beside`. Fewer than two items, no ``os.fork`` or a single CPU run
    every item here, in order.
    """
    if n < 2 or not hasattr(os, "fork") or not _two_cpus():
        return [call(i) for i in range(n)]
    per_token = -(-n // _TOKENS)
    read_fd, write_fd = os.pipe()
    try:
        try:
            os.write(write_fd, bytes(range(-(-n // per_token))))
        finally:
            os.close(write_fd)  # an emptied pipe then reads as end of file

        def claimed() -> dict[int, T]:
            done = {}
            while token := os.read(read_fd, 1):
                first = token[0] * per_token
                for i in range(first, min(first + per_token, n)):
                    done[i] = call(i)
            return done

        theirs, mine = beside(claimed, claimed)
    finally:
        os.close(read_fd)
    mine.update(theirs)
    return [mine[i] for i in range(n)]
