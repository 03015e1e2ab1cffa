"""Tests for solarasv._fork: a call run in a forked child beside the caller,
and a list of items handed to both on demand."""

from __future__ import annotations

import os
import time

import pytest

from solarasv import _fork
from solarasv._fork import beside, on_demand


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail(exc: BaseException):
    def call():
        raise exc

    return call


def test_returns_both_values_in_argument_order(forks):
    big = bytes(range(256)) * 4096  # 1 MB, well past a pipe's buffer
    assert beside(lambda: big, lambda: os.getpid()) == (big, os.getpid())
    assert forks == [os.getpid()]
    _assert_no_child_left()


def test_child_runs_in_another_process(forks):
    child_pid, own_pid = beside(os.getpid, os.getpid)
    assert child_pid != own_pid == os.getpid()
    _assert_no_child_left()


def test_single_cpu_runs_both_here_without_forking(monkeypatch):
    monkeypatch.setattr(_fork, "_two_cpus", lambda: False)
    monkeypatch.setattr(os, "fork", _fail(AssertionError("forked")))
    order = []

    def call(name: str, value: int):
        return lambda: order.append(name) or value

    assert beside(call("child", 1), call("own", 2)) == (1, 2)
    assert order == ["own", "child"]


def test_raising_child_raises_here(forks):
    with pytest.raises(ZeroDivisionError):
        beside(lambda: 1 / 0, lambda: None)
    _assert_no_child_left()


@pytest.mark.parametrize(
    "child, match",
    [
        (lambda: os._exit(0), "does not unpickle"),  # ends before sending anything
        (lambda: os._exit(3), "exit code 3"),
        (_fail(SystemExit(0)), "exit code 1"),  # never unwinds into the caller's exit path
        (lambda: (lambda: None), "exit code 1"),  # a reply that does not pickle
    ],
    ids=["no-reply", "exit-code", "system-exit", "unpicklable"],
)
def test_failed_child_raises_child_process_error(forks, child, match):
    with pytest.raises(ChildProcessError, match=match):
        beside(child, lambda: None)
    _assert_no_child_left()


def test_raising_caller_kills_and_reaps_the_child(forks):
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        beside(lambda: time.sleep(60), _fail(KeyError("own share")))
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()


# ======================================================================
# on_demand: items claimed by whichever process is free
# ======================================================================


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture
def no_leaks():
    """Every fd the test opened is closed again and no child is left."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    before = _open_fds()
    yield
    assert _open_fds() == before
    _assert_no_child_left()


def _logged(path):
    """An item that appends its index to ``path`` (one atomic write) and
    returns (the pid that ran it, the index)."""

    def call(i: int):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{i}\n".encode())
        finally:
            os.close(fd)
        return os.getpid(), i

    return call


def _runs(path) -> list[int]:
    return sorted(int(line) for line in path.read_text().split()) if path.exists() else []


# 600 items take 200 tokens of 3 items each
@pytest.mark.parametrize("n", [0, 1, 2, 5, 600])
def test_items_come_back_in_order_and_each_runs_once(forks, no_leaks, tmp_path, n):
    log = tmp_path / "runs.log"
    out = on_demand(n, _logged(log))
    assert [i for _, i in out] == list(range(n))
    assert _runs(log) == list(range(n))
    assert forks == ([os.getpid()] if n >= 2 else [])  # one item needs no child


def test_child_takes_the_rest_while_the_caller_is_held_up(forks, no_leaks, tmp_path):
    me = os.getpid()
    log = _logged(tmp_path / "runs.log")

    def call(i: int):
        if os.getpid() == me:
            time.sleep(0.5)  # the child claims the next items meanwhile
        return log(i)

    out = on_demand(5, call)
    assert [i for _, i in out] == list(range(5))
    assert _runs(tmp_path / "runs.log") == list(range(5))
    assert sum(pid != me for pid, _ in out) > 1


def test_on_demand_single_cpu_runs_in_order_without_forking(monkeypatch):
    monkeypatch.setattr(_fork, "_two_cpus", lambda: False)
    monkeypatch.setattr(os, "fork", _fail(AssertionError("forked")))
    order = []
    assert on_demand(4, lambda i: order.append(i) or -i) == [0, -1, -2, -3]
    assert order == [0, 1, 2, 3]


def test_raising_item_in_child_raises_here(forks, no_leaks):
    me = os.getpid()

    def call(i: int):
        if os.getpid() != me:
            raise ZeroDivisionError(i)
        time.sleep(0.2)  # holds the caller so that the child claims an item

    with pytest.raises(ZeroDivisionError):
        on_demand(2, call)


def test_raising_item_in_caller_kills_and_reaps_the_child(forks, no_leaks):
    me = os.getpid()

    def call(i: int):
        if os.getpid() == me:
            raise KeyError(i)
        time.sleep(60)  # the child holds one item: the caller claims another

    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        on_demand(5, call)
    assert time.perf_counter() - t0 < 30

