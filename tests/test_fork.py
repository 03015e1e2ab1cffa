"""Tests for solarasv._fork: a call run in a forked child beside the caller."""

from __future__ import annotations

import os
import time

import pytest

from solarasv import _fork
from solarasv._fork import beside


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _fail(exc: BaseException):
    def call():
        raise exc

    return call


def test_returns_both_values_in_argument_order(forks, no_leaks):
    big = bytes(range(256)) * 4096  # 1 MB, well past a pipe's buffer
    assert beside(lambda: big, lambda: os.getpid()) == (big, os.getpid())
    assert forks == [os.getpid()]


def test_child_runs_in_another_process(forks, no_leaks):
    child_pid, own_pid = beside(os.getpid, os.getpid)
    assert child_pid != own_pid == os.getpid()


def test_single_cpu_runs_both_here_without_forking(monkeypatch, no_leaks):
    monkeypatch.setattr(_fork, "_two_cpus", lambda: False)
    monkeypatch.setattr(os, "fork", _fail(AssertionError("forked")))
    order = []

    def call(name: str, value: int):
        return lambda: order.append(name) or value

    assert beside(call("child", 1), call("own", 2)) == (1, 2)
    assert order == ["own", "child"]


def test_raising_child_raises_here(forks, no_leaks):
    with pytest.raises(ZeroDivisionError):
        beside(lambda: 1 / 0, lambda: None)


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
def test_failed_child_raises_child_process_error(forks, no_leaks, child, match):
    with pytest.raises(ChildProcessError, match=match):
        beside(child, lambda: None)


def test_raising_caller_kills_and_reaps_the_child(forks, no_leaks):
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        beside(lambda: time.sleep(60), _fail(KeyError("own share")))
    assert time.perf_counter() - t0 < 30



def test_raising_caller_with_base_exception_kills_and_reaps_the_child(forks, no_leaks):
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        beside(lambda: time.sleep(60), _fail(KeyboardInterrupt()))
    assert time.perf_counter() - t0 < 30


@pytest.mark.parametrize(
    "value",
    [None, {"a": [1, 2.5], "b": ("x", None)}, ValueError("a value, not raised"), 2.0**-1074],
    ids=["none", "nested", "exception", "subnormal"],
)
def test_child_value_comes_back_equal(forks, no_leaks, value):
    got, _ = beside(lambda: value, lambda: None)
    if isinstance(value, BaseException):
        assert type(got) is type(value) and got.args == value.args
    else:
        assert got == value and type(got) is type(value)
    assert forks == [os.getpid()]


def test_child_starts_with_the_callers_state_and_keeps_its_own(forks, no_leaks):
    state = {"n": 1}

    def child():
        state["n"] += 10  # changes the child's copy only
        return state["n"]

    assert beside(child, lambda: state["n"]) == (11, 1)
    assert state == {"n": 1}


def test_without_os_fork_runs_both_here(monkeypatch, no_leaks):
    monkeypatch.setattr(_fork, "_two_cpus", lambda: True)
    monkeypatch.delattr(os, "fork")
    order = []
    assert beside(
        lambda: order.append("child") or os.getpid(),
        lambda: order.append("own") or os.getpid(),
    ) == (os.getpid(), os.getpid())
    assert order == ["own", "child"]


@pytest.mark.parametrize("count, two", [(1, False), (4, True), (None, False)])
def test_two_cpus_without_an_affinity_mask_reads_the_cpu_count(monkeypatch, count, two):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert _fork._two_cpus() is two
