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
