"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` replaces each hooked name with a wrapper that records a
span (name, start, end, parent) and restores the originals on ``uninstall``.
A hook wraps the name a caller looks up: ``solarasv.cli.run_mission`` is the
name ``cli`` calls, ``solarasv.harness.run_mission`` the one
``compare_strategies`` calls. A hook whose target name no longer exists is
reported as absent and skipped. The untraced run never calls ``install``.

``controller`` and ``vessel`` have no hook: ``run_mission`` inlines their
math, so their cost is part of the harness loop's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

MARK = "__perfbench_span__"


def _run_info(args, kwargs, result) -> dict:
    return {"strategy": result.strategy, "steps": int(result.velocity_trace.size)}


def _plan_info(args, kwargs, result) -> dict:
    ctl, t = args[0], args[2]
    stages = ctl.horizon_steps
    if ctl.t_end is not None:
        stages = min(stages, int(round((ctl.t_end - t) / ctl.dt)))
    return {"stages": stages, "useful": result[1] is not None,
            "lattice": f"{ctl.cfg.soc_grid}x{ctl.cfg.u_grid}"}


def _export_info(args, kwargs, result) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (span name, module, attribute path, info taken from the call after it returns)
HOOKS = (
    ("cli.main", "solarasv.cli", "main", None),
    ("config.load", "solarasv.cli", "load_sim_config", None),
    ("config.load", "solarasv.cli", "load_compare_configs", None),
    ("harness.compare", "solarasv.cli", "compare_strategies", None),
    ("harness.run_mission", "solarasv.cli", "run_mission", _run_info),
    ("harness.run_mission", "solarasv.harness", "run_mission", _run_info),
    ("solar.profile", "solarasv.harness", "build_input_profile", None),
    ("barrier.envelope", "solarasv.harness", "build_mission_envelope", None),
    ("solar.sample", "solarasv.harness", "sample_array", None),
    ("solar.sample", "solarasv.benchmark", "sample_array", None),
    ("solar.sample", "solarasv.barrier", "sample_array", None),
    ("barrier.bounds", "solarasv.barrier", "BarrierEnvelope.bounds_arrays", None),
    ("benchmark.plan", "solarasv.benchmark", "MpcController.plan", _plan_info),
    ("harness.export_traces", "solarasv.cli", "export_traces", _export_info),
    ("harness.export_comparison", "solarasv.cli", "export_comparison", _export_info),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    info: dict | None
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(module: str, path: str):
    """(owner object, attribute name) for 'name' or 'Class.name' in a module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _current(owner, attr):
    # class attributes are read from __dict__ so a method stays a plain function
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, 0.0, 0.0, parent, None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a renamed field loses its metric, never the call
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for name, module, path, info in HOOKS:
            try:
                owner, attr = _resolve(module, path)
                original = _current(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def rescale(self, since: int, factor: float) -> None:
        """Multiply the times of the spans recorded from index ``since`` on.

        Used to express a traced iteration's spans in reference seconds.
        """
        for span in self.spans[since:]:
            span.start *= factor
            span.end *= factor
            span.child_s *= factor

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Hooked names that currently hold a span wrapper (empty when untraced)."""
    found = []
    for _, module, path, _ in HOOKS:
        try:
            owner, attr = _resolve(module, path)
            current = _current(owner, attr)
        except (ImportError, AttributeError, KeyError):
            continue
        if hasattr(current, MARK):
            found.append(f"{module}.{path}")
    return found
