"""Per-layer metrics, derived from the spans of the traced iterations.

``*_ms`` metrics are means per call of the hooked function, ``*_calls`` are
calls per workload iteration, self times subtract the child spans. A metric
whose layer was not called on a workload has no value and the status "n/a";
one whose hook target is gone has no value and the status "absent".

Every metric is printed; those measured on every workload (``everywhere``)
are the ones ``BENCHMARK.json`` declares and the JSON line carries.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from spans import HOOKS, Span

STRATEGIES = ("ilc", "constant-constrained", "constant-unconstrained", "mpc")
P95_MIN_SAMPLES = 200  # ten samples beyond the 95th percentile


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    span: str      # span the metric is read from ("" for the whole iteration)
    moves: str     # end-to-end metric and workload it should move
    everywhere: bool = False  # measured on every workload, so in the JSON line


PER_LAYER = (
    Metric("cli.self_ms", "ms", "cli.main", "wall_s on year-run", True),
    Metric("config.load_ms", "ms", "config.load", "wall_s on year-run", True),
    Metric("harness.compare_self_ms", "ms", "harness.compare", "wall_s on year-run"),
    Metric("solar.profile_ms", "ms", "solar.profile",
           "wall_s on year-run; setup_s if cached at import", True),
    Metric("barrier.envelope_ms", "ms", "barrier.envelope",
           "wall_s on year-run; setup_s if cached at import", True),
    Metric("solar.sample_calls", "count", "solar.sample", "wall_s on mpc-every-step", True),
    Metric("solar.sample_ms", "ms", "solar.sample", "wall_s on mpc-every-step", True),
    Metric("barrier.bounds_calls", "count", "barrier.bounds", "wall_s on mpc-every-step", True),
    Metric("barrier.bounds_ms", "ms", "barrier.bounds", "wall_s on mpc-every-step", True),
    Metric("harness.loop_steps_per_s", "1/s", "harness.run_mission",
           "wall_s on year-run; no change on mpc-*", True),
    *(Metric(f"harness.loop_steps_per_s.{s}", "1/s", "harness.run_mission",
             "wall_s on year-run; no change on mpc-*") for s in STRATEGIES),
    Metric("harness.export_traces_ms", "ms", "harness.export_traces", "wall_s on year-run", True),
    Metric("harness.export_bytes", "B", "harness.export_traces", "wall_s on year-run", True),
    Metric("harness.export_mb_per_s", "MB/s", "harness.export_traces", "wall_s on year-run",
           True),
    Metric("harness.export_comparison_ms", "ms", "harness.export_comparison", "wall_s on year-run"),
    Metric("benchmark.stage_us", "us", "benchmark.plan", "wall_s on mpc-day-ahead"),
    Metric("benchmark.plan_calls", "count", "benchmark.plan", "wall_s on mpc-every-step"),
    Metric("benchmark.plan_ms_p50", "ms", "benchmark.plan", "wall_s on mpc-every-step"),
    Metric("benchmark.plan_ms_p95", "ms", "benchmark.plan", "wall_s on mpc-every-step"),
    Metric("benchmark.plan_share", "ratio", "benchmark.plan", "wall_s on mpc-*"),
    Metric("benchmark.plan_useful_ratio", "ratio", "benchmark.plan", "wall_s on mpc-*"),
    Metric("trace.overhead_ratio", "ratio", "", "every workload", True),
)

# span name -> the hooked names it is read from, for "absent" reporting
SPAN_HOOKS: dict[str, list[str]] = {}
for _name, _module, _path, _ in HOOKS:
    SPAN_HOOKS.setdefault(_name, []).append(f"{_module}.{_path}")


def _mean_ms(values: list[float]) -> float | None:
    return 1e3 * sum(values) / len(values) if values else None


def _steps_per_s(runs: list[Span]) -> float | None:
    busy = sum(s.self_s for s in runs)
    return sum(s.info["steps"] for s in runs) / busy if runs and busy > 0 else None


def overhead_ratio(traced_host: list[float], untraced_host: list[float]) -> float | None:
    """Median over traced iterations of traced / untraced host time, minus 1.

    Iterations run untraced, traced, untraced, ..., so traced iteration i
    sits between untraced iterations i and i + 1; each is compared with the
    mean of those neighbours, which cancels slow changes of the host's speed.
    """
    ratios = [t / statistics.mean(untraced_host[i:i + 2])
              for i, t in enumerate(traced_host) if untraced_host[i:i + 2]]
    return statistics.median(ratios) - 1.0 if ratios else None


def compute(spans: list[Span], absent: list[str], traced_s: list[float],
            traced_host: list[float], untraced_host: list[float]
            ) -> dict[str, tuple[float | None, str]]:
    """{metric name: (value or None, status)} with status "", "n/a" or "absent".

    ``traced_s`` are the traced iterations in reference seconds (the spans
    are rescaled to match); the ``*_host`` lists are host seconds in run order.
    """
    iterations = len(traced_s)
    by: dict[str, list[Span]] = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)

    def durations(name):
        return [s.duration for s in by.get(name, [])]

    def selfs(name):
        return [s.self_s for s in by.get(name, [])]

    def per_iteration(name):
        return len(by.get(name, [])) / iterations if iterations else None

    runs = by.get("harness.run_mission", [])
    plans = by.get("benchmark.plan", [])
    plan_ok = [s for s in plans if s.info is not None]
    exports = [s for s in by.get("harness.export_traces", []) if s.info is not None]
    values: dict[str, float | None] = {
        "cli.self_ms": _mean_ms(selfs("cli.main")),
        "config.load_ms": _mean_ms(durations("config.load")),
        "harness.compare_self_ms": _mean_ms(selfs("harness.compare")),
        "solar.profile_ms": _mean_ms(durations("solar.profile")),
        "barrier.envelope_ms": _mean_ms(durations("barrier.envelope")),
        "solar.sample_calls": per_iteration("solar.sample"),
        "solar.sample_ms": _mean_ms(durations("solar.sample")),
        "barrier.bounds_calls": per_iteration("barrier.bounds"),
        "barrier.bounds_ms": _mean_ms(durations("barrier.bounds")),
        "harness.export_traces_ms": _mean_ms(durations("harness.export_traces")),
        "harness.export_bytes": (sum(s.info["bytes"] for s in exports) / len(exports)
                                 if exports else None),
        "harness.export_mb_per_s": (
            sum(s.info["bytes"] for s in exports) / 1e6 / sum(s.duration for s in exports)
            if exports else None),
        "harness.export_comparison_ms": _mean_ms(durations("harness.export_comparison")),
        "benchmark.plan_calls": per_iteration("benchmark.plan"),
        "benchmark.plan_share": (sum(selfs("benchmark.plan")) / sum(traced_s)
                                 if plans and traced_s else None),
        "benchmark.plan_useful_ratio": (sum(s.info["useful"] for s in plan_ok) / len(plan_ok)
                                        if plan_ok else None),
        "trace.overhead_ratio": overhead_ratio(traced_host, untraced_host),
    }
    runs = [s for s in runs if s.info is not None]
    values["harness.loop_steps_per_s"] = _steps_per_s(runs)
    for strategy in STRATEGIES:
        values[f"harness.loop_steps_per_s.{strategy}"] = _steps_per_s(
            [s for s in runs if s.info["strategy"] == strategy])
    stages = sum(s.info["stages"] for s in plan_ok)
    values["benchmark.stage_us"] = (
        1e6 * sum(s.duration for s in plan_ok) / stages if stages else None)
    plan_ms = sorted(1e3 * s.duration for s in plans)
    values["benchmark.plan_ms_p50"] = statistics.median(plan_ms) if plan_ms else None
    values["benchmark.plan_ms_p95"] = (statistics.quantiles(plan_ms, n=20)[18]
                                       if len(plan_ms) >= P95_MIN_SAMPLES else None)

    gone = set(absent)
    out: dict[str, tuple[float | None, str]] = {}
    for metric in PER_LAYER:
        value = values[metric.name]
        if metric.span and all(h in gone for h in SPAN_HOOKS[metric.span]):
            out[metric.name] = (None, "absent")
        else:
            out[metric.name] = (value, "" if value is not None else "n/a")
    return out


def lattices(spans: list[Span]) -> list[str]:
    """The planner lattices (SOC cells x velocities) the traced plans used."""
    return sorted({s.info["lattice"] for s in spans
                   if s.name == "benchmark.plan" and s.info is not None})
