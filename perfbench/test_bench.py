"""Self-tests of the benchmark, on tiny versions of its workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import solarasv.cli as cli  # noqa: E402
from solarasv.config import load_compare_configs, load_sim_config  # noqa: E402
from solarasv.harness import build_input_profile, build_mission_envelope  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEEDS, INITIAL_SOC_WH, WORKLOADS, generate  # noqa: E402


def _originals() -> dict[str, object]:
    out = {}
    for _, module, path, _ in spans.HOOKS:
        owner, attr = spans._resolve(module, path)
        out[f"{module}.{path}"] = spans._current(owner, attr)
    return out


def _run_once(calls) -> checks.Tally:
    tally = checks.Tally()
    _, codes = worker.run_iteration(cli, calls)
    worker.check_iteration(calls, codes, tally)
    return tally


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_every_check(workload, trace, tmp_path):
    before = _originals()
    warmup = generate(workload, 2, tmp_path / "warmup", tiny=True)
    result = worker.measure(cli, generate(workload, 1, tmp_path, tiny=True), 0.0, trace,
                            warmup=warmup)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] > 0 and result["iterations"] >= worker.MIN_UNTRACED
    assert set(result["digests"]) == {
        f"{c.output.name}/{f}" for c in generate(workload, 1, tmp_path, tiny=True)
        for f in c.files}
    assert _originals() == before
    if trace:
        values = result["layers"]
        assert set(values) == {m.name for m in layers.PER_LAYER}
        assert all(values[m.name][0] is not None for m in layers.PER_LAYER if m.everywhere)
        plans = values["benchmark.plan_calls"][0]
        assert (plans > 0) == workload.startswith("mpc-")
        assert values["trace.overhead_ratio"][0] is not None
        assert result["absent"] == []


def test_nudged_soc_counts_as_failure(tmp_path):
    calls = generate("year-run", 1, tmp_path, tiny=True)
    assert _run_once(calls).failed == 0
    trace = calls[0].output / "trace.csv"
    lines = trace.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) + 0.5)
    lines[5] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    tally = checks.Tally()
    worker.check_iteration(calls, [0, 0], tally)
    assert tally.failed == 1 and "energy audit" in tally.problems[0]


def test_deleted_output_counts_as_failure(tmp_path):
    calls = generate("year-run", 1, tmp_path, tiny=True)
    assert _run_once(calls).failed == 0
    (calls[1].output / "distance_series.csv").unlink()
    tally = checks.Tally()
    worker.check_iteration(calls, [0, 0], tally)
    assert tally.failed == 1 and "missing" in tally.problems[0]


def test_public_names_are_originals_while_untraced_run_is_timed(tmp_path):
    originals = _originals()
    seen: list[bool] = []

    class TimedCli:
        @staticmethod
        def main(argv):
            seen.append(_originals() == originals and not spans.installed_wrappers())
            return cli.main(argv)

    calls = generate("mpc-every-step", 1, tmp_path, tiny=True)
    worker.measure(TimedCli, calls, 0.0, trace=False)
    assert seen and all(seen)
    seen.clear()
    worker.measure(TimedCli, calls, 0.0, trace=True)
    # one call per iteration; untraced and traced iterations alternate
    assert seen == [i % 2 == 0 for i in range(len(seen))] and len(seen) >= 2
    assert _originals() == originals


def test_missing_hook_target_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (
        ("solar.profile", "solarasv.harness", "no_such_function", None),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _run_once(generate("year-run", 1, tmp_path, tiny=True)).failed == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["solarasv.harness.no_such_function"]
    gone = ["solarasv.harness.build_input_profile"]
    values = layers.compute(tracer.spans, gone, [1.0], [1.0], [1.0])
    assert values["solar.profile_ms"] == (None, "absent")
    assert values["cli.self_ms"][1] == ""


def test_json_never_carries_a_missing_layer_as_a_measured_value():
    values = {m.name: (2.5, "") for m in layers.PER_LAYER}
    values["benchmark.stage_us"] = (None, "n/a")  # table only: no effect on the line
    line = run.json_metrics(values)
    assert list(line) == [m.name for m in layers.PER_LAYER if m.everywhere]
    assert all(entry == {"value": 2.5, "unit": entry["unit"]} for entry in line.values())
    for status in ("absent", "n/a"):
        values["solar.profile_ms"] = (None, status)
        with pytest.raises(RuntimeError, match=f"solar.profile_ms \\({status}\\)"):
            run.json_metrics(values)


def test_overhead_ratio_compares_each_traced_iteration_with_its_neighbours():
    # the host slows down during the run; tracing costs 10 % throughout, and
    # the ratio of the two medians would read 0.375
    untraced = [1.0, 1.0, 2.0]
    traced = [1.1, 1.1 * 1.5]
    assert layers.overhead_ratio(traced, untraced) == pytest.approx(0.1)
    assert layers.overhead_ratio([1.1], [1.0]) == pytest.approx(0.1)
    assert layers.overhead_ratio([], [1.0]) is None


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    outer = tracer._wrap("outer", lambda: inner(), None)
    inner = tracer._wrap("inner", lambda: sum(range(100_000)), None)
    outer()
    parent, child = tracer.spans
    assert child.parent == 0 and parent.parent == -1
    assert parent.self_s == pytest.approx(parent.duration - child.duration)
    assert 0 <= parent.self_s < parent.duration


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = generate("year-run", 3, tmp_path / "a")
    b = generate("year-run", 3, tmp_path / "b")
    c = generate("year-run", 4, tmp_path / "c")
    read = lambda calls: [(calls[0].config.parent / "days.csv").read_bytes()] + [
        x.config.read_bytes() for x in calls]
    assert read(a) == read(b)
    assert read(a)[0] != read(c)[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_default_seeds_give_feasible_horizon_envelopes(workload, tmp_path):
    for seed in DEFAULT_SEEDS:
        for call in generate(workload, seed, tmp_path / str(seed)):
            load = load_sim_config if call.command == "run" else load_compare_configs
            cfgs = load(call.config)
            for cfg in cfgs if isinstance(cfgs, list) else [cfgs]:
                env = build_mission_envelope(cfg, build_input_profile(cfg))
                assert cfg.barrier_mode == "horizon"
                assert env.lower[0] <= INITIAL_SOC_WH <= env.upper[0], (workload, seed)


def test_benchmark_json_declares_what_run_prints():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in declared["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (m.name, m.unit) for m in layers.PER_LAYER if m.everywhere]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
