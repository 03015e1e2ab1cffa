"""Benchmark of the solarasv CLI on seeded inputs.

    python3 perfbench/run.py --workload year-run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. For each workload (see workloads.py) it

* starts one worker process that drives ``solarasv.cli.main`` in a closed
  loop, one call after another, for ``--seconds`` of CLI time (``wall_s``,
  the median per workload iteration in reference seconds, see calibrate.py;
  ``peak_rss_mb`` of that process);
* between iterations, times ``import solarasv.cli`` in fresh interpreters
  (``setup_s``, the median host seconds);
* checks every exported file and counts failed checks (``failed_ratio``);
* with ``--trace 1``, alternates traced and untraced iterations and reports
  the per-layer metrics instead (layers.py).

It prints a table and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. All processes run one
thread, with the OpenMP, OpenBLAS and MKL thread counts pinned to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               env: dict[str, str]) -> dict:
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        out = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--work", str(work), "--src", str(SRC),
             "--setup-samples", str(0 if trace else SETUP_SAMPLES)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"worker for {workload} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def compare_digests(workload: str, seed: int, found: dict[str, str]) -> str:
    """One line on how the output digests compare with the recorded baseline.

    A mismatch is reported, not counted as a failure: a change that alters
    simulated numbers must say why.
    """
    try:
        baseline = json.loads(DIGESTS.read_text())[workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return f"digests: no baseline recorded for {workload} seed {seed}"
    bad = sorted(k for k in baseline.keys() | found.keys() if baseline.get(k) != found.get(k))
    if not bad:
        return f"digests: all {len(found)} output files match the baseline"
    return "digests: MISMATCH with baseline in " + ", ".join(bad)


def json_metrics(values: dict[str, tuple[float | None, str]]) -> dict[str, dict]:
    """The per-layer metrics the JSON line carries: those BENCHMARK.json declares.

    They are measured on every workload, so one without a value has lost its
    hook target ("absent") or its layer did not run ("n/a"). Neither may read
    as a measured number, so the run fails instead of printing the line.
    """
    declared = [m for m in layers.PER_LAYER if m.everywhere]
    missing = [f"{m.name} ({values[m.name][1]})" for m in declared
               if values[m.name][0] is None]
    if missing:
        raise RuntimeError("per-layer metrics not measured: " + ", ".join(missing))
    return {m.name: {"value": values[m.name][0], "unit": m.unit} for m in declared}


def _fmt(value: float | None, status: str) -> str:
    return status if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "solarasv" / "cli.py").is_file():
        print(f"error: no solarasv sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict[str, float | str]] = {}
    rows: list[str] = []
    try:
        for name in names:
            res = run_worker(name, args.seed, args.seconds, args.trace, env)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            print(f"== {name} (seed {args.seed}): {WORKLOADS[name].why}")
            for problem in res["problems"]:
                print(f"   FAILED CHECK: {problem}")
            print("   " + compare_digests(name, args.seed, res["digests"]))
            floors = {k[9:]: v for k, v in res["facts"].items() if k.startswith("floor_wh.")}
            audits = {k[9:]: v for k, v in res["facts"].items() if k.startswith("audit_wh.")}
            print(f"   floor energy added (Wh): {floors}  audit residual (Wh): {audits}")
            if args.trace:
                print(f"   traced/untraced iterations: {res['traced_iterations']}"
                      f"/{res['iterations']}  lattices: {res['lattices'] or 'none'}"
                      f"  absent hooks: {res['absent'] or 'none'}")
                for metric in layers.PER_LAYER:
                    value, status = res["layers"][metric.name]
                    print(f"   {metric.name:<48} {_fmt(value, status):>12} {metric.unit:<6}"
                          f" -> {metric.moves}{'' if metric.everywhere else ' (table only)'}")
                for key, entry in json_metrics(res["layers"]).items():
                    metrics[prefix + key] = entry
                continue
            values = {
                "setup_s": statistics.median(res["setup_s"]),
                "wall_s": statistics.median(res["wall_s"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            ratio = res["failed"] / res["attempted"]
            print(f"   wall_s is in reference seconds (calibrate.py): host wall "
                  f"{statistics.median(res['host_s']):.4f} s, reference seconds per host "
                  f"second {min(res['factors']):.3f}..{max(res['factors']):.3f}")
            rows.append(f"{name:<16}{values['setup_s']:>10.4f} s{values['wall_s']:>10.4f} s"
                        f"{values['peak_rss_mb']:>11.1f} MB{ratio:>14.4g}"
                        f"{res['iterations']:>12}   ({res['failed']}/{res['attempted']}"
                        f" checks failed)")
            for key, unit in END_TO_END:
                metrics[prefix + key] = {"value": values[key], "unit": unit}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if rows:
        print(f"{'workload':<16}{'setup_s':>12}{'wall_s':>12}{'peak_rss_mb':>14}"
              f"{'failed_ratio':>14}{'iterations':>12}")
        print("\n".join(rows))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
