"""One workload in one process: the closed loop that drives the CLI.

Started by run.py with the thread counts pinned to 1 and ``src`` on the
path. Each iteration makes the workload's CLI calls through
``solarasv.cli.main`` in-process, one after the other, then the outputs are
checked outside the timed region. Prints one JSON line with the raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import layers
import spans
from workloads import Call, generate

MIN_UNTRACED = 3  # iterations, however short --seconds is
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import solarasv.cli; "
    "print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Host seconds to import solarasv.cli in a fresh interpreter.

    Not scaled by calibrate.py: import time swings less with the host's
    speed than the calibration loop does, and scaling made it less steady.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_iteration(cli, calls: list[Call]) -> tuple[float, list[int | None]]:
    """Make the calls in order; returns (seconds spent in them, exit codes)."""
    codes: list[int | None] = []
    elapsed = 0.0
    for call in calls:
        shutil.rmtree(call.output, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(call.argv)
            except Exception:  # a crash is a failed check, not a crashed bench
                code = None
            elapsed += time.perf_counter() - t0
        codes.append(code)
    return elapsed, codes


def check_iteration(calls: list[Call], codes: list[int | None], tally: checks.Tally,
                    reference: dict[str, str] | None = None
                    ) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Check one iteration's exit codes and files, then their numbers.

    With a ``reference`` (the digests of an iteration whose numbers passed),
    equal digests stand for the same numbers and skip the full read-back.
    Returns this iteration's digests and the facts the content checks found.
    """
    written = [checks.check_files(call, code, tally) for call, code in zip(calls, codes)]
    found = checks.digests(calls)
    if reference is not None and tally.check(
            found == reference, "outputs differ from the first iteration's"):
        return found, []
    facts = [checks.check_content(call, tally) for call, ok in zip(calls, written) if ok]
    checks.check_cross(facts, tally)
    return found, facts


def measure(cli, calls: list[Call], seconds: float, trace: bool,
            setup_samples: int = 0, warmup: list[Call] | None = None) -> dict:
    """Iterate until ``seconds`` of CLI time are spent.

    ``warmup`` (the same calls on tiny inputs) runs once, untimed, so lazy
    set-up is done before the first timed iteration. Each timed iteration is
    bracketed by calibration loops and its time also converted to reference
    seconds (calibrate.py). The first one gets the full output read-back,
    later ones must reproduce its files. With ``trace`` the iterations
    alternate untraced and traced, so both see the same machine state; the
    untraced ones give the overhead baseline. ``setup_samples`` import probes
    are spread over the run, between iterations, so their median sees the
    same stretch of host speed as the iterations do.
    """
    if warmup:
        run_iteration(cli, warmup)
    tally = checks.Tally()
    digests: dict[str, str] | None = None
    facts: list[dict[str, float]] = []
    setup: list[float] = []
    if setup_samples:
        import_seconds()  # the first import may compile bytecode; dropped

    tracer = spans.Tracer()
    host: list[float] = []
    factors: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    untraced_host: list[float] = []
    traced_host: list[float] = []
    while sum(host) < seconds or len(untraced) < MIN_UNTRACED or (trace and not traced):
        traced_now = trace and len(traced) < len(untraced)
        first_span = len(tracer.spans)
        if traced_now:
            tracer.install()
        elif spans.installed_wrappers():
            raise RuntimeError("span wrappers installed during an untraced iteration")
        before = calibrate.samples()
        try:
            elapsed, codes = run_iteration(cli, calls)
        finally:
            tracer.uninstall()
        factor = calibrate.factor(before + calibrate.samples())
        host.append(elapsed)
        factors.append(factor)
        if traced_now:
            tracer.rescale(first_span, factor)
            traced.append(elapsed * factor)
            traced_host.append(elapsed)
        else:
            untraced.append(elapsed * factor)
            untraced_host.append(elapsed)
        if digests is None:
            digests, facts = check_iteration(calls, codes, tally)
        else:
            check_iteration(calls, codes, tally, reference=digests)
        while len(setup) < setup_samples * min(1.0, sum(host) / max(seconds, 1e-9)):
            setup.append(import_seconds())
    while len(setup) < setup_samples:
        setup.append(import_seconds())

    result = {
        "iterations": len(untraced),
        "setup_s": setup,
        "wall_s": untraced,
        "host_s": host,
        "factors": factors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "facts": {k: v for fact in facts for k, v in fact.items()},
        "digests": digests,
    }
    if trace:
        result["layers"] = layers.compute(tracer.spans, tracer.absent, traced,
                                          traced_host, untraced_host)
        result["absent"] = tracer.absent
        result["lattices"] = layers.lattices(tracer.spans)
        result["traced_iterations"] = len(traced)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--setup-samples", type=int, required=True)
    args = parser.parse_args(argv)

    import solarasv.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"solarasv imported from {cli.__file__}, not {args.src}", file=sys.stderr)
        return 1
    calls = generate(args.workload, args.seed, args.work / "measured")
    warmup = generate(args.workload, args.seed, args.work / "warmup", tiny=True)
    result = measure(cli, calls, args.seconds, bool(args.trace), args.setup_samples, warmup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
