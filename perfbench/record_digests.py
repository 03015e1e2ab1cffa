"""Record the baseline output digests that run.py compares against.

    python3 perfbench/record_digests.py

Runs each workload once per seed in SEEDS and writes digests.json: workload ->
seed -> 'cfg stem/file' -> SHA-256 of the CSV without its wall_time_s column.
Re-record only in a change that explains why the simulated numbers moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import solarasv.cli as cli  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = range(0, 21)


def main() -> int:
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=BENCH / ".work") as work:
                calls = generate(workload, seed, Path(work))
                _, codes = worker.run_iteration(cli, calls)
                tally = checks.Tally()
                found, _ = worker.check_iteration(calls, codes, tally)
                if tally.failed:
                    print(f"{workload} seed {seed}: {tally.problems}", file=sys.stderr)
                    return 1
                recorded.setdefault(workload, {})[str(seed)] = found
            print(f"{workload} seed {seed}: recorded")
    (BENCH / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
