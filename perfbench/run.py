"""Benchmark of the elliptic-qes command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   every workload, one after another

Each workload is a closed loop: one client in one thread calls
`elliptic_qes.cli.main(argv)` in process, stdout captured, and starts the
next operation when the last one has returned.  BLAS is pinned to one thread.
Inputs come from `workloads.generate(workload, seed)`; every operation is
checked by `gate.check`, and one that fails counts in `failed`.

--trace 0 reports the end-to-end metrics: fresh-interpreter probes, one at a
time, give `setup_s` (several imports) and `cold_op_s` and `peak_rss_mb` (one
first operation per input); then warm operations run for --seconds in whole
passes over the inputs and give `op_s_p50`.  Times are in nominal seconds
(see probe.py): wall time scaled by the machine speed sampled meanwhile.

--trace 1 reports the per-layer metrics: untraced and traced operations
alternate for --seconds, the traced ones through the spans of `tracing.py`,
and each verify check is then timed on its own.

The lines before the last one print every metric with its unit and sample
count.  The last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Inputs, the argv of every operation,
matrix digests, failures and spans are written under perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "elliptic_qes" / "cli.py").is_file():
        print(f"error: no elliptic_qes sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import bench

    runner = bench.run_traced if args.trace else bench.run_timed
    print(json.dumps(runner(args.workload, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
