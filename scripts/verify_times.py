"""Warm wall times of the verify checks, one sector store per run.

    python3 scripts/verify_times.py [--runs R] [--src DIR]

Imports `elliptic_qes` from DIR (default this checkout's `src/`), makes one
untimed warm-up run, then R timed runs (default 21).  A run does what
`verify.run_checks()` does: one sector store and every check in run order.
The closure check is timed in two parts: the grid build, `closure_grid()`
of the run's store, which `closure` and `raising` share, and the z-space
cross-check, the rest of `closure` with that grid already built.  The
medians over the runs are printed in ms, one line per check in run order,
the two closure parts indented below it, then the median of the run totals.
Last comes the number of Fractions that one more warm `run_checks()` forms,
counted as `tests/test_verify.py` counts them, by every call of
`Fraction.__new__`.  A check that fails makes the script exit 1.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(verify) -> dict[str, float]:
    """One timed run: seconds per check, with 'grid' and 'cross-check' the two
    parts of closure."""
    store, times = verify._SectorStore(), {}
    for name in verify.CHECK_NAMES:
        start = perf_counter()
        if name == "closure":
            store.closure_grid()
            times["grid"] = perf_counter() - start
            start = perf_counter()
        result = verify._run_guarded(name, store)
        times["cross-check" if name == "closure" else name] = perf_counter() - start
        if not result.passed:
            raise SystemExit(f"{name} failed: {result.detail}")
    times["closure"] = times["grid"] + times["cross-check"]
    return times


def _fractions(verify) -> int:
    """The Fractions one `verify.run_checks()` forms."""
    made, new = 0, Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        verify.run_checks()
    finally:
        Fraction.__new__ = new
    return made


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=21, help="timed runs after one warm-up")
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding elliptic_qes")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from elliptic_qes import verify

    _run(verify)
    runs = [_run(verify) for _ in range(args.runs)]
    rows = [(name, name) for name in verify.CHECK_NAMES]
    at = rows.index(("closure", "closure")) + 1
    rows[at:at] = [("  grid", "grid"), ("  cross-check", "cross-check")]
    width = max(len(label) for label, _ in rows)
    print(f"warm median of {args.runs} runs, ms")
    for label, key in rows:
        print(f"{label:<{width}}  {1e3 * statistics.median(run[key] for run in runs):7.2f}")
    total = statistics.median(sum(run[name] for name in verify.CHECK_NAMES) for run in runs)
    print(f"{'total':<{width}}  {1e3 * total:7.2f}")
    print(f"Fractions per warm run: {_fractions(verify)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
