"""Fresh-interpreter probe, the speed-scaled timer, and the one way the
benchmark calls the CLI.

    python3 perfbench/probe.py setup          time `import elliptic_qes.cli`
    python3 perfbench/probe.py cold ARGV...   also time the first operation

Prints one JSON object: `setup_s` and `setup_nominal_s`, and for `cold` also
`op_s`, `op_nominal_s`, `exit`, `stdout` and `rss_mb` (peak resident set from
`resource.getrusage`).

Speed scaling.  On the shared 2-core VM the benchmark was defined on, the CPU
throughput one process gets switches between two levels about 1.8x apart,
staying at each for one to tens of seconds; the same 6-second operation took
6.1 to 8.7 s back to back.  `ScaledTimer` therefore samples the machine's
speed while it times: every SAMPLE_PERIOD_S a timer signal runs a fixed
~0.4 ms pure-Python task of the kind the library does (Fraction products
summed into a dict keyed by exponent tuples, stdlib only), and each stretch
between samples is scaled by NOMINAL_SAMPLE_S over the mean of the samples
at its ends.  The result, `nominal_s`, is the time on a machine where the
task takes NOMINAL_SAMPLE_S, a value chosen so that nominal seconds come
out close to wall seconds at that VM's fast level.  Over repeated
warm operations it cut the coefficient of variation from 12.8% to 2.2%
(spectrum-n4) and from 12.7% to 3.2% (verify); an integer-only task tracked
verify only half as well.  A change to the library moves the timed work and
not the samples.  The samples' own time is excluded from both `seconds` and
`nominal_s`.
"""

from __future__ import annotations

# Of the modules the timed `import elliptic_qes.cli` needs, only `fractions`
# is loaded before it (the speed sample needs it; ~3 ms of that import).
import os
import signal
import sys
from fractions import Fraction
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NOMINAL_SAMPLE_S = 0.00055
SAMPLE_PERIOD_S = 0.1
_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(4)}


def _speed_sample() -> tuple[float, float]:
    """(start, seconds) of one run of the fixed speed-sampling task."""
    start = perf_counter()
    out: dict = {}
    for (i, j), x in _TERMS.items():
        for (k, m), y in _TERMS.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return start, perf_counter() - start


class ScaledTimer:
    """Context manager that times its block in `seconds` and `nominal_s`."""

    def __enter__(self) -> ScaledTimer:
        self._samples = [_speed_sample()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(_speed_sample())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._samples.append(_speed_sample())
        self.seconds = self.nominal_s = 0.0
        for (start0, took0), (start1, took1) in zip(self._samples, self._samples[1:]):
            stretch = start1 - (start0 + took0)
            self.seconds += stretch
            self.nominal_s += stretch * NOMINAL_SAMPLE_S / ((took0 + took1) / 2)


def call_cli(main, argv) -> tuple[object, str, ScaledTimer]:
    """One in-process CLI call with stdout captured: (exit code, stdout, timer).

    A raised exception's traceback is returned as the exit code, so it fails
    the gate and is recorded with the failure.
    """
    import contextlib
    import io

    buf = io.StringIO()
    with ScaledTimer() as timer:
        try:
            with contextlib.redirect_stdout(buf):
                code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashed operation is a failed operation
            import traceback

            code = traceback.format_exc()
    return code, buf.getvalue(), timer


def _probe(mode: str, argv: list[str]) -> dict:
    sys.path.insert(0, SRC)
    with ScaledTimer() as timer:
        from elliptic_qes.cli import main

    record: dict = {"setup_s": timer.seconds, "setup_nominal_s": timer.nominal_s}
    if mode == "cold":
        import resource

        code, out, timer = call_cli(main, argv)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record.update(op_s=timer.seconds, op_nominal_s=timer.nominal_s, exit=code,
                      stdout=out, rss_mb=rss_kib / 1024)
    return record


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in ("setup", "cold"):
        sys.exit("usage: probe.py setup | cold ARGV...")
    record = _probe(sys.argv[1], sys.argv[2:])
    import json

    print(json.dumps(record))
