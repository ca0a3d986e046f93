"""The two kinds of benchmark run behind run.py: timed and traced.

Expects `src` on sys.path (run.py puts it there after checking it exists).
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from elliptic_qes import run_checks
from elliptic_qes.cli import main

import gate
from metrics import CHECK_NAMES, END_TO_END, LAYERS, PER_LAYER
from probe import call_cli
from tracing import Tracer
from workloads import DEFAULT_SEED, generate

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "expected_digests.json"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 150


def _fresh(args: list[str]) -> dict:
    """Run probe.py in a fresh interpreter and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Run:
    """One benchmark run: its inputs, their references, and every outcome."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.inputs = generate(workload, seed)
        stored = None
        if seed == DEFAULT_SEED:
            stored = json.loads(DIGESTS.read_text())["workloads"][workload]
        self.refs = [
            gate.reference(inp, None if stored is None else stored[i])
            for i, inp in enumerate(self.inputs)
        ]
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, i: int, code: object, stdout: str, label: str) -> None:
        self.attempted += 1
        problems = gate.check(self.inputs[i], self.refs[i], code, stdout)
        if problems:
            self.failures.append({"op": label, "argv": list(self.inputs[i].argv),
                                  "problems": problems[:5]})

    def call(self, main, i: int, label: str):
        """Run input i once, gate it, and return its ScaledTimer.  The heap is
        collected first, so garbage of earlier operations is not timed."""
        gc.collect()
        code, out, timer = call_cli(main, self.inputs[i].argv)
        self.record(i, code, out, label)
        return timer

    def warm_up(self, main) -> None:
        """Fill the library's caches before timing.  Building the references
        already ran every matrix an operation builds; an input without
        reference matrices (verify) runs one untimed operation instead."""
        for i, ref in enumerate(self.refs):
            if not ref.sectors:
                self.call(main, i, "warm-up")

    def result(self, metrics: dict, extra: dict) -> dict:
        """Print the fail ratio, write the results file, return the result line."""
        print(f"fail_ratio {len(self.failures) / self.attempted!r} "
              f"({len(self.failures)} of {self.attempted} operations)")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{self.workload}-seed{self.seed}-trace{extra['trace']}.json"
        path.write_text(json.dumps({
            **extra,
            "workload": self.workload,
            "seed": self.seed,
            "inputs": [inp.to_json() for inp in self.inputs],
            "digests": [[s.digest for s in ref.sectors] for ref in self.refs],
            "digests_checked": self.seed == DEFAULT_SEED,
            "attempted": self.attempted,
            "failures": self.failures,
            "metrics": metrics,
        }, indent=1))
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        }


def _print_metric(name: str, value: float, unit: str, samples: int) -> None:
    print(f"{name} {value!r} {unit} (n={samples})")


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    setup = [_fresh(["setup"]) for _ in range(SETUP_PROBES)]
    run = Run(workload, seed)
    cold = [_fresh(["cold", *inp.argv]) for inp in run.inputs]
    for i, record in enumerate(cold):
        run.record(i, record.pop("exit"), record.pop("stdout"), f"cold-{i}")
    run.warm_up(main)

    timers = []
    deadline = perf_counter() + seconds
    while not timers or perf_counter() < deadline:
        for i in range(len(run.inputs)):
            timers.append(run.call(main, i, f"timed-{len(timers)}"))
    samples = [t.nominal_s for t in timers]

    measured = {
        "op_s_p50": (statistics.median(samples), len(samples)),
        "cold_op_s": (statistics.median(p["op_nominal_s"] for p in cold), len(cold)),
        "setup_s": (statistics.median(p["setup_nominal_s"] for p in setup), len(setup)),
        "peak_rss_mb": (max(p["rss_mb"] for p in cold), len(cold)),
    }
    metrics = {}
    for name, (value, n) in measured.items():
        unit = END_TO_END[name][0]
        metrics[name] = (value, unit)
        _print_metric(name, value, unit, n)
    tail = _tail(samples)
    print("op_s_tail " + (f"p{tail[0]:.0f} {tail[1]!r} s" if tail else "n/a: needs 11 samples,")
          + f" (n={len(samples)})")
    print(f"unscaled: op_s_p50 {statistics.median(t.seconds for t in timers)!r} s, "
          f"cold_op_s {statistics.median(p['op_s'] for p in cold)!r} s, "
          f"setup_s {statistics.median(p['setup_s'] for p in setup)!r} s")
    return run.result(metrics, {
        "trace": 0, "samples": samples, "unscaled_samples": [t.seconds for t in timers],
        "setup_probes": setup, "cold": cold,
    })


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    run = Run(workload, seed)
    run.warm_up(main)
    tracer = Tracer(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    traced_main = tracer.wrap("cli.main", main)
    untraced: list[float] = []
    traced: list[float] = []
    aggregates: list[dict] = []
    try:
        deadline = perf_counter() + seconds
        while not traced or perf_counter() < deadline:
            for i in range(len(run.inputs)):
                untraced.append(run.call(main, i, f"untraced-{len(untraced)}").seconds)
                tracer.install()
                tracer.begin_op(len(traced))
                traced.append(run.call(traced_main, i, f"traced-{len(traced)}").seconds)
                aggregates.append(tracer.end_op())
                tracer.remove()
    finally:
        tracer.close()

    check_s = {}
    for name in CHECK_NAMES:
        start = perf_counter()
        results = run_checks(only=[name])
        check_s[name] = perf_counter() - start
        run.attempted += 1
        if not all(r.passed for r in results):
            run.failures.append({"op": f"verify-check-{name}",
                                 "problems": [r.detail for r in results]})

    def per_op(name: str) -> float:
        """Mean over the traced operations; the maximum for a '*max*' count.
        Whole passes over the inputs keep the counts exact."""
        values = [a.get(name, 0) for a in aggregates]
        return max(values) if "max" in name else sum(values) / len(values)

    derived = {name: per_op(name) for name in PER_LAYER}
    derived.update({f"verify.{name}.s": s for name, s in check_s.items()})
    derived.update({
        "trace.op_s_p50": statistics.median(traced),
        "trace.untraced_op_s_p50": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.self_sum_s": statistics.median(
            sum(a.get(f"{layer}.self_s", 0) for layer in LAYERS) for a in aggregates),
    })
    metrics = {}
    for name, (unit, _why) in PER_LAYER.items():
        metrics[name] = (derived[name], unit)
        _print_metric(name, derived[name], unit, 1 if name.startswith("verify.") else len(traced))
    return run.result(metrics, {"trace": 1, "traced": traced, "untraced": untraced})


