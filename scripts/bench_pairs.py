"""Run the benchmark on two revisions in alternating pairs and keep every result.

    python3 scripts/bench_pairs.py --label NAME [--base REV] [--head REV]
        [--workload W ...] [--seed S]

Both revisions (default HEAD~1 and HEAD) are exported with `git archive` into
one temporary directory, so each runs its own `perfbench/run.py`, with seed S
(default that script's default seed) and that script's run length, on its own
sources and nothing is registered in the repository.  For every workload the
two exports run PAIRS times in turn; the one that goes first alternates from
pair to pair, so a drift in machine speed does not favour either side.

Every result line of `perfbench/run.py` (its last stdout line) is appended,
unedited, to `BENCH_<NAME>.json` at the repository root, one JSON object per
line with the workload, seed and short revision, and with `setup_wall_s`, the
median wall-clock (unscaled) import time of the run's setup probes, read from
`perfbench/out/<workload>-seed<seed>-trace0.json` in that export.  At the end
the medians of the end-to-end metrics are printed for each workload and
revision, the base median followed by the base's first and third quartiles,
with the number of pairs in which the head revision was lower; `setup_s` is
followed by the two medians of `setup_wall_s` and by each export's gc phase.

The nominal `setup_s` scales the import by the machine speed sampled before
and after it, so a garbage collection that falls into the last sample moves
it while the wall time stays.  Where it falls is read from the setup probe
itself: before the pairs, the two exports take turns at PROBES runs of
`perfbench/probe.py setup`, and each export's median `setup_nominal_s /
setup_s` is printed beside its median wall import time.  The ratio's level
follows the CPU level (both exports read about 0.5 at the slow one), so it
says nothing alone: a lost phase shows as one export's ratio at about 1.8 to
1.9 times the other's.

The same turns also read the phase exactly, PROBES times per export: the
timed import of `probe.py setup`, run through the export's own
`probe.ScaledTimer`, reports the gen-0 and gen-1 counters of the collector at
the end of the import, and a gc callback reports the generation of every
collection that starts inside the timer's last speed sample.  Each export
prints its distinct readings with how often each came.  The phase is kept
where a gen-1 collection falls in the last sample, as after an import that
ends at (666, 11): with 11 young collections pending, the next collection is
a gen-1 one, and the sample's own allocations start it.  An alarm sample
that lands elsewhere in the import can move a reading, so a revision may
read both ways.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# ten pairs: a gain is claimed only when the head is lower in nine of them
PAIRS = 10
# fresh setup probes per export whose median nominal-to-wall ratio is printed
PROBES = 5
END_TO_END = ("op_s_p50", "cold_op_s", "setup_s", "peak_rss_mb")
# Run in an export by `python3 -c`: the timed import of `probe.py setup` through
# the export's `probe.ScaledTimer`, printing the gen-0 and gen-1 counters at its
# end and then the generation of each collection that starts in the last speed
# sample.  Before the import it makes only a few objects more than `probe.py`
# does (json is imported after), and the callback goes in once the import is
# over, so the reading is the probe's own collection state.
GC_READING = """
import gc, sys
sys.path.insert(0, "perfbench")
import probe

starts = []


def started(phase, info):
    if phase == "start":
        starts.append((info["generation"], probe.perf_counter()))


class Timer(probe.ScaledTimer):
    def __exit__(self, *exc):
        self.counts = gc.get_count()
        gc.callbacks.append(started)
        super().__exit__(*exc)


sys.path.insert(0, probe.SRC)
with Timer() as timer:
    from elliptic_qes.cli import main
start, took = timer._samples[-1]
print(*timer.counts[:2], *(g for g, t in starts if start <= t <= start + took))
"""


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(repo: Path, revision: str, target: Path) -> None:
    """Write the tree of `revision` into `target`."""
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", revision],
        check=True,
        capture_output=True,
    ).stdout
    target.mkdir()
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def _gc_reading(checkout: Path) -> str:
    """One `GC_READING` run: the import-end counters and the collections of
    the last speed sample, as text."""
    out = subprocess.run([sys.executable, "-c", GC_READING], cwd=checkout, check=True,
                         capture_output=True, text=True).stdout.split()
    gens = ", ".join(f"gen-{g}" for g in out[2:]) or "no"
    return f"({out[0]}, {out[1]}), {gens} collection in the last sample"


def _gc_phases(checkouts: dict[str, Path]) -> dict[str, str]:
    """Each export's median `setup_nominal_s / setup_s` and median wall
    `setup_s` over PROBES fresh `perfbench/probe.py setup` runs, and its
    distinct `GC_READING`s over PROBES more, the exports taking turns and the
    one that goes first alternating."""
    records: dict[str, list[dict]] = {rev: [] for rev in checkouts}
    readings: dict[str, list[str]] = {rev: [] for rev in checkouts}
    for probe in range(PROBES):
        for rev in records if probe % 2 == 0 else list(records)[::-1]:
            out = subprocess.run([sys.executable, "perfbench/probe.py", "setup"],
                                 cwd=checkouts[rev], check=True, capture_output=True,
                                 text=True).stdout
            records[rev].append(json.loads(out))
            readings[rev].append(_gc_reading(checkouts[rev]))
    phases = {}
    for rev, runs in records.items():
        ratio = statistics.median(r["setup_nominal_s"] / r["setup_s"] for r in runs)
        wall = statistics.median(r["setup_s"] for r in runs)
        counted = "; ".join(f"{reading} in {readings[rev].count(reading)}/{PROBES}"
                            for reading in dict.fromkeys(readings[rev]))
        phases[rev] = f"probe ratio {ratio:.3f} at wall {wall:.4g} s; gc at import end {counted}"
    return phases


def _run(checkout: Path, workload: str, seed: int) -> tuple[dict, float]:
    """One `perfbench/run.py` run: its last stdout line, parsed, and the
    median wall-clock `setup_s` of its setup probes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} at {checkout.name} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    probes = json.loads(out.read_text())["setup_probes"]
    return json.loads(lines[-1]), statistics.median(p["setup_s"] for p in probes)


def _summary(records: list[dict], base: str, head: str, phases: dict[str, str]) -> list[str]:
    out = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = {rev: [r for r in records if r["workload"] == workload and r["revision"] == rev]
                for rev in (base, head)}
        runs = {rev: [r["result"]["metrics"] for r in rows[rev]] for rev in rows}
        failed = sum(r["result"]["failed"] for rev in rows for r in rows[rev])
        out.append(f"{workload}: {len(runs[head])} pairs, {failed} failed operations")
        for name in END_TO_END:
            if not all(name in m for rev in runs for m in runs[rev]):
                continue
            base_values = [m[name]["value"] for m in runs[base]]
            head_values = [m[name]["value"] for m in runs[head]]
            lower = sum(h < b for b, h in zip(base_values, head_values))
            # a gain must move the median by more than the base's quartile spread
            spread = ""
            if len(base_values) > 1:
                q1, _, q3 = statistics.quantiles(base_values, n=4)
                spread = f" [{q1:.4g}, {q3:.4g}]"
            wall = ""
            if name == "setup_s":
                base_wall, head_wall = (statistics.median(r["setup_wall_s"] for r in rows[rev])
                                        for rev in (base, head))
                wall = (f"; wall {base_wall:.4g} -> {head_wall:.4g}; gc phase "
                        f"{phases[base]} -> {phases[head]}")
            out.append(f"  {name}: {statistics.median(base_values):.4g}{spread} -> "
                       f"{statistics.median(head_values):.4g} (head lower in "
                       f"{lower}/{len(head_values)} pairs){wall}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD~1", help="revision to compare against")
    parser.add_argument("--head", default="HEAD", help="revision under test")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the workload inputs")
    args = parser.parse_args(argv)

    repo = Path(_git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    revisions = [_git(repo, "rev-parse", "--short", rev) for rev in (args.base, args.head)]
    out_path = repo / f"BENCH_{args.label}.json"
    records = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {rev: Path(tmp) / rev for rev in revisions}
        for rev, checkout in checkouts.items():
            _export(repo, rev, checkout)
        phases = _gc_phases(checkouts)
        for rev, phase in phases.items():
            print(f"{rev}: {phase} (medians of {PROBES} alternating setup probes)", flush=True)
        for workload in args.workload or WORKLOADS:
            for pair in range(PAIRS):
                for rev in revisions if pair % 2 == 0 else revisions[::-1]:
                    result, setup_wall_s = _run(checkouts[rev], workload, args.seed)
                    record = {"workload": workload, "seed": args.seed, "revision": rev,
                              "result": result, "setup_wall_s": setup_wall_s}
                    records.append(record)
                    with out_path.open("a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record) + "\n")
                    print(f"{workload} pair {pair + 1} {rev}: "
                          f"{json.dumps(result.get('metrics', {}))}, "
                          f"setup wall {setup_wall_s:.4g} s", flush=True)
    print("\n".join(_summary(records, *revisions, phases)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
