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
it while the wall time stays.  Two readings of where it falls are printed per
export before the pairs.  The first is `gc.get_count()` at the end of the
timed import, read in a fresh interpreter that enters `perfbench/probe.py`'s
`ScaledTimer` and imports `elliptic_qes.cli` as the setup probe does, after a
warm-up import.  That count can disagree with the probe itself, so the second
is the probe's own: the median `setup_nominal_s / setup_s` of PROBES runs of
`perfbench/probe.py setup`, about 1.0 when the collection falls into the last
speed sample and about 1.9 when it falls inside the import.
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
WARM_UP = "import sys; sys.path.insert(0, 'src'); import elliptic_qes.cli"
GC_COUNT = """\
import gc, sys
sys.path[:0] = ["perfbench"]
from probe import SRC, ScaledTimer
sys.path.insert(0, SRC)
with ScaledTimer():
    import elliptic_qes.cli
    count = gc.get_count()
print(count)
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


def _gc_count(checkout: Path) -> str:
    """`gc.get_count()` at the end of the setup probe's timed import, read in a
    fresh interpreter of `checkout` after a warm-up import."""
    for code in (WARM_UP, GC_COUNT):
        out = subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True,
                             capture_output=True, text=True).stdout
    return out.strip()


def _probe_ratio(checkout: Path) -> float:
    """Median `setup_nominal_s / setup_s` of PROBES fresh `perfbench/probe.py
    setup` runs in `checkout`."""
    ratios = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, "perfbench/probe.py", "setup"], cwd=checkout,
                             check=True, capture_output=True, text=True).stdout
        record = json.loads(out)
        ratios.append(record["setup_nominal_s"] / record["setup_s"])
    return statistics.median(ratios)


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
        checkouts, phases = {}, {}
        for rev in revisions:
            checkouts[rev] = Path(tmp) / rev
            _export(repo, rev, checkouts[rev])
            phases[rev] = (f"{_gc_count(checkouts[rev])}, probe ratio "
                           f"{_probe_ratio(checkouts[rev]):.3f}")
            print(f"{rev}: gc count {phases[rev]} (median setup_nominal_s / setup_s of "
                  f"{PROBES} setup probes)", flush=True)
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
