"""Run seeded command lines on a base revision and on this checkout and compare them.

    python3 scripts/diff_cli.py --base REV [--count N] [--seed S]

REV is exported with `git archive` into a temporary directory, as
`scripts/bench_pairs.py` does.  `generate` draws N argv (default 1000) from
seed S (default 0) over all six subcommands: mostly N <= 3, one in ten at N in
{4, 7, 11, 33}, one in twenty at N in {5, 6} with m <= 3, which reach the
term cells of N = 5 and 6 at cutoffs up to 6, and one in fifty at N in
{16, 32} with m <= 1, which reach the largest per-N tables that the CLI
builds (it refuses N = 33); both output formats; a- and
epsilon-sweeps of 0 to 5 points; conflicting flags, negative values spaced or
joined, values such as --a=1e400 or --m=x, and now and then a rational such as
1/9007199254740993, whose numerator or denominator exceeds 2**53.  `misuse`
then changes about one argv in twenty to take one of the parser's own paths:
-h or --help before or after the command, an unknown flag, a stray
positional, a flag cut to a prefix, an unknown command or an empty argv.
Each argv runs once in each tree, as `python -m elliptic_qes.cli` in a fresh process
with OPENBLAS_NUM_THREADS=1, since the printed digits of large sectors depend
on the BLAS thread count.  The two runs must give the same exit code, the same
stdout (compared by SHA-256) and the same stderr, with each tree's path
replaced by <tree>.  The script prints the count of argv per exit code and the
first mismatches, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

from bench_pairs import _export, _git

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from elliptic_qes.verify import CHECK_NAMES  # noqa: E402

SUBCOMMANDS = ("matrix", "spectrum", "sweep", "masks", "eigenfunctions", "verify")
MASKS = ("all", "none", "1", "2", "3", "12", "13", "23", "123")
# values that no flag accepts, or that no sector can print
INVALID = ("x", "", "1/0", "1e400", "-1e400", "1e5000")
# rationals whose numerator or denominator exceeds 2**53
HUGE = (f"1/{2**53 + 1}", f"{2**53 + 1}/2", f"-{2**60}/3")
# the seconds after which a run counts as hung
TIMEOUT = 120


def _rational(rng: random.Random, bound: int = 3) -> str:
    # now and then a numerator or denominator beyond 2**53, past which a
    # sector's K is summed in Python ints rather than int64
    if rng.random() < 0.03:
        return rng.choice(HUGE)
    value = Fraction(rng.randint(-2 * bound, 2 * bound), rng.choice((1, 2, 3, 4)))
    # a value whose denominator divides 4 is written in decimal now and then
    if value.denominator != 3 and rng.random() < 0.3:
        return str(float(value))
    return str(value)


def _value(rng: random.Random, flag: str, text: str) -> list[str]:
    """``flag`` and ``text``, now and then an invalid or huge value instead,
    joined by '=' or spaced (a spaced negative value tests the CLI's join)."""
    if rng.random() < 0.03:
        text = rng.choice(INVALID)
    return [f"{flag}={text}"] if rng.random() < 0.5 else [flag, text]


def _roots(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return "2,-1,-1"
    if roll < 0.35:
        return rng.choice(("1,1,1", "2,,-1", "2,-1", "0,0,0", "2,-1,-1,"))
    e1, e2 = Fraction(rng.randint(-12, 12), 6), Fraction(rng.randint(-12, 12), 6)
    return f"{e1},{e2},{-e1 - e2}"


def _misuse(rng: random.Random, argv: list[str]) -> list[str]:
    """``argv`` with -h or --help before or after the command, an unknown
    flag, a stray positional, a flag cut to a prefix (``--ma none``, or an
    ambiguous one such as ``--r``), an unknown command, or nothing at all."""
    kind = rng.randrange(6)
    if kind == 0:
        flag = rng.choice(("-h", "--help"))
        return [flag, *argv] if rng.random() < 0.5 else [*argv, flag]
    if kind == 1:
        return argv + [rng.choice(("--foo", "--mask-all", "-x", "--n2"))]
    if kind == 2:
        argv.insert(rng.randint(1, len(argv)), rng.choice(("extra", "1", "none", "--")))
        return argv
    if kind == 3:
        flags = [i for i, token in enumerate(argv) if token.startswith("--")]
        if flags:
            i = rng.choice(flags)
            name, eq, value = argv[i].partition("=")
            argv[i] = name[:rng.randint(3, len(name))] + eq + value
        return argv
    if kind == 4:
        return [rng.choice(("bogus", "spectra", "", "Spectrum", "help")), *argv[1:]]
    return []


def draw_argv(rng: random.Random) -> list[str]:
    """One command line: a subcommand and a random subset of its flags."""
    command = rng.choice(SUBCOMMANDS)
    argv = [command]
    if command == "verify":
        if rng.random() < 0.8:
            argv += ["--only", ",".join(rng.sample(CHECK_NAMES + ("nonsense",), rng.randint(1, 3)))]
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(("text", "json"))]
        return argv
    var = rng.choice(("a", "epsilon")) if command == "sweep" else None
    roll = rng.random()
    if roll < 0.1:
        n = rng.choice((4, 7, 11, 33))
    elif roll < 0.15:
        n = rng.choice((5, 6))
    elif roll < 0.17:
        n = rng.choice((16, 32))
    else:
        n = rng.randint(1, 3)
    argv += ["--n", str(n)]
    m = rng.randint(0, 4 if n <= 4 else 3 if n <= 6 else 2 if n <= 11 else 1)
    if rng.random() < 0.8:
        argv += _value(rng, "--m", str(Fraction(2 * m + rng.choice((0, 0, 1)), 2)))
    if rng.random() < 0.5:
        argv += _value(rng, "--b", rng.choice(("0", "1/2", "-1/2", "1/4", "3/2", "1", "-3/4")))
    if var != "a" and rng.random() < 0.6:
        argv += _value(rng, "--a", _rational(rng))
    if var is None and rng.random() < 0.6:
        argv += _value(rng, "--roots", _roots(rng))
    if command != "masks" and rng.random() < 0.8:
        every = command in ("spectrum", "sweep") and rng.random() < 0.3
        argv += ["--mask", "all" if every else rng.choice(MASKS)]
    if command in ("matrix", "spectrum", "sweep") and rng.random() < 0.5:
        argv += ["--format", rng.choice(("json", "csv"))]
    if command == "masks" and rng.random() < 0.5:
        argv += ["--format", rng.choice(("text", "json"))]
    if var is not None:
        steps = rng.randint(0, 5)
        text = f"{_rational(rng, 2)}:{_rational(rng, 2)}:{steps}"
        argv += ["--sweep-var", var] + _value(rng, "--range", text)
        if rng.random() < 0.1:  # a flag that conflicts with the swept variable
            argv += ["--a", "1"] if var == "a" else ["--roots", "2,-1,-1"]
        elif var == "a" and rng.random() < 0.6:
            argv += _value(rng, "--roots", _roots(rng))
    return argv


def generate(count: int, seed: int) -> list[list[str]]:
    """``count`` command lines drawn from ``seed``; the same seed always gives
    the same list."""
    rng = random.Random(f"diff_cli:{seed}")
    return [draw_argv(rng) for _ in range(count)]


def misuse(argvs: list[list[str]], seed: int) -> list[list[str]]:
    """``argvs`` with about one in twenty, drawn from ``seed``, changed to take
    one of the parser's own paths (`_misuse`); the others are left as they
    are, so `generate`'s lines for a seed keep their order and values."""
    rng = random.Random(f"diff_cli:misuse:{seed}")
    return [_misuse(rng, list(argv)) if rng.random() < 0.05 else argv for argv in argvs]


def _run(tree: Path, argv: list[str]) -> tuple[int | str, str, str]:
    """Exit code, stdout SHA-256 and stderr of one fresh run of ``argv`` in
    ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "elliptic_qes.cli", *argv], cwd=tree,
                              env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    stderr = proc.stderr.decode("utf-8", "replace").replace(str(tree), "<tree>")
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), stderr


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare this checkout with")
    parser.add_argument("--count", type=int, default=1000, help="number of command lines")
    parser.add_argument("--seed", type=int, default=0, help="seed of the command lines")
    args = parser.parse_args(argv)

    revision = _git(ROOT, "rev-parse", "--short", args.base)
    argvs = misuse(generate(args.count, args.seed), args.seed)
    with tempfile.TemporaryDirectory(prefix="diff-cli-") as tmp:
        base = Path(tmp) / revision
        _export(ROOT, revision, base)
        # two runs at a time, one per core of a small machine
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(lambda a: (_run(base, a), _run(ROOT, a)), argvs))
    codes = Counter(head[0] for _, head in runs)
    mismatches = [(a, base, head) for a, (base, head) in zip(argvs, runs) if base != head]
    print(f"{len(argvs)} argv from seed {args.seed}, {revision} against this checkout: "
          + ", ".join(f"exit {code} x {n}" for code, n in sorted(codes.items(), key=str)))
    print(f"{len(mismatches)} mismatches")
    for a, base, head in mismatches[:5]:
        print(f"  {' '.join(a)}\n    base {base}\n    head {head}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
