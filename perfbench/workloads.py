"""Seeded inputs for the benchmark workloads.

`generate(name, seed)` returns the inputs one run cycles through, each with
its parameters and the CLI argv of one operation.  The same seed always gives
the same argv.  Every parameter
point drawn is kept: the draws are built so that they are valid (distinct
roots summing to zero, a non-zero coupling), never filtered afterwards.

The rationals use small denominators (roots over 6, couplings over 2, sweep
steps of 1/4) so that the size of the exact arithmetic, and with it the cost
of one operation, changes little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Why each workload exists; BENCHMARK.json carries the same reasons.
WORKLOADS: dict[str, str] = {
    "verify": "the trust gate users run: ~480 tiny sectors, fixed per-sector "
    "cost of operator application; inputs fixed by the suite's own seeds",
    "spectrum-n4": "steep-in-N exact assembly at N=4, cutoff 4 (dims 70, 35, 35, "
    "35); the eigensolver is ~3% of the time",
    "sweep-coupling": "nine nearby coupling values at N=2, m=8 (dims 45, 36, 36, "
    "36): repeated assembly plus ~37% eigensolver",
    "eigenfunctions": "inverse-iteration eigenvectors of one dim-66 sector; the "
    "only workload that exercises spectral.eigenvector",
}

SWEEP_STEPS = 9

# The seed whose matrix digests are stored in expected_digests.json.
DEFAULT_SEED = 0

# Distinct inputs one run cycles through.  An eigenfunctions operation costs
# ~0.4 s and its cost depends on the spectrum's conditioning, so a run spreads
# over several parameter points; the other operations take seconds each.
INPUTS_PER_RUN = {"verify": 1, "spectrum-n4": 1, "sweep-coupling": 1, "eigenfunctions": 8}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated parameters and the argv of its operation."""

    workload: str
    seed: int
    nvars: int
    degree_m: Fraction
    mask: str
    roots: tuple[Fraction, Fraction, Fraction] | None
    coupling_a: Fraction | None
    sweep: tuple[Fraction, Fraction, int] | None
    argv: tuple[str, ...]

    def to_json(self) -> dict:
        def text(x):
            return None if x is None else str(x)

        return {
            "workload": self.workload,
            "seed": self.seed,
            "nvars": self.nvars,
            "m": text(self.degree_m),
            "mask": self.mask,
            "roots": None if self.roots is None else [str(e) for e in self.roots],
            "a": text(self.coupling_a),
            "sweep": None if self.sweep is None else [str(x) for x in self.sweep],
            "argv": list(self.argv),
        }


def _roots(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Distinct non-zero roots e1 > e2 > e3 with e1 + e2 + e3 = 0.

    The gaps g1 = e1 - e2 and g2 = e2 - e3 come from disjoint positive sets,
    so g1 != g2 and e2 = (g2 - g1)/3 is never zero.
    """
    g1 = Fraction(rng.choice((1, 2, 3)), 2)
    g2 = Fraction(rng.choice((4, 5, 6)), 2)
    e2 = (g2 - g1) / 3
    return (e2 + g1, e2, e2 - g2)


def _coupling(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 5), 2)


def _roots_flag(roots: tuple[Fraction, Fraction, Fraction]) -> str:
    return "--roots=" + ",".join(str(e) for e in roots)


def generate(workload: str, seed: int) -> list[Inputs]:
    """The inputs one run of `workload` cycles through, drawn from `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return [_draw(workload, seed, rng) for _ in range(INPUTS_PER_RUN[workload])]


def _draw(workload: str, seed: int, rng: random.Random) -> Inputs:
    if workload == "verify":
        # The suite draws its own parameters from fixed seeds; the benchmark
        # seed changes nothing here.
        return Inputs(workload, seed, 0, Fraction(0), "", None, None, None, ("verify",))
    roots = _roots(rng)
    if workload == "spectrum-n4":
        a = _coupling(rng)
        argv = ("spectrum", "--n", "4", "--m", "4", "--b", "0", "--mask", "all",
                f"--a={a}", _roots_flag(roots))
        return Inputs(workload, seed, 4, Fraction(4), "all", roots, a, None, argv)
    if workload == "sweep-coupling":
        lo = Fraction(rng.randint(1, 4), 2)
        hi = lo + 2
        argv = ("sweep", "--sweep-var", "a", f"--range={lo}:{hi}:{SWEEP_STEPS}",
                "--n", "2", "--m", "8", "--mask", "all", _roots_flag(roots))
        return Inputs(workload, seed, 2, Fraction(8), "all", roots, None,
                      (lo, hi, SWEEP_STEPS), argv)
    a = _coupling(rng)
    argv = ("eigenfunctions", "--n", "2", "--m", "10", "--mask", "none",
            f"--a={a}", _roots_flag(roots))
    return Inputs(workload, seed, 2, Fraction(10), "none", roots, a, None, argv)
