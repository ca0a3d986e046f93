"""Scope of the verification runner's sector memo and its z-space cross-check."""

import random
from collections import Counter

from elliptic_qes import verify
from elliptic_qes.matrices import OperatorMatrix

SPECTRAL_CHECKS = ["closed-forms", "figure-degeneracy", "eigensolver"]


def test_sectors_built_once_per_run_and_not_across_runs(monkeypatch):
    builds: list[Counter] = []
    original = verify.build_matrix

    def counting_build(op):
        builds[-1][op.params, op.mask] += 1
        return original(op)

    monkeypatch.setattr(verify, "build_matrix", counting_build)
    for _ in range(2):
        builds.append(Counter())
        results = verify.run_checks(only=SPECTRAL_CHECKS)
        assert all(r.passed for r in results), results
    first, second = builds
    assert first and max(first.values()) == 1
    assert sum(second.values()) == sum(first.values())


def test_closure_cross_check_names_a_sector_that_differs_from_z_space():
    grid = verify._closure_grid(random.Random(505))
    sample = verify._cross_check_sample(grid)
    assert len(sample) == 24
    assert verify._check_closure(grid, None).passed
    params, mask, op, mat = sample[-1]
    rows = [list(row) for row in mat.rows]
    rows[0][0] += 1
    tampered = OperatorMatrix(mat.basis, tuple(map(tuple, rows)))
    index = next(i for i, entry in enumerate(grid) if entry[3] is mat)
    grid[index] = (params, mask, op, tampered)
    result = verify._check_closure(grid, None)
    assert not result.passed
    assert f"mask {mask}, N={params.nvars}" in result.detail
