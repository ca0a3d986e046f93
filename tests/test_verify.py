"""Scope of the verification runner's sector store and its z-space cross-check."""

import hashlib
from collections import Counter
from fractions import Fraction

from elliptic_qes import verify
from elliptic_qes.errors import OperatorNotClosed
from elliptic_qes.matrices import OperatorMatrix
from elliptic_qes.model import ALL_MASKS


def test_sectors_built_once_per_run_and_not_across_runs(monkeypatch):
    builds: list[Counter] = []
    original = verify.build_matrix

    def counting_build(op):
        builds[-1][op.params, op.mask] += 1
        return original(op)

    monkeypatch.setattr(verify, "build_matrix", counting_build)
    for _ in range(2):
        builds.append(Counter())
        results = verify.run_checks()
        assert [r.name for r in results] == list(verify.CHECK_NAMES)
        assert len(results) == 10
        assert all(r.passed for r in results), results
    first, second = builds
    assert first and max(first.values()) == 1
    assert sum(second.values()) == sum(first.values())


def test_closure_cross_check_names_a_sector_that_differs_from_z_space():
    store = verify._SectorStore()
    sample = verify._cross_check_sample(store)
    assert len(sample) == 24
    assert verify._check_closure(store).passed
    op, mat = sample[-1]
    rows = [list(row) for row in mat.rows]
    rows[0][0] += 1
    tampered = OperatorMatrix(mat.basis, tuple(map(tuple, rows)))
    store._sectors[op.params, op.mask] = (op, tampered)
    result = verify._check_closure(store)
    assert not result.passed
    assert f"mask {op.mask}, N={op.params.nvars}" in result.detail


def test_cross_check_sample_switches_on_every_term_group():
    """One cutoff-2 tuple per N = 1..3 in all eight masks, with a, g3,
    1/2 - b and b + 1/2 all non-zero, so every group of terms of A, B and C
    (the N >= 2 pair terms D and E among them) meets the z-space images."""
    half = Fraction(1, 2)
    sample = verify._cross_check_sample(verify._SectorStore())
    assert len(sample) == 24
    tuples = {}
    for op, _ in sample:
        params = op.params
        assert op.cutoff == 2
        key = (params.coupling_a, params.coupling_b, params.roots)
        tuples.setdefault(params.nvars, {}).setdefault(key, set()).add(op.mask)
    assert sorted(tuples) == [1, 2, 3]
    for per_n in tuples.values():
        [(a, b, roots)] = per_n
        assert per_n[a, b, roots] == set(ALL_MASKS)
        g3 = 4 * roots[0] * roots[1] * roots[2]
        assert a != 0 and g3 != 0 and half - b != 0 and half + b != 0


# SHA-256 of the closure grid followed by the cross-check sample, with the
# recipe of perfbench/gate.matrix_digest chained over the sectors, as built by
# the Fraction term-by-term assembly that integer assembly over one
# denominator replaced; every later engine must reproduce it exactly.
CLOSURE_GRID_DIGEST = "7b829cb419a1fb487f19198a1681a29075897935eafd8bdac673fcbc1f3f9bc5"


def test_closure_grid_and_sample_matrices_equal_the_recorded_engine():
    store = verify._SectorStore()
    sectors = store.closure_grid() + verify._cross_check_sample(store)
    assert len(sectors) == 480 + 24
    digest = hashlib.sha256()
    for _, mat in sectors:
        digest.update(repr(mat.basis.monomials).encode())
        for row in mat.rows:
            digest.update((",".join(str(x) for x in row) + "\n").encode())
    assert digest.hexdigest() == CLOSURE_GRID_DIGEST


def test_a_grid_sector_that_fails_to_build_fails_closure_and_raising(monkeypatch):
    """A build error on one closure-grid sector is reported by both checks
    that use the grid, and leaves the other checks alone."""
    op, _ = verify._closure_grid(verify._SectorStore())[100]
    original = verify.build_matrix

    def failing_build(built):
        if (built.params, built.mask) == (op.params, op.mask):
            raise OperatorNotClosed("image leaves the invariant space")
        return original(built)

    monkeypatch.setattr(verify, "build_matrix", failing_build)
    results = {r.name: r for r in verify.run_checks(only=["matrices", "closure", "raising"])}
    assert results["matrices"].passed
    for name in ("closure", "raising"):
        assert not results[name].passed
        assert results[name].detail == "OperatorNotClosed: image leaves the invariant space"
