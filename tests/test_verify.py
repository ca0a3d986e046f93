"""Scope of the verification runner's sector store, its z-space cross-check
and its eigensolver check."""

import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction

from elliptic_qes import operator, oracles, verify
from elliptic_qes.errors import OperatorNotClosed
from elliptic_qes.matrices import OperatorMatrix
from elliptic_qes.model import ALL_MASKS
from elliptic_qes.polynomials import Poly


def test_sectors_built_once_per_run_and_not_across_runs(monkeypatch):
    builds: list[Counter] = []
    original = verify.build_matrix

    def counting_build(op):
        builds[-1][op.params, op.mask] += 1
        return original(op)

    monkeypatch.setattr(verify, "build_matrix", counting_build)
    runs = []
    for _ in range(2):
        builds.append(Counter())
        results = verify.run_checks()
        assert [r.name for r in results] == list(verify.CHECK_NAMES)
        assert len(results) == 10
        assert all(r.passed for r in results), results
        runs.append(results)
    assert runs[0] == runs[1]  # a second run in the process reports the same
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
    (the N >= 2 pair terms D and E among them) meets the z-space images,
    and with 2a not an integer, so the images carry its denominator."""
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
        assert (2 * a).denominator != 1


# SHA-256 of the closure grid followed by the cross-check sample, with the
# recipe of perfbench/gate.matrix_digest chained over the sectors; every later
# engine must reproduce it exactly.  Recorded when the sample's a moved to
# thirds, with the 480-sector grid prefix of the chain unchanged: computed by
# the cached-term-matrix engine and confirmed by the Fraction term-by-term
# assembly of commit 62731e4, which integer assembly over one denominator
# replaced.
CLOSURE_GRID_DIGEST = "3dad6fd40b917da6de836e871ef276b06cad463f650280d78a79463b28663904"


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


def test_gauge_exponents_check_sees_a_perturbed_closed_form_scalar(monkeypatch):
    """The check compares the division with the q and s of the operators the
    engine builds, so a wrong closed form in the engine fails it."""
    assert verify.run_checks(only=["gauge-exponents"])[0].passed
    original = operator._natural_gauge_polynomials

    def perturbed(roots, mask, coupling_b):
        charge, scalar = original(roots, mask, coupling_b)
        return charge, scalar + Poly.constant(1, Fraction(1, 3))

    monkeypatch.setattr(operator, "_natural_gauge_polynomials", perturbed)
    [result] = verify.run_checks(only=["gauge-exponents"])
    assert not result.passed
    assert "differ from the division on mask none" in result.detail


def test_eigensolver_check_fails_when_a_transform_moves_the_spectrum(monkeypatch):
    """`verify.eigenvalues` diagonalizes only the transformed matrices, so
    shifting its values is a similarity transform that moved the spectrum."""
    original = verify.eigenvalues

    def shifted(matrix):
        spec = original(matrix)
        scale = max(1.0, max(abs(v) for v in spec.values))
        return dataclasses.replace(spec, values=tuple(v + 1e-6 * scale for v in spec.values))

    monkeypatch.setattr(verify, "eigenvalues", shifted)
    result = verify._check_eigensolver(verify._SectorStore())
    assert not result.passed
    assert "similarity transform moved the spectrum" in result.detail


def test_eigensolver_transforms_are_exact_similarities_that_move_the_matrix(monkeypatch):
    """The five transformed matrices differ from their sources and share
    their exact characteristic polynomials."""
    converted: list[OperatorMatrix] = []
    original = verify.to_float

    def capturing(mat):
        converted.append(mat)
        return original(mat)

    monkeypatch.setattr(verify, "to_float", capturing)
    store = verify._SectorStore()
    assert verify._check_eigensolver(store).passed
    pool = [mat for _, mat, _ in verify._invariant_pool(store)]
    # every pool matrix is converted first, then the five transforms
    assert converted[: len(pool)] == pool and len(converted) == len(pool) + 5
    # the check's first draw from its generator picks the five sources
    sources = [pool[i] for i in random.Random(1010).sample(range(len(pool)), 5)]
    for source, moved in zip(sources, converted[len(pool) :]):
        assert moved.basis == source.basis
        assert moved.rows != source.rows
        assert moved.charpoly() == source.charpoly()


def test_exact_checks_fail_on_a_near_miss_matrix(monkeypatch):
    """Every sector built as K 10^12 over D 10^12 with K[0][0] moved by one:
    an entry off by 10^-12 / D, inside any tolerance that a float comparison
    of these spectra could use.  Moving a diagonal entry moves the
    characteristic polynomial by the minor's, which is never zero, so each
    exact identity fails."""
    original = verify.build_matrix

    def near_miss(op):
        mat = original(op)
        columns = [{i: k * 10**12 for i, k in col} for col in mat.columns]
        columns[0][0] = columns[0].get(0, 0) + 1
        return OperatorMatrix(mat.basis, denominator=mat.denominator * 10**12,
                              columns=tuple(tuple(col.items()) for col in columns))

    monkeypatch.setattr(verify, "build_matrix", near_miss)
    monkeypatch.setattr(oracles, "build_matrix", near_miss)
    names = ["closed-forms", "oscillator", "decoupling", "figure-degeneracy"]
    results = verify.run_checks(only=names)
    assert [r.name for r in results] == names
    assert [r.passed for r in results] == [False] * 4, results

