"""Scope of the verification runner's sector store, its z-space cross-check
and its eigensolver check."""

import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from elliptic_qes import operator, oracles, verify
from elliptic_qes.errors import OperatorNotClosed
from elliptic_qes.matrices import OperatorMatrix
from elliptic_qes.model import ALL_MASKS, GaugeMask
from elliptic_qes.polynomials import Poly
from elliptic_qes.spectral import Spectrum
from elliptic_qes.symmetric import enumerate_basis


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


def test_every_sector_is_built_once_per_run_across_modules(monkeypatch):
    """Counted wherever `verify` and `oracles` bind `build_matrix`, a run
    builds each of its 547 distinct sectors exactly once."""
    builds = Counter()
    for module in (verify, oracles):
        original = module.build_matrix

        def counting_build(op, original=original):
            builds[op.params, op.mask] += 1
            return original(op)

        monkeypatch.setattr(module, "build_matrix", counting_build)
    assert all(r.passed for r in verify.run_checks())
    assert len(builds) == 547
    assert sum(builds.values()) == 547


def test_closure_cross_check_names_a_sector_that_differs_from_z_space():
    store = verify._SectorStore()
    sample = verify._cross_check_sample(store)
    assert len(sample) == 24
    assert verify._run_guarded("closure", store).passed
    op, mat = sample[-1]
    rows = [list(row) for row in mat.rows]
    rows[0][0] += 1
    tampered = OperatorMatrix(mat.basis, tuple(map(tuple, rows)))
    store._sectors[op.params, op.mask] = (op, tampered)
    result = verify._run_guarded("closure", store)
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
        scale, cubic, charge, scalar = original(roots, mask, coupling_b)
        return scale, cubic, charge, {**scalar, 0: scalar.get(0, 0) + 1}

    monkeypatch.setattr(operator, "_natural_gauge_polynomials", perturbed)
    [result] = verify.run_checks(only=["gauge-exponents"])
    assert not result.passed
    assert "differ from the division on mask none" in result.detail


def test_gauge_exponents_check_fails_when_the_mixed_root_pole_cancels(monkeypatch):
    """Mask (1, 2) on the double-root cubic holds the simple root e1, so
    exponent 1/3 must leave a pole there; a division that cancels it fails
    the check."""
    division = verify.gauge_polynomials
    double = tuple(map(Fraction, oracles.DEGENERATE_ROOTS))

    def lenient(roots, mask, exponent, coupling_b):
        if (roots, mask, exponent) == (double, GaugeMask((1, 2)), Fraction(1, 3)):
            return Poly.zero(1), Poly.zero(1)
        return division(roots, mask, exponent, coupling_b)

    monkeypatch.setattr(verify, "gauge_polynomials", lenient)
    [result] = verify.run_checks(only=["gauge-exponents"])
    assert not result.passed
    assert result.detail == "exponent 1/3 on a simple root cancelled"


def test_eigensolver_check_fails_when_a_transform_moves_the_spectrum(monkeypatch):
    """`verify.eigenvalues` diagonalizes only the transformed matrices, so
    shifting its values is a similarity transform that moved the spectrum."""
    original = verify.eigenvalues

    def shifted(matrix):
        spec = original(matrix)
        scale = max(1.0, max(abs(v) for v in spec.values))
        return dataclasses.replace(spec, values=tuple(v + 1e-6 * scale for v in spec.values))

    monkeypatch.setattr(verify, "eigenvalues", shifted)
    result = verify._run_guarded("eigensolver", verify._SectorStore())
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
    assert verify._run_guarded("eigensolver", store).passed
    pool = [mat for _, mat, _ in verify._invariant_pool(store)]
    # the pool's spectra come from `spectrum_of`; the check converts only the transforms
    assert len(converted) == 5
    # the check's first draw from its generator picks the five sources
    sources = [pool[i] for i in random.Random(1010).sample(range(len(pool)), 5)]
    for source, moved in zip(sources, converted):
        assert moved.basis == source.basis
        assert moved.rows != source.rows
        assert moved.charpoly() == source.charpoly()


def test_eigensolver_check_fails_on_a_pair_that_is_conjugate_only_to_rounding(monkeypatch):
    """LAPACK returns the complex pairs of a real matrix as exact conjugates,
    so a pair that is conjugate to 1e-12 fails, though its trace and
    determinant hold: the rotation [[0, -1], [1, 0]] with values -i and
    1e-12 + i."""
    rotation = OperatorMatrix(enumerate_basis(1, 1), denominator=1,
                              columns=(((1, 1),), ((0, -1),)))
    near_pair = Spectrum((complex(0, -1), complex(1e-12, 1)), 0, 1e-12)
    original = verify._invariant_pool

    def with_near_pair(store):
        return original(store) + [("rotation", rotation, near_pair)]

    monkeypatch.setattr(verify, "_invariant_pool", with_near_pair)
    [result] = verify.run_checks(only=["eigensolver"])
    assert not result.passed
    assert result.detail == "rotation: eigenvalue -1j has no conjugate partner"


def test_eigensolver_check_fails_through_the_trace_gate(monkeypatch):
    """The check compares no trace itself: a spectrum shifted off the trace
    fails in `spectrum_of`, whose NoConvergence the runner reports."""
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: original(a) + 1e-6)
    [result] = verify.run_checks(only=["eigensolver"])
    assert not result.passed
    assert result.detail.startswith("NoConvergence: eigenvalue sum deviates from trace by ")


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
    names = ["closed-forms", "oscillator", "decoupling", "figure-degeneracy"]
    results = verify.run_checks(only=names)
    assert [r.name for r in results] == names
    assert [r.passed for r in results] == [False] * 4, results



class _RecordingStore(verify._SectorStore):
    """A sector store that records the (params, mask) keys read from it."""

    def __init__(self):
        super().__init__()
        self.keys = set()

    def sector(self, params, mask):
        self.keys.add((params, mask))
        return super().sector(params, mask)


def test_eigensolver_pool_is_every_sector_the_exact_checks_read():
    """The pool holds the sectors whose characteristic polynomials
    `closed-forms`, `oscillator`, `decoupling` and `figure-degeneracy` read
    from the store, and no other."""
    store = _RecordingStore()
    for name in ("closed-forms", "oscillator", "decoupling", "figure-degeneracy"):
        assert verify._run_guarded(name, store).passed
    assert {params.nvars for params, _ in store.keys} == {1, 2}
    pool_store = _RecordingStore()
    pool = verify._invariant_pool(pool_store)
    assert len(pool) == len(pool_store.keys)
    assert pool_store.keys == store.keys
