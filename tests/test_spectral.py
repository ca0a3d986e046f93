"""Floating-point eigensolving checked against numpy and exact invariants."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_qes.cli import main
from elliptic_qes.errors import NoConvergence
from elliptic_qes.matrices import build_matrix
from elliptic_qes.model import ALL_MASKS, GaugeMask, ModelParams
from elliptic_qes.operator import build_gauged_operator
from elliptic_qes.spectral import eigenvalues, eigenvector, spectrum_of, to_float
from elliptic_qes.symmetric import enumerate_basis
from elliptic_qes.matrices import OperatorMatrix


def match_defect(xs, ys) -> float:
    """Greedy nearest-partner matching distance between two spectra."""
    remaining = list(ys)
    worst = 0.0
    for x in xs:
        j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - x))
        worst = max(worst, abs(remaining.pop(j) - x))
    return worst


def exact_int_det(rows) -> Fraction:
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] * inv
            if factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


# -- examples -----------------------------------------------------------------


def test_symmetric_two_by_two():
    spec = eigenvalues(np.array([[0.0, 6.0], [6.0, 0.0]]))
    assert spec.values == (pytest.approx(-6.0), pytest.approx(6.0))


def test_rotation_generator_is_complex():
    spec = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert spec.values[0] == pytest.approx(-1j)
    assert spec.values[1] == pytest.approx(1j)


def test_trivial_cases():
    assert eigenvalues(np.array([[7.0]])).values == (7.0,)
    assert eigenvalues(np.zeros((3, 3))).values == (0.0, 0.0, 0.0)
    spec = eigenvalues(np.diag([3.0, -2.0, 5.0]))
    assert spec.values == (pytest.approx(-2.0), pytest.approx(3.0), pytest.approx(5.0))


def test_defective_block():
    spec = eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert match_defect(spec.values, [1.0, 1.0]) < 1e-7


def test_triangular_matrix():
    t = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    spec = eigenvalues(t)
    assert match_defect(spec.values, np.diag(t)) < 1e-8 * np.linalg.norm(t)


def test_badly_scaled_matrix_is_balanced():
    base = np.array([[1.0, 2.0, 0.5], [0.25, -1.0, 1.0], [2.0, 0.5, 3.0]])
    d = np.diag([1e8, 1.0, 1e-8])
    scaled = d @ base @ np.linalg.inv(d)
    defect = match_defect(eigenvalues(scaled).values, np.linalg.eigvals(base))
    assert defect < 1e-6


def test_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)))


def test_to_float_overflow():
    basis = enumerate_basis(1, 0)
    huge = OperatorMatrix(basis, ((Fraction(10) ** 400,),))
    with pytest.raises(ValueError, match=r"entry \(0,0\)"):
        to_float(huge)


def test_to_float_overflow_names_the_entry_of_k_over_d():
    basis = enumerate_basis(1, 1)
    # M = K / 3 with one entry 10**400 / 3 in row 1, column 0
    mat = OperatorMatrix(basis, ((1, 0), (10**400, 0)), denominator=3)
    with pytest.raises(ValueError, match=r"entry \(1,0\)"):
        to_float(mat)


def _sector(nvars, a, b, roots, mask, cutoff):
    m = cutoff + mask.n_f * (Fraction(1, 2) - b)
    return build_matrix(build_gauged_operator(ModelParams(nvars, a, b, m, roots), mask))


def _assert_to_float_is_entrywise_float_of_rows(mat):
    entrywise = np.array([[float(x) for x in row] for row in mat.rows])
    floats = to_float(mat)
    assert floats.dtype == entrywise.dtype and floats.shape == entrywise.shape
    assert floats.tobytes() == entrywise.tobytes()


def test_to_float_is_bit_identical_to_float_of_every_entry_at_five_particles():
    roots = (Fraction(9, 4), Fraction(-3, 5), Fraction(-33, 20))
    for mask in ALL_MASKS:
        mat = _sector(5, Fraction(5, 3), Fraction(-2, 7), roots, mask, 5)
        assert mat.dim == 252
        _assert_to_float_is_entrywise_float_of_rows(mat)


@pytest.mark.parametrize(
    ("a", "b", "e1", "e2"),
    [
        (Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(-5, 11)),
        (Fraction(-7, 13), Fraction(-3, 17), Fraction(11, 19), Fraction(4, 23)),
        (Fraction(5, 101), Fraction(2, 1013), Fraction(3, 1019), Fraction(-7, 1021)),
    ],
    ids=["3-5-7-11", "13-17-19-23", "101-1013-1019-1021"],
)
def test_to_float_is_bit_identical_to_float_of_every_entry_at_coprime_denominators(a, b, e1, e2):
    for nvars in (2, 3):
        for cutoff in range(4):
            for mask in ALL_MASKS:
                _assert_to_float_is_entrywise_float_of_rows(
                    _sector(nvars, a, b, (e1, e2, -e1 - e2), mask, cutoff)
                )


def test_the_spectrum_path_never_builds_dense_rows():
    roots = (Fraction(9, 4), Fraction(-3, 5), Fraction(-33, 20))
    mat = _sector(4, Fraction(5, 3), Fraction(-2, 7), roots, GaugeMask(()), 4)
    spectrum_of(mat)
    assert "rows" not in mat.__dict__
    assert len(mat.rows) == mat.dim
    assert "rows" in mat.__dict__


# -- agreement with numpy --------------------------------------------------------


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_matches_numpy_on_random_matrices(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) * rng.choice([0.1, 1.0, 10.0])
    mine = eigenvalues(m).values
    reference = np.linalg.eigvals(m)
    scale = max(1.0, float(np.max(np.abs(reference))))
    assert match_defect(mine, reference) < 1e-8 * scale


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_matches_numpy_on_symmetric_matrices(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    m = m + m.T
    mine = eigenvalues(m).values
    reference = sorted(np.linalg.eigvalsh(m))
    assert match_defect(mine, reference) < 1e-8 * max(1.0, np.max(np.abs(reference)))


# -- invariants -------------------------------------------------------------------


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_trace_determinant_conjugates_on_integer_matrices(seed, dim):
    rng = np.random.default_rng(seed)
    ints = rng.integers(-9, 10, size=(dim, dim))
    m = ints.astype(float)
    spec = eigenvalues(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    assert abs(sum(spec.values) - np.trace(m)) < 1e-9 * scale
    det = exact_int_det(ints.tolist())
    product = complex(1.0)
    for v in spec.values:
        product *= v
    assert abs(product - float(det)) <= 1e-8 * max(1.0, abs(float(det)))
    complex_part = [v for v in spec.values if abs(v.imag) > 1e-7 * (1 + abs(v.real))]
    assert match_defect(complex_part, [v.conjugate() for v in complex_part]) < 1e-6 * scale


def test_sorting_convention():
    spec = eigenvalues(np.array([[0.0, -4.0], [4.0, 0.0]]))
    assert spec.values[0].imag < spec.values[1].imag
    spec = eigenvalues(np.diag([5.0, -5.0]))
    assert spec.values[0].real < spec.values[1].real


def _reference_order(raw) -> list[int]:
    """Indices sorted by (real, imaginary) part, ties kept in index order."""
    return sorted(range(len(raw)), key=lambda k: (raw[k].real, raw[k].imag))


def _bits(values) -> list[tuple[str, str]]:
    """Both parts of each value as float.hex, which tells -0.0 from 0.0."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


_ROTATION = np.array([[0.0, -3.0], [3.0, 0.0]])
_TILTED = np.array([[1.0, -2.0], [2.0, 1.0]])
ORDER_CASES = {
    **{f"random-{seed}": np.random.default_rng(seed).standard_normal((2 + seed % 7,) * 2)
       for seed in range(12)},
    "diag-repeats": np.diag([2.0, -1.0, 2.0, -0.0, -1.0, 0.0, 2.0]),
    "rotation-copies": np.kron(np.eye(3), _ROTATION),
    "tilted-copies": np.kron(np.eye(3), _TILTED),
    "mixed-copies": np.block([[np.kron(np.eye(2), _TILTED), np.zeros((4, 3))],
                              [np.zeros((3, 4)), np.diag([1.0, 1.0, -0.0])]]),
}


@pytest.mark.parametrize("m", ORDER_CASES.values(), ids=ORDER_CASES.keys())
def test_values_and_vectors_follow_the_stable_real_then_imaginary_order(m):
    raw = np.linalg.eigvals(m)
    want = [complex(raw[k]) for k in _reference_order(raw)]
    assert _bits(eigenvalues(m).values) == _bits(want)

    raw, vecs = np.linalg.eig(m)
    order = _reference_order(raw)
    spec, vectors = eigenvector(m)
    assert _bits(spec.values) == _bits([complex(raw[k]) for k in order])
    assert np.array_equal(vectors, vecs[:, order])


@pytest.mark.parametrize("name", ["diag-repeats", "rotation-copies", "tilted-copies",
                                  "mixed-copies"])
def test_the_repeated_cases_repeat_exactly(name):
    raw = np.linalg.eigvals(ORDER_CASES[name]).tolist()
    assert len(set(raw)) < len(raw)


# LAPACK's output as given, with exact ties that differ only in the sign of a
# zero part; every sum of real parts is 0, the trace of the zero matrix.
SIGNED_ZERO_SPECTRA = {
    "complex": [complex(0.0, -1.0), complex(-0.0, 0.0), complex(0.0, 1.0), complex(0.0, -0.0),
                complex(-0.0, -0.0), complex(0.0, 0.0), complex(-0.0, -1.0), complex(-0.0, 1.0)],
    "real": [0.0, -0.0, 1.0, -0.0, -1.0, 0.0, 0.0],
}


@pytest.mark.parametrize("raw", SIGNED_ZERO_SPECTRA.values(), ids=SIGNED_ZERO_SPECTRA.keys())
def test_signed_zero_ties_keep_their_index_order(monkeypatch, raw):
    raw = np.array(raw)
    n = len(raw)
    vecs = np.arange(n * n, dtype=complex).reshape(n, n)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: raw.copy())
    monkeypatch.setattr(np.linalg, "eig", lambda a: (raw.copy(), vecs.copy()))
    order = _reference_order(raw)
    want = _bits([complex(raw[k]) for k in order])
    assert _bits(eigenvalues(np.zeros((n, n))).values) == want
    spec, vectors = eigenvector(np.zeros((n, n)))
    assert _bits(spec.values) == want
    assert np.array_equal(vectors, vecs[:, order])
    assert order != list(range(n))


# -- eigenvectors --------------------------------------------------------------------


def eigenpairs(m):
    """(value, column) pairs from one `eigenvector` call, each checked for a
    unit norm and a residual of at most 1e-8 * max(1, ||m||_F)."""
    spec, vectors = eigenvector(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    assert match_defect(spec.values, eigenvalues(m).values) < 1e-10 * scale
    pairs = list(zip(spec.values, vectors.T))
    for value, v in pairs:
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.linalg.norm(m @ v - value * v) <= 1e-8 * scale
    return pairs


def test_eigenvector_symmetric_pair():
    m = np.array([[0.0, 6.0], [6.0, 0.0]])
    (low, w), (high, v) = eigenpairs(m)
    assert (low, high) == (pytest.approx(-6.0), pytest.approx(6.0))
    assert abs(abs(v[0]) - abs(v[1])) < 1e-9
    assert abs(np.vdot(w, v)) < 1e-9  # orthogonal directions


def test_eigenvector_off_balance_block():
    # [[0, 6], [6, 0]] written with g2/2 = 6 on one side
    m = np.array([[0.0, 6.0], [6.0, 0.0]])
    _, (_, v) = eigenpairs(m)
    ratio = v[1] / v[0]
    assert ratio == pytest.approx(1.0, abs=1e-8)


def test_eigenvector_identity_and_triangular():
    assert [value for value, _ in eigenpairs(np.eye(3))] == [1.0, 1.0, 1.0]
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    (value, v), _ = eigenpairs(m)
    assert value == pytest.approx(2.0)
    assert abs(v[1]) < 1e-9


def test_eigenvector_complex_value():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    (low, w), (high, v) = eigenpairs(m)
    assert (low, high) == (pytest.approx(-1j), pytest.approx(1j))
    assert np.linalg.norm(m @ v - 1j * v) <= 1e-8


def test_eigenvector_of_a_real_value_is_real():
    m = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    pairs = eigenpairs(m)
    assert [value for value, _ in pairs] == pytest.approx(np.linalg.eigvalsh(m))
    for value, v in pairs:
        assert value.imag == 0.0
        assert not v.imag.any()


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_eigenpairs_on_random_matrices(seed, dim):
    rng = np.random.default_rng(seed)
    eigenpairs(rng.standard_normal((dim, dim)) * rng.choice([0.1, 1.0, 10.0]))


def test_eigenvector_shares_the_validation_of_eigenvalues():
    for bad in (np.zeros((2, 3)), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((0, 0))):
        with pytest.raises(ValueError):
            eigenvector(bad)


# -- the LAPACK contract ------------------------------------------------------------


def test_lapack_failure_raises_no_convergence_and_exits_1(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergence):
        eigenvalues(np.diag([1.0, 2.0]))
    assert main(["spectrum"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_trace_gate_rejects_a_shifted_spectrum(monkeypatch):
    lapack = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: lapack(a) + 1e-6)
    with pytest.raises(NoConvergence, match="trace"):
        eigenvalues(np.diag([1.0, 2.0, 3.0]))


def test_trace_gate_rejects_a_nan_spectrum(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(len(a), np.nan))
    with pytest.raises(NoConvergence, match="trace"):
        eigenvalues(np.diag([1.0, 2.0, 3.0]))


def test_trace_gate_scale_does_not_overflow(monkeypatch, capsys):
    """Entries near 1e200 overflow a plain Frobenius norm (its square is
    above the double range): the gate still measures the defect, with no
    RuntimeWarning, and rejects a wrong value at that scale."""
    big = np.diag([1e200, 2e200, 3e200])
    lapack = np.linalg.eigvals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigenvalues(big).values == (1e200, 2e200, 3e200)
        assert main(["spectrum", "--n", "2", "--m", "2", "--mask", "none",
                     "--a=1" + "0" * 200]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: lapack(a) * np.array([1, 1, 4 / 3]))
        with pytest.raises(NoConvergence, match="trace"):
            eigenvalues(big)


def test_eigendecomposition_failure_raises_no_convergence_and_exits_1(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(NoConvergence):
        eigenvector(np.diag([1.0, 2.0]))
    assert main(["eigenfunctions"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_trace_gate_rejects_a_shifted_eigendecomposition(monkeypatch):
    lapack = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: (lapack(a)[0] + 1e-6, lapack(a)[1]))
    with pytest.raises(NoConvergence, match="trace"):
        eigenvector(np.diag([1.0, 2.0, 3.0]))


def test_eigenfunctions_leave_numpy_random_unimported():
    """Nothing on the eigenfunctions path imports numpy.random, which would
    cost several MB of resident memory."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    script = (
        "import sys\n"
        "from elliptic_qes.cli import main\n"
        "code = main(['eigenfunctions', '--n', '2', '--m', '4'])\n"
        "print('numpy.random' in sys.modules, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


# -- integration with exact matrices ----------------------------------------------------


def test_spectrum_of_exact_matrix():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 2), GaugeMask(())))
    spec = spectrum_of(mat)
    assert spec.values == (
        pytest.approx(-20.0),
        pytest.approx(-8.0),
        pytest.approx(28.0),
    )
    assert len(spec.values) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3", "--m", "3", "--a", "1/2"],
        ["sweep", "--sweep-var", "a", "--range", "0:1:3", "--n", "2", "--m", "2"],
        ["eigenfunctions", "--n", "2", "--m", "4", "--a", "3/2"],
        ["matrix", "--n", "2", "--m", "2", "--a", "1/3", "--format", "csv"],
        ["matrix", "--n", "2", "--m", "2", "--a", "1/3"],
        ["verify"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_no_command_reads_the_dense_rows(monkeypatch, capsys, argv):
    def forbidden(self):
        raise AssertionError("the library read OperatorMatrix.rows")

    monkeypatch.setattr(OperatorMatrix, "rows", property(forbidden))
    assert main(argv) == 0
    assert capsys.readouterr().out
