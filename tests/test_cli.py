"""Command-line behaviour: payload shapes, determinism, exit codes."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import elliptic_qes.cli as cli
import elliptic_qes.verify as verify
from elliptic_qes.cli import main
from elliptic_qes.matrices import OperatorMatrix, build_matrix, matrix_from_json
from elliptic_qes.model import GaugeMask, ModelParams, list_valid_masks
from elliptic_qes.errors import NonCancellingPole
from elliptic_qes.operator import build_gauged_operator
from elliptic_qes.oracles import epsilon_roots
from elliptic_qes.polynomials import Poly
from elliptic_qes.spectral import spectrum_of, to_float
from elliptic_qes.symmetric import enumerate_basis, tau_to_z


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes --------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--roots", "1,1,1"),  # roots must sum to zero
        ("spectrum", "--a", "x"),  # not a rational
        ("matrix", "--mask", "1"),  # single mask invalid at b=0, integer m
        ("verify", "--only", "nonsense"),
        ("sweep", "--sweep-var", "epsilon", "--range", "0:1:2", "--roots", "2,-1,-1"),
        ("sweep", "--sweep-var", "a", "--range", "0:1:2", "--a", "1"),
        ("sweep", "--sweep-var", "epsilon", "--range", "0:1:0"),  # steps < 1
        ("verify", "--only", ","),  # names no check
        ("masks", "--roots", "2,,-1,-1"),  # an empty field is not dropped
        ("masks", "--roots", "2,-1,-1,"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


# N=8, m=8 has sectors of dimension C(16, 8) = 12870 and 3 x C(15, 7); an
# N=2, m=8 sweep point has 45 + 3 x 36 = 153; an N=2, m=2 point has 15.
@pytest.mark.parametrize(
    ("argv", "total"),
    [
        (("spectrum", "--n", "8", "--m", "8"), 12870 + 3 * 6435),
        (("matrix", "--n", "8", "--m", "8"), 12870),
        (("eigenfunctions", "--n", "8", "--m", "8"), 12870),
        (("sweep", "--sweep-var", "a", "--range", "1:3:20", "--n", "2", "--m", "8"), 20 * 153),
        (("sweep", "--sweep-var", "epsilon", "--range", "0:1:1000000000"), 15 * 10**9),
    ],
)
def test_work_above_the_dimension_budget_exits_2(capsys, argv, total):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"total dimension {total}, above the limit {cli.MAX_TOTAL_DIMENSION}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--m", "0", "--mask", "none"),
        ("matrix", "--m", "0", "--mask", "none"),
        ("eigenfunctions", "--m", "0", "--mask", "none"),
        ("sweep", "--sweep-var", "a", "--range", "0:1:2", "--m", "0"),
    ],
)
def test_particle_number_above_the_limit_exits_2_before_building(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("built a sector above the particle limit")

    monkeypatch.setattr(cli, "build_gauged_operator", refuse)
    for n in (cli.MAX_PARTICLES + 1, 10**6):
        code, out, err = run(capsys, *argv, "--n", str(n))
        assert (code, out) == (2, "")
        assert f"N = {n} is above the limit of {cli.MAX_PARTICLES} particles" in err


def test_masks_refuses_n_above_the_particle_limit_before_counting(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("counted a sector above the particle limit")

    with monkeypatch.context() as patch:
        patch.setattr(ModelParams, "basis_dimension", refuse)
        code, out, err = run(capsys, "masks", "--n", str(cli.MAX_PARTICLES + 1))
    assert (code, out) == (2, "")
    assert f"N = {cli.MAX_PARTICLES + 1} is above the limit of {cli.MAX_PARTICLES}" in err
    code, out, _ = run(capsys, "masks", "--n", str(cli.MAX_PARTICLES), "--m", "2")
    assert code == 0
    assert out.splitlines()[1].split() == ["none", "2", str(math.comb(cli.MAX_PARTICLES + 2, 2)),
                                           "yes"]


def test_range_steps_that_are_not_an_integer_name_the_flag(capsys):
    code, out, err = run(capsys, "sweep", "--sweep-var", "a", "--range", "0:1:2.5")
    assert (code, out) == (2, "")
    assert err == "error: --range steps must be a positive integer, got '2.5'\n"


@pytest.mark.parametrize("text", ["2,,-1,-1", "2,-1,-1,", "2,,-1"])
def test_roots_with_an_empty_field_name_the_flag(capsys, text):
    code, out, err = run(capsys, "masks", "--roots", text)
    assert (code, out) == (2, "")
    assert err == f"error: --roots needs three comma-separated rationals, got {text!r}\n"


@pytest.mark.parametrize(
    "argv", [("masks",), ("masks", "--format", "json"), ("spectrum", "--mask", "none")]
)
def test_a_sector_dimension_too_long_to_print_names_m(capsys, argv):
    """C(32 + 10^140, 32) has about 4480 digits, above Python's default limit
    of 4300 for int-to-decimal conversion."""
    m = "1" + "0" * 140
    code, out, err = run(capsys, *argv, "--n", "32", "--m", m)
    assert (code, out) == (2, "")
    assert err == f"error: --m = {m} gives a sector dimension with too many digits to print\n"


def test_a_sweep_total_too_long_to_print_names_range(capsys):
    """Each N=2, m=8 point has total dimension 153, so 4300 nines of steps give
    a total of 4303 digits, above Python's default limit of 4300."""
    code, out, err = run(capsys, "sweep", "--sweep-var", "a", "--range", "0:1:" + "9" * 4300,
                         "--n", "2", "--m", "8")
    assert (code, out) == (2, "")
    assert err == "error: --range gives a total dimension with too many digits to print\n"


def test_particle_limit_admits_its_own_n_and_sixteen_particles_run(capsys):
    cli._check_budget(ModelParams(cli.MAX_PARTICLES, 0, 0, 0), [GaugeMask.from_string("none")])
    code, out, _ = run(capsys, "spectrum", "--n", "16", "--m", "0", "--mask", "none")
    assert code == 0
    assert len(json.loads(out)["sectors"][0]["eigenvalues"]) == 1



def test_sweep_with_an_invalid_named_mask_exits_2_before_forming_its_grid(capsys, monkeypatch):
    """Mask 1 has cutoff 3/2 at m = 2, b = 0: the budget check refuses it by
    name, so a million-point sweep neither forms its grid nor builds."""
    calls = []
    monkeypatch.setattr(cli, "_grid", lambda *args: calls.append("_grid") or [])
    monkeypatch.setattr(cli, "build_gauged_operator",
                        lambda *args: calls.append("build_gauged_operator"))
    code, out, err = run(capsys, "sweep", "--sweep-var", "a", "--range", "0:1:1000000",
                         "--n", "2", "--m", "2", "--mask", "1")
    assert (code, out, calls) == (2, "", [])
    assert err == ("error: mask 1 shifts the degree cutoff to 3/2, which is not a non-negative "
                   "integer; no invariant space exists\n")

@pytest.mark.parametrize(
    ("n", "m", "work"),
    [
        (10, 2, 45 * (1 + 1023 + (1023**2 + math.comb(20, 10) - 1) // 2)),
        (32, 1, 496 * 2**32),
        (7, 2, 208068),
        (11, 1, 112640),
    ],
)
def test_matrix_z_space_check_above_its_limit_exits_2_before_building(capsys, monkeypatch, n, m,
                                                                       work):
    def refuse(*args):
        raise AssertionError("built a sector above the z-space check limit")

    monkeypatch.setattr(cli, "build_gauged_operator", refuse)
    code, out, err = run(capsys, "matrix", "--n", str(n), "--m", str(m), "--mask", "none")
    assert (code, out) == (2, "")
    assert err == (f"error: the z-space check takes work {work}, above the limit "
                   f"{cli.MAX_CHECK_WORK}\n")


def test_z_space_limit_admits_its_timed_inputs_and_bounds_the_checked_terms(capsys, monkeypatch):
    none = GaugeMask.from_string("none")
    for n, m in ((6, 2), (10, 1), (2, 8)):
        cli._check_budget(ModelParams(n, 0, 0, m), [none], z_space=True)
    # an invalid mask is refused by name
    code, _, err = run(capsys, "matrix", "--n", "12", "--mask", "1")
    assert code == 2 and "mask 1 shifts the degree cutoff" in err
    # with every check refused, the message reports the work: C(N, 2) pairs
    # times a bound on the checked columns' z-space terms, exact at cutoff <= 1
    monkeypatch.setattr(cli, "MAX_CHECK_WORK", -1)
    for n in range(1, 6):
        for cutoff in (0, 1, 2, 3):
            basis = enumerate_basis(n, cutoff)
            terms = sum(len(tau_to_z(Poly.monomial(e)).terms) for e in basis if sum(e) <= 2)
            with pytest.raises(ValueError, match=r"takes work \d+,") as info:
                cli._check_budget(ModelParams(n, 0, 0, cutoff), [none], z_space=True)
            work = int(re.search(r"takes work (\d+),", str(info.value)).group(1))
            assert work >= math.comb(n, 2) * terms
            assert work == math.comb(n, 2) * terms or cutoff >= 2


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--format", "csv"),
        ("spectrum", "--mask", "none"),
        ("eigenfunctions", "--mask", "none"),
        ("sweep", "--sweep-var", "epsilon", "--range", "0:1:2"),
    ],
)
def test_overflowing_entry_exits_2_and_names_it(capsys, argv):
    code, out, err = run(capsys, *argv, "--a", "1e400")
    assert (code, out) == (2, "")
    assert re.match(r"error: entry \(\d+,\d+\) = -?\d+/\d+ overflows a double$", err)


def test_dimension_budget_admits_n6_m6_and_a_19_point_sweep(capsys):
    six = ModelParams(6, 0, 0, 6)
    masks = list(list_valid_masks(six))
    assert sum(six.basis_dimension(mask) for mask in masks) == 924 + 3 * 462
    cli._check_budget(six, masks)
    argv = ("sweep", "--sweep-var", "a", "--range", "1:3:19", "--n", "2", "--m", "8")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 1 + 19 * 153


@pytest.mark.parametrize(
    ("command", "values"),
    [
        (("matrix",), (("--a", "-1/2"), ("--b", "-1/4"), ("--roots", "-1,2,-1"))),
        (("matrix", "--mask", "1", "--b", "2"), (("--m", "-1/2"),)),
        (("sweep", "--sweep-var", "a", "--n", "1", "--m", "1"), (("--range", "-1:1:3"),)),
    ],
)
def test_negative_values_spaced_or_joined(capsys, command, values):
    spaced = [*command, *(word for pair in values for word in pair)]
    joined = [*command, *(f"{flag}={value}" for flag, value in values)]
    code, out, _ = run(capsys, *spaced)
    assert code == 0
    assert (code, out) == run(capsys, *joined)[:2]


# -- spectrum -----------------------------------------------------------------------


def test_spectrum_default_json(capsys):
    code, out, _ = run(capsys, "spectrum")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["m"] == "2"
    assert [s["mask"] for s in payload["sectors"]] == ["none", "12", "13", "23"]
    total = 0
    for sector in payload["sectors"]:
        count = len(sector["eigenvalues"])
        assert count == sector["dimension"]
        assert count == math.comb(sector["cutoff"] + 2, 2)
        total += count
    assert total == 15


@pytest.mark.parametrize("nvars,m,a", [("2", "2", "0"), ("2", "2", "1"), ("3", "4", "1"),
                                        ("3", "4", "5/3")])
def test_spectrum_prints_exact_zeros_at_the_triple_root(capsys, nvars, m, a):
    # Every sector matrix is nilpotent here (tests/test_matrices.py proves it in
    # exact arithmetic), but that LAPACK returns exact zeros for them rests on
    # its ordering of operations, not on a proof.
    code, out, _ = run(capsys, "spectrum", "--n", nvars, "--m", m, "--a", a,
                       "--roots", "0,0,0", "--format", "csv")
    assert code == 0
    params = ModelParams(int(nvars), Fraction(a), 0, int(m), (0, 0, 0))
    rows = out.splitlines()[1:]
    assert len(rows) == sum(params.basis_dimension(mask) for mask in list_valid_masks(params))
    assert all(row.endswith(",0.0,0.0") for row in rows)


def test_spectrum_single_sector_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--mask", "none", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mask,eig_index,re,im"
    assert len(lines) == 1 + 6
    assert all(line.startswith("none,") for line in lines[1:])


# -- sweep -------------------------------------------------------------------------------


def test_sweep_csv_is_deterministic(capsys, tmp_path):
    argv = ("sweep", "--sweep-var", "epsilon", "--range", "0:1/2:3")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert first == second

    target = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == first

    lines = first.splitlines()
    assert lines[0] == "sweep_value,mask,eig_index,re,im"
    assert len(lines) == 1 + 3 * 15


# SHA-256 of the CSV that the README's two spectral-flow sweeps print, as
# recorded when sweeps still interpolated between exact builds.
@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (
            ("--sweep-var", "epsilon", "--range", "0:1:21", "--n", "2", "--m", "2",
             "--a", "5", "--b", "0"),
            "f3b9714f4a72280524c69a3edcf0beca5ca8219c84c9e181309ea9e9fa56f518",
        ),
        (
            ("--sweep-var", "a", "--range", "0:5:21", "--n", "2", "--m", "2", "--b", "0",
             "--roots", "2,-3/2,-1/2"),
            "e17a7af8f88f629a050c98373323130f76f138e874dfef44ee7b83f6754ee3d5",
        ),
    ],
    ids=["epsilon", "coupling"],
)
def test_readme_flow_sweeps_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "sweep", *argv, "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_single_point_matches_spectrum(capsys):
    code, sweep_out, _ = run(
        capsys, "sweep", "--sweep-var", "epsilon", "--range", "1/4:1/4:1", "--mask", "none"
    )
    assert code == 0
    code, spec_out, _ = run(
        capsys,
        "spectrum",
        "--roots",
        "2,-3/4,-5/4",
        "--mask",
        "none",
        "--format",
        "csv",
    )
    assert code == 0
    sweep_vals = [
        (float(row.split(",")[3]), float(row.split(",")[4]))
        for row in sweep_out.splitlines()[1:]
    ]
    spec_vals = [
        (float(row.split(",")[2]), float(row.split(",")[3]))
        for row in spec_out.splitlines()[1:]
    ]
    assert sweep_vals == pytest.approx(spec_vals)


def test_sweep_coupling_variable(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--sweep-var",
        "a",
        "--range",
        "0:5:2",
        "--mask",
        "13",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sweep_var"] == "a"
    assert {row["value"] for row in payload["rows"]} == {"0", "5"}
    assert all(row["mask"] == "13" for row in payload["rows"])
    assert len(payload["rows"]) == 6


def _sweep_params(var, value, nvars, b, m):
    """The sweep's parameter point: epsilon moves the roots at a = 3/2, a moves
    the coupling at the distinct roots (2, -3/2, -1/2)."""
    if var == "epsilon":
        return ModelParams(nvars, Fraction(3, 2), b, m, epsilon_roots(value))
    return ModelParams(nvars, value, b, m, (2, Fraction(-3, 2), Fraction(-1, 2)))


def _direct(var, value, nvars, b, m, mask):
    return build_matrix(build_gauged_operator(_sweep_params(var, value, nvars, b, m), mask))


@pytest.mark.parametrize("var", ["a", "epsilon"])
def test_sweep_builds_every_sector_once_at_every_grid_point(monkeypatch, var):
    calls = []

    def counting(op):
        value = op.params.coupling_a if var == "a" else op.params.roots[1] + 1
        calls.append((value, str(op.mask)))
        return build_matrix(op)

    monkeypatch.setattr(cli, "build_matrix", counting)
    lo, hi, steps = Fraction(0), Fraction(7, 4), 8
    cli.sweep_rows(
        var, lo, hi, steps, nvars=2, degree_m=Fraction(2),
        coupling_a=Fraction(1), coupling_b=Fraction(0), roots=None, mask="all",
    )
    masks = [str(mask) for mask in list_valid_masks(ModelParams(2, 0, 0, 2))]
    assert len(masks) == 4
    assert calls == [(value, mask) for value in cli._grid(lo, hi, steps) for mask in masks]


@pytest.mark.parametrize(
    ("var", "lo", "hi", "steps"),
    [
        ("a", Fraction(3, 2), Fraction(3, 2), 1),
        ("a", Fraction(-1), Fraction(2), 2),
        ("a", Fraction(3), Fraction(-2), 7),
        ("epsilon", Fraction(1, 4), Fraction(1, 4), 1),
        ("epsilon", Fraction(0), Fraction(1), 2),
        ("epsilon", Fraction(5, 2), Fraction(-1, 3), 7),
    ],
)
def test_sweep_rows_equal_spectra_built_point_by_point(var, lo, hi, steps):
    nvars, b, m = 2, Fraction(0), Fraction(2)
    rows = cli.sweep_rows(
        var, lo, hi, steps, nvars=nvars, degree_m=m,
        coupling_a=Fraction(3, 2), coupling_b=b,
        roots=(2, Fraction(-3, 2), Fraction(-1, 2)) if var == "a" else None, mask="all",
    )
    expected = []
    for value in cli._grid(lo, hi, steps):
        params = _sweep_params(var, value, nvars, b, m)
        for mask in list_valid_masks(params):
            spectrum = spectrum_of(_direct(var, value, nvars, b, m, mask))
            expected += [
                (value, str(mask), i, v.real, v.imag) for i, v in enumerate(spectrum.values)
            ]
    assert rows == expected


# -- masks ------------------------------------------------------------------------------


def test_masks_table(capsys):
    code, out, _ = run(capsys, "masks")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["mask", "cutoff", "dimension", "valid"]
    assert len(lines) == 1 + 8
    cells = {line.split()[0]: line.split() for line in lines[1:]}
    assert cells["none"][1:] == ["2", "6", "yes"]
    assert cells["12"][1:] == ["1", "3", "yes"]
    assert cells["1"][1:] == ["3/2", "-", "no"]
    assert cells["123"][1:] == ["1/2", "-", "no"]


def test_masks_half_integer_json(capsys):
    code, out, _ = run(capsys, "masks", "--m", "5/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    valid = {r["mask"]: r["dimension"] for r in payload["masks"] if r["valid"]}
    assert valid == {"1": 6, "2": 6, "3": 6, "123": 3}


# -- matrix -----------------------------------------------------------------------------


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "--a", "1/3", "--b", "1/4", "--roots", "2,-3/2,-1/2")
    assert code == 0
    parsed = matrix_from_json(out)
    params = ModelParams(2, "1/3", "1/4", 2, (2, "-3/2", "-1/2"))
    direct = build_matrix(build_gauged_operator(params, GaugeMask(())))
    assert parsed == direct


def test_matrix_default_known_entry(capsys):
    code, out, _ = run(capsys, "matrix")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 6
    assert payload["entries"][1][0] == "20"
    assert payload["entries"][0][1] == "12"  # g2 * (2a + 2b + 1) at the reference roots



def test_matrix_that_differs_from_z_space_exits_1(capsys, monkeypatch):
    def tampered_build(op):
        mat = build_matrix(op)
        rows = [list(row) for row in mat.rows]
        rows[1][0] += 1
        return OperatorMatrix(mat.basis, tuple(map(tuple, rows)))

    monkeypatch.setattr(cli, "build_matrix", tampered_build)
    code, out, err = run(capsys, "matrix")
    assert code == 1 and out == ""
    assert "differs from the z-space images" in err

# -- eigenfunctions ------------------------------------------------------------------------


def test_eigenfunctions_single_variable(capsys):
    code, out, _ = run(capsys, "eigenfunctions", "--n", "1", "--m", "1")
    assert code == 0
    assert "t1" in out
    assert out.count("0.707106781") >= 2  # both eigenvectors of [[0,6],[6,0]]


def _factor_vector(text: str, nvars: int, basis) -> np.ndarray:
    """Coefficient vector over `basis` of a printed polynomial factor."""
    vec = np.zeros(len(basis), dtype=complex)
    parts = re.split(r" ([+-]) ", text)
    for sign, term in zip(["+"] + parts[1::2], parts[0::2]):
        if term.startswith("-"):
            sign, term = ("+" if sign == "-" else "-"), term[1:]
        if term.startswith("("):
            coeff, _, name = term[1:].partition(")")
            name = name.lstrip("*")
        else:
            coeff, _, name = term.partition("*")
        exps = [0] * nvars
        for factor in filter(None, name.split("*")):
            var, _, power = factor.partition("^")
            exps[int(var[1:]) - 1] = int(power or 1)
        vec[basis.index_of(tuple(exps))] = complex(coeff) * (1 if sign == "+" else -1)
    return vec


def test_eigenfunctions_come_from_one_eigendecomposition(capsys, monkeypatch):
    """A point with a complex pair: every printed factor is an eigenvector of
    the exact matrix's float image, from one to_float and one LAPACK eig call
    and no linear solve."""
    calls = {"eig": 0, "solve": 0, "to_float": 0, "eigenvector": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(cli, "to_float", counted("to_float", cli.to_float))
    monkeypatch.setattr(cli, "eigenvector", counted("eigenvector", cli.eigenvector))
    code, out, _ = run(capsys, "eigenfunctions", "--n", "2", "--m", "4", "--a=-3")
    assert code == 0
    assert calls == {"eig": 1, "solve": 0, "to_float": 1, "eigenvector": 1}

    mat = build_matrix(build_gauged_operator(ModelParams(2, -3, 0, 4), GaugeMask(())))
    floats = to_float(mat)
    scale = max(1.0, float(np.linalg.norm(floats)))
    lines = [line for line in out.splitlines() if line.startswith("eigenvalue ")]
    assert len(lines) == mat.dim
    values = []
    for line in lines:
        head, _, factor = line.partition(": polynomial factor ")
        value = complex(head.removeprefix("eigenvalue "))
        values.append(value)
        vec = _factor_vector(factor, 2, mat.basis)
        residual = np.linalg.norm(floats @ vec - value * vec)
        assert residual <= 1e-7 * scale * np.linalg.norm(vec), line
    # one well-separated complex pair; the other split values sit at Jordan blocks
    assert sum(1 for v in values if abs(v.imag) > 1e-4) == 2


def test_eigenfunctions_name_each_basis_monomial_once(capsys, monkeypatch):
    """The basis is named once per command, not once per eigenvector."""
    named: list[tuple[int, ...]] = []
    original = cli._monomial_name

    def counting_name(exponents):
        named.append(exponents)
        return original(exponents)

    monkeypatch.setattr(cli, "_monomial_name", counting_name)
    code, out, _ = run(capsys, "eigenfunctions", "--n", "2", "--m", "4", "--a=-3")
    assert code == 0
    assert out.count("eigenvalue ") == 15
    assert named and len(named) == len(set(named)) <= 15


def test_eigenfunctions_show_gauge_prefix(capsys):
    code, out, _ = run(capsys, "eigenfunctions", "--n", "1", "--m", "3/2", "--mask", "1")
    assert code == 0
    assert "(z_k - 2)^(1/2)" in out


# SHA-256 of the stdout of two eigenfunctions commands, recorded with
# OPENBLAS_NUM_THREADS=1 from the per-term formatter `_term_by_term` below: a
# Jordan point with complex terms (dim 15) and the benchmark's dim-66 sector.
@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (("--n", "2", "--m", "4", "--a=-3"),
         "21bda37381c3709b7b86fa5fb20c1ce3f7e7dc526892f00b6d6f91e8f7148540"),
        (("--n", "2", "--m", "10", "--mask", "none", "--a=1", "--roots=5/3,2/3,-7/3"),
         "cc64edde5a04c23f68b9077c3b5a260d43b518ec4ea3d9590249c778a318efd0"),
    ],
    ids=["jordan", "dim66"],
)
def test_eigenfunctions_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "eigenfunctions", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _term_by_term(vectors: np.ndarray, names: list[str]) -> list[str]:
    """Reference for `cli._polynomial_factors`: each column phased by its entry
    of largest modulus and printed one term at a time."""
    texts = []
    anchors = np.argmax(np.abs(vectors), axis=0)
    for vec, anchor in zip(vectors.T, anchors):
        phase = vec[anchor] / abs(vec[anchor])
        vec = vec / phase
        printed = np.flatnonzero(np.abs(vec) >= 1e-12)
        text = ""
        for c, k in zip(vec[printed].tolist(), printed.tolist()):
            name = names[k]
            if abs(c.imag) < 1e-9:
                sign, c_text = ("-", f"{-c.real:.9g}") if c.real < 0 else ("+", f"{c.real:.9g}")
            else:
                sign, c_text = "+", f"({c.real:.9g}{c.imag:+.9g}j)"
            term = c_text if name == "1" else f"{c_text}*{name}"
            if not text:
                text = term if sign == "+" else f"-{term}"
            else:
                text += f" {sign} {term}"
        texts.append(text)
    return texts


def test_polynomial_factors_match_the_term_by_term_reference():
    """Seeded random complex columns and columns at each formatting edge: a
    real part -0.0, |Im| just under and over 1e-9, |c| just under and over
    1e-12, and a first printed term that is negative or complex.  The edge
    columns hold 1.0 as their largest entry, so phasing leaves them exact."""
    names = [cli._monomial_name(exps) for exps in enumerate_basis(2, 3)]
    dim = len(names)
    rng = np.random.default_rng(7)
    size = 10.0 ** rng.uniform(-14, 0, (dim, 3 * dim))
    angle = np.exp(2j * np.pi * rng.uniform(size=(dim, 3 * dim)))
    random = size * angle
    random[:, dim:2 * dim] = random[:, dim:2 * dim].real  # real columns, random sign
    random[:, 2 * dim:] = random[:, 2 * dim:].real * np.exp(0.3j)  # one shared phase
    edges = []
    for entries in ([-0.0 - 5e-10j, 0.3 + 0.99e-9j, 0.3 - 1.01e-9j, -0.2 - 0.99e-9j],
                    [0.99e-12, -1.01e-12, 1.01e-12j, 0.5 + 1.01e-9j],
                    [-0.4, 0.25, -0.0 + 0.99e-9j, 1e-13 - 1e-13j],
                    [0.2 + 0.3j, -0.5, 0.0, -0.99e-12],
                    [0.0, 0.99e-12j, -1.01e-12 + 0j, 0.7 - 0.0j]):
        column = np.zeros(dim, dtype=complex)
        column[:len(entries)] = entries
        column[dim - 1] = 1.0
        edges.append(column)
    vectors = np.column_stack([random, *edges])
    expected = _term_by_term(vectors, names)
    assert cli._polynomial_factors(vectors, names) == expected
    assert expected[-len(edges):] == [
        "-0 + 0.3*t1 + (0.3-1.01e-09j)*t2 - 0.2*t1^2 + 1*t2^3",
        "-1.01e-12*t1 + 0*t2 + (0.5+1.01e-09j)*t1^2 + 1*t2^3",
        "-0.4 + 0.25*t1 + 0*t2 + 1*t2^3",
        "(0.2+0.3j) - 0.5*t1 + 1*t2^3",
        "-1.01e-12*t2 + 0.7*t1^2 + 1*t2^3",
    ]


def test_one_parser_serves_every_call_without_carrying_state(capsys):
    """The parser is built once per process; a parse error and a one-mask
    spectrum leave a later default spectrum printing every valid sector."""
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--format", "xml"])
    assert info.value.code == 2
    code, out, _ = run(capsys, "spectrum", "--mask", "none")
    assert code == 0 and [s["mask"] for s in json.loads(out)["sectors"]] == ["none"]
    code, out, _ = run(capsys, "spectrum")
    valid = [str(mask) for mask in list_valid_masks(ModelParams(2, 0, 0, 2))]
    assert code == 0 and [s["mask"] for s in json.loads(out)["sectors"]] == valid
    assert len(valid) > 1


# -- verify ----------------------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--only", "counting")
    assert code == 0
    assert "PASS counting" in out
    assert "1 checks, all passed" in out


def test_verify_reports_a_non_cancelling_pole(capsys, monkeypatch):
    def stalled(roots, mask, exponent, coupling_b):
        raise NonCancellingPole(f"gauge exponent {exponent} leaves an uncancelled pole")

    monkeypatch.setattr(verify, "gauge_polynomials", stalled)
    code, out, _ = run(capsys, "verify", "--only", "gauge-exponents")
    assert code == 1
    assert "FAIL gauge-exponents" in out
    assert "pole" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--only", "counting,oscillator", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    # checks always run in their canonical order, whatever --only lists
    assert [c["name"] for c in payload["checks"]] == ["oscillator", "counting"]


# SHA-256 of the stdout of the nine exact checks, whose details print no float;
# `eigensolver`, left out, prints float defects.  Recorded before the
# oscillator, decoupling and counting checks moved from oracles into verify.
EXACT_CHECKS_DIGEST = "a14ea8e4485f8f39535adfb7fc5c3b42a247e4fb80e852f458b14b2fb05a8301"


def test_verify_exact_check_text_is_pinned(capsys):
    exact = ("matrices,closed-forms,oscillator,counting,closure,gauge-exponents,raising,"
             "decoupling,figure-degeneracy")
    code, out, _ = run(capsys, "verify", "--only", exact)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_CHECKS_DIGEST
