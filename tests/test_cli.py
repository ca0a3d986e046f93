"""Command-line behaviour: payload shapes, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import elliptic_qes.cli as cli
import elliptic_qes.verify as verify
from elliptic_qes.cli import main
from elliptic_qes.matrices import OperatorMatrix, build_matrix
from elliptic_qes.model import GaugeMask, ModelParams, list_valid_masks
from elliptic_qes.errors import (
    InvalidDegree,
    NoConvergence,
    NonCancellingPole,
    NotSymmetric,
    OperatorNotClosed,
)
from elliptic_qes.operator import build_gauged_operator
from elliptic_qes.oracles import epsilon_roots
from elliptic_qes.polynomials import Poly
from elliptic_qes.spectral import spectrum_of, to_float
from elliptic_qes.symmetric import enumerate_basis, tau_to_z

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
import diff_cli  # noqa: E402
import tracing  # noqa: E402


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


@pytest.mark.parametrize(
    ("error", "code"),
    [
        (ValueError, 2),
        (InvalidDegree, 2),
        (NotSymmetric, 2),
        (NonCancellingPole, 2),
        (ZeroDivisionError, 2),
        (OSError, 2),
        (NoConvergence, 1),
        (OperatorNotClosed, 1),
    ],
)
def test_main_maps_each_error_to_its_exit_code(capsys, monkeypatch, error, code):
    """A parameter error or a refused input exits 2, a failed computation 1;
    either way `main` prints the message and nothing on stdout."""

    def fail(*args):
        raise error(f"planted {error.__name__}")

    monkeypatch.setattr(cli, "build_gauged_operator", fail)
    assert run(capsys, "spectrum", "--mask", "none") == (
        code, "", f"error: planted {error.__name__}\n")


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


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (("spectrum", "--n", "2", "--m", "1", "--a=1e5000"), "--a"),
        (("matrix", "--n", "2", "--m", "1", "--a=1e5000"), "--a"),
        (("eigenfunctions", "--n", "2", "--m", "1", "--a=1e5000"), "--a"),
        (("masks", "--n", "1", "--m", "1", "--a=1e5000", "--format", "json"), "--a"),
        (("masks", "--n", "1", "--m", "1", "--a=1e5000"), "--a"),
        (("sweep", "--sweep-var", "a", "--range=0:1e5000:2", "--n", "2", "--m", "1"), "--range"),
        (("sweep", "--sweep-var", "epsilon", "--range=0:1:2", "--b=-1e5000"), "--b"),
        (("spectrum", "--m=1e5000"), "--m"),
        (("matrix", "--roots=1e5000,-1e5000,0"), "--roots"),
    ],
)
def test_a_flag_value_too_long_to_print_names_the_flag(capsys, monkeypatch, argv, flag):
    """10^5000 has 5001 digits, above Python's default limit of 4300 for
    int-to-decimal conversion; the value is refused where its flag is parsed."""
    monkeypatch.setattr(cli, "build_gauged_operator", None)
    assert run(capsys, *argv) == (2, "", f"error: {flag} has too many digits to print\n")


def test_a_masked_sector_too_long_to_print_names_m_and_b(capsys):
    """At b = 10^200 + 1/2 a mask of one root has cutoff m + 10^200, and its
    dimension at N = 32 has about 6400 digits; the mask none, at cutoff m,
    has 33."""
    b = f"{2 * 10**200 + 1}/2"
    code, out, err = run(capsys, "masks", "--n", "32", "--m", "1", "--b", b)
    assert (code, out) == (2, "")
    assert err == (f"error: --m = 1, with --b = {b}, gives a sector dimension with too many "
                   "digits to print\n")


@pytest.mark.parametrize(
    "argv",
    [("sweep", "--sweep-var", "a", "--range=1e400:1e400:1", "--n", "1", "--m", "1"),
     ("sweep", "--sweep-var", "epsilon", "--range=1e400:1e400:1", "--n", "1", "--m", "0",
      "--mask", "none")],
)
def test_a_csv_sweep_refuses_a_grid_value_beyond_a_double_before_building(capsys, monkeypatch,
                                                                          argv):
    """The sector's entries fit in a double (a does not enter at N = 1, nor
    eps at cutoff 0), so the JSON output, which writes the value exactly, is
    printed; CSV writes it as a double and refuses it by --range."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["rows"][0]["value"] == str(10**400)
    monkeypatch.setattr(cli, "build_gauged_operator", None)
    assert run(capsys, *argv, "--format", "csv") == (
        2, "", "error: --range gives a grid value too large for a double\n")


def test_a_json_sweep_refuses_a_grid_value_too_long_to_print_before_building(capsys,
                                                                             monkeypatch):
    """Both ends print, but the middle point (lo + hi)/2 has a denominator of
    2 * 10^2200 * 3^4600, about 4400 digits."""
    argv = ("sweep", "--sweep-var", "a", f"--range=1/{10**2200}:1/{3**4600}:3", "--n", "1",
            "--m", "1")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 3 * 5
    monkeypatch.setattr(cli, "build_gauged_operator", None)
    assert run(capsys, *argv, "--format", "json") == (
        2, "", "error: --range gives a grid value with too many digits to print\n")


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
        cli._check_z_space(ModelParams(n, 0, 0, m), none)
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
                cli._check_z_space(ModelParams(n, 0, 0, cutoff), none)
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


# SHA-256 of a one-mask sweep over three points, whose mask text "1" repeats
# on every row, as printed before the value and mask texts were formed once
# per grid point and sector.
@pytest.mark.parametrize(
    ("fmt", "digest"),
    [
        ("csv", "c210ec266861820e5cc77f5cf63e83a22d5d9776b9b73f0f2935ea23eec8c55a"),
        ("json", "3a98380f1cdfefa1ae408617112acc7d2ea2248e18746088595fc7e61b9c253f"),
    ],
)
def test_single_mask_sweep_is_pinned_and_labels_each_row_with_its_own_sector(
    capsys, fmt, digest
):
    argv = ("sweep", "--sweep-var", "a", "--range", "0:1:3", "--n", "2", "--m", "1",
            "--b", "1/2", "--mask", "1", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if fmt == "csv":
        fields = [line.split(",") for line in out.splitlines()[1:]]
        labels = [(Fraction(value), mask) for value, mask, *_ in fields]
    else:
        labels = [(Fraction(row["value"]), row["mask"]) for row in json.loads(out)["rows"]]
    params = ModelParams(2, 0, Fraction(1, 2), 1, (2, -1, -1))
    dim = params.basis_dimension(GaugeMask.from_string("1"))
    assert labels == [(value, "1") for value in cli._grid(Fraction(0), Fraction(1), 3)
                      for _ in range(dim)]


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


def _sweep_csv_rows(capsys, var, lo, hi, steps, *flags):
    """`sweep --format csv` over lo:hi:steps at N=2, m=2, b=0, all masks, as
    (value, mask, index, re, im) rows; the CSV writes floats with repr."""
    code, out, err = run(capsys, "sweep", "--sweep-var", var, "--range", f"{lo}:{hi}:{steps}",
                         "--n", "2", "--m", "2", "--b", "0", "--mask", "all", "--format", "csv",
                         *flags)
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    assert header == "sweep_value,mask,eig_index,re,im"
    return [(float(value), mask, int(i), float(re), float(im))
            for value, mask, i, re, im in (line.split(",") for line in lines)]


_QUARTERS = [Fraction(k, 4) for k in range(8)]


# Each argv runs at N=2, m=2 over the sectors none, 12, 13 and 23, and builds
# every sector once at each value of its grid (the coupling a, or eps on the
# epsilon family at a = 1), in point-then-mask order.
@pytest.mark.parametrize(
    ("var", "argv", "grid"),
    [
        pytest.param("a", ("sweep", "--sweep-var", "a", "--range", "0:7/4:8"), _QUARTERS, id="a"),
        pytest.param("epsilon", ("sweep", "--sweep-var", "epsilon", "--range", "0:7/4:8",
                                 "--a", "1"), _QUARTERS, id="epsilon"),
        pytest.param("a", ("spectrum",), [0], id="spectrum"),
        pytest.param("a", ("sweep", "--sweep-var", "a", "--range", "0:1:1"), [0], id="a-1"),
        pytest.param("a", ("sweep", "--sweep-var", "a", "--range", "0:1:2"), [0, 1], id="a-2"),
        pytest.param("a", ("sweep", "--sweep-var", "a", "--range", "0:1:3"),
                     [0, Fraction(1, 2), 1], id="a-3"),
        pytest.param("a", ("sweep", "--sweep-var", "a", "--range", "0:1:5"),
                     [Fraction(k, 4) for k in range(5)], id="a-5"),
    ],
)
def test_sweep_build_schedule_is_pinned(capsys, monkeypatch, var, argv, grid):
    calls = []

    def counting(op):
        value = op.params.coupling_a if var == "a" else op.params.roots[1] + 1
        calls.append((value, str(op.mask)))
        return build_matrix(op)

    monkeypatch.setattr(cli, "build_matrix", counting)
    code, _, _ = run(capsys, *argv, "--n", "2", "--m", "2", "--mask", "all")
    masks = [str(mask) for mask in list_valid_masks(ModelParams(2, 0, 0, 2))]
    assert masks == ["none", "12", "13", "23"]
    assert (code, calls) == (0, [(value, mask) for value in grid for mask in masks])


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
def test_sweep_rows_equal_spectra_built_point_by_point(capsys, var, lo, hi, steps):
    nvars, b, m = 2, Fraction(0), Fraction(2)
    flags = ("--roots=2,-3/2,-1/2",) if var == "a" else ("--a", "3/2")
    rows = _sweep_csv_rows(capsys, var, lo, hi, steps, *flags)
    expected = []
    for value in cli._grid(lo, hi, steps):
        params = _sweep_params(var, value, nvars, b, m)
        for mask in list_valid_masks(params):
            spectrum = spectrum_of(_direct(var, value, nvars, b, m, mask))
            expected += [
                (float(value), str(mask), i, v.real, v.imag)
                for i, v in enumerate(spectrum.values)
            ]
    assert rows == expected


_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))


@given(nvars=st.integers(1, 3), b=_RATIONAL,
       m=st.builds(Fraction, st.integers(0, 6), st.just(2)), e1=_RATIONAL, e2=_RATIONAL,
       a=st.lists(_RATIONAL, min_size=3, max_size=3))
def test_a_point_on_the_weight_line_is_combined_exactly(nvars, b, m, e1, e2, a):
    """Each sector's weights, and so its matrix, are affine in a: the matrix
    combined from the builds at two couplings equals the build at a third, and
    so does its float image, bit for bit.  One unit of the scalar weight s_0,
    whose term is -N times the identity, changes the third build, so no
    combination stands in for a build; a sweep builds every point."""
    roots = (e1, e2, -e1 - e2)
    assume(len(set(roots)) == 3 and a[0] != a[1])
    params = [ModelParams(nvars, x, b, m, roots) for x in a]
    masks = list_valid_masks(params[0])
    assume(masks)
    t = (a[2] - a[0]) / (a[1] - a[0])
    for mask in masks:
        ops = [build_gauged_operator(p, mask) for p in params]
        first, second, built = map(build_matrix, ops)
        combined = OperatorMatrix(built.basis, [
            [x + t * (y - x) for x, y in zip(r0, r1)]
            for r0, r1 in zip(first.rows, second.rows)])
        assert combined == built
        assert to_float(combined).tobytes() == to_float(built).tobytes()
        d, w = ops[2].weights
        ops[2].__dict__["weights"] = (d, {**w, ("s", 0): w.get(("s", 0), 0) + 1})
        assert build_matrix(ops[2]) != combined, mask


def test_sweep_builds_a_point_whose_table_leaves_the_line(capsys, monkeypatch):
    """A sweep builds every point from that point's own weight table: with one
    unit of the scalar weight s_0, which the ungauged sector has at no a,
    added at a = 2, it builds a = 0, 1, 2 and 3, and the rows at a = 2 are the
    spectrum of the nudged build, not of the unnudged one."""
    builds = []

    def nudging(params, mask):
        op = build_gauged_operator(params, mask)
        if params.coupling_a == 2:
            d, w = op.weights
            op.__dict__["weights"] = (d, {**w, ("s", 0): 1})
        return op

    def counting(op):
        builds.append(op.params.coupling_a)
        return build_matrix(op)

    monkeypatch.setattr(cli, "build_gauged_operator", nudging)
    monkeypatch.setattr(cli, "build_matrix", counting)
    rows = _sweep_csv_rows(capsys, "a", 0, 3, 4, "--mask", "none", "--roots=2,-3/2,-1/2")
    assert builds == [0, 1, 2, 3]
    params = ModelParams(2, 2, 0, 2, (2, Fraction(-3, 2), Fraction(-1, 2)))
    values = spectrum_of(build_matrix(nudging(params, GaugeMask(())))).values
    assert [row[3:] for row in rows if row[0] == 2] == [(v.real, v.imag) for v in values]
    direct = spectrum_of(build_matrix(build_gauged_operator(params, GaugeMask(())))).values
    assert values != direct


def test_a_sweep_whose_built_tables_are_equal_builds_every_point(capsys, monkeypatch):
    """--range=1:1:3 gives three equal points, and the sweep builds every one
    of them; every row equals a build of its own point."""
    builds = []

    def counting(op):
        builds.append(str(op.mask))
        return build_matrix(op)

    monkeypatch.setattr(cli, "build_matrix", counting)
    rows = _sweep_csv_rows(capsys, "a", 1, 1, 3, "--roots=2,-3/2,-1/2")
    masks = [str(mask) for mask in list_valid_masks(ModelParams(2, 1, 0, 2))]
    assert builds == masks * 3
    expected = [(1.0, str(mask), i, v.real, v.imag)
                for mask in list_valid_masks(ModelParams(2, 1, 0, 2))
                for i, v in enumerate(spectrum_of(_direct("a", 1, 2, 0, 2, mask)).values)]
    assert rows == expected * 3


_OVERFLOW = re.compile(r"error: entry \((\d+),(\d+)\) = (-?\d+)/(\d+) overflows a double\n")


def test_sweep_overflow_at_a_later_point_reports_the_entry_its_build_reports(
        capsys, monkeypatch):
    """Over 0:H:4 the sector none of N=2, m=1 fits in a double at a = 0 and
    H/3, and not at 2H/3: the sweep builds the first three points and exits 2
    naming the entry (i, j) and the rational value that the point's own build
    reports."""
    def matrix_at(a):
        return build_matrix(build_gauged_operator(ModelParams(2, a, 0, 1), GaugeMask(())))

    slope = max(abs(x - y) for r0, r1 in zip(matrix_at(0).rows, matrix_at(1).rows)
                for x, y in zip(r0, r1))
    grid = cli._grid(Fraction(0), Fraction(2 * 2**1024 // slope), 4)
    to_float(matrix_at(grid[0]))
    to_float(matrix_at(grid[1]))
    with pytest.raises(ValueError) as built:
        to_float(matrix_at(grid[2]))
    builds = []

    def counting(op):
        builds.append(op.params.coupling_a)
        return build_matrix(op)

    monkeypatch.setattr(cli, "build_matrix", counting)
    code, out, err = run(capsys, "sweep", "--sweep-var", "a", f"--range=0:{grid[-1]}:4",
                         "--n", "2", "--m", "1", "--mask", "none")
    assert (code, out, builds) == (2, "", grid[:3])
    i, j, k, d = map(int, _OVERFLOW.fullmatch(err).groups())
    i0, j0, k0, d0 = map(int, _OVERFLOW.fullmatch(f"error: {built.value}\n").groups())
    assert (i, j, Fraction(k, d)) == (i0, j0, Fraction(k0, d0))


def test_a_traced_sweep_builds_every_sector_at_every_point(tmp_path):
    """A 5-point a-sweep over the four sectors of N=2, m=2 assembles each
    sector at each point and diagonalizes it from one float image."""
    argv = ["sweep", "--sweep-var", "a", "--range", "0:2:5", "--n", "2", "--m", "2",
            "--roots=2,-3/2,-1/2"]
    dims = [ModelParams(2, 0, 0, 2).basis_dimension(mask)
            for mask in list_valid_masks(ModelParams(2, 0, 0, 2))]
    tracer = tracing.Tracer(tmp_path / "spans.csv.gz")
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            tracer.begin_op(0)
            code = main(argv)
            calls = tracer.end_op()
    finally:
        tracer.close()
    assert code == 0 and len(dims) == 4
    assert calls["matrices.build_matrix.calls"] == 5 * 4
    assert calls["matrices.build_matrix.columns"] == 5 * sum(dims)
    assert calls["operator.build_gauged_operator.calls"] == 5 * 4
    assert calls["spectral.spectrum_of.calls"] == calls["spectral.to_float.calls"] == 5 * 4


# The sweep's flag conflicts, each with the error it reports first: --range,
# then --roots' format, then --a against an a-sweep, then --m, --a and --b as
# rationals, then --roots against an epsilon sweep.
@pytest.mark.parametrize(
    ("flags", "error"),
    [
        (("--sweep-var", "epsilon", "--roots", "2,-1,-1"),
         "an epsilon sweep fixes the root family; drop --roots"),
        (("--sweep-var", "a", "--a", "1"), "the swept coupling comes from --range; drop --a"),
        (("--sweep-var", "epsilon", "--roots", "2,,-1"),
         "--roots needs three comma-separated rationals, got '2,,-1'"),
        (("--sweep-var", "a", "--roots", "2,,-1"),
         "--roots needs three comma-separated rationals, got '2,,-1'"),
        (("--sweep-var", "epsilon", "--roots", "2,,-1", "--a", "1"),
         "--roots needs three comma-separated rationals, got '2,,-1'"),
        (("--sweep-var", "a", "--roots", "2,,-1", "--a", "1"),
         "--roots needs three comma-separated rationals, got '2,,-1'"),
        (("--sweep-var", "a", "--m", "x", "--roots", "2,,-1"),
         "--roots needs three comma-separated rationals, got '2,,-1'"),
        (("--sweep-var", "epsilon", "--m", "x", "--roots", "2,-1,-1"),
         "not a rational number: 'x'"),
        (("--sweep-var", "a", "--a", "x", "--m", "y"),
         "the swept coupling comes from --range; drop --a"),
        (("--sweep-var", "epsilon", "--a", "x", "--b", "y"), "not a rational number: 'x'"),
        (("--sweep-var", "a", "--m", "x", "--b", "y"), "not a rational number: 'x'"),
        (("--sweep-var", "epsilon", "--range", "0:1:0", "--roots", "2,,-1"),
         "--range needs at least one step, got 0"),
    ],
)
def test_sweep_flag_conflicts_exit_2_in_order(capsys, flags, error):
    range_flags = () if "--range" in flags else ("--range", "0:1:2")
    assert run(capsys, "sweep", *range_flags, *flags) == (2, "", f"error: {error}\n")


# -- eigenvalue records ------------------------------------------------------------------

_SPECTRUM_N4 = ("spectrum", "--n", "4", "--m", "4", "--mask", "all", "--a=1/2",
                "--roots=3/2,1/2,-2")
_JORDAN = ("spectrum", "--n", "2", "--m", "4", "--a=-3")


# SHA-256 of the stdout of spectrum and all-mask sweeps, as printed by
# json.dumps(payload, indent=2) and per-row f-strings, recorded with
# OPENBLAS_NUM_THREADS=1 and 2, which agree.  The Jordan point prints complex
# values.
@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (_SPECTRUM_N4 + ("--format", "json"),
         "99f311cc548186e01572db37423f553cfb4c768b70b177c246725b031f93743f"),
        (_SPECTRUM_N4 + ("--format", "csv"),
         "e80ca012ab1e386b198c261eff5e86cc3cfff43b49a3ae924a15a2ef8b37218e"),
        (_JORDAN + ("--format", "json"),
         "85a867762c0c9d14bb62e03598df9fa3cec4cc91c396df6b8dec85fc8bebd7cd"),
        (_JORDAN + ("--format", "csv"),
         "181f9b4bc8df1ed5d352f15f6a7ab248ab0c835793bc6e24524fd3cf7962170d"),
        (("sweep", "--sweep-var", "epsilon", "--range", "0:1/2:3", "--mask", "all",
          "--format", "json"),
         "ffe79f84d8eb3e2b3097dd77dc213c30adbc3db7cc07b5b9fb24f1978cc2bb6f"),
        (("sweep", "--sweep-var", "a", "--range", "0:1:3", "--n", "2", "--m", "4",
          "--roots=2,-3/2,-1/2", "--mask", "all", "--format", "json"),
         "cf142cb53f831d32eb10bec5bd0637a73286b0a511af42187320c568ac1100a6"),
    ],
    ids=["spectrum-n4-json", "spectrum-n4-csv", "jordan-json", "jordan-csv", "sweep-epsilon-json",
         "sweep-a-json"],
)
def test_eigenvalue_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_SWEEP = ("sweep", "--sweep-var", "a", "--range", "0:1:2")


@pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.inf), -math.inf])
@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--format", "json"), ("spectrum", "--format", "csv"),
     _SWEEP + ("--format", "csv"), _SWEEP + ("--format", "json"), ("eigenfunctions",)],
    ids=["spectrum-json", "spectrum-csv", "sweep-csv", "sweep-json", "eigenfunctions"],
)
def test_a_non_finite_eigenvalue_from_lapack_fails_the_trace_gate(capsys, monkeypatch, argv,
                                                                  bad):
    """A NaN or infinite eigenvalue where LAPACK returns it makes the eigenvalue
    sum NaN or infinite, so the trace gate refuses it: exit 1, nothing printed."""
    eigvals, eig = np.linalg.eigvals, np.linalg.eig

    def corrupted(values):
        values = values.astype(complex)
        values[2] = bad
        return values

    def corrupted_eig(a):
        values, vectors = eig(a)
        return corrupted(values), vectors

    monkeypatch.setattr(np.linalg, "eigvals", lambda a: corrupted(eigvals(a)))
    monkeypatch.setattr(np.linalg, "eig", corrupted_eig)
    # one sector, "13" at cutoff 1, of dimension 3
    code, out, err = run(capsys, *argv, "--n", "2", "--m", "1", "--b", "1/2", "--mask", "13")
    assert (code, out) == (1, "")
    by = "nan" if np.isnan(bad) else "inf"
    assert err.startswith(f"error: eigenvalue sum deviates from trace by {by} (allowed ")


def test_eigenvalue_json_does_not_use_the_pure_python_encoder(capsys, monkeypatch):
    """json.dumps(..., indent=2) encodes through `json.encoder._make_iterencode`,
    in pure Python; the spectrum and sweep JSON never reach it."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"x": [1.5]}, indent=2)
    for argv in [("spectrum", "--format", "json"), _SWEEP + ("--format", "json")]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)


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
    params = ModelParams(2, "1/3", "1/4", 2, (2, "-3/2", "-1/2"))
    direct = build_matrix(build_gauged_operator(params, GaugeMask(())))
    assert json.loads(out)["entries"] == [[str(x) for x in row] for row in direct.rows]


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


_MODEL_OPTIONS = {"--n": ("n", None, False, int), "--m": ("m", None, False, None),
                  "--b": ("b", None, False, None), "--roots": ("roots", None, False, None),
                  "--a": ("a", None, False, None), "--out": ("out", None, False, None)}
_MODEL_DEFAULTS = {"n": 2, "m": "2", "b": "0", "roots": "2,-1,-1", "a": "0", "out": None}
_JSON_CSV = ("format", ("json", "csv"), False, None)
_TEXT_JSON = ("format", ("text", "json"), False, None)
_MASK = ("mask", None, False, None)

# Per subcommand: each option string's (dest, choices, required, type), and
# the value of every dest whose flag is left out.
CLI_SURFACE = {
    "matrix": ({**_MODEL_OPTIONS, "--mask": _MASK, "--format": _JSON_CSV},
               {**_MODEL_DEFAULTS, "mask": "none", "format": "json", "func": "cmd_matrix"}),
    "spectrum": ({**_MODEL_OPTIONS, "--mask": _MASK, "--format": _JSON_CSV},
                 {**_MODEL_DEFAULTS, "mask": "all", "format": "json", "func": "cmd_spectrum"}),
    "sweep": ({**_MODEL_OPTIONS, "--mask": _MASK, "--format": _JSON_CSV,
               "--sweep-var": ("sweep_var", ("epsilon", "a"), True, None),
               "--range": ("range", None, True, None)},
              {**_MODEL_DEFAULTS, "roots": None, "a": None, "mask": "all", "format": "csv",
               "func": "cmd_sweep"}),
    "masks": ({**_MODEL_OPTIONS, "--format": _TEXT_JSON},
              {**_MODEL_DEFAULTS, "format": "text", "func": "cmd_masks"}),
    "eigenfunctions": ({**_MODEL_OPTIONS, "--mask": _MASK},
                       {**_MODEL_DEFAULTS, "mask": "none", "func": "cmd_eigenfunctions"}),
    "verify": ({"--only": ("only", None, False, None), "--format": _TEXT_JSON,
                "--out": ("out", None, False, None)},
               {"only": None, "format": "text", "out": None, "func": "cmd_verify"}),
}


def _surface(parser, name):
    """The option strings with their dests, choices, required flags and types,
    and the value of every dest whose flag is left out, of subcommand
    ``name``'s ``parser``."""
    options = {flag: (action.dest, action.choices, action.required, action.type)
               for action in parser._actions for flag in action.option_strings
               if action.dest != "help"}
    required = ["--sweep-var", "a", "--range", "0:1:2"] if name == "sweep" else []
    defaults = vars(parser.parse_args(required))
    for dest in ("sweep_var", "range"):
        defaults.pop(dest, None)
    defaults["func"] = defaults["func"].__name__
    return options, defaults


def test_the_command_line_surface_is_pinned():
    """Every subcommand keeps its option strings, their dests, choices,
    required flags and types, and the default of each dest, in the full
    parser and in its own parser, whose help is the full parser's subparser
    text."""
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert list(commands.choices) == list(CLI_SURFACE) == list(cli._COMMANDS)
    for name, sub in commands.choices.items():
        own = cli.build_parser(name)
        assert _surface(sub, name) == _surface(own, name) == CLI_SURFACE[name], name
        assert own.prog == f"elliptic-qes {name}"
        assert own.format_help() == sub.format_help(), name


def test_one_parser_serves_every_call_without_carrying_state(capsys):
    """Each parser, the full one and each subcommand's, is built once per
    process; a parse error and a one-mask spectrum leave a later default
    spectrum printing every valid sector."""
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser("spectrum") is cli.build_parser("spectrum")
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--format", "xml"])
    assert info.value.code == 2
    code, out, _ = run(capsys, "spectrum", "--mask", "none")
    assert code == 0 and [s["mask"] for s in json.loads(out)["sectors"]] == ["none"]
    code, out, _ = run(capsys, "spectrum")
    valid = [str(mask) for mask in list_valid_masks(ModelParams(2, 0, 0, 2))]
    assert code == 0 and [s["mask"] for s in json.loads(out)["sectors"]] == valid
    assert len(valid) > 1


def test_a_command_line_that_names_a_subcommand_builds_one_parser(capsys, monkeypatch):
    """With no parser built yet, a spectrum call constructs one
    `ArgumentParser`, its own, and not the full parser's seven."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        code, _, _ = run(capsys, "spectrum", "--mask", "none", "--format", "csv")
        assert code == 0 and built == ["elliptic-qes spectrum"]
        built.clear()
        cli.build_parser()
        assert len(built) == 7
    finally:
        cli.build_parser.cache_clear()


def _exit(capsys, call, argv):
    """The exit code, stdout and stderr of ``call(argv)``, which exits."""
    with pytest.raises(SystemExit) as info:
        call(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--foo"], ["spectrum", "--n", "2", "extra"], ["sweep"], ["-h", "spectrum"],
     ["bogus"], [], ["spectrum", "-h"], ["masks", "--", "x"], ["spectrum", "--format", "xml"]],
)
def test_a_line_the_subcommand_parser_cannot_take_exits_as_the_full_parser_does(capsys, argv):
    """Help, an unknown flag, a stray positional, a missing required flag, an
    unknown or missing command: `main` exits with the code, stdout and stderr
    of the full parser's `parse_args`."""
    assert _exit(capsys, main, argv) == _exit(capsys, cli.build_parser().parse_args, argv)


def test_the_differential_argv_are_seeded_and_reach_every_subcommand_and_exit_code(capsys):
    """`scripts/diff_cli.py` draws the same argv for a seed, and its first 60
    for seed 0 reach all six subcommands and exit with 0 and with 2."""
    argvs = diff_cli.generate(60, 0)
    assert argvs == diff_cli.generate(60, 0) != diff_cli.generate(60, 1)
    assert {argv[0] for argv in argvs} == set(diff_cli.SUBCOMMANDS)
    codes = set()
    for argv in argvs:
        try:
            codes.add(main(argv))
        except SystemExit as exc:
            codes.add(exc.code)
    capsys.readouterr()
    assert {0, 2} <= codes


def test_the_differential_misuse_is_seeded_and_takes_the_parser_paths(capsys):
    """`scripts/diff_cli.py` changes about one argv in twenty, the same ones
    for a seed, and among 1000 of seed 0 puts -h or --help before and after
    the command, an unknown command and an empty argv; each of those exits
    with the full parser's code."""
    argvs = diff_cli.generate(1000, 0)
    changed = diff_cli.misuse(argvs, 0)
    assert changed == diff_cli.misuse(argvs, 0) != diff_cli.misuse(argvs, 1)
    assert argvs == diff_cli.generate(1000, 0)
    moved = [b for a, b in zip(argvs, changed) if a != b]
    assert 25 <= len(moved) <= 80
    helps = ("-h", "--help")
    parser_paths = [[], next(b for b in moved if b and b[0] in helps),
                    next(b for b in moved if b and b[-1] in helps and b[0] not in helps),
                    next(b for b in moved if b and b[0] not in diff_cli.SUBCOMMANDS + helps)]
    assert [] in moved
    for argv in map(cli._join_negative_values, parser_paths):
        assert _exit(capsys, main, argv) == _exit(capsys, cli.build_parser().parse_args, argv)


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
# `eigensolver`, left out, prints float defects.  Recorded when `oscillator`
# moved onto the closed-form levels of `decoupling`'s a = 0 sectors.
EXACT_CHECKS_DIGEST = "5fe662528664e678ea6c36d9e7e3eb4336e3383774193826ff4f9ea1d1ba30ba"


def test_verify_exact_check_text_is_pinned(capsys):
    exact = ("matrices,closed-forms,oscillator,counting,closure,gauge-exponents,raising,"
             "decoupling,figure-degeneracy")
    code, out, _ = run(capsys, "verify", "--only", exact)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_CHECKS_DIGEST
