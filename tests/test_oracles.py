"""Closed-form reference data: counting, degenerate spectra, oscillator, decoupling."""

from fractions import Fraction

import pytest

from elliptic_qes.matrices import build_matrix
from elliptic_qes.model import ModelParams, list_valid_masks
from elliptic_qes.operator import build_gauged_operator
from elliptic_qes.oracles import (
    DEGENERATE_ROOTS,
    count_symmetric_solutions,
    counting_formula,
    decoupling_check,
    degenerate_closed_forms,
    epsilon_roots,
    oscillator_energy,
    oscillator_membership,
    reference_double_mask_matrix,
)
from elliptic_qes.polynomials import from_roots


# -- counting ---------------------------------------------------------------------


def test_two_particle_quartic_count():
    report = count_symmetric_solutions(2, 2)
    assert report.total == 15
    assert report.formula == 15
    assert report.matches
    by_mask = {s.mask: (s.cutoff, s.dimension) for s in report.sectors}
    assert by_mask == {
        "none": (2, 6),
        "12": (1, 3),
        "13": (1, 3),
        "23": (1, 3),
    }


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_one_particle_integer_count(m):
    report = count_symmetric_solutions(1, m)
    assert report.total == 4 * m + 1
    assert report.matches


@pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)])
def test_one_particle_half_integer_count(m):
    report = count_symmetric_solutions(1, m)
    assert report.total == 4 * m + 1
    assert report.matches


def test_smallest_half_integer_sectors():
    report = count_symmetric_solutions(1, Fraction(1, 2))
    assert report.total == 3
    assert sorted(s.mask for s in report.sectors) == ["1", "2", "3"]
    assert all(s.cutoff == 0 and s.dimension == 1 for s in report.sectors)


@pytest.mark.parametrize(
    ("nvars", "m"),
    [(n, Fraction(k, 2)) for n in (2, 3, 4) for k in range(0, 9)],
)
def test_formula_matches_enumeration(nvars, m):
    assert count_symmetric_solutions(nvars, m).matches


def test_formula_rejects_bad_degree():
    with pytest.raises(ValueError):
        counting_formula(2, Fraction(1, 3))
    with pytest.raises(ValueError):
        counting_formula(2, -1)


def test_count_away_from_reference_coupling():
    # At b = 1/2 only the unmasked sector survives; the closed-form count is
    # specific to b = 0, so the report flags the mismatch instead of raising.
    report = count_symmetric_solutions(2, 2, coupling_b=Fraction(1, 2))
    assert report.total == 6
    assert not report.matches


# -- degenerate closed forms ----------------------------------------------------------


def test_degenerate_closed_forms_at_zero_coupling():
    forms = degenerate_closed_forms(0)
    assert sorted(forms.unshared) == [-40, -28, 8]
    assert sorted(forms.shared) == [-16, 20, 56]
    assert sorted(forms.paired) == [-34, -10, 14]


def test_degenerate_closed_forms_linear_in_coupling():
    forms = degenerate_closed_forms(1)
    assert -8 * (5 + 4) in forms.unshared
    assert -8 * (2 + 1) in forms.shared
    assert -2 * (17 + 10) in forms.paired


def test_sector_values_sharing_structure():
    forms = degenerate_closed_forms(Fraction(1, 2))
    assert forms.sector_values("13") == forms.sector_values("12")
    assert len(forms.sector_values("none")) == 6
    assert set(forms.sector_values("23")) <= set(forms.sector_values("none"))
    assert sum(len(forms.sector_values(mask)) for mask in ("none", "23", "13", "12")) == 15
    with pytest.raises(ValueError):
        forms.sector_values("1")


@pytest.mark.parametrize("a", ["-7/2", "-3", "-2", "-3/2", "-5/4", "-1", "-1/2"])
def test_closed_forms_hold_exactly_where_levels_cross(a):
    """The seven rational a where two closed-form levels of the 6-dimensional
    sector meet; five are Jordan-block points (a = -1 has a block of size 3),
    where rounding splits the floats by eps^(1/k), so a float comparison at
    1e-9 fails at a = -3, -2 and -1.  The characteristic polynomials agree
    exactly in every sector."""
    params = ModelParams(2, Fraction(a), 0, 2, DEGENERATE_ROOTS)
    forms = degenerate_closed_forms(Fraction(a))
    for mask in list_valid_masks(params):
        mat = build_matrix(build_gauged_operator(params, mask))
        assert mat.charpoly() == from_roots(forms.sector_values(str(mask))), mask


# -- oscillator limit -------------------------------------------------------------------


def test_oscillator_energy_examples():
    assert oscillator_energy(0, 0) == -40
    assert oscillator_energy(2, 2) == -16
    assert oscillator_energy(1, 1) == -34


def assignment(report, mask, value):
    [found] = [a for a in report.assignments if a.mask == mask and a.eigenvalue == value]
    return found


def test_oscillator_membership():
    report = oscillator_membership()
    assert report.ok
    assert len(report.assignments) == 15
    assert assignment(report, "23", -16).levels == (2, 2)
    assert assignment(report, "13", -34).levels == (1, 1)
    assert report.sector_parities == {
        "none": "even",
        "23": "even",
        "13": "odd",
        "12": "odd",
    }
    for a in report.assignments:
        j1, j2 = a.levels
        assert a.eigenvalue == oscillator_energy(j1, j2)


# -- decoupled limit ----------------------------------------------------------------------


def power_sums(values, count):
    return tuple(sum(Fraction(x) ** k for x in values) for k in range(count))


def test_decoupling_reports():
    report = decoupling_check(0, 1)
    assert report.ok
    assert report.one_particle == power_sums((-6, 6), 4)
    assert report.two_particle == report.pair_sums == power_sums((-12, 0, 12), 4)

    report = decoupling_check(0, 2)
    assert report.ok
    assert report.one_particle == power_sums((-20, -8, 28), 7)


def test_decoupling_with_shifted_exponent():
    report = decoupling_check(Fraction(1, 4), 2)
    assert report.ok
    assert report.one_particle == power_sums((-26, -8, 34), 7)


# -- helpers ------------------------------------------------------------------------------


def test_epsilon_root_family():
    assert epsilon_roots(0) == DEGENERATE_ROOTS
    roots = epsilon_roots(Fraction(1, 2))
    assert roots == (2, Fraction(-1, 2), Fraction(-3, 2))
    assert sum(roots) == 0


def test_reference_double_mask_index_validation():
    with pytest.raises(ValueError):
        reference_double_mask_matrix(0, DEGENERATE_ROOTS, 0)
    with pytest.raises(ValueError):
        reference_double_mask_matrix(0, DEGENERATE_ROOTS, 4)
