"""Closed-form reference data: counting, degenerate spectra, oscillator, decoupling."""

from fractions import Fraction

import pytest

from elliptic_qes import verify
from elliptic_qes.matrices import build_matrix
from elliptic_qes.model import GaugeMask, ModelParams, list_valid_masks
from elliptic_qes.operator import build_gauged_operator
from elliptic_qes.oracles import (
    DEGENERATE_ROOTS,
    counting_formula,
    degenerate_closed_forms,
    epsilon_roots,
    oscillator_energy,
    reference_double_mask_matrix,
)
from elliptic_qes.polynomials import from_roots


# -- counting ---------------------------------------------------------------------


def sectors(nvars, m, b=0):
    """Each valid sector's (cutoff, dimension), by mask name."""
    params = ModelParams(nvars, 0, b, m)
    return {str(mask): (params.cutoff(mask), params.basis_dimension(mask))
            for mask in list_valid_masks(params)}


def total(nvars, m, b=0):
    """The summed dimension of the valid sectors."""
    return sum(dimension for _, dimension in sectors(nvars, m, b).values())


def test_two_particle_quartic_count():
    assert total(2, 2) == counting_formula(2, 2) == 15
    assert sectors(2, 2) == {
        "none": (2, 6),
        "12": (1, 3),
        "13": (1, 3),
        "23": (1, 3),
    }


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_one_particle_integer_count(m):
    assert total(1, m) == counting_formula(1, m) == 4 * m + 1


@pytest.mark.parametrize("m", [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)])
def test_one_particle_half_integer_count(m):
    assert total(1, m) == counting_formula(1, m) == 4 * m + 1


def test_smallest_half_integer_sectors():
    assert total(1, Fraction(1, 2)) == counting_formula(1, Fraction(1, 2)) == 3
    assert sectors(1, Fraction(1, 2)) == {"1": (0, 1), "2": (0, 1), "3": (0, 1)}


@pytest.mark.parametrize(
    ("nvars", "m"),
    [(n, Fraction(k, 2)) for n in (2, 3, 4) for k in range(0, 9)],
)
def test_formula_matches_enumeration(nvars, m):
    assert total(nvars, m) == counting_formula(nvars, m)


def test_formula_rejects_bad_degree():
    with pytest.raises(ValueError):
        counting_formula(2, Fraction(1, 3))
    with pytest.raises(ValueError):
        counting_formula(2, -1)


def test_count_away_from_reference_coupling():
    # At b = 1/2 only the unmasked sector survives; the closed-form count is
    # specific to b = 0, so the sector total differs from it.
    assert sectors(2, 2, b=Fraction(1, 2)) == {"none": (2, 6)}
    assert total(2, 2, b=Fraction(1, 2)) == 6 != counting_formula(2, 2)


# -- degenerate closed forms ----------------------------------------------------------


def test_degenerate_closed_forms_at_zero_coupling():
    forms = degenerate_closed_forms(0)
    assert forms["none"] == (-40, -28, -16, 8, 20, 56)
    assert forms["23"] == (-16, 20, 56)
    assert forms["13"] == forms["12"] == (-34, -10, 14)


def test_degenerate_closed_forms_linear_in_coupling():
    forms = degenerate_closed_forms(1)
    assert -8 * (5 + 4) in forms["none"] and -8 * (5 + 4) not in forms["23"]
    assert -8 * (2 + 1) in forms["23"]
    assert -2 * (17 + 10) in forms["13"]


def test_sector_values_sharing_structure():
    forms = degenerate_closed_forms(Fraction(1, 2))
    assert set(forms) == {"none", "23", "13", "12"}
    assert forms["13"] is forms["12"]
    assert len(forms["none"]) == 6
    assert set(forms["23"]) <= set(forms["none"])
    assert sum(len(values) for values in forms.values()) == 15
    assert all(list(values) == sorted(values) for values in forms.values())


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
        assert mat.charpoly() == from_roots(forms[str(mask)]), mask


# -- oscillator limit -------------------------------------------------------------------


def test_oscillator_energy_examples():
    assert oscillator_energy(0, 0) == -40
    assert oscillator_energy(2, 2) == -16
    assert oscillator_energy(1, 1) == -34


def test_oscillator_membership():
    """The `oscillator` check divides all 15 eigenvalues out as even levels;
    the sectors that mask root 1 land on odd (j1, j2), the others on even."""
    [result] = verify.run_checks(only=["oscillator"])
    assert result.passed
    assert result.detail == (
        "all 15 eigenvalues are even oscillator levels, with multiplicity "
        "(sector parities 12:odd, 13:odd, 23:even, none:even)")


# -- decoupled limit ----------------------------------------------------------------------


def charpoly(nvars, m, b=0):
    """The ungauged sector's characteristic polynomial at a = 0, roots (2, -1, -1)."""
    params = ModelParams(nvars, 0, b, m, DEGENERATE_ROOTS)
    return build_matrix(build_gauged_operator(params, GaugeMask(()))).charpoly()


def test_decoupling_reports():
    assert charpoly(1, 1) == from_roots((-6, 6))
    assert charpoly(2, 1) == from_roots((-12, 0, 12))  # the pairwise sums of -6, 6
    assert charpoly(1, 2) == from_roots((-20, -8, 28))
    [result] = verify.run_checks(only=["decoupling"])
    assert result.passed, result.detail


def test_decoupling_with_shifted_exponent():
    assert charpoly(1, 2, b=Fraction(1, 4)) == from_roots((-26, -8, 34))


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
