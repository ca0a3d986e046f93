"""Parameter sets, gauge masks, and sector bookkeeping."""

import dataclasses
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elliptic_qes.errors import InvalidDegree
from elliptic_qes.model import (
    ALL_MASKS,
    GaugeMask,
    ModelParams,
    cubic_invariants,
    external_field_coupling,
    list_valid_masks,
)


def test_mask_parsing():
    assert GaugeMask.from_string("none").indices == ()
    assert GaugeMask.from_string("").indices == ()
    assert GaugeMask.from_string("31").indices == (1, 3)
    assert GaugeMask.from_string("123").indices == (1, 2, 3)
    assert str(GaugeMask(())) == "none"
    assert str(GaugeMask((2, 3))) == "23"
    with pytest.raises(ValueError):
        GaugeMask.from_string("4")
    with pytest.raises(ValueError):
        GaugeMask((2, 1))
    assert 2 in GaugeMask((2, 3))
    assert 1 not in GaugeMask((2, 3))


def test_all_masks_listing():
    assert len(ALL_MASKS) == 8
    assert [str(m) for m in ALL_MASKS] == [
        "none", "1", "2", "3", "12", "13", "23", "123",
    ]


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 0, 0, 1)
    with pytest.raises(ValueError):
        ModelParams(2, 0, 0, 1, (1, 1, 1))  # roots must sum to zero
    with pytest.raises(TypeError):
        ModelParams(2, 0.5, 0, 1)  # binary floats are not exact


@pytest.mark.parametrize("nvars", [2.0, 2.5, Fraction(2), "2", True, False])
def test_nvars_that_is_not_an_int_is_refused_at_construction(nvars):
    """A float, Fraction or str particle number, or a bool, used to pass and
    fail deep in the matrix build (True with an IndexError)."""
    with pytest.raises(TypeError, match="nvars|integer"):
        ModelParams(nvars, 0, 0, 1)


def test_nvars_takes_what_operator_index_takes():
    params = ModelParams(np.int64(2), 0, 0, 1)
    assert type(params.nvars) is int
    assert params == ModelParams(2, 0, 0, 1) and hash(params) == hash(ModelParams(2, 0, 0, 1))


def test_the_roots_sum_test_runs_in_ints_with_one_message(monkeypatch):
    """ModelParams and cubic_invariants share one sum-to-zero test over the
    roots' common denominator: building a parameter set from Fractions forms
    no Fraction, and both refuse a non-zero sum with the same text."""
    a, b, m = Fraction(2, 3), Fraction(-1, 2), Fraction(3)
    roots = (Fraction(5, 9), Fraction(-3, 11), Fraction(-28, 99))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    ModelParams(2, a, b, m, roots)
    monkeypatch.undo()
    assert made == []
    bad = (Fraction(1, 2), Fraction(1), Fraction(-1))
    for build in (lambda: ModelParams(2, 0, 0, 1, bad), lambda: cubic_invariants(bad)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "roots must sum to zero, got 1/2 + 1 + -1"

def test_cubic_invariants():
    # roots (2, -1, -1): g2 = 12, g3 = 8
    assert cubic_invariants((2, -1, -1)) == (Fraction(12), Fraction(8))
    g2, g3 = cubic_invariants((Fraction(2), Fraction(-3, 2), Fraction(-1, 2)))
    # g2 = -4(e1 e2 + e1 e3 + e2 e3), g3 = 4 e1 e2 e3
    assert g2 == -4 * (2 * Fraction(-3, 2) + 2 * Fraction(-1, 2) + Fraction(3, 4))
    assert g3 == 4 * 2 * Fraction(-3, 2) * Fraction(-1, 2)
    with pytest.raises(ValueError):
        cubic_invariants((1, 2, 3))


def test_shifted_degree():
    p = ModelParams(2, 0, 0, 2)
    assert p.shifted_degree(GaugeMask(())) == 2
    assert p.shifted_degree(GaugeMask((1, 2))) == 1
    assert p.shifted_degree(GaugeMask((1,))) == Fraction(3, 2)
    half = ModelParams(2, 0, 0, Fraction(5, 2))
    assert half.shifted_degree(GaugeMask((3,))) == 2
    assert half.shifted_degree(GaugeMask((1, 2, 3))) == 1


def test_valid_masks_integer_degree():
    p = ModelParams(2, 0, 0, 2)
    assert [str(m) for m in list_valid_masks(p)] == ["none", "12", "13", "23"]
    assert p.basis_dimension(GaugeMask(())) == 6
    assert p.basis_dimension(GaugeMask((1, 2))) == 3
    with pytest.raises(InvalidDegree):
        p.basis_dimension(GaugeMask((1,)))


def test_valid_masks_half_integer_degree():
    p = ModelParams(2, 0, 0, Fraction(5, 2))
    assert [str(m) for m in list_valid_masks(p)] == ["1", "2", "3", "123"]
    assert p.basis_dimension(GaugeMask((1,))) == 6
    assert p.basis_dimension(GaugeMask((1, 2, 3))) == 3


def test_valid_masks_generic_and_degenerate_couplings():
    assert [str(m) for m in list_valid_masks(ModelParams(2, 0, Fraction(1, 4), 2))] == ["none"]
    assert [str(m) for m in list_valid_masks(ModelParams(2, 0, Fraction(1, 3), 1))] == ["none"]
    # at b = 1/2 the gauge exponent vanishes and all masks collapse to one sector
    assert [str(m) for m in list_valid_masks(ModelParams(2, 0, Fraction(1, 2), 2))] == ["none"]
    assert list_valid_masks(ModelParams(2, 0, Fraction(1, 2), Fraction(1, 2))) == ()


def test_gauge_exponent():
    assert ModelParams(2, 0, 0, 2).gauge_exponent() == Fraction(1, 2)
    assert ModelParams(2, 0, Fraction(1, 4), 2).gauge_exponent() == Fraction(1, 4)
    assert ModelParams(2, 0, Fraction(1, 2), 2).gauge_exponent() == 0


def test_field_coupling_product():
    # [2m + 2a(N-1) + 4b][2m + 1 + 2a(N-1) + 2b]
    assert external_field_coupling(ModelParams(2, 0, 0, 2)) == 20
    assert external_field_coupling(ModelParams(1, Fraction(7, 3), 0, 1)) == 6
    assert external_field_coupling(ModelParams(1, 0, 0, 0)) == 0
    # N=3, a=1/2, b=1/4, m=1: brackets are 5 and 11/2
    assert external_field_coupling(
        ModelParams(3, Fraction(1, 2), Fraction(1, 4), 1)
    ) == Fraction(55, 2)


def rationals(lo: int, hi: int):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 12))


@given(rationals(-6, 6), st.one_of(rationals(-6, 6), st.just(Fraction(1, 2))),
       rationals(-6, 12), st.integers(1, 4))
def test_integer_sector_arithmetic_equals_the_fraction_formulas(a, b, m, nvars):
    """mt = m + n_f (b - 1/2) must be a non-negative integer; the dimension is
    C(N + mt, N); at b = 1/2 only the empty mask is listed."""
    params = ModelParams(nvars, a, b, m)
    listed = []
    for mask in ALL_MASKS:
        mt = m + mask.n_f * (b - Fraction(1, 2))
        valid = mt.denominator == 1 and mt >= 0
        assert params.shifted_degree(mask) == mt
        assert params.sector_is_valid(mask) == valid
        if valid:
            assert params.cutoff(mask) == mt
            assert params.basis_dimension(mask) == comb(nvars + int(mt), nvars)
            listed += [mask] if b != Fraction(1, 2) or not mask.indices else []
        else:
            with pytest.raises(InvalidDegree, match=f"degree cutoff to {mt},"):
                params.basis_dimension(mask)
    assert list_valid_masks(params) == tuple(listed)


def test_params_from_int_str_and_fraction_inputs_are_one_key():
    ints = ModelParams(2, 1, 0, 2, (2, -1, -1))
    strs = ModelParams(2, "1", "0", "2", ("2", "-1", "-1"))
    fractions = ModelParams(2, Fraction(1), Fraction(0), Fraction(2), (Fraction(2), -1, -1))
    assert ints == strs == fractions
    assert hash(ints) == hash(strs) == hash(fractions)
    keys = {ints: "ints"}
    assert keys[strs] == keys[fractions] == "ints"
    assert {strs, fractions} == {ints}
    half = ModelParams(1, "1/2", Fraction(-3, 6), "0.25")
    assert half == ModelParams(1, Fraction(1, 2), "-1/2", Fraction(1, 4))
    assert half.ints == (4, 2, -2, 1) and half.ints is half.ints
    assert {half: 1}[ModelParams(1, Fraction(2, 4), "-0.5", Fraction(1, 4))] == 1


def _forms(x: Fraction):
    """x as a Fraction, as a str and, where integral, as an int."""
    return st.sampled_from([x, str(x), *([x.numerator] if x.denominator == 1 else [])])


@given(st.integers(1, 4), st.lists(rationals(-6, 6), min_size=5, max_size=5),
       rationals(-6, 6), st.data())
def test_equal_values_in_any_form_are_one_key_and_replace_re_forms_it(nvars, values, other,
                                                                      data):
    """Parameter sets of equal values, each given as int, str or Fraction,
    compare and hash equal and share `ints`; `dataclasses.replace` forms the
    integer view and the hash of the new values, as a fresh build does."""
    a, b, m, e1, e2 = values
    roots = (e1, e2, -e1 - e2)
    built = [ModelParams(nvars, *(data.draw(_forms(x)) for x in (a, b, m)),
                         tuple(data.draw(_forms(x)) for x in roots)) for _ in range(2)]
    exact = ModelParams(nvars, a, b, m, roots)
    for params in built:
        assert params == exact and hash(params) == hash(exact) and params.ints == exact.ints
    for field, value, fresh in (
            ("coupling_a", other, ModelParams(nvars, other, b, m, roots)),
            ("degree_m", other, ModelParams(nvars, a, b, other, roots)),
            ("nvars", nvars + 1, ModelParams(nvars + 1, a, b, m, roots))):
        moved = dataclasses.replace(built[0], **{field: value})
        assert moved == fresh and hash(moved) == hash(fresh) and moved.ints == fresh.ints
