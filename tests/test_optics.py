"""Units, widths, offsets, dispersion, grids."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from spdc_modes.optics import (
    GAUSSIAN_FWHM_FACTOR,
    PhaseMatchConfig,
    SellmeierAxis,
    SellmeierCoefficients,
    WavevectorGrid,
    fwhm_to_sigma_k,
    noncollinear_offset,
    phase_matching_width,
    refractive_indices,
)

# BBO dispersion used by the shipped configs (lengths in um)
BBO = SellmeierCoefficients(
    ordinary=SellmeierAxis(2.7359, 0.01878, 0.01822, 0.01354),
    extraordinary=SellmeierAxis(2.3753, 0.01224, 0.01667, 0.01516),
)
BBO_CUT_DEG = 29.967519622236345


def test_fwhm_factor_value():
    assert GAUSSIAN_FWHM_FACTOR == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)), rel=0, abs=0)


def test_fwhm_examples_frozen():
    # independently: 2 sqrt(2 ln 2) / fwhm
    assert fwhm_to_sigma_k(250.0) == pytest.approx(0.009419280180123796, rel=1e-14)
    assert fwhm_to_sigma_k(246.0) == pytest.approx(0.009572439207442883, rel=1e-14)
    assert fwhm_to_sigma_k(250.0) == pytest.approx(
        2.0 * math.sqrt(2.0 * math.log(2.0)) / 250.0, rel=1e-15)


@settings(derandomize=True, max_examples=50)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False))
def test_fwhm_sigma_involution(value):
    assert fwhm_to_sigma_k(fwhm_to_sigma_k(value)) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("func", [fwhm_to_sigma_k])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_width_conversions_reject_nonpositive(func, bad):
    with pytest.raises(ValueError):
        func(bad)


def test_phase_matching_width_noncollinear_frozen():
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    got = phase_matching_width(cfg)
    assert got == pytest.approx(0.0031701009425325415, rel=1e-14)
    # independent recomputation of sqrt(n_s) / (L sqrt((n_s - n_p) * 0.195))
    oracle = math.sqrt(1.6614) / (3000.0 * math.sqrt((1.6614 - 1.5672) * 0.195))
    assert got == pytest.approx(oracle, rel=1e-15)


def test_phase_matching_width_collinear_frozen():
    # choose n_pump so the pump wavevector is exactly 24 1/um
    lam_p = 0.405
    n_pump = 24.0 * lam_p / (2.0 * math.pi)
    cfg = PhaseMatchConfig(3000.0, lam_p, 1.6, n_pump, regime="collinear")
    assert cfg.pump_wavevector == pytest.approx(24.0, rel=1e-14)
    got = phase_matching_width(cfg)
    assert got == pytest.approx(math.sqrt(96.0 / 747.0), rel=1e-12)
    assert got == pytest.approx(0.3585, abs=5e-4)


def test_offset_example_frozen():
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    off = noncollinear_offset(cfg)
    assert off.offset_um_inv == pytest.approx(8.679653687096893, rel=1e-14)
    oracle = 2.0 * math.pi * math.sqrt(2.0 * 1.6614 * (1.6614 - 1.5672)) / 0.405
    assert off.offset_um_inv == pytest.approx(oracle, rel=1e-15)
    # the signal sits at +K/2: K / 2 = k_s sin(theta)
    assert off.signal_angle_rad == pytest.approx(
        math.asin(off.offset_um_inv / (2.0 * cfg.signal_wavevector)), rel=1e-15)


def test_offset_vanishes_for_matched_indices():
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.60, 1.60, regime="collinear")
    off = noncollinear_offset(cfg)
    assert off.offset_um_inv == 0.0
    assert off.signal_angle_rad == 0.0


def test_noncollinear_requires_larger_signal_index():
    with pytest.raises(ValueError, match="radicand"):
        PhaseMatchConfig(3000.0, 0.405, 1.50, 1.60)


def test_offset_rejects_unreachable_angle():
    # huge index contrast drives K past the signal wavevector
    cfg = PhaseMatchConfig(3000.0, 0.405, 2.5, 0.1, regime="collinear")
    with pytest.raises(ValueError, match="emission angle"):
        noncollinear_offset(cfg)


def test_bbo_internal_emission_angle():
    # the shipped cut puts the signal 2.99768 deg off the pump inside the crystal
    n_o, _ = refractive_indices(BBO, 0.81)
    _, n_theta = refractive_indices(BBO, 0.405, math.radians(BBO_CUT_DEG))
    cfg = PhaseMatchConfig(3000.0, 0.405, n_o, n_theta)
    off = noncollinear_offset(cfg)
    assert math.degrees(off.signal_angle_rad) == pytest.approx(2.997680577307489, rel=1e-12)
    assert off.offset_um_inv == pytest.approx(1.3469921957226902, rel=1e-12)


def test_sellmeier_frozen_indices():
    n_o, n_e_principal = refractive_indices(BBO, 0.81, math.pi / 2.0)
    assert n_o == pytest.approx(1.6602583173171748, rel=1e-14)
    # independent evaluation of the dispersion form at 0.81 um
    lam2 = 0.81 * 0.81
    assert n_o == pytest.approx(
        math.sqrt(2.7359 + 0.01878 / (lam2 - 0.01822) - 0.01354 * lam2), rel=1e-15)
    assert n_e_principal == pytest.approx(
        math.sqrt(2.3753 + 0.01224 / (lam2 - 0.01667) - 0.01516 * lam2), rel=1e-15)
    _, n_pump = refractive_indices(BBO, 0.405, math.radians(BBO_CUT_DEG))
    assert n_pump == pytest.approx(1.6579880614409859, rel=1e-14)


def test_angle_tuned_index_limits():
    n_o, n_at_zero = refractive_indices(BBO, 0.405, 0.0)
    assert n_at_zero == pytest.approx(n_o, rel=1e-15)
    n_o2, n_at_ninety = refractive_indices(BBO, 0.405, math.pi / 2.0)
    assert n_at_ninety == pytest.approx(BBO.extraordinary.index(0.405), rel=1e-15)
    assert n_at_ninety < n_o2  # negative uniaxial


def test_sellmeier_pole_and_window_errors():
    with pytest.raises(ValueError, match="pole"):
        BBO.ordinary.index(0.13)
    with pytest.raises(ValueError, match="validity window"):
        refractive_indices(BBO, 1.5)
    with pytest.raises(ValueError, match="n\\^2"):
        SellmeierAxis(1.0, 0.001, 0.01822, 10.0).index(1.0)


def test_grid_basics():
    grid = WavevectorGrid.centered(0.5, 0.25, 101)
    assert grid.k_min == pytest.approx(0.25)
    assert grid.k_max == pytest.approx(0.75)
    assert grid.spacing == pytest.approx(0.5 / 100)
    pts = grid.points()
    assert pts.shape == (101,)
    assert pts[0] == grid.k_min and pts[-1] == grid.k_max
    assert grid.covers(0.3, 0.7)
    assert not grid.covers(0.2, 0.7)
    assert not grid.covers(0.3, 0.8)


def test_grid_validation():
    with pytest.raises(ValueError, match="16"):
        WavevectorGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="empty"):
        WavevectorGrid(1.0, 1.0, 32)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        PhaseMatchConfig(-1.0, 0.405, 1.6, 1.5)
    with pytest.raises(ValueError):
        PhaseMatchConfig(3000.0, 0.0, 1.6, 1.5)
    with pytest.raises(ValueError, match="regime"):
        PhaseMatchConfig(3000.0, 0.405, 1.6, 1.5, regime="sideways")
