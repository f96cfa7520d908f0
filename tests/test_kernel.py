"""Joint-amplitude builders: normalization, structure, pump plumbing."""

import copy
import math
import os

import numpy as np
import pytest

from spdc_modes.config import load_config
from spdc_modes.kernel import (
    MultiPeakParams,
    PumpSpectrum,
    TpaKernel,
    build_double_gaussian,
    build_from_pump,
    build_multipeak,
    default_grids,
    marginal_intensity,
    pump_spectrum_from_field,
    sum_coordinate_grid,
)
from spdc_modes.optics import (
    PhaseMatchConfig,
    PumpWidths,
    WavevectorGrid,
    noncollinear_offset,
    phase_matching_width,
)

SIGMA = 0.009419280180123796  # 250 um envelope
SINGLE = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "single_mode.yaml")


def centered(half, n=256):
    return WavevectorGrid.centered(0.0, half, n)


def test_normalization_unit_integral():
    widths = PumpWidths(SIGMA, 2.0 * SIGMA)
    kernel = build_double_gaussian(widths, centered(5 * 2 * SIGMA, 256))
    total = np.sum(np.abs(kernel.amplitude) ** 2) * kernel.grid_s.spacing * kernel.grid_i.spacing
    assert total == pytest.approx(1.0, abs=1e-12)
    assert kernel.norm() == pytest.approx(1.0, abs=1e-12)


def test_matched_widths_kernel_is_separable():
    widths = PumpWidths(SIGMA, SIGMA)
    kernel = build_double_gaussian(widths, centered(5 * SIGMA, 128))
    amp = kernel.amplitude
    i0 = amp.shape[0] // 2
    outer = np.outer(amp[:, i0], amp[i0, :]) / amp[i0, i0]
    assert np.allclose(amp, outer, rtol=1e-12, atol=1e-300)


def test_single_peak_reduces_to_double_gaussian():
    widths = PumpWidths(SIGMA, 1.7 * SIGMA)
    grid = centered(5 * 1.7 * SIGMA, 200)
    params = MultiPeakParams(1, 0.0, 0.0, widths)
    multi = build_multipeak(params, grid)
    ks = grid.points()[:, None]
    ki = grid.points()[None, :]
    closed = np.exp(-((ks + ki) ** 2) / (2.0 * widths.sigma_pump ** 2)
                    - ((ks - ki) ** 2) / (2.0 * widths.sigma_match ** 2))
    closed /= np.sqrt(np.sum(closed ** 2) * grid.spacing ** 2)
    assert np.allclose(multi.amplitude, closed, rtol=1e-12, atol=0.0)


def test_mode_offsets_centers_weights():
    params = MultiPeakParams(3, 0.168, 1.347, PumpWidths(SIGMA, SIGMA), side_amplitude=0.63)
    assert np.allclose(params.mode_offsets(), [0.168, 0.0, -0.168])
    assert np.allclose(params.pump_centers(), [0.336, 0.0, -0.336])
    assert np.allclose(params.weights(), [0.315, 0.5, 0.315])
    uniform = MultiPeakParams(4, 0.1, 0.0, PumpWidths(1.0, 1.0))
    assert np.allclose(uniform.mode_offsets(), [0.15, 0.05, -0.05, -0.15])
    assert np.allclose(uniform.weights(), np.ones(4))


def test_multipeak_param_validation():
    w = PumpWidths(1.0, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        MultiPeakParams(0, 0.1, 0.0, w)
    with pytest.raises(ValueError, match="spacing"):
        MultiPeakParams(2, 0.0, 0.0, w)
    with pytest.raises(ValueError, match="branch sign"):
        MultiPeakParams(1, 0.0, -1.0, w)
    with pytest.raises(ValueError, match="3-peak"):
        MultiPeakParams(2, 0.1, 0.0, w, side_amplitude=0.5)
    with pytest.raises(ValueError, match="side_amplitude"):
        MultiPeakParams(3, 0.1, 0.0, w, side_amplitude=1.5)


def test_resolution_refusal_names_point_count():
    widths = PumpWidths(SIGMA, SIGMA)
    with pytest.raises(ValueError, match="points"):
        build_double_gaussian(widths, WavevectorGrid.centered(0.0, 50 * SIGMA, 16))


def test_coverage_warning_on_narrow_grid():
    widths = PumpWidths(SIGMA, SIGMA)
    kernel = build_double_gaussian(widths, centered(2 * SIGMA, 64))
    assert any("clips" in w for w in kernel.warnings)
    wide = build_double_gaussian(widths, centered(6 * SIGMA, 64))
    assert wide.warnings == ()


def test_overlapping_peaks_warn_but_proceed():
    widths = PumpWidths(SIGMA, SIGMA)
    params = MultiPeakParams(3, 3.0 * SIGMA, 0.0, widths)
    grid = centered(3.0 * SIGMA + 5 * SIGMA, 256)
    kernel = build_multipeak(params, grid)
    assert any("overlap" in w for w in kernel.warnings)
    assert kernel.norm() == pytest.approx(1.0, abs=1e-12)


def test_default_grids_center_on_branch():
    def center(grid):
        return 0.5 * (grid.k_min + grid.k_max)

    params = MultiPeakParams(3, 0.168, 1.347, PumpWidths(SIGMA, SIGMA))
    gs, gi = default_grids(params, 128, 5.0, "+")
    assert center(gs) == pytest.approx(1.347 / 2)
    assert center(gi) == pytest.approx(-1.347 / 2)
    assert gs.covers(1.347 / 2 - 0.168, 1.347 / 2 + 0.168)
    gs_b, gi_b = default_grids(params, 128, 5.0, "both")
    assert center(gs_b) == 0.0 and center(gi_b) == 0.0
    assert gs_b.covers(-1.347 / 2, 1.347 / 2)


def test_both_branches_point_symmetric():
    widths = PumpWidths(SIGMA, SIGMA)
    params = MultiPeakParams(1, 0.0, 0.2, widths)
    gs, gi = default_grids(params, 129, 5.0, "both")
    kernel = build_multipeak(params, gs, gi, "both")
    assert np.allclose(kernel.amplitude, kernel.amplitude[::-1, ::-1], rtol=1e-12, atol=0.0)


def test_bad_branch_rejected():
    params = MultiPeakParams(1, 0.0, 0.2, PumpWidths(SIGMA, SIGMA))
    gs, gi = default_grids(params, 64)
    with pytest.raises(ValueError, match="branch"):
        build_multipeak(params, gs, gi, "x")
    with pytest.raises(ValueError, match="branch"):
        default_grids(params, 64, 5.0, "x")


def test_from_array_validation():
    grid = centered(1.0, 32)
    amp = np.ones((32, 32))
    amp[3, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TpaKernel.from_array(grid, grid, amp)
    with pytest.raises(ValueError, match="zero"):
        TpaKernel.from_array(grid, grid, np.zeros((32, 32)))
    with pytest.raises(ValueError, match="shape"):
        TpaKernel(grid, grid, np.ones((32, 31)))


def test_real_models_build_real_kernels():
    widths = PumpWidths(SIGMA, 1.7 * SIGMA)
    grid = centered(5 * 1.7 * SIGMA, 80)
    assert build_double_gaussian(widths, grid).amplitude.dtype == np.float64
    params = MultiPeakParams(3, 0.168, 1.347, PumpWidths(SIGMA, SIGMA), side_amplitude=0.63)
    gs, gi = default_grids(params, 256, 5.0, "+")
    assert build_multipeak(params, gs, gi, "+").amplitude.dtype == np.float64

    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.6614, regime="collinear")
    tk = sum_coordinate_grid(grid, grid).points()
    chirped = PumpSpectrum(tk, np.exp(-tk ** 2 / (2 * SIGMA ** 2) + 30j * tk))
    resolved = MultiPeakParams(1, 0.0, 0.0, PumpWidths(SIGMA, 1.7 * SIGMA))
    kernel = build_from_pump(chirped, resolved, cfg, grid, grid, "gaussian")
    assert kernel.amplitude.dtype == np.complex128
    assert np.abs(kernel.amplitude.imag).max() > 0


@pytest.mark.parametrize("model", ["gaussian", "sinc"])
def test_real_pump_spectrum_builds_a_real_kernel(model):
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.6614, regime="collinear")
    grid = centered(5 * 1.7 * SIGMA, 80)
    tk = sum_coordinate_grid(grid, grid).points()
    real = PumpSpectrum(tk, np.exp(-tk ** 2 / (2 * SIGMA ** 2)))
    # the same samples held as complex, so the builder takes its complex path
    promoted = copy.copy(real)
    object.__setattr__(promoted, "values", real.values.astype(complex))
    resolved = MultiPeakParams(1, 0.0, 0.0, PumpWidths(SIGMA, 1.7 * SIGMA))
    kernel = build_from_pump(real, resolved, cfg, grid, grid, model)
    reference = build_from_pump(promoted, resolved, cfg, grid, grid, model)
    assert kernel.amplitude.dtype == np.float64
    assert reference.amplitude.dtype == np.complex128
    assert np.array_equal(kernel.amplitude, reference.amplitude.real)


def test_from_array_real_input_matches_its_complex_promotion():
    grid = centered(1.0, 48)
    k = grid.points()
    raw = np.exp(-(k[:, None] - 0.3 * k[None, :]) ** 2 / 0.1) * (1.0 + k[:, None])
    real = TpaKernel.from_array(grid, grid, raw)
    promoted = TpaKernel.from_array(grid, grid, raw.astype(complex))
    assert real.amplitude.dtype == np.float64
    assert np.array_equal(real.amplitude, promoted.amplitude.real)
    assert np.array_equal(real.intensity().values, promoted.intensity().values)


def test_marginal_intensity_integrates_to_one():
    widths = PumpWidths(SIGMA, 2 * SIGMA)
    kernel = build_double_gaussian(widths, centered(10 * SIGMA, 256))
    k, m = marginal_intensity(kernel.intensity(), "signal")
    assert np.sum(m) * kernel.grid_s.spacing == pytest.approx(1.0, abs=1e-12)
    # marginal of the double Gaussian is Gaussian with variance (a^2+b^2)/8
    var = np.sum(m * k ** 2) * kernel.grid_s.spacing
    assert var == pytest.approx((SIGMA ** 2 + 4 * SIGMA ** 2) / 8.0, rel=1e-9)
    with pytest.raises(ValueError, match="which"):
        marginal_intensity(kernel.intensity(), "pump")


def test_sum_coordinate_grid_nodes():
    gs = WavevectorGrid(0.1, 0.35, 26)
    gi = WavevectorGrid(-0.4, -0.15, 26)
    total = sum_coordinate_grid(gs, gi)
    assert total.n_points == 51
    assert total.spacing == pytest.approx(gs.spacing, rel=1e-12)
    assert total.k_min == pytest.approx(gs.k_min + gi.k_min)
    assert total.k_max == pytest.approx(gs.k_max + gi.k_max)
    # every pairwise sum lands on a node
    sums = gs.points()[:, None] + gi.points()[None, :]
    nodes = total.points()
    idx = np.rint((sums - total.k_min) / total.spacing).astype(int)
    assert np.allclose(nodes[idx], sums, atol=1e-12)
    with pytest.raises(ValueError, match="spacing"):
        sum_coordinate_grid(gs, WavevectorGrid(-0.4, -0.1, 26))


def test_pump_spectrum_validation():
    k = np.linspace(-1, 1, 64)
    with pytest.raises(ValueError, match="increasing"):
        PumpSpectrum(k[::-1], np.ones(64))
    with pytest.raises(ValueError, match="finite"):
        PumpSpectrum(k, np.full(64, np.inf))
    with pytest.raises(ValueError, match="power"):
        PumpSpectrum(k, np.zeros(64))
    spec = PumpSpectrum(k, np.exp(-k ** 2))
    assert np.trapezoid(np.abs(spec.values) ** 2, k) == pytest.approx(1.0, rel=1e-12)


def test_build_from_pump_matches_multipeak():
    widths = PumpWidths(SIGMA, 0.0031701009425325415)
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    offset = 8.679653687096893
    params = MultiPeakParams(3, 0.168, offset, widths, side_amplitude=0.63)
    gs, gi = default_grids(params, 640, 5.0, "+")
    direct = build_multipeak(params, gs, gi, "+")

    total = sum_coordinate_grid(gs, gi)
    tk = total.points()
    vals = np.zeros_like(tk)
    for w, c in zip(params.weights(), params.pump_centers()):
        vals += w * np.exp(-((tk - c) ** 2) / (2.0 * widths.sigma_pump ** 2))
    pump = PumpSpectrum(tk, vals)
    resolved = MultiPeakParams(1, 0.0, noncollinear_offset(cfg).offset_um_inv,
                               PumpWidths(SIGMA, widths.sigma_match))
    rebuilt = build_from_pump(pump, resolved, cfg, gs, gi, "gaussian", branch="+")
    assert np.max(np.abs(rebuilt.amplitude - direct.amplitude)) < 1e-10 * np.abs(direct.amplitude).max()


def test_pump_spectrum_from_field_gaussian():
    sigma_k = 0.02
    x = np.linspace(-8 / sigma_k, 8 / sigma_k, 4001)
    field = np.exp(-(x ** 2) * sigma_k ** 2 / 2.0)
    grid = WavevectorGrid.centered(0.0, 4 * sigma_k, 161)
    spec = pump_spectrum_from_field(x, field, grid)
    k = grid.points()
    expected = np.exp(-(k ** 2) / (2.0 * sigma_k ** 2))
    expected /= math.sqrt(np.trapezoid(expected ** 2, k))
    # transform is real up to roundoff and matches the analytic Gaussian
    assert np.max(np.abs(spec.values.imag)) < 1e-9
    assert np.max(np.abs(spec.values.real - expected)) < 1e-6


def test_pump_spectrum_from_field_validation():
    x = np.linspace(-1, 1, 64)
    grid = centered(1.0, 32)
    with pytest.raises(ValueError, match="matching"):
        pump_spectrum_from_field(x, np.ones(63), grid)
    with pytest.raises(ValueError, match="increasing"):
        pump_spectrum_from_field(x[::-1], np.ones(64), grid)


def test_build_from_pump_coverage_warning():
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672, regime="collinear")
    grid = centered(5 * SIGMA, 64)
    narrow = PumpSpectrum(np.linspace(-SIGMA, SIGMA, 64),
                          np.exp(-np.linspace(-1, 1, 64) ** 2))
    resolved = MultiPeakParams(1, 0.0, 0.0, PumpWidths(SIGMA, SIGMA))
    kernel = build_from_pump(narrow, resolved, cfg, grid, grid, "gaussian")
    assert any("pump spectrum" in w for w in kernel.warnings)


def test_sinc_vs_gaussian_noncollinear_fwhm():
    """Anti-diagonal cut through the sinc kernel vs its Gaussian stand-in.

    Along ks + ki = 0 the pump factor is constant, so the cut profiles the
    matching factor alone; the intensity FWHM ratio sinc/Gaussian is
    2*1.3915574 / (2*sqrt(ln 2)*sqrt(0.39)) = 1.0439 for the linearized
    noncollinear mismatch.
    """
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    offset = 8.679653687096893
    sigma_match = 0.0031701009425325415
    half = 4.0 * sigma_match
    n = 1601
    gs = WavevectorGrid.centered(offset / 2.0, half, n)
    gi = WavevectorGrid.centered(-offset / 2.0, half, n)

    tk = np.linspace(-0.2, 0.2, 801)
    pump = PumpSpectrum(tk, np.exp(-(tk ** 2) / (2.0 * 0.01 ** 2)))

    def antidiag_fwhm(kernel):
        prof = np.abs(np.diagonal(kernel.amplitude[:, ::-1])) ** 2
        delta = 2.0 * kernel.grid_s.points()  # ks - ki = 2 ks on this cut
        half_max = prof.max() / 2.0
        above = np.flatnonzero(prof >= half_max)
        i, j = above[0], above[-1]
        left = np.interp(half_max, prof[i - 1:i + 1], delta[i - 1:i + 1])
        right = np.interp(half_max, prof[j + 1:j - 1:-1], delta[j + 1:j - 1:-1])
        return right - left

    resolved = MultiPeakParams(1, 0.0, noncollinear_offset(cfg).offset_um_inv,
                               PumpWidths(0.01, phase_matching_width(cfg)))
    gauss = build_from_pump(pump, resolved, cfg, gs, gi, "gaussian", branch="+")
    sinc = build_from_pump(pump, resolved, cfg, gs, gi, "sinc", branch="+")
    ratio = antidiag_fwhm(sinc) / antidiag_fwhm(gauss)

    slope = cfg.crystal_length_um * offset / (4.0 * cfg.signal_wavevector)
    oracle = (2.0 * 1.3915574 / slope) / (2.0 * sigma_match * math.sqrt(math.log(2.0)))
    assert ratio == pytest.approx(oracle, rel=1e-2)
    assert ratio == pytest.approx(1.044, rel=0.10)


def test_sinc_collinear_matches_gaussian_fit_width():
    lam_p = 0.405
    n_pump = 24.0 * lam_p / (2.0 * math.pi)
    cfg = PhaseMatchConfig(3000.0, lam_p, 1.6, n_pump, regime="collinear")
    sigma_match = math.sqrt(96.0 / 747.0)

    n = 1201
    grid = WavevectorGrid.centered(0.0, 4.0 * sigma_match, n)
    tk = np.linspace(-6.0, 6.0, 801)
    pump = PumpSpectrum(tk, np.exp(-(tk ** 2) / 2.0))

    resolved = MultiPeakParams(1, 0.0, 0.0, PumpWidths(1.0, phase_matching_width(cfg)))
    gauss = build_from_pump(pump, resolved, cfg, grid, grid, "gaussian", branch="both")
    sinc = build_from_pump(pump, resolved, cfg, grid, grid, "sinc", branch="both")

    def antidiag_fwhm(kernel):
        prof = np.abs(np.diagonal(kernel.amplitude[:, ::-1])) ** 2
        delta = 2.0 * kernel.grid_s.points()
        half_max = prof.max() / 2.0
        above = np.flatnonzero(prof >= half_max)
        i, j = above[0], above[-1]
        left = np.interp(half_max, prof[i - 1:i + 1], delta[i - 1:i + 1])
        right = np.interp(half_max, prof[j + 1:j - 1:-1], delta[j + 1:j - 1:-1])
        return right - left

    # the 0.249 fit was chosen to equalize intensity FWHMs, so ratio ~ 1
    assert antidiag_fwhm(sinc) / antidiag_fwhm(gauss) == pytest.approx(1.0, abs=1e-2)


def test_collinear_sinc_refuses_an_offset_ring():
    # the collinear sinc peaks at ks - ki = 0; on the override ring it put the
    # kernel on a side lobe, at 1.182 where the Gaussian model peaks at 1.2
    run = load_config(SINGLE, {"phase_match.regime": "collinear",
                               "phase_match.offset_override_um_inv": 1.2})
    gs, gi = run.grids()
    tk = sum_coordinate_grid(gs, gi).points()
    pump = PumpSpectrum(tk, np.exp(-(tk ** 2) / (2.0 * run.pump.widths.sigma_pump ** 2)))
    gauss = build_from_pump(pump, run.pump, run.phase_match, gs, gi, "gaussian")
    i, j = np.unravel_index(np.argmax(np.abs(gauss.amplitude)), gauss.amplitude.shape)
    assert gs.points()[i] - gi.points()[j] == pytest.approx(1.2, abs=2 * gs.spacing)
    with pytest.raises(ValueError, match="collinear sinc profile .* offset 1.2 1/um"):
        build_from_pump(pump, run.pump, run.phase_match, gs, gi, "sinc")


def test_build_from_pump_rejects_bad_model():
    grid = centered(1.0, 32)
    pump = PumpSpectrum(np.linspace(-3, 3, 64), np.exp(-np.linspace(-3, 3, 64) ** 2))
    cfg = PhaseMatchConfig(3000.0, 0.405, 1.6614, 1.5672)
    resolved = MultiPeakParams(1, 0.0, noncollinear_offset(cfg).offset_um_inv,
                               PumpWidths(1.0, phase_matching_width(cfg)))
    with pytest.raises(ValueError, match="model"):
        build_from_pump(pump, resolved, cfg, grid, grid, "cosine")
